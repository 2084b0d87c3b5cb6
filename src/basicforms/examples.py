"""Stock actions used by the bundled jobs and the test suite.

These are the small standard situations the library is exercised on:

* ``z2_line``: the sign flip on R (finite group, nontrivial invariants);
* ``irrational_torus_line``: two dense translations of R, one by the formal
  parameter (no continuous directions, invariants are constants);
* ``solenoid_plane``: a line flowing with irrational slope plus the integer
  lattice on R^2 (one continuous direction, one-dimensional space of
  descending 1-forms);
* ``so2_plane``: the rotation field on R^2 (purely continuous);
* ``c4_square_chart``: the order-4 rotation group as a finite chart;
* ``solenoid_stages``: the solenoid action together with the projection
  along its flow direction and the induced translations downstairs.
"""

from __future__ import annotations

from .actions import ActionSpec, AffineMap
from .forms import PolyMap, VectorField
from .orbifolds import OrbifoldChart
from .polynomials import Polynomial
from .scalars import Scalar


def z2_line() -> ActionSpec:
    return ActionSpec(1, discrete=[AffineMap.from_rows([[-1]], [0])])


def irrational_torus_line() -> ActionSpec:
    return ActionSpec(
        1,
        discrete=[
            AffineMap.translation_by([1]),
            AffineMap.translation_by([Scalar.parameter()]),
        ],
    )


def solenoid_field() -> VectorField:
    """Unit flow in x with slope ``a`` in y."""
    return VectorField([Polynomial.constant(2, 1), Polynomial.parameter(2)])


def solenoid_plane() -> ActionSpec:
    return ActionSpec(
        2,
        discrete=[AffineMap.translation_by([1, 0]), AffineMap.translation_by([0, 1])],
        infinitesimal=[solenoid_field()],
    )


def so2_plane() -> ActionSpec:
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    return ActionSpec(2, infinitesimal=[VectorField([-y, x])])


def c4_square_chart() -> OrbifoldChart:
    quarter_turn = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    return OrbifoldChart(2, [quarter_turn], cap=8)


def solenoid_stages() -> tuple[ActionSpec, PolyMap, ActionSpec]:
    """(big action, projection along the flow, induced action downstairs).

    The projection y - a*x is constant along the flow direction; the lattice
    descends to translations by 1 and by -a on the line.
    """
    big = solenoid_plane()
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    projection = PolyMap(2, [y - x.scale(Scalar.parameter())])
    induced = ActionSpec(
        1,
        discrete=[
            AffineMap.translation_by([1]),
            AffineMap.translation_by([-Scalar.parameter()]),
        ],
    )
    return big, projection, induced
