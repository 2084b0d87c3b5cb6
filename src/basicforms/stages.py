"""Two-route comparison for quotients taken in stages.

Given a big action on R^n, a polynomial projection pi onto R^m carrying an
induced action, and a truncation window, there are two ways to produce
forms on R^n that should descend all the way down:

* route one: compute the invariant horizontal basis for the induced action
  downstairs and pull it back through pi;
* route two: compute the invariant horizontal basis for the big action
  directly, in the window of degree p*d + k*(p - 1) for k-forms of degree
  d downstairs, where p = deg(pi): pullback raises a coefficient of degree
  d to degree at most p*d, and each dx_i to a 1-form whose coefficients
  have degree at most p - 1.

Route one must land inside route two's span; for degree-1 projections the
two spans must agree exactly.  Both routes are computed independently and
compared by exact ranks.  The direct forms are a canonical kernel basis,
so their rank is their number.  With the pulled-back forms as the first
columns of one matrix and the direct forms after them, route one lies in
route two's span when the whole matrix has that rank, and the spans agree
when the pulled-back columns alone have it too.
"""

from __future__ import annotations

from typing import NamedTuple

from .actions import ActionSpec, act_pullback
from .forms import Form, PolyMap, lie_derivative, pullback
from .linalg import prefix_ranks
from .solver import TruncationSpec, basic_form_basis, span_matrix


class IntertwiningError(ValueError):
    """The projection does not carry induced invariants to big invariants."""

    def __init__(self, message: str, witness: Form):
        super().__init__(message)
        self.witness = witness


class StagesReport(NamedTuple):
    """Outcome of the two-route span comparison."""

    contained: bool
    span_equal: bool | None  # None when deg(pi) > 1: only containment is claimed
    map_degree: int
    induced_dim_downstairs: int
    dim_pulled_back: int
    dim_direct: int
    truncation: TruncationSpec
    direct_truncation: TruncationSpec

    @property
    def passed(self) -> bool:
        if not self.contained:
            return False
        return self.span_equal is not False


def stages_check(
    big: ActionSpec,
    projection: PolyMap,
    induced: ActionSpec,
    spec: TruncationSpec,
) -> StagesReport:
    """Compare pulled-back induced basics against direct big basics.

    Before comparing, the projection is checked to intertwine the actions on
    the window: the pullback of every induced basic form must be invariant
    for the big action (discrete and infinitesimal).  A violation raises
    :class:`IntertwiningError` with the offending form as witness.
    """
    if projection.domain_dim != big.dim:
        raise ValueError("projection domain must match the big action's space")
    if projection.codomain_dim != induced.dim:
        raise ValueError("projection codomain must match the induced action's space")
    degree = max(projection.max_degree(), 1)

    downstairs = basic_form_basis(induced, spec)
    pulled = [pullback(projection, beta) for beta in downstairs]

    for beta, image in zip(downstairs, pulled):
        for g in big.discrete:
            if act_pullback(g, image) != image:
                raise IntertwiningError(
                    "projection does not intertwine: pulled-back form is not "
                    "invariant under a discrete generator",
                    beta,
                )
        for xi in big.infinitesimal:
            if not lie_derivative(xi, image).is_zero:
                raise IntertwiningError(
                    "projection does not intertwine: pulled-back form has "
                    "nonzero Lie derivative along an infinitesimal generator",
                    beta,
                )

    direct_spec = TruncationSpec(
        spec.grade, degree * spec.max_degree + spec.grade * (degree - 1)
    )
    direct = basic_form_basis(big, direct_spec)

    # one row per monomial that some form of either route uses
    pulled_rank, joined_rank = prefix_ranks(
        span_matrix(pulled + direct), [len(pulled), len(pulled) + len(direct)]
    )
    span_equal = None
    if degree == 1:
        span_equal = pulled_rank == joined_rank == len(direct)
    return StagesReport(
        contained=joined_rank == len(direct),
        span_equal=span_equal,
        map_degree=degree,
        induced_dim_downstairs=len(downstairs),
        dim_pulled_back=len(pulled),
        dim_direct=len(direct),
        truncation=spec,
        direct_truncation=direct_spec,
    )
