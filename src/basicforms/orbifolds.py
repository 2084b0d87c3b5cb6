"""Invariant forms on finite-group charts.

A chart is a finite group of exact invertible affine maps acting on R^n,
given by generators S.  Its constructor builds the group G with one
breadth-first walk (:func:`~basicforms.actions.group_closure`, |G|*|S|
products, no inverses), so the group is closed by construction.

With no connected directions the horizontal condition is vacuous, so the
forms that descend are exactly the invariant ones.  They are computed as
the kernel of the stacked invariance constraints under the generators (the
solver route): a form fixed by every generator is fixed by every word in
them, hence by the whole group.  Two checks then prove that answer:

* soundness: each generator's pullback fixes every basis form, at |S|
  pullbacks per form, which by the above is the whole group fixing it.
  The check shares each generator's power table and pulled-back
  covectors with the assembly, which built them; it shares neither the
  window indexing, nor the -1 of g^* - id, nor the elimination;
* completeness: the basis has as many forms as Molien's formula counts
  invariants in the window, from one characteristic polynomial per group
  element and no window linear algebra.

The kernel basis comes from a reduced row echelon form, so it is linearly
independent; with both checks passing it spans the invariants.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .actions import ActionSpec, AffineMap, Rows, act_pullback, group_closure
from .forms import Form
from .scalars import ONE, ZERO, Scalar
from .solver import TruncationSpec, basic_form_basis


class OrbifoldChart:
    """Finite affine group action used as a local model.

    Built from its generators: ``group`` is their breadth-first closure,
    identity first, and so is closed by construction; ``generators`` keeps
    them in input order.  Raises ValueError for no generators or one of
    the wrong dimension, and :class:`~basicforms.actions.GroupNotFiniteError`
    when the group has more than ``cap`` elements.
    """

    __slots__ = ("_dim", "_group", "_generators")

    def __init__(self, dim: int, generators: Sequence[AffineMap], cap: int = 64):
        for g in generators:
            if g.dim != dim:
                raise ValueError("generator has the wrong dimension")
        self._dim = dim
        self._generators = tuple(generators)
        self._group = tuple(group_closure(self._generators, cap))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def group(self) -> tuple[AffineMap, ...]:
        return self._group

    @property
    def generators(self) -> tuple[AffineMap, ...]:
        """The given generators, in input order; their words give the group."""
        return self._generators

    def __repr__(self) -> str:
        return f"OrbifoldChart(dim={self._dim}, order={len(self._group)})"


def orbifold_invariant_forms(chart: OrbifoldChart, spec: TruncationSpec) -> list[Form]:
    """Canonical basis of group-invariant forms in the window.

    Computed from the kernel of the invariance constraints under
    ``chart.generators``, one block per generator.  The kernel is the same
    subspace as under every group element, so the canonical basis is too.
    The answer is then proven: each generator's pullback must fix every
    basis form (soundness), and the basis must have as many forms as
    Molien's formula counts (completeness).  The pullbacks reuse the power
    table and pulled-back covectors that the assembly built for each
    generator, but not its window indexing, its -1 of g^* - id or its
    elimination; Molien's count shares nothing with it.  A failure of
    either check means a bug, not a property of the input, hence
    RuntimeError, with its own message for each.
    """
    action = ActionSpec(chart.dim, discrete=chart.generators)
    basis = basic_form_basis(action, spec)
    for form in basis:
        if any(act_pullback(g, form) != form for g in chart.generators):
            raise RuntimeError("soundness: a generator moves a kernel basis form")
    expected = _molien_dimension(chart, spec)
    if len(basis) != expected:
        raise RuntimeError(
            f"completeness: the kernel has {len(basis)} forms but Molien's "
            f"formula counts {expected} invariants in the window"
        )
    return basis


def _det_coefficients(rows: Rows) -> tuple[Scalar, ...]:
    """Coefficients q_0, ..., q_n of det(I - t*A), low degree first.

    det(I - tA) is t^n times the characteristic polynomial of A at 1/t, so
    the Faddeev-LeVerrier recurrence gives them: with P_1 = A,
    q_k = -tr(P_k)/k and P_{k+1} = A (P_k + q_k I) = A P_k + q_k A.  Also
    q_k = (-1)^k tr Lambda^k(A), so one recurrence gives both factors of a
    Molien term.  The products skip the zero entries of A.
    """
    n = len(rows)
    nonzero = [[(l, e) for l, e in enumerate(row) if not e.is_zero] for row in rows]

    def next_entry(power, q: Scalar, i: int, j: int) -> Scalar:
        """Entry (i, j) of A P_k + q_k A, from P_k and q_k."""
        return sum((e * power[l][j] for l, e in nonzero[i]), q * rows[i][j])

    coeffs = [ONE]
    power = rows
    for k in range(1, n + 1):
        q = -sum((power[i][i] for i in range(n)), ZERO) / k
        coeffs.append(q)
        if k == n - 1:  # the last power is read only on its diagonal
            power = [{i: next_entry(power, q, i, i)} for i in range(n)]
        elif k < n:
            power = [[next_entry(power, q, i, j) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


def _molien_dimension(chart: OrbifoldChart, spec: TruncationSpec) -> int:
    """Dimension of the invariant forms in the window, by Molien's formula.

    The window W(k, d) holds the k-forms with coefficients of degree at
    most d, so its invariant count is the coefficient of t^d in

        (1/|G|) sum_g tr Lambda^k(A_g) / ((1 - t) det(I - t A_g)),

    summed over the linear parts A_g alone.  A finite affine group fixes
    the centroid c of the orbit of 0; translating c to the origin keeps
    every window and turns each g into A_g, so c is never needed.  Group
    elements with one characteristic polynomial contribute the same term,
    so each distinct one is expanded once.  Exact in Scalar, since chart
    generators may mention the parameter; a total that mentions it or is
    not an integer means a bug.
    """
    n, grade = chart.dim, spec.grade
    total = ZERO
    for q, count in Counter(_det_coefficients(g.linear) for g in chart.group).items():
        series = [ONE]  # 1/det(I - tA) through t^d
        for k in range(1, spec.max_degree + 1):
            series.append(
                -sum((q[i] * series[k - i] for i in range(1, min(k, n) + 1)), ZERO)
            )
        wedge_trace = -q[grade] if grade % 2 else q[grade]
        total = total + count * wedge_trace * sum(series, ZERO)
    total = total / len(chart.group)
    if not total.is_rational or total.as_fraction().denominator != 1:
        raise RuntimeError(f"Molien's formula gives a non-integer count {total}")
    return int(total.as_fraction())

