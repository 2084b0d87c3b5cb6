"""Invariant forms on finite-group charts.

A chart is a finite group of exact invertible affine maps acting on R^n,
given by generators S.  Its constructor builds the group G with one
breadth-first walk (:func:`~basicforms.actions.closure_walk`, |G|*|S|
products, no inverses), so the group is closed by construction, and keeps
the walk's right-multiplication table and each element's word.

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
  invariants in the window.  The count needs each element's
  characteristic polynomial, which it gets from the power sums
  tr A_g^m, m <= n, read off the closure's table, with Newton's
  identities once per distinct tuple of them; it forms no product of
  maps and no window linear algebra.

The kernel basis comes from a reduced row echelon form, so it is linearly
independent; with both checks passing it spans the invariants.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .actions import ActionSpec, AffineMap, act_pullback, closure_walk
from .forms import Form
from .scalars import ONE, ZERO, Scalar
from .solver import TruncationSpec, basic_form_basis


class OrbifoldChart:
    """Finite affine group action used as a local model.

    Built from its generators: ``group`` is their breadth-first closure,
    identity first, and so is closed by construction; ``generators`` keeps
    them in input order.  The walk's right-multiplication ``table`` and
    each element's ``words`` are kept too.  Raises ValueError for no
    generators or one of the wrong dimension, and
    :class:`~basicforms.actions.GroupNotFiniteError` when the group has
    more than ``cap`` elements.
    """

    __slots__ = ("_dim", "_group", "_generators", "_table", "_words")

    def __init__(self, dim: int, generators: Sequence[AffineMap], cap: int = 64):
        for g in generators:
            if g.dim != dim:
                raise ValueError("generator has the wrong dimension")
        self._dim = dim
        self._generators = tuple(generators)
        walk = closure_walk(self._generators, cap)
        self._group = tuple(walk.group)
        self._table = tuple(walk.table)
        self._words = tuple(walk.words)

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

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """``group[table[i][s]] == group[i].compose(generators[s])``."""
        return self._table

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """``group[i]`` is the product of ``generators[s]`` for s in ``words[i]``, in order."""
        return self._words

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


def _power_sums(chart: OrbifoldChart) -> list[tuple[Scalar, ...]]:
    """(tr A_g, tr A_g^2, ..., tr A_g^n) for every element g, in group order.

    The linear part is a homomorphism, so A_g^m is the linear part of g^m,
    and tr A_g^m is the trace of that element.  Each trace is read once;
    g^m is reached from g^(m-1) by following g's word through the
    closure's table, integer lookups and no product of maps.
    """
    n = chart.dim
    traces = [sum((g.linear[i][i] for i in range(1, n)), g.linear[0][0]) for g in chart.group]
    table, sums = chart.table, []
    for i, word in enumerate(chart.words):
        power, row = i, [traces[i]]
        for _ in range(n - 1):
            for s in word:
                power = table[power][s]
            row.append(traces[power])
        sums.append(tuple(row))
    return sums


def _newton_coefficients(sums: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Coefficients q_0, ..., q_n of det(I - t*A), low degree first, from p_m = tr A^m.

    det(I - tA) = prod_i (1 - lambda_i t), so q_k = (-1)^k e_k(lambda) =
    (-1)^k tr Lambda^k(A), and Newton's identities read
    k q_k = -sum_{i=1..k} p_i q_{k-i}.  Exact over Q(a): the only
    division is by k <= n.
    """
    coeffs = [ONE]
    for k in range(1, len(sums) + 1):
        total = sums[k - 1]  # p_k q_0
        for i in range(1, k):
            total = total + sums[i - 1] * coeffs[k - i]
        coeffs.append(-total / k)
    return tuple(coeffs)


def _molien_dimension(chart: OrbifoldChart, spec: TruncationSpec) -> int:
    """Dimension of the invariant forms in the window, by Molien's formula.

    The window W(k, d) holds the k-forms with coefficients of degree at
    most d, so its invariant count is the coefficient of t^d in

        (1/|G|) sum_g tr Lambda^k(A_g) / ((1 - t) det(I - t A_g)),

    summed over the linear parts A_g alone.  A finite affine group fixes
    the centroid c of the orbit of 0; translating c to the origin keeps
    every window and turns each g into A_g, so c is never needed.  Over a
    field of characteristic 0 the power sums (tr A_g^m, m <= n) fix the
    characteristic polynomial and it fixes them, so elements are counted
    by their tuple of power sums, read off the closure's table, and
    Newton's identities give det(I - t A_g) once per distinct tuple; the
    count forms no product of maps.  Exact in Scalar, since chart
    generators may mention the parameter; a total that mentions it or is
    not an integer means a bug.
    """
    n, grade = chart.dim, spec.grade
    total = ZERO
    for sums, count in Counter(_power_sums(chart)).items():
        q = _newton_coefficients(sums)
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

