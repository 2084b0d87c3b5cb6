"""Invariant forms on finite-group charts.

A chart is a finite group of exact invertible affine maps acting on R^n,
given by generators S.  Its constructor builds the group G with one
breadth-first walk (:func:`~basicforms.actions.group_closure`, |G|*|S|
products, no inverses), so the group is closed by construction.

With no connected directions the horizontal condition is vacuous, so the
forms that descend are exactly the invariant ones.  Two independent
routes compute them, and both must agree:

* the kernel of the stacked invariance constraints under the generators
  (the solver route): a form fixed by every generator is fixed by every
  word in them, hence by the whole group;
* the span of the Reynolds projector (averaging over the whole group)
  applied to the monomial window.

Chart compatibility on overlaps is a structural pullback equality, checked
exactly.
"""

from __future__ import annotations

from typing import Sequence

from .actions import ActionSpec, AffineMap, act_pullback, group_closure
from .forms import Form
from .solver import (
    TruncationSpec,
    Window,
    basic_form_basis,
    reynolds_average,
    span_matrix,
)
from .linalg import column_span_equal


class OrbifoldChart:
    """Finite affine group action used as a local model.

    Built from its generators: ``group`` is their breadth-first closure,
    identity first, and so is closed by construction; ``generators`` keeps
    them in input order.  Raises ValueError for no generators or one of
    the wrong dimension, and :class:`~basicforms.actions.GroupNotFiniteError`
    when the group has more than ``cap`` elements.
    """

    __slots__ = ("_dim", "_group", "_generators", "_label")

    def __init__(
        self, dim: int, generators: Sequence[AffineMap], label: str = "", cap: int = 64
    ):
        for g in generators:
            if g.dim != dim:
                raise ValueError("generator has the wrong dimension")
        self._dim = dim
        self._generators = tuple(generators)
        self._group = tuple(group_closure(self._generators, cap))
        self._label = label

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
    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:
        tag = f" {self._label!r}" if self._label else ""
        return f"OrbifoldChart(dim={self._dim}, order={len(self._group)}{tag})"


def orbifold_invariant_forms(chart: OrbifoldChart, spec: TruncationSpec) -> list[Form]:
    """Canonical basis of group-invariant forms in the window.

    Computed from the kernel of the invariance constraints under
    ``chart.generators``, one block per generator, then cross-checked
    against the span of the Reynolds projector, which averages over the
    whole ``chart.group``, on the same monomial window.  The kernel is the
    same subspace as under every group element, so the canonical basis is
    too.  Disagreement means a bug, not a property of the input, hence
    RuntimeError.
    """
    action = ActionSpec(chart.dim, discrete=chart.generators)
    kernel_route = basic_form_basis(action, spec)

    window = Window(chart.dim, spec.grade, spec.max_degree)
    averaged = [
        reynolds_average(chart, window.monomial(j)) for j in range(window.size)
    ]
    averaged = [f for f in averaged if not f.is_zero]
    if not column_span_equal(
        span_matrix(window, kernel_route), span_matrix(window, averaged)
    ):
        raise RuntimeError(
            "invariance kernel and Reynolds projector disagree on the window"
        )
    return kernel_route


def chart_compatibility_check(
    transition: AffineMap, alpha_source: Form, alpha_target: Form
) -> bool:
    """Exact overlap compatibility: pullback of the target form equals the source.

    ``transition`` maps the source chart into the target chart; the check is
    the structural equality transition^*(alpha_target) == alpha_source.
    """
    if transition.dim != alpha_source.dim or transition.dim != alpha_target.dim:
        raise ValueError("transition and forms live on different spaces")
    return act_pullback(transition, alpha_target) == alpha_source
