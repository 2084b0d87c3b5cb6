"""Invariant forms on finite-group charts.

A chart is a finite group of exact invertible affine maps acting on R^n.
With no connected directions the horizontal condition is vacuous, so the
forms that descend are exactly the invariant ones.  Two independent
routes compute them, and both must agree:

* the kernel of the stacked invariance constraints (the solver route);
* the span of the Reynolds projector (group averaging) applied to the
  monomial window.

Chart compatibility on overlaps is a structural pullback equality, checked
exactly.
"""

from __future__ import annotations

from typing import Sequence

from .actions import ActionSpec, AffineMap, act_pullback
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
    """Finite affine group action used as a local model."""

    __slots__ = ("_dim", "_group", "_label")

    def __init__(self, dim: int, group: Sequence[AffineMap], label: str = ""):
        if not group:
            raise ValueError("chart group is empty")
        for g in group:
            if g.dim != dim:
                raise ValueError("group element has the wrong dimension")
        members = set(group)
        if len(members) != len(group):
            raise ValueError("chart group has duplicate elements")
        if AffineMap.identity(dim) not in members:
            raise ValueError("chart group must contain the identity")
        for g in group:
            for h in group:
                if g.compose(h) not in members:
                    raise ValueError("chart group is not closed under composition")
        self._dim = dim
        self._group = tuple(group)
        self._label = label

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def group(self) -> tuple[AffineMap, ...]:
        return self._group

    @property
    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:
        tag = f" {self._label!r}" if self._label else ""
        return f"OrbifoldChart(dim={self._dim}, order={len(self._group)}{tag})"


def orbifold_invariant_forms(chart: OrbifoldChart, spec: TruncationSpec) -> list[Form]:
    """Canonical basis of group-invariant forms in the window.

    Computed from the invariance kernel, then cross-checked against the span
    of the Reynolds projector over the same monomial window; disagreement
    means a bug, not a property of the input, hence RuntimeError.
    """
    action = ActionSpec(chart.dim, discrete=chart.group)
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
