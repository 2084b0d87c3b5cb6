"""Numeric verification of forms along sampled smooth curves and maps.

A :class:`Plot` is a sampled smooth map from a parameter box into R^n:
parameter grid, values, and Jacobians, all floats.  Pulling a form back
along a plot produces, per sample, the components of the pulled-back form
on the standard parameter basis k-tuples.  Two plots that land in the same
quotient (same composition with the projection) must produce identical
pullback tensors for any form that descends; :func:`criterion_check`
measures the worst disagreement.

Forms are evaluated with ``a`` bound exactly: a form that mentions the
parameter is bound with ``bind_param`` to a rational before it is
sampled, and raises ``UnboundParameterError`` otherwise.  The float
``bind_a`` of :func:`builtin_plot` and :func:`builtin_gauge` is data of
the plot itself (``solenoid_line_flowed`` moves along the flow of slope
``a``), never a form coefficient.

The flat bump functions used by the built-in ``z2_p1``/``z2_p2`` pair are
the classic smooth-but-not-analytic examples: e^(-1/t^2) glued at 0, where
every derivative vanishes.  Their closed-form derivatives are built in, so
no finite differences pollute those plots.

Only :func:`smooth_gauge_check` differentiates numerically (the gauge path
is sampled, not symbolic); it refuses grids whose finite-difference error
estimate is not comfortably below the tolerance.

Numbers are computed on whole sample arrays: :func:`pullback_along_plot`
makes one :func:`~basicforms.forms.eval_form` call per parameter index
tuple, over all samples at once.  Each array entry takes exactly the
arithmetic of the float path at that sample, and powers are repeated
products (``x^3 = (x*x)*x``), not numpy's ``**``: numpy's power is not
odd-symmetric and differs from Python's float power on some inputs, while a
product flips sign exactly with its factor, so an odd form pulls back to
exactly opposite values at opposite points.  The registry plots follow the
same rule for the same reason: the flat bump takes one ``exp`` and its
derivative is 2 e^(-1/t^2) / ((t*t)*t), so on a grid symmetric about 0
``z2_p1`` is exactly odd with an exactly even Jacobian and ``z2_p2`` has
an exactly odd Jacobian.  Where the exponential underflows to 0, the bump
and its derivative are exactly 0, so a tiny grid around the glue point
gives zero Jacobians, not 0/0.

Each check is one public function that streams: it takes the grid and a
``sample`` function that builds the plots (or the plot and the gauge) on
one block of grid rows, and walks the grid in fixed blocks of rows
(``_BLOCK_ROWS``), so its memory does not grow with the grid beyond the
grid itself and one deviation per sample.  A gauge block also samples a
halo of two rows on each side (``_HALO``, and at least five rows in all),
which its fourth-order derivative stencils read; halo rows count neither
in the deviations nor in the finite-difference error estimate, so a
report is the same, bit for bit, whatever the block size.  The job
runners call these functions with samplers of the registry plots and
gauges, which are never built whole.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .forms import Form, eval_form

DEFAULT_SYMBOLIC_TOL = 1e-9
DEFAULT_FD_TOL = 1e-6

# Checks stream over the grid in blocks of at most _BLOCK_ROWS rows; a gauge
# block also reads _HALO rows on each side for its derivative stencils.
_BLOCK_ROWS = 4096
_HALO = 2


class GridTooCoarseError(ValueError):
    """Finite-difference error estimate too large for the requested tolerance."""


@dataclass(frozen=True)
class Plot:
    """Sampled smooth map: grid (S, q), values (S, n), jacobians (S, n, q)."""

    grid: np.ndarray
    values: np.ndarray
    jacobians: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim == 1:
            grid = grid[:, None]
        values = np.asarray(self.values, dtype=float)
        jac = np.asarray(self.jacobians, dtype=float)
        if grid.ndim != 2 or values.ndim != 2 or jac.ndim != 3:
            raise ValueError("plot arrays have wrong ranks")
        samples, q = grid.shape
        n = values.shape[1]
        if values.shape[0] != samples or jac.shape != (samples, n, q):
            raise ValueError(
                f"inconsistent plot shapes: grid {grid.shape}, values {values.shape}, "
                f"jacobians {jac.shape}"
            )
        for name, arr in (("grid", grid), ("values", values), ("jacobians", jac)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"plot {name} contain non-finite entries")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jacobians", jac)

    @property
    def num_samples(self) -> int:
        return self.grid.shape[0]

    @property
    def param_dim(self) -> int:
        return self.grid.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GroupPath:
    """Sampled path of invertible affine maps over a 1-parameter grid."""

    grid: np.ndarray
    linears: np.ndarray  # (S, n, n)
    translations: np.ndarray  # (S, n)

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim == 1:
            grid = grid[:, None]
        linears = np.asarray(self.linears, dtype=float)
        translations = np.asarray(self.translations, dtype=float)
        samples = grid.shape[0]
        if linears.ndim != 3 or linears.shape[0] != samples:
            raise ValueError("gauge linear parts have wrong shape")
        n = linears.shape[1]
        if linears.shape != (samples, n, n) or translations.shape != (samples, n):
            raise ValueError("gauge shapes are inconsistent")
        for name, arr in (("grid", grid), ("linear parts", linears), ("translations", translations)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"gauge {name} contain non-finite entries")
        dets = np.linalg.det(linears)
        if np.any(np.abs(dets) < 1e-12):
            raise ValueError("gauge contains a numerically singular map")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "linears", linears)
        object.__setattr__(self, "translations", translations)

    @property
    def dim(self) -> int:
        return self.linears.shape[1]


@dataclass(frozen=True)
class DeviationReport:
    """Worst-case disagreement over all samples and basis tuples."""

    max_abs_deviation: float
    argmax_index: int
    argmax_param: tuple[float, ...]
    tolerance: float
    passed: bool
    deviations: np.ndarray = field(repr=False, compare=False)


def _flat_bump(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^(-1/t^2) and its derivative 2 e^(-1/t^2) / t^3, both exactly 0
    wherever the exponential underflows to 0, t = 0 included.

    Where e^(-1/t^2) is not 0, |t| > 0.036 and t^3 is a normal float, so
    the quotient is finite; where it is 0, t^3 may underflow as well and
    the quotient would be 0/0.  For huge |t| the powers overflow to inf,
    which gives the right limits, e = 1 and derivative 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tt = t * t
        bump = np.exp(-1.0 / tt)
        prime = 2.0 * bump / (tt * t)
    prime[bump == 0.0] = 0.0
    return bump, prime


def default_line_grid(start: float = -1.5, stop: float = 1.5, count: int = 2001) -> np.ndarray:
    """Uniform 1-parameter grid; the midpoint is snapped to 0 exactly when
    the range is symmetric and the count odd (the flat plots glue there)."""
    grid = np.linspace(start, stop, count)
    if count % 2 == 1 and abs(start + stop) < 1e-15:
        grid[count // 2] = 0.0
    return grid


def _as_param_column(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    if g.ndim != 2 or g.shape[1] != 1:
        raise ValueError("this builtin needs a 1-parameter grid")
    return g


def _plot_z2_p1(grid: np.ndarray, bind_a: float | None) -> Plot:
    g = _as_param_column(grid)
    t = g[:, 0]
    sign = np.sign(t)
    bump, prime = _flat_bump(t)
    values = (sign * bump)[:, None]
    jac = (sign * prime)[:, None, None]
    return Plot(g, values, jac)


def _plot_z2_p2(grid: np.ndarray, bind_a: float | None) -> Plot:
    g = _as_param_column(grid)
    t = g[:, 0]
    bump, prime = _flat_bump(t)
    values = (-bump)[:, None]
    jac = (-prime)[:, None, None]
    return Plot(g, values, jac)


def _plot_torus_line(grid: np.ndarray, bind_a: float | None) -> Plot:
    g = _as_param_column(grid)
    t = g[:, 0]
    return Plot(g, t[:, None], np.ones_like(t)[:, None, None])


def _plot_torus_line_shifted(grid: np.ndarray, bind_a: float | None) -> Plot:
    g = _as_param_column(grid)
    t = g[:, 0]
    return Plot(g, (t + 1.0)[:, None], np.ones_like(t)[:, None, None])


def _plot_solenoid_line(grid: np.ndarray, bind_a: float | None) -> Plot:
    g = _as_param_column(grid)
    t = g[:, 0]
    values = np.stack([t, np.zeros_like(t)], axis=1)
    jac = np.stack([np.ones_like(t), np.zeros_like(t)], axis=1)[:, :, None]
    return Plot(g, values, jac)


def _plot_solenoid_line_flowed(grid: np.ndarray, bind_a: float | None) -> Plot:
    # the same line pushed by the flow at time t, so the slope parameter enters
    if bind_a is None:
        raise ValueError("plot 'solenoid_line_flowed' needs a numeric value for 'a'")
    g = _as_param_column(grid)
    t = g[:, 0]
    values = np.stack([2.0 * t, bind_a * t], axis=1)
    jac = np.stack([np.full_like(t, 2.0), np.full_like(t, bind_a)], axis=1)[:, :, None]
    return Plot(g, values, jac)


def _plot_so2_arc(grid: np.ndarray, bind_a: float | None) -> Plot:
    g = _as_param_column(grid)
    t = g[:, 0]
    c, s = np.cos(t), np.sin(t)
    values = np.stack([c, s], axis=1)
    jac = np.stack([-s, c], axis=1)[:, :, None]
    return Plot(g, values, jac)


_PLOT_REGISTRY: dict[str, Callable[[np.ndarray, float | None], Plot]] = {
    "z2_p1": _plot_z2_p1,
    "z2_p2": _plot_z2_p2,
    "torus_line": _plot_torus_line,
    "torus_line_shifted": _plot_torus_line_shifted,
    "solenoid_line": _plot_solenoid_line,
    "solenoid_line_flowed": _plot_solenoid_line_flowed,
    "so2_arc": _plot_so2_arc,
}


def plot_names() -> list[str]:
    return sorted(_PLOT_REGISTRY)


def builtin_plot(name: str, grid: np.ndarray, bind_a: float | None = None) -> Plot:
    """Instantiate a registered plot on a grid.

    Plots whose formulas involve the parameter require ``bind_a``.
    """
    builder = _PLOT_REGISTRY.get(name)
    if builder is None:
        raise KeyError(f"unknown plot {name!r}; known: {', '.join(plot_names())}")
    return builder(np.asarray(grid, dtype=float), bind_a)


def _gauge_so2_half_turn(grid: np.ndarray, bind_a: float | None) -> GroupPath:
    g = _as_param_column(grid)
    theta = g[:, 0] / 2.0
    c, s = np.cos(theta), np.sin(theta)
    linears = np.stack(
        [np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1
    )
    return GroupPath(g, linears, np.zeros((g.shape[0], 2)))


def _gauge_so2_identity(grid: np.ndarray, bind_a: float | None) -> GroupPath:
    g = _as_param_column(grid)
    samples = g.shape[0]
    linears = np.broadcast_to(np.eye(2), (samples, 2, 2)).copy()
    return GroupPath(g, linears, np.zeros((samples, 2)))


_GAUGE_REGISTRY: dict[str, Callable[[np.ndarray, float | None], GroupPath]] = {
    "so2_half_turn": _gauge_so2_half_turn,
    "so2_identity": _gauge_so2_identity,
}


def gauge_names() -> list[str]:
    return sorted(_GAUGE_REGISTRY)


def builtin_gauge(name: str, grid: np.ndarray, bind_a: float | None = None) -> GroupPath:
    builder = _GAUGE_REGISTRY.get(name)
    if builder is None:
        raise KeyError(f"unknown gauge {name!r}; known: {', '.join(gauge_names())}")
    return builder(np.asarray(grid, dtype=float), bind_a)


def basis_tuples(param_dim: int, grade: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(param_dim), grade))


def pullback_along_plot(plot: Plot, form: Form) -> np.ndarray:
    """Per-sample components of the pulled-back form.

    Output has shape (num_samples, C(param_dim, grade)); columns follow
    lexicographic parameter index tuples.  A grade above the parameter
    dimension yields a zero-width result (nothing survives pullback).  A
    form that mentions ``a`` is bound exactly first (see :func:`eval_form`).
    """
    if form.dim != plot.ambient_dim:
        raise ValueError("form and plot live in different ambient dimensions")
    combos = basis_tuples(plot.param_dim, form.grade)
    out = np.zeros((plot.num_samples, len(combos)))
    point = plot.values.T
    for ci, combo in enumerate(combos):
        vectors = [plot.jacobians[:, :, j].T for j in combo]
        out[:, ci] = eval_form(form, point, vectors)
    return out


def _report(deviations: np.ndarray, grid: np.ndarray, tol: float) -> DeviationReport:
    idx = int(np.argmax(deviations)) if deviations.size else 0
    worst = float(deviations[idx]) if deviations.size else 0.0
    return DeviationReport(
        max_abs_deviation=worst,
        argmax_index=idx,
        argmax_param=tuple(float(v) for v in grid[idx]) if grid.size else (),
        tolerance=tol,
        passed=worst <= tol,
        deviations=deviations,
    )


def _deviations(first: Plot, second: Plot, form: Form) -> np.ndarray:
    """Per-sample worst absolute difference of the two pullbacks."""
    diff = np.abs(pullback_along_plot(first, form) - pullback_along_plot(second, form))
    return diff.max(axis=1) if diff.shape[1] else np.zeros(first.num_samples)


def criterion_check(
    grid: np.ndarray,
    sample: Callable[[np.ndarray], tuple[Plot, Plot]],
    form: Form,
    tol: float = DEFAULT_SYMBOLIC_TOL,
) -> DeviationReport:
    """Compare pullbacks of a form along two plots over one grid.

    ``sample(rows)`` returns the two plots sampled on ``rows``, a block of
    rows of ``grid``; they must land in one ambient space.  PASS means the
    worst absolute difference of pullback components is within ``tol``.
    """
    grid = grid.reshape(grid.shape[0], -1)
    samples = grid.shape[0]
    deviations = np.empty(samples)
    for start in range(0, samples, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, samples))
        first, second = sample(grid[rows])
        if first.ambient_dim != second.ambient_dim:
            raise ValueError("plots land in different ambient spaces")
        deviations[rows] = _deviations(first, second, form)
    return _report(deviations, grid, tol)


def _fd_derivative(arr: np.ndarray, spacing: float, own: slice) -> tuple[np.ndarray, float]:
    """Fourth-order finite-difference derivative along axis 0, on rows ``own``.

    ``arr`` needs at least five rows.  One-sided fourth-order stencils
    cover its two rows at each end, so the accuracy is uniform across the
    grid; centred rows read two rows on each side, which is why a block
    carries a halo of two rows.  Returns the derivative on ``own`` and an
    error estimate over ``own``: the worst difference against the
    second-order stencil, which bounds the coarser stencil's truncation
    error and so is a conservative proxy for our own.
    """
    flat = arr.reshape(arr.shape[0], -1)
    second = np.gradient(flat, spacing, axis=0, edge_order=2)
    fourth = np.empty_like(second)
    fourth[2:-2] = (
        flat[:-4] - 8.0 * flat[1:-3] + 8.0 * flat[3:-1] - flat[4:]
    ) / (12.0 * spacing)
    h12 = 12.0 * spacing
    f0, f1, f2, f3, f4 = flat[0], flat[1], flat[2], flat[3], flat[4]
    fourth[0] = (-25.0 * f0 + 48.0 * f1 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4) / h12
    fourth[1] = (-3.0 * f0 - 10.0 * f1 + 18.0 * f2 - 6.0 * f3 + f4) / h12
    g0, g1, g2, g3, g4 = flat[-1], flat[-2], flat[-3], flat[-4], flat[-5]
    fourth[-1] = (25.0 * g0 - 48.0 * g1 + 36.0 * g2 - 16.0 * g3 + 3.0 * g4) / h12
    fourth[-2] = (3.0 * g0 + 10.0 * g1 - 18.0 * g2 + 6.0 * g3 - g4) / h12
    fourth, second = fourth[own], second[own]
    estimate = float(np.max(np.abs(fourth - second)))
    return fourth.reshape((-1,) + arr.shape[1:]), estimate


def _uniform_spacing(t: np.ndarray) -> float:
    spacings = np.diff(t)
    h = float(spacings[0])
    if h <= 0 or not np.allclose(spacings, h, rtol=1e-9, atol=0.0):
        raise ValueError("gauge checks need a uniformly increasing grid")
    return h


def smooth_gauge_check(
    grid: np.ndarray,
    sample: Callable[[np.ndarray], tuple[Plot, GroupPath]],
    form: Form,
    tol: float = DEFAULT_FD_TOL,
) -> DeviationReport:
    """Compare a plot against its pointwise gauge transform.

    ``sample(rows)`` returns the plot and the gauge path sampled on
    ``rows``, a block of rows of the uniform 1-parameter ``grid``; the
    gauge must act on the plot's ambient space.  The second plot is a(u)
    applied to the first; its Jacobian needs the derivative of the gauge
    path, estimated by finite differences over the grid, so each block is
    sampled with its halo, and at least five rows, for the stencils; halo
    rows never enter the deviations or the error estimate.  Raises
    :class:`GridTooCoarseError` when the estimated finite-difference error
    exceeds tol / 10.
    """
    grid = grid.reshape(grid.shape[0], -1)
    if grid.shape[1] != 1:
        raise ValueError("gauge checks support 1-parameter plots only")
    t = grid[:, 0]
    samples = len(t)
    if samples < 5:
        raise GridTooCoarseError("need at least 5 samples for derivative estimates")
    h = _uniform_spacing(t)
    deviations = np.empty(samples)
    lin_err = tr_err = scale = 0.0
    for start in range(0, samples, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, samples)
        lo = max(0, min(start - _HALO, samples - 5))
        hi = min(samples, max(stop + _HALO, 5))
        plot, gauge = sample(grid[lo:hi])
        if gauge.dim != plot.ambient_dim:
            raise ValueError("gauge acts on the wrong ambient dimension")
        own = slice(start - lo, stop - lo)
        lin_prime, err = _fd_derivative(gauge.linears, h, own)
        lin_err = max(lin_err, err)
        tr_prime, err = _fd_derivative(gauge.translations, h, own)
        tr_err = max(tr_err, err)
        plot = Plot(plot.grid[own], plot.values[own], plot.jacobians[own])
        linears = gauge.linears[own]
        if plot.values.size:
            scale = max(scale, float(np.max(np.abs(plot.values))))
        values = np.einsum("sij,sj->si", linears, plot.values) + gauge.translations[own]
        jac = (
            np.einsum("sij,sjq->siq", linears, plot.jacobians)
            + (np.einsum("sij,sj->si", lin_prime, plot.values) + tr_prime)[:, :, None]
        )
        transformed = Plot(plot.grid, values, jac)
        deviations[start:stop] = _deviations(plot, transformed, form)

    estimate = lin_err * max(scale, 1.0) + tr_err
    if estimate > tol / 10.0:
        raise GridTooCoarseError(
            f"finite-difference error estimate {estimate:.3e} exceeds tol/10 = "
            f"{tol / 10.0:.3e}; refine the grid"
        )
    return _report(deviations, grid, tol)
