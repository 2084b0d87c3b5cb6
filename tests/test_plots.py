"""Numeric checks on sampled curves: builtin plots, pullback comparison,
and gauge smoothing.

The flat-glue plots are validated against hand-computed derivatives and a
finite-difference cross-check, so the later pass/fail assertions rest on
independently verified sample data.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from basicforms import jobs, plots
from basicforms.expressions import parse_poly_expr
from basicforms.forms import Form, PolyMap, eval_form, pullback
from basicforms.plots import (
    DeviationReport,
    GridTooCoarseError,
    GroupPath,
    Plot,
    basis_tuples,
    builtin_gauge,
    builtin_plot,
    criterion_check,
    default_line_grid,
    gauge_names,
    plot_names,
    pullback_along_plot,
    smooth_gauge_check,
)
from basicforms.polynomials import Polynomial
from basicforms.scalars import UnboundParameterError
from helpers import plot_from_poly_map, rand_form, safe_a0


def _form(dim: int, *terms: tuple[tuple[int, ...], str], names=("x", "y", "z")):
    """Assemble a form from (index-tuple, coefficient-expression) pairs."""
    total = None
    for indices, expr in terms:
        piece = Form.monomial(dim, indices, parse_poly_expr(expr, list(names[:dim])))
        total = piece if total is None else total + piece
    return total


X_DX = _form(1, ((0,), "x"))
DX1 = _form(1, ((0,), "1"))
DX2 = _form(2, ((0,), "1"))
RADIAL = _form(2, ((0,), "x"), ((1,), "y"))


def _pair(first: str, second: str, bind_a: float | None = None):
    """A sampler of two registry plots on a block of grid rows."""
    return lambda rows: (builtin_plot(first, rows, bind_a), builtin_plot(second, rows, bind_a))


def _gauged(plot: str, gauge: str):
    """A sampler of a registry plot and a registry gauge on a block of grid rows."""
    return lambda rows: (builtin_plot(plot, rows), builtin_gauge(gauge, rows))


def test_default_grid_shape_and_midpoint():
    grid = default_line_grid()
    assert grid.shape == (2001,)
    assert grid[0] == -1.5 and grid[-1] == 1.5
    assert grid[1000] == 0.0  # glue point must be hit exactly
    assert np.allclose(np.diff(grid), grid[1] - grid[0])


def test_registries():
    assert plot_names() == [
        "so2_arc",
        "solenoid_line",
        "solenoid_line_flowed",
        "torus_line",
        "torus_line_shifted",
        "z2_p1",
        "z2_p2",
    ]
    assert gauge_names() == ["so2_half_turn", "so2_identity"]
    with pytest.raises(KeyError) as raised:
        builtin_plot("nope", default_line_grid())
    assert raised.value.args[0] == f"unknown plot 'nope'; known: {', '.join(plot_names())}"
    with pytest.raises(KeyError) as raised:
        builtin_gauge("nope", default_line_grid())
    assert raised.value.args[0] == "unknown gauge 'nope'; known: so2_half_turn, so2_identity"


def test_builtins_take_a_flat_or_one_column_grid_only():
    grid = default_line_grid(count=11)
    flat, column = builtin_plot("so2_arc", grid), builtin_plot("so2_arc", grid[:, None])
    assert np.array_equal(flat.grid, column.grid) and flat.grid.shape == (11, 1)
    assert np.array_equal(flat.jacobians, column.jacobians)
    assert np.array_equal(builtin_gauge("so2_half_turn", grid).linears,
                          builtin_gauge("so2_half_turn", grid[:, None]).linears)
    for bad in (np.zeros((11, 2)), np.float64(0.5), np.zeros((11, 1, 1))):
        with pytest.raises(ValueError, match="^this builtin needs a 1-parameter grid$"):
            builtin_plot("torus_line", bad)
        with pytest.raises(ValueError, match="^this builtin needs a 1-parameter grid$"):
            builtin_gauge("so2_identity", bad)


def test_flowed_line_requires_slope_value():
    with pytest.raises(ValueError, match="'a'"):
        builtin_plot("solenoid_line_flowed", default_line_grid())


def test_z2_plot_hand_values():
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    p1 = builtin_plot("z2_p1", grid)
    p2 = builtin_plot("z2_p2", grid)
    b1 = math.exp(-1.0)
    # p1 is odd with derivative 2 e^{-1/t^2} sgn(t) / t^3, even in t
    assert p1.values[:, 0] == pytest.approx([-b1, -math.exp(-4.0), 0.0, math.exp(-4.0), b1])
    assert p1.jacobians[0, 0, 0] == pytest.approx(2.0 * b1)
    assert p1.jacobians[4, 0, 0] == pytest.approx(2.0 * b1)
    assert p1.values[2, 0] == 0.0 and p1.jacobians[2, 0, 0] == 0.0
    # p2 is the reflected branch
    assert p2.values[:, 0] == pytest.approx(-np.abs(p1.values[:, 0]))
    assert p2.jacobians[4, 0, 0] == pytest.approx(-2.0 * b1)


def test_z2_plots_have_exact_parity():
    # on a grid symmetric about 0: z2_p1 odd with an even Jacobian, and the
    # Jacobian of z2_p2 odd, entry for entry under ==
    t = np.linspace(0.01, 1.5, 50000)
    grid = np.concatenate([-t[::-1], [0.0], t])
    p1 = builtin_plot("z2_p1", grid)
    p2 = builtin_plot("z2_p2", grid)
    v1, j1, j2 = p1.values[:, 0], p1.jacobians[:, 0, 0], p2.jacobians[:, 0, 0]
    assert np.array_equal(v1[::-1], -v1)
    assert np.array_equal(j1[::-1], j1)
    assert np.array_equal(j2[::-1], -j2)


def test_z2_jacobian_matches_finite_differences():
    # away from the flat point the stored Jacobian must track the samples
    t = np.linspace(0.3, 1.5, 4001)
    p1 = builtin_plot("z2_p1", t)
    fd = np.gradient(p1.values[:, 0], t, edge_order=2)
    assert np.max(np.abs(fd - p1.jacobians[:, 0, 0])) < 1e-6


def test_criterion_passes_for_matching_pullbacks():
    report = criterion_check(default_line_grid(), _pair("z2_p1", "z2_p2"), X_DX, tol=1e-9)
    assert report.passed
    assert report.max_abs_deviation <= 1e-9


def test_criterion_fails_for_non_invariant_form():
    report = criterion_check(default_line_grid(), _pair("z2_p1", "z2_p2"), DX1, tol=1e-9)
    assert not report.passed
    assert report.max_abs_deviation >= 1e-3
    # worst disagreement sits on the positive branch where the signs differ
    assert report.argmax_param[0] > 0.0


def test_torus_lines_agree_on_dx_only():
    grid = default_line_grid()
    lines = _pair("torus_line", "torus_line_shifted")
    assert criterion_check(grid, lines, DX1, tol=1e-12).passed
    bad = criterion_check(grid, lines, X_DX, tol=1e-9)
    assert not bad.passed
    assert bad.max_abs_deviation == pytest.approx(1.0)


def test_solenoid_lines_agree_on_the_basic_form():
    # the form's a is bound exactly; the flowed plot takes its float as data
    grid = default_line_grid()
    form = _form(2, ((0,), "a"), ((1,), "-1"))
    for a0 in (Fraction("0.618"), Fraction(2)):
        lines = _pair("solenoid_line", "solenoid_line_flowed", float(a0))
        good = criterion_check(grid, lines, form.bind_param(a0), tol=1e-12)
        assert good.passed
        bad = criterion_check(grid, lines, DX2, tol=1e-9)
        assert not bad.passed and bad.max_abs_deviation == pytest.approx(1.0)
        with pytest.raises(UnboundParameterError):
            criterion_check(grid, lines, form)


def test_criterion_rejects_mismatched_plots():
    # one sampler on one grid: only the ambient spaces can disagree
    with pytest.raises(ValueError, match="ambient"):
        criterion_check(default_line_grid(), _pair("torus_line", "solenoid_line"), DX1)


def test_gauge_check_passes_for_radial_form():
    report = smooth_gauge_check(
        default_line_grid(), _gauged("so2_arc", "so2_half_turn"), RADIAL, tol=1e-6
    )
    assert report.passed
    assert report.max_abs_deviation <= 1e-6


def test_gauge_check_fails_for_dx():
    report = smooth_gauge_check(
        default_line_grid(), _gauged("so2_arc", "so2_half_turn"), DX2, tol=1e-6
    )
    assert not report.passed
    assert report.max_abs_deviation >= 1e-3


def test_identity_gauge_deviation_is_zero():
    report = smooth_gauge_check(
        default_line_grid(), _gauged("so2_arc", "so2_identity"), DX2, tol=1e-9
    )
    assert report.passed
    assert report.max_abs_deviation == 0.0


def test_gauge_check_rejects_coarse_grids():
    arc = _gauged("so2_arc", "so2_half_turn")
    with pytest.raises(GridTooCoarseError, match="refine"):
        smooth_gauge_check(default_line_grid(count=11), arc, RADIAL, tol=1e-6)
    with pytest.raises(GridTooCoarseError, match="at least 5"):
        smooth_gauge_check(default_line_grid(count=4), arc, RADIAL, tol=1e-6)


def test_gauge_check_rejects_wrong_dimension_and_grid_shape():
    # one sampler on one grid: the gauge's dimension and the grid itself
    # are what can be wrong
    with pytest.raises(ValueError, match="ambient dimension"):
        smooth_gauge_check(default_line_grid(), _gauged("torus_line", "so2_half_turn"), DX1)
    arc = _gauged("so2_arc", "so2_half_turn")
    uneven = np.concatenate([default_line_grid(count=11), [2.0]])
    with pytest.raises(ValueError, match="uniformly increasing"):
        smooth_gauge_check(uneven, arc, RADIAL)
    with pytest.raises(ValueError, match="1-parameter"):
        smooth_gauge_check(np.zeros((11, 2)), arc, RADIAL)


def _bumped_grid(bump: float, at: int = 15000, count: int = 30001) -> np.ndarray:
    """A grid of step h = 2^-10, exact in binary, whose step into sample ``at`` is off.

    Every sample from ``at`` on moves by ``bump * h``, so that step is off
    by ``bump * h`` and no other step is.
    """
    h = 2.0**-10
    t = np.arange(count) * h
    t[at:] += bump * h
    return t


def test_uniform_spacing_refuses_a_step_off_by_more_than_1e_9_h():
    h = 2.0**-10
    assert plots._uniform_spacing(_bumped_grid(0.0)) == h
    assert plots._uniform_spacing(_bumped_grid(0.5e-9)) == h
    for grid in (_bumped_grid(2e-9), _bumped_grid(math.nan), -_bumped_grid(0.0)):
        with pytest.raises(ValueError, match="uniformly increasing"):
            plots._uniform_spacing(grid)


def test_uniform_spacing_is_the_allclose_predicate():
    """Seeded grids with one moved sample: accepted exactly when np.allclose accepts them."""
    rng = random.Random(3501)
    for _ in range(200):
        count = rng.randint(5, 60)
        bump = rng.choice((0.2, 0.45, 0.55, 1.0, 3.0)) * 1e-9
        t = _bumped_grid(bump, rng.randrange(count), count)
        t = t * rng.choice((1.0, 3.0, 1e-6, 1e6)) + rng.uniform(-5, 5)
        steps = np.diff(t)
        expected = steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        try:
            plots._uniform_spacing(t)
        except ValueError:
            assert not expected
        else:
            assert expected


def test_pullback_along_plot_matches_symbolic_pullback():
    # phi(u, v) = (u^2, u*v, v - 1); compare numeric pullback samples
    # against evaluating the symbolic pullback in the (u, v) chart
    u = Polynomial.variable(2, 0)
    v = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    phi = PolyMap(2, [u * u, u * v, v - one])
    rng = random.Random(506)
    grid = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(40)])
    plot = plot_from_poly_map(phi, grid)
    form = _form(3, ((1, 2), "x"), ((0, 2), "2"))
    sym = pullback(phi, form)
    numeric = pullback_along_plot(plot, form)
    e0, e1 = [1.0, 0.0], [0.0, 1.0]
    for s in range(grid.shape[0]):
        expect = eval_form(sym, grid[s], [e0, e1])
        assert numeric[s, 0] == pytest.approx(expect, abs=1e-12)


def test_grade_above_param_dim_pulls_back_to_nothing():
    grid = default_line_grid(count=21)
    line = builtin_plot("solenoid_line", grid)
    area = _form(2, ((0, 1), "1"))
    out = pullback_along_plot(line, area)
    assert out.shape == (21, 0)
    report = criterion_check(grid, _pair("solenoid_line", "solenoid_line"), area)
    assert report.passed and report.max_abs_deviation == 0.0


def test_plot_shape_validation():
    with pytest.raises(ValueError):
        Plot(np.zeros(5), np.zeros((4, 1)), np.zeros((4, 1, 1)))
    with pytest.raises(ValueError, match="singular"):
        GroupPath(np.zeros((3, 2, 2)), np.zeros((3, 2)))
    eye = np.broadcast_to(np.eye(2), (3, 2, 2))
    with pytest.raises(ValueError, match="non-finite"):
        GroupPath(np.full((3, 2, 2), np.nan), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        GroupPath(eye, np.full((3, 2), np.inf))


def test_gauge_refuses_a_3x3_path_singular_at_one_sample():
    grid = np.linspace(0.0, 1.0, 5)
    linears = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
    linears[:, 0, 1] = grid  # shears: determinant 1 everywhere
    translations = np.zeros((5, 3))
    assert GroupPath(linears, translations).dim == 3
    singular = linears.copy()
    singular[3] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    with pytest.raises(ValueError, match="numerically singular"):
        GroupPath(singular, translations)
    # no zero entry and no zero row: the determinant 1e-13 alone refuses it
    tiny = linears.copy()
    tiny[2] = np.diag([1e-5, 1e-5, 1e-3]) + 1e-9
    with pytest.raises(ValueError, match="numerically singular"):
        GroupPath(tiny, translations)


def test_report_fields():
    grid = default_line_grid(count=101)
    report = criterion_check(grid, _pair("torus_line", "torus_line_shifted"), X_DX, tol=0.5)
    assert isinstance(report, DeviationReport)
    assert report.tolerance == 0.5
    assert report.deviations.shape == (101,)
    assert report.max_abs_deviation == report.deviations[report.argmax_index]


def test_pullback_along_plot_equals_per_sample_eval_form():
    # the batched pullback takes the per-sample arithmetic, bit for bit; a
    # form over Q(a) is bound exactly to a seeded rational first
    rng = random.Random(4401)
    data = np.random.default_rng(4401)
    for _ in range(40):
        dim = rng.randint(1, 3)
        grade = rng.randint(0, min(2, dim))
        q = rng.randint(1, 2)
        with_param = rng.random() < 0.4
        form = rand_form(rng, dim, grade, max_degree=4, with_param=with_param)
        if with_param:
            form = form.bind_param(safe_a0(rng, *form.terms.values()))
        samples = 30
        plot = Plot(
            data.uniform(-2.0, 2.0, (samples, q)),
            data.uniform(-2.0, 2.0, (samples, dim)),
            data.uniform(-2.0, 2.0, (samples, dim, q)),
        )
        got = pullback_along_plot(plot, form)
        combos = basis_tuples(q, grade)
        assert got.shape == (samples, len(combos))
        for s in range(samples):
            for ci, combo in enumerate(combos):
                vectors = [plot.jacobians[s][:, j] for j in combo]
                assert got[s, ci] == eval_form(form, plot.values[s], vectors)


_ODD_PLUS_EVEN = {"grade": 1, "terms": [{"indices": [0], "coefficient": "x - 2*x^3 + 1/3*x^2"}]}
_ROTATION = {
    "grade": 1,
    "terms": [
        {"indices": [0], "coefficient": "x + 2*x^3 + 2*x*y^2 - y"},
        {"indices": [1], "coefficient": "y + 2*x^2*y + 2*y^3"},
    ],
}


def _public_check(job):
    """The job's check through the public function the job runs."""
    count = job["grid"]["count"]
    grid = default_line_grid(-1.5, 1.5, count)
    form = jobs._parse_form(job["form"], 1 if job["command"] == "criterion" else 2, "form")
    if job["command"] == "criterion":
        sample = _pair(job["plots"]["first"], job["plots"]["second"])
        return criterion_check(grid, sample, form, job["tolerance"])
    return smooth_gauge_check(grid, _gauged(job["plot"], job["gauge"]), form, job["tolerance"])


def _outcome(check):
    try:
        return check()
    except GridTooCoarseError as exc:
        return str(exc)


@pytest.mark.parametrize("remainder", range(6))
def test_blocked_checks_match_one_block(monkeypatch, remainder):
    block = 7
    seen = []
    to_json = jobs._deviation_json
    monkeypatch.setattr(jobs, "_deviation_json", lambda r: seen.append(r) or to_json(r))

    def grid(blocks):
        return {"start": -1.5, "stop": 1.5, "count": blocks * block + remainder}

    cases = [
        {"command": "criterion", "plots": {"first": "z2_p1", "second": "z2_p2"},
         "grid": grid(40), "form": _ODD_PLUS_EVEN, "tolerance": 1e-9},
        {"command": "gauge", "plot": "so2_arc", "gauge": "so2_half_turn",
         "grid": grid(300), "form": _ROTATION, "tolerance": 1e-6},
        # too coarse for the derivative estimate: refused the same way
        {"command": "gauge", "plot": "so2_arc", "gauge": "so2_half_turn",
         "grid": grid(3), "form": _ROTATION, "tolerance": 1e-6},
    ]
    default = plots._BLOCK_ROWS
    for job in cases:
        monkeypatch.setattr(plots, "_BLOCK_ROWS", default)
        whole = _outcome(lambda: _public_check(job))  # fewer rows than one block
        monkeypatch.setattr(plots, "_BLOCK_ROWS", block)
        blocked = _outcome(lambda: _public_check(job))
        seen.clear()
        report, code = jobs.run_job(job)
        if isinstance(whole, str):
            assert blocked == whole and "refine the grid" in whole
            assert code == jobs.EXIT_VALIDATION_ERROR
            assert report["error"]["message"] == whole
            continue
        (ran,) = seen
        assert code == jobs.EXIT_CHECK_FAILED
        assert whole.max_abs_deviation > 1e-3
        for other in (blocked, ran):
            assert other == whole
            assert np.array_equal(other.deviations, whole.deviations)
