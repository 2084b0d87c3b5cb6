"""Acceptance gate: the ten headline behaviors, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test prints ``criterion NN: PASS/FAIL (...)`` before asserting, so a
broken criterion still reports itself.  Exact claims use structural
equality over the rational (or rational-function) scalars; numeric claims
use the stated tolerances; every criterion carries a wall-clock budget.
"""

import random
import time
from fractions import Fraction

from basicforms.actions import AffineMap, act_pullback
from basicforms.examples import (
    c4_square_chart,
    irrational_torus_line,
    solenoid_plane,
    solenoid_stages,
    z2_line,
)
from basicforms.forms import (
    Form,
    PolyMap,
    ext_d,
    interior,
    lie_derivative,
    pullback,
    wedge,
)
from basicforms.linalg import Matrix, kernel_basis, rank
from basicforms.orbifolds import OrbifoldChart, orbifold_invariant_forms
from basicforms.plots import (
    builtin_gauge,
    builtin_plot,
    criterion_check,
    default_line_grid,
    smooth_gauge_check,
)
from basicforms.polynomials import Polynomial
from basicforms.scalars import Scalar
from basicforms.solver import (
    TruncationSpec,
    Window,
    basic_form_basis,
    truncated_basic_cohomology,
)
from basicforms.stages import stages_check
from basicforms.symplectic import builtin_model, level_restriction_check, momentum_residual
from helpers import (
    compose_maps,
    matrix_apply,
    rand_form,
    rand_poly,
    rand_scalar,
    rand_vector_field,
    reynolds_average,
    spans_equal,
    window_monomials,
)
from test_forms import lie_by_transport, same_form


def _expect(failures: list, condition: bool, note: str) -> None:
    if not condition:
        failures.append(note)


def _finish(num: int, desc: str, budget: float, started: float, failures: list) -> None:
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({desc}; {elapsed:.2f}s)")
    assert not failures, "; ".join(failures)
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget:.0f}s"


def test_criterion_01_torus_translations():
    started = time.perf_counter()
    failures: list = []
    action = irrational_torus_line()
    one = Form.function(Polynomial.constant(1, 1))
    dx = Form.covector(1, 0)
    for d in range(6):
        _expect(
            failures,
            basic_form_basis(action, TruncationSpec(0, d)) == [one],
            f"functions at degree {d} are not span{{1}}",
        )
        _expect(
            failures,
            basic_form_basis(action, TruncationSpec(1, d)) == [dx],
            f"1-forms at degree {d} are not span{{dx}}",
        )
    _finish(1, "dense torus translations: {1} and {dx} through degree 5", 1.0, started, failures)


def test_criterion_02_solenoid_basis():
    started = time.perf_counter()
    failures: list = []
    action = solenoid_plane()
    generator = Form.monomial(2, (0,), Polynomial.parameter(2)) + Form.monomial(
        2, (1,), Polynomial.constant(2, -1)
    )
    for d in range(3):
        basis = basic_form_basis(action, TruncationSpec(1, d))
        _expect(failures, basis == [generator], f"1-forms at degree {d} are not a*dx - dy")
        _expect(
            failures,
            basic_form_basis(action, TruncationSpec(2, d)) == [],
            f"2-forms at degree {d} are not zero",
        )
    _finish(2, "solenoid: 1-forms are multiples of a*dx - dy, 2-forms vanish", 1.0, started, failures)


def test_criterion_03_solenoid_cohomology():
    started = time.perf_counter()
    failures: list = []
    action = solenoid_plane()
    for d in (2, 4):
        dims = [r.dim_cohomology for r in truncated_basic_cohomology(action, [d])[d]]
        _expect(failures, dims == [1, 1, 0], f"window {d} gives {dims}, want [1, 1, 0]")
    _finish(3, "solenoid cohomology is (1, 1, 0) at windows 2 and 4", 5.0, started, failures)


def test_criterion_04_sign_flip_reynolds():
    started = time.perf_counter()
    failures: list = []
    action = z2_line()
    spec = TruncationSpec(1, 3)
    basis = basic_form_basis(action, spec)
    x = Polynomial.variable(1, 0)
    _expect(
        failures,
        basis == [Form.monomial(1, (0,), x), Form.monomial(1, (0,), x**3)],
        "kernel basis is not {x dx, x^3 dx}",
    )
    chart = OrbifoldChart(1, action.discrete)
    window = Window(1, 1, 3)
    _expect(failures, window.size == 4, "monomial window is not 4-dimensional")
    averaged = [reynolds_average(chart, f) for f in window_monomials(window)]
    averaged = [f for f in averaged if not f.is_zero]
    _expect(
        failures,
        spans_equal(basis, averaged),
        "averaging the monomial window spans something else",
    )
    _finish(4, "sign flip on the line: {x dx, x^3 dx}, matched by averaging", 1.0, started, failures)


def test_criterion_05_plot_criterion():
    started = time.perf_counter()
    failures: list = []
    grid = default_line_grid()
    _expect(failures, grid.shape == (2001,), "default grid is not 2001 points")
    def glued(rows):
        return builtin_plot("z2_p1", rows), builtin_plot("z2_p2", rows)

    x_dx = Form.monomial(1, (0,), Polynomial.variable(1, 0))
    even = criterion_check(grid, glued, x_dx, tol=1e-9)
    _expect(failures, even.passed, f"x dx deviates by {even.max_abs_deviation:.2e} > 1e-9")
    odd = criterion_check(grid, glued, Form.covector(1, 0), tol=1e-9)
    _expect(
        failures,
        odd.max_abs_deviation >= 1e-3,
        f"dx deviates by only {odd.max_abs_deviation:.2e} < 1e-3",
    )
    _finish(5, "glued line plots: x dx agrees to 1e-9, dx separates by 1e-3", 1.0, started, failures)


def test_criterion_06_smooth_gauge():
    started = time.perf_counter()
    failures: list = []
    grid = default_line_grid()

    def arc(rows):
        return builtin_plot("so2_arc", rows), builtin_gauge("so2_half_turn", rows)

    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    radial = Form.monomial(2, (0,), x) + Form.monomial(2, (1,), y)
    good = smooth_gauge_check(grid, arc, radial, tol=1e-6)
    _expect(failures, good.passed, f"x dx + y dy deviates by {good.max_abs_deviation:.2e} > 1e-6")
    bad = smooth_gauge_check(grid, arc, Form.covector(2, 0), tol=1e-6)
    _expect(
        failures,
        bad.max_abs_deviation >= 1e-3,
        f"dx deviates by only {bad.max_abs_deviation:.2e} < 1e-3",
    )
    _finish(6, "rotating gauge on the arc: radial form passes, dx fails", 1.0, started, failures)


def test_criterion_07_stages():
    started = time.perf_counter()
    failures: list = []
    big, projection, induced = solenoid_stages()
    for grade in (0, 1):
        report = stages_check(big, projection, induced, TruncationSpec(grade, 0))
        _expect(failures, report.span_equal is True, f"grade {grade} spans differ")
        _expect(failures, report.contained, f"grade {grade} containment fails")
    _finish(7, "quotient in stages along y - a*x matches the direct route", 1.0, started, failures)


def test_criterion_08_quarter_turn_chart():
    started = time.perf_counter()
    failures: list = []
    chart = c4_square_chart()
    area = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    _expect(
        failures,
        orbifold_invariant_forms(chart, TruncationSpec(2, 0)) == [area],
        "constant invariant 2-forms are not span{dx^dy}",
    )
    _expect(
        failures,
        orbifold_invariant_forms(chart, TruncationSpec(1, 0)) == [],
        "constant invariant 1-forms are not zero",
    )
    for grade in (0, 1, 2):
        for j, f in enumerate(window_monomials(Window(2, grade, 2))):
            once = reynolds_average(chart, f)
            _expect(
                failures,
                reynolds_average(chart, once) == once,
                f"projector is not idempotent on window member {j} of grade {grade}",
            )
    _finish(8, "quarter-turn chart: area form survives, projector idempotent", 1.0, started, failures)


def test_criterion_09_symplectic_model():
    started = time.perf_counter()
    failures: list = []
    model = builtin_model("r4_rotation")
    _expect(failures, momentum_residual(model).is_zero, "momentum residual is not zero")
    _expect(failures, len(model.level_samples) == 64, "expected 64 level samples")
    report = level_restriction_check(model, model.omega, tol=1e-9)
    _expect(
        failures,
        report.passed,
        f"omega restriction deviates by {max(report.contraction.max_abs_deviation, report.invariance.max_abs_deviation):.2e}",
    )
    _finish(9, "diagonal circle on R^4: exact momentum, omega restricts", 1.0, started, failures)


def test_criterion_10_property_suites():
    started = time.perf_counter()
    failures: list = []

    rng = random.Random(901)
    for _ in range(200):
        dim = rng.randint(1, 3)
        f = rand_form(rng, dim, rng.randint(0, dim), max_degree=2, with_param=True)
        _expect(failures, ext_d(ext_d(f)).is_zero, "d^2 != 0")

    rng = random.Random(902)
    for _ in range(200):
        dim = rng.randint(1, 4)
        k = rng.randint(0, dim)
        l = rng.randint(0, dim)
        f = rand_form(rng, dim, k, max_degree=1)
        g = rand_form(rng, dim, l, max_degree=1)
        sign = Scalar.of(Fraction((-1) ** (k * l)))
        _expect(
            failures,
            same_form(wedge(f, g), wedge(g, f).scale(sign)),
            "wedge is not graded commutative",
        )

    rng = random.Random(903)
    for _ in range(200):
        dim = rng.randint(1, 3)
        f = rand_form(rng, dim, rng.randint(0, dim), max_degree=2)
        field = rand_vector_field(rng, dim, max_degree=1)
        cartan = lie_derivative(field, f)
        left = interior(field, ext_d(f))
        if f.grade == 0:
            glued = left
        else:
            right = ext_d(interior(field, f))
            if left.grade != right.grade:  # top-grade clamp zeroed one side
                glued = right if left.is_zero else left
            else:
                glued = left + right
        _expect(failures, same_form(cartan, glued), "Cartan formula mismatch")
        _expect(failures, same_form(cartan, lie_by_transport(field, f)), "transport mismatch")

    rng = random.Random(904)
    for _ in range(200):
        inner_dim = rng.randint(1, 2)
        mid_dim = rng.randint(1, 3)
        outer_dim = rng.randint(1, 3)
        psi = PolyMap(inner_dim, [rand_poly(rng, inner_dim, 1) for _ in range(mid_dim)])
        phi = PolyMap(mid_dim, [rand_poly(rng, mid_dim, 1) for _ in range(outer_dim)])
        f = rand_form(rng, outer_dim, rng.randint(0, outer_dim), max_degree=1)
        _expect(
            failures,
            same_form(pullback(compose_maps(phi, psi), f), pullback(psi, pullback(phi, f))),
            "pullback functoriality fails",
        )

    rng = random.Random(905)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Matrix.from_rows(
            [[rand_scalar(rng, with_param=True, span=3) for _ in range(cols)] for _ in range(rows)]
        )
        kernel = kernel_basis(m)
        _expect(failures, len(kernel) == cols - rank(m), "rank-nullity violated")
        for v in kernel:
            _expect(
                failures,
                all(entry.is_zero for entry in matrix_apply(m, v)),
                "kernel vector is not annihilated",
            )

    _finish(10, "five property families, 200 seeded instances each", 60.0, started, failures)
