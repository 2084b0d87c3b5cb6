"""Truncated invariant-form solver: windows, constraints, bases, averages,
and basic cohomology.

Basis results are cross-checked two independent ways: every returned form
is verified directly against the defining conditions (pullback fixed,
Lie derivative zero, contraction zero), and for the worked models the
expected spans are known in closed form.  The Reynolds operator is
compared against a literal four-term sum for the quarter-turn group, and
every constraint block against the per-monomial route of
``helpers.operator_block`` (one whole image form per window monomial).
"""

import math
import random
from fractions import Fraction

import pytest

from basicforms.actions import ActionSpec, AffineMap, act_pullback
from basicforms.examples import (
    irrational_torus_line,
    so2_plane,
    solenoid_field,
    solenoid_plane,
    z2_line,
)
from basicforms import solver
from basicforms.forms import Form, PolyMap, VectorField, interior, lie_derivative
from basicforms.linalg import Matrix, stack
from basicforms.orbifolds import OrbifoldChart
from basicforms.polynomials import Polynomial, PowerTable
from basicforms.scalars import Scalar
from basicforms.solver import (
    TruncationSpec,
    Window,
    basic_form_basis,
    invariance_constraints,
    horizontality_constraints,
    reynolds_average,
    span_matrix,
    truncated_basic_cohomology,
)
from helpers import (
    dense_coordinates,
    horizontality_blocks,
    invariance_blocks,
    matrix_apply,
    rand_affine,
    rand_form,
    rand_vector_field,
    spans_equal,
    trivial_action,
    window_monomials,
)


def _is_basic(action: ActionSpec, form: Form) -> bool:
    """The defining conditions, checked exactly and directly."""
    for g in action.discrete:
        if act_pullback(g, form) != form:
            return False
    for xi in action.infinitesimal:
        if not lie_derivative(xi, form).is_zero:
            return False
        if form.grade > 0 and not interior(xi, form).is_zero:
            return False
    return True


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(-1, 2)
    with pytest.raises(ValueError):
        TruncationSpec(1, -1)
    spec = TruncationSpec(1, 3)
    assert (spec.grade, spec.max_degree) == (1, 3)


def test_window_size_formula():
    for dim in (1, 2, 3):
        for grade in range(dim + 1):
            for d in range(4):
                w = Window(dim, grade, d)
                monos = math.comb(dim + d, d)
                assert w.size == monos * math.comb(dim, grade)


def test_window_round_trip():
    rng = random.Random(501)
    for _ in range(100):
        dim = rng.randint(1, 3)
        grade = rng.randint(0, dim)
        w = Window(dim, grade, 3)
        form = rand_form(rng, dim, grade, max_degree=3, with_param=True)
        assert w.combine(dense_coordinates(w, form)) == form


def test_window_rejects_out_of_window_terms():
    w = Window(1, 0, 1)
    cubic = Form.function(Polynomial(1, {(3,): 1}))
    with pytest.raises(ValueError, match="outside"):
        w.entries(cubic)
    with pytest.raises(ValueError, match="outside"):
        span_matrix(w, [cubic])


def test_monomial_basis_is_deterministic_and_ordered():
    spec = TruncationSpec(1, 1)
    basis = window_monomials(Window(2, spec.grade, spec.max_degree))
    # degree before grade-index order: constants first, then linears
    assert [str(f) for f in basis] == [
        "(1) dx",
        "(1) dy",
        "(x) dx",
        "(x) dy",
        "(y) dx",
        "(y) dy",
    ]


def test_constraint_kernel_matches_direct_conditions():
    rng = random.Random(502)
    actions = [z2_line(), irrational_torus_line(), solenoid_plane(), so2_plane()]
    for _ in range(120):
        action = rng.choice(actions)
        grade = rng.randint(0, action.dim)
        spec = TruncationSpec(grade, rng.randint(0, 2))
        w = Window(action.dim, grade, spec.max_degree)
        form = rand_form(rng, action.dim, grade, max_degree=spec.max_degree)
        coords = dense_coordinates(w, form)
        system = stack(
            [invariance_constraints(action, w), horizontality_constraints(action, w)]
        )
        in_kernel = all(v.is_zero for v in matrix_apply(system, coords))
        assert in_kernel == _is_basic(action, form)


def test_basis_members_satisfy_defining_conditions():
    rng = random.Random(503)
    actions = [z2_line(), irrational_torus_line(), solenoid_plane(), so2_plane()]
    for action in actions:
        for grade in range(action.dim + 1):
            for d in range(3):
                for f in basic_form_basis(action, TruncationSpec(grade, d)):
                    assert _is_basic(action, f)
                    assert not f.is_zero


def test_torus_line_golden_all_degrees():
    action = irrational_torus_line()
    one = Form.function(Polynomial.constant(1, 1))
    dx = Form.covector(1, 0)
    for d in range(6):
        assert basic_form_basis(action, TruncationSpec(0, d)) == [one]
        assert basic_form_basis(action, TruncationSpec(1, d)) == [dx]


def test_solenoid_golden():
    action = solenoid_plane()
    a = Polynomial.parameter(2)
    generator = Form.monomial(2, (0,), a) + Form.monomial(2, (1,), Polynomial.constant(2, -1))
    for d in range(3):
        basis = basic_form_basis(action, TruncationSpec(1, d))
        assert basis == [generator]
        assert str(basis[0]) == "(a) dx + (-1) dy"
        assert basic_form_basis(action, TruncationSpec(2, d)) == []


def test_z2_golden_and_reynolds_span():
    action = z2_line()
    spec = TruncationSpec(1, 3)
    basis = basic_form_basis(action, spec)
    x = Polynomial.variable(1, 0)
    assert basis == [
        Form.monomial(1, (0,), x),
        Form.monomial(1, (0,), x**3),
    ]
    # Reynolds image over the full monomial window spans the same space
    chart = OrbifoldChart(1, action.discrete)
    w = Window(1, 1, 3)
    averaged = [reynolds_average(chart, f) for f in window_monomials(w)]
    averaged = [f for f in averaged if not f.is_zero]
    assert spans_equal(w, basis, averaged)


def test_so2_invariant_functions():
    action = so2_plane()
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = basic_form_basis(action, TruncationSpec(0, 2))
    w = Window(2, 0, 2)
    expected = [Form.function(Polynomial.constant(2, 1)), Form.function(x * x + y * y)]
    assert spans_equal(w, basis, expected)
    # no invariant constant 1-forms for the rotation flow
    assert basic_form_basis(action, TruncationSpec(1, 0)) == []


def test_trivial_action_keeps_whole_window():
    for dim in (1, 2):
        action = trivial_action(dim)
        for grade in range(dim + 1):
            spec = TruncationSpec(grade, 2)
            basis = basic_form_basis(action, spec)
            w = Window(dim, grade, 2)
            assert len(basis) == w.size
            assert spans_equal(w, basis, window_monomials(w))


def test_reynolds_against_explicit_four_term_sum():
    rng = random.Random(504)
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    chart = OrbifoldChart(2, [r], cap=8)
    for _ in range(60):
        grade = rng.randint(0, 2)
        form = rand_form(rng, 2, grade, max_degree=2)
        powers = [AffineMap.identity(2), r, r.compose(r), r.compose(r).compose(r)]
        total = Form.zero(2, grade)
        for g in powers:
            total = total + act_pullback(g, form)
        expect = total.scale(Scalar.of(Fraction(1, 4)))
        assert reynolds_average(chart, form) == expect


def test_reynolds_idempotent_and_invariant():
    rng = random.Random(505)
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    chart = OrbifoldChart(2, [r], cap=8)
    for _ in range(40):
        form = rand_form(rng, 2, rng.randint(0, 2), max_degree=2)
        avg = reynolds_average(chart, form)
        assert reynolds_average(chart, avg) == avg
        for g in chart.group:
            assert act_pullback(g, avg) == avg


def test_reynolds_kills_odd_forms():
    flip = AffineMap.from_rows([[-1]], [0])
    chart = OrbifoldChart(1, [flip])
    dx = Form.covector(1, 0)
    assert reynolds_average(chart, dx).is_zero
    x = Polynomial.variable(1, 0)
    assert reynolds_average(chart, Form.monomial(1, (0,), x)) == Form.monomial(1, (0,), x)


def test_reynolds_validates_group_input():
    # The average takes a chart, and a chart's group is the closure of its
    # generators.  Averaging x dx over the five maps below alone gave the
    # non-invariant (2/5) x dx + (3/5) y dy; as generators they give all of
    # D4, and the average is invariant.
    ident = AffineMap.identity(2)
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    s = AffineMap.from_rows([[1, 0], [0, -1]], [0, 0])
    swap = AffineMap.from_rows([[0, 1], [1, 0]], [0, 0])
    chart = OrbifoldChart(2, [ident, r, s, r.compose(r).compose(r), swap])
    assert len(chart.group) == 8
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    half = Scalar.of(Fraction(1, 2))
    average = reynolds_average(chart, Form.monomial(2, (0,), x))
    assert average == Form(2, 1, {(0,): x.scale(half), (1,): y.scale(half)})
    for g in chart.group:
        assert act_pullback(g, average) == average


def test_solenoid_cohomology_windows():
    action = solenoid_plane()
    for d in (2, 4):
        records = truncated_basic_cohomology(action, d)
        dims = [r.dim_cohomology for r in records]
        assert dims == [1, 1, 0]
        assert [r.grade for r in records] == [0, 1, 2]
        for r in records:
            assert r.dim_closed <= r.dim_basic
            assert r.dim_exact <= r.dim_closed


def test_trivial_action_cohomology_is_poincare():
    # full polynomial complex: only constants survive in degree zero
    for dim in (1, 2):
        records = truncated_basic_cohomology(trivial_action(dim), 3)
        assert [r.dim_cohomology for r in records] == [1] + [0] * dim


def test_torus_cohomology_is_circle_like():
    records = truncated_basic_cohomology(irrational_torus_line(), 3)
    assert [r.dim_cohomology for r in records] == [1, 1]


def test_solenoid_specializes_at_rational_slopes():
    base = solenoid_plane()
    for a0 in (Fraction(1, 2), Fraction(2, 3), Fraction(5)):
        action = base.bind_param(a0)
        basis = basic_form_basis(action, TruncationSpec(1, 2))
        assert len(basis) == 1
        expect = Form.monomial(2, (0,), Polynomial.constant(2, a0)) + Form.monomial(
            2, (1,), Polynomial.constant(2, -1)
        )
        w = Window(2, 1, 2)
        assert spans_equal(w, basis, [expect])
        records = truncated_basic_cohomology(action, 2)
        assert [r.dim_cohomology for r in records] == [1, 1, 0]


def test_dimension_stability_across_windows():
    action = irrational_torus_line()
    dims = {
        d: len(basic_form_basis(action, TruncationSpec(1, d))) for d in range(5)
    }
    assert set(dims.values()) == {1}


def test_span_matrix_shape():
    w = Window(2, 1, 1)
    forms = [Form.covector(2, 0), Form.covector(2, 1)]
    m = span_matrix(w, forms)
    assert (m.rows, m.cols) == (w.size, 2)


def _assert_blocks_match_the_per_monomial_route(action: ActionSpec, domain: Window) -> None:
    """The assembly equals the oracle under ``==``, block for block.

    Every block's row count is its target window's size, so equal stacks
    are equal blocks.
    """
    for assembled, blocks in (
        (invariance_constraints(action, domain), invariance_blocks(action, domain)),
        (horizontality_constraints(action, domain), horizontality_blocks(action, domain)),
    ):
        assert assembled == (stack(blocks) if blocks else Matrix.zero(0, domain.size))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_block_assembly_matches_the_per_monomial_route(dim):
    rng = random.Random(1200 + dim)
    dense = rand_affine(rng, dim, with_param=True)
    fields = [rand_vector_field(rng, dim, max_degree=delta, with_param=True) for delta in range(3)]
    # plus a*x_i^2 on each component, so that no d(xi_i) is constant
    squares = [
        Polynomial(dim, {tuple(2 * (t == i) for t in range(dim)): Scalar.parameter()})
        for i in range(dim)
    ]
    fields.append(VectorField([c + sq for c, sq in zip(fields[2].components, squares)]))
    assert dense.linear != AffineMap.identity(dim).linear and dense.uses_parameter
    assert any(xi.max_degree() >= 1 and xi.uses_parameter for xi in fields)
    # a shear plus a translation: sparse and rational, cheap at every degree
    shear = AffineMap.from_rows(
        [[1 if j == i else (2 if j == i + 1 else 0) for j in range(dim)] for i in range(dim)],
        [Fraction(1, 2)] * dim,
    )
    for grade in range(dim + 1):
        for degree in range(4):
            # a dense 4x4 map over Q(a) costs seconds per degree-3 window on
            # both routes, all of it in rational-function arithmetic
            discrete = [shear] if dim == 4 and degree == 3 else [dense, shear]
            action = ActionSpec(dim, discrete, fields)
            _assert_blocks_match_the_per_monomial_route(action, Window(dim, grade, degree))


def test_block_assembly_matches_the_per_monomial_route_on_the_examples():
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    r4_rotation = ActionSpec(4, infinitesimal=[VectorField([-y, x, -w, z])])
    for action in (solenoid_plane(), irrational_torus_line(), so2_plane(), z2_line(), r4_rotation):
        for grade in range(action.dim + 1):
            for degree in range(4 if action.dim < 4 else 3):
                domain = Window(action.dim, grade, degree)
                _assert_blocks_match_the_per_monomial_route(action, domain)


def test_assembly_work_grows_with_exponents_plus_index_tuples(monkeypatch):
    """Each factor is computed once per exponent or once per index tuple, not per column."""
    rng = random.Random(1210)
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    g = rand_affine(rng, 4)
    xi = VectorField([-y * y, x, -w, z * x])
    domain = Window(4, 2, 2)
    calls: dict[str, list] = {"compose": [], "covector": [], "lie": [], "interior": []}

    def counted(name, original):
        def wrapper(*args):
            calls[name].append(args[-1])
            return original(*args)

        return wrapper

    monkeypatch.setattr(PowerTable, "compose", counted("compose", PowerTable.compose))
    monkeypatch.setattr(PolyMap, "_pulled_covector", counted("covector", PolyMap._pulled_covector))
    monkeypatch.setattr(solver, "lie_derivative", counted("lie", solver.lie_derivative))
    monkeypatch.setattr(solver, "interior", counted("interior", solver.interior))
    action = ActionSpec(4, [g], [xi])
    invariance_constraints(action, domain)
    horizontality_constraints(action, domain)

    assert len(domain.exponents) == 15 and domain.size == 90
    assert [tuple(p.terms) for p in calls["compose"]] == [(e,) for e in domain.exponents]
    # the map's covector cache recurses into shorter tuples; each pair is asked for once
    assert [I for I in calls["covector"] if len(I) == 2] == domain.index_tuples
    for name in ("lie", "interior"):
        assert [next(iter(f.terms)) for f in calls[name]] == domain.index_tuples
