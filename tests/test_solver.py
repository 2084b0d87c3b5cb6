"""Truncated invariant-form solver: windows, constraints, bases, averages,
and basic cohomology.

Basis results are cross-checked two independent ways: every returned form
is verified directly against the defining conditions (pullback fixed,
Lie derivative zero, contraction zero), and for the worked models the
expected spans are known in closed form.  The Reynolds operator is
compared against a literal four-term sum for the quarter-turn group, and
every constraint block against the per-monomial route of
``helpers.operator_block`` (one whole image form per window monomial), as
a multiset of rows; a translation's L_t block also by reduced row echelon
form against the oracle's g^* - id.  The fields that the prepared action
imposes are checked against the generators by ranks of their own: they
span what the generators span, less the coordinates that constant fields
freeze, and a kept field xi is assembled as c * xi for a nonzero rational
c, its content's inverse.  A field in the span of earlier fields has no
block, and the system keeps the reduced row echelon form of one block per
generator.  Every window read off a larger window of its grade equals the
canonical kernel of its own system.
"""

import itertools
import json
import math
import pickle
import random
import sys
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
from basicforms import linalg, solver
from basicforms.forms import Form, PolyMap, VectorField, interior, lie_derivative
from basicforms.linalg import Matrix, _gauss_jordan, kernel_basis, stack
from basicforms.orbifolds import OrbifoldChart
from basicforms.polynomials import Polynomial, PowerTable
from basicforms.scalars import Scalar
from basicforms.solver import (
    TruncationSpec,
    Window,
    basic_form_basis,
    span_matrix,
    truncated_basic_cohomology,
)
from helpers import (
    cohomology_records,
    every_block,
    grlex_key,
    horizontality_blocks,
    independent_fields,
    invariance_blocks,
    matrix_apply,
    operator_block,
    rand_affine,
    rand_form,
    rand_fraction,
    rand_nonzero_fraction,
    rand_scalar,
    rand_vector_field,
    reynolds_average,
    same_rows,
    spans_equal,
    translation_field,
    trivial_action,
    whole_window_basis,
    window_coordinates,
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


def test_truncation_spec_is_a_read_only_value():
    spec = TruncationSpec(grade=1, max_degree=3)
    assert spec == TruncationSpec(1, 3) and hash(spec) == hash(TruncationSpec(1, 3))
    assert spec != TruncationSpec(1, 4) and spec != (1, 3)
    assert repr(spec) == "TruncationSpec(grade=1, max_degree=3)"
    assert pickle.loads(pickle.dumps(spec)) == spec
    for name in ("grade", "max_degree", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 0)
        with pytest.raises(AttributeError):
            delattr(spec, name)
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
        assert w.combine(window_coordinates(w, form)) == form


def test_window_combine_refuses_positions_outside():
    w = Window(2, 1, 1)
    for pos in (-1, w.size):
        with pytest.raises(ValueError, match="outside"):
            w.combine({pos: Scalar.of(1)})


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
        degree = rng.randint(0, 2)
        w, system = solver._constraints(solver._prepare(action), grade, degree)
        form = rand_form(rng, action.dim, grade, max_degree=degree)
        # the window ranges over the free coordinates: no basic form has a frozen one
        coords = window_coordinates(w, form)
        in_window = w.combine(coords)
        in_kernel = all(v.is_zero for v in matrix_apply(system, coords))
        assert in_kernel == _is_basic(action, in_window)
        assert _is_basic(action, form) == (in_kernel and form == in_window)


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
    assert spans_equal(basis, averaged)


def test_so2_invariant_functions():
    action = so2_plane()
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    basis = basic_form_basis(action, TruncationSpec(0, 2))
    expected = [Form.function(Polynomial.constant(2, 1)), Form.function(x * x + y * y)]
    assert spans_equal(basis, expected)
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
            assert spans_equal(basis, window_monomials(w))


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
        records = truncated_basic_cohomology(action, [d])[d]
        dims = [r.dim_cohomology for r in records]
        assert dims == [1, 1, 0]
        assert [r.grade for r in records] == [0, 1, 2]
        for r in records:
            assert r.dim_closed <= r.dim_basic
            assert r.dim_exact <= r.dim_closed


def test_trivial_action_cohomology_is_poincare():
    # full polynomial complex: only constants survive in degree zero
    for dim in (1, 2):
        records = truncated_basic_cohomology(trivial_action(dim), [3])[3]
        assert [r.dim_cohomology for r in records] == [1] + [0] * dim


def test_torus_cohomology_is_circle_like():
    records = truncated_basic_cohomology(irrational_torus_line(), [3])[3]
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
        assert spans_equal(basis, [expect])
        records = truncated_basic_cohomology(action, [2])[2]
        assert [r.dim_cohomology for r in records] == [1, 1, 0]


def test_dimension_stability_across_windows():
    action = irrational_torus_line()
    dims = {
        d: len(basic_form_basis(action, TruncationSpec(1, d))) for d in range(5)
    }
    assert set(dims.values()) == {1}


def test_span_matrix_shape():
    """One column per form, one row per monomial x^e dx_I that some form uses."""
    x = Polynomial.variable(2, 0)
    forms = [Form.covector(2, 0), Form.covector(2, 1), Form.monomial(2, (0,), x)]
    m = span_matrix(forms)
    assert (m.rows, m.cols) == (3, 3)
    assert span_matrix([]).rows == 0


def _primitive_multiple(xi: VectorField) -> VectorField:
    """The field a kept xi is assembled as, checked to be c * xi for a nonzero rational c."""
    scaled = solver._primitive(xi)
    j, h = next((j, h) for j, p in enumerate(xi.components) for h in p.terms)
    c = scaled.component(j).terms[h] / xi.component(j).terms[h]
    assert c.is_rational and not c.is_zero
    assert scaled == VectorField([p.scale(c) for p in xi.components])
    return scaled


def _unit_fields(dim: int, coordinates) -> list[VectorField]:
    """The constant fields e_j, one per coordinate j given."""
    return [
        VectorField([Polynomial.constant(dim, int(i == j)) for i in range(dim)])
        for j in coordinates
    ]


def _in_span(fields, of) -> bool:
    """Whether every field is a Q(a)-combination of the fields ``of``, by the ranks oracle."""
    return not any(independent_fields([*of, *fields])[len(of) :])


def _assert_prepared_fields_span_the_generators(action: ActionSpec) -> None:
    """The prepared action's fields against the generators, by ranks of their own.

    A coordinate is frozen exactly when e_j is in the span of the constant
    fields that invariance imposes, each translation's t and each constant
    infinitesimal generator.  The Lie fields are independent of each other
    and of the frozen e_j, and with those e_j they span the translations'
    constant fields and the infinitesimal generators.  The interior fields
    are c * xi, for a nonzero rational c, for the generators xi outside the
    span of the generators before them (``independent_fields``).  The maps
    are the discrete generators that are not translations.
    """
    prepared = solver._prepare(action)
    n = action.dim
    translations = [t for t in map(translation_field, action.discrete) if t is not None]
    constants = translations + [xi for xi in action.infinitesimal if xi.max_degree() == 0]
    units = _unit_fields(n, [j for j in range(n) if j not in prepared.free])
    assert _in_span(units, constants)
    assert not any(_in_span(_unit_fields(n, [j]), constants) for j in prepared.free)
    assert all(independent_fields([*units, *prepared.lie]))
    assert _in_span(prepared.lie, [*translations, *action.infinitesimal])
    assert _in_span([*translations, *action.infinitesimal], [*units, *prepared.lie])
    kept = itertools.compress(action.infinitesimal, independent_fields(action.infinitesimal))
    assert prepared.interior == [_primitive_multiple(xi) for xi in kept]
    assert prepared.maps == [g for g in action.discrete if translation_field(g) is None]


def _assert_blocks_match_the_per_monomial_route(
    action: ActionSpec, grade: int, degree: int
) -> None:
    """The assembly against the oracle, block for block, then the system.

    Blocks are compared by width and multiset of rows (``same_rows``):
    each keeps its nonempty rows in the order it first touches them.  On
    the whole window, which ranges over every variable whatever the action
    freezes, and on the window over the free coordinates when that is
    smaller: ``_affine_block`` equals the oracle's g^* - id for every
    discrete generator; a translation by t is assembled as L_t instead,
    which equals the oracle's L_t and has the reduced row echelon form of
    its g^* - id, so the two have one row space; the L_xi of each prepared
    Lie field and each frozen e_j, and the i_xi of each prepared interior
    field, equal the oracle's.  On the free window the system is the stack
    of the oracle's g^* - id of each map, L_xi of each Lie field and i_xi
    of each interior field.  Where it has fewer blocks than one per
    generator, it has the reduced row echelon form of the stack of every
    oracle block.  Where it has as many, the elimination of a dense map
    over Q(a) stacked with every field takes minutes on R^3 and R^4.
    Where the action freezes a coordinate, the blocks of the maps, the
    frozen e_j and the prepared fields on the whole window have the
    reduced row echelon form of every oracle block there.
    """
    prepared = solver._prepare(action)
    domain, system = solver._constraints(prepared, grade, degree)
    whole = Window(action.dim, grade, degree)
    frozen = _unit_fields(action.dim, [j for j in range(action.dim) if j not in prepared.free])
    for window in [whole] if domain.free == whole.free else [whole, domain]:
        lie = lambda xi: operator_block(window, lambda f: lie_derivative(xi, f))
        for g, block in zip(action.discrete, invariance_blocks(action, window)):
            assert same_rows(solver._affine_block(g, window), block)
            t = translation_field(g)
            if t is not None:
                assert same_rows(solver._field_block(t, window, lie=True), lie(t))
                assert _gauss_jordan(lie(t)) == _gauss_jordan(block)
        for xi in [*frozen, *prepared.lie]:
            assert same_rows(solver._field_block(xi, window, lie=True), lie(xi))
        for xi in prepared.interior if grade else []:
            contract = operator_block(window, lambda f: interior(xi, f))
            assert same_rows(solver._field_block(xi, window, lie=False), contract)
    oracle = invariance_blocks(action, domain)
    blocks = [block for g, block in zip(action.discrete, oracle) if g in prepared.maps]
    blocks += [operator_block(domain, lambda f: lie_derivative(xi, f)) for xi in prepared.lie]
    if grade:
        blocks += [operator_block(domain, lambda f: interior(xi, f)) for xi in prepared.interior]
    assert same_rows(system, stack(blocks) if blocks else Matrix.zero(0, domain.size))
    every = oracle + horizontality_blocks(action, domain)
    if len(blocks) < len(every):
        assert _gauss_jordan(system) == _gauss_jordan(stack(every))
    if domain.free != whole.free:
        assembled = [solver._affine_block(g, whole) for g in prepared.maps]
        assembled += [solver._field_block(xi, whole, lie=True) for xi in [*frozen, *prepared.lie]]
        if grade:
            assembled += [solver._field_block(xi, whole, lie=False) for xi in prepared.interior]
        every = invariance_blocks(action, whole) + horizontality_blocks(action, whole)
        assert _gauss_jordan(stack(assembled)) == _gauss_jordan(stack(every))


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
    # (on R^1 it is a translation)
    shear = AffineMap.from_rows(
        [[1 if j == i else (2 if j == i + 1 else 0) for j in range(dim)] for i in range(dim)],
        [Fraction(1, 2)] * dim,
    )
    # a translation over Q(a), assembled as L_t
    lattice = AffineMap.translation_by(
        [Scalar.parameter() - rand_fraction(rng, 3)] + [rand_scalar(rng) for _ in range(dim - 1)]
    )
    for discrete in ([dense, shear, lattice], [shear, lattice]):
        _assert_prepared_fields_span_the_generators(ActionSpec(dim, discrete, fields))
    for grade in range(dim + 1):
        for degree in range(4):
            # a dense 4x4 map over Q(a) costs seconds per degree-3 window on
            # both routes, all of it in rational-function arithmetic
            discrete = [shear, lattice] if dim == 4 and degree == 3 else [dense, shear, lattice]
            action = ActionSpec(dim, discrete, fields)
            _assert_blocks_match_the_per_monomial_route(action, grade, degree)


def test_block_assembly_matches_the_per_monomial_route_on_the_examples():
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    r4_rotation = ActionSpec(4, infinitesimal=[VectorField([-y, x, -w, z])])
    for action in (solenoid_plane(), irrational_torus_line(), so2_plane(), z2_line(), r4_rotation):
        _assert_prepared_fields_span_the_generators(action)
        for grade in range(action.dim + 1):
            for degree in range(4 if action.dim < 4 else 3):
                _assert_blocks_match_the_per_monomial_route(action, grade, degree)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_translation_block_has_the_kernel_of_g_star_minus_id(dim):
    """For g(x) = x + t the invariance rows are L_t, with the row space of g^* - id.

    g^* = exp(L_t), and L_t is nilpotent on a window, so g^* - id = L_t S
    with S = 1 + L_t/2! + L_t^2/3! + ... invertible and commuting with
    L_t.  Checked against the oracle's g^* - id by reduced row echelon
    form, and by a count made without elimination: for t != 0 the
    invariant k-forms of degree <= d are the dx_I times the polynomials in
    the n - 1 coordinates transverse to t.  Both on the whole window, where
    L_t is assembled for t itself, and on the window over the coordinates
    that t leaves free, where the system is assembled: when t is a multiple
    of e_j, that is every other coordinate, and the system has no rows.
    """
    rng = random.Random(1220 + dim)
    rationals = [rand_nonzero_fraction(rng) for _ in range(dim)]
    zero_at = rng.randrange(dim)
    # one entry in a: elimination over Q(a) costs seconds per entry on R^4
    translations = [
        rationals,
        [Scalar.parameter() - rand_fraction(rng)] + rationals[1:],
        [0 if i == zero_at else q for i, q in enumerate(rationals)],
        [0] * dim,
    ]
    for offsets in translations:
        g = AffineMap.translation_by(offsets)
        action = ActionSpec(dim, [g])
        prepared = solver._prepare(action)
        moves = any(not t.is_zero for t in g.translation)
        # t freezes a coordinate exactly when it is a multiple of e_j
        whole = len(prepared.free) == dim
        assert whole == (sum(not t.is_zero for t in g.translation) != 1)
        for grade in range(dim + 1):
            for degree in range(5):
                full = Window(dim, grade, degree)
                block = solver._field_block(translation_field(g), full, lie=True)
                domain, system = solver._constraints(prepared, grade, degree)
                # L_t maps onto the degree d - 1 window, one nonempty row per monomial;
                # it is zero on the window over the coordinates t leaves free, when t
                # freezes one, and the zero field adds no rows
                image = Window(dim, grade, degree - 1).size if moves and degree else 0
                assert block.rows == image
                assert system.rows == (image if whole else 0)
                invariant = math.comb(dim, grade) * math.comb(dim - moves + degree, degree)
                for window, rows in (full, block), (domain, system):
                    (oracle,) = invariance_blocks(action, window)
                    reduced = _gauss_jordan(rows)
                    assert reduced == _gauss_jordan(oracle)
                    assert window.size - len(reduced) == invariant


def _combination(coefficients, fields) -> VectorField:
    """The field sum of c_i xi_i."""
    dim = fields[0].dim
    terms = lambda j: (xi.component(j).scale(c) for c, xi in zip(coefficients, fields))
    return VectorField([sum(terms(j), Polynomial.zero(dim)) for j in range(dim)])


def _span_cases() -> list[tuple[ActionSpec, list[VectorField], set[int]]]:
    """Actions that repeat a direction, each with the fields it imposes.

    Each case gives the Lie fields before scaling to primitive content:
    the reduced constant fields that are not some e_j, then the
    nonconstant generators outside the span of those, the frozen e_j and
    the generators before them.  Then the positions of the infinitesimal
    generators whose interior blocks are kept.
    """
    rng = random.Random(1240)
    a = Scalar.parameter()
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rotation = VectorField([-y, x])
    first, second = (rand_vector_field(rng, 2, max_degree=1, with_param=True) for _ in range(2))
    quarter_turn = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    constant = lambda *values: VectorField([Polynomial.constant(len(values), v) for v in values])
    coefficients = [rand_scalar(rng) for _ in range(3)]
    p, q, r = (Polynomial.variable(3, i) for i in range(3))
    return [
        # a multiple of an earlier field over Q(a)
        (
            ActionSpec(2, infinitesimal=[first, _combination([rand_scalar(rng)], [first])]),
            [first],
            {0},
        ),
        # 1 = (-1/a)(-a): a coefficient with a in its denominator; the line is frozen
        (ActionSpec(1, [AffineMap.translation_by([-a]), AffineMap.translation_by([1])]), [], set()),
        # the zero translation and the zero field
        (
            ActionSpec(2, [AffineMap.translation_by([0, 0])], [constant(0, 0), rotation]),
            [rotation],
            {1},
        ),
        # a constant field that repeats a translation: one Lie block, an interior block
        (
            ActionSpec(2, [AffineMap.translation_by([1, a])], [constant(2, 2 * a)]),
            [constant(1, a)],
            {0},
        ),
        # a rotation next to a multiple of it, and a map that is not a translation
        (
            ActionSpec(2, [quarter_turn], [rotation, _combination([(a + 1) / 2], [rotation])]),
            [rotation],
            {0},
        ),
        # a seeded combination of a translation, which freezes x, and two fields over Q(a)
        (
            ActionSpec(
                2,
                [AffineMap.translation_by([1, 0])],
                [first, second, _combination(coefficients, [constant(1, 0), first, second])],
            ),
            [first, second],
            {0, 1, 2},
        ),
        # a constant generator outside the span of the translation freezes its own
        # coordinate: no Lie block, an interior block, next to a nonconstant generator
        (
            ActionSpec(
                3,
                [AffineMap.translation_by([1, 1, 0])],
                [constant(0, 0, a), VectorField([-q, p, r])],
            ),
            [constant(1, 1, 0), VectorField([-q, p, r])],
            {0, 1},
        ),
    ]


@pytest.mark.parametrize("case", range(len(_span_cases())))
def test_a_field_in_the_span_of_earlier_fields_adds_no_block(monkeypatch, case):
    """Dropping such a field keeps the row space, so the RREF and the basis stay.

    L_xi and i_xi are Q(a)-linear in xi.  So a dropped block's rows are
    combinations of the kept blocks' rows with the same target monomial,
    and the reduced system has the reduced row echelon form of the system
    over every block, on the window over the free coordinates, where the
    L_xi of a frozen e_j is zero.  The reduced system builds fewer blocks;
    a dropped block may have no rows at all, as the zero field's has.  Its
    bases equal those of every block on the whole window.
    """
    action, lie, interior = _span_cases()[case]
    prepared = solver._prepare(action)
    assert prepared.lie == [solver._primitive(xi) for xi in lie]
    kept = [i in interior for i in range(len(action.infinitesimal))]
    assert kept == independent_fields(action.infinitesimal)
    _assert_prepared_fields_span_the_generators(action)
    counts = _count_calls(monkeypatch, solver, "_affine_block", "_field_block")
    for grade in range(action.dim + 1):
        for degree in range(4):
            counts.update(dict.fromkeys(counts, 0))
            domain, reduced = solver._constraints(prepared, grade, degree)
            built = sum(counts.values())
            every = every_block(action, domain)
            assert built < len(action.discrete) + len(action.infinitesimal) * (1 + (grade > 0))
            assert _gauss_jordan(reduced) == _gauss_jordan(every)
            spec = TruncationSpec(grade, degree)
            basis = basic_form_basis(action, spec)
            assert basis == [domain.combine(vec) for vec in kernel_basis(every)]
            assert basis == whole_window_basis(action, spec)


def test_translations_compose_no_powers(monkeypatch):
    """A translation-only action never expands x^e o g."""
    calls = []
    compose = PowerTable.compose
    monkeypatch.setattr(PowerTable, "compose", lambda *args: calls.append(args) or compose(*args))
    bases = []
    for action in (solenoid_plane(), irrational_torus_line()):
        assert all(translation_field(g) is not None for g in action.discrete)
        for grade in range(action.dim + 1):
            bases.append((action, basic_form_basis(action, TruncationSpec(grade, 3))))
    assert calls == []
    monkeypatch.undo()
    assert all(_is_basic(action, f) for action, basis in bases for f in basis)


def test_exponents_upto_is_every_exponent_in_graded_lex_order():
    for n in range(1, 6):
        for d in range(8):
            every = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
            assert solver.exponents_upto(n, d) == sorted(every, key=grlex_key)


def test_assembly_work_grows_with_exponents_plus_index_tuples(monkeypatch):
    """Each factor is computed once per exponent or once per index tuple, not per column."""
    rng = random.Random(1210)
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    g = rand_affine(rng, 4)
    xi = VectorField([-y * y, x, -w, z * x])
    prepared = solver._prepare(ActionSpec(4, [g], [xi]))
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
    domain, _ = solver._constraints(prepared, 2, 2)

    assert len(domain.exponents) == 15 and domain.size == 90
    assert [tuple(p.terms) for p in calls["compose"]] == [(e,) for e in domain.exponents]
    # the map's covector cache recurses into shorter tuples; each pair is asked for once
    assert [I for I in calls["covector"] if len(I) == 2] == domain.index_tuples
    for name in ("lie", "interior"):
        assert [next(iter(f.terms)) for f in calls[name]] == domain.index_tuples


def _nested_window_actions() -> list[ActionSpec]:
    """Seeded actions over Q and Q(a): affine maps, fields, translations, examples.

    Dense maps and fields over Q(a) cost minutes at degree 4 on R^2, all
    of it in rational-function arithmetic, so those over Q(a) are sparse.
    """
    rng = random.Random(1230)
    a = Scalar.parameter()
    p, q = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    quarter_turn = AffineMap.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]], [0, 0, 0])
    return [
        solenoid_plane(),
        irrational_torus_line(),
        so2_plane(),
        ActionSpec(1, [rand_affine(rng, 1, with_param=True)]),
        ActionSpec(2, [rand_affine(rng, 2)]),
        ActionSpec(2, [AffineMap.from_rows([[0, -1], [1, 0]], [a, 1])]),
        ActionSpec(2, [AffineMap.from_rows([[1, a], [0, 1]], [0, 0])]),
        ActionSpec(2, infinitesimal=[rand_vector_field(rng, 2, max_degree=2)]),
        ActionSpec(2, infinitesimal=[VectorField([-q, p.scale(a)])]),
        ActionSpec(3, [AffineMap.translation_by([a - 1, 0, Fraction(2, 3)])]),
        ActionSpec(3, [quarter_turn], [VectorField([Polynomial.zero(3)] * 2 + [x * x + y * y])]),
    ]


@pytest.mark.parametrize("case", range(len(_nested_window_actions())))
def test_nested_windows_equal_their_direct_eliminations(case):
    """Each window of a grade read off the largest one equals its own elimination."""
    action = _nested_window_actions()[case]
    n = action.dim
    prepared = solver._prepare(action)
    for grade in range(n + 1):
        direct = []
        for d in range(5):
            domain, system = solver._constraints(prepared, grade, d)
            direct.append([domain.combine(vec) for vec in kernel_basis(system)])
        assert any(direct) or grade > 0  # the constants are invariant
        for top in range(5):
            bases = solver._basic_form_bases(prepared, grade, range(top + 1))
            assert list(bases) == list(range(top + 1))
            for d in range(top + 1):
                assert bases[d] == direct[d]


def _count_calls(monkeypatch, module, *names) -> dict[str, int]:
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "job, eliminations",
    [("solenoid_cohomology", 3), ("solenoid_basis", 1), ("stages_solenoid", 2)],
)
def test_one_assembly_and_one_elimination_per_grade(monkeypatch, job, eliminations):
    """The cohomology job's windows d and d + 2 of one grade share one system.

    Each action is analysed once per job: once for the three grades of the
    cohomology job, once for each of the stages job's two actions.  The
    Gauss-Jordan eliminations, through every module that binds
    ``_gauss_jordan``, are pinned too: the cohomology job took 15, the
    basis job 6 and the stages job 13 when every grade analysed the action
    again and every span test ran, even on no field to test.
    """
    from importlib import resources

    from basicforms.jobs import run_job

    path = resources.files("basicforms") / "jobs_data" / f"{job}.json"
    counts = _count_calls(monkeypatch, solver, "_prepare", "_constraints", "kernel_basis")
    gauss_jordan = _count_linalg_calls(monkeypatch, "_gauss_jordan")
    _, code = run_job(json.loads(path.read_text(encoding="utf-8")))
    assert code == 0
    actions = 2 if job == "stages_solenoid" else 1
    assert counts == {
        "_prepare": actions, "_constraints": eliminations, "kernel_basis": eliminations
    }
    limit = {"solenoid_cohomology": 9, "solenoid_basis": 5, "stages_solenoid": 10}[job]
    assert gauss_jordan == {"_gauss_jordan": limit}


@pytest.mark.parametrize(
    "job, windows",
    [("solenoid_basis", 1), ("solenoid_cohomology", 3), ("stages_solenoid", 2), ("orbifold_c4", 1)],
)
def test_a_job_builds_one_window_per_elimination(monkeypatch, job, windows):
    """Rows are keyed by their target monomials, so only the eliminated domains are windows.

    A basis job builds one window, a cohomology job one per grade (three on
    R^2), a stages job one per route.
    """
    from importlib import resources

    from basicforms.jobs import run_job

    path = resources.files("basicforms") / "jobs_data" / f"{job}.json"
    built = []
    init = Window.__init__
    counted = lambda self, *args: built.append(args) or init(self, *args)
    monkeypatch.setattr(Window, "__init__", counted)
    _, code = run_job(json.loads(path.read_text(encoding="utf-8")))
    assert code == 0
    assert len(built) == windows


def test_the_solenoid_flow_builds_no_lie_block(monkeypatch):
    """The flow (1, a) is a combination of the lattice translations (1, 0) and (0, 1).

    So on the whole window the Lie blocks of the two translations have the
    row space of all three.  The translations freeze both coordinates, so
    the bundled basis job's window ranges over no variable.  The prepared
    action imposes no Lie field, and the job builds the flow's interior
    block alone.
    """
    action = solenoid_plane()
    domain = Window(2, 1, 3)
    lie = [*map(translation_field, action.discrete), *action.infinitesimal]
    blocks = [solver._field_block(xi, domain, lie=True) for xi in lie]
    assert _gauss_jordan(stack(blocks[:2])) == _gauss_jordan(stack(blocks))
    prepared = solver._prepare(action)
    assert (prepared.free, prepared.maps, prepared.lie) == ([], [], [])
    assert prepared.interior == [solenoid_field()]
    built = []
    field_block = solver._field_block

    def counted(xi, domain, lie):
        built.append("lie" if lie else "interior")
        return field_block(xi, domain, lie=lie)

    from importlib import resources

    from basicforms.jobs import run_job

    monkeypatch.setattr(solver, "_field_block", counted)
    path = resources.files("basicforms") / "jobs_data" / "solenoid_basis.json"
    _, code = run_job(json.loads(path.read_text(encoding="utf-8")))
    assert code == 0
    assert built == ["interior"]


def _count_linalg_calls(monkeypatch, *names) -> dict[str, int]:
    """Calls of linalg functions, through every package module that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("basicforms.")]
    for name in names:
        original = getattr(linalg, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "job, calls",
    [
        ("solenoid_cohomology", {"kernel_basis": 3, "prefix_ranks": 2, "rank": 0}),
        ("stages_solenoid", {"kernel_basis": 2, "prefix_ranks": 1, "rank": 0}),
    ],
)
def test_ranks_are_read_off_pivot_columns(monkeypatch, job, calls):
    """Cohomology reads every rank of d on a grade off one elimination.

    A stages check reads its pulled-back and joined ranks off one
    elimination; the direct forms are a canonical kernel basis, so their
    rank is their number.
    """
    from importlib import resources

    from basicforms.jobs import run_job

    path = resources.files("basicforms") / "jobs_data" / f"{job}.json"
    eliminations = _count_calls(monkeypatch, linalg, "_gauss_jordan")
    counts = _count_linalg_calls(monkeypatch, *calls)
    _, code = run_job(json.loads(path.read_text(encoding="utf-8")))
    assert code == 0
    assert counts == calls
    assert eliminations == {"_gauss_jordan": sum(calls.values())}


def _cohomology_actions() -> list[ActionSpec]:
    """Seeded actions on R^1 to R^3 over Q and Q(a).

    Lattice translations, a sign flip, rotation fields, flows with slope a
    and the trivial action.
    """
    rng = random.Random(1231)
    a = Scalar.parameter()
    x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    one, zero = Polynomial.constant(3, 1), Polynomial.zero(3)

    def lattice(dim):
        steps = [rand_nonzero_fraction(rng, 3) for _ in range(dim)]
        return [
            AffineMap.translation_by([t if i == j else 0 for j in range(dim)])
            for i, t in enumerate(steps)
        ]

    return [
        z2_line(),
        ActionSpec(1, lattice(1)),
        irrational_torus_line(),
        trivial_action(1),
        ActionSpec(2, lattice(2)),
        so2_plane(),
        solenoid_plane(),
        trivial_action(2),
        ActionSpec(3, lattice(3)[2:], [VectorField([-y, x, zero])]),
        ActionSpec(3, lattice(3)[:2], [VectorField([one, one.scale(a), zero])]),
        trivial_action(3),
    ]


@pytest.mark.parametrize("case", range(len(_cohomology_actions())))
def test_cohomology_ranks_equal_their_own_eliminations(case):
    """Each record read off prefix ranks equals its window's own bases and ranks."""
    action = _cohomology_actions()[case]
    for d in range(4):
        expect = {d: cohomology_records(action, d), d + 2: cohomology_records(action, d + 2)}
        assert truncated_basic_cohomology(action, (d, d + 2)) == expect


def test_lie_block_scales_each_component_once_per_exponent_value(monkeypatch):
    """xi(x^e) takes its products e_j xi_j from one table per component and value."""
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    half = Scalar.of(Fraction(1, 2))
    xi = VectorField([-y + z.scale(half), x - w, w + w - x, z + y.scale(half)])
    terms = sum(len(c.terms) for c in xi.components)
    products = 0
    multiply = Scalar.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    solver._field_block(xi, Window(4, 2, 0), lie=True)  # the same dx_I pieces, no xi(x^e) terms
    pieces = products
    products = 0
    domain = Window(4, 2, 4)
    block = solver._field_block(xi, domain, lie=True)
    monkeypatch.undo()
    assert 0 < products - pieces <= 4 * 4 * terms
    assert same_rows(block, operator_block(domain, lambda f: lie_derivative(xi, f)))


def test_a_kept_field_is_assembled_over_its_rational_content():
    """The content is the gcd of the numerators over the lcm of the denominators.

    Coefficients in a count by their rational coefficients; a field with
    an a-denominator, or of content 1, is kept as it is.
    """
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    a = Scalar.parameter()
    quarter = Fraction(1, 4)
    rotation = VectorField([-y, x, -w, z])
    cases = [
        (VectorField([p.scale(quarter) for p in rotation.components]), rotation),
        (VectorField([x.scale(6), y.scale(-4), z.scale(10), w]), None),
        (
            VectorField([x.scale(6), y.scale(-4), z.scale(10), Polynomial.zero(4)]),
            VectorField([x.scale(3), y.scale(-2), z.scale(5), Polynomial.zero(4)]),
        ),
        (
            VectorField([x.scale(a * Fraction(2, 3)), y.scale(Fraction(4, 9)), z, w]),
            VectorField([x.scale(a * 6), y.scale(4), z.scale(9), w.scale(9)]),
        ),
        (VectorField([x.scale(Fraction(2, 3) / (a + 1)), y, z, w]), None),
        (VectorField([-y, x, -w.scale(a), z.scale(a)]), None),
    ]
    for xi, expect in cases:
        scaled = solver._primitive(xi)
        assert scaled is xi if expect is None else scaled == expect
        assert all(
            c.is_rational and c.as_fraction().denominator == 1 or c.uses_parameter
            for p in scaled.components
            for c in p.terms.values()
        )


def test_scaling_a_field_by_a_nonzero_rational_keeps_the_basis():
    """L and i are linear in the field, so c * xi and xi have one basis, under ==."""
    rng = random.Random(1250)
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    a = Scalar.parameter()
    actions = [
        ActionSpec(4, infinitesimal=[VectorField([-y, x, -w, z])]),
        ActionSpec(4, infinitesimal=[VectorField([-y, x, -w.scale(a), z.scale(a)])]),
        solenoid_plane(),
        so2_plane(),
    ]
    for dim in (1, 2):
        fields = [rand_vector_field(rng, dim, max_degree=1, with_param=True) for _ in range(2)]
        actions.append(ActionSpec(dim, infinitesimal=fields))
    for action in actions:
        scales = [rand_nonzero_fraction(rng) for _ in action.infinitesimal]
        scaled = ActionSpec(
            action.dim,
            action.discrete,
            [
                VectorField([p.scale(c) for p in xi.components])
                for c, xi in zip(scales, action.infinitesimal)
            ],
        )
        for grade in range(action.dim + 1):
            for degree in range(3 if action.dim == 4 else 4):
                spec = TruncationSpec(grade, degree)
                assert basic_form_basis(scaled, spec) == basic_form_basis(action, spec)


def test_the_a_rotation_takes_few_scalar_products(monkeypatch):
    """A cost guard with no wall time: Scalar products of one Q(a) basis job.

    The a-rotation, field (-y, x, -a*w, a*z) on R^4, at grade 2, deg 4.
    With its rows in assembly order the elimination took 4766 products;
    with the sparsest rows first it takes under a thousand, and the
    entries in a swell far less.
    """
    from basicforms.jobs import run_job

    job = {
        "command": "basis",
        "action": {"dimension": 4, "infinitesimal": [["-y", "x", "-a*w", "a*z"]]},
        "truncation": {"grade": 2, "max_degree": 4},
    }
    mul = Scalar.__mul__
    products = []
    monkeypatch.setattr(Scalar, "__mul__", lambda s, o: products.append(None) or mul(s, o))
    _, code = run_job(job)
    assert code == 0
    assert len(products) <= 1200


def _const(*components) -> VectorField:
    return VectorField([Polynomial.constant(len(components), c) for c in components])


def _constant_field_spans() -> list[tuple[int, list[AffineMap], list[VectorField]]]:
    """Seeded constant fields whose span freezes all, some or no coordinates: (n, maps, fields)."""
    rng = random.Random(3500)
    a = Scalar.parameter()
    r = lambda: rand_nonzero_fraction(rng, 4)
    shift = AffineMap.translation_by
    return [
        # lattices spanning R^n, over Q and Q(a), aligned or not
        (2, [shift([r(), 0]), shift([0, r()])], []),
        (2, [shift([1, 0]), shift([a, 1])], []),
        (2, [shift([1, 1]), shift([1, -1])], []),
        (2, [shift([r(), r()]), shift([a, a + 1])], []),
        (1, [shift([r()]), shift([a])], []),
        (3, [shift([1, 1, 0]), shift([2, 0, 1]), shift([0, 3, 1])], []),
        # coordinate-aligned partial spans: x alone, then x by a combination
        (3, [shift([r(), 0, 0])], []),
        (3, [shift([1, 1, 1]), shift([0, a, a])], []),
        (3, [shift([1, 0, 0]), shift([0, 1, a])], []),
        # non-aligned partial spans
        (2, [shift([1, 1])], []),
        (3, [shift([1, 1, 0]), shift([0, a, a])], []),
        # constant infinitesimal generators, alone and with translations
        (2, [], [_const(0, r())]),
        (2, [], [_const(1, a)]),
        (3, [shift([r(), 0, 0])], [_const(0, 1, 0)]),
        (2, [shift([1, 0])], [_const(1, a)]),
        (3, [], [_const(1, 0, 0), _const(0, 1, 1)]),
    ]


def _frozen_cases() -> list[ActionSpec]:
    """Each span alone, with a seeded signed permutation map, and with a linear field."""
    rng = random.Random(3501)
    cases = []
    for n, maps, fields in _constant_field_spans():
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        signed = AffineMap.from_rows(
            [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)], [0] * n
        )
        x = [Polynomial.variable(n, j) for j in range(n)]
        c = rand_nonzero_fraction(rng, 3)
        # a rotation of the last two coordinates, or the Euler field on the line
        linear = VectorField(
            [*[Polynomial.zero(n)] * (n - 2), -x[-1].scale(c), x[-2].scale(c)]
            if n > 1 else [x[0]]
        )
        cases += [
            ActionSpec(n, maps, fields),
            ActionSpec(n, [*maps, signed], fields),
            ActionSpec(n, maps, [*fields, linear]),
        ]
    return cases


@pytest.mark.parametrize("case", range(len(_frozen_cases())))
def test_frozen_coordinates_keep_every_basis(case):
    """Bases over the coordinates that constant fields leave free equal the whole window's.

    The oracle is the canonical kernel of the constraints on the whole
    window, over every variable, at each degree; the solver's bases come
    from its window over the free variables, one degree at a time and read
    off one elimination of degree 4.  So does the truncated cohomology.
    """
    action = _frozen_cases()[case]
    for grade in range(action.dim + 1):
        nested = solver._basic_form_bases(solver._prepare(action), grade, range(5))
        for d in range(5):
            spec = TruncationSpec(grade, d)
            oracle = whole_window_basis(action, spec)
            assert basic_form_basis(action, spec) == oracle
            assert nested[d] == oracle
    cohomology = truncated_basic_cohomology(action, (1, 2))
    assert cohomology == {d: cohomology_records(action, d, whole_window_basis) for d in (1, 2)}


def _lattice_job(n: int, translations, grade: int, degree: int, fields=()) -> dict:
    identity = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    return {
        "command": "basis",
        "action": {
            "dimension": n,
            "discrete": [{"matrix": identity, "translation": t} for t in translations],
            "infinitesimal": list(fields),
        },
        "truncation": {"grade": grade, "max_degree": degree},
    }


@pytest.mark.parametrize(
    "job, size",
    [
        # the benchmark's solenoid at degree 7: the lattice freezes x and y
        (_lattice_job(2, [["1", "0"], ["0", "1"]], 1, 7, [["(2/3)", "(2/3)*a"]]), 2),
        # the benchmark's torus: the shift and a freeze the line
        (_lattice_job(1, [["(3/5)"], ["a"]], 1, 3), 1),
        # no constant field: the R^4 rotation keeps its whole window
        ({"command": "basis",
          "action": {"dimension": 4, "infinitesimal": [["-y", "x", "-w", "z"]]},
          "truncation": {"grade": 2, "max_degree": 2}}, 90),
        # a non-aligned span freezes nothing: C(2, 1) C(2 + 3, 3)
        (_lattice_job(2, [["1", "1"]], 1, 3), 20),
        # (1, 1) and (1, -1) span the plane, though neither is aligned
        (_lattice_job(2, [["1", "1"], ["1", "-1"]], 1, 3), 2),
        # a constant generator along x freezes x: C(3, 1) C(2 + 3, 3)
        (_lattice_job(3, [], 1, 3, [["1", "0", "0"]]), 30),
        # the Z^6 torus at grade 3: C(6, 3) columns whatever the degree
        (_lattice_job(6, [[str(int(i == k)) for i in range(6)] for k in range(6)], 3, 16), 20),
    ],
)
def test_windows_range_over_the_free_coordinates(monkeypatch, job, size):
    """The window a basis job builds has the size that the span of its constant fields fixes."""
    from basicforms.jobs import run_job

    sizes = []
    init = Window.__init__
    monkeypatch.setattr(
        Window, "__init__", lambda self, *args: init(self, *args) or sizes.append(self.size)
    )
    _, code = run_job(job)
    assert code == 0
    assert sizes == [size]


def test_a_window_over_fewer_variables_is_the_whole_window_cut_in_order():
    """Its pairs are the whole window's pairs with e_j = 0 off the free variables, in order."""
    for n, grade, d in itertools.product(range(1, 4), range(3), range(4)):
        if grade > n:
            continue
        whole = Window(n, grade, d)
        for k in range(n + 1):
            for free in itertools.combinations(range(n), k):
                cut = Window(n, grade, d, free)
                frozen = [j for j in range(n) if j not in free]
                assert cut.pairs == [
                    (e, I) for e, I in whole.pairs if all(e[j] == 0 for j in frozen)
                ]
                for lower in range(d + 1):
                    prefix = cut.pairs[: cut.prefix_size(lower)]
                    assert prefix == Window(n, grade, lower, free).pairs
    for free in ([1, 0], [0, 0], [2], [-1]):
        with pytest.raises(ValueError, match="free variables"):
            Window(2, 1, 1, free)
