"""Exterior calculus: wedge, d, contraction, Lie derivative, pullback.

Two independent oracles anchor this file.  The Koszul sign from
merge_indices is compared against a brute-force inversion count, and the
Lie derivative (implemented through the homotopy formula) is compared
against the coordinate transport formula assembled term by term from
partial derivatives and wedge products.  Everything else is property
checks on random forms.
"""

import itertools
import random
from fractions import Fraction

import pytest

from basicforms.forms import (
    Form,
    PolyMap,
    VectorField,
    covector_names,
    eval_form,
    ext_d,
    interior,
    lie_derivative,
    merge_indices,
    pullback,
    render_form,
    wedge,
)
from basicforms.polynomials import Polynomial, PowerTable
from basicforms.scalars import UnboundParameterError
from helpers import (
    compose_maps,
    compose_terms,
    rand_form,
    rand_poly,
    rand_vector_field,
    safe_a0,
)


def same_form(lhs: Form, rhs: Form) -> bool:
    """Equality that ignores the grade tag on identically-zero results.

    Grade overflow clamps to the zero top form, so two routes to a zero
    answer can disagree on which grade's zero they carry.
    """
    return lhs == rhs or (lhs.is_zero and rhs.is_zero and lhs.dim == rhs.dim)


def lie_by_transport(field: VectorField, form: Form) -> Form:
    """Coordinate formula: derive each coefficient along the field, then
    substitute d(X^i) for dx_i one slot at a time."""
    n, k = form.dim, form.grade
    out = Form.zero(n, k)
    d_components = [ext_d(Form.function(field.component(i))) for i in range(n)]
    for indices, coeff in form.terms.items():
        derived = Polynomial.zero(n)
        for i in range(n):
            derived = derived + field.component(i) * coeff.partial(i)
        out = out + Form.monomial(n, indices, derived)
        for pos in range(k):
            piece = Form.function(coeff)
            for slot, idx in enumerate(indices):
                factor = d_components[idx] if slot == pos else Form.covector(n, idx)
                piece = wedge(piece, factor)
            out = out + piece
    return out


def test_merge_indices_against_inversion_count():
    rng = random.Random(201)
    for _ in range(300):
        n = rng.randint(1, 6)
        pool = list(range(n))
        k = rng.randint(0, n)
        left = tuple(sorted(rng.sample(pool, k)))
        right = tuple(sorted(rng.sample(pool, rng.randint(0, n))))
        merged, sign = merge_indices(left, right)
        if set(left) & set(right):
            assert merged is None
            continue
        concat = left + right
        inversions = sum(
            1
            for i in range(len(concat))
            for j in range(i + 1, len(concat))
            if concat[i] > concat[j]
        )
        assert merged == tuple(sorted(concat))
        assert sign == (-1) ** inversions


def test_form_validation():
    with pytest.raises(ValueError):
        Form(2, 1, {(0, 1): Polynomial.constant(2, 1)})  # wrong index count
    with pytest.raises(ValueError):
        Form(2, 2, {(1, 0): Polynomial.constant(2, 1)})  # not increasing
    with pytest.raises(ValueError):
        Form(2, 3, {})  # grade beyond dimension
    with pytest.raises(ValueError):
        Form(2, 1, {(0,): Polynomial.constant(3, 1)})  # wrong variable count


def test_wedge_graded_commutativity():
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        l = rng.randint(0, n)
        alpha = rand_form(rng, n, k, with_param=True)
        beta = rand_form(rng, n, l, with_param=True)
        lhs = wedge(alpha, beta)
        rhs = wedge(beta, alpha)
        if (k * l) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associativity_and_bilinearity():
    rng = random.Random(203)
    for _ in range(120):
        n = rng.randint(2, 4)
        grades = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (rand_form(rng, n, g) for g in grades)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        b2 = rand_form(rng, n, grades[1])
        assert wedge(a, b + b2) == wedge(a, b) + wedge(a, b2)


def test_wedge_clamps_to_zero_top_form():
    dx = Form.covector(1, 0)
    clamped = wedge(dx, dx)
    assert clamped.is_zero and clamped.grade == 1 and clamped.dim == 1
    n3 = wedge(Form.covector(3, 0), wedge(Form.covector(3, 1), Form.covector(3, 2)))
    assert wedge(n3, Form.covector(3, 0)).is_zero
    assert wedge(n3, Form.covector(3, 0)).grade == 3


def test_d_squared_is_zero():
    rng = random.Random(204)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        alpha = rand_form(rng, n, k, max_degree=3, with_param=True)
        assert ext_d(ext_d(alpha)).is_zero


def test_d_of_top_form_is_zero_top_form():
    omega = Form.monomial(2, (0, 1), rand_poly(random.Random(1), 2))
    d = ext_d(omega)
    assert d.is_zero and d.grade == 2


def test_d_leibniz_rule():
    rng = random.Random(205)
    for _ in range(150):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        l = rng.randint(0, n)
        alpha = rand_form(rng, n, k)
        beta = rand_form(rng, n, l)
        lhs = ext_d(wedge(alpha, beta))
        rhs = wedge(ext_d(alpha), beta) + (
            wedge(alpha, ext_d(beta)) if k % 2 == 0 else -wedge(alpha, ext_d(beta))
        )
        assert lhs == rhs


def test_d_hand_example():
    # d(xy dx) = x dy^dx = -x dx^dy
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    alpha = Form.monomial(2, (0,), x * y)
    assert ext_d(alpha) == Form.monomial(2, (0, 1), -x)


def test_interior_squares_to_zero():
    rng = random.Random(206)
    for _ in range(150):
        n = rng.randint(2, 4)
        k = rng.randint(2, n)
        alpha = rand_form(rng, n, k)
        field = rand_vector_field(rng, n)
        assert interior(field, interior(field, alpha)).is_zero


def test_interior_antiderivation():
    rng = random.Random(207)
    for _ in range(150):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        l = rng.randint(1, n - k)
        alpha = rand_form(rng, n, k)
        beta = rand_form(rng, n, l)
        field = rand_vector_field(rng, n)
        lhs = interior(field, wedge(alpha, beta))
        rhs = wedge(interior(field, alpha), beta) + (
            wedge(alpha, interior(field, beta))
            if k % 2 == 0
            else -wedge(alpha, interior(field, beta))
        )
        assert lhs == rhs


def test_interior_rejects_functions():
    with pytest.raises(ValueError):
        interior(VectorField([Polynomial.constant(1, 1)]), Form.function(Polynomial.constant(1, 1)))


def test_lie_derivative_matches_transport_formula():
    rng = random.Random(208)
    for _ in range(200):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        alpha = rand_form(rng, n, k, max_degree=2, with_param=True)
        field = rand_vector_field(rng, n, max_degree=2, with_param=True)
        assert lie_derivative(field, alpha) == lie_by_transport(field, alpha)


def test_lie_derivative_commutes_with_d():
    rng = random.Random(209)
    for _ in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        alpha = rand_form(rng, n, k, max_degree=2)
        field = rand_vector_field(rng, n, max_degree=2)
        assert ext_d(lie_derivative(field, alpha)) == lie_derivative(field, ext_d(alpha))


def test_lie_derivative_is_derivation_over_wedge():
    rng = random.Random(210)
    for _ in range(100):
        n = rng.randint(2, 3)
        alpha = rand_form(rng, n, rng.randint(0, 1), max_degree=2)
        beta = rand_form(rng, n, rng.randint(0, 1), max_degree=2)
        field = rand_vector_field(rng, n, max_degree=2)
        lhs = lie_derivative(field, wedge(alpha, beta))
        rhs = wedge(lie_derivative(field, alpha), beta) + wedge(alpha, lie_derivative(field, beta))
        assert lhs == rhs


def test_pullback_functoriality():
    rng = random.Random(211)
    for _ in range(120):
        dims = [rng.randint(1, 3) for _ in range(3)]
        g = PolyMap(dims[0], [rand_poly(rng, dims[0], 2) for _ in range(dims[1])])
        f = PolyMap(dims[1], [rand_poly(rng, dims[1], 2) for _ in range(dims[2])])
        alpha = rand_form(rng, dims[2], rng.randint(0, dims[2]), max_degree=2)
        composed = compose_maps(f, g)
        assert same_form(pullback(composed, alpha), pullback(g, pullback(f, alpha)))


def test_pullback_commutes_with_d():
    rng = random.Random(212)
    for _ in range(120):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = PolyMap(m, [rand_poly(rng, m, 2) for _ in range(n)])
        alpha = rand_form(rng, n, rng.randint(0, n), max_degree=2)
        lhs = ext_d(pullback(f, alpha))
        rhs = pullback(f, ext_d(alpha))
        assert same_form(lhs, rhs)


def test_pullback_is_ring_map_on_functions():
    rng = random.Random(213)
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = PolyMap(m, [rand_poly(rng, m, 2) for _ in range(n)])
        p = rand_poly(rng, n, 2)
        q = rand_poly(rng, n, 2)
        table = PowerTable(m, f.components)
        assert pullback(f, Form.function(p * q)) == Form.function(
            table.compose(p) * table.compose(q)
        )


def _random_map_and_forms(rng, with_param):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    mapping = PolyMap(m, [rand_poly(rng, m, 2, 3, with_param) for _ in range(n)])
    forms = [
        rand_form(rng, n, rng.randint(0, n), max_degree=3, with_param=with_param)
        for _ in range(5)
    ]
    return mapping, forms


def test_pullback_of_functions_matches_term_by_term_composition():
    rng = random.Random(215)
    for _ in range(60):
        mapping, _ = _random_map_and_forms(rng, rng.random() < 0.5)
        for _ in range(4):  # the map's power table fills as it goes
            p = rand_poly(rng, mapping.codomain_dim, max_degree=4, max_terms=5)
            expect = compose_terms(p, mapping.components)
            assert pullback(mapping, Form.function(p)) == Form.function(expect)


def test_pullback_does_not_depend_on_earlier_pullbacks():
    # two maps with the same components fill their tables in opposite
    # orders; a third pulls back each form on empty tables
    rng = random.Random(216)
    for _ in range(60):
        mapping, forms = _random_map_and_forms(rng, rng.random() < 0.5)
        twin = PolyMap(mapping.domain_dim, mapping.components)
        forward = [pullback(mapping, f) for f in forms]
        backward = [pullback(twin, f) for f in reversed(forms)][::-1]
        fresh = [pullback(PolyMap(mapping.domain_dim, mapping.components), f) for f in forms]
        assert forward == backward == fresh


def test_binding_a_map_with_filled_tables():
    rng = random.Random(217)
    for _ in range(60):
        mapping, forms = _random_map_and_forms(rng, with_param=True)
        pulled = [pullback(mapping, f) for f in forms]
        coeffs = [p for f in forms for p in f.terms.values()]
        a0 = safe_a0(rng, *mapping.components, *coeffs)
        bound = mapping.bind_param(a0)
        for f, image in zip(forms, pulled):
            assert pullback(bound, f.bind_param(a0)) == image.bind_param(a0)


def test_pullback_drops_overflowing_grades():
    # a 2-form pulled back to a line has nowhere to go
    f = PolyMap(1, [Polynomial.variable(1, 0), Polynomial.variable(1, 0)])
    omega = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    result = pullback(f, omega)
    assert result.is_zero and result.dim == 1 and result.grade == 1


def test_eval_form_alternating_and_linear():
    rng = random.Random(214)
    for _ in range(100):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        alpha = rand_form(rng, n, k)
        point = [rng.uniform(-2, 2) for _ in range(n)]
        vectors = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(k)]
        base = eval_form(alpha, point, vectors)
        if k >= 2:
            swapped = [vectors[1], vectors[0]] + vectors[2:]
            assert eval_form(alpha, point, swapped) == pytest.approx(-base, abs=1e-9)
        scaled = [[3.0 * c for c in vectors[0]]] + vectors[1:]
        assert eval_form(alpha, point, scaled) == pytest.approx(3.0 * base, rel=1e-9, abs=1e-9)


def test_eval_form_hand_value():
    # dx^dy on ((1,0),(0,1)) is 1; on swapped arguments -1
    omega = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    assert eval_form(omega, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]) == 1.0
    assert eval_form(omega, [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]) == -1.0


def test_eval_form_needs_bound_parameter():
    alpha = Form.monomial(1, (0,), Polynomial.parameter(1))
    with pytest.raises(UnboundParameterError):
        eval_form(alpha, [0.0], [[1.0]])
    assert eval_form(alpha.bind_param(Fraction(2)), [0.0], [[1.0]]) == 2.0


def test_render_form_goldens():
    a = Polynomial.parameter(2)
    alpha = Form.monomial(2, (0,), a) + Form.monomial(2, (1,), Polynomial.constant(2, -1))
    assert render_form(alpha) == "(a) dx + (-1) dy"
    omega = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    assert render_form(omega) == "(1) dx^dy"
    assert render_form(Form.zero(3, 2)) == "0"
    f = Form.function(Polynomial.variable(2, 0))
    assert render_form(f) == "(x)"
    assert covector_names(("u", "v")) == ["du", "dv"]
