"""Sparse polynomial arithmetic over Q(a).

Oracle: term-by-term exact evaluation at random rational points
(helpers.eval_poly_exact), re-derived from the term dict with plain
Fraction arithmetic.  Ring identities are checked through it; rendering
is pinned on goldens and closed by the parser round-trip tests.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from basicforms.polynomials import (
    Polynomial,
    PowerTable,
    default_var_names,
    render_poly,
)
from basicforms.scalars import Scalar, UnboundParameterError
from helpers import (
    compose_terms,
    eval_poly_exact,
    grlex_key,
    rand_affine,
    rand_fraction,
    rand_poly,
    safe_a0,
)


def _point(rng, n):
    return tuple(rand_fraction(rng, 5) for _ in range(n))


def test_constructors_and_flags():
    x = Polynomial.variable(2, 0)
    assert not x.is_zero and not x.is_constant()
    assert Polynomial.zero(3).is_zero
    assert Polynomial.constant(1, Fraction(2, 3)).constant_coefficient() == Scalar.of(Fraction(2, 3))
    assert Polynomial.parameter(2).uses_parameter
    assert not x.uses_parameter


def test_zero_terms_are_dropped():
    p = Polynomial(1, {(1,): 0, (0,): 5})
    assert p.terms == {(0,): Scalar.of(5)}
    assert (p - p).is_zero


def test_total_degree():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert (x * x * y + y).total_degree() == 3
    assert Polynomial.constant(2, 7).total_degree() == 0
    assert Polynomial.zero(2).total_degree() == -math.inf


def test_ring_identities_random():
    rng = random.Random(11)
    for _ in range(250):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, with_param=True)
        q = rand_poly(rng, n, with_param=True)
        r = rand_poly(rng, n, with_param=True)
        pt = _point(rng, n)
        a0 = safe_a0(rng, p, q, r)
        ev = lambda poly: eval_poly_exact(poly, pt, a0)
        assert ev(p + q) == ev(p) + ev(q)
        assert ev(p * q) == ev(p) * ev(q)
        assert ev(p * (q + r)) == ev(p) * ev(q) + ev(p) * ev(r)
        assert ev(p - p) == 0
        assert ev(-p) == -ev(p)


def test_pow_by_squaring_matches_evaluation():
    rng = random.Random(12)
    for _ in range(60):
        p = rand_poly(rng, 2, max_degree=2)
        k = rng.randint(0, 5)
        pt = _point(rng, 2)
        assert eval_poly_exact(p**k, pt) == eval_poly_exact(p, pt) ** k


def test_partial_derivative_on_monomials():
    # d/dx (x^i y^j) = i x^(i-1) y^j, checked exhaustively on a small box
    for i in range(4):
        for j in range(3):
            p = Polynomial(2, {(i, j): 1})
            got = p.partial(0)
            if i == 0:
                assert got.is_zero
            else:
                assert got == Polynomial(2, {(i - 1, j): i})


def test_partial_is_linear_and_leibniz():
    rng = random.Random(13)
    for _ in range(100):
        p = rand_poly(rng, 2, with_param=True)
        q = rand_poly(rng, 2, with_param=True)
        i = rng.randrange(2)
        assert (p + q).partial(i) == p.partial(i) + q.partial(i)
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


def test_substitute_is_composition():
    rng = random.Random(14)
    for _ in range(80):
        p = rand_poly(rng, 2, max_degree=2)
        imgs = [rand_poly(rng, 3, max_degree=2) for _ in range(2)]
        pt = _point(rng, 3)
        inner = tuple(eval_poly_exact(g, pt) for g in imgs)
        composed = PowerTable(3, imgs).compose(p)
        assert eval_poly_exact(composed, pt) == eval_poly_exact(p, inner)


def test_power_tables_match_term_by_term_composition():
    # affine images (as every chart map) and polynomial ones, with and
    # without the parameter; one table serves several polynomials in turn
    rng = random.Random(17)
    for _ in range(60):
        with_param = rng.random() < 0.5
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            m = n
            images = rand_affine(rng, n, with_param).as_poly_map().components
        else:
            m = rng.randint(1, 3)
            images = [rand_poly(rng, m, 2, 3, with_param) for _ in range(n)]
        table = PowerTable(m, images)
        for _ in range(3):
            p = rand_poly(rng, n, max_degree=3, max_terms=5, with_param=with_param)
            expect = compose_terms(p, images)
            assert PowerTable(m, images).compose(p) == expect
            assert table.compose(p) == expect


def test_substitute_shape_errors():
    p = Polynomial.variable(2, 0)
    with pytest.raises(ValueError, match="expected 2 substitution images"):
        PowerTable(1, [Polynomial.variable(1, 0)]).compose(p)  # one image for two variables
    with pytest.raises(ValueError, match="different spaces"):
        PowerTable(1, [Polynomial.variable(1, 0), Polynomial.variable(2, 0)])


def test_bind_param_random():
    rng = random.Random(15)
    for _ in range(80):
        p = rand_poly(rng, 2, with_param=True)
        a0 = safe_a0(rng, p)
        pt = _point(rng, 2)
        bound = p.bind_param(a0)
        assert not bound.uses_parameter
        assert eval_poly_exact(bound, pt) == eval_poly_exact(p, pt, a0)


def test_evaluate_float_against_exact():
    # polynomials over Q(a), bound exactly to a seeded rational before any float
    rng = random.Random(16)
    for _ in range(50):
        p = rand_poly(rng, 2, with_param=True)
        pts = [_point(rng, 2) for _ in range(6)]
        a0 = safe_a0(rng, p)
        bound = p.bind_param(a0)
        floats = []
        for pt in pts:
            exact = float(eval_poly_exact(p, pt, a0))
            got = bound.evaluate([float(c) for c in pt])
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)
            floats.append(got)
        # the same points as coordinate arrays: the same arithmetic, bit for bit
        columns = np.array(pts, dtype=float).T
        assert np.array_equal(np.broadcast_to(bound.evaluate(columns), 6), floats)
        if p.uses_parameter:
            with pytest.raises(UnboundParameterError):
                p.evaluate(columns)


def test_evaluate_keeps_odd_polynomials_odd():
    # powers are repeated products, so p(-x) == -p(x) holds exactly
    rng = random.Random(17)
    xs = np.random.default_rng(17).uniform(-3.0, 3.0, size=(2, 500))
    for _ in range(20):
        terms = {}
        for _ in range(4):
            e = rng.choice((1, 3, 5, 7))
            k = rng.randint(0, e)
            terms[(k, e - k)] = rand_fraction(rng, 9) + Fraction(1, 7)
        p = Polynomial(2, terms)
        assert np.array_equal(p.evaluate(-xs), -p.evaluate(xs))
        for x, y in xs.T[:50]:
            assert p.evaluate([-x, -y]) == -p.evaluate([x, y])


def test_grlex_key_orders_degree_then_lex():
    # degree ascending, first-variable-major within a degree
    exps = [(0, 2), (0, 0), (1, 1), (0, 1), (2, 0), (1, 0)]
    ordered = sorted(exps, key=grlex_key)
    assert ordered == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_default_var_names():
    assert default_var_names(2) == ("x", "y")
    assert default_var_names(4) == ("x", "y", "z", "w")
    assert default_var_names(5) == ("x1", "x2", "x3", "x4", "x5")


def test_render_goldens():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    a = Polynomial.parameter(2)
    assert render_poly((x + y) * (x - y)) == "x^2 - y^2"
    assert render_poly(x * x + x * y.scale(2) + y * y) == "x^2 + 2*x*y + y^2"
    assert render_poly(a * x - y) == "a*x - y"
    assert render_poly(Polynomial.zero(2)) == "0"
    assert render_poly(Polynomial.constant(2, Fraction(-1, 2))) == "-1/2"
    assert render_poly(x.scale(Fraction(1, 3)), names=("t", "u")) == "(1/3)*t"


def test_render_parenthesizes_compound_constants():
    a = Polynomial.parameter(1)
    t = Polynomial.variable(1, 0)
    # -(a + 1) must not print as "-a + 1"
    assert render_poly(-(a + Polynomial.constant(1, 1)), names=("t",)) == "-(a + 1)"
    # compound coefficients factor out the sign of their leading term
    assert render_poly(t - (a * t), names=("t",)) == "-(a - 1)*t"


def test_equality_and_hash_ignore_construction_route():
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    p = (x + one) * (x - one)
    q = x * x - one
    assert p == q and hash(p) == hash(q)
