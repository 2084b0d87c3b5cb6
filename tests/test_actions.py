"""Affine maps and the pullback action.

The composition oracles are pointwise application and the dense
row-by-column product; a chart's walk of its group is tested in
``test_orbifolds.py``.
"""

import random
from fractions import Fraction

import pytest

from basicforms.actions import ActionSpec, AffineMap, act_pullback
from basicforms.forms import Form
from basicforms.polynomials import Polynomial
from basicforms.scalars import Scalar
import helpers
from helpers import (
    apply_exact,
    cofactor_det,
    dense_product,
    eval_scalar_exact,
    rand_affine,
    rand_form,
    rand_fraction,
    rand_scalar,
    safe_a0,
)


def _rotation() -> AffineMap:
    return AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])


def test_constructor_rejects_singular():
    with pytest.raises(ValueError, match="not invertible"):
        AffineMap.from_rows([[1, 2], [2, 4]], [0, 0])
    with pytest.raises(ValueError):
        AffineMap([[1, 0]], [0])  # not square
    # invertible over Q(a), singular at a = 0: binding checks again
    scaling = AffineMap.from_rows([[Scalar.parameter(), 0], [0, 1]], [0, 0])
    with pytest.raises(ValueError, match="not invertible"):
        scaling.bind_param(Fraction(0))


def _rand_square(rng: random.Random, n: int, with_param: bool) -> list[list[Scalar]]:
    """A random n x n matrix; about half are made rank deficient on purpose.

    The deficient ones get one row replaced by a combination of two others
    (by a multiple of another when n = 2, by zeros when n = 1), with
    weights that may involve the parameter.
    """
    rows = [[rand_scalar(rng, with_param, span=3) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        target = rng.randrange(n)
        others = [i for i in range(n) if i != target]
        rng.shuffle(others)
        combo = [Scalar.of(0)] * n
        for i in others[:2]:
            weight = rand_scalar(rng, with_param, span=3)
            combo = [c + weight * e for c, e in zip(combo, rows[i])]
        rows[target] = combo
    return rows


def test_constructor_refuses_exactly_the_singular_matrices():
    # the oracle is the cofactor determinant; the constructor tests full rank
    rng = random.Random(311)
    refused = accepted = 0
    for trial in range(240):
        n = trial % 4 + 1
        rows = _rand_square(rng, n, with_param=trial % 8 >= 4)
        singular = cofactor_det(rows).is_zero
        try:
            AffineMap(rows, [0] * n)
        except ValueError as exc:
            assert "not invertible" in str(exc)
            assert singular, rows
            refused += 1
        else:
            assert not singular, rows
            accepted += 1
    assert refused > 60 and accepted > 60


def test_random_maps_give_up_on_a_constructor_that_refuses_them_all(monkeypatch):
    # with no cap, a constructor fault hung every test that draws a map
    def refuse(rows, translation):
        raise ValueError("affine map is not invertible")

    monkeypatch.setattr(helpers, "AffineMap", refuse)
    expected = f"refused {helpers.MAX_AFFINE_DRAWS} random maps on R\\^3"
    with pytest.raises(RuntimeError, match=expected):
        rand_affine(random.Random(312), 3)


def test_identity_and_translation():
    ident = AffineMap.identity(3)
    assert apply_exact(ident, [1, 2, 3]) == (Scalar.of(1), Scalar.of(2), Scalar.of(3))
    shift = AffineMap.translation_by([Fraction(1, 2), -1])
    assert apply_exact(shift, [0, 0]) == (Scalar.of(Fraction(1, 2)), Scalar.of(-1))


def test_compose_against_pointwise_application():
    rng = random.Random(301)
    for _ in range(120):
        dim = rng.randint(1, 3)
        g = rand_affine(rng, dim, with_param=rng.random() < 0.3)
        h = rand_affine(rng, dim, with_param=rng.random() < 0.3)
        point = [rand_fraction(rng, 4) for _ in range(dim)]
        product = g.compose(h)
        assert apply_exact(product, point) == apply_exact(g, apply_exact(h, point))
        # compose skips the rank check; the checked constructor agrees,
        # down to the hash that a chart's walk deduplicates by
        assert AffineMap(product.linear, product.translation) == product
        assert hash(AffineMap.from_rows(product.linear, product.translation)) == hash(product)


def _signed_permutation(perm, signs, translation=None) -> AffineMap:
    rows = [[0] * len(perm) for _ in perm]
    for i, (j, sign) in enumerate(zip(perm, signs)):
        rows[i][j] = sign
    return AffineMap.from_rows(rows, translation or [0] * len(perm))


def test_compose_equals_the_dense_product():
    rng = random.Random(307)
    for _ in range(60):
        dim = rng.randint(1, 4)
        g = rand_affine(rng, dim, with_param=dim < 4)
        h = rand_affine(rng, dim, with_param=dim < 4)
        assert g.compose(h) == dense_product(g, h)
    for _ in range(60):
        dim = rng.randint(1, 4)
        g, h = (
            _signed_permutation(
                rng.sample(range(dim), dim),
                [rng.choice((1, -1)) for _ in range(dim)],
                [rng.choice((0, 0, rand_fraction(rng, 3), rand_scalar(rng))) for _ in range(dim)],
            )
            for _ in range(2)
        )
        assert g.compose(h) == dense_product(g, h)


def test_as_poly_map_agrees_with_apply_exact():
    rng = random.Random(303)
    a0 = Fraction(2, 5)
    for _ in range(80):
        dim = rng.randint(1, 3)
        g = rand_affine(rng, dim, with_param=True)
        point = tuple(rand_fraction(rng, 4) for _ in range(dim))
        try:
            image = apply_exact(g, point)
        except ZeroDivisionError:
            continue
        for comp, expect in zip(g.as_poly_map().components, image):
            got = Fraction(0)
            for exps, c in comp.terms.items():
                term = eval_scalar_exact(c, a0)
                for x, e in zip(point, exps):
                    term *= x**e
                got += term
            assert got == eval_scalar_exact(expect, a0)


def test_pullback_is_right_action():
    rng = random.Random(304)
    for _ in range(100):
        dim = rng.randint(1, 3)
        g = rand_affine(rng, dim)
        h = rand_affine(rng, dim)
        alpha = rand_form(rng, dim, rng.randint(0, dim), max_degree=2)
        assert act_pullback(g.compose(h), alpha) == act_pullback(h, act_pullback(g, alpha))


def test_pullback_by_identity_fixes_everything():
    rng = random.Random(305)
    for _ in range(50):
        dim = rng.randint(1, 3)
        alpha = rand_form(rng, dim, rng.randint(0, dim), with_param=True)
        assert act_pullback(AffineMap.identity(dim), alpha) == alpha


def test_rotation_pullback_hand_values():
    r = _rotation()
    dx = Form.covector(2, 0)
    dy = Form.covector(2, 1)
    # (x, y) -> (-y, x): dx pulls back to -dy, dy to dx
    assert act_pullback(r, dx) == -dy
    assert act_pullback(r, dy) == dx
    area = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    assert act_pullback(r, area) == area


def test_binding_an_affine_map_with_filled_tables():
    # the map's cached PolyMap and power table are full before binding
    rng = random.Random(306)
    for _ in range(40):
        n = rng.randint(1, 3)
        g = rand_affine(rng, n, with_param=True)
        forms = [rand_form(rng, n, rng.randint(0, n), 2, with_param=True) for _ in range(3)]
        pulled = [act_pullback(g, f) for f in forms]
        coeffs = [p for f in forms for p in f.terms.values()]
        while True:
            a0 = safe_a0(rng, *g.as_poly_map().components, *coeffs)
            try:
                bound = g.bind_param(a0)
            except ValueError:  # singular at a0
                continue
            break
        for f, image in zip(forms, pulled):
            assert act_pullback(bound, f.bind_param(a0)) == image.bind_param(a0)


def test_action_spec_validation_and_binding():
    with pytest.raises(ValueError):
        ActionSpec(2, discrete=[AffineMap.identity(1)])
    a = Scalar.parameter()
    spec = ActionSpec(1, discrete=[AffineMap.from_rows([[1]], [a])])
    assert spec.uses_parameter
    bound = spec.bind_param(Fraction(1, 3))
    assert not bound.uses_parameter
    assert apply_exact(bound.discrete[0], [0]) == (Scalar.of(Fraction(1, 3)),)
