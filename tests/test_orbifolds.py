"""Finite-group charts: invariant-form bases and overlap compatibility."""

import random

import pytest

from basicforms.actions import ActionSpec, AffineMap, GroupNotFiniteError, act_pullback
from basicforms.examples import c4_square_chart
from basicforms.forms import Form
from basicforms.orbifolds import (
    OrbifoldChart,
    chart_compatibility_check,
    orbifold_invariant_forms,
)
from basicforms.polynomials import Polynomial
from basicforms.solver import TruncationSpec, Window, basic_form_basis
from helpers import naive_group, rand_form, spans_equal


def test_c4_chart_shape():
    chart = c4_square_chart()
    assert chart.dim == 2
    assert len(chart.group) == 4
    assert chart.label == "c4"
    assert "order=4" in repr(chart)


def test_c4_area_form_is_the_constant_invariant():
    chart = c4_square_chart()
    basis = orbifold_invariant_forms(chart, TruncationSpec(2, 0))
    area = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    assert basis == [area]
    assert str(basis[0]) == "(1) dx^dy"


def test_c4_has_no_constant_invariant_one_forms():
    chart = c4_square_chart()
    assert orbifold_invariant_forms(chart, TruncationSpec(1, 0)) == []


def test_c4_invariant_functions_through_degree_two():
    chart = c4_square_chart()
    basis = orbifold_invariant_forms(chart, TruncationSpec(0, 2))
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    expected = [
        Form.function(Polynomial.constant(2, 1)),
        Form.function(x * x + y * y),
    ]
    assert spans_equal(Window(2, 0, 2), basis, expected)


def test_all_invariant_basis_members_are_fixed_by_the_group():
    chart = c4_square_chart()
    for grade in (0, 1, 2):
        for d in (0, 1, 2, 3):
            for f in orbifold_invariant_forms(chart, TruncationSpec(grade, d)):
                for g in chart.group:
                    assert act_pullback(g, f) == f


def test_reflection_chart_on_the_line():
    flip = AffineMap.from_rows([[-1]], [0])
    chart = OrbifoldChart(1, [flip])
    x = Polynomial.variable(1, 0)
    basis = orbifold_invariant_forms(chart, TruncationSpec(1, 3))
    assert basis == [
        Form.monomial(1, (0,), x),
        Form.monomial(1, (0,), x**3),
    ]


def test_chart_validation():
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    with pytest.raises(ValueError, match="at least one generator"):
        OrbifoldChart(2, [])
    with pytest.raises(ValueError, match="dimension"):
        OrbifoldChart(1, [AffineMap.identity(2)])
    with pytest.raises(ValueError, match="dimension"):
        OrbifoldChart(2, [r, AffineMap.identity(1)])
    with pytest.raises(GroupNotFiniteError):
        OrbifoldChart(1, [AffineMap.translation_by([1])])
    # the cap is tight: the quarter turn generates exactly 4 elements
    assert len(OrbifoldChart(2, [r], cap=4).group) == 4
    with pytest.raises(GroupNotFiniteError):
        OrbifoldChart(2, [r], cap=3)


def _signed_permutation(perm, signs) -> AffineMap:
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for i, (j, sign) in enumerate(zip(perm, signs)):
        rows[i][j] = sign
    return AffineMap.from_rows(rows, [0] * n)


_QUARTER = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
_MIRROR = AffineMap.from_rows([[1, 0], [0, -1]], [0, 0])
# (x, y, z) -> (y, z, -x) and the quarter turn about z generate all 48
# signed permutations of R^3
_B3 = [_signed_permutation((1, 2, 0), (1, 1, -1)), _signed_permutation((1, 0, 2), (-1, 1, 1))]


@pytest.mark.parametrize(
    "dim, gens, order, grade, degree, reverse",
    [
        (2, [_QUARTER], 4, 1, 4, False),
        (2, [_QUARTER, _MIRROR], 8, 1, 4, False),
        (2, [_QUARTER, _MIRROR], 8, 1, 4, True),
        (3, _B3, 48, 1, 2, False),
        (3, _B3, 48, 2, 2, False),
    ],
)
def test_generator_route_matches_whole_group(dim, gens, order, grade, degree, reverse):
    if reverse:
        gens = gens[::-1]
    chart = OrbifoldChart(dim, gens)
    assert chart.generators == tuple(gens)
    assert chart.group[0] == AffineMap.identity(dim)
    assert len(chart.group) == len(set(chart.group)) == order
    # the walk uses no inverse letters and still misses no element
    assert set(chart.group) == naive_group(gens)
    spec = TruncationSpec(grade, degree)
    from_generators = basic_form_basis(ActionSpec(dim, discrete=chart.generators), spec)
    from_group = basic_form_basis(ActionSpec(dim, discrete=chart.group), spec)
    assert from_generators == from_group
    assert orbifold_invariant_forms(chart, spec) == from_group


def test_compatibility_with_rotation_transition():
    # the quarter turn preserves the area form but not dx
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    area = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    dx = Form.covector(2, 0)
    assert chart_compatibility_check(r, area, area)
    assert not chart_compatibility_check(r, dx, dx)
    # and dx is compatible when the source side is the rotated covector
    assert chart_compatibility_check(r, act_pullback(r, dx), dx)


def test_compatibility_is_exact_pullback_equality():
    rng = random.Random(507)
    r = AffineMap.from_rows([[0, -1], [1, 0]], [1, -2])
    for _ in range(50):
        grade = rng.randint(0, 2)
        target = rand_form(rng, 2, grade, max_degree=2)
        assert chart_compatibility_check(r, act_pullback(r, target), target)


def test_compatibility_dimension_check():
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    with pytest.raises(ValueError, match="different spaces"):
        chart_compatibility_check(r, Form.covector(1, 0), Form.covector(1, 0))
