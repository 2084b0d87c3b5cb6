"""Finite-group charts: the walk of the group, invariant-form bases, and
pullbacks under a chart transition.

The walk's oracles are repeated matrix multiplication (the quarter turn's
four powers), the words of the generators and their inverses
(``naive_group``), the dense row-by-column product, and the same
breadth-first walk by whole maps (``compose_walk``).
"""

import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

import basicforms
from basicforms import linalg, orbifolds, solver
from basicforms.actions import ActionSpec, AffineMap, act_pullback
from basicforms.examples import c4_square_chart
from basicforms.forms import Form
from basicforms.jobs import run_job
from basicforms.linalg import Matrix, rank
from basicforms.orbifolds import GroupNotFiniteError, OrbifoldChart, orbifold_invariant_forms
from basicforms.polynomials import Polynomial
from basicforms.scalars import Scalar
from basicforms.solver import TruncationSpec, Window, basic_form_basis
from helpers import (
    _tpoly_det,
    affine_inverse,
    compose_walk,
    dense_row_product,
    linear_parts,
    matrix_power_traces,
    molien_counts,
    naive_group,
    rand_fraction,
    rand_nonzero_fraction,
    rand_scalar,
    reynolds_span,
    spans_equal,
    window_coordinates,
    window_monomials,
    word_product,
)


def test_c4_chart_shape():
    chart = c4_square_chart()
    assert chart.dim == 2
    assert len(chart.group) == 4
    assert repr(chart) == "OrbifoldChart(dim=2, order=4)"


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
    assert spans_equal(basis, expected)


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


def _assert_table_and_words(chart: OrbifoldChart) -> None:
    group, gens = chart.group, chart.generators
    table, words = chart._table, orbifolds._words(chart._table)
    assert len(table) == len(words) == len(chart._traces) == len(group)
    for i, row in enumerate(table):
        assert len(row) == len(gens)
        for s, j in enumerate(row):
            assert group[j] == group[i].compose(gens[s])
    for element, word, trace in zip(group, words, chart._traces):
        assert word_product(gens, word) == element
        assert Scalar.of(trace) == sum((row[i] for i, row in enumerate(element.linear)), Scalar.of(0))


def _counting_row_products(monkeypatch, limit: int | None = None) -> list:
    """Patch the walk's row product to record each (row, generator) call, and
    to fail past ``limit`` calls if given; returns the record."""
    calls, product = [], orbifolds._row_product

    def counted(row, generator):
        calls.append((row, generator))
        assert limit is None or len(calls) <= limit, f"more than {limit} row products"
        return product(row, generator)

    monkeypatch.setattr(orbifolds, "_row_product", counted)
    return calls


def test_closure_of_quarter_turn_matches_powers():
    group = OrbifoldChart(2, [_QUARTER], cap=8).group
    powers = [AffineMap.identity(2)]
    for _ in range(3):
        powers.append(_QUARTER.compose(powers[-1]))
    assert len(group) == 4
    assert set(group) == set(powers)
    # breadth-first: identity first, generator next
    assert group[0] == AffineMap.identity(2)
    assert group[1] in (_QUARTER, affine_inverse(_QUARTER))


def test_closure_of_sign_flip():
    flip = AffineMap.from_rows([[-1]], [0])
    assert OrbifoldChart(1, [flip]).group == (AffineMap.identity(1), flip)


def test_closure_detects_infinite_group(monkeypatch):
    assert basicforms.GroupNotFiniteError is GroupNotFiniteError
    shift = AffineMap.translation_by([1])
    calls = _counting_row_products(monkeypatch)
    with pytest.raises(GroupNotFiniteError, match="^group not finite within cap 16$"):
        OrbifoldChart(1, [shift], cap=16)
    # x -> x + 1 has trace 1 at every power, so only the cap stops it; its
    # one row (1 | k) is new at every power, so each product forms one
    assert len(calls) == 16


def test_closure_cap_is_tight():
    assert len(OrbifoldChart(2, [_QUARTER], cap=4).group) == 4
    with pytest.raises(GroupNotFiniteError):
        OrbifoldChart(2, [_QUARTER], cap=3)


def test_closure_hashes_each_product_once(monkeypatch):
    hashes = {"scalar": 0, "map": 0}
    scalar_hash, map_hash = Scalar.__hash__, AffineMap.__hash__

    def counting(kind, original):
        def counted(self):
            hashes[kind] += 1
            return original(self)
        return counted

    monkeypatch.setattr(Scalar, "__hash__", counting("scalar", scalar_hash))
    monkeypatch.setattr(AffineMap, "__hash__", counting("map", map_hash))
    calls = _counting_row_products(monkeypatch)
    chart = OrbifoldChart(3, _B3, cap=48)
    assert len(chart.group) == 48  # all signed permutations of R^3
    # Scalars are hashed only as rows: the 3 unit rows, then each row
    # product once, 4 entries a row; products of elements hash ints alone
    assert hashes == {"scalar": (3 + len(calls)) * 4, "map": 0}


def test_closure_order_is_the_same_with_dense_products(monkeypatch):
    # the row product skips zero entries; the walk reaches the same
    # elements in the same order when every entry is a full row-by-column sum
    chart = OrbifoldChart(3, _B3, cap=48)
    monkeypatch.setattr(orbifolds, "_row_product", dense_row_product)
    dense = OrbifoldChart(3, _B3, cap=48)
    assert dense.group == chart.group
    assert dense._table == chart._table and dense._traces == chart._traces


def test_b3_walk_forms_each_row_times_each_generator_once(monkeypatch):
    # the 48 elements' rows are the 6 signed unit rows, so the walk forms
    # 6 rows * 2 generators row products where the map walk formed 96
    # products of 3 rows each
    calls = _counting_row_products(monkeypatch)
    chart = OrbifoldChart(3, _B3, cap=48)
    assert len(chart.group) == 48
    assert len(calls) == 12
    assert len(set(calls)) == 12
    assert {row for row, _ in calls} == {
        row + (Scalar.of(0),) for g in chart.group for row in g.linear
    }


def test_closure_walk_records_its_table_and_words():
    # B3 about a point off the origin, one coordinate in the parameter
    rng = random.Random(314)
    shift = AffineMap.translation_by([rand_fraction(rng, 3), 0, rand_scalar(rng)])
    moved = [shift.compose(g).compose(affine_inverse(shift)) for g in _B3]
    assert any(g.uses_parameter for g in moved)
    for dim, generators, order in ((2, [_QUARTER], 4), (3, _B3, 48), (3, moved, 48)):
        chart = OrbifoldChart(dim, generators, cap=64)
        group, words = chart.group, orbifolds._words(chart._table)
        assert len(group) == order
        for i, row in enumerate(chart._table):
            assert row == tuple(group.index(group[i].compose(g)) for g in generators)
        # breadth-first: the identity's word is empty and words never shrink
        assert words[0] == ()
        assert all(len(u) <= len(v) for u, v in zip(words, words[1:]))
        _assert_table_and_words(chart)


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
    _assert_table_and_words(chart)
    spec = TruncationSpec(grade, degree)
    from_generators = basic_form_basis(ActionSpec(dim, discrete=chart.generators), spec)
    from_group = basic_form_basis(ActionSpec(dim, discrete=chart.group), spec)
    assert from_generators == from_group
    basis = orbifold_invariant_forms(chart, spec)
    assert basis == from_group
    window = Window(dim, grade, degree)
    assert spans_equal(basis, reynolds_span(chart, window))


def _conjugator(rng: random.Random, dim: int) -> AffineMap:
    """A random rational affine map: a diagonal scaling with one shear entry
    and a translation, all of height at most 3."""
    rows = [
        [rand_nonzero_fraction(rng, 3) if i == j else 0 for j in range(dim)]
        for i in range(dim)
    ]
    i, j = rng.sample(range(dim), 2)
    rows[i][j] = rand_nonzero_fraction(rng, 2)
    return AffineMap.from_rows(rows, [rand_fraction(rng, 3) for _ in range(dim)])


def _random_finite_chart(rng: random.Random, dim: int) -> OrbifoldChart:
    """Two random signed permutations, conjugated by a random rational affine map.

    The conjugation gives non-integer linear parts and nonzero
    translations, keeps the group finite, and keeps the maps sparse enough
    for dimension 4 at degree 3.  Redraws until the pair generates at most
    64 elements; a finite group is never refused for a trace.
    """
    while True:
        gens = [
            _signed_permutation(
                rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)]
            )
            for _ in range(2)
        ]
        h = _conjugator(rng, dim)
        h_inverse = affine_inverse(h)
        try:
            return OrbifoldChart(dim, [h.compose(g).compose(h_inverse) for g in gens])
        except GroupNotFiniteError as exc:
            assert "within cap" in str(exc)


@pytest.mark.parametrize("seed, dim", [(1101, 2), (1102, 2), (1103, 3), (1104, 3), (1106, 4)])
def test_molien_count_of_conjugated_signed_permutations(seed, dim):
    chart = _random_finite_chart(random.Random(seed), dim)
    _assert_table_and_words(chart)
    parts = linear_parts(chart.group)
    for grade in range(dim + 1):
        for degree, count in enumerate(molien_counts(parts, grade, 3)):
            basis = orbifold_invariant_forms(chart, TruncationSpec(grade, degree))
            assert len(basis) == count
            if degree == 2:
                window = Window(dim, grade, degree)
                assert spans_equal(basis, reynolds_span(chart, window))


_A = Scalar.parameter()
_HALF = Fraction(1, 2)


def _diagonal(rng: random.Random, dim: int, kind: str) -> list[Scalar]:
    """Nonzero diagonal entries whose sum no element of finite order has as its trace."""
    while True:
        if kind == "non_integer_trace":
            entries = [Scalar.of(rand_nonzero_fraction(rng, 3)) for _ in range(dim)]
        elif kind == "trace_above_n":
            entries = [Scalar.of(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(dim)]
        else:  # trace_in_a
            entry = _A * rand_nonzero_fraction(rng, 3) + rand_fraction(rng, 3)
            if rng.random() < 0.5:
                entry = entry / (_A + rand_nonzero_fraction(rng, 3))
            entries = [entry] + [Scalar.of(rng.choice((1, -1))) for _ in range(dim - 1)]
        trace = sum(entries[1:], entries[0])
        if kind == "trace_in_a":
            wanted = trace.uses_parameter
        elif kind == "non_integer_trace":
            wanted = trace.as_fraction().denominator != 1
        else:
            wanted = abs(trace.as_fraction()) > dim
        if wanted:
            return entries


@pytest.mark.parametrize("kind", ["non_integer_trace", "trace_above_n", "trace_in_a"])
@pytest.mark.parametrize("seed", [2801, 2802, 2803])
def test_a_trace_no_finite_group_has_is_refused_at_once(monkeypatch, seed, kind):
    # a map with that trace, conjugated to hide it from its entries, beside
    # a finite-order map, in random order: the walk refuses it when it
    # first reaches it, within |S| products of elements, whatever the cap
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    rows = [[0] * dim for _ in range(dim)]
    for i, entry in enumerate(_diagonal(rng, dim, kind)):
        rows[i][i] = entry
    bad = AffineMap.from_rows(rows, [rand_fraction(rng, 3) for _ in range(dim)])
    finite = _signed_permutation(rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)])
    if dim > 1:
        h = _conjugator(rng, dim)
        bad, finite = (h.compose(g).compose(affine_inverse(h)) for g in (bad, finite))
    gens = rng.sample([bad, finite], 2)
    # each of the identity's n rows times each generator, at most
    _counting_row_products(monkeypatch, limit=dim * len(gens))
    with pytest.raises(GroupNotFiniteError, match="^group not finite: an element has trace"):
        OrbifoldChart(dim, gens, cap=4096)


@pytest.mark.parametrize("kind", ["translation", "unipotent_shear"])
@pytest.mark.parametrize("seed", [2811, 2812])
def test_a_unipotent_chart_stops_at_the_cap(seed, kind):
    # every element has trace n, so the walk runs until the cap
    rng = random.Random(seed)
    dim = rng.randint(2, 3)
    if kind == "translation":
        gens = [AffineMap.translation_by([_A, *(rand_scalar(rng) for _ in range(dim - 1))])]
    else:
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
        rows[0][dim - 1] = _A * rand_nonzero_fraction(rng, 3)
        h = _conjugator(rng, dim)
        gens = [h.compose(AffineMap.from_rows(rows, [0] * dim)).compose(affine_inverse(h))]
    gens.append(AffineMap.translation_by([rand_fraction(rng, 3) for _ in range(dim)]))
    with pytest.raises(GroupNotFiniteError, match="^group not finite within cap 40$"):
        OrbifoldChart(dim, gens, cap=40)


_PARAMETER_GENERATORS = [
    # the quarter turn about the point (a, 1/2)
    AffineMap.from_rows([[0, -1], [1, 0]], [_A + _HALF, _HALF - _A]),
    # the flip diag(-1, 1) conjugated by the shear [[1, a], [0, 1]]
    AffineMap.from_rows([[-1, 2 * _A], [0, 1]], [0, 0]),
]
_PARAMETER_IDS = ["translation_in_a", "linear_part_in_a"]


@pytest.mark.parametrize("generator", _PARAMETER_GENERATORS, ids=_PARAMETER_IDS)
def test_chart_over_the_parameter_field(generator):
    assert generator.uses_parameter
    chart = OrbifoldChart(2, [generator])
    _assert_table_and_words(chart)
    # Molien's count holds at every bound value: each element's
    # characteristic polynomial does not depend on a
    parts = linear_parts(chart.group, Fraction(3))
    for grade in range(3):
        for degree, count in enumerate(molien_counts(parts, grade, 3)):
            spec = TruncationSpec(grade, degree)
            basis = orbifold_invariant_forms(chart, spec)
            assert basis == basic_form_basis(ActionSpec(2, discrete=chart.group), spec)
            assert count.denominator == 1 and len(basis) == count


def _dense_conjugator(rng: random.Random, dim: int) -> AffineMap:
    """A random rational affine map with no zero entry in its linear part."""
    while True:
        rows = [[rand_nonzero_fraction(rng, 4) for _ in range(dim)] for _ in range(dim)]
        try:
            return AffineMap.from_rows(rows, [rand_fraction(rng, 4) for _ in range(dim)])
        except ValueError:
            continue


def _shear_in_a(rng: random.Random, dim: int) -> AffineMap:
    """The identity plus a multiple of a at one off-diagonal entry, and a translation in a."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    i, j = rng.sample(range(dim), 2)
    rows[i][j] = _A * rand_nonzero_fraction(rng, 3)
    return AffineMap.from_rows(rows, [_A * rand_fraction(rng, 3) + rand_fraction(rng, 3) for _ in range(dim)])


@pytest.mark.parametrize("conjugation", ["none", "dense", "shear_in_a"])
@pytest.mark.parametrize("seed, dim", [(3001, 2), (3002, 2), (3003, 3), (3004, 3), (3005, 3)])
def test_row_walk_matches_the_walk_by_maps(seed, dim, conjugation):
    # one or two signed permutations generate a subgroup of B2 or B3; the
    # conjugations make every row entry a fraction or a function of a
    rng = random.Random(seed)
    gens = [
        _signed_permutation(rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)])
        for _ in range(rng.randint(1, 2))
    ]
    if conjugation != "none":
        h = _dense_conjugator(rng, dim) if conjugation == "dense" else _shear_in_a(rng, dim)
        gens = [h.compose(g).compose(affine_inverse(h)) for g in gens]
    chart = OrbifoldChart(dim, gens)
    group, table, traces = compose_walk(gens)
    assert chart.group == tuple(group)
    assert chart._table == tuple(table)
    assert chart._traces == tuple(traces)
    parts = linear_parts(group, Fraction(3))
    for grade in range(dim + 1):
        for degree, count in enumerate(molien_counts(parts, grade, 2)):
            assert orbifolds._molien_dimension(chart, TruncationSpec(grade, degree)) == count


@pytest.mark.parametrize("seed, dim", [(None, 3), (1102, 2), (1104, 3), (1106, 4)])
def test_power_sums_are_traces_of_matrix_powers(seed, dim):
    if seed is None:
        chart = OrbifoldChart(3, _B3)
    else:
        chart = _random_finite_chart(random.Random(seed), dim)
    n = chart.dim
    sums = orbifolds._power_sums(chart)
    assert len(sums) == len(chart.group)
    for rows, row_sums in zip(linear_parts(chart.group), sums):
        assert list(row_sums) == matrix_power_traces(rows, n)
        # Newton's identities give det(I - tA), expanded by cofactors
        det = _tpoly_det(
            [[[Fraction(i == j), -rows[i][j]] for j in range(n)] for i in range(n)]
        )
        det += [Fraction(0)] * (n + 1 - len(det))
        assert list(orbifolds._newton_coefficients(row_sums)) == det


_SCALAR_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def test_molien_count_forms_no_map_product_and_few_scalar_operations(monkeypatch):
    charts = [OrbifoldChart(3, _B3), *(OrbifoldChart(2, [g]) for g in _PARAMETER_GENERATORS)]
    expected = [molien_counts(linear_parts(chart.group), 1, 2)[2] for chart in charts]

    def refuse(*args):
        raise AssertionError("Molien's count formed a product of maps or used a Scalar")

    monkeypatch.setattr(AffineMap, "compose", refuse)
    for name in _SCALAR_OPERATORS:
        monkeypatch.setattr(Scalar, name, refuse)
    # the count runs on Python ints; one Faddeev-LeVerrier recurrence per
    # element took 2569 Scalar operations on B3
    got = [orbifolds._molien_dimension(chart, TruncationSpec(1, 2)) for chart in charts]
    assert got == expected
    assert got[0] == 1


def test_b4_chart_count_matches_molien_by_cofactors():
    # (x1, x2, x3, x4) -> (x2, x3, x4, -x1) and the swap of x1 and x2
    # generate all 384 signed permutations of R^4
    gens = [_signed_permutation((1, 2, 3, 0), (1, 1, 1, -1)), _signed_permutation((1, 0, 2, 3), (1,) * 4)]
    chart = OrbifoldChart(4, gens, cap=384)
    assert len(chart.group) == 384
    expected = molien_counts(linear_parts(chart.group), 1, 3)[3]
    assert expected == 3
    assert len(orbifold_invariant_forms(chart, TruncationSpec(1, 3))) == expected


# Each planted fault runs on both routes.  The quarter turn and the mirror
# are signed permutations, so their charts take the orbit route.  Conjugated
# by the translation by (1, 0) the quarter turn gains a translation, so those
# charts take the kernel route; the mirror fixes (1, 0) and stays itself.
_SHIFT = AffineMap.translation_by([1, 0])
_ROUTES = ("orbit", "kernel")
_ROUTE_STEPS = {"orbit": "_orbit_sums", "kernel": "basic_form_basis"}


def _on_route(route: str, gens) -> OrbifoldChart:
    if route == "kernel":
        gens = [_SHIFT.compose(g).compose(affine_inverse(_SHIFT)) for g in gens]
        assert any(not t.is_zero for g in gens for t in g.translation)
    return OrbifoldChart(2, gens)


def _edit_basis(patch: pytest.MonkeyPatch, route: str, edit) -> None:
    """Patch the route's basis step to return ``edit`` of its basis, and the
    other route's step to fail, so the chart must take this route."""
    step = _ROUTE_STEPS[route]
    build = getattr(orbifolds, step)
    patch.setattr(orbifolds, step, lambda *args: edit(build(*args)))
    (other,) = set(_ROUTE_STEPS.values()) - {step}

    def refuse(*args):
        raise AssertionError(f"the chart took the route of {other}")

    patch.setattr(orbifolds, other, refuse)


@pytest.mark.parametrize(
    "edit, size",
    [(lambda basis: basis[:-1], 1), (lambda basis: basis + basis[:1], 3)],
    ids=["dropped", "repeated"],
)
def test_a_wrong_kernel_size_trips_completeness(monkeypatch, edit, size):
    # every form left is invariant, so only the count can tell
    for route in _ROUTES:
        with monkeypatch.context() as patch:
            _edit_basis(patch, route, edit)
            with pytest.raises(RuntimeError, match=f"^completeness: the basis has {size} forms but .* 2"):
                orbifold_invariant_forms(_on_route(route, [_QUARTER]), TruncationSpec(0, 2))


def test_a_non_invariant_kernel_form_trips_soundness(monkeypatch):
    x = Form.function(Polynomial.variable(2, 0))
    for route in _ROUTES:
        with monkeypatch.context() as patch:
            _edit_basis(patch, route, lambda basis: basis + [x])
            with pytest.raises(RuntimeError, match="^soundness: a generator moves a basis form"):
                orbifold_invariant_forms(_on_route(route, [_QUARTER]), TruncationSpec(0, 2))


_AREA = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
_X_DX = Form.monomial(2, (0,), Polynomial.variable(2, 0))


@pytest.mark.parametrize(
    "gens, grade, degree, planted",
    [((_QUARTER, _MIRROR), 2, 0, _AREA), ((_MIRROR, _QUARTER), 1, 1, _X_DX)],
    ids=["area_moved_by_the_mirror", "x_dx_moved_by_the_quarter_turn"],
)
def test_every_generator_is_checked(monkeypatch, gens, grade, degree, planted):
    # the first generator fixes the planted form and the second moves it,
    # so a check by the first generator alone would reach completeness
    for route in _ROUTES:
        chart = _on_route(route, gens)
        first, second = chart.generators
        assert act_pullback(first, planted) == planted
        assert act_pullback(second, planted) != planted
        with monkeypatch.context() as patch:
            _edit_basis(patch, route, lambda basis: basis + [planted])
            with pytest.raises(RuntimeError, match="^soundness:"):
                orbifold_invariant_forms(chart, TruncationSpec(grade, degree))


def test_an_assembly_fault_trips_soundness(monkeypatch):
    # The mirror's g^* - id block loses its row for the constant dx^dy, the
    # only row that sees dx^dy, so the kernel gains dx^dy.  The quarter turn
    # about (1, 0) fixes dx^dy and the mirror moves it: the pullbacks, which
    # share no window indexing with the assembly, catch it, but only the
    # second generator's.
    chart = _on_route("kernel", [_QUARTER, _MIRROR])
    assert chart.generators[1] == _MIRROR
    build = solver._affine_block
    block = build(_MIRROR, Window(2, 2, 2))
    rows = [block.row(i) for i in range(block.rows)]
    assert [e.is_zero for e in rows[0]] == [False] + [True] * (block.cols - 1)
    faulty = Matrix.from_rows(rows[1:])
    assert rank(faulty) == rank(block) - 1
    monkeypatch.setattr(
        solver,
        "_affine_block",
        lambda g, domain: faulty if g == _MIRROR else build(g, domain),
    )
    with pytest.raises(RuntimeError, match="^soundness:"):
        orbifold_invariant_forms(chart, TruncationSpec(2, 2))


def test_a_fault_in_the_orbit_moves_trips_soundness(monkeypatch):
    # The mirror's move of the constant dx^dy, column 0 of W(2, 2), loses
    # its sign, so the orbit {dx^dy} looks live and the basis gains dx^dy.
    # The quarter turn fixes dx^dy and the mirror moves it: the pullbacks,
    # which share nothing with the moves, catch it, but only the second
    # generator's.
    chart = OrbifoldChart(2, [_QUARTER, _MIRROR])
    mirror = orbifolds._signed_permutation(_MIRROR)
    assert mirror == ((0, 1), (1,))
    moves = orbifolds._column_moves
    window = Window(2, 2, 2)
    assert moves(*mirror, window)[0] == (0, 1)

    def faulty(perm, flipped, window):
        out = moves(perm, flipped, window)
        if (perm, flipped) == mirror:
            out[0] = (0, 0)
        return out

    monkeypatch.setattr(orbifolds, "_column_moves", faulty)
    with pytest.raises(RuntimeError, match="^soundness:"):
        orbifold_invariant_forms(chart, TruncationSpec(2, 2))


_SIGN_FLIP = AffineMap.from_rows([[-1]], [0])
_ORBIT_FAULT_CASES = [
    (OrbifoldChart(1, [_SIGN_FLIP]), 0, 3),
    (OrbifoldChart(2, [_QUARTER]), 1, 2),
    (OrbifoldChart(2, [_QUARTER, _MIRROR]), 2, 4),
    (OrbifoldChart(3, _B3), 1, 2),
]


@pytest.mark.parametrize("chart, grade, degree", _ORBIT_FAULT_CASES)
def test_a_kept_dead_orbit_trips_soundness(monkeypatch, chart, grade, degree):
    # an orbit on which some element acts by -1 gives no invariant; kept as
    # live, its signed sum is moved by the generator of the edge that disagrees
    orbits = orbifolds._orbits
    dead = []

    def all_live(moves, size):
        found = orbits(moves, size)
        dead.extend(orbit for orbit, live in found if not live)
        return [(orbit, True) for orbit, _ in found]

    monkeypatch.setattr(orbifolds, "_orbits", all_live)
    with pytest.raises(RuntimeError, match="^soundness: a generator moves a basis form"):
        orbifold_invariant_forms(chart, TruncationSpec(grade, degree))
    assert dead


@pytest.mark.parametrize("chart, grade, degree", _ORBIT_FAULT_CASES)
def test_a_dropped_live_orbit_trips_completeness(monkeypatch, chart, grade, degree):
    # every form left is invariant, so only the count can tell
    size = len(orbifold_invariant_forms(chart, TruncationSpec(grade, degree)))
    assert size > 0
    orbits = orbifolds._orbits

    def one_live_dropped(moves, size):
        found = orbits(moves, size)
        first_live = next(i for i, (_, live) in enumerate(found) if live)
        return found[:first_live] + found[first_live + 1 :]

    monkeypatch.setattr(orbifolds, "_orbits", one_live_dropped)
    with pytest.raises(
        RuntimeError,
        match=f"^completeness: the basis has {size - 1} forms but Molien's formula counts {size}",
    ):
        orbifold_invariant_forms(chart, TruncationSpec(grade, degree))


def _generating_pair(rng: random.Random, dim: int) -> OrbifoldChart:
    """The chart of a random pair of signed permutations that generates all of B_dim."""
    order = 2**dim * math.factorial(dim)
    while True:
        gens = [
            _signed_permutation(rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)])
            for _ in range(2)
        ]
        chart = OrbifoldChart(dim, gens, cap=order)
        if len(chart.group) == order:
            return chart


@pytest.mark.parametrize(
    "seed, dim, max_degree",
    [(3301, 2, 4), (3302, 2, 4), (3303, 3, 4), (3304, 3, 4), (3305, 4, 3), (None, 1, 4), (None, 2, 4)],
    ids=["B2_3301", "B2_3302", "B3_3303", "B3_3304", "B4_3305", "sign_flip", "C4"],
)
def test_orbit_sums_equal_the_kernel_basis(monkeypatch, seed, dim, max_degree):
    if seed is not None:
        chart = _generating_pair(random.Random(seed), dim)
    else:
        chart = OrbifoldChart(dim, [_SIGN_FLIP] if dim == 1 else [_QUARTER])
    kernel_route = orbifolds.basic_form_basis

    def refuse(*args):
        raise AssertionError("a signed-permutation chart took the kernel route")

    monkeypatch.setattr(orbifolds, "basic_form_basis", refuse)
    action = ActionSpec(dim, discrete=chart.generators)
    sizes = []
    for grade in range(dim + 1):
        for degree in range(max_degree + 1):
            spec = TruncationSpec(grade, degree)
            basis = orbifold_invariant_forms(chart, spec)
            assert basis == kernel_route(action, spec)
            sizes.append(len(basis))
    assert 0 in sizes and max(sizes) > 1


@pytest.mark.parametrize("seed, dim", [(3311, 2), (3312, 3), (3313, 4)])
def test_column_moves_are_the_pullbacks_of_monomial_forms(seed, dim):
    # the oracle pulls each monomial form back by the map, in Scalar
    # arithmetic, and reads its window coordinates
    rng = random.Random(seed)
    g = _signed_permutation(rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)])
    perm, flipped = orbifolds._signed_permutation(g)
    for grade in range(dim + 1):
        window = Window(dim, grade, 3)
        moves = orbifolds._column_moves(perm, flipped, window)
        for (target, parity), monomial in zip(moves, window_monomials(window)):
            sign = Scalar.of(-1 if parity else 1)
            assert window_coordinates(window, act_pullback(g, monomial)) == {target: sign}


def _job_chart(gens) -> dict:
    """An orbifold job on these generators, grade 1, degree 2, entries as fractions."""
    return {
        "command": "orbifold",
        "chart": {
            "dimension": gens[0].dim,
            "generators": [
                {
                    "matrix": [[f"({e.as_fraction()})" for e in row] for row in g.linear],
                    "translation": [f"({t.as_fraction()})" for t in g.translation],
                }
                for g in gens
            ],
            "closure_cap": 64,
        },
        "truncation": {"grade": 1, "max_degree": 2},
    }


def _b2_densely_conjugated() -> list[AffineMap]:
    rng = random.Random(3321)
    h = _dense_conjugator(rng, 2)
    return [h.compose(g).compose(affine_inverse(h)) for g in (_QUARTER, _MIRROR)]


@pytest.mark.parametrize(
    "job, eliminates",
    [
        ("orbifold_c4", False),
        (_job_chart(_B3), False),
        (_job_chart([AffineMap.from_rows([[-1]], [1])]), True),
        (_job_chart([AffineMap.from_rows([[0, -1], [1, -1]], [0, 0])]), True),
        (_job_chart(_b2_densely_conjugated()), True),
    ],
    ids=["builtin_c4", "b3", "reflection_about_one_half", "turn_by_a_third", "b2_densely_conjugated"],
)
def test_a_signed_permutation_chart_eliminates_nothing(monkeypatch, job, eliminates):
    """Counts the eliminations of a window system through ``run_job``, not time.

    The kernel route eliminates through ``linalg`` (``kernel_basis``) and
    ``solver`` (the span test of the fields).  The invertibility check of
    each parsed generator (``actions``) is not a window system, and is not
    counted.
    """
    if isinstance(job, str):
        path = resources.files("basicforms") / "jobs_data" / f"{job}.json"
        job = json.loads(path.read_text(encoding="utf-8"))
    calls = []
    for module in (linalg, solver):
        eliminate = module._gauss_jordan
        counted = lambda matrix, eliminate=eliminate: calls.append(matrix) or eliminate(matrix)
        monkeypatch.setattr(module, "_gauss_jordan", counted)
    report, code = run_job(job)
    assert code == 0, report
    assert report["results"]["dimension"] > 0
    assert (len(calls) >= 1) == eliminates


def test_a_molien_total_the_order_does_not_divide_is_an_error(monkeypatch):
    # at grade 1, degree 0 the total is the sum of the traces p_1: 5 for
    # the four elements of C4, which 4 does not divide
    chart = c4_square_chart()
    sums = [(2, 2), (1, 1), (1, 1), (1, 1)]
    monkeypatch.setattr(orbifolds, "_power_sums", lambda chart: sums)
    with pytest.raises(RuntimeError, match="non-integer count 5/4"):
        orbifold_invariant_forms(chart, TruncationSpec(1, 0))


def test_pullbacks_grow_with_the_basis_not_with_the_group_times_the_window(monkeypatch):
    calls = []

    def counted(mapping, form):
        calls.append(mapping)
        return act_pullback(mapping, form)

    chart = OrbifoldChart(3, _B3)
    monkeypatch.setattr(orbifolds, "act_pullback", counted)
    basis = orbifold_invariant_forms(chart, TruncationSpec(1, 4))
    assert len(basis) > 0
    assert len(calls) == len(chart.generators) * len(basis)


def test_quarter_turn_pulls_back_area_but_not_dx():
    r = AffineMap.from_rows([[0, -1], [1, 0]], [0, 0])
    area = Form.monomial(2, (0, 1), Polynomial.constant(2, 1))
    dx = Form.covector(2, 0)
    assert act_pullback(r, area) == area
    assert act_pullback(r, dx) != dx
