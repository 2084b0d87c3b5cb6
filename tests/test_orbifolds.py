"""Finite-group charts: invariant-form bases, and pullbacks under a chart transition."""

import random
from fractions import Fraction

import pytest

from basicforms import orbifolds, solver
from basicforms.actions import ActionSpec, AffineMap, GroupNotFiniteError, act_pullback
from basicforms.examples import c4_square_chart
from basicforms.forms import Form
from basicforms.linalg import Matrix, rank
from basicforms.orbifolds import OrbifoldChart, orbifold_invariant_forms
from basicforms.polynomials import Polynomial
from basicforms.scalars import Scalar
from basicforms.solver import TruncationSpec, Window, basic_form_basis
from helpers import (
    _tpoly_det,
    affine_inverse,
    linear_parts,
    matrix_power_traces,
    molien_counts,
    naive_group,
    rand_fraction,
    rand_nonzero_fraction,
    reynolds_span,
    spans_equal,
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


def _assert_table_and_words(chart: OrbifoldChart) -> None:
    group, gens = chart.group, chart.generators
    assert len(chart.table) == len(chart.words) == len(group)
    for i, row in enumerate(chart.table):
        assert len(row) == len(gens)
        for s, j in enumerate(row):
            assert group[j] == group[i].compose(gens[s])
    for element, word in zip(group, chart.words):
        assert word_product(gens, word) == element


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
    assert spans_equal(window, basis, reynolds_span(chart, window))


def _random_finite_chart(rng: random.Random, dim: int) -> OrbifoldChart:
    """Two random signed permutations, conjugated by a random rational affine map.

    The conjugating map is a diagonal scaling with one shear entry and a
    translation, all of height at most 3.  It gives non-integer linear
    parts and nonzero translations, keeps the group finite, and keeps the
    maps sparse enough for dimension 4 at degree 3.  Redraws until the
    pair generates at most 64 elements.
    """
    while True:
        gens = [
            _signed_permutation(
                rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)]
            )
            for _ in range(2)
        ]
        rows = [
            [rand_nonzero_fraction(rng, 3) if i == j else 0 for j in range(dim)]
            for i in range(dim)
        ]
        i, j = rng.sample(range(dim), 2)
        rows[i][j] = rand_nonzero_fraction(rng, 2)
        h = AffineMap.from_rows(rows, [rand_fraction(rng, 3) for _ in range(dim)])
        h_inverse = affine_inverse(h)
        try:
            return OrbifoldChart(dim, [h.compose(g).compose(h_inverse) for g in gens])
        except GroupNotFiniteError:
            continue


@pytest.mark.parametrize("seed, dim", [(1101, 2), (1102, 2), (1103, 3), (1104, 3), (1106, 4)])
def test_molien_count_of_conjugated_signed_permutations(seed, dim):
    chart = _random_finite_chart(random.Random(seed), dim)
    _assert_table_and_words(chart)
    parts = linear_parts(chart)
    for grade in range(dim + 1):
        for degree, count in enumerate(molien_counts(parts, grade, 3)):
            basis = orbifold_invariant_forms(chart, TruncationSpec(grade, degree))
            assert len(basis) == count
            if degree == 2:
                window = Window(dim, grade, degree)
                assert spans_equal(window, basis, reynolds_span(chart, window))


_A = Scalar.parameter()
_HALF = Fraction(1, 2)


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
    parts = linear_parts(chart, Fraction(3))
    for grade in range(3):
        for degree, count in enumerate(molien_counts(parts, grade, 3)):
            spec = TruncationSpec(grade, degree)
            basis = orbifold_invariant_forms(chart, spec)
            assert basis == basic_form_basis(ActionSpec(2, discrete=chart.group), spec)
            assert count.denominator == 1 and len(basis) == count


@pytest.mark.parametrize("seed, dim", [(None, 3), (1102, 2), (1104, 3), (1106, 4)])
def test_power_sums_are_traces_of_matrix_powers(seed, dim):
    if seed is None:
        chart = OrbifoldChart(3, _B3)
    else:
        chart = _random_finite_chart(random.Random(seed), dim)
    n = chart.dim
    sums = orbifolds._power_sums(chart)
    assert len(sums) == len(chart.group)
    for rows, row_sums in zip(linear_parts(chart), sums):
        assert list(row_sums) == matrix_power_traces(rows, n)
        # Newton's identities give det(I - tA), expanded by cofactors
        det = _tpoly_det(
            [[[Fraction(i == j), -rows[i][j]] for j in range(n)] for i in range(n)]
        )
        det += [Fraction(0)] * (n + 1 - len(det))
        assert list(orbifolds._newton_coefficients(row_sums)) == det


_SCALAR_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def test_molien_count_forms_no_map_product_and_few_scalar_operations(monkeypatch):
    chart = OrbifoldChart(3, _B3)

    def refuse(self, other):
        raise AssertionError("Molien's count formed a product of maps")

    monkeypatch.setattr(AffineMap, "compose", refuse)
    operations = 0
    for name in _SCALAR_OPERATORS:
        def counted(*args, _operator=getattr(Scalar, name)):
            nonlocal operations
            operations += 1
            return _operator(*args)

        monkeypatch.setattr(Scalar, name, counted)
    assert orbifolds._molien_dimension(chart, TruncationSpec(1, 2)) == 1
    # one Faddeev-LeVerrier recurrence per element took 2569 operations here
    assert operations <= 600


def test_b4_chart_count_matches_molien_by_cofactors():
    # (x1, x2, x3, x4) -> (x2, x3, x4, -x1) and the swap of x1 and x2
    # generate all 384 signed permutations of R^4
    gens = [_signed_permutation((1, 2, 3, 0), (1, 1, 1, -1)), _signed_permutation((1, 0, 2, 3), (1,) * 4)]
    chart = OrbifoldChart(4, gens, cap=384)
    assert len(chart.group) == 384
    expected = molien_counts(linear_parts(chart), 1, 3)[3]
    assert expected == 3
    assert len(orbifold_invariant_forms(chart, TruncationSpec(1, 3))) == expected


@pytest.mark.parametrize(
    "edit, size",
    [(lambda basis: basis[:-1], 1), (lambda basis: basis + basis[:1], 3)],
    ids=["dropped", "repeated"],
)
def test_a_wrong_kernel_size_trips_completeness(monkeypatch, edit, size):
    # every form left is invariant, so only the count can tell
    kernel = orbifolds.basic_form_basis
    monkeypatch.setattr(orbifolds, "basic_form_basis", lambda a, s: edit(kernel(a, s)))
    with pytest.raises(RuntimeError, match=f"^completeness: the kernel has {size} forms but .* 2"):
        orbifold_invariant_forms(c4_square_chart(), TruncationSpec(0, 2))


def test_a_non_invariant_kernel_form_trips_soundness(monkeypatch):
    kernel = orbifolds.basic_form_basis
    x = Form.function(Polynomial.variable(2, 0))
    monkeypatch.setattr(orbifolds, "basic_form_basis", lambda a, s: kernel(a, s) + [x])
    with pytest.raises(RuntimeError, match="^soundness: a generator moves a kernel basis form"):
        orbifold_invariant_forms(c4_square_chart(), TruncationSpec(0, 2))


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
    first, second = gens
    assert act_pullback(first, planted) == planted
    assert act_pullback(second, planted) != planted
    kernel = orbifolds.basic_form_basis
    monkeypatch.setattr(orbifolds, "basic_form_basis", lambda a, s: kernel(a, s) + [planted])
    with pytest.raises(RuntimeError, match="^soundness:"):
        orbifold_invariant_forms(OrbifoldChart(2, gens), TruncationSpec(grade, degree))


def test_an_assembly_fault_trips_soundness(monkeypatch):
    # The mirror's g^* - id block loses its row for the constant dx^dy, the
    # only row that sees dx^dy, so the kernel gains dx^dy.  The quarter turn
    # fixes dx^dy and the mirror moves it: the pullbacks, which share no
    # window indexing with the assembly, catch it, but only the second
    # generator's.
    chart = OrbifoldChart(2, [_QUARTER, _MIRROR])
    build = solver._affine_block
    block = build(_MIRROR, Window(2, 2, 2))
    rows = [block.row(i) for i in range(block.rows)]
    assert [e.is_zero for e in rows[0]] == [False] + [True] * (block.cols - 1)
    faulty = Matrix.from_rows(rows[1:])
    assert rank(faulty) == rank(block) - 1
    monkeypatch.setattr(
        solver,
        "_affine_block",
        lambda g, domain: faulty if g is _MIRROR else build(g, domain),
    )
    with pytest.raises(RuntimeError, match="^soundness:"):
        orbifold_invariant_forms(chart, TruncationSpec(2, 2))


def test_a_molien_total_in_the_parameter_is_an_error(monkeypatch):
    # power sums (p_1, p_2) = (-a, a^2) give det(I - tA) = 1 + a t for
    # every element, and so the total -a at grade 1
    chart = c4_square_chart()
    sums = [(-_A, _A * _A)] * len(chart.group)
    assert orbifolds._newton_coefficients(sums[0]) == (Scalar.of(1), _A, Scalar.of(0))
    monkeypatch.setattr(orbifolds, "_power_sums", lambda chart: sums)
    with pytest.raises(RuntimeError, match="non-integer count"):
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
