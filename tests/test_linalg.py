"""Exact linear algebra: rank, RREF, kernels and the ranks of column prefixes.

Oracle: a deliberately naive dense Gauss-Jordan elimination recomputes
rank, RREF and the canonical kernel for random rational matrices; kernel
vectors are also verified by multiplying them back through the original
matrix.  The same oracle, run on Scalars, gives the RREF over Q(a) of
small matrices, whose rows the elimination gets shuffled and repeated.
Parameter-dependent cases are also checked by binding at several rational
values of a and comparing against the oracle on the bound matrix.
"""

import random
from fractions import Fraction

import pytest

from basicforms.linalg import (
    Matrix,
    _gauss_jordan,
    kernel_basis,
    prefix_ranks,
    rank,
    stack,
)
from basicforms.actions import ActionSpec
from basicforms.forms import VectorField
from basicforms.polynomials import Polynomial
from basicforms.scalars import Scalar
from basicforms.solver import Window, horizontality_constraints, invariance_constraints
from helpers import rand_fraction, rand_scalar


def naive_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Textbook Gauss-Jordan over Fraction, or over Scalar; quadratic fill-in and all."""
    m = [row[:] for row in rows]
    r = 0
    pivots = []
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def naive_rank(rows: list[list[Fraction]]) -> int:
    return len(naive_rref(rows)[1])


def naive_kernel(rows: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """One vector per free column of the naive RREF, first nonzero entry positive."""
    reduced, pivots = naive_rref(rows)
    cols = len(rows[0])
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        if next(v for v in vec if v != 0) < 0:
            vec = [-v for v in vec]
        basis.append(tuple(vec))
    return basis


def _rand_fraction_matrix(rng, max_side=6):
    nrows = rng.randint(1, max_side)
    ncols = rng.randint(1, max_side)
    rows = [[rand_fraction(rng, 5) for _ in range(ncols)] for _ in range(nrows)]
    return rows


def _as_matrix(rows):
    return Matrix.from_rows([[Scalar.of(v) for v in row] for row in rows])


def _from_columns(columns):
    return Matrix.from_rows([list(row) for row in zip(*columns)])


def _identity(n):
    return Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def _contains(container, candidates):
    """Whether every column of ``candidates`` lies in the span of the columns of ``container``."""
    joined = _from_columns(container + candidates)
    first, whole = prefix_ranks(joined, [len(container), len(container) + len(candidates)])
    return first == whole


def _apply_exact(rows, vec):
    return [sum((row[j] * v.as_fraction() for j, v in vec.items()), Fraction(0)) for row in rows]


def _sparse_vector(vec):
    return {j: Scalar.of(v) for j, v in enumerate(vec) if v != 0}


def _from_sparse_columns(columns, height):
    rows = [{} for _ in range(height)]
    for j, column in enumerate(columns):
        for i, v in column.items():
            rows[i][j] = v
    return Matrix(len(columns), rows)


def test_rank_against_naive_oracle():
    rng = random.Random(101)
    for _ in range(200):
        rows = _rand_fraction_matrix(rng)
        assert rank(_as_matrix(rows)) == naive_rank(rows)


def test_kernel_soundness_and_dimension():
    rng = random.Random(102)
    for _ in range(200):
        rows = _rand_fraction_matrix(rng)
        mat = _as_matrix(rows)
        basis = kernel_basis(mat)
        # the canonical kernel, not just some kernel, matches the naive oracle
        assert basis == [_sparse_vector(vec) for vec in naive_kernel(rows)]
        # rank-nullity against the naive oracle
        assert len(basis) == len(rows[0]) - naive_rank(rows)
        for vec in basis:
            assert all(v == 0 for v in _apply_exact(rows, vec))
        # exact linear independence of the returned vectors
        if basis:
            assert rank(_from_sparse_columns(basis, len(rows[0]))) == len(basis)


def test_kernel_sign_normalization():
    rng = random.Random(103)
    seen_nonzero = 0
    for _ in range(100):
        rows = _rand_fraction_matrix(rng)
        for vec in kernel_basis(_as_matrix(rows)):
            assert vec[min(vec)].sign() == 1
            seen_nonzero += 1
    assert seen_nonzero > 50  # the loop actually exercised kernels


def test_kernel_dim_zero_for_identity():
    assert kernel_basis(_identity(4)) == []
    assert rank(_identity(4)) == 4
    assert rank(Matrix.zero(3, 5)) == 0
    assert len(kernel_basis(Matrix.zero(3, 5))) == 5


def test_parameter_kernel_golden():
    # the flow-direction annihilator: kernel of [1  a] is spanned by (a, -1)
    a = Scalar.parameter()
    mat = Matrix.from_rows([[Scalar.of(1), a]])
    (vec,) = kernel_basis(mat)
    assert vec == {0: a, 1: Scalar.of(-1)}


def test_kernel_vectors_have_canonical_shape():
    rng = random.Random(106)
    seen = 0
    for with_param in (False, True):
        for _ in range(100):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
            mat = Matrix.from_rows(
                [
                    [rand_scalar(rng, with_param=with_param, span=3) if rng.random() < 0.5 else 0
                     for _ in range(ncols)]
                    for _ in range(nrows)
                ]
            )
            ranks = prefix_ranks(mat, range(ncols + 1))
            pivots = {c for c in range(ncols) if ranks[c + 1] > ranks[c]}
            free = [c for c in range(ncols) if c not in pivots]
            basis = kernel_basis(mat)
            assert len(basis) == ncols - rank(mat) == len(free)
            for f, vec in zip(free, basis):
                assert not any(v.is_zero for v in vec.values())
                assert vec[f] in (Scalar.of(1), Scalar.of(-1))
                assert all(j in pivots and j < f for j in vec if j != f)
                assert vec[min(vec)].sign() > 0
                seen += len(vec) > 1
    assert seen > 100  # the loop saw vectors with pivot entries


def test_row_order_changes_no_result():
    """Shuffled rows give one RREF, one canonical kernel and one list of prefix ranks.

    The solver keeps constraint rows in the order its assembly first
    touches them, so its bases rest on this.  At most 4x7 at 50% fill:
    elimination over Q(a) swells on larger dense matrices.
    """
    rng = random.Random(111)
    reordered = 0
    for with_param in (False, True):
        for _ in range(60):
            nrows, ncols = rng.randint(2, 4), rng.randint(1, 7)
            rows = [
                [rand_scalar(rng, with_param=with_param, span=3) if rng.random() < 0.5 else 0
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            shuffled = rng.sample(rows, len(rows))
            reordered += shuffled != rows
            mat, other = Matrix.from_rows(rows), Matrix.from_rows(shuffled)
            widths = range(ncols + 1)
            assert _gauss_jordan(other) == _gauss_jordan(mat)
            assert kernel_basis(other) == kernel_basis(mat)
            assert prefix_ranks(other, widths) == prefix_ranks(mat, widths)
    assert reordered > 60  # most draws really changed the row order


def _naive_reduced(rows) -> dict:
    """The naive oracle's RREF in the shape of ``_gauss_jordan``: sparse rows keyed by pivot."""
    reduced, pivots = naive_rref(rows)
    return {c: _sparse_vector(row) for c, row in zip(pivots, reduced)}


@pytest.mark.parametrize("with_param", [False, True])
def test_rref_of_shuffled_and_repeated_rows_matches_the_naive_oracle(with_param):
    """The elimination takes its rows sparsest first; the RREF is the oracle's whatever they are.

    Each matrix gets copies of its rows, nonzero multiples of them and
    sums of two of them, then a shuffle, so rows of one nonzero count come
    in several orders and many rows reduce to zero.  Over Q(a) at most
    4x7 at 50% fill: elimination over Q(a) swells on larger dense matrices.
    """
    rng = random.Random(112 + with_param)
    side, fill = (4, 0.5) if with_param else (8, 0.4)
    entry = lambda: rand_scalar(rng, with_param=with_param, span=3) if rng.random() < fill else 0
    reordered = 0
    for _ in range(60 if with_param else 120):
        ncols = rng.randint(1, side + 3)
        rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, side))]
        more = [list(rng.choice(rows)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2)):
            c = rand_scalar(rng, with_param=with_param, span=3)
            more.append([Scalar.of(v) * c for v in rng.choice(rows)])
            first, second = rng.choice(rows), rng.choice(rows)
            more.append([Scalar.of(u) + v for u, v in zip(first, second)])
        shuffled = rng.sample(rows + more, len(rows) + len(more))
        reordered += [len(_sparse_vector(r)) for r in shuffled] != sorted(
            len(_sparse_vector(r)) for r in shuffled
        )
        assert _gauss_jordan(Matrix.from_rows(shuffled)) == _naive_reduced(rows)
    assert reordered > 30  # many draws were not already sparsest first


def _assert_reduced(reduced: dict, cols: int) -> None:
    """Unit pivots, no entry left of its pivot, and zero at every other pivot column."""
    for c, row in reduced.items():
        assert row[c] == Scalar.of(1)
        assert min(row) == c and max(row) < cols
        assert not any(v.is_zero for v in row.values())
        assert not any(j in reduced for j in row if j != c)


def test_every_reduced_row_is_zero_at_every_other_pivot_column():
    """Back-substitution reaches every accepted row that holds a new pivot's column.

    Sparse random matrices over Q at 10-30% fill, where later pivots land
    in columns that several earlier rows hold, and the constraint systems
    of two rotations on R^4 (over Q against the naive oracle too).
    """
    rng = random.Random(113)
    for _ in range(60):
        nrows, ncols = rng.randint(5, 30), rng.randint(5, 25)
        fill = rng.choice([0.1, 0.2, 0.3])
        rows = [
            [rand_fraction(rng, 4) if rng.random() < fill else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        reduced = _gauss_jordan(_as_matrix(rows))
        _assert_reduced(reduced, ncols)
        assert reduced == _naive_reduced(rows)
    x, y, z, w = (Polynomial.variable(4, i) for i in range(4))
    a = Scalar.parameter()
    quarter = Fraction(3, 4)
    for field, degree in (([-y, x, -w, z], 2), ([-y, x, -w.scale(a), z.scale(a)], 3)):
        action = ActionSpec(4, infinitesimal=[VectorField([p.scale(quarter) for p in field])])
        domain = Window(4, 2, degree)
        system = stack(
            [invariance_constraints(action, domain), horizontality_constraints(action, domain)]
        )
        reduced = _gauss_jordan(system)
        _assert_reduced(reduced, domain.size)
        if degree == 2:
            assert reduced == _naive_reduced(system.row_lists())


def test_kernel_of_a_wide_zero_matrix_is_the_unit_vectors():
    one = Scalar.of(1)
    assert kernel_basis(Matrix.zero(1, 3000)) == [{f: one} for f in range(3000)]


def test_parameter_matrices_specialize():
    rng = random.Random(105)
    values = [Fraction(1, 2), Fraction(2, 3), Fraction(5)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            [rand_scalar(rng, with_param=True, span=3) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        mat = Matrix.from_rows(rows)
        generic = rank(mat)
        for a0 in values:
            try:
                bound = [[e.bind(a0) for e in row] for row in rows]
            except ZeroDivisionError:
                continue
            frows = [[e.as_fraction() for e in row] for row in bound]
            # specialization can only lose rank, never gain it
            assert naive_rank(frows) <= generic


def _rand_prefix_case(rng, entry, side):
    """Columns of ``entry(rng)`` values, with zero columns and combinations of earlier ones put in."""
    nrows = rng.randint(1, side)
    columns = [[entry(rng) for _ in range(nrows)] for _ in range(rng.randint(1, side))]
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(columns))
        weights = [entry(rng) for _ in range(at)] if rng.random() < 0.7 else [0] * at
        columns.insert(at, [sum(w * c[i] for w, c in zip(weights, columns)) for i in range(nrows)])
    return [list(row) for row in zip(*columns)]


def test_prefix_ranks_against_naive_rank_of_every_prefix():
    rng = random.Random(109)
    for _ in range(200):
        rows = _rand_prefix_case(rng, lambda rng: rand_fraction(rng, 4), side=5)
        widths = range(len(rows[0]) + 1)
        expect = [naive_rank([row[:w] for row in rows]) for w in widths]
        assert prefix_ranks(_as_matrix(rows), widths) == expect
    # the span of e1 holds e1 again but not e2
    assert prefix_ranks(Matrix.from_rows([[1, 1, 0], [0, 0, 1]]), [0, 1, 2, 3]) == [0, 1, 1, 2]


def test_prefix_ranks_over_the_parameter_field():
    rng = random.Random(110)
    for _ in range(30):
        rows = _rand_prefix_case(rng, lambda rng: rand_scalar(rng, span=3), side=4)
        widths = list(range(len(rows[0]) + 1))
        rng.shuffle(widths)
        expect = [naive_rank([row[:w] for row in rows]) for w in widths]
        assert prefix_ranks(Matrix.from_rows(rows), widths) == expect


def test_column_span_relations():
    rng = random.Random(109)
    for _ in range(60):
        nrows = rng.randint(2, 5)
        cols = [[rand_fraction(rng, 4) for _ in range(nrows)] for _ in range(rng.randint(1, 3))]
        # random rational combinations stay inside the span
        weights = [rand_fraction(rng, 3) for _ in cols]
        combo = [
            sum((w * c[i] for w, c in zip(weights, cols)), Fraction(0))
            for i in range(nrows)
        ]
        assert _contains(cols, [combo])
        assert _contains(cols + [combo], cols)


def test_column_span_strict_containment_detected():
    e1 = [[1, 0]]
    full = [[1, 0], [0, 1]]
    assert _contains(full, e1)
    assert not _contains(e1, full)
    assert prefix_ranks(_from_columns(e1 + full), [1, 3]) == [1, 2]


def test_stack_shapes():
    a = Matrix.zero(2, 3)
    b = Matrix.zero(1, 3)
    assert stack([a, b]).rows == 3 and stack([a, b]).cols == 3
    with pytest.raises(ValueError):
        stack([a, Matrix.zero(1, 2)])

