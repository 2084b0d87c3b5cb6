"""Exact linear algebra over the scalar field.

A :class:`Matrix` is the input to elimination.  It stores each row
sparsely, as ``{column: nonzero Scalar}``; the constraint matrices the
solver builds are mostly zeros.  One sparse Gauss-Jordan elimination
serves every routine here: each row is reduced against the rows already
accepted, and a row that stays nonzero is accepted with its first nonzero
column as pivot, scaled to a unit pivot and used to clear that column
from the earlier rows.  Ranks, the ranks of column prefixes and kernels
are all read off its result, so every routine is deterministic.

The reduced row echelon form of a row space is unique, so the order the
rows are taken in changes only the work, never the result.  They are
taken sparsest first (a stable sort by nonzero count, after Markowitz):
a sparse pivot row puts few entries into the rows it clears, and over
Q(a) each entry it spares is a rational function that does not swell.
The elimination also keeps an index of the accepted rows by column
(Duff, Erisman and Reid): for each column that is not a pivot, the
pivots of the reduced rows that hold it.  A new pivot then clears its
column from those rows only, not from every accepted row, and the one
row update keeps the index exact as entries appear and cancel.

Kernel bases are canonical: they come from the reduced row echelon form,
one basis vector per free column, in column order.  A kernel vector is a
sparse row like the matrix rows: the vector of free column f is 1 at f,
has no key past f and stores no zero, and it is scaled so its entry at
its smallest key has positive leading coefficient.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar, ScalarLike

Vector = tuple[Scalar, ...]
SparseRow = dict[int, Scalar]


def _sparse(entries: Sequence[ScalarLike]) -> SparseRow:
    row: SparseRow = {}
    for j, e in enumerate(entries):
        s = Scalar.of(e)
        if not s.is_zero:
            row[j] = s
    return row


class Matrix:
    """Immutable sparse matrix of Scalars; rows map column to nonzero entry."""

    __slots__ = ("_rows", "_cols", "_data")

    def __init__(self, cols: int, data: list[SparseRow]):
        """Wrap rows that hold only nonzero Scalars at columns below ``cols``."""
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self._rows = len(data)
        self._cols = cols
        self._data = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return Matrix(ncols, [_sparse(r) for r in rows])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(cols, [{} for _ in range(rows)])

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def row(self, i: int) -> Vector:
        data = self._data[i]
        return tuple(data.get(j, ZERO) for j in range(self._cols))

    def row_lists(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self._rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._cols == other._cols and self._data == other._data

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self._rows)
        )
        return f"Matrix({self._rows}x{self._cols}: {body})"


def stack(blocks: Sequence[Matrix]) -> Matrix:
    """Stack blocks vertically; requires at least one block for the width."""
    if not blocks:
        raise ValueError("no blocks to stack")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column count mismatch in vertical stack")
    return Matrix(cols, [row for b in blocks for row in b._data])


def _subtract(
    target: SparseRow,
    f: Scalar,
    source: SparseRow,
    pivot: int,
    holders: dict[int, set[int]] | None = None,
    key: int = -1,
) -> None:
    """target -= f * source, outside the pivot column the caller already cleared.

    With ``holders``, target is the reduced row of pivot ``key``, and each
    column it gains or loses is recorded there.
    """
    for j, v in source.items():
        if j == pivot:
            continue
        old = target.get(j)
        if old is None:
            target[j] = -(f * v)
            if holders is not None:
                holders[j].add(key)
            continue
        new = old - f * v
        if new.is_zero:
            del target[j]
            if holders is not None:
                holders[j].discard(key)
        else:
            target[j] = new


def _gauss_jordan(matrix: Matrix) -> dict[int, SparseRow]:
    """Sparse Gauss-Jordan elimination, sparsest rows first.

    Returns the RREF rows keyed by pivot column: each has a unit pivot and
    is zero in every other pivot column.
    """
    reduced: dict[int, SparseRow] = {}
    # holders[c]: the pivots of the reduced rows that hold column c, c not a pivot
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for source in sorted(matrix._data, key=len):
        row = dict(source)
        # An accepted row is zero in every other pivot column, so clearing
        # one pivot column never refills another.
        for c in [c for c in row if c in reduced]:
            _subtract(row, row.pop(c), reduced[c], c)
        if not row:
            continue
        pivot = min(row)
        p = row[pivot]
        if not p.is_one:
            row = {j: v / p for j, v in row.items()}
        for q in holders.pop(pivot, ()):
            other = reduced[q]
            _subtract(other, other.pop(pivot), row, pivot, holders, q)
        for j in row:
            if j != pivot:
                holders[j].add(pivot)
        reduced[pivot] = row
    return reduced


def rank(matrix: Matrix) -> int:
    return len(_gauss_jordan(matrix))


def kernel_basis(matrix: Matrix) -> list[SparseRow]:
    """Canonical basis of the right null space, built in one pass over the reduced rows.

    One vector per free column, in increasing column order; dimension is
    always ``cols - rank``.  A reduced row with pivot c and an entry v at
    free column j puts -v at c in the vector of j.  Each vector is
    sign-normalized so its entry at its smallest key is positive (leading
    numerator coefficient).
    """
    reduced = _gauss_jordan(matrix)
    vectors: dict[int, SparseRow] = {f: {} for f in range(matrix.cols) if f not in reduced}
    for c, row in reduced.items():
        for j, v in row.items():
            if j != c:
                vectors[j][c] = -v
    for free, vec in vectors.items():
        vec[free] = ONE
        if vec[min(vec)].sign() < 0:
            vectors[free] = {j: -v for j, v in vec.items()}
    return list(vectors.values())


def prefix_ranks(matrix: Matrix, widths: Iterable[int]) -> list[int]:
    """Rank of each column prefix ``matrix[:, :w]``, all from one elimination.

    Row operations commute with taking a column prefix, and a prefix of a
    reduced row echelon form is reduced, so the rank of a prefix is the
    number of pivot columns below its width.  The columns past ``w`` lie in
    the span of the first ``w`` exactly when the rank at ``w`` equals the
    rank of the whole.
    """
    pivots = sorted(_gauss_jordan(matrix))
    return [bisect_left(pivots, w) for w in widths]
