"""Invariant forms on finite-group charts.

A chart is a finite group of exact invertible affine maps acting on R^n,
given by generators S.  Its constructor walks the group G breadth-first
from the identity (|G|*|S| products, no inverses), so the group is closed
by construction, and keeps the walk's right-multiplication table and each
element's trace.  The walk multiplies rows, not maps: an element is the
tuple of the indices of its n homogeneous rows (A_g row i | b_g[i]) in the
orbit of the unit rows under the generators, and a lazy table forms each
distinct row times each generator once, so the walk does at most
n*|G|*|S| row products in Scalar arithmetic, and a product of elements is
n lookups.  An element of finite order has an integer trace of absolute
value at most n, so a group with an element whose trace is not such an
integer is infinite: the walk stops at that element, not at the cap.

With no connected directions the horizontal condition is vacuous, so the
forms that descend are exactly the invariant ones.  A form fixed by every
generator is fixed by every word in them, hence by the whole group, so the
generators alone define the invariants.  They are found by one of two
routes, chosen from the generators alone:

* the orbit route, when every generator has zero translation and each row
  of its linear part has one nonzero entry, equal to 1 or -1 (a signed
  permutation).  Such a g^* sends each monomial form x^e dx_I of the
  window to +-1 times another, so the window splits into orbits of
  monomial forms, and the invariants are spanned by orbit sums with
  disjoint supports (Goebel, J. Symbolic Computation 19, 1995).  An orbit
  is walked breadth-first over the generators, recording each monomial's
  sign relative to the orbit's first one; an orbit on which two edges
  disagree (some element acts on it by -1) gives no form.  Each other
  orbit gives its sum, +1 at its smallest column, and the forms are
  ordered by their largest columns: the canonical kernel basis, with no
  elimination;
* the kernel route otherwise: the kernel of the stacked invariance
  constraints under the generators (``solver.basic_form_basis``).

Two checks then prove the answer of either route:

* soundness: each generator's pullback fixes every basis form, at |S|
  pullbacks per form, which by the above is the whole group fixing it.
  The check runs ``act_pullback``, which shares each generator's power
  table and pulled-back covectors with the kernel route's assembly, which
  built them; it shares neither the window indexing, nor the -1 of
  g^* - id, nor the elimination, nor the orbit route's integer moves;
* completeness: the basis has as many forms as Molien's formula counts
  invariants in the window.  The count needs each element's
  characteristic polynomial, which it gets from the power sums
  tr A_g^m, m <= n, read off the walk's table and traces, with Newton's
  identities once per distinct tuple of them; it runs on Python ints,
  and forms no product of maps, no Scalar and no window linear algebra.

Either basis is linearly independent: the kernel basis comes from a
reduced row echelon form, and orbit sums have disjoint supports.  With
both checks passing it spans the invariants.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from .actions import ActionSpec, AffineMap, act_pullback
from .forms import Form
from .scalars import ONE, ZERO, Scalar
from .solver import TruncationSpec, Window, basic_form_basis


class GroupNotFiniteError(RuntimeError):
    """Raised when a chart's generators generate an infinite group, or one past the cap."""


Row = tuple[Scalar, ...]

_MINUS_ONE = -ONE


def _row_product(row: Row, generator: Sequence[Row]) -> Row:
    """The homogeneous row (a | t) times H(g) = [[A_g, b_g], [0, 1]].

    ``generator`` is g's homogeneous rows (A_g row k | b_g[k]), so the
    product is t on the last entry plus the sum of a[k] times row k.  Only
    products of two nonzero entries are formed.
    """
    out = [ZERO] * len(row)
    out[-1] = row[-1]
    for e, g_row in zip(row, generator):
        if e.is_zero:
            continue
        for j, f in enumerate(g_row):
            if not f.is_zero:
                out[j] = out[j] + e * f
    return tuple(out)


def _integer_trace(diagonal: Sequence[Scalar]) -> int:
    """tr A_g from its diagonal, as an int; GroupNotFiniteError unless it is
    one of absolute value at most n.

    The eigenvalues of an element of finite order are n roots of unity, so
    its trace is an algebraic integer of absolute value at most n.  It also
    lies in Q(a), and Q is algebraically closed in Q(a), so it is rational,
    hence an integer.  A rational Scalar keeps an integral coefficient as an
    int, so the test reads its numerator and builds no Fraction.
    """
    n = len(diagonal)
    trace = sum(diagonal[1:], diagonal[0])
    if trace.is_rational:
        value = trace._num[0] if trace._num else 0
        if type(value) is int and abs(value) <= n:
            return value
    raise GroupNotFiniteError(
        f"group not finite: an element has trace {trace}, "
        f"not an integer between {-n} and {n}"
    )


class OrbifoldChart:
    """Finite affine group action used as a local model.

    Built from its generators: ``group`` is their breadth-first closure,
    identity first, and so is closed by construction; ``generators`` keeps
    them in input order.  The walk takes elements in list order and
    multiplies each on the right by every generator in input order, so
    every product is formed and hashed exactly once; no inverses are
    needed, since in a finite group each inverse is a positive power.
    Elements appear by word length, ties broken by insertion order.  The
    right-multiplication table (``_table[i][s]`` is the index of
    ``group[i].compose(generators[s])``) and each element's trace are kept
    for Molien's count.  Raises ValueError for no generators or one of the
    wrong dimension, and :class:`GroupNotFiniteError` at the first element
    whose trace no element of finite order has, or when the group has
    more than ``cap`` elements.

    The walk multiplies rows, not maps.  Row i of ``g.compose(h)`` is row i
    of g's homogeneous matrix (A_g | b_g) times H(h) = [[A_h, b_h], [0, 1]],
    so an element is the tuple of the indices of its n rows in the orbit of
    the unit rows (e_i | 0) under the generators.  A lazy table holds each
    distinct row times each generator, formed once in Scalar arithmetic;
    a product of elements is then n lookups in it and one hash of small
    ints.  Rows are keyed by their exact entries and an element is
    determined by its rows, so two index tuples are equal exactly when the
    maps are.  The walk forms at most n*|G|*|S| row products, fewer when
    rows repeat: 6 rows times 2 generators for the 48 signed permutations
    of R^3.  ``group`` is assembled from the rows once, at the end.
    """

    __slots__ = ("_dim", "_group", "_generators", "_table", "_traces")

    def __init__(self, dim: int, generators: Sequence[AffineMap], cap: int = 64):
        if not generators:
            raise ValueError("need at least one generator")
        for g in generators:
            if g.dim != dim:
                raise ValueError("generator has the wrong dimension")
        self._dim = dim
        self._generators = tuple(generators)
        homogeneous = [
            tuple((*row, t) for row, t in zip(g.linear, g.translation)) for g in self._generators
        ]
        # the orbit of the unit rows, and the lazy row table: row_table[r][s]
        # is the index of rows[r] times generators[s], or None until formed
        rows = [tuple(ONE if j == i else ZERO for j in range(dim + 1)) for i in range(dim)]
        row_index = {row: i for i, row in enumerate(rows)}
        row_table: list[list[int | None]] = [[None] * len(homogeneous) for _ in rows]
        identity = tuple(range(dim))
        group, table, traces = [identity], [], [dim]
        index = {identity: 0}
        for element in group:  # the list grows as the walk reaches new elements
            products = []
            for s, g in enumerate(homogeneous):
                product = []
                for r in element:
                    j = row_table[r][s]
                    if j is None:
                        row = _row_product(rows[r], g)
                        j = row_index.setdefault(row, len(rows))  # new iff it got the next index
                        if j == len(rows):
                            rows.append(row)
                            row_table.append([None] * len(homogeneous))
                        row_table[r][s] = j
                    product.append(j)
                product = tuple(product)
                k = index.setdefault(product, len(group))
                if k == len(group):
                    if k >= cap:
                        raise GroupNotFiniteError(f"group not finite within cap {cap}")
                    traces.append(_integer_trace([rows[r][i] for i, r in enumerate(product)]))
                    group.append(product)
                products.append(k)
            table.append(tuple(products))
        linear = [row[:dim] for row in rows]
        shift = [row[dim] for row in rows]
        self._group = tuple(
            AffineMap._invertible(
                tuple([linear[r] for r in element]), tuple([shift[r] for r in element])
            )
            for element in group
        )
        self._table = tuple(table)
        self._traces = tuple(traces)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def group(self) -> tuple[AffineMap, ...]:
        return self._group

    @property
    def generators(self) -> tuple[AffineMap, ...]:
        """The given generators, in input order; their words give the group."""
        return self._generators

    def __repr__(self) -> str:
        return f"OrbifoldChart(dim={self._dim}, order={len(self._group)})"


def orbifold_invariant_forms(chart: OrbifoldChart, spec: TruncationSpec) -> list[Form]:
    """Canonical basis of group-invariant forms in the window.

    When every generator is a signed permutation with zero translation,
    the basis is the live orbit sums of the window's monomial forms, with
    no elimination (see the module docstring).  Otherwise it comes from the
    kernel of the invariance constraints under ``chart.generators``, one
    block per generator.  Either is the same subspace as under every group
    element, and the same canonical basis.  The answer is then proven: each
    generator's pullback must fix every basis form (soundness), and the
    basis must have as many forms as Molien's formula counts
    (completeness).  The pullbacks reuse the power table and pulled-back
    covectors that the kernel route's assembly built for each generator,
    but not its window indexing, its -1 of g^* - id or its elimination, nor
    the orbit route's moves; Molien's count shares nothing with either
    route.  A failure of either check means a bug, not a property of the
    input, hence RuntimeError, with its own message for each.
    """
    signed = [_signed_permutation(g) for g in chart.generators]
    if None in signed:
        basis = basic_form_basis(ActionSpec(chart.dim, discrete=chart.generators), spec)
    else:
        basis = _orbit_sums(signed, Window(chart.dim, spec.grade, spec.max_degree))
    for form in basis:
        if any(act_pullback(g, form) != form for g in chart.generators):
            raise RuntimeError("soundness: a generator moves a basis form")
    expected = _molien_dimension(chart, spec)
    if len(basis) != expected:
        raise RuntimeError(
            f"completeness: the basis has {len(basis)} forms but Molien's "
            f"formula counts {expected} invariants in the window"
        )
    return basis


_SignedPermutation = tuple[tuple[int, ...], tuple[int, ...]]


def _signed_permutation(g: AffineMap) -> _SignedPermutation | None:
    """(p, flipped) with g(x)_i = x_(p[i]), negated for i in ``flipped``.

    None unless g has zero translation and each row of its linear part has
    one nonzero entry, equal to 1 or -1.  g is invertible, so p is then a
    permutation.
    """
    if not all(t.is_zero for t in g.translation):
        return None
    perm, flipped = [], []
    for i, row in enumerate(g.linear):
        entries = [(j, e) for j, e in enumerate(row) if not e.is_zero]
        if len(entries) != 1:
            return None
        j, e = entries[0]
        if not e.is_one:
            if e != _MINUS_ONE:
                return None
            flipped.append(i)
        perm.append(j)
    return tuple(perm), tuple(flipped)


def _column_moves(
    perm: Sequence[int], flipped: Sequence[int], window: Window
) -> list[tuple[int, int]]:
    """g^* on the window's columns: (target, parity) for each column, in order.

    With g(x)_i = s_i x_(p[i]), g^*(x^e dx_I) = (-1)^parity x^e' dx_J at the
    target column (e', J).  x^e o g = prod_i s_i^(e_i) x_(p[i])^(e_i), so
    e'[p[i]] = e[i], and the exponent's parity is the sum of e_i over the
    flipped i.  g^*(dx_I) = prod_(i in I) s_i dx_(p[i_1]) ^ ... ^ dx_(p[i_k]),
    so J is the sorted image of I, and its parity is the number of flipped
    i in I plus the number of inversions of the image.  Each exponent's and
    each index tuple's part is worked out once, on ints; column (e, I) is
    at |index tuples| * (position of e) + (position of I).
    """
    source = [0] * window.dim  # e'[j] = e[source[j]]
    for i, j in enumerate(perm):
        source[j] = i
    width = len(window.index_tuples)
    offset = {e: u * width for u, e in enumerate(window.exponents)}
    position = {I: t for t, I in enumerate(window.index_tuples)}
    exponent_moves = [
        (offset[tuple([e[i] for i in source])], sum([e[i] for i in flipped]) & 1)
        for e in window.exponents
    ]
    tuple_moves = []
    for I in window.index_tuples:
        image = [perm[i] for i in I]
        inversions = sum(a > b for a, b in itertools.combinations(image, 2))
        flips = sum(i in flipped for i in I)
        tuple_moves.append((position[tuple(sorted(image))], (inversions + flips) & 1))
    return [(row + t, p ^ q) for row, p in exponent_moves for t, q in tuple_moves]


def _orbits(
    moves: Sequence[Sequence[tuple[int, int]]], size: int
) -> list[tuple[dict[int, int], bool]]:
    """The orbits of the columns under the generators' moves, and whether each is live.

    Each orbit is walked breadth-first from its smallest column, over every
    generator's move at every column reached, so every edge is seen, and
    maps each of its columns to its parity relative to that first column.
    It is live when every edge agrees with the parities recorded: then its
    signed sum is fixed by every generator.  A fixed form in the orbit's
    span must follow every edge from any one of its coefficients, so one
    edge that disagrees leaves only 0.
    """
    parity: list[int | None] = [None] * size
    orbits = []
    for start in range(size):
        if parity[start] is not None:
            continue
        parity[start] = 0
        members, live = [start], True
        for c in members:  # the list grows as the walk reaches new columns
            here = parity[c]
            for move in moves:
                target, flip = move[c]
                there = here ^ flip
                if parity[target] is None:
                    parity[target] = there
                    members.append(target)
                elif parity[target] != there:
                    live = False
        orbits.append(({c: parity[c] for c in members}, live))
    return orbits


def _orbit_sums(signed: Sequence[_SignedPermutation], window: Window) -> list[Form]:
    """The canonical basis of forms fixed by these signed permutations, one per live orbit.

    Each live orbit gives its signed sum of monomial forms, +1 at its
    smallest column, and the forms are ordered by their largest columns.
    That is the canonical kernel basis of the stacked g^* - id: the system
    splits into one block per orbit; a live orbit's block has corank 1 and
    a kernel vector with no zero entry, so its largest column is free and
    the rest are pivots; a dead orbit's block has full rank.
    """
    moves = [_column_moves(perm, flipped, window) for perm, flipped in signed]
    live = sorted((orbit for orbit, alive in _orbits(moves, window.size) if alive), key=max)
    return [
        window.combine({c: _MINUS_ONE if orbit[c] else ONE for c in sorted(orbit)})
        for orbit in live
    ]


def _words(table: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each element's word: the generator indices whose maps, composed in
    that order onto the identity, give it.

    A new element's word is its parent's word plus the generator that
    reached it.  New indices first appear in the table in increasing
    order, each in its parent's row, so one pass over the rows reads them.
    """
    words = [()]
    for i, row in enumerate(table):
        for s, j in enumerate(row):
            if j == len(words):
                words.append(words[i] + (s,))
    return words


def _power_sums(chart: OrbifoldChart) -> list[tuple[int, ...]]:
    """(tr A_g, tr A_g^2, ..., tr A_g^n) for every element g, in group order.

    The linear part is a homomorphism, so A_g^m is the linear part of g^m,
    and tr A_g^m is the trace the walk kept for that element.  g^m is
    reached from g^(m-1) by following g's word through the walk's table,
    integer lookups and no product of maps.
    """
    n, table, traces = chart.dim, chart._table, chart._traces
    sums = []
    for i, word in enumerate(_words(table)):
        power, row = i, [traces[i]]
        for _ in range(n - 1):
            for s in word:
                power = table[power][s]
            row.append(traces[power])
        sums.append(tuple(row))
    return sums


def _newton_coefficients(sums: Sequence[int]) -> tuple[int, ...]:
    """Coefficients q_0, ..., q_n of det(I - t*A), low degree first, from p_m = tr A^m.

    det(I - tA) = prod_i (1 - lambda_i t), so q_k = (-1)^k e_k(lambda) =
    (-1)^k tr Lambda^k(A), and Newton's identities read
    k q_k = -sum_{i=1..k} p_i q_{k-i}.  For A of finite order each q_k is
    +-e_k of roots of unity, an algebraic integer in Q(a), so an integer,
    and the division by k is exact.
    """
    coeffs = [1]
    for k in range(1, len(sums) + 1):
        total = sums[k - 1] + sum(sums[i - 1] * coeffs[k - i] for i in range(1, k))
        coeffs.append(-total // k)
    return tuple(coeffs)


def _molien_dimension(chart: OrbifoldChart, spec: TruncationSpec) -> int:
    """Dimension of the invariant forms in the window, by Molien's formula.

    The window W(k, d) holds the k-forms with coefficients of degree at
    most d, so its invariant count is the coefficient of t^d in

        (1/|G|) sum_g tr Lambda^k(A_g) / ((1 - t) det(I - t A_g)),

    summed over the linear parts A_g alone.  A finite affine group fixes
    the centroid c of the orbit of 0; translating c to the origin keeps
    every window and turns each g into A_g, so c is never needed.  Over a
    field of characteristic 0 the power sums (tr A_g^m, m <= n) fix the
    characteristic polynomial and it fixes them, so elements are counted
    by their tuple of power sums, read off the walk, and Newton's
    identities give det(I - t A_g) once per distinct tuple.  Every
    quantity is an integer (the walk kept only integer traces), so the
    count runs on Python ints; a total that |G| does not divide means a
    bug.
    """
    n, grade = chart.dim, spec.grade
    total = 0
    for sums, count in Counter(_power_sums(chart)).items():
        q = _newton_coefficients(sums)
        series = [1]  # 1/det(I - tA) through t^d
        for k in range(1, spec.max_degree + 1):
            series.append(-sum(q[i] * series[k - i] for i in range(1, min(k, n) + 1)))
        wedge_trace = -q[grade] if grade % 2 else q[grade]
        total += count * wedge_trace * sum(series)
    order = len(chart.group)
    if total % order:
        raise RuntimeError(f"Molien's formula gives a non-integer count {total}/{order}")
    return total // order
