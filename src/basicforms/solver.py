"""Bases of invariant horizontal forms in truncated polynomial windows.

Everything here is exact linear algebra over the scalar field.  A
truncation window W(k, d) is the span of monomial k-forms x^e dx_I with
|e| <= d; invariance under each affine generator (substitution preserves
degree) and vanishing Lie derivative along each vector field generator are
linear conditions on the window, as is horizontality (vanishing interior
product).  "Basic" forms are the invariant horizontal ones: the kernel of
the stacked constraint matrix.

Each row of a constraint matrix stands for one target monomial
x^e dx_I and holds that monomial's coefficient in the image of every
column, so no condition is dropped and no degree bound sizes the rows.
The rows are kept in the order the assembly first touches them, and
empty rows are left out; the elimination takes them sparsest first, and
the reduced row echelon form does not depend on row order.

* invariance under a translation g(x) = x + t: rows of L_t, the Lie
  derivative along the constant field t.  g^* = exp(L_t) and L_t is
  nilpotent on the window, so g^* - id = L_t (1 + L_t/2! + L_t^2/3! + ...)
  whose second factor is invertible and commutes with L_t.  Both have
  one kernel, over Q and over Q(a), so the stacked system keeps its row
  space, its reduced echelon form and its canonical kernel basis;
* invariance under any other affine map g: rows of g^* - id;
* Lie invariance: rows of L_xi; horizontality: rows of i_xi;
* a field in the span of earlier fields adds no block.  For invariance
  the fields are the translations' constant fields, then the
  infinitesimal generators; for horizontality the latter alone.  L_xi
  and i_xi are Q(a)-linear in xi, so each row of such a block is the same
  combination of the kept blocks' rows with its key (a key a block lacks
  is a zero row there), and the stacked system keeps its row space, its
  reduced echelon form and its canonical kernel basis.
* a kept field xi is assembled as xi / c, for c its positive rational
  content: the gcd of the numerators over the lcm of the denominators of
  the rational coefficients of its components.  Every row of its block is
  the row of xi times 1/c, so the row space stays.  The scaled field has
  coprime int coefficients, so a rotation by 3/4 is eliminated over the
  ints, not over Fractions.  A field with a coefficient that has ``a`` in
  its denominator is assembled as it is.

Coordinates that the translations fix leave the window before assembly:

* coordinate j is frozen when e_j lies in the Q(a)-span of the constant
  fields that invariance imposes: each translation's t and each constant
  infinitesimal generator.  One Gauss-Jordan elimination with these
  fields as rows finds them: j is frozen exactly when the reduced row
  with pivot j is e_j;
* L_{e_j} = d/dx_j is then a Q(a)-combination of the imposed L_t, so every
  basic form is in its kernel.  On the window that kernel is exactly the
  columns x^e dx_I with e_j = 0, since d/dx_j sends the other columns to
  distinct monomials;
* so the kernel of the system on W(k, d) is the kernel of the system cut
  to the columns with e_j = 0 for every frozen j, and the canonical kernel
  basis depends only on that subspace and the relative column order.  The
  window is built over the free variables alone, in the same graded-lex
  order, and its basis is equal under ``==`` to that of the whole window;
* a constant field supported in frozen coordinates is zero on that
  window, so it adds no block, like a field in the span of earlier fields.

For a lattice spanning R^n the grade-k window shrinks from
C(n, k) C(n + d, d) columns to C(n, k).  When nothing is frozen, as for
one translation by (1, 1), the window is the whole one.

Assembly follows the window's tensor structure.  Column (e, I) holds the
image of x^e dx_I, and each operator splits into a factor of e and a
factor of I: g^*(x^e dx_I) = (x^e o g) g^*(dx_I),
L_xi(x^e dx_I) = xi(x^e) dx_I + x^e L_xi(dx_I) and
i_xi(x^e dx_I) = x^e i_xi(dx_I).  A block builds each polynomial factor
once per exponent (x^e o g through the map's power table), each covector
factor once per index tuple, and adds every product straight into its
sparse rows; the product with x^e is an exponent shift.

Nested windows of one grade come from one elimination.  For d <= D the
degree-d basis is read off the reduced degree-D system, exactly:

* exponents are graded-lex and one exponent's index tuples are adjacent,
  so W(k, d) is a column prefix of W(k, D), over the same free variables;
* a column's entries depend on that column alone, so the degree-d system
  is the degree-D system cut to the prefix, up to zero rows and row
  order;
* RREF commutes with taking a column prefix: E M[:, :c] = (E M)[:, :c];
* the kernel vector of free column f has no key past f.  So the degree-d
  basis is exactly the degree-D vectors whose largest key is below
  |W(k, d)|;
* sign normalization reads only the entry at the smallest key, so the
  signs agree too, and the bases are equal under ``==``.

The kernel vectors are in free-column order, so the degree-d basis is a
prefix of the degree-D basis.  So the rank of a linear map, such as d in
truncated cohomology, on every smaller basis is the rank of a column
prefix of its matrix on the degree-D basis: the number of its pivot
columns below that basis's size, all read off one elimination.
"""

from __future__ import annotations

import itertools
import math
from operator import add
from typing import Iterable, Mapping, NamedTuple, Sequence

from .actions import ActionSpec, AffineMap
from .forms import Form, FormSums, Indices, VectorField, ext_d, interior, lie_derivative
from .linalg import Matrix, _gauss_jordan, kernel_basis, prefix_ranks, stack
from .polynomials import Exponents, Polynomial, add_product
from .scalars import _UNIT, ONE, Scalar


class TruncationSpec:
    """Window parameters: form grade and maximum coefficient total degree.

    Read-only, and equal to another spec with the same two fields.
    """

    __slots__ = ("grade", "max_degree")
    grade: int
    max_degree: int

    def __init__(self, grade: int, max_degree: int):
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "max_degree", max_degree)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grade, self.max_degree) == (other.grade, other.max_degree)

    def __hash__(self) -> int:
        return hash((self.grade, self.max_degree))

    def __reduce__(self):
        return TruncationSpec, (self.grade, self.max_degree)

    def __repr__(self) -> str:
        return f"TruncationSpec(grade={self.grade!r}, max_degree={self.max_degree!r})"


def exponents_upto(
    num_vars: int, max_degree: int, free: Sequence[int] | None = None
) -> list[Exponents]:
    """All exponent tuples with total degree <= max_degree, graded-lex order.

    Degree by degree, each in descending lex order: lower total degree
    first, then earlier variables ranked higher.  The multisets of t
    variable indices, listed in lex order, are exactly the exponents of
    degree t in descending lex order.  With ``free``, increasing variable
    indices, only the exponents that vanish off those variables, in the
    same relative order.
    """
    variables = range(num_vars)
    return [
        tuple(map(picks.count, variables))
        for total in range(max_degree + 1)
        for picks in itertools.combinations_with_replacement(
            variables if free is None else free, total
        )
    ]


class Window:
    """Indexed monomial basis of the (grade, degree) truncation window.

    Exponents are graded-lex, and one exponent's index tuples are adjacent.
    The exponents range over the ``free`` variables, increasing indices,
    all of them by default; the index tuples always range over all ``dim``.
    A window over fewer variables is the whole window's columns with e_j = 0
    off them, in the same relative order, and the window of any lower
    degree over the same variables is a prefix of this one.
    """

    __slots__ = ("dim", "grade", "max_degree", "free", "exponents", "index_tuples", "pairs")

    def __init__(
        self, dim: int, grade: int, max_degree: int, free: Sequence[int] | None = None
    ):
        if not 0 <= grade <= dim:
            raise ValueError(f"grade {grade} out of range for dimension {dim}")
        if free is None:
            free = range(dim)
        elif any(not 0 <= j < dim for j in free) or list(free) != sorted(set(free)):
            raise ValueError(f"free variables {free!r} are not increasing indices below {dim}")
        self.dim = dim
        self.grade = grade
        self.max_degree = max_degree
        self.free = tuple(free)
        self.exponents = exponents_upto(dim, max_degree, self.free)
        self.index_tuples = list(itertools.combinations(range(dim), grade))
        self.pairs = [(e, I) for e in self.exponents for I in self.index_tuples]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def prefix_size(self, max_degree: int) -> int:
        """Size of the window of this degree over the same variables, a prefix of this one."""
        return len(self.index_tuples) * math.comb(len(self.free) + max_degree, max_degree)

    def combine(self, coords: Mapping[int, Scalar]) -> Form:
        """The form with these window coordinates by position."""
        sums: FormSums = {}
        for pos, c in coords.items():
            if not 0 <= pos < len(self.pairs):
                raise ValueError(f"position {pos} is outside the window of size {self.size}")
            exps, indices = self.pairs[pos]
            sums.setdefault(indices, {})[exps] = c
        return Form._from_sums(self.dim, self.grade, sums)


# Sparse rows keyed by the target monomial (e, I) each stands for, in first-touch order.
_Rows = dict[tuple[Exponents, Indices], dict[int, Scalar]]


def _add_into(
    rows: _Rows,
    col: int,
    indices: Indices,
    terms: Mapping[Exponents, Scalar],
    shift: Exponents | None = None,
) -> None:
    """Add ``x^shift * terms dx_indices`` into column ``col`` of the keyed rows."""
    for exps, c in terms.items():
        if shift is not None:
            exps = tuple(map(add, exps, shift))
        row = rows.get((exps, indices))
        if row is None:
            rows[exps, indices] = {col: c}
        else:
            old = row.get(col)
            row[col] = c if old is None else old + c


def _matrix(cols: int, rows: _Rows) -> Matrix:
    """The nonempty rows, in first-touch order, less their zero entries."""
    data = ({j: c for j, c in row.items() if not c.is_zero} for row in rows.values())
    return Matrix(cols, [row for row in data if row])


def _affine_block(g: AffineMap, domain: Window) -> Matrix:
    """Rows of g^* - id: x^e o g once per exponent, g^*(dx_I) once per index tuple."""
    mapping = g.as_poly_map()
    covectors = [mapping._pulled_covector(I).terms for I in domain.index_tuples]
    rows: _Rows = {}
    minus_one, col = -ONE, 0
    for e in domain.exponents:
        composed = mapping._powers.compose(Polynomial._from_sums(domain.dim, {e: ONE})).terms
        for I, covector in zip(domain.index_tuples, covectors):
            for J, factor in covector.items():
                product: dict[Exponents, Scalar] = {}
                add_product(product, composed, factor.terms)
                _add_into(rows, col, J, product)
            _add_into(rows, col, I, {e: minus_one})
            col += 1
    return _matrix(domain.size, rows)


def _field_block(xi: VectorField, domain: Window, lie: bool) -> Matrix:
    """Rows of L_xi (``lie``) or of i_xi on the window.

    i_xi(dx_I) or L_xi(dx_I) is built once per index tuple, and
    xi(x^e) = sum_j e_j x^(e - 1_j) xi_j once per exponent, from the
    products e_j xi_j built once for each j and each value 1 <= e_j <= d.
    A constant field t has L_t(dx_I) = 0, since L_t(dx_i) = d(t_i) = 0.
    """
    unit = {(0,) * domain.dim: ONE}
    op = lie_derivative if lie else interior
    constant = lie and xi.max_degree() == 0
    pieces = [
        {} if constant else op(xi, Form._from_sums(domain.dim, domain.grade, {I: unit})).terms
        for I in domain.index_tuples
    ]
    # scaled[j][v - 1] is v * xi_j; i_xi has no xi(x^e) term
    weights = [Scalar.of(v) for v in range(1, domain.max_degree + 1)] if lie else []
    scaled = [
        [{h: c * w for h, c in xi.component(j).terms.items()} for w in weights]
        for j in range(domain.dim)
    ]
    rows: _Rows = {}
    col = 0
    for e in domain.exponents:
        flow: dict[Exponents, Scalar] = {}  # xi(x^e)
        for j, ej in enumerate(e if lie else ()):
            if ej:
                lowered = e[:j] + (ej - 1,) + e[j + 1 :]
                for h, c in scaled[j][ej - 1].items():
                    f = tuple(map(add, lowered, h))
                    flow[f] = flow[f] + c if f in flow else c
        for I, piece in zip(domain.index_tuples, pieces):
            _add_into(rows, col, I, flow)
            for J, coeff in piece.items():
                _add_into(rows, col, J, coeff.terms, e)
            col += 1
    return _matrix(domain.size, rows)


def _is_translation(g: AffineMap) -> bool:
    """Whether the linear part of g is the identity."""
    rows = enumerate(g.linear)
    return all(e.is_one if i == j else e.is_zero for i, row in rows for j, e in enumerate(row))


def _free_coordinates(action: ActionSpec) -> list[int]:
    """The coordinates that the action's constant fields leave free, increasing.

    Coordinate j is frozen when e_j is in the Q(a)-span of the translations'
    t and the constant infinitesimal generators.  With those fields as
    rows, j is frozen exactly when the reduced row with pivot j is e_j.
    See the module docstring.
    """
    rows = [
        {j: c for j, c in enumerate(g.translation) if not c.is_zero}
        for g in action.discrete
        if _is_translation(g)
    ]
    rows += [
        {j: c for j, component in enumerate(xi.components) for c in component.terms.values()}
        for xi in action.infinitesimal
        if xi.max_degree() == 0
    ]
    reduced = _gauss_jordan(Matrix(action.dim, rows))
    frozen = {j for j, row in reduced.items() if len(row) == 1}
    return [j for j in range(action.dim) if j not in frozen]


def _independent(fields: Sequence[VectorField]) -> set[int]:
    """Positions of the fields that are not Q(a)-combinations of earlier fields.

    Field i is column i of a matrix with one row per (exponent h,
    component j).  A column of a reduced row echelon form is a pivot column
    exactly when it is outside the span of the columns before it.
    """
    rows: _Rows = {}
    for i, xi in enumerate(fields):
        for j, component in enumerate(xi.components):
            _add_into(rows, i, (j,), component.terms)
    return set(_gauss_jordan(_matrix(len(fields), rows)))


def _vanishes_on(xi: VectorField, domain: Window) -> bool:
    """Whether xi is constant and zero at every free variable, so L_xi is zero on the domain."""
    return xi.max_degree() == 0 and all(xi.component(j).is_zero for j in domain.free)


def _primitive(xi: VectorField) -> VectorField:
    """xi over its positive rational content; xi itself if that is 1 or xi has an a-denominator.

    See the module docstring.  Each coefficient is scaled on the ints and
    Fractions of its numerator, so the results are ints and no Fraction is
    built.
    """
    coeffs = [c for component in xi.components for c in component.terms.values()]
    if any(c._den is not _UNIT for c in coeffs):
        return xi
    rationals = [q for c in coeffs for q in c._num if q]
    top = math.gcd(*(q.numerator for q in rationals))
    bottom = math.lcm(*(q.denominator for q in rationals))
    if top == bottom:
        return xi
    components = []
    for component in xi.components:
        terms = {
            h: Scalar(tuple(q.numerator * (bottom // q.denominator) // top for q in c._num))
            for h, c in component.terms.items()
        }
        components.append(Polynomial._from_sums(xi.dim, terms))
    return VectorField(components)


def invariance_constraints(action: ActionSpec, domain: Window) -> Matrix:
    """Stacked linear conditions on the window for invariance under every generator.

    Block order is fixed: discrete generators first (input order), then
    infinitesimal generators, less the fields in the span of earlier
    fields.  A form in the window is invariant iff its coordinate vector
    is in the kernel.  A translation x -> x + t gives the rows of L_t (the
    constant field t), which have the kernel of g^* - id; it gives no rows
    when t is a combination of earlier translations, and an infinitesimal
    generator none when it is a combination of the translations and the
    generators before it.  A constant field that is zero at every free
    variable of the domain is zero on it and gives no rows either.  Any
    other discrete generator keeps the degree, so its rows are keyed by
    monomials of the whole window of the domain's degree.
    """
    discrete = action.discrete
    fields: dict[int, VectorField] = {
        i: VectorField([Polynomial.constant(domain.dim, c) for c in g.translation])
        for i, g in enumerate(discrete)
        if _is_translation(g)
    }
    fields.update(enumerate(action.infinitesimal, len(discrete)))
    positions = list(fields)
    kept = {
        positions[c]
        for c in _independent(list(fields.values()))
        if not _vanishes_on(fields[positions[c]], domain)
    }
    blocks = [
        _field_block(_primitive(fields[i]), domain, lie=True) if i in fields
        else _affine_block(discrete[i], domain)
        for i in range(len(discrete) + len(action.infinitesimal))
        if i in kept or i not in fields
    ]
    return stack(blocks) if blocks else Matrix.zero(0, domain.size)


def horizontality_constraints(action: ActionSpec, domain: Window) -> Matrix:
    """Stacked conditions i_xi(form) = 0 on the window for every infinitesimal generator.

    A generator in the span of the generators before it adds no rows.
    Empty (zero rows) for finite groups: no connected directions, nothing to
    contract against.
    """
    if domain.grade == 0:
        return Matrix.zero(0, domain.size)
    kept = _independent(action.infinitesimal)
    blocks = [
        _field_block(_primitive(xi), domain, lie=False)
        for i, xi in enumerate(action.infinitesimal)
        if i in kept
    ]
    return stack(blocks) if blocks else Matrix.zero(0, domain.size)


def basic_form_basis(action: ActionSpec, spec: TruncationSpec) -> list[Form]:
    """Canonical basis of invariant horizontal forms in the window.

    The kernel of the stacked invariance + horizontality matrix, mapped back
    to forms through the monomial window.  Deterministic for a fixed input.
    """
    return _basic_form_bases(action, spec.grade, [spec.max_degree])[spec.max_degree]


def _basic_form_bases(
    action: ActionSpec, grade: int, degrees: Iterable[int]
) -> dict[int, list[Form]]:
    """The canonical basis of W(grade, d) for every d in ``degrees``, from one elimination.

    Only the system of the largest degree D is assembled and eliminated;
    see the module docstring for why the basis of each smaller window is
    the kernel vectors with no key past |W(grade, d)|, exactly.  Each
    vector becomes a form once, through W(grade, D), whose first
    |W(grade, d)| positions are those of W(grade, d).  The windows range
    over the coordinates that the action's constant fields leave free.
    """
    wanted = sorted(set(degrees))
    domain = Window(action.dim, grade, wanted[-1], _free_coordinates(action))
    system = stack(
        [invariance_constraints(action, domain), horizontality_constraints(action, domain)]
    )
    vectors = kernel_basis(system)
    forms = [domain.combine(vec) for vec in vectors]
    bases = {}
    for d in wanted:
        size = domain.prefix_size(d)
        bases[d] = [f for f, vec in zip(forms, vectors) if max(vec) < size]
    return bases


class CohomologyRecord(NamedTuple):
    """Dimensions at one grade of the truncated basic de Rham complex."""

    grade: int
    window_degree: int
    dim_basic: int
    dim_closed: int
    dim_exact: int
    dim_cohomology: int


def truncated_basic_cohomology(
    action: ActionSpec, window_degrees: Sequence[int]
) -> dict[int, list[CohomologyRecord]]:
    """Closed-mod-exact dimensions of basic forms, one record per grade, by window degree.

    For each d in ``window_degrees``, closed forms are measured inside the
    degree-d window; exact ones come from basic potentials one degree
    higher (d drops the coefficient degree by one, so every exact form in
    the window has a potential in the degree d + 1 window).  These are
    truncation dimensions, not a limit statement.

    Grade k needs the bases of every window degree d, and below the top
    grade those of every d + 1 for the potentials; all of them come from
    one elimination per grade, at the largest degree D it needs.  Each
    basis is a prefix of the degree-D one, so the rank of d on every one
    of them comes from one more elimination, of d on the degree-D basis.
    """
    n = action.dim
    sizes, ranks = [], []  # by grade, then by degree: |basis| and the rank of d on it
    for k in range(n + 1):
        bases = _basic_form_bases(
            action, k, [*window_degrees, *(d + 1 for d in window_degrees if k < n)]
        )
        sizes.append({d: len(basis) for d, basis in bases.items()})
        if k == n:  # d vanishes on n-forms
            ranks.append(dict.fromkeys(bases, 0))
            continue
        top = max(bases)
        image = span_matrix([ext_d(b) for b in bases[top]])
        ranks.append(dict(zip(bases, prefix_ranks(image, sizes[k].values()))))
    out = {}
    for max_degree in window_degrees:
        records = []
        for k in range(n + 1):
            dim_basic = sizes[k][max_degree]
            dim_closed = dim_basic - ranks[k][max_degree]
            dim_exact = ranks[k - 1][max_degree + 1] if k > 0 else 0
            records.append(
                CohomologyRecord(
                    grade=k,
                    window_degree=max_degree,
                    dim_basic=dim_basic,
                    dim_closed=dim_closed,
                    dim_exact=dim_exact,
                    dim_cohomology=dim_closed - dim_exact,
                )
            )
        out[max_degree] = records
    return out


def span_matrix(forms: Sequence[Form]) -> Matrix:
    """Forms as columns, one row per monomial x^e dx_I they use, for the ranks of their spans."""
    rows: _Rows = {}
    for j, form in enumerate(forms):
        for indices, poly in form.terms.items():
            _add_into(rows, j, indices, poly.terms)
    return _matrix(len(forms), rows)
