"""Shared random generators and exact evaluation oracles for the tests.

Everything is driven by an explicit ``random.Random`` handed in by the
caller, so every test run is reproducible from its seed.  The evaluation
helpers re-derive values from first principles (Horner loops over
``Fraction``) instead of calling the code paths they are used to check.
The affine, polynomial-map, window and chart helpers below serve only as
test oracles: the library has no public routine for them.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from basicforms.actions import ActionSpec, AffineMap, act_pullback
from basicforms.forms import (
    Form,
    FormSums,
    PolyMap,
    VectorField,
    add_terms,
    ext_d,
    interior,
    lie_derivative,
)
from basicforms.linalg import Matrix, kernel_basis, rank, stack
from basicforms.orbifolds import OrbifoldChart
from basicforms.plots import Plot
from basicforms.polynomials import Exponents, Polynomial
from basicforms.scalars import Scalar, ScalarLike
from basicforms.solver import (
    CohomologyRecord,
    TruncationSpec,
    Window,
    basic_form_basis,
    horizontality_constraints,
    invariance_constraints,
    span_matrix,
)


# Fewer than one draw in five of rand_affine is singular (about 17% on R^1,
# under 1% on R^4), so this many refusals in a row means a faulty constructor.
MAX_AFFINE_DRAWS = 1000


def grlex_key(exponents: Exponents) -> tuple:
    """Sort key for graded lexicographic order, ascending: the oracle of ``exponents_upto``."""
    return (sum(exponents), tuple(-e for e in exponents))


def rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_nonzero_fraction(rng: random.Random, span: int = 6) -> Fraction:
    while True:
        f = rand_fraction(rng, span)
        if f != 0:
            return f


def rand_scalar(rng: random.Random, with_param: bool = True, span: int = 4) -> Scalar:
    """A rational function of the parameter with small integer data."""
    a = Scalar.parameter()
    num = Scalar.of(rand_fraction(rng, span))
    if with_param and rng.random() < 0.7:
        for _ in range(rng.randint(1, 2)):
            num = num * a + rand_fraction(rng, span)
    if with_param and rng.random() < 0.3:
        den = a + rand_nonzero_fraction(rng, span)
        return num / den
    return num


# A scalar as raw (numerator, denominator) coefficient tuples in the
# parameter, low degree first, neither trimmed nor reduced.
RawScalar = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def rand_operand(rng: random.Random) -> tuple[ScalarLike, RawScalar]:
    """An operand for the scalar arithmetic checks, with its raw value.

    Mostly plain rationals: 0, 1, -1, small integers and heights up to
    10^6, each as a Scalar, or as an int or a Fraction when that holds the
    value.  The rest are rational functions of the parameter, built by the
    checking constructor from the raw tuples returned with them.
    """
    one = (Fraction(1),)
    if rng.random() < 0.3:
        num = tuple(rand_fraction(rng, 5) for _ in range(rng.randint(1, 3)))
        den = one
        if rng.random() < 0.5:
            den = (rand_fraction(rng, 5), rand_nonzero_fraction(rng, 5))
        return Scalar(num, den), (num, den)
    kind = rng.randrange(4)
    if kind == 0:
        value = Fraction(rng.choice((0, 1, -1)))
    elif kind == 1:
        value = Fraction(rng.randint(-50, 50))
    else:
        value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    shapes = ["scalar", "fraction"] + (["int"] if value.denominator == 1 else [])
    shape = rng.choice(shapes)
    if shape == "scalar":
        operand: ScalarLike = Scalar.of(value)
    elif shape == "int":
        operand = int(value)
    else:
        operand = value
    return operand, ((value,), one)


def _raw_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _raw_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, x in enumerate(p):
        out[i] += x
    for i, y in enumerate(q):
        out[i] += y
    return out


def scalar_oracle(op: str, left: RawScalar, right: RawScalar | None = None) -> Scalar:
    """``left op right`` (or ``op left`` for "neg") through ``Scalar(num, den)``.

    The result is formed on the raw tuples by schoolbook fraction
    arithmetic and only then handed to the checking constructor, so it
    shares nothing with the operators it checks but the normalisation.
    """
    (n1, d1) = left
    if op == "neg":
        return Scalar(tuple(-c for c in n1), d1)
    (n2, d2) = right
    if op == "-":
        n2 = tuple(-c for c in n2)
    if op in "+-":
        return Scalar(_raw_add(_raw_mul(n1, d2), _raw_mul(n2, d1)), _raw_mul(d1, d2))
    if op == "*":
        return Scalar(_raw_mul(n1, n2), _raw_mul(d1, d2))
    if op == "/":
        return Scalar(_raw_mul(n1, d2), _raw_mul(d1, n2))
    raise ValueError(f"unknown operator {op!r}")


def rand_poly(
    rng: random.Random,
    num_vars: int,
    max_degree: int = 3,
    max_terms: int = 4,
    with_param: bool = False,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = rand_scalar(rng, with_param)
    return Polynomial(num_vars, terms)


def rand_form(
    rng: random.Random,
    dim: int,
    grade: int,
    max_degree: int = 2,
    with_param: bool = False,
) -> Form:
    tuples = list(itertools.combinations(range(dim), grade))
    out = Form.zero(dim, grade)
    for indices in rng.sample(tuples, k=rng.randint(1, len(tuples))):
        out = out + Form.monomial(dim, indices, rand_poly(rng, dim, max_degree, 3, with_param))
    return out


def rand_vector_field(
    rng: random.Random, dim: int, max_degree: int = 2, with_param: bool = False
) -> VectorField:
    return VectorField([rand_poly(rng, dim, max_degree, 3, with_param) for _ in range(dim)])


def rand_affine(rng: random.Random, dim: int, with_param: bool = False) -> AffineMap:
    """Random invertible exact affine map; retries until the linear part is.

    A constructor that refuses every map fails after ``MAX_AFFINE_DRAWS``
    draws instead of looping forever.
    """
    for _ in range(MAX_AFFINE_DRAWS):
        rows = [
            [rand_scalar(rng, with_param and rng.random() < 0.3, span=3) for _ in range(dim)]
            for _ in range(dim)
        ]
        try:
            return AffineMap(
                rows,
                [rand_scalar(rng, with_param, span=3) for _ in range(dim)],
            )
        except ValueError:
            continue
    raise RuntimeError(f"AffineMap refused {MAX_AFFINE_DRAWS} random maps on R^{dim}")


def safe_a0(rng: random.Random, *polys: Polynomial, span: int = 4) -> Fraction:
    """A parameter value at which none of the polys' coefficients has a pole."""
    while True:
        a0 = rand_fraction(rng, span)
        try:
            for p in polys:
                for c in p.terms.values():
                    eval_scalar_exact(c, a0)
            return a0
        except ZeroDivisionError:
            continue


def eval_scalar_exact(s: Scalar, a0: Fraction) -> Fraction:
    if s.uses_parameter:
        return s.bind(a0).as_fraction()
    return s.as_fraction()


def eval_poly_exact(
    poly: Polynomial, point: Sequence[Fraction], a0: Fraction = Fraction(0)
) -> Fraction:
    """Term-by-term exact evaluation, independent of Polynomial.evaluate."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        value = eval_scalar_exact(coeff, a0)
        for x, e in zip(point, exps):
            value *= x**e
        total += value
    return total


def naive_group(generators: Sequence[AffineMap], limit: int = 256) -> set[AffineMap]:
    """Every product of the generators and their inverses, by word length.

    Adds all words one letter longer until a length brings nothing new;
    fails past ``limit`` elements.  Kept apart from ``OrbifoldChart``'s
    walk, which takes right products by the generators alone and checks
    each new element's trace.
    """
    letters = list(generators) + [affine_inverse(g) for g in generators]
    reached = {AffineMap.identity(generators[0].dim)}
    frontier = set(reached)
    while frontier:
        frontier = {w.compose(g) for w in frontier for g in letters} - reached
        reached |= frontier
        assert len(reached) <= limit, "group is larger than the limit"
    return reached


def dense_product(g: AffineMap, h: AffineMap) -> AffineMap:
    """g after h, every entry a full row-by-column sum."""
    n = g.dim
    rows, shift = g.linear, g.translation
    return AffineMap.from_rows(
        [[sum((rows[i][k] * h.linear[k][j] for k in range(n)), Scalar.of(0)) for j in range(n)]
         for i in range(n)],
        [sum((rows[i][k] * h.translation[k] for k in range(n)), shift[i]) for i in range(n)],
    )


def dense_row_product(row: Sequence[Scalar], generator: Sequence[Sequence[Scalar]]) -> tuple[Scalar, ...]:
    """A homogeneous row times H(g), every entry a full row-by-column sum.

    ``generator`` is g's homogeneous rows (A_g row k | b_g[k]); H(g) adds
    the row (0, ..., 0, 1) below them.
    """
    n = len(generator)
    return tuple(
        sum((row[k] * generator[k][j] for k in range(n)), row[n] if j == n else Scalar.of(0))
        for j in range(n + 1)
    )


def compose_walk(
    generators: Sequence[AffineMap], cap: int = 64
) -> tuple[list[AffineMap], list[tuple[int, ...]], list[int]]:
    """The breadth-first walk of a finite group by whole maps: its elements,
    right-multiplication table and traces.

    Takes elements in list order, right-multiplies each by every generator
    in input order with ``AffineMap.compose``, and keeps the products not
    seen before, deduplicated by the maps' own hashes.  Each trace is the
    sum of a linear part's diagonal, checked to be an integer.  Fails past
    ``cap`` elements.  Kept apart from ``OrbifoldChart``'s walk, which
    multiplies rows and deduplicates by row indices.
    """
    group = [AffineMap.identity(generators[0].dim)]
    index, table = {group[0]: 0}, []
    for element in group:
        row = []
        for g in generators:
            product = element.compose(g)
            if product not in index:
                assert len(group) < cap, "group is larger than the cap"
                index[product] = len(group)
                group.append(product)
            row.append(index[product])
        table.append(tuple(row))
    traces = []
    for g in group:
        trace = sum((row[i] for i, row in enumerate(g.linear)), Scalar.of(0)).as_fraction()
        assert trace.denominator == 1, "a finite group has integer traces"
        traces.append(trace.numerator)
    return group, table, traces


def word_product(generators: Sequence[AffineMap], word: Sequence[int]) -> AffineMap:
    """The identity with ``generators[s]`` composed on the right for each s of ``word``, in order."""
    product = AffineMap.identity(generators[0].dim)
    for s in word:
        product = product.compose(generators[s])
    return product


def trivial_action(dim: int) -> ActionSpec:
    """The identity map as the only generator: every form is invariant."""
    return ActionSpec(dim, discrete=[AffineMap.identity(dim)])


def apply_exact(mapping: AffineMap, point: Sequence[ScalarLike]) -> tuple[Scalar, ...]:
    """Image A x + b of a point, summed entry by entry."""
    return tuple(
        sum((e * Scalar.of(x) for e, x in zip(row, point)), t)
        for row, t in zip(mapping.linear, mapping.translation)
    )


def cofactor_det(rows: list[list[Scalar]]) -> Scalar:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Scalar.of(1)
    total = Scalar.of(0)
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        total = total - term if j % 2 else total + term
    return total


def affine_inverse(mapping: AffineMap) -> AffineMap:
    """x -> A^-1 (x - b), with A^-1 the adjugate over the determinant."""
    n = mapping.dim
    rows = [list(row) for row in mapping.linear]
    det = cofactor_det(rows)

    def cofactor(r: int, c: int) -> Scalar:
        minor = [row[:c] + row[c + 1 :] for k, row in enumerate(rows) if k != r]
        value = cofactor_det(minor)
        return -value if (r + c) % 2 else value

    inverse = [[cofactor(j, i) / det for j in range(n)] for i in range(n)]
    shift = [
        -sum((inverse[i][j] * mapping.translation[j] for j in range(n)), Scalar.of(0))
        for i in range(n)
    ]
    return AffineMap.from_rows(inverse, shift)


def window_monomials(window: Window) -> list[Form]:
    """Every monomial form of the window, in window order."""
    return [
        Form.monomial(window.dim, indices, Polynomial(window.dim, {exps: 1}))
        for exps, indices in window.pairs
    ]


def window_coordinates(window: Window, form: Form) -> dict[int, Scalar]:
    """The form's nonzero coefficients by window position, read monomial by monomial."""
    coords = {}
    for pos, (exps, indices) in enumerate(window.pairs):
        poly = form.terms.get(indices)
        if poly is not None and exps in poly.terms:
            coords[pos] = poly.terms[exps]
    return coords


def same_rows(first: Matrix, second: Matrix) -> bool:
    """Whether two matrices have one width and one multiset of rows, in any order."""
    rows = lambda m: Counter(frozenset(row.items()) for row in m._data)
    return first.cols == second.cols and rows(first) == rows(second)


def operator_block(domain: Window, op: Callable[[Form], Form]) -> Matrix:
    """Matrix of a linear operator on a window, one monomial at a time.

    Column j holds the image of ``op`` applied to the j-th domain monomial,
    built as a whole form and read off by ``span_matrix``: one row per
    monomial that some image uses.
    """
    return span_matrix([op(f) for f in window_monomials(domain)])


def invariance_blocks(action: ActionSpec, domain: Window) -> list[Matrix]:
    """The invariance blocks by the per-monomial route: g^* f - f, then L_xi f."""
    blocks = [
        operator_block(domain, lambda f, g=g: act_pullback(g, f) - f) for g in action.discrete
    ]
    blocks += [
        operator_block(domain, lambda f, xi=xi: lie_derivative(xi, f))
        for xi in action.infinitesimal
    ]
    return blocks


def horizontality_blocks(action: ActionSpec, domain: Window) -> list[Matrix]:
    """The horizontality blocks by the per-monomial route: i_xi f."""
    if domain.grade == 0:
        return []
    return [
        operator_block(domain, lambda f, xi=xi: interior(xi, f)) for xi in action.infinitesimal
    ]


def independent_fields(fields: Sequence[VectorField]) -> list[bool]:
    """Whether each field raises the rank of the fields before it.

    Each field is a dense row over every (component, exponent) pair that
    some field uses, and each prefix of rows has its rank taken by its own
    elimination.
    """
    keys = sorted({(j, h) for xi in fields for j, c in enumerate(xi.components) for h in c.terms})
    rows = [[xi.component(j).terms.get(h, 0) for j, h in keys] for xi in fields]
    ranks = [rank(Matrix.from_rows(rows[:i])) for i in range(len(rows) + 1)]
    return [after > before for before, after in zip(ranks, ranks[1:])]


def matrix_apply(matrix: Matrix, vector: Mapping[int, ScalarLike]) -> tuple[Scalar, ...]:
    """Matrix times a sparse column vector ``{column: value}``, summed entry by entry."""
    return tuple(
        sum((matrix.row(i)[j] * Scalar.of(v) for j, v in vector.items()), Scalar.of(0))
        for i in range(matrix.rows)
    )


def spans_equal(first: Sequence[Form], second: Sequence[Form]) -> bool:
    """Whether two lists of forms span one subspace.

    They do when each list alone has the rank of the two together.
    """
    ranks = {rank(span_matrix(forms)) for forms in (first, second, [*first, *second])}
    return len(ranks) == 1


def whole_window_basis(action: ActionSpec, spec: TruncationSpec) -> list[Form]:
    """The canonical kernel of the constraints on the whole window, as forms.

    The window ranges over every variable, whatever the action freezes.
    """
    domain = Window(action.dim, spec.grade, spec.max_degree)
    system = stack(
        [invariance_constraints(action, domain), horizontality_constraints(action, domain)]
    )
    return [domain.combine(vec) for vec in kernel_basis(system)]


def cohomology_records(
    action: ActionSpec,
    max_degree: int,
    basis_of: Callable[[ActionSpec, TruncationSpec], list[Form]] = basic_form_basis,
) -> list[CohomologyRecord]:
    """Truncated basic cohomology of one window, one basis and one rank at a time.

    Each grade's basis of W(k, d) and potentials' basis of W(k - 1, d + 1)
    come from their own eliminations by ``basis_of``, and the ranks of d on
    the two from two more: the closed forms are the kernel of d on the
    first, the exact forms its image on the second.
    """
    n = action.dim
    records = []
    for k in range(n + 1):
        basis = basis_of(action, TruncationSpec(k, max_degree))
        dim_basic = len(basis)
        if k < n:
            dim_closed = dim_basic - rank(span_matrix([ext_d(b) for b in basis]))
        else:
            dim_closed = dim_basic
        if k == 0:
            dim_exact = 0
        else:
            potentials = basis_of(action, TruncationSpec(k - 1, max_degree + 1))
            image = span_matrix([ext_d(b) for b in potentials])
            dim_exact = rank(image)
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
    return records


def reynolds_average(chart: OrbifoldChart, form: Form) -> Form:
    """Group average (1/|G|) sum of pullbacks over the chart's group.

    The chart built its group as the closure of its generators, so the
    group is whole and closed by construction.  Each element's pullback
    goes through that element's cached map and power table, and its terms
    are added into one term map per index tuple; the sum becomes a form
    once, at the end.
    """
    group = chart.group
    sums: FormSums = {}
    for g in group:
        add_terms(sums, act_pullback(g, form))
    return Form._from_sums(form.dim, form.grade, sums).scale(Scalar.of(1) / len(group))


def reynolds_span(chart: OrbifoldChart, window: Window) -> list[Form]:
    """Spanning set of the invariant forms in the window, by a literal group sum.

    Each window monomial is pulled back by every element of ``chart.group``
    and the pullbacks are added as forms; the nonzero sums span the image
    of the Reynolds projector, which is the invariant subspace (the factor
    1/|G| does not change a span).  Costs |G| pullbacks per monomial.
    """
    sums = []
    for monomial in window_monomials(window):
        total = Form.zero(window.dim, window.grade)
        for g in chart.group:
            total = total + act_pullback(g, monomial)
        if not total.is_zero:
            sums.append(total)
    return sums


def _tpoly_det(rows: list[list[list[Fraction]]]) -> list[Fraction]:
    """Determinant of a matrix of t-polynomials, by cofactors along the first row.

    Each entry is a coefficient list, low degree first.
    """
    if not rows:
        return [Fraction(1)]
    total = [Fraction(0)]
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = _raw_mul(entry, _tpoly_det(minor))
        sign = -1 if j % 2 else 1
        total = _raw_add(total, [sign * c for c in term])
    return total


def molien_counts(
    linear_parts: Sequence[Sequence[Sequence[Fraction]]], grade: int, max_degree: int
) -> list[Fraction]:
    """Molien's counts of invariant k-forms of degree <= d, for d = 0..max_degree.

    For a finite group given by the rational linear parts of its elements,
    the count at d is (1/|G|) sum_g tr Lambda^k(A) [t^0 + ... + t^d] of
    1/det(I - tA), where the trace is the sum of the principal k x k minors, det(I - tA)
    is expanded by cofactors, and the series comes from long division.
    Only ``Fraction`` arithmetic; unrounded, so a caller can see a
    non-integer.
    """
    totals = [Fraction(0)] * (max_degree + 1)
    for rows in linear_parts:
        n = len(rows)
        trace = sum(
            _tpoly_det([[[Fraction(rows[i][j])] for j in minor] for i in minor])[0]
            for minor in itertools.combinations(range(n), grade)
        )
        det = _tpoly_det(
            [[[Fraction(i == j), -Fraction(rows[i][j])] for j in range(n)] for i in range(n)]
        )
        series = [Fraction(1)]
        for k in range(1, max_degree + 1):
            top = min(k, len(det) - 1)
            series.append(-sum(det[i] * series[k - i] for i in range(1, top + 1)))
        partial = Fraction(0)
        for d, coeff in enumerate(series):
            partial += coeff
            totals[d] += trace * partial
    return [total / len(linear_parts) for total in totals]


def matrix_power_traces(rows: Sequence[Sequence[Fraction]], count: int) -> list[Fraction]:
    """tr A, tr A^2, ..., tr A^count, each power a dense row-by-column product."""
    n = len(rows)
    power, traces = [list(row) for row in rows], []
    for _ in range(count):
        traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
        power = [
            [sum((power[i][l] * rows[l][j] for l in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
    return traces


def linear_parts(maps: Sequence[AffineMap], a0: Fraction = Fraction(0)) -> list[list[list[Fraction]]]:
    """The linear part of every map as rows of Fractions, ``a`` bound to a0."""
    return [[[eval_scalar_exact(e, a0) for e in row] for row in g.linear] for g in maps]


def compose_terms(poly: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """``poly`` with variable i replaced by ``images[i]``, term by term.

    Each term is its coefficient times one factor per unit of exponent;
    no power is kept and no :class:`PowerTable` is used.
    """
    m = images[0].num_vars
    total = Polynomial.zero(m)
    for exps, coeff in poly.terms.items():
        term = Polynomial.constant(m, coeff)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        total = total + term
    return total


def compose_maps(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """outer after inner, expanded term by term as products of inner's components."""
    return PolyMap(
        inner.domain_dim, [compose_terms(c, inner.components) for c in outer.components]
    )


def plot_from_poly_map(mapping: PolyMap, grid: np.ndarray) -> Plot:
    """Sample a parameter-free map and its Jacobian, each value exact then rounded."""
    samples, q = grid.shape
    values = np.empty((samples, mapping.codomain_dim))
    jacobians = np.empty((samples, mapping.codomain_dim, q))
    for s in range(samples):
        point = [Fraction(float(x)) for x in grid[s]]
        for i, comp in enumerate(mapping.components):
            values[s, i] = float(eval_poly_exact(comp, point))
            for j in range(q):
                jacobians[s, i, j] = float(eval_poly_exact(comp.partial(j), point))
    return Plot(grid, values, jacobians)
