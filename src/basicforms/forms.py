"""Differential forms with polynomial coefficients on R^n.

A grade-k form is a sparse map from strictly increasing index tuples
(i_1 < ... < i_k) to polynomial coefficients; grade 0 forms have the single
key ``()``.  All five classical operations live here: wedge product,
exterior derivative, interior product, Lie derivative (via the Cartan
homotopy formula) and pullback along polynomial maps.  Everything is exact
except :func:`eval_form`, the only float path, which takes floats or numpy
arrays of many samples at once, through the same arithmetic.  It never
floats ``a``: a form that mentions it is bound exactly first, with
:meth:`Form.bind_param`, or its evaluation raises
:class:`~basicforms.scalars.UnboundParameterError`.

Grade bookkeeping: a wedge whose grades sum past the ambient dimension, and
the exterior derivative of a top form, both return the zero form of grade n
(grades above n cannot exist on R^n, and every such form is zero anyway).
Code that needs "is this the zero form" should test :attr:`Form.is_zero`
rather than compare against a zero form of a specific grade.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .polynomials import (
    Exponents,
    Polynomial,
    PowerTable,
    add_product,
    default_var_names,
    render_poly,
)
from .scalars import Scalar, ScalarLike

Indices = tuple[int, ...]
# A form being summed: one coefficient term map per index tuple, as
# :func:`~basicforms.polynomials.add_product` fills them.
FormSums = dict[Indices, dict[Exponents, Scalar]]


def merge_indices(left: Indices, right: Indices) -> tuple[Indices | None, int]:
    """Merge two strictly increasing tuples, counting the Koszul sign.

    Returns ``(None, 0)`` when the tuples share an index (the wedge dies).
    The sign is (-1)**inversions needed to interleave ``right`` into ``left``.
    """
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            # b jumped over the remaining entries of ``left``
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class Form:
    """Immutable homogeneous differential form."""

    __slots__ = ("_dim", "_grade", "_terms")

    def __init__(self, dim: int, grade: int, terms: Mapping[Indices, Polynomial]):
        if not 0 <= grade <= dim:
            raise ValueError(f"grade {grade} out of range for dimension {dim}")
        clean: dict[Indices, Polynomial] = {}
        for indices, coeff in terms.items():
            indices = tuple(indices)
            if len(indices) != grade:
                raise ValueError(f"index tuple {indices} has wrong length for grade {grade}")
            if any(not 0 <= v < dim for v in indices):
                raise ValueError(f"index tuple {indices} out of range for dimension {dim}")
            if any(indices[t] >= indices[t + 1] for t in range(len(indices) - 1)):
                raise ValueError(f"index tuple {indices} is not strictly increasing")
            if coeff.num_vars != dim:
                raise ValueError("coefficient lives in the wrong variable count")
            if not coeff.is_zero:
                clean[indices] = coeff
        self._dim = dim
        self._grade = grade
        self._terms = clean

    @classmethod
    def _from_sums(cls, dim: int, grade: int, sums: FormSums) -> "Form":
        """Form from coefficient term maps of exact sums, dropping the zeros.

        For maps this package built itself, with valid index tuples: the
        checks of ``__init__`` are skipped.
        """
        terms = {}
        for indices, coeff_sums in sums.items():
            coeff = Polynomial._from_sums(dim, coeff_sums)
            if not coeff.is_zero:
                terms[indices] = coeff
        out = cls.__new__(cls)
        out._dim = dim
        out._grade = grade
        out._terms = terms
        return out

    @staticmethod
    def zero(dim: int, grade: int) -> "Form":
        return Form(dim, grade, {})

    @staticmethod
    def function(poly: Polynomial) -> "Form":
        """Wrap a polynomial as a 0-form."""
        return Form(poly.num_vars, 0, {(): poly})

    @staticmethod
    def covector(dim: int, index: int) -> "Form":
        """The constant 1-form dx_index."""
        return Form(dim, 1, {(index,): Polynomial.constant(dim, 1)})

    @staticmethod
    def monomial(dim: int, indices: Indices, coeff: Polynomial) -> "Form":
        return Form(dim, len(indices), {tuple(indices): coeff})

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def grade(self) -> int:
        return self._grade

    @property
    def terms(self) -> Mapping[Indices, Polynomial]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def uses_parameter(self) -> bool:
        return any(p.uses_parameter for p in self._terms.values())

    def coefficient(self, indices: Indices) -> Polynomial:
        return self._terms.get(tuple(indices), Polynomial.zero(self._dim))

    def _check_compatible(self, other: "Form") -> None:
        if self._dim != other._dim or self._grade != other._grade:
            raise ValueError(
                f"form mismatch: ({self._dim}, grade {self._grade}) vs "
                f"({other._dim}, grade {other._grade})"
            )

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        out = dict(self._terms)
        for idx, p in other._terms.items():
            out[idx] = out[idx] + p if idx in out else p
        return Form(self._dim, self._grade, out)

    def __neg__(self) -> "Form":
        return Form(self._dim, self._grade, {i: -p for i, p in self._terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, factor: ScalarLike) -> "Form":
        f = Scalar.of(factor)
        return Form(self._dim, self._grade, {i: p.scale(f) for i, p in self._terms.items()})

    def bind_param(self, value: Fraction) -> "Form":
        return Form(
            self._dim, self._grade, {i: p.bind_param(value) for i, p in self._terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self._dim == other._dim
            and self._grade == other._grade
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._dim, self._grade, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return render_form(self)

    def __repr__(self) -> str:
        return f"Form({self._dim}, grade {self._grade}: {self})"


class VectorField:
    """Polynomial vector field: one component polynomial per coordinate."""

    __slots__ = ("_dim", "_components")

    def __init__(self, components: Sequence[Polynomial]):
        if not components:
            raise ValueError("vector field needs at least one component")
        dim = len(components)
        for comp in components:
            if comp.num_vars != dim:
                raise ValueError("component variable count must equal the dimension")
        self._dim = dim
        self._components = tuple(components)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def components(self) -> tuple[Polynomial, ...]:
        return self._components

    def component(self, i: int) -> Polynomial:
        return self._components[i]

    def max_degree(self) -> int:
        """Largest component total degree, at least 0 (zero field counts as 0)."""
        degs = [c.total_degree() for c in self._components if not c.is_zero]
        return int(max(degs)) if degs else 0

    @property
    def uses_parameter(self) -> bool:
        return any(c.uses_parameter for c in self._components)

    def bind_param(self, value: Fraction) -> "VectorField":
        return VectorField([c.bind_param(value) for c in self._components])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self._components == other._components

    def __repr__(self) -> str:
        return f"VectorField({', '.join(str(c) for c in self._components)})"


class PolyMap:
    """Polynomial map R^m -> R^n given by n component polynomials in m variables.

    A map keeps what :func:`pullback` needs from it, built on first use and
    shared by every form pulled back along it: the powers of each component
    (a :class:`~basicforms.polynomials.PowerTable`, at most n*d term maps
    for coefficient degree d) and the pullback of each dx_I.  Both depend on
    the components alone, so a result never depends on what was pulled
    back before; :meth:`bind_param` returns a new map with empty tables.
    """

    __slots__ = ("_domain_dim", "_components", "_powers", "_pulled_covectors")

    def __init__(self, domain_dim: int, components: Sequence[Polynomial]):
        if domain_dim < 1:
            raise ValueError("domain dimension must be positive")
        for comp in components:
            if comp.num_vars != domain_dim:
                raise ValueError("component variable count must equal the domain dimension")
        self._domain_dim = domain_dim
        self._components = tuple(components)
        self._powers = PowerTable(domain_dim, self._components)
        self._pulled_covectors: dict[Indices, Form] = {}

    def _pulled_covector(self, indices: Indices) -> Form:
        """Pullback of dx_I: the wedge of the differentials d(component_i).

        Computed once per index tuple and kept, so pulling back many forms
        along one map differentiates its components once.  A zero result
        (repeated differentials, or a grade above the domain dimension) is
        the zero form.
        """
        piece = self._pulled_covectors.get(indices)
        if piece is None:
            m = self._domain_dim
            if not indices:
                piece = Form.function(Polynomial.constant(m, 1))
            elif len(indices) == 1:
                comp = self._components[indices[0]]
                piece = Form._from_sums(m, 1, {(j,): comp.partial(j).terms for j in range(m)})
            else:
                piece = wedge(
                    self._pulled_covector(indices[:-1]),
                    self._pulled_covector(indices[-1:]),
                )
            self._pulled_covectors[indices] = piece
        return piece

    @property
    def domain_dim(self) -> int:
        return self._domain_dim

    @property
    def codomain_dim(self) -> int:
        return len(self._components)

    def bind_param(self, value: Fraction) -> "PolyMap":
        return PolyMap(self._domain_dim, [c.bind_param(value) for c in self._components])

    @property
    def components(self) -> tuple[Polynomial, ...]:
        return self._components

    def max_degree(self) -> int:
        degs = [c.total_degree() for c in self._components if not c.is_zero]
        return int(max(degs)) if degs else 0

    @property
    def uses_parameter(self) -> bool:
        return any(c.uses_parameter for c in self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self._domain_dim == other._domain_dim
            and self._components == other._components
        )

    def __repr__(self) -> str:
        return f"PolyMap({self._domain_dim}->{self.codomain_dim})"


def _negated(terms: Mapping[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    return {e: -c for e, c in terms.items()}


def add_terms(sums: FormSums, form: Form) -> None:
    """Add ``form`` into a term map per index tuple, in place."""
    for indices, poly in form.terms.items():
        acc = sums.setdefault(indices, {})
        for exps, c in poly.terms.items():
            old = acc.get(exps)
            acc[exps] = c if old is None else old + c


def _add_ext_d(sums: FormSums, form: Form) -> None:
    """Add ``d form`` into ``sums``; the form must be below top grade."""
    for indices, coeff in form.terms.items():
        for i in range(form.dim):
            merged, sign = merge_indices((i,), indices)
            if merged is None:
                continue
            dp = coeff.partial(i)
            if dp.is_zero:
                continue
            into = sums.setdefault(merged, {})
            for exps, c in dp.terms.items():
                if sign < 0:
                    c = -c
                old = into.get(exps)
                into[exps] = c if old is None else old + c


def _add_interior(sums: FormSums, field: VectorField, form: Form) -> None:
    """Add ``i_X form`` into ``sums``; the form must have positive grade."""
    negated: dict[int, dict[Exponents, Scalar]] = {}
    for indices, coeff in form.terms.items():
        for pos, idx in enumerate(indices):
            comp = field.component(idx)
            if comp.is_zero:
                continue
            factor = comp.terms
            if pos % 2:
                if idx not in negated:
                    negated[idx] = _negated(factor)
                factor = negated[idx]
            reduced = indices[:pos] + indices[pos + 1 :]
            add_product(sums.setdefault(reduced, {}), coeff.terms, factor)


def wedge(left: Form, right: Form) -> Form:
    """Wedge product; grades summing past n give the zero n-form."""
    if left.dim != right.dim:
        raise ValueError("wedge of forms on different spaces")
    n = left.dim
    grade = left.grade + right.grade
    if grade > n:
        return Form.zero(n, n)
    sums: FormSums = {}
    for li, lp in left.terms.items():
        negated = None
        for ri, rp in right.terms.items():
            merged, sign = merge_indices(li, ri)
            if merged is None:
                continue
            factor = lp.terms
            if sign < 0:
                if negated is None:
                    negated = _negated(factor)
                factor = negated
            add_product(sums.setdefault(merged, {}), factor, rp.terms)
    return Form._from_sums(n, grade, sums)


def ext_d(form: Form) -> Form:
    """Exterior derivative; d of a top form is the zero n-form."""
    n = form.dim
    if form.grade >= n:
        return Form.zero(n, n)
    sums: FormSums = {}
    _add_ext_d(sums, form)
    return Form._from_sums(n, form.grade + 1, sums)


def interior(field: VectorField, form: Form) -> Form:
    """Interior product (contraction in the first slot); grade drops by one."""
    if field.dim != form.dim:
        raise ValueError("field and form live on different spaces")
    if form.grade == 0:
        raise ValueError("interior product of a 0-form is undefined")
    sums: FormSums = {}
    _add_interior(sums, field, form)
    return Form._from_sums(form.dim, form.grade - 1, sums)


def lie_derivative(field: VectorField, form: Form) -> Form:
    """Lie derivative via the homotopy formula L_X = i_X d + d i_X.

    Both halves are added into one term map per index tuple; d of a top
    form is zero, and so is i_X of a 0-form.
    """
    if field.dim != form.dim:
        raise ValueError("field and form live on different spaces")
    n, k = form.dim, form.grade
    sums: FormSums = {}
    if k < n:
        _add_interior(sums, field, ext_d(form))
    if k > 0:
        _add_ext_d(sums, interior(field, form))
    return Form._from_sums(n, k, sums)


def pullback(mapping: PolyMap, form: Form) -> Form:
    """Pullback along a polynomial map; the result lives on the domain.

    Coefficients are composed with the map through its power table, and
    each dx_I becomes the wedge of the differentials of the components in
    I.  Every product is added straight into one term map per index tuple
    of the result, so no intermediate form is built.  If the grade exceeds
    the domain dimension the result is the zero form of top grade.
    """
    if mapping.codomain_dim != form.dim:
        raise ValueError("form does not live on the map's codomain")
    m = mapping.domain_dim
    sums: FormSums = {}
    for indices, coeff in form.terms.items():
        piece = mapping._pulled_covector(indices)
        if piece.is_zero:
            continue
        composed = mapping._powers.compose(coeff).terms
        for target, factor in piece.terms.items():
            add_product(sums.setdefault(target, {}), composed, factor.terms)
    return Form._from_sums(m, min(form.grade, m), sums)


def _det_float(rows: list[list]):
    """Small dense determinant by cofactor expansion (k is tiny here).

    Entries are floats or equal-length arrays, as in :func:`eval_form`.
    """
    k = len(rows)
    if k == 0:
        return 1.0
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0.0
    for j in range(k):
        sign = -1.0 if j % 2 else 1.0
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += sign * rows[0][j] * _det_float(minor)
    return total


def eval_form(form: Form, point: Sequence, vectors: Sequence[Sequence]):
    """Evaluate the form at a point on a tuple of tangent vectors.

    ``len(vectors)`` must equal the grade; each vector has ``dim``
    coordinates.  A form that mentions the parameter is bound exactly first.
    Coordinates are floats, or numpy arrays of one length holding many
    samples at once (then ``point`` and each vector may be a ``(dim, S)``
    array); the value is then an array of the values at each sample, each
    equal to the float evaluation there (see :meth:`Polynomial.evaluate`).
    """
    if len(point) != form.dim:
        raise ValueError("point has the wrong number of coordinates")
    if len(vectors) != form.grade:
        raise ValueError(
            f"grade {form.grade} form needs {form.grade} vectors, got {len(vectors)}"
        )
    for v in vectors:
        if len(v) != form.dim:
            raise ValueError("tangent vector has the wrong number of coordinates")
    total = 0.0
    for indices, coeff in form.terms.items():
        rows = [[vectors[col][i] for col in range(form.grade)] for i in indices]
        total += coeff.evaluate(point) * _det_float(rows)
    return total


def check_float_range(form: Form, name: str) -> None:
    """ValueError naming ``name`` and the term if a coefficient has no float value.

    :func:`eval_form` converts every coefficient to a float; one beyond
    float range would raise OverflowError there, mid-evaluation.
    """
    for indices, coeff in form.terms.items():
        for c in coeff.terms.values():
            try:
                c.evaluate()
            except OverflowError:
                raise ValueError(
                    f"{name} has a coefficient beyond float range in its {list(indices)} term"
                ) from None


def covector_names(names: Sequence[str]) -> list[str]:
    return [f"d{name}" for name in names]


def render_form(form: Form, names: Sequence[str] | None = None) -> str:
    """Canonical text: ``(coeff) dx^dy + ...`` with index tuples in lex order."""
    if names is None:
        names = default_var_names(form.dim)
    elif len(names) != form.dim:
        raise ValueError("wrong number of variable names")
    return _join_terms(
        [(indices, render_poly(form.terms[indices], names)) for indices in sorted(form.terms)],
        names,
    )


def _join_terms(terms: Sequence[tuple[Indices, str]], names: Sequence[str]) -> str:
    """The text of :func:`render_form` from its rendered coefficients, in lex order of indices."""
    if not terms:
        return "0"
    dnames = covector_names(names)
    return " + ".join(
        f"({coeff}) {'^'.join(dnames[i] for i in indices)}" if indices else f"({coeff})"
        for indices, coeff in terms
    )
