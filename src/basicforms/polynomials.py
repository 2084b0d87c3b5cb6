"""Multivariate polynomials over the exact scalar field.

A polynomial in n variables is a sparse map from exponent tuples (length n)
to nonzero :class:`~basicforms.scalars.Scalar` coefficients.  The zero
polynomial has an empty term map and total degree ``-inf`` (a sentinel that
keeps ``max`` arithmetic honest; it is never ``-1``).

Canonical term order everywhere is graded lexicographic: lower total degree
first, then lexicographic with earlier variables ranked higher.  Rendering
(see :func:`render_poly`) lists terms highest first, which is what
:func:`basicforms.expressions.parse_poly_expr` reads back.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

from .scalars import ONE, Scalar, ScalarLike

Exponents = tuple[int, ...]

NEG_INF = float("-inf")


def default_var_names(num_vars: int) -> tuple[str, ...]:
    if num_vars <= 4:
        return ("x", "y", "z", "w")[:num_vars]
    return tuple(f"x{i + 1}" for i in range(num_vars))


class Polynomial:
    """Immutable sparse polynomial with Scalar coefficients."""

    __slots__ = ("_num_vars", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponents, ScalarLike]):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {num_vars} variables")
            c = Scalar.of(coeff)
            if not c.is_zero:
                clean[exps] = c
        self._num_vars = num_vars
        self._terms = clean

    @classmethod
    def _from_sums(cls, num_vars: int, sums: Mapping[Exponents, Scalar]) -> "Polynomial":
        """Polynomial from a term map of exact sums, dropping the zeros.

        For maps this package built itself (see :func:`add_product`): the
        exponent tuples are already valid and the values already Scalars,
        so the checks of ``__init__`` are skipped.
        """
        out = cls.__new__(cls)
        out._num_vars = num_vars
        out._terms = {e: c for e, c in sums.items() if not c.is_zero}
        return out

    @staticmethod
    def zero(num_vars: int) -> "Polynomial":
        return Polynomial(num_vars, {})

    @staticmethod
    def constant(num_vars: int, value: ScalarLike) -> "Polynomial":
        return Polynomial(num_vars, {(0,) * num_vars: Scalar.of(value)})

    @staticmethod
    def variable(num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return Polynomial(num_vars, {exps: 1})

    @staticmethod
    def parameter(num_vars: int) -> "Polynomial":
        return Polynomial.constant(num_vars, Scalar.parameter())

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def uses_parameter(self) -> bool:
        return any(c.uses_parameter for c in self._terms.values())

    def total_degree(self) -> Union[int, float]:
        if not self._terms:
            return NEG_INF
        return max(sum(e) for e in self._terms)

    def constant_coefficient(self) -> Scalar:
        return self._terms.get((0,) * self._num_vars, Scalar.of(0))

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def _check_same_space(self, other: "Polynomial") -> None:
        if self._num_vars != other._num_vars:
            raise ValueError(
                f"variable count mismatch: {self._num_vars} vs {other._num_vars}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_space(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, Scalar.of(0)) + c
        return Polynomial(self._num_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self._num_vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_space(other)
        out: dict[Exponents, Scalar] = {}
        add_product(out, self._terms, other._terms)
        return Polynomial._from_sums(self._num_vars, out)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self._num_vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, factor: ScalarLike) -> "Polynomial":
        f = Scalar.of(factor)
        return Polynomial(self._num_vars, {e: c * f for e, c in self._terms.items()})

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self._num_vars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Exponents, Scalar] = {}
        for exps, c in self._terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[lowered] = c * e
        return Polynomial._from_sums(self._num_vars, out)

    def bind_param(self, value: Fraction) -> "Polynomial":
        """Substitute an exact rational for the parameter in every coefficient."""
        return Polynomial(
            self._num_vars, {e: c.bind(value) for e, c in self._terms.items()}
        )

    def evaluate(self, point: Sequence):
        """Float value at a numeric point; bind ``a`` exactly first.

        A coefficient that mentions ``a`` raises
        :class:`~basicforms.scalars.UnboundParameterError`.  Each coordinate
        is a float, or a numpy array with one entry per sample (all of one
        length); the value is then an array too, or a float when the
        polynomial is constant.  Both kinds take the same
        arithmetic, so an array entry equals the float value at that sample.
        Powers are repeated products, ``x^3 = (x*x)*x``, never ``**``: a
        product flips sign exactly with its factor, so odd polynomials stay
        exactly odd, and numpy's ``**`` is neither odd-symmetric nor equal
        to Python's float power on every input.
        """
        if len(point) != self._num_vars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self._num_vars}"
            )
        powers = [[1.0, x] for x in point]
        total = 0.0
        for exps, c in self._terms.items():
            v = c.evaluate()
            for table, e in zip(powers, exps):
                if e:
                    while len(table) <= e:
                        table.append(table[-1] * table[1])
                    v = v * table[e]
            total = total + v
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._num_vars == other._num_vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._num_vars, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self._num_vars}, {self})"


def add_product(
    into: dict[Exponents, Scalar],
    left: Mapping[Exponents, Scalar],
    right: Mapping[Exponents, Scalar],
) -> None:
    """Add the product of two term maps into ``into``, term by term.

    Nothing is copied: each product coefficient is added in place.  A sum
    that cancels stays in ``into`` as a zero Scalar until the map becomes a
    polynomial, which drops it.  The expression parser also passes maps
    whose coefficients are still ints and Fractions.
    """
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exps = tuple(map(add, e1, e2))
            old = into.get(exps)
            into[exps] = c1 * c2 if old is None else old + c1 * c2


class PowerTable:
    """Composition with a polynomial map, through a table of powers.

    ``compose(p)`` replaces variable i of ``p`` by ``images[i]``.  The power
    ``images[i]**e`` is built once, by one product with the power below
    it, and kept; each term of ``p`` then costs one product per variable it
    mentions, added straight into one term map for the result.  A table
    held by a map serves every polynomial composed through that map.  Only
    powers are kept, never the image of a whole monomial, so a table holds
    at most ``n*d`` term maps for ``n`` images and degree ``d``.
    """

    __slots__ = ("_num_vars", "_origin", "_powers")

    def __init__(self, num_vars: int, images: Sequence[Polynomial]):
        """``num_vars`` is the variable count of the images and results."""
        for img in images:
            if img.num_vars != num_vars:
                raise ValueError("substitution images live in different spaces")
        self._num_vars = num_vars
        self._origin = (0,) * num_vars
        unit = {self._origin: ONE}
        self._powers = [[unit, img.terms] for img in images]

    def _power(self, i: int, e: int) -> Mapping[Exponents, Scalar]:
        table = self._powers[i]
        while len(table) <= e:
            step: dict[Exponents, Scalar] = {}
            add_product(step, table[-1], table[1])
            table.append({x: c for x, c in step.items() if not c.is_zero})
        return table[e]

    def compose(self, poly: Polynomial) -> Polynomial:
        """``poly`` with variable i replaced by the i-th image."""
        if poly.num_vars != len(self._powers):
            raise ValueError(
                f"expected {poly.num_vars} substitution images, got {len(self._powers)}"
            )
        out: dict[Exponents, Scalar] = {}
        for exps, c in poly.terms.items():
            term: Mapping[Exponents, Scalar] = {self._origin: c}
            factors = [self._power(i, e) for i, e in enumerate(exps) if e]
            if not factors:
                factors = [{self._origin: ONE}]
            for factor in factors[:-1]:
                step: dict[Exponents, Scalar] = {}
                add_product(step, term, factor)
                term = step
            add_product(out, term, factors[-1])
        return Polynomial._from_sums(self._num_vars, out)


def _monomial_str(exps: Exponents, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _scalar_factor_str(c: Scalar) -> str:
    """Scalar rendered so that appending '*monomial' reparses correctly."""
    text = str(c)
    if " " in text or "/" in text:
        return f"({text})"
    return text


def render_poly(poly: Polynomial, names: Sequence[str] | None = None) -> str:
    """Canonical text form, graded-lex highest term first.

    The output is valid input for ``parse_poly_expr`` with the same variable
    names.
    """
    if names is None:
        names = default_var_names(poly.num_vars)
    elif len(names) != poly.num_vars:
        raise ValueError("wrong number of variable names")
    if poly.is_zero:
        return "0"
    pieces: list[str] = []
    # highest total degree first, earlier variables major within a degree
    render_key = lambda e: (-sum(e), tuple(-c for c in e))
    for exps in sorted(poly.terms, key=render_key):
        c = poly.terms[exps]
        mono = _monomial_str(exps, names)
        negative = c.sign() < 0
        mag = -c if negative else c
        if not mono:
            body = str(mag)
            if negative and " " in body:
                # keep -(a + 1) from flattening into -a + 1
                body = f"({body})"
        elif mag.is_one:
            body = mono
        else:
            body = f"{_scalar_factor_str(mag)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
