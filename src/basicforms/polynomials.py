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
from typing import Mapping, Sequence, Union

from .scalars import Scalar, ScalarLike

Exponents = tuple[int, ...]

NEG_INF = float("-inf")


def grlex_key(exponents: Exponents) -> tuple:
    """Sort key for graded lexicographic order, ascending."""
    return (sum(exponents), tuple(-e for e in exponents))


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
            if c.is_zero:
                continue
            if exps in clean:
                c = clean[exps] + c
                if c.is_zero:
                    del clean[exps]
                    continue
            clean[exps] = c
        self._num_vars = num_vars
        self._terms = clean

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
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(exps)
                out[exps] = c1 * c2 if acc is None else acc + c1 * c2
        return Polynomial(self._num_vars, out)

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
            lowered = tuple(v - 1 if i == index else v for i, v in enumerate(exps))
            out[lowered] = out.get(lowered, Scalar.of(0)) + c * e
        return Polynomial(self._num_vars, out)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose with a polynomial map: variable i is replaced by images[i].

        All images must share a common variable count, which becomes the
        variable count of the result.
        """
        if len(images) != self._num_vars:
            raise ValueError(
                f"expected {self._num_vars} substitution images, got {len(images)}"
            )
        if self._num_vars == 0:
            raise ValueError("substitution into a 0-variable polynomial is ambiguous")
        m = images[0].num_vars
        for img in images:
            if img.num_vars != m:
                raise ValueError("substitution images live in different spaces")
        out = Polynomial.zero(m)
        # cache powers per variable to keep repeated exponents cheap
        powers: list[dict[int, Polynomial]] = [
            {0: Polynomial.constant(m, 1)} for _ in range(self._num_vars)
        ]

        def power(i: int, e: int) -> Polynomial:
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * images[i]
            return cache[e]

        for exps, c in self._terms.items():
            term = Polynomial.constant(m, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def bind_param(self, value: Fraction) -> "Polynomial":
        """Substitute an exact rational for the parameter in every coefficient."""
        return Polynomial(
            self._num_vars, {e: c.bind(value) for e, c in self._terms.items()}
        )

    def evaluate(self, point: Sequence, bind_a: float | None = None):
        """Float value at a numeric point.

        Each coordinate is a float, or a numpy array with one entry per
        sample (all of one length); the value is then an array too, or a
        float when the polynomial is constant.  Both kinds take the same
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
            v = c.evaluate(bind_a)
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
