"""Exact scalars: rational functions in one formal parameter.

The coefficient field for everything symbolic in this package is Q(a), the
field of rational functions in a single formal parameter ``a`` with rational
coefficients.  Plain rationals embed as constant functions, so code that never
mentions ``a`` pays only a small bookkeeping cost over raw ``int`` and
``Fraction``.

A :class:`Scalar` is stored as a pair of univariate polynomials (numerator,
denominator) over Q, kept coprime with a monic denominator, so structural
equality is field equality.  No floats ever enter a ``Scalar``, and ``a`` is
never floated: :meth:`Scalar.evaluate` gives the float of a plain rational
only, so a scalar that mentions ``a`` is bound exactly with
:meth:`Scalar.bind` first, and raises :class:`UnboundParameterError`
otherwise.

Rational fast path.  A rational coefficient is a Python ``int`` when it is
integral and a ``Fraction`` only when its denominator is not 1; ``_q`` keeps
that form for every stored coefficient, and every coefficient quotient goes
through ``_div``, which divides two ints exactly (an ``int`` when the
division is exact, a ``Fraction`` otherwise) so no float can arise.  Every
scalar whose denominator is 1 holds the one module-level tuple ``_UNIT`` as
its denominator, so "is a plain rational" is an identity test on the
denominator plus a numerator of length at most one.  When both operands of
``+``, ``-``, ``*`` or ``/`` are rational, the operator combines their two
coefficients directly (after the shortcuts for a 0 or 1 operand) and builds
the result unchecked.  A product or quotient of a scalar that involves ``a``
and a nonzero rational scales that scalar's numerator, which keeps it
coprime to the monic denominator, so it is built unchecked too; only the
other scalars that involve ``a`` go through the univariate polynomial
arithmetic and the normalising constructor.  An
``int`` and a ``Fraction`` of equal value compare and hash equal, so neither
the coefficient type nor the route that built a scalar shows in equality,
hashing or rendering, and :meth:`Scalar.as_fraction` still returns a
``Fraction``.  Only the public operators of ``int`` and ``Fraction`` are
used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

PARAM_NAME = "a"

ScalarLike = Union["Scalar", int, Fraction]

# A rational coefficient: an int, or a Fraction whose denominator is not 1.
Rational = Union[int, Fraction]

# Univariate polynomials over Q: tuple of coefficients, low degree first, no
# trailing zeros.  () is the zero polynomial.
Coeffs = tuple[Rational, ...]

# The denominator of every scalar that does not involve a (see the module
# docstring): shared, so that the rational test is ``den is _UNIT``.
_UNIT: Coeffs = (1,)


class UnboundParameterError(ValueError):
    """Raised when a numeric evaluation needs a value for the parameter."""


def _q(value: Rational) -> Rational:
    """The stored form of a rational coefficient: an integral Fraction as its int."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _qheight(c: Rational) -> int:
    """The larger of a rational coefficient's |numerator| and denominator."""
    return abs(c) if type(c) is int else max(abs(c.numerator), c.denominator)


def _div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b; two ints give an int when b divides a."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return a / b


def _trim(coeffs: Sequence[Rational]) -> Coeffs:
    """Drop trailing zeros and put every coefficient in its stored form."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(map(_q, coeffs[:n]))


def _uadd(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _umul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    if p == _UNIT:
        return q
    if q == _UNIT:
        return p
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _uscale(p: Coeffs, c: Rational) -> Coeffs:
    if c == 0:
        return ()
    # c on the left: a Fraction times an int takes Fraction's fast forward path
    return tuple([_q(c * a) if a else 0 for a in p])


def _udivmod(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Euclidean division of univariate polynomials, q nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [0] * max(len(p) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = _div(c, lead)
        quo[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return _trim(quo), _trim(rem)


def _ugcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic gcd; gcd(0, 0) = 0."""
    while q:
        p, q = q, _udivmod(p, q)[1]
    if not p:
        return ()
    return _uscale(p, _div(1, p[-1]))


def _ueval_fraction(p: Coeffs, value: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * value + c
    return acc


def _ustr(p: Coeffs) -> str:
    """Render a univariate polynomial in the parameter, highest degree first."""
    if not p:
        return "0"
    parts: list[str] = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            var = PARAM_NAME if d == 1 else f"{PARAM_NAME}^{d}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class Scalar:
    """An element of Q(a), immutable and hashable.

    Use :meth:`of` to coerce ints and Fractions, :meth:`parameter` for ``a``
    itself.  Arithmetic operators accept plain ints and Fractions on either
    side.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Coeffs, den: Coeffs = _UNIT):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            den = _UNIT
        elif len(den) > 1 or den[0] != 1:
            g = _ugcd(num, den)
            if len(g) > 1 or g[0] != 1:
                num = _udivmod(num, g)[0]
                den = _udivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                inv = _div(1, lead)
                num = _uscale(num, inv)
                den = _uscale(den, inv)
        if len(den) == 1:
            den = _UNIT
        self._num = num
        self._den = den

    @staticmethod
    def _rational(value: Rational) -> "Scalar":
        """The scalar of one rational coefficient, built without the checks of ``__init__``."""
        out = object.__new__(Scalar)
        out._num = (_q(value),) if value else ()
        out._den = _UNIT
        return out

    def _scaled(self, c: Rational) -> "Scalar":
        """This scalar times a nonzero rational, built without the checks of ``__init__``.

        The numerator and denominator stay coprime, and the denominator monic.
        """
        out = object.__new__(Scalar)
        out._num = _uscale(self._num, c)
        out._den = self._den
        return out

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if type(value) is int or type(value) is Fraction:
            return Scalar._rational(value)
        # bool and other subclasses are stored as a plain int or Fraction
        if isinstance(value, (int, Fraction)):
            return Scalar._rational(Fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    @staticmethod
    def parameter() -> "Scalar":
        return Scalar((0, 1))

    def __reduce__(self):
        # rebuilt through __init__, which restores the shared _UNIT
        return (Scalar, (self._num, self._den))

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        num = self._num
        return self._den is _UNIT and len(num) == 1 and num[0] == 1

    @property
    def is_rational(self) -> bool:
        """True when the value is a plain rational (no dependence on a)."""
        return self._den is _UNIT and len(self._num) <= 1

    @property
    def uses_parameter(self) -> bool:
        return self._den is not _UNIT or len(self._num) > 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise UnboundParameterError(f"scalar {self} depends on the parameter")
        value = self._num[0] if self._num else 0
        return value if type(value) is Fraction else Fraction(value)

    def sign(self) -> int:
        """Sign of the leading numerator coefficient (denominator is monic)."""
        if not self._num:
            return 0
        return 1 if self._num[-1] > 0 else -1

    @property
    def param_degree(self) -> int:
        """The larger degree in ``a`` of the numerator and the denominator."""
        return max(len(self._num), len(self._den)) - 1

    @property
    def height(self) -> int:
        """The largest numerator or denominator of its rational coefficients."""
        num = self._num
        if self._den is _UNIT and len(num) == 1:
            return _qheight(num[0])
        return max(map(_qheight, num + self._den))

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar.of(other)
        sn, on = self._num, o._num
        if not sn:
            return o
        if not on:
            return self
        if self._den is _UNIT and o._den is _UNIT:
            if len(sn) == 1 and len(on) == 1:
                return Scalar._rational(sn[0] + on[0])
            return Scalar(_uadd(sn, on))
        num = _uadd(_umul(sn, o._den), _umul(on, self._den))
        return Scalar(num, _umul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        num = self._num
        if self._den is _UNIT and len(num) <= 1:
            return Scalar._rational(-num[0]) if num else self
        return self._scaled(-1)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar.of(other)
        sn, on = self._num, o._num
        if (
            sn and on
            and self._den is _UNIT and o._den is _UNIT
            and len(sn) == 1 and len(on) == 1
        ):
            return Scalar._rational(sn[0] - on[0])
        return self + (-o)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar.of(other)
        sn, on = self._num, o._num
        # the 0 and 1 shortcuts come before any product
        if not sn:
            return self
        if not on:
            return o
        if o._den is _UNIT and len(on) == 1:
            b = on[0]
            if b == 1:
                return self
            if self._den is _UNIT and len(sn) == 1:
                a = sn[0]
                return o if a == 1 else Scalar._rational(a * b)
            return self._scaled(b)
        if self._den is _UNIT and len(sn) == 1:
            a = sn[0]
            return o if a == 1 else o._scaled(a)
        return Scalar(_umul(sn, on), _umul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar.of(other)
        sn, on = self._num, o._num
        if not on:
            raise ZeroDivisionError("scalar division by zero")
        if not sn:
            return self
        if o._den is _UNIT and len(on) == 1:
            b = on[0]
            if b == 1:
                return self
            if self._den is _UNIT and len(sn) == 1:
                return Scalar._rational(_div(sn[0], b))
            return self._scaled(_div(1, b))
        return Scalar(_umul(sn, o._den), _umul(self._den, on))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return Scalar.of(1) / self ** (-exponent)
        out = Scalar.of(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # an int hashes like the Fraction of equal value
        num = self._num
        if self._den is _UNIT and len(num) <= 1:
            return hash(num[0]) if num else 0
        return hash((num, self._den))

    def bind(self, value: Fraction) -> "Scalar":
        """Substitute an exact rational for the parameter.

        Raises ZeroDivisionError if the denominator vanishes at ``value``.
        """
        value = Fraction(value)
        den = _ueval_fraction(self._den, value)
        if den == 0:
            raise ZeroDivisionError(
                f"denominator of {self} vanishes at {PARAM_NAME} = {value}"
            )
        return Scalar._rational(_ueval_fraction(self._num, value) / den)

    def evaluate(self) -> float:
        """Float value; a scalar that mentions ``a`` needs :meth:`bind` first."""
        return float(self.as_fraction())

    def __str__(self) -> str:
        num = _ustr(self._num)
        if self._den is _UNIT:
            return num
        den = _ustr(self._den)
        num_part = num if _is_atom(num) else f"({num})"
        den_part = den if _is_simple_atom(den) else f"({den})"
        return f"{num_part}/{den_part}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _is_atom(text: str) -> bool:
    """True when the string needs no parentheses as a numerator."""
    return not any(ch in text for ch in " +") or text.lstrip("-").isdigit()


def _is_simple_atom(text: str) -> bool:
    """True when the string needs no parentheses as a denominator."""
    return text.isdigit() or text == PARAM_NAME


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
PARAM = Scalar.parameter()
