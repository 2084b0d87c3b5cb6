"""Recursive descent parser for polynomial coefficient expressions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' integer)?
    atom   := integer | identifier | '(' expr ')'

Identifiers are the declared variable names plus the reserved parameter
``a``.  Rationals are written ``p/q``; division is only allowed by nonzero
constant expressions (which may involve ``a``), never by variables.
Exponents must be literal non-negative integers of at most
``MAX_EXPONENT``; nor may the exponents of nested powers, such as
``(x^16)^32``, multiply past it, or a power or a product have a higher
total degree, as ``(x*y)^200`` or ``x*x*...*x`` with 300 factors would (a
sum is no higher than its terms).  The degree in ``a`` of a product, a
quotient or a power (the larger of its numerator and denominator degree)
is predicted before it is computed and bounded the same way, so
``(a*a*a)^100`` and ``(1+a)*(1+a)*...`` with 300 factors are refused too.
Numbers are ASCII digits, at most ``MAX_DIGITS`` of them, as are those of a
coefficient; those of a product, a quotient or a power are predicted first.
Parentheses and unary minus signs nest fewer than ``MAX_NESTING`` deep.  A
hostile expression is thus a parse error rather than a blown interpreter
stack, or a power or a product that exhausts memory or time.

Each rule builds a term map ``{exponents: coefficient}`` with no zero
coefficient, and only the whole expression becomes a ``Polynomial``.  A
coefficient stays a Python ``int`` or ``Fraction`` (the stored form of
:mod:`basicforms.scalars`) until ``a`` enters it, and is a ``Scalar`` from
then on; ``Scalar``'s operators accept ints and Fractions, so one set of
operations serves every coefficient.  Every bound is computed from the
term maps.  Errors carry the character position and a description of
what was expected, so job files can point at the offending column.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polynomials import Polynomial, add_product
from .scalars import PARAM, PARAM_NAME, Scalar, _div, _q, _qheight


class ParseError(ValueError):
    """Syntax or semantic error in an expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# Each level of parentheses is three parser frames, well inside Python's
# default recursion limit of 1000 even when called from a deep stack.
MAX_NESTING = 100

# Largest exponent literal, product of the exponents of nested powers, and
# total degree, or degree in a, of a power or a product.  Far above any
# window degree a job can solve, yet ``x^100000``, or a product of 100000
# factors ``x``, would make every numeric evaluation keep 100000 powers of
# each sample array (a MemoryError under a 1 GB address-space cap), a basis
# job translating by ``3^3000000`` ran for minutes, and 2000 factors
# ``(1+a)`` took 20 s to parse.  ``(1 + a)^256`` parses in about 4 ms
# (Python 3.11).
MAX_EXPONENT = 256

# Most digits of a literal, and of any numerator or denominator a product,
# quotient or power is predicted to have: Python prints no longer int.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
_DIGITS = "0123456789"
# When the power times the heights' summed bit lengths is below this, the
# predicted digits are below MAX_DIGITS - 1: the log10 estimate is skipped.
_SAFE_BITS = (MAX_DIGITS - 1) * math.log2(10)


def _measure(terms: dict) -> tuple[int, int, int]:
    """Total degree, degree in ``a`` and height (largest numerator or
    denominator) of a term map; (0, 0, 1) when it is empty."""
    degree = param = 0
    height = 1
    for exps, c in terms.items():
        d = sum(exps)
        if d > degree:
            degree = d
        if type(c) is Scalar:
            param = max(param, c.param_degree)
            h = c.height
        else:
            h = _qheight(c)
        if h > height:
            height = h
    return degree, param, height


def _check(what: str, position: int, degree: int, param: int, heights, power: int = 1) -> None:
    """Refuse a product, quotient or power whose predicted size is past a bound."""
    for value, where in ((degree, ""), (param, f" in {PARAM_NAME}")):
        if value > MAX_EXPONENT:
            raise ParseError(
                f"{what} of degree {value}{where} is past the limit of {MAX_EXPONENT}", position
            )
    if power * sum(map(int.bit_length, heights)) < _SAFE_BITS:
        return
    digits = power * sum(math.log10(h) for h in heights)
    if digits >= MAX_DIGITS:
        raise ParseError(
            f"{what} with about {int(digits) + 1} digits is past the limit of {MAX_DIGITS}",
            position,
        )


def _product(left: dict, right: dict) -> dict:
    out: dict = {}
    add_product(out, left, right)
    if len(left) > 1 and len(right) > 1:  # only then can terms cancel
        return {e: c for e, c in out.items() if c != 0}
    return out


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, position) tuples; kind is number, ident, end or the operator."""
    tokens: list[tuple] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        start = i
        i += 1
        if ch in "+-*/^()":
            tokens.append((ch, ch, start))
        elif ch in _DIGITS:
            while i < n and text[i] in _DIGITS:
                i += 1
            # decimal literals stay exact: Fraction("0.5") == 1/2
            if i + 1 < n and text[i] == "." and text[i + 1] in _DIGITS:
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i - start - ("." in text[start:i]) > MAX_DIGITS:
                raise ParseError(f"number with more than {MAX_DIGITS} digits", start)
            tokens.append(("number", text[start:i], start))
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple], var_names: Sequence[str]):
        self._tokens = tokens
        self._pos = 0
        self._vars = {name: i for i, name in enumerate(var_names)}
        self._origin = (0,) * len(var_names)
        self._depth = 0
        # largest product of nested exponents in what was parsed last
        self._power_weight = 1

    def parse(self) -> Polynomial:
        terms = self._expr()
        kind, text, position = self._tokens[self._pos]
        if kind != "end":
            raise ParseError(
                f"unexpected {text!r}; expected '+', '-', '*', '/', '^' or end of input",
                position,
            )
        if _measure(terms)[2] >= _TOO_LONG:  # a sum is not predicted
            raise ParseError(f"a coefficient has more than {MAX_DIGITS} digits", 0)
        return Polynomial._from_sums(
            len(self._origin),
            {e: c if type(c) is Scalar else Scalar._rational(c) for e, c in terms.items()},
        )

    def _expr(self) -> dict:
        terms = self._term()  # every rule builds a new map, so this one is ours to extend
        sign = self._tokens[self._pos][0]
        while sign == "+" or sign == "-":
            self._pos += 1
            for exps, c in self._term().items():
                if sign == "-":
                    c = -c
                if exps in terms:
                    c = terms[exps] + c
                if c == 0:
                    del terms[exps]
                else:
                    terms[exps] = c
            sign = self._tokens[self._pos][0]
        return terms

    def _term(self) -> dict:
        value = self._factor()
        while True:
            op, _, position = self._tokens[self._pos]
            if op == "*":
                self._pos += 1
                rhs = self._factor()
                (d1, p1, h1), (d2, p2, h2) = _measure(value), _measure(rhs)
                _check("product", position, d1 + d2, p1 + p2, (h1, h2))
                value = _product(value, rhs)
            elif op == "/":
                self._pos += 1
                den = self._factor()
                degree, den_param, den_height = _measure(den)
                if degree:
                    raise ParseError("division by a non-constant expression", position)
                if not den:
                    raise ParseError("division by zero", position)
                _, num_param, num_height = _measure(value)
                _check("quotient", position, 0, num_param + den_param, (num_height, den_height))
                c = den[self._origin]
                value = {e: _div(x, c) for e, x in value.items()}
            else:
                return value

    def _factor(self) -> dict:
        # the rules factor, power and atom; each sign is a level of nesting
        signs = 0
        while True:
            kind, text, position = self._tokens[self._pos]
            self._pos += 1
            self._depth += 1
            if self._depth > MAX_NESTING:
                raise ParseError(f"parentheses and signs nest {MAX_NESTING} or more deep", position)
            if kind != "-":
                break
            signs += 1
        outer = self._power_weight
        self._power_weight = 1
        if kind == "number":
            value = int(text) if text.isdigit() else _q(Fraction(text))
            base = {self._origin: value} if value else {}
        elif kind == "ident" and text == PARAM_NAME:
            base = {self._origin: PARAM}
        elif kind == "ident" and text in self._vars:
            i = self._vars[text]
            base = {self._origin[:i] + (1,) + self._origin[i + 1 :]: 1}
        elif kind == "ident":
            known = ", ".join(sorted(self._vars) + [PARAM_NAME])
            raise ParseError(f"unknown identifier {text!r} (known: {known})", position)
        elif kind == "(":
            base = self._expr()
            kind, _, position = self._tokens[self._pos]
            if kind != ")":
                raise ParseError("expected ')'", position)
            self._pos += 1
        else:
            raise ParseError(
                f"unexpected {text or 'end of input'!r}; expected a number, "
                "identifier, '(' or '-'",
                position,
            )
        weight = self._power_weight
        if self._tokens[self._pos][0] == "^":
            kind, text, position = self._tokens[self._pos + 1]
            if kind != "number" or not text.isdigit():
                raise ParseError("exponent must be a non-negative integer literal", position)
            exponent = int(text)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}", position
                )
            weight *= max(exponent, 1)
            if weight > MAX_EXPONENT:
                raise ParseError(
                    f"nested powers multiply to an exponent of {weight}, "
                    f"past the limit of {MAX_EXPONENT}",
                    position,
                )
            degree, param, height = _measure(base)
            _check("power", position, degree * exponent, param * exponent, (height,), exponent)
            self._pos += 2
            power, base = base, {self._origin: 1}
            while exponent:  # by repeated squaring
                if exponent & 1:
                    base = _product(base, power)
                exponent >>= 1
                if exponent:
                    power = _product(power, power)
        self._power_weight = max(outer, weight)
        self._depth -= signs + 1
        return {e: -c for e, c in base.items()} if signs & 1 else base


def parse_poly_expr(text: str, var_names: Sequence[str]) -> Polynomial:
    """Parse an expression into a polynomial over the declared variables.

    ``a`` always denotes the formal parameter and cannot be declared as a
    variable name.
    """
    names = list(var_names)
    if PARAM_NAME in names:
        raise ValueError(f"{PARAM_NAME!r} is reserved for the formal parameter")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _Parser(_tokenize(text), names).parse()


def parse_scalar_expr(text: str) -> Scalar:
    """Parse a constant expression (numbers and ``a`` only) into a scalar."""
    return parse_poly_expr(text, []).constant_coefficient()
