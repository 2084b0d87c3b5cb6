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
Parentheses and unary minus signs nest fewer than ``MAX_NESTING`` deep.  A hostile expression is thus a parse
error rather than a blown interpreter stack, or a power or a product that
exhausts memory or time.

Errors carry the character position and a description of what was expected,
so job files can point at the offending column.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .polynomials import Polynomial
from .scalars import PARAM_NAME, Scalar


class ParseError(ValueError):
    """Syntax or semantic error in an expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class _Token(NamedTuple):
    kind: str  # number | ident | op | end
    text: str
    position: int


_OPS = set("+-*/^()")

# Each level is at most five parser frames, well inside Python's default
# recursion limit of 1000 even when called from a deep stack.
MAX_NESTING = 100

# Largest exponent literal, product of the exponents of nested powers, and
# total degree, or degree in a, of a power or a product.  Far above any
# window degree a job can solve, yet ``x^100000``, or a product of 100000
# factors ``x``, would make every numeric evaluation keep 100000 powers of
# each sample array (a MemoryError under a 1 GB address-space cap), a basis
# job translating by ``3^3000000`` ran for minutes, and 2000 factors
# ``(1+a)`` took 20 s to parse.  ``(1 + a)^256`` parses in about a third
# of a second.
MAX_EXPONENT = 256

# Most digits of a literal, and of any numerator or denominator a product,
# quotient or power is predicted to have: Python prints no longer int.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
_DIGITS = "0123456789"


def _param_degree(poly: Polynomial) -> int:
    """The highest degree in ``a`` of a coefficient's numerator or denominator."""
    return max((c.param_degree for c in poly.terms.values()), default=0)


def _check_degree(what: str, degree: int, position: int, in_a: bool = False) -> None:
    if degree > MAX_EXPONENT:
        where = f" in {PARAM_NAME}" if in_a else ""
        raise ParseError(
            f"{what} of degree {degree}{where} is past the limit of {MAX_EXPONENT}",
            position,
        )


def _check_digits(what: str, position: int, *factors: Polynomial, power: int = 1) -> None:
    digits = power * sum(
        math.log10(max((c.height for c in f.terms.values()), default=1)) for f in factors
    )
    if digits >= MAX_DIGITS:
        raise ParseError(
            f"{what} with about {int(digits) + 1} digits is past the limit of {MAX_DIGITS}",
            position,
        )


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            # decimal literals stay exact: Fraction("0.5") == 1/2
            if i + 1 < n and text[i] == "." and text[i + 1] in _DIGITS:
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i - start - ("." in text[start:i]) > MAX_DIGITS:
                raise ParseError(f"number with more than {MAX_DIGITS} digits", start)
            tokens.append(_Token("number", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var_names: Sequence[str]):
        self._tokens = tokens
        self._pos = 0
        self._vars = {name: i for i, name in enumerate(var_names)}
        self._num_vars = len(var_names)
        self._depth = 0
        # largest product of nested exponents in what was parsed last
        self._power_weight = 1

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok.kind == "op" and tok.text == op:
            self._advance()
            return
        raise ParseError(f"expected {op!r}", tok.position)

    def parse(self) -> Polynomial:
        value = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {tok.text!r}; expected '+', '-', '*', '/', '^' or end of input",
                tok.position,
            )
        if any(c.height >= _TOO_LONG for c in value.terms.values()):  # a sum is not predicted
            raise ParseError(f"a coefficient has more than {MAX_DIGITS} digits", 0)
        return value

    def _expr(self) -> Polynomial:
        sums = dict(self._term().terms)  # one term map for the whole sum
        while True:
            tok = self._peek()
            if not (tok.kind == "op" and tok.text in "+-"):
                return Polynomial._from_sums(self._num_vars, sums)
            self._advance()
            rhs = self._term()
            for exps, c in (rhs if tok.text == "+" else -rhs).terms.items():
                sums[exps] = sums[exps] + c if exps in sums else c

    def _term(self) -> Polynomial:
        value = self._factor()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in "*/":
                self._advance()
                rhs = self._factor()
                if tok.text == "*":
                    degree = max(value.total_degree(), 0) + max(rhs.total_degree(), 0)
                    _check_degree("product", degree, tok.position)
                    degree = _param_degree(value) + _param_degree(rhs)
                    _check_degree("product", degree, tok.position, in_a=True)
                    _check_digits("product", tok.position, value, rhs)
                    value = value * rhs
                else:
                    value = self._divide(value, rhs, tok.position)
            else:
                return value

    def _divide(self, num: Polynomial, den: Polynomial, position: int) -> Polynomial:
        if not den.is_constant():
            raise ParseError("division by a non-constant expression", position)
        c = den.constant_coefficient()
        if c.is_zero:
            raise ParseError("division by zero", position)
        _check_degree("quotient", _param_degree(num) + c.param_degree, position, in_a=True)
        _check_digits("quotient", position, num, den)
        return num.scale(Scalar.of(1) / c)

    def _factor(self) -> Polynomial:
        tok = self._peek()
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"parentheses and signs nest {MAX_NESTING} or more deep",
                tok.position,
            )
        if tok.kind == "op" and tok.text == "-":
            self._advance()
            value = -self._factor()
        else:
            value = self._power()
        self._depth -= 1
        return value

    def _power(self) -> Polynomial:
        outer = self._power_weight
        self._power_weight = 1
        base = self._atom()
        weight = self._power_weight
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            self._advance()
            exp_tok = self._peek()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                raise ParseError(
                    "exponent must be a non-negative integer literal", exp_tok.position
                )
            exponent = int(exp_tok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}",
                    exp_tok.position,
                )
            weight *= max(exponent, 1)
            if weight > MAX_EXPONENT:
                raise ParseError(
                    f"nested powers multiply to an exponent of {weight}, "
                    f"past the limit of {MAX_EXPONENT}",
                    exp_tok.position,
                )
            degree = max(base.total_degree(), 0) * exponent
            _check_degree("power", degree, exp_tok.position)
            _check_degree("power", _param_degree(base) * exponent, exp_tok.position, in_a=True)
            _check_digits("power", exp_tok.position, base, power=exponent)
            self._advance()
            base = base ** exponent
        self._power_weight = max(outer, weight)
        return base

    def _atom(self) -> Polynomial:
        tok = self._advance()
        if tok.kind == "number":
            return Polynomial.constant(self._num_vars, Fraction(tok.text))
        if tok.kind == "ident":
            if tok.text == PARAM_NAME:
                return Polynomial.parameter(self._num_vars)
            index = self._vars.get(tok.text)
            if index is None:
                known = ", ".join(sorted(self._vars) + [PARAM_NAME])
                raise ParseError(
                    f"unknown identifier {tok.text!r} (known: {known})", tok.position
                )
            return Polynomial.variable(self._num_vars, index)
        if tok.kind == "op" and tok.text == "(":
            value = self._expr()
            self._expect_op(")")
            return value
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}; expected a number, "
            "identifier, '(' or '-'",
            tok.position,
        )


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
    poly = parse_poly_expr(text, [])
    return poly.constant_coefficient()
