"""Recursive-descent parser for polynomial and scalar expressions.

Positive cases are checked by building the expected polynomial by hand;
failures must carry the right message and a character position.  The file
ends with the render/parse round-trip that locks the two text layers
together.
"""

import random
from fractions import Fraction

import pytest

from basicforms.expressions import (
    MAX_DIGITS,
    MAX_EXPONENT,
    ParseError,
    parse_poly_expr,
    parse_scalar_expr,
)
from basicforms.polynomials import Polynomial, render_poly
from basicforms.scalars import Scalar
from helpers import rand_poly

XY = ("x", "y")


def _p(text: str) -> Polynomial:
    return parse_poly_expr(text, XY)


def test_basic_parses():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    assert _p("x") == x
    assert _p("x + y") == x + y
    assert _p("x - y - 1") == x - y - one
    assert _p("2*x*y") == x * y + x * y
    assert _p("x^3") == x * x * x
    assert _p("(x + y)^2") == (x + y) * (x + y)
    assert _p("-x^2") == -(x * x)
    assert _p("3/4") == Polynomial.constant(2, Fraction(3, 4))
    assert _p("x/2") == x.scale(Fraction(1, 2))


def test_parameter_is_always_known():
    a = Polynomial.parameter(2)
    x = Polynomial.variable(2, 0)
    assert _p("a*x - y") == a * x - Polynomial.variable(2, 1)
    assert parse_poly_expr("a^2 + 1", ("t",)) == (
        Polynomial.parameter(1) ** 2 + Polynomial.constant(1, 1)
    )


def test_precedence_and_unary_minus():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert _p("x + y*x") == x + y * x
    assert _p("-x + y") == -x + y
    assert _p("-(x + y)") == -(x + y)
    assert _p("x - -y") == x + y
    assert _p("2^3") == Polynomial.constant(2, 8)


def test_whitespace_and_decimals():
    assert _p("  x +\t y ") == _p("x+y")
    assert _p("0.5*x") == Polynomial.variable(2, 0).scale(Fraction(1, 2))


def test_division_rules():
    x = Polynomial.variable(2, 0)
    assert _p("x/4") == x.scale(Fraction(1, 4))
    with pytest.raises(ParseError, match="non-constant"):
        _p("1/x")
    with pytest.raises(ParseError, match="division by zero"):
        _p("x/0")
    with pytest.raises(ParseError, match="division by zero"):
        _p("x/(2 - 2)")


def test_exponent_must_be_literal():
    for text in ("x^y", "x^(2)", "x^-1"):
        with pytest.raises(ParseError, match="exponent must be a non-negative integer") as info:
            _p(text)
        assert info.value.position == 2, text


def test_exponent_limit_covers_literals_and_nested_powers():
    x = Polynomial.variable(2, 0)
    assert _p(f"x^{MAX_EXPONENT}") == x**MAX_EXPONENT
    assert _p("(x^16)^16") == x**256
    assert parse_scalar_expr(f"(1 + a)^{MAX_EXPONENT}").bind(Fraction(1)) == 2**MAX_EXPONENT
    for text, position in [
        (f"x^{MAX_EXPONENT + 1}", 2),
        ("y + 3^3000000", 6),
        ("(x^16)^17", 7),
        ("((y^2)^2)^65", 10),
        ("(x + y^200)^2", 12),
        ("(x*y)^200", 6),
        ("(" + "*".join(["x"] * 200) + ")^2", 402),
    ]:
        with pytest.raises(ParseError, match=f"limit of {MAX_EXPONENT}") as info:
            _p(text)
        assert info.value.position == position, text


def test_exponent_limit_covers_products():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert _p("*".join(["x"] * MAX_EXPONENT)) == x**MAX_EXPONENT
    assert _p("x^200*y^56 + x^256") == x**200 * y**56 + x**256
    for text, position in [
        # refused at the factor that takes the degree to 257
        ("*".join(["x"] * 300), 511),
        ("1 + x^200*y^57", 9),
        ("(x + y)^128*(x - 1)^100*y^29", 23),
    ]:
        with pytest.raises(ParseError, match=f"product of degree .* {MAX_EXPONENT}") as info:
            _p(text)
        assert info.value.position == position, text


def test_degree_in_a_is_bounded():
    a = Polynomial.parameter(2)
    assert _p("(a*a*a)^85") == a**255
    assert _p("(1 + a)^128*(1 + a)^128*x") == (a + Polynomial.constant(2, 1))**256 * _p("x")
    assert _p("x/(1 + a)^256") == _p("x").scale(1 / parse_scalar_expr("(1 + a)^256"))
    for text, position, what in [
        ("(a*a*a)^100", 8, "power of degree 300"),
        ("(a*a + x)^129", 10, "power of degree 258"),
        ("(1 + a)^128*(1 + a)^129", 11, "product of degree 257"),
        ("(a*x)^200*a^57", 9, "product of degree 257"),
        ("x/(1 + a)^200/(a + 2)^57", 13, "quotient of degree 257"),
        ("(x + 1/(a + 1)^200)*(1/(a - 1)^57)", 19, "product of degree 257"),
    ]:
        with pytest.raises(ParseError, match=f"{what} in a is past the limit") as info:
            _p(text)
        assert info.value.position == position, text


def test_numbers_are_ascii_digits():
    # other scripts' digits were read by Fraction and int(); now they are text
    for text, position in [("\u00b2", 0), ("x^\u00b2", 2), ("1\u0663", 1), ("x + \u0663", 4)]:
        with pytest.raises(ParseError, match="unexpected character") as info:
            _p(text)
        assert info.value.position == position, text


def test_number_literals_have_at_most_max_digits():
    top = "9" * MAX_DIGITS
    assert _p(top) == Polynomial.constant(2, int(top))
    assert _p("0." + "0" * (MAX_DIGITS - 2) + "1") == Polynomial.constant(
        2, Fraction(1, 10 ** (MAX_DIGITS - 1))
    )
    for text, position in [
        ("x + " + "1" * (MAX_DIGITS + 1), 4),
        ("0." + "0" * (MAX_DIGITS - 1) + "1", 0),  # denominator 10^4300
        ("x^" + "0" * MAX_DIGITS + "1", 2),
    ]:
        with pytest.raises(ParseError, match=f"number with more than {MAX_DIGITS} digits") as info:
            _p(text)
        assert info.value.position == position


def test_digits_of_products_quotients_and_powers_are_predicted():
    # 99^256 has 511 digits: eight factors fit, the ninth is refused at its '*'
    eight = "*".join(["99^256"] * 8)
    assert _p(eight) == Polynomial.constant(2, 99 ** (256 * 8))
    for text, position, what in [
        ("*".join(["99^256"] * 20), 55, "product"),
        ("x*(" + eight + ")*(99^256*x)", len(eight) + 4, "product"),
        ("x/" + "/".join(["(10^256)"] * 17), 145, "quotient"),
        ("(" + "7" * 40 + ")^120", 43, "power"),
        ("(1/" + "3" * 100 + " + x)^44", 109, "power"),
    ]:
        with pytest.raises(ParseError, match=f"{what} with about .* past the limit of {MAX_DIGITS}") as info:
            _p(text)
        assert info.value.position == position, text


def test_sums_too_long_to_print_are_refused():
    # sums are not predicted: common denominators are checked at the end
    primes = [str(10**1500 + k) for k in (1, 3, 7)]
    assert _p(" + ".join(f"x/{p}" for p in primes[:2])).terms
    with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
        _p(" + ".join(f"x/{p}" for p in primes))


def test_unknown_identifier_lists_known_names():
    with pytest.raises(ParseError, match="x, y"):
        _p("x + z")


def test_error_positions():
    with pytest.raises(ParseError) as info:
        _p("x + ")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        _p("x + $")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        _p("x + z*y")
    assert info.value.position == 4
    assert "position" in str(info.value)


_END = "expected '+', '-', '*', '/', '^' or end of input"


def test_unbalanced_parens():
    with pytest.raises(ParseError) as info:
        _p("(x + y")
    assert (info.value.message, info.value.position) == ("expected ')'", 6)
    with pytest.raises(ParseError) as info:
        _p("x + y)")
    assert (info.value.message, info.value.position) == (f"unexpected ')'; {_END}", 5)


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("", 0, "unexpected 'end of input'; expected a number, identifier, '(' or '-'"),
        ("x/y", 1, "division by a non-constant expression"),
        ("(" * 100 + "x" + ")" * 100, 100, "parentheses and signs nest 100 or more deep"),
        ("-" * 100 + "x", 100, "parentheses and signs nest 100 or more deep"),
        ("2 3", 2, f"unexpected '3'; {_END}"),
        ("x^2^200", 3, f"unexpected '^'; {_END}"),
    ],
    ids=["empty", "divide-by-variable", "parens-100", "signs-100", "juxtaposed", "power-of-power"],
)
def test_refusals_keep_their_message_and_position(text, position, message):
    with pytest.raises(ParseError) as info:
        _p(text)
    assert (info.value.message, info.value.position) == (message, position)


def test_ninety_nine_levels_still_parse():
    x = Polynomial.variable(2, 0)
    assert _p("(" * 99 + "x" + ")" * 99) == x
    assert _p("-" * 99 + "x") == -x


# Constant divisors in Q and in Q(a), as text and as the scalar they denote.
_A = Scalar.parameter()
_DIVISORS = [
    ("3", Scalar.of(3)),
    ("(-2/5)", Scalar.of(Fraction(-2, 5))),
    ("0.25", Scalar.of(Fraction(1, 4))),
    ("(a + 1)", _A + 1),
    ("(2*a^2 - 1/3)", _A * _A * 2 - Fraction(1, 3)),
    ("(a/(a - 2))", _A / (_A - 2)),
]


def _random_expression(rng: random.Random, depth: int, names) -> tuple[str, Polynomial]:
    """Text of a random expression in the grammar, and the polynomial it denotes.

    The polynomial is built with ``Polynomial`` arithmetic alone, never by
    the parser, and every compound operand is parenthesised.
    """
    n = len(names)
    if depth > 0 and rng.random() < 0.8:
        kind = rng.randrange(4, 9)
    else:
        kind = rng.choice((0, 1, 2, 2, 3))  # variables twice as often
    if kind == 0:
        k = rng.randint(0, 40)
        return str(k), Polynomial.constant(n, k)
    if kind == 1:
        text = f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"
        return text, Polynomial.constant(n, Fraction(text))
    if kind == 2:
        i = rng.randrange(n)
        return names[i], Polynomial.variable(n, i)
    if kind == 3:
        return "a", Polynomial.parameter(n)
    left, p = _random_expression(rng, depth - 1, names)
    if kind == 4:  # sums and differences
        right, q = _random_expression(rng, depth - 1, names)
        if rng.random() < 0.5:
            return f"({left}) + ({right})", p + q
        return f"({left}) - ({right})", p - q
    if kind == 5:
        right, q = _random_expression(rng, depth - 1, names)
        return f"({left})*({right})", p * q
    if kind == 6:
        k = rng.randint(0, 3)
        return f"({left})^{k}", p**k
    if kind == 7:  # a chain of unary minus signs, or nested parentheses
        signs = rng.randint(1, 4)
        if rng.random() < 0.5:
            return "-" * signs + f"({left})", -p if signs % 2 else p
        levels = rng.randint(1, 5)
        return "(" * levels + left + ")" * levels, p
    text, c = rng.choice(_DIVISORS)
    return f"({left})/{text}", p.scale(1 / c)


def _spread(rng: random.Random, text: str) -> str:
    """``text`` with random whitespace around its operators and parentheses."""
    out = []
    for ch in text:
        if ch in "+-*/^()":
            out.append(rng.choice(["", " ", "\t", "\n "]) + ch + rng.choice(["", " ", "  "]))
        else:
            out.append(ch)
    return "".join(out)


def test_random_expressions_parse_to_their_polynomials():
    rng = random.Random(36)
    for trial in range(600):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        text, want = _random_expression(rng, rng.randint(2, 4), names)
        if trial % 2:
            text = _spread(rng, text)
        assert parse_poly_expr(text, names) == want, text


def test_reserved_parameter_name():
    with pytest.raises(ValueError, match="reserved"):
        parse_poly_expr("a + t", ("t", "a"))


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError):
        parse_poly_expr("x", ("x", "x"))


def test_scalar_expressions():
    a = Scalar.parameter()
    assert parse_scalar_expr("a^2 - 1/2") == a * a - Fraction(1, 2)
    assert parse_scalar_expr("3") == Scalar.of(3)
    with pytest.raises(ParseError):
        parse_scalar_expr("x")  # no variables exist in scalar context


def test_render_parse_round_trip_random():
    rng = random.Random(401)
    for _ in range(200):
        n = rng.randint(1, 3)
        names = ("x", "y", "z")[:n]
        p = rand_poly(rng, n, max_degree=3, max_terms=4, with_param=False)
        assert parse_poly_expr(render_poly(p, names), names) == p


def test_render_parse_round_trip_with_polynomial_parameter():
    # coefficients polynomial in a survive the trip; true ratios cannot,
    # since the grammar only divides by constants
    rng = random.Random(402)
    a = Polynomial.parameter(2)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    samples = [
        a * x - y,
        (a * a) * x + x.scale(Fraction(1, 2)),
        -(a * x * y) + y * y,
        x.scale(Fraction(-2, 3)) * y + a * a * a * y,
    ]
    for p in samples:
        assert parse_poly_expr(render_poly(p, XY), XY) == p
