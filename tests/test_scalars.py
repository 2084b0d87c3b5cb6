"""Field arithmetic in Q(a).

The oracle is binding: Scalar.bind reduces to plain Fraction arithmetic
that is first pinned against hand-computed values, after which every
algebraic identity is checked by binding both sides at random rational
points where the denominators do not vanish.  The operators' rational fast
path is checked against a second oracle, ``helpers.scalar_oracle``, which
forms each result from raw fraction tuples and normalises it through the
checking constructor: results must agree in value, hash and rendering.
"""

import operator
import pickle
import random
from fractions import Fraction

import pytest

from basicforms.scalars import PARAM_NAME, Scalar, UnboundParameterError
from helpers import rand_fraction, rand_operand, rand_scalar, scalar_oracle

A = Scalar.parameter()


def test_param_name_is_a():
    assert PARAM_NAME == "a"


def test_bind_hand_values():
    s = (A + 1) * (A - 1)  # a^2 - 1
    assert s.bind(Fraction(2)).as_fraction() == Fraction(3)
    assert s.bind(Fraction(1, 2)).as_fraction() == Fraction(-3, 4)
    t = (A * A + 1) / (A - 2)
    assert t.bind(Fraction(3)).as_fraction() == Fraction(10)
    assert t.bind(Fraction(1, 2)).as_fraction() == Fraction(5, 4) / Fraction(-3, 2)


def test_of_and_rational_shortcuts():
    half = Scalar.of(Fraction(1, 2))
    assert half.is_rational and not half.uses_parameter
    assert half.as_fraction() == Fraction(1, 2)
    assert Scalar.of(3).as_fraction() == 3
    assert Scalar.of(half) is half


def test_zero_one_flags():
    assert Scalar.of(0).is_zero
    assert Scalar.of(1).is_one
    assert not A.is_zero and not A.is_one
    assert (A - A).is_zero
    assert (A / A).is_one


def test_as_fraction_rejects_parameter():
    with pytest.raises(UnboundParameterError):
        A.as_fraction()


def test_field_identities_random():
    rng = random.Random(20260823)
    for _ in range(300):
        s = rand_scalar(rng)
        t = rand_scalar(rng)
        u = rand_scalar(rng)
        for expr, expect in [
            (s + t, lambda a: _b(s, a) + _b(t, a)),
            (s - t, lambda a: _b(s, a) - _b(t, a)),
            (s * t, lambda a: _b(s, a) * _b(t, a)),
            ((s + t) * u, lambda a: (_b(s, a) + _b(t, a)) * _b(u, a)),
            (s * t + s * u, lambda a: _b(s, a) * (_b(t, a) + _b(u, a))),
            (-s, lambda a: -_b(s, a)),
        ]:
            a0 = _safe_point(rng, expr, s, t, u)
            assert _b(expr, a0) == expect(a0)
        if not t.is_zero:
            a0 = _safe_point(rng, s / t, s, t)
            assert _b(s / t, a0) * _b(t, a0) == _b(s, a0)


def test_pow_matches_repeated_product():
    rng = random.Random(7)
    for _ in range(100):
        s = rand_scalar(rng)
        n = rng.randint(0, 4)
        prod = Scalar.of(1)
        for _ in range(n):
            prod = prod * s
        assert s**n == prod


def test_normalization_gives_canonical_equality():
    # equal values constructed along different routes compare equal
    s = (A * A - 1) / (A - 1)
    assert s == A + 1
    assert hash(s) == hash(A + 1)
    t = (A + 2) / (2 * A + 4)
    assert t == Scalar.of(Fraction(1, 2))


def test_sign_is_leading_numerator_sign():
    assert (A + 5).sign() == 1
    assert (-A + 5).sign() == -1
    assert Scalar.of(Fraction(-2, 7)).sign() == -1
    assert Scalar.of(0).sign() == 0
    # denominator is monic by normalization, so it never flips the sign
    assert ((A + 1) / (2 - A)).sign() == -1


def test_mixed_int_fraction_operands():
    assert A + 1 == 1 + A
    assert (2 * A) / 2 == A
    assert 1 - A == -(A - 1)
    assert (A * Fraction(3, 2)) / Fraction(3, 2) == A


def test_evaluate_float_paths():
    # a is never floated: a scalar that mentions it is bound exactly first
    s = (A * A + 1) / (A + 3)
    assert s.bind(Fraction(2)).evaluate() == 1.0
    assert s.bind(Fraction(1, 3)).evaluate() == float(Fraction(1, 3))
    assert Scalar.of(Fraction(1, 4)).evaluate() == 0.25
    with pytest.raises(UnboundParameterError):
        s.evaluate()


def test_str_round_trips_through_bind_checks():
    # representative renderings; exactness is guarded by the bind tests
    assert str(A) == "a"
    assert str(A + 1) == "a + 1"
    assert str(Scalar.of(Fraction(-3, 4))) == "-3/4"
    assert str((A + 1) / (A - 2)) == "(a + 1)/(a - 2)"


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _assert_same(got, want: Scalar) -> None:
    assert isinstance(got, Scalar)
    assert got == want
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert got.is_rational == want.is_rational
    assert got.is_zero == want.is_zero and got.is_one == want.is_one


def test_operators_match_the_oracle():
    rng = random.Random(20261018)
    for _ in range(1500):
        left, left_raw = rand_operand(rng)
        right, right_raw = rand_operand(rng)
        if not isinstance(left, Scalar) and not isinstance(right, Scalar):
            left = Scalar.of(left)
        for op, fn in BINARY.items():
            if op == "/" and not any(right_raw[0]):
                with pytest.raises(ZeroDivisionError):
                    fn(left, right)
                continue
            _assert_same(fn(left, right), scalar_oracle(op, left_raw, right_raw))
        _assert_same(-Scalar.of(left), scalar_oracle("neg", left_raw))
        _assert_same(Scalar.of(right), scalar_oracle("+", right_raw, ((), (Fraction(1),))))


def test_rational_results_hash_and_render_as_fractions():
    rng = random.Random(11)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        y = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) or Fraction(1)
        for value, scalar in [
            (x, Scalar.of(x)),
            (Fraction(0), Scalar.of(x) - x),
            (x + y, Scalar.of(x) + y),
            (x - y, x - Scalar.of(y)),
            (x * y, Scalar.of(x) * Scalar.of(y)),
            (x / y, x / Scalar.of(y)),
            (-x, -Scalar.of(x)),
        ]:
            assert scalar.is_rational and scalar.as_fraction() == value
            assert hash(scalar) == hash(value) and scalar == value
            assert str(scalar) == str(value)
    # a ratio of polynomials that cancels to a rational is one too
    a = Scalar.parameter()
    assert str((2 * a + 2) / (a + 1)) == "2" and hash((a + 1) / (a + 1)) == hash(1)


def test_pickled_scalars_keep_their_canonical_form():
    for s in (Scalar.of(Fraction(-3, 4)), Scalar.of(0), Scalar.of(1), (A + 1) / (A - 2)):
        back = pickle.loads(pickle.dumps(s))
        _assert_same(back, s)
        _assert_same(back * 2 - s, s)


def _assert_canonical(s: Scalar) -> None:
    """Each stored coefficient is an int, or a Fraction whose denominator is not 1."""
    for c in s._num + s._den:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    if s.is_rational:
        assert type(s.as_fraction()) is Fraction
        assert hash(s) == hash(s.as_fraction())


def test_coefficients_are_ints_unless_their_denominator_is_not_one():
    third, two = Scalar.of(1) / 3, Scalar.of(6) / 3
    assert third._num == (Fraction(1, 3),) and type(two._num[0]) is int
    assert type(Scalar.of(Fraction(4, 2))._num[0]) is int
    assert type(Scalar.of(True)._num[0]) is int and Scalar.of(False)._num == ()
    assert ((A * A - 1) / (A - 1))._num == (1, 1)
    half_sum = (2 * A + 2) / (4 * A)
    assert half_sum._num == (Fraction(1, 2), Fraction(1, 2)) and half_sum._den == (0, 1)
    t = (A * A + 1) / (A - 2)
    explicit = [
        third, two, Scalar.of(Fraction(4, 2)), Scalar.of(True), half_sum,
        (A * A - 1) / (A - 1), t.bind(Fraction(3)), t.bind(Fraction(1, 2)),
        Scalar.of(2) ** -2, (A + 1) ** -2, half_sum ** -1,
        pickle.loads(pickle.dumps(half_sum)), pickle.loads(pickle.dumps(two)),
    ]
    for s in explicit:
        _assert_canonical(s)

    rng = random.Random(20261019)
    for _ in range(600):
        left, left_raw = rand_operand(rng)
        right, right_raw = rand_operand(rng)
        if not isinstance(left, Scalar) and not isinstance(right, Scalar):
            left = Scalar.of(left)
        for op, fn in BINARY.items():
            if op == "/" and not any(right_raw[0]):
                continue
            got = fn(left, right)
            _assert_canonical(got)
            assert str(got) == str(scalar_oracle(op, left_raw, right_raw))
        _assert_canonical(-Scalar.of(left))
        s = rand_scalar(rng)
        for k in (0, 1, 3) if s.is_zero else (-2, -1, 0, 1, 3):
            _assert_canonical(s ** k)
        for a0 in (Fraction(rng.randint(-6, 6)), _safe_point(rng, s)):
            try:
                _assert_canonical(s.bind(a0))
            except ZeroDivisionError:
                pass


def _b(s: Scalar, a0: Fraction) -> Fraction:
    return s.bind(a0).as_fraction()


def _safe_point(rng: random.Random, *scalars: Scalar) -> Fraction:
    """A rational point where none of the given scalars' denominators vanish."""
    while True:
        a0 = rand_fraction(rng, 12)
        try:
            for s in scalars:
                s.bind(a0)
            return a0
        except ZeroDivisionError:
            continue


def test_height_is_the_largest_numerator_or_denominator():
    rng = random.Random(36)
    for _ in range(300):
        s = rand_scalar(rng, rng.random() < 0.5)
        parts = [Fraction(c) for c in s._num + s._den]
        assert s.height == max(max(abs(c.numerator), c.denominator) for c in parts), s
    assert Scalar.of(0).height == 1 and Scalar.of(Fraction(-7, 3)).height == 7
    assert ((A - Fraction(9, 2)) / (A + 5)).height == 9
