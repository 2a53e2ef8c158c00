import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4weyl.scalar import FieldScalar, HALF, ONE, SQRT2, ZERO, parse_scalar


def rand_scalar(rng, span=12):
    return FieldScalar(
        Fraction(rng.randint(-span, span), rng.randint(1, 6)),
        Fraction(rng.randint(-span, span), rng.randint(1, 6)),
    )


def test_construction_and_equality():
    x = FieldScalar(Fraction(1, 2), Fraction(-3, 2))
    assert x.a == Fraction(1, 2) and x.b == Fraction(-3, 2)
    assert x == FieldScalar(Fraction(2, 4), Fraction(-6, 4))
    assert FieldScalar(3) == 3
    assert FieldScalar(3, 1) != 3
    assert SQRT2 * SQRT2 == 2
    assert (ONE + SQRT2) * (ONE - SQRT2) == -1


def test_division_oracle():
    # (3+6sqrt2)/(2+3sqrt2): check by multiplying back, and against the
    # rationalized closed form 15/7 - (3/14) sqrt2.
    num = FieldScalar(3, 6)
    den = FieldScalar(2, 3)
    quot = num / den
    assert quot * den == num
    assert quot == FieldScalar(Fraction(15, 7), Fraction(-3, 14))


def test_division_by_zero():
    try:
        ONE / ZERO
        assert False, "expected ZeroDivisionError"
    except ZeroDivisionError:
        pass
    try:
        ONE / (FieldScalar(2) - SQRT2 * SQRT2)
        assert False, "expected ZeroDivisionError"
    except ZeroDivisionError:
        pass


def test_exact_ordering():
    assert FieldScalar(1) < SQRT2          # 1 < 1.414...
    assert FieldScalar(3) > FieldScalar(0, 2)   # 9 > 8
    assert FieldScalar(0, 2) < FieldScalar(3)
    assert FieldScalar(7, -5) < 0          # 7 - 5 sqrt2 < 0 since 49 < 50
    assert FieldScalar(7, -5).sign() == -1
    assert FieldScalar(-7, 5).sign() == 1
    assert FieldScalar(Fraction(3, 2)) < FieldScalar(0, Fraction(17, 16))
    x = FieldScalar(Fraction(22, 7), Fraction(-1, 3))
    assert not x < x and x == x


def test_sqrt():
    assert FieldScalar(3, 2).sqrt() == FieldScalar(1, 1)       # (1+s)^2 = 3+2s
    assert FieldScalar(2).sqrt() == SQRT2
    assert FieldScalar(Fraction(1, 2)).sqrt() == FieldScalar(0, Fraction(1, 2))
    assert FieldScalar(6, 4).sqrt() == FieldScalar(2, 1)
    assert FieldScalar(9).sqrt() == 3
    assert FieldScalar(3).sqrt() is None
    assert FieldScalar(1, 1).sqrt() is None
    assert FieldScalar(-2).sqrt() is None
    assert ZERO.sqrt() == ZERO
    rng = random.Random(7)
    for _ in range(200):
        x = rand_scalar(rng)
        sq = x * x
        r = sq.sqrt()
        assert r is not None and r * r == sq and r.sign() >= 0


def test_parse_grammar():
    cases = {
        "1": FieldScalar(1),
        "-2": FieldScalar(-2),
        "3/2": FieldScalar(Fraction(3, 2)),
        "sqrt2": SQRT2,
        "-sqrt2": -SQRT2,
        "2sqrt2": FieldScalar(0, 2),
        "3/2*sqrt2": FieldScalar(0, Fraction(3, 2)),
        "1/2-3/2sqrt2": FieldScalar(Fraction(1, 2), Fraction(-3, 2)),
        "1+2sqrt2": FieldScalar(1, 2),
        "1/sqrt2": FieldScalar(0, Fraction(1, 2)),
        "sqrt2/2": FieldScalar(0, Fraction(1, 2)),
        "2/sqrt2": SQRT2,
        "-1/2+sqrt2": FieldScalar(Fraction(-1, 2), 1),
        "0": ZERO,
    }
    for text, want in cases.items():
        assert parse_scalar(text) == want, text
    for bad in ("", "sqrt3", "1++2", "x", "1/2/2/2"):
        try:
            parse_scalar(bad)
            assert False, f"expected ValueError for {bad!r}"
        except ValueError:
            pass


def test_str_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        x = rand_scalar(rng)
        assert parse_scalar(str(x)) == x
    assert str(FieldScalar(1, 2)) == "1+2sqrt2"
    assert str(FieldScalar(Fraction(1, 2), Fraction(-3, 2))) == "1/2-3/2sqrt2"
    assert str(SQRT2) == "sqrt2"
    assert str(-SQRT2) == "-sqrt2"
    assert str(ZERO) == "0"
    assert str(HALF) == "1/2"


@pytest.mark.parametrize("text", ["1/0", "sqrt2/0", "1/0sqrt2", "1+3/0sqrt2"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.fractions(max_denominator=10 ** 6), st.fractions(max_denominator=10 ** 6))
def test_property_str_round_trip(a, b):
    x = FieldScalar(a, b)
    assert parse_scalar(str(x)) == x


def test_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(250):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == ZERO
        if not y.is_zero():
            assert (x / y) * y == x
            assert y * y.conj() == FieldScalar(y.a * y.a - 2 * y.b * y.b)


def test_float_embedding_monotone():
    rng = random.Random(5)
    for _ in range(400):
        x, y = rand_scalar(rng), rand_scalar(rng)
        if x < y:
            assert float(x) < float(y) + 1e-12
        elif x > y:
            assert float(x) > float(y) - 1e-12
        else:
            assert abs(float(x) - float(y)) < 1e-12


def test_uniqueness_of_representation():
    # a + b sqrt2 = c + d sqrt2 with rational parts implies (a,b) = (c,d):
    # sqrt2 irrational, so equal values have equal coordinates.
    rng = random.Random(3)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        if (x.a, x.b) != (y.a, y.b):
            assert x != y and (x - y).sign() != 0


def test_pow_and_abs():
    assert (ONE + SQRT2) ** 2 == FieldScalar(3, 2)
    assert SQRT2 ** 6 == 8
    assert (ONE - SQRT2) ** 0 == ONE
    assert abs(FieldScalar(1, -1)) == FieldScalar(-1, 1)
    assert abs(FieldScalar(5)) == FieldScalar(5)
