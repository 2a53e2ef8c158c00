import operator
import random
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f4weyl.quat import Quaternion
from f4weyl.scalar import (FieldScalar, HALF, ONE, SQRT2, from_ints,
                           over_lcm, pair_values, parse_scalar, row_dot)
import oracles

ZERO = FieldScalar(0)


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


def test_orders_match_the_exact_sign():
    # each of <, <=, >, >= is read off the exact sign of the difference,
    # with FieldScalar, int and Fraction operands on either side
    rng = random.Random(11)
    for _ in range(300):
        x = rand_scalar(rng)
        for y in (rand_scalar(rng), x, FieldScalar(x.a), rng.randint(-4, 4),
                  Fraction(rng.randint(-12, 12), rng.randint(1, 6))):
            s = (x - y).sign()
            assert (x < y, x <= y, x > y, x >= y) == \
                (s < 0, s <= 0, s > 0, s >= 0), (x, y)
            assert (y < x, y <= x, y > x, y >= x) == \
                (s > 0, s >= 0, s < 0, s <= 0), (x, y)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((ONE, "1"), ("1", ONE)):
            with pytest.raises(TypeError):
                op(a, b)


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
    for bad in ("", "sqrt3", "1++2", "x", "1/2/2/2", "*sqrt2", "1+*sqrt2",
                "１", "١"):
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


@pytest.mark.parametrize("cls, args", [(FieldScalar, (0.1,)),
                                       (FieldScalar, (1, 0.5)),
                                       (FieldScalar, ("1/3",)),
                                       (Quaternion, (0.5,))])
def test_non_rational_parts_are_a_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args)


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
    with pytest.raises(ValueError, match="^only non-negative integer powers$"):
        FieldScalar(2) ** -1


# ---------------------------------------------------------------------------
# differential test against the two-Fraction arithmetic


def _frac_sqrt(q):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class RefScalar:
    """Oracle: a + b*sqrt2 held as two Fractions, with the textbook
    arithmetic, ordering, square root and rendering."""

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(v):
        return v if isinstance(v, RefScalar) else RefScalar(v)

    def sign(self):
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        sb = 1 if b > 0 else -1
        if not a or (a > 0) == (sb > 0):
            return sb
        return sb if 2 * b * b > a * a else -sb

    def __add__(self, o):
        o = RefScalar.of(o)
        return RefScalar(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        o = RefScalar.of(o)
        return RefScalar(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        o = RefScalar.of(o)
        return RefScalar(self.a * o.a + 2 * self.b * o.b,
                         self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        o = RefScalar.of(o)
        norm = o.a * o.a - 2 * o.b * o.b
        if not norm:
            raise ZeroDivisionError
        return self * RefScalar(o.a / norm, -o.b / norm)

    def __neg__(self):
        return RefScalar(-self.a, -self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def conj(self):
        return RefScalar(self.a, -self.b)

    def __eq__(self, o):
        o = RefScalar.of(o)
        return self.a == o.a and self.b == o.b

    def __lt__(self, o):
        return (self - o).sign() < 0

    def sqrt(self):
        if self.sign() < 0:
            return None
        if not self.a and not self.b:
            return RefScalar(0)
        if not self.b:
            r = _frac_sqrt(self.a)
            if r is not None:
                return RefScalar(r)
            r = _frac_sqrt(self.a / 2)
            return None if r is None else RefScalar(0, r)
        disc = _frac_sqrt(self.a * self.a - 2 * self.b * self.b)
        if disc is None:
            return None
        for t in ((self.a + disc) / 2, (self.a - disc) / 2):
            x = _frac_sqrt(t)
            if x:
                cand = RefScalar(x, self.b / (2 * x))
                if cand * cand == self:
                    return abs(cand)
        return None

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(2.0)

    def __repr__(self):
        return f"FieldScalar({self.a}, {self.b})"

    def __str__(self):
        return oracles.scalar_str(self)


def assert_same(got, want):
    """got is the canonical FieldScalar of the reference value want."""
    assert isinstance(got, FieldScalar)
    assert (got.a, got.b) == (want.a, want.b)
    assert got.d > 0 and gcd(got.x, got.y, got.d) == 1
    if not want.a and not want.b:
        assert (got.x, got.y, got.d) == (0, 0, 1)


rationals = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                      st.fractions(max_denominator=10 ** 4))
pairs = st.tuples(rationals, rationals)
DIFF = settings(max_examples=300, derandomize=True, deadline=None,
                database=None)


@DIFF
@given(pairs, pairs)
def test_differential_arithmetic(p, q):
    x, y = FieldScalar(*p), FieldScalar(*q)
    rx, ry = RefScalar(*p), RefScalar(*q)
    assert_same(x, rx)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    assert_same(-x, -rx)
    assert_same(abs(x), abs(rx))
    assert_same(x.conj(), rx.conj())
    assert x.sign() == rx.sign()
    assert (x < y) == (rx < ry) and (y < x) == (ry < rx)
    assert (x == y) == (rx == ry)
    if ry.sign():
        assert_same(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@DIFF
@given(pairs, rationals)
def test_differential_mixed_operands(p, q):
    x, rx = FieldScalar(*p), RefScalar(*p)
    for got, want in ((x + q, rx + q), (q + x, rx + q), (x - q, rx - q),
                      (q - x, RefScalar(q) - rx), (x * q, rx * q),
                      (q * x, rx * q)):
        assert_same(got, want)
    if q:
        assert_same(x / q, rx / q)
    if rx.sign():
        assert_same(q / x, RefScalar(q) / rx)
    assert (x < q) == (rx < q) and (x > q) == (RefScalar(q) < rx)
    assert (x == q) == (rx == q) and (q == x) == (rx == q)


@DIFF
@given(pairs)
def test_differential_sqrt_and_rendering(p):
    x, rx = FieldScalar(*p), RefScalar(*p)
    for got, want in ((x.sqrt(), rx.sqrt()),
                      ((x * x).sqrt(), (rx * rx).sqrt()),
                      ((x * 2).sqrt(), (rx * 2).sqrt())):
        if want is None:
            assert got is None
        else:
            assert_same(got, want)
    assert (x * x).sqrt() is not None
    assert float(x).hex() == float(rx).hex()
    assert str(x) == str(rx) and repr(x) == repr(rx)


# parts of every shape the formatter branches on: zero, +-1 (a sqrt2
# coefficient of +-1), integers (d = 1) and fractions of either sign, and
# numerators and denominators past 2^64
wide_parts = st.one_of(
    st.sampled_from((0, 1, -1)), st.integers(-2 ** 70, 2 ** 70),
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 70)))


@DIFF
@example(0, 0)
@example(7, 0)
@example(Fraction(-1, 3), 1)
@example(Fraction(1, 2), -1)
@example(0, Fraction(-5, 2))
@example(2 ** 64 + 1, Fraction(-1, 2 ** 64 + 3))
@given(wide_parts, wide_parts)
def test_str_matches_fraction_formatter(a, b):
    x = FieldScalar(a, b)
    assert str(x) == oracles.scalar_str(x)


def test_canonical_form():
    def fields(z):
        return z.x, z.y, z.d

    assert fields(ZERO) == fields(FieldScalar(2, 4) - FieldScalar(2, 4)) \
        == fields(from_ints(0, 0, -7)) == (0, 0, 1)
    h = FieldScalar(Fraction(-1, 2), Fraction(3, 4))
    assert fields(h) == (-2, 3, 4)
    assert fields(from_ints(6, -4, -8)) == (-3, 2, 4)
    with pytest.raises(AttributeError):
        h.x = 1


# ---------------------------------------------------------------------------
# hashing and equality across int, Fraction and FieldScalar

RATIONALS = [0, 1, -1, 7, -12, 2 ** 70 + 1, -(3 ** 50), Fraction(1, 2),
             Fraction(-3, 4), Fraction(22, 7), Fraction(-1, 10 ** 30),
             Fraction(2 ** 80 + 1, 3 ** 40)]


@pytest.mark.parametrize("q", RATIONALS, ids=str)
def test_rational_hash_and_equality(q):
    x = FieldScalar(q)
    assert hash(x) == hash(q) and x == q and q == x
    assert hash(x + SQRT2 - SQRT2) == hash(q)
    assert x != q + 1 and x != FieldScalar(q, 1) and FieldScalar(q, 1) != q


M = sys.hash_info.modulus


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(
    st.integers(min_value=-2 ** 130, max_value=2 ** 130),
    st.fractions(max_denominator=2 ** 70).filter(lambda q: abs(q) < 2 ** 130),
    st.builds(Fraction, st.integers(min_value=-2 ** 90, max_value=2 ** 90),
              st.integers(min_value=1, max_value=2 ** 20).map(
                  lambda k: k * M))))
def test_rational_hash_is_the_numeric_hash(q):
    # the hash is computed without building a Fraction, including for
    # denominators with no inverse modulo the hash prime
    assert hash(FieldScalar(q)) == hash(q)


@pytest.mark.parametrize("q", [Fraction(1, M), Fraction(-1, M),
                               Fraction(5, 3 * M), Fraction(-(2 ** 80), M),
                               Fraction(1, M - 1), Fraction(-1, 2)], ids=str)
def test_rational_hash_edge_denominators(q):
    assert hash(FieldScalar(q)) == hash(q)


def test_equal_values_from_different_routes():
    routes = [FieldScalar(1, 1) / 2,
              FieldScalar(Fraction(1, 2), Fraction(1, 2)),
              HALF + SQRT2 * HALF,
              parse_scalar("1/2+sqrt2/2"),
              from_ints(3, 3, 6),
              (FieldScalar(3, 2) / 4).sqrt() * SQRT2 / 2 * SQRT2]
    for r in routes:
        assert r == routes[0] and hash(r) == hash(routes[0])
    assert len(set(routes)) == 1
    assert FieldScalar(4) / 2 == 2 and hash(FieldScalar(4) / 2) == hash(2)
    assert hash(SQRT2 * SQRT2 / 4) == hash(Fraction(1, 2))


def test_set_and_dict_lookups_across_types():
    values = {1: "one", Fraction(1, 2): "half", FieldScalar(0, 1): "sqrt2"}
    assert values[FieldScalar(1)] == "one"
    assert values[FieldScalar(Fraction(1, 2))] == "half"
    assert values[SQRT2 * ONE] == "sqrt2"
    assert values[HALF] == "half"
    keyed = {FieldScalar(1): "a", HALF: "b"}
    assert keyed[1] == "a" and keyed[Fraction(1, 2)] == "b"
    assert keyed[Fraction(2, 2)] == "a"
    mixed = {1, Fraction(1, 2), FieldScalar(1), HALF, FieldScalar(2) / 4}
    assert len(mixed) == 2
    assert FieldScalar(1) in {1} and Fraction(1, 2) in {HALF}


# the parser reads each term's digits as integers: it must give the
# Fraction-based parser's value, or its ValueError message, on the grammar's
# corner cases
@pytest.mark.parametrize("text", [
    "1/0", "sqrt2/0", "0/0", "00", "+1", "1/sqrt2", "sqrt2/2", "3/2*sqrt2",
    "2sqrt2/3", "1/2-3/2sqrt2", "", "1++1", "0/0sqrt2", "3/0*sqrt2/0",
    "1/0x", "2/4sqrt2/6", "-0/7", " 6 / 4 - sqrt2 / 9 "])
def test_parse_matches_fraction_parser(text):
    assert oracles.parse_outcome(parse_scalar, text) == \
        oracles.parse_outcome(oracles.parse_scalar_fraction, text)


def test_spaces_parse_around_terms_only():
    assert parse_scalar(" 6 / 4 - sqrt2 / 9 ") == from_ints(27, -2, 18)
    assert parse_scalar(" 1 + sqrt2 ") == ONE + SQRT2
    for text in ("1 2", "1/2 3", "1 2sqrt2"):  # not 12, 1/23 nor 12sqrt2
        with pytest.raises(ValueError) as exc:
            parse_scalar(text)
        assert str(exc.value) == \
            f"space inside a number in scalar literal {text!r}"


def test_fraction_parts_and_views():
    # Fractions and bools are inputs, .a/.b give Fractions back, and the
    # canonical integers and repr are those of the Fraction-built value
    x = FieldScalar(Fraction(1, 2), Fraction(-3, 4))
    assert (x.x, x.y, x.d) == (2, -3, 4)
    assert repr(x) == "FieldScalar(1/2, -3/4)"
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (Fraction(1, 2), Fraction(-3, 4))
    assert repr(FieldScalar(True, Fraction(4, 2))) == "FieldScalar(1, 2)"
    assert FieldScalar(Fraction(3, 1)) == 3 and FieldScalar(False) == 0


@pytest.mark.parametrize("value", [1.5, "1", 1j, None, SQRT2, [1]])
def test_only_ints_bools_and_fractions_are_parts(value):
    for args in ((value,), (0, value), (value, Fraction(1, 2))):
        with pytest.raises(TypeError,
                           match="FieldScalar parts must be int or Fraction"):
            FieldScalar(*args)


def test_numpy_scalars_are_not_parts():
    np = pytest.importorskip("numpy")
    for value in (np.int64(3), np.float64(1.5), np.bool_(True)):
        with pytest.raises(TypeError):
            FieldScalar(value)
        assert SQRT2.__add__(value) is NotImplemented


def test_quaternion_scales_by_rationals_only():
    assert Quaternion(1, 0, 0, 0) * Fraction(1, 2) == Quaternion(HALF, 0, 0, 0)
    assert Fraction(1, 2) * Quaternion(0, 2, 0, 0) == Quaternion(0, 1, 0, 0)
    assert Quaternion(1, 0, 0, 0) / Fraction(1, 2) == Quaternion(2, 0, 0, 0)
    for bad in (1.5, "2"):
        with pytest.raises(TypeError):
            Quaternion(1, 0, 0, 0) * bad
        with pytest.raises(TypeError):
            Quaternion(1, 0, 0, 0) / bad


# ---------------------------------------------------------------------------
# flat Z[sqrt2] integer rows over one denominator, against FieldScalar
# arithmetic on random surd values

SURDS = st.builds(from_ints, st.integers(-99, 99), st.integers(-99, 99),
                  st.integers(1, 12))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(SURDS, max_size=12))
@example([])
def test_over_lcm_round_trips_through_from_ints(values):
    row, d = over_lcm(values)
    assert d == lcm(*(v.d for v in values)) and len(row) == 2 * len(values)
    assert all(type(v) is int for v in row)
    assert [from_ints(*row[k:k + 2], d) for k in range(0, len(row), 2)] \
        == values


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(SURDS, SURDS), max_size=8))
@example([])
def test_row_dot_and_pair_values_are_field_arithmetic(pairs):
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    (a, d), (b, e) = over_lcm(us), over_lcm(vs)
    assert from_ints(*row_dot(b)(a), d * e) == \
        sum((u * v for u, v in pairs), ZERO)
    # both rows over one denominator: one value per distinct pair
    flat, den = over_lcm(us + vs)
    table = pair_values([flat[:len(a)], flat[len(a):]], den)
    assert len(table) == len(set(us + vs))
    assert [table[flat[k:k + 2]] for k in range(0, len(flat), 2)] == us + vs
