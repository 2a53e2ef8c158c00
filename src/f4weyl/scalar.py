"""Exact arithmetic over the quadratic field Q(sqrt2).

Every coordinate that appears in this package lives in the field
``{a + b*sqrt(2) : a, b rational}``.  Working symbolically in this field
(rather than with floats) makes orbit membership, dominance tests and
scale-factor arithmetic exact: two points are equal iff their
:class:`FieldScalar` coordinates compare equal, full stop.

A value is stored as integers ``(x + y*sqrt2)/d``: an element of Z[sqrt2]
over one denominator (Cohen, GTM 138, section 4.2), kept canonical with
``d > 0``, ``gcd(x, y, d) == 1`` and zero as ``(0, 0, 1)``, so equal
values have equal fields.  The package computes on these integers; ints,
bools and ``Fraction``s are accepted inputs, and ``.a``/``.b`` a ``Fraction``
view.  Floats only appear at export boundaries (``__float__``).
"""

from __future__ import annotations

import operator
import re
from functools import cmp_to_key
from math import gcd, isqrt, lcm, sqrt
from sys import hash_info
from collections.abc import Callable, Sequence

Rational = "int | Fraction"  # for annotations (PEP 563); bools are ints


def _isqrt_exact(n: int) -> int | None:
    """Exact square root of an integer, or None."""
    r = isqrt(max(n, 0))
    return r if r * r == n else None


def surd_sign(a: Rational, b: Rational) -> int:
    """Exact sign of ``a + b*sqrt(2)`` for rational (or integer) a and b."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (sb > 0):
        return sb
    # mixed signs: the term with the larger square wins (never a tie)
    return sb if 2 * b * b > a * a else -sb


#: sort key ordering pairs (x, y), or rows by their first pair, by x + y*sqrt2
surd_order = cmp_to_key(lambda u, v: surd_sign(u[0] - v[0], u[1] - v[1]))


def _order(op):
    """FieldScalar's ``op`` comparison: op(exact sign of self - other, 0)."""
    def method(self, other):
        x, y, d = _parts(other)
        if d is None:
            return NotImplemented
        sign = surd_sign(self.x * d - x * self.d, self.y * d - y * self.d)
        return op(sign, 0)
    return method


class FieldScalar:
    """A number ``a + b*sqrt(2)`` with rational ``a`` and ``b``.

    Supports exact ring arithmetic, exact division (the field norm
    ``a**2 - 2*b**2`` vanishes only at zero), exact ordering, and an
    exact square root when one exists in the field.  ``a`` and ``b``
    (default 0) are int, bool or Fraction, read back as Fractions from
    ``.a``/``.b``; the value is the read-only integers ``x``, ``y``, ``d``.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        if type(a) is int and type(b) is int:
            x, y, d = a, b, 1
        else:  # over the lcm of reduced denominators, gcd(x, y, d) is 1
            (an, _, ad), (bn, _, bd) = _parts(a), _parts(b)
            if None in (ad, bd) or FieldScalar in (type(a), type(b)):
                raise TypeError("FieldScalar parts must be int or Fraction")
            d = lcm(ad, bd)
            x, y = an * (d // ad), bn * (d // bd)
        _set_x(self, x)
        _set_y(self, y)
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldScalar is immutable")

    a = property(lambda self: _fraction(self.x, self.d), doc="Rational part.")
    b = property(lambda self: _fraction(self.y, self.d), doc="sqrt(2) part.")
    __reduce__ = lambda self: (from_ints, (self.x, self.y, self.d))

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        return surd_sign(self.x, self.y)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: FieldScalar | Rational) -> "FieldScalar":
        x, y, d = _parts(other)
        if d is None:
            return NotImplemented
        return from_ints(self.x * d + x * self.d, self.y * d + y * self.d,
                         self.d * d)

    __radd__ = __add__

    def __sub__(self, other: FieldScalar | Rational) -> "FieldScalar":
        x, y, d = _parts(other)
        if d is None:
            return NotImplemented
        return from_ints(self.x * d - x * self.d, self.y * d - y * self.d,
                         self.d * d)

    def __rsub__(self, other: FieldScalar | Rational) -> "FieldScalar":
        return (-self).__add__(other)

    def __mul__(self, other: FieldScalar | Rational) -> "FieldScalar":
        x, y, d = _parts(other)
        if d is None:
            return NotImplemented
        return from_ints(self.x * x + 2 * self.y * y, self.x * y + self.y * x,
                         self.d * d)

    __rmul__ = __mul__

    def __truediv__(self, other: FieldScalar | Rational) -> "FieldScalar":
        x, y, d = _parts(other)
        if d is None:
            return NotImplemented
        norm = x * x - 2 * y * y
        if not norm:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # 1/(x + y s) = (x - y s)/(x^2 - 2 y^2)
        return from_ints((self.x * x - 2 * self.y * y) * d,
                         (self.y * x - self.x * y) * d, self.d * norm)

    def __rtruediv__(self, other: Rational) -> "FieldScalar":
        x, y, d = _parts(other)
        return NotImplemented if d is None else _raw(x, y, d) / self

    def __neg__(self) -> "FieldScalar":
        return _raw(-self.x, -self.y, self.d)

    def __abs__(self) -> "FieldScalar":
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int) -> "FieldScalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = FieldScalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "FieldScalar":
        """Galois conjugate ``a - b*sqrt(2)``."""
        return _raw(self.x, -self.y, self.d)

    def sqrt(self) -> FieldScalar | None:
        """Exact square root within the field, or None.

        The root of (x + y*sqrt2)/d is sqrt(m + n*sqrt2)/d with m = x*d,
        n = y*d; Z[sqrt2] is integrally closed, so that root is p + q*sqrt2
        with integers p^2 + 2q^2 = m and 2pq = n.
        """
        if self.sign() < 0:
            return None
        m, n = self.x * self.d, self.y * self.d
        if not n:
            r = _isqrt_exact(m)
            if r is not None:
                return from_ints(r, 0, self.d)
            r = _isqrt_exact(m // 2) if m % 2 == 0 else None
            return None if r is None else from_ints(0, r, self.d)
        # p^2 is a root t of t^2 - m t + n^2/2 = 0; the other root, 2q^2,
        # is never a square
        disc = _isqrt_exact(m * m - 2 * n * n)
        for t2 in (() if disc is None else (m + disc, m - disc)):
            p = _isqrt_exact(t2 // 2) if t2 % 2 == 0 else None
            if p and n % (2 * p) == 0:
                return abs(from_ints(p, n // (2 * p), self.d))
        return None

    # -- comparison ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        x, y, d = _parts(other)
        if d is None:
            return NotImplemented
        return self.x == x and self.y == y and self.d == d

    __lt__, __le__ = _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)

    def __hash__(self) -> int:
        # a rational value hashes as the int or Fraction it equals: for
        # x/d, Python's numeric hash hash(|x|) / d modulo the hash prime
        if self.y:
            return hash((self.x, self.y, self.d))
        if self.d == 1:
            return hash(self.x)
        try:
            h = hash(hash(abs(self.x)) * pow(self.d, -1, hash_info.modulus))
        except ValueError:  # d is a multiple of the prime
            h = hash_info.inf
        h = h if self.x >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversion / formatting ----------------------------------------

    def __float__(self) -> float:
        # x/d rounds correctly, as float(Fraction(x, d)) does
        return self.x / self.d + self.y / self.d * sqrt(2.0)

    def __repr__(self) -> str:
        return f"FieldScalar({_ratio(self.x, self.d)}, {_ratio(self.y, self.d)})"

    def __str__(self) -> str:
        x, y, d = self.x, self.y, self.d
        if not y:
            return _ratio(x, d)
        surd = ("sqrt2" if y == d else "-sqrt2" if y == -d
                else _ratio(y, d) + "sqrt2")
        if not x:
            return surd
        return _ratio(x, d) + ("+" if y > 0 else "") + surd


def _fraction(n: int, d: int) -> "Fraction":
    from fractions import Fraction  # loads on the first .a or .b read only
    return Fraction(n, d)


def _ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


_new = object.__new__
_set_x, _set_y, _set_d = (FieldScalar.x.__set__, FieldScalar.y.__set__,
                          FieldScalar.d.__set__)


def _raw(x: int, y: int, d: int) -> FieldScalar:
    """A FieldScalar from integers already in canonical form."""
    s = _new(FieldScalar)
    _set_x(s, x)
    _set_y(s, y)
    _set_d(s, d)
    return s


def from_ints(x: int, y: int, d: int) -> FieldScalar:
    """The value ``(x + y*sqrt2)/d`` of integers with ``d != 0``."""
    if d != 1:
        if d < 0:
            x, y, d = -x, -y, -d
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    return _raw(x, y, d)


def _parts(v: object) -> tuple[int, int, int | None]:
    """(x, y, d) of a FieldScalar, int, bool or Fraction, the rationals whose
    numerator and denominator are Python ints; d is None otherwise."""
    if type(v) is FieldScalar:
        return v.x, v.y, v.d
    if isinstance(v, int):
        return v, 0, 1
    n, d = getattr(v, "numerator", None), getattr(v, "denominator", None)
    return (n, 0, d) if type(n) is int and type(d) is int else (0, 0, None)


def over_lcm(values: Sequence[FieldScalar]) -> tuple[tuple[int, ...], int]:
    """Values as one flat Z[sqrt2] row (x0, y0, x1, y1, ...) over the lcm
    of their denominators, and that lcm."""
    d, row = lcm(*{v.d for v in values}), []
    for v in values:
        m = d // v.d
        row += v.x * m, v.y * m
    return tuple(row), d


def row_dot(b: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, int]]:
    """a -> (P, Q) with (a, b) = P + Q*sqrt2, on flat Z[sqrt2] rows."""
    p, q = [2 * v for v in b], list(b)  # (x, 2y) and (y, x) per pair
    p[::2], q[::2], q[1::2] = b[::2], b[1::2], b[::2]
    return lambda a: (sum(map(operator.mul, a, p)),
                      sum(map(operator.mul, a, q)))


def pair_values(rows: Sequence[Sequence[int]],
                den: int) -> dict[tuple[int, int], FieldScalar]:
    """{(x, y): (x + y*sqrt2)/den} over the distinct pairs of flat rows."""
    return {xy: from_ints(*xy, den)
            for xy in {p for r in rows for p in zip(r[::2], r[1::2])}}


def as_scalar(x: FieldScalar | Rational) -> FieldScalar:
    return x if isinstance(x, FieldScalar) else FieldScalar(x)


# Shared constants; FieldScalar is immutable so these are safe to reuse.
ONE = FieldScalar(1)
HALF = from_ints(1, 0, 2)
SQRT2 = FieldScalar(0, 1)
INV_SQRT2 = from_ints(0, 1, 2)


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)
    (?:
        (?:(?P<coef>\d+(?:/\d+)?)\*?)?   # optional coefficient, optional *
        sqrt2
        (?:/(?P<sdiv>\d+))?              # optional rational divisor
      |
        (?P<num>\d+(?:/\d+)?)
        (?:/(?P<den>sqrt2))?             # "1/sqrt2" style
    )
    """,
    re.VERBOSE | re.ASCII,
)


def parse_scalar(text: str) -> FieldScalar:
    """Parse a compact Q(sqrt2) literal.

    Accepts e.g. ``"1"``, ``"-3/2"``, ``"sqrt2"``, ``"2sqrt2"``,
    ``"3/2*sqrt2"``, ``"1/2-3/2sqrt2"``, ``"1/sqrt2"``, ``" sqrt2 / 2 "``;
    raises ValueError on anything else, "1 2" and zero denominators too.
    """
    if re.search("[0-9] +[0-9]", text):  # "1 2" is no 12
        raise ValueError(f"space inside a number in scalar literal {text!r}")
    s = text.strip().replace(" ", "").lower()
    if not s:
        raise ValueError("empty scalar literal")
    pos = 0
    total = FieldScalar(0)
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad scalar literal: {text!r} (at {s[pos:]!r})")
        sgn = -1 if m.group("sign") == "-" else 1
        p, _, q = (m.group("num") or m.group("coef") or "1").partition("/")
        p, q = sgn * int(p), int(q or 1)
        if q:  # p/q/sqrt2 = p/2q*sqrt2; p/q*sqrt2/k = p/qk*sqrt2 (k after q)
            q *= 2 if m.group("den") else int(m.group("sdiv") or 1)
        if not q:
            raise ValueError(f"zero denominator in scalar literal {text!r}")
        surd = m.group("num") is None or m.group("den")
        total = total + (from_ints(0, p, q) if surd else from_ints(p, 0, q))
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise ValueError(f"bad scalar literal: {text!r} (at {s[pos:]!r})")
    return total
