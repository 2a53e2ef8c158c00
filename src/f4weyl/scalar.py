"""Exact arithmetic over the quadratic field Q(sqrt2).

Every coordinate that appears in this package lives in the field
``{a + b*sqrt(2) : a, b rational}``.  Working symbolically in this field
(rather than with floats) makes orbit membership, dominance tests and
scale-factor arithmetic exact: two points are equal iff their
:class:`FieldScalar` coordinates compare equal, full stop.

Floats only appear at export boundaries (``__float__``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import isqrt, sqrt
from typing import Optional, Union

Rational = Union[int, Fraction]


def _frac_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def surd_sign(a: Rational, b: Rational) -> int:
    """Exact sign of ``a + b*sqrt(2)`` for rational (or integer) a and b."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (sb > 0):
        return sb
    # mixed signs: the term with the larger square wins (never a tie)
    return sb if 2 * b * b > a * a else -sb


@total_ordering
class FieldScalar:
    """A number ``a + b*sqrt(2)`` with rational ``a`` and ``b``.

    Supports exact ring arithmetic, exact division (the field norm
    ``a**2 - 2*b**2`` vanishes only at zero), exact ordering, and an
    exact square root when one exists in the field.

    Parameters
    ----------
    a : int or Fraction
        Rational part.
    b : int or Fraction, optional
        Coefficient of sqrt(2).  Defaults to 0.
    """

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldScalar is immutable")

    # -- basics --------------------------------------------------------

    @staticmethod
    def _coerce(x: Union["FieldScalar", Rational]) -> "FieldScalar":
        if isinstance(x, FieldScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return FieldScalar(x)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        return surd_sign(self.a, self.b)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Union["FieldScalar", Rational]) -> "FieldScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldScalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: Union["FieldScalar", Rational]) -> "FieldScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldScalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: Union["FieldScalar", Rational]) -> "FieldScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldScalar(o.a - self.a, o.b - self.b)

    def __mul__(self, other: Union["FieldScalar", Rational]) -> "FieldScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldScalar(self.a * o.a + 2 * self.b * o.b,
                           self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["FieldScalar", Rational]) -> "FieldScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.a * o.a - 2 * o.b * o.b
        if not norm:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # 1/(a + b s) = (a - b s)/(a^2 - 2 b^2)
        return self * FieldScalar(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other: Rational) -> "FieldScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self) -> "FieldScalar":
        return FieldScalar(-self.a, -self.b)

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
        return FieldScalar(self.a, -self.b)

    def sqrt(self) -> Optional["FieldScalar"]:
        """Exact square root within the field, or None.

        Solves ``(x + y*sqrt2)**2 = a + b*sqrt2``, i.e. ``x^2 + 2y^2 = a``
        and ``2xy = b`` over the rationals.
        """
        if self.sign() < 0:
            return None
        if self.is_zero():
            return FieldScalar(0)
        if not self.b:
            r = _frac_sqrt(self.a)
            if r is not None:
                return FieldScalar(r)
            r = _frac_sqrt(self.a / 2)
            if r is not None:
                return FieldScalar(0, r)
            return None
        # x^2 is a root of t^2 - a t + b^2/2 = 0
        disc = _frac_sqrt(self.a * self.a - 2 * self.b * self.b)
        if disc is None:
            return None
        for t in ((self.a + disc) / 2, (self.a - disc) / 2):
            x = _frac_sqrt(t)
            if x is not None and x != 0:
                cand = FieldScalar(x, self.b / (2 * x))
                if cand * cand == self:
                    return abs(cand)
        return None

    # -- comparison ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldScalar):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other: Union["FieldScalar", Rational]) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        # Fraction hashing is costly (modular inverse); cache it.
        h = self._hash
        if h is None:
            h = hash(self.a) if self.b == 0 else hash((self.a, self.b))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversion / formatting ----------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * sqrt(2.0)

    def __repr__(self) -> str:
        return f"FieldScalar({self.a}, {self.b})"

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        if self.b == 1:
            surd = "sqrt2"
        elif self.b == -1:
            surd = "-sqrt2"
        else:
            surd = f"{self.b}sqrt2"
        if not self.a:
            return surd
        sep = "" if surd.startswith("-") else "+"
        return f"{self.a}{sep}{surd}"


def as_scalar(x: Union[FieldScalar, Rational]) -> FieldScalar:
    return x if isinstance(x, FieldScalar) else FieldScalar(x)


# Shared constants; FieldScalar is immutable so these are safe to reuse.
ZERO = FieldScalar(0)
ONE = FieldScalar(1)
HALF = FieldScalar(Fraction(1, 2))
SQRT2 = FieldScalar(0, 1)
INV_SQRT2 = FieldScalar(0, Fraction(1, 2))


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coef>\d+(?:/\d+)?)?          # optional rational coefficient
        \*?                              # optional explicit multiply
        sqrt2
        (?:/(?P<sdiv>\d+))?              # optional rational divisor
      |
        (?P<num>\d+(?:/\d+)?)
        (?:/(?P<den>sqrt2))?             # "1/sqrt2" style
    )
    """,
    re.VERBOSE,
)


def parse_scalar(text: str) -> FieldScalar:
    """Parse a compact Q(sqrt2) literal.

    Accepts e.g. ``"1"``, ``"-3/2"``, ``"sqrt2"``, ``"2sqrt2"``,
    ``"3/2*sqrt2"``, ``"1/2-3/2sqrt2"``, ``"1/sqrt2"``, ``"sqrt2/2"``.

    Raises
    ------
    ValueError
        If the text is not a valid literal, a zero denominator included.
    """
    try:
        return _parse_terms(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal {text!r}") from None


def _parse_terms(text: str) -> FieldScalar:
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
        if m.group("num") is not None:
            coef = Fraction(m.group("num"))
            if m.group("den"):  # rational / sqrt2  ==  (rational/2) * sqrt2
                total = total + FieldScalar(0, sgn * coef / 2)
            else:
                total = total + FieldScalar(sgn * coef)
        else:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("sdiv"):
                coef /= int(m.group("sdiv"))
            total = total + FieldScalar(0, sgn * coef)
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise ValueError(f"bad scalar literal: {text!r} (at {s[pos:]!r})")
    return total
