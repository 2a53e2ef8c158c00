"""Quaternions with FieldScalar components.

The multiplication rule follows the convention ``e1*e2 = e3`` (cyclic),
``e_i**2 = -1``.  Quaternions double as vectors of 4-space here: the
Euclidean scalar product is ``(p, q) = (p.conj()*q + q.conj()*p)/2``,
which works out to the componentwise dot product.

Reflections come in two equivalent forms (kept separate on purpose so
they can be cross-checked against each other):

* ``reflect``          -- the quaternionic form  -a * conj(v) * a / (a,a)
* ``reflect_classical`` -- the hyperplane form    v - 2 (v,a)/(a,a) * a
"""

from __future__ import annotations

from collections.abc import Sequence

from .scalar import FieldScalar, as_scalar, from_ints, over_lcm, row_dot

ScalarLike = "FieldScalar | int | Fraction"  # for annotations (PEP 563)


class Quaternion:
    """A quaternion ``q0 + q1*e1 + q2*e2 + q3*e3`` over Q(sqrt2)."""

    __slots__ = ("q0", "q1", "q2", "q3")
    __reduce__ = lambda self: (from_scalars, self.components())

    def __new__(cls, q0: ScalarLike = 0, q1: ScalarLike = 0,
                q2: ScalarLike = 0, q3: ScalarLike = 0) -> "Quaternion":
        return from_scalars(*map(as_scalar, (q0, q1, q2, q3)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Quaternion is immutable")

    # -- containers ------------------------------------------------------

    def components(self) -> tuple[FieldScalar, FieldScalar, FieldScalar, FieldScalar]:
        return (self.q0, self.q1, self.q2, self.q3)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components())

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return from_scalars(self.q0 + other.q0, self.q1 + other.q1,
                            self.q2 + other.q2, self.q3 + other.q3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return from_scalars(self.q0 - other.q0, self.q1 - other.q1,
                            self.q2 - other.q2, self.q3 - other.q3)

    def __neg__(self) -> "Quaternion":
        return from_scalars(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other: Quaternion | ScalarLike) -> "Quaternion":
        if isinstance(other, Quaternion):
            # (A + sqrt2 B)(C + sqrt2 F) = AC + 2BF + sqrt2 (AF + BC)
            (r, d), (s, e) = map(over_lcm, (self.components(),
                                            other.components()))
            a, b, c, f = r[::2], r[1::2], s[::2], s[1::2]
            ac, bf, af, bc = map(_hamilton, (a, b, a, b), (c, f, f, c))
            return from_scalars(*[from_ints(ac[k] + 2 * bf[k], af[k] + bc[k],
                                            d * e) for k in range(4)])
        try:  # as_scalar decides what counts as a scalar
            s = as_scalar(other)
        except TypeError:
            return NotImplemented
        return from_scalars(*(c * s for c in self.components()))

    __rmul__ = __mul__  # a scalar commutes with every quaternion

    def __truediv__(self, other: ScalarLike) -> "Quaternion":
        try:
            s = as_scalar(other)
        except TypeError:
            return NotImplemented
        return from_scalars(*(c / s for c in self.components()))

    def conj(self) -> "Quaternion":
        return from_scalars(self.q0, -self.q1, -self.q2, -self.q3)

    def dot(self, other: "Quaternion") -> FieldScalar:
        """Euclidean scalar product, a FieldScalar."""
        (a, d), (b, e) = map(over_lcm, (self.components(), other.components()))
        return from_ints(*row_dot(b)(a), d * e)

    def norm_sq(self) -> FieldScalar:
        return self.dot(self)

    # -- identity / ordering ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.q0 == other.q0 and self.q1 == other.q1 and
                self.q2 == other.q2 and self.q3 == other.q3)

    def __hash__(self) -> int:
        return hash(self.components())

    def __lt__(self, other: "Quaternion") -> bool:
        """Lexicographic over the (rational, sqrt2) parts of q0..q3;
        denominators are positive, so x/d < x'/d' iff x*d' < x'*d."""
        for s, o in zip(self.components(), other.components()):
            if s.x * o.d != o.x * s.d:
                return s.x * o.d < o.x * s.d
            if s.y * o.d != o.y * s.d:
                return s.y * o.d < o.y * s.d
        return False

    # -- formatting --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Quaternion({self.q0!r}, {self.q1!r}, {self.q2!r}, {self.q3!r})"

    __str__ = lambda self: _render(self.json_obj())

    def json_obj(self) -> list:
        return [str(c) for c in self.components()]


def _render(components: Sequence[str]) -> str:
    """``str`` of the Quaternion whose ``json_obj`` is ``components``."""
    parts = []
    for text, name in zip(components, ("", "e1", "e2", "e3")):
        if text == "0":
            continue
        if text in ("1", "-1") and name:
            text = text[:-1] + name
        elif ("+" in text[1:] or "-" in text[1:]) and name:
            text = f"({text}){name}"
        else:
            text += name
        parts.append(text if not parts or text.startswith("-")
                     else "+" + text)
    return "".join(parts) if parts else "0"


_new = object.__new__
_set0, _set1, _set2, _set3 = (Quaternion.q0.__set__, Quaternion.q1.__set__,
                              Quaternion.q2.__set__, Quaternion.q3.__set__)


def _hamilton(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The Hamilton product of two integer quaternions given as 4-tuples."""
    (p0, p1, p2, p3), (q0, q1, q2, q3) = p, q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3,
            p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1)


def from_scalars(q0: FieldScalar, q1: FieldScalar, q2: FieldScalar,
                 q3: FieldScalar) -> Quaternion:
    """A Quaternion of four FieldScalars taken as they are (no coercion)."""
    q = _new(Quaternion)
    _set0(q, q0)
    _set1(q, q1)
    _set2(q, q2)
    _set3(q, q3)
    return q


ONE_Q = Quaternion(1, 0, 0, 0)
E1 = Quaternion(0, 1, 0, 0)
E2 = Quaternion(0, 0, 1, 0)
E3 = Quaternion(0, 0, 0, 1)


def reflect(alpha: Quaternion, v: Quaternion) -> Quaternion:
    """Reflect v in the hyperplane orthogonal to alpha (quaternionic form)."""
    nsq = alpha.norm_sq()
    if nsq.is_zero():
        raise ValueError("cannot reflect in a zero vector")
    return -(alpha * v.conj() * alpha) / nsq


def reflect_classical(alpha: Quaternion, v: Quaternion) -> Quaternion:
    """Reflect v in the hyperplane orthogonal to alpha (linear-algebra form)."""
    nsq = alpha.norm_sq()
    if nsq.is_zero():
        raise ValueError("cannot reflect in a zero vector")
    t = (v.dot(alpha) * 2) / nsq
    return v - alpha * t
