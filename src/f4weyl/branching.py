"""Orbit branching under the signed-permutation group W(B4) and under
W(B3) x A1 (the parallel 3D layers), read off the F4 orbit's dominant forms
|q0| >= ... >= |q3| (pairs x + y*sqrt2 over S, :class:`~f4weyl.orbits.Orbit`)
without expanding the orbit: each suborbit has one point in its closed
chamber (J. E. Humphreys, "Reflection Groups and Coxeter Groups", section
1.12).  A B4 part is one form's orbit, label (q0-q1, q1-q2, q2-q3, sqrt2*q3).
The B3 layer at q0 = +-q_k of a form has chamber point a >= b >= c >= 0, its
other three coordinates, label (sqrt2*c, b-c, a-b) (B3R's roots are sqrt2*e3,
e2-e3, e1-e2) and height |q_k/sqrt2|, the pair (2*y, x) over 2S.  Which of
a == b, b == c, c == 0 hold fixes its sorted signed permutations: one cached
template per tie pattern gives its size and its points (q0 -> -q0 is in
W(B4)).  Entry points validate a label once; the stages behind them take it
validated.  The partition checks that only the ``verify`` battery runs live
in :mod:`f4weyl.verify`.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Sequence

from .orbits import Record, _orbit_cached, _validated
from .rootsys import (LabelLike, Labels, b3r_system, b4_system, f4_system,
                      scale_rows)
from .scalar import INV_SQRT2, FieldScalar, as_scalar, from_ints, surd_order


def __getattr__(name: str):
    # perfbench's tracer spans these verify names here (ROADMAP item 1)
    if name not in ("verify_b4_branching", "verify_b3a1_slices"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)


class B4Part(Record):
    """One signed-permutation orbit appearing in a branching."""

    labels: Labels
    size: int


def branch_b4(labels: Sequence[LabelLike]) -> tuple[B4Part, ...]:
    """Split a rank-4 orbit into signed-permutation orbits, one per
    distinct dominant form of its coset rows."""
    return _branch_b4(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b4(labels: Labels) -> tuple[B4Part, ...]:
    orbit, b4 = _orbit_cached("F4", labels), b4_system()
    s = orbit.den
    parts = sorted(((from_ints(x0 - x1, y0 - y1, s),
                     from_ints(x1 - x2, y1 - y2, s),
                     from_ints(x2 - x3, y2 - y3, s), from_ints(2 * y3, x3, s)),
                    b4.orbit_count([form]))
                   for form in orbit.forms
                   for x0, y0, x1, y1, x2, y2, x3, y3 in [form])
    return tuple(B4Part(*part) for part in parts)


class Slice(Record):
    """A hyperplane layer of a rank-4 orbit: ``height`` (>= 0) along the
    fixed axis, ``size`` vertices, ``paired`` for a +/- mirror pair."""

    labels: Labels
    height: FieldScalar
    size: int
    paired: bool


def branch_b3a1(labels: Sequence[LabelLike]) -> tuple[Slice, ...]:
    """Slice a rank-4 orbit into octahedral orbits at fixed heights;
    layers at heights h and -h share their label and merge into a pair."""
    return _branch_b3a1(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b3a1(labels: Labels) -> tuple[Slice, ...]:
    orbit = _orbit_cached("F4", labels)
    s = orbit.den
    layers = sorted(((from_ints(2 * y3, x3, s), from_ints(x2 - x3, y2 - y3, s),
                      from_ints(x1 - x2, y1 - y2, s)), from_ints(2 * yk, xk, 2 * s),
                     len(_b3_template((x1, y1) == (x2, y2), (x2, y2) == (x3, y3),
                                      (x3, y3) == (0, 0))))
                    for x1, y1, x2, y2, x3, y3, xk, yk in {  # (rest, q_k) once
                        form[:k] + form[k + 2:] + form[k:k + 2]
                        for form in orbit.forms for k in (0, 2, 4, 6)})
    return tuple(Slice(part, height, size, height.sign() > 0)
                 for part, height, size in layers)


@lru_cache(maxsize=8)
def _b3_template(ab: bool, bc: bool, c0: bool) -> tuple[tuple[int, ...], ...]:
    """Distinct signed permutations of a B3 chamber point a >= b >= c >= 0
    with these ties, ascending, as index triples into (-a, -b, -c, 0, c, b, a)."""
    a, b, c = 3 - ab - bc - c0, 2 - bc - c0, 1 - c0  # each tie drops a step
    slot = {v: i for i, v in enumerate((-a, -b, -c, 0, c, b, a))}
    return tuple(sorted((slot[r[2]], slot[r[4]], slot[r[6]]) for r in
                        b3r_system().signed_permutations((0, 0, a, 0, b, 0, c, 0))))


def project_3d(labels: Sequence[LabelLike], scale: FieldScalar | int = 1
               ) -> tuple[tuple[FieldScalar, tuple], ...]:
    """Exact 3D layers of a (possibly rescaled) orbit, top to bottom: the
    (height, distinct imaginary coordinate triples, ascending) pairs: a
    filled B3 template per form holding q0, forms sharing q0 sorted once."""
    f4 = f4_system()
    labels = _validated(f4, labels)
    scale = as_scalar(scale)
    if scale.sign() <= 0:
        raise ValueError("scale must be positive")
    orbit = _orbit_cached(f4.name, labels)
    den = orbit.den * scale.d
    forms = [list(zip(f[::2], f[1::2])) for f in scale_rows(orbit.forms, scale)]
    # rank i of the n sorted +- coordinates and 0 is key 2*i - n + 1, which
    # keeps order, negates with the value and is 0 at 0: key rows sort as points
    values = sorted({(0, 0)} | {v for form in forms for x, y in form
                                for v in ((x, y), (-x, -y))}, key=surd_order)
    key = {xy: 2 * i - len(values) + 1 for i, xy in enumerate(values)}
    scalars = {key[xy]: from_ints(*xy, den) for xy in values}
    rests = {}  # the other three keys of each form holding q0 = v >= 0
    for keys in ([key[xy] for xy in form] for form in forms):
        for i in {keys.index(v) for v in keys}:  # each distinct v once
            rests.setdefault(keys[i], []).append(keys[:i] + keys[i + 1:])
    top = []  # the height is q0 / sqrt2, a positive factor: q0 order
    for v in sorted(rests, reverse=True):
        many = len(rests[v]) > 1  # coset forms sharing v: sort key rows
        rows = [(k[i], k[j], k[m]) for a, b, c in rests[v]
                for k in [[x if many else scalars[x]
                           for x in (-a, -b, -c, 0, c, b, a)]]
                for i, j, m in _b3_template(a == b, b == c, c == 0)]
        if many:
            rows = [(scalars[i], scalars[j], scalars[m]) for i, j, m in sorted(rows)]
        top.append((scalars[v] * INV_SQRT2, tuple(rows)))
    return tuple(top + [(-h, pts) for h, pts in reversed(top) if h])
