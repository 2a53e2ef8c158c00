"""Orbit branching under the signed-permutation group W(B4) and under
W(B3) x A1, whose orbits are the parallel 3D layers, read off the F4
orbit's dominant forms |q0| >= |q1| >= |q2| >= |q3| (pairs x + y*sqrt2
over S, :class:`~f4weyl.orbits.Orbit`) without expanding the orbit.
Each suborbit has one point in its closed chamber (J. E. Humphreys,
"Reflection Groups and Coxeter Groups", section 1.12).  A B4 part is
the orbit of one form, with label (q0-q1, q1-q2, q2-q3, sqrt2*q3).  A
B3 layer is the signed permutations with q0 = +-|q_k| of one form: its
chamber point is the form's other three coordinates, with label
(sqrt2*q3, q2-q3, q1-q2) (B3R's roots are sqrt2*e3, e2-e3, e1-e2), at
height |q_k/sqrt2|, the pair (2*y, x) over 2S.  A part's size is the count
of its form's signed permutations; the 3D layer at q0 = +-v is the B3
signed permutations of the other three coordinate ranks of each form
holding v >= 0 (q0 -> -q0 is in W(B4)).  Each entry point validates its
label once; the stages behind it take it validated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from .orbits import Record, _orbit_cached, _validated, generate_orbit
from .rootsys import (LabelLike, Labels, b3r_system, b4_system, f4_system,
                      scale_rows, surd_order)
from .scalar import INV_SQRT2, FieldScalar, as_scalar, from_ints


class B4Part(Record):
    """One signed-permutation orbit appearing in a branching."""

    labels: Labels
    size: int


def branch_b4(labels: Sequence[LabelLike]) -> Tuple[B4Part, ...]:
    """Split a rank-4 orbit into signed-permutation orbits, one per
    distinct dominant form of its coset rows."""
    return _branch_b4(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b4(labels: Labels) -> Tuple[B4Part, ...]:
    f4, b4 = f4_system(), b4_system()
    orbit = _orbit_cached(f4.name, labels)
    s = orbit.den * f4.weight_den
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


def branch_b3a1(labels: Sequence[LabelLike]) -> Tuple[Slice, ...]:
    """Slice a rank-4 orbit into octahedral orbits at fixed heights;
    layers at heights h and -h share their label and merge into a pair."""
    return _branch_b3a1(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b3a1(labels: Labels) -> Tuple[Slice, ...]:
    f4, b3 = f4_system(), b3r_system()
    orbit = _orbit_cached(f4.name, labels)
    s = orbit.den * f4.weight_den
    layers = set()  # (B3 label, height, size) for each form and each q_k
    for form in orbit.forms:
        for k in (0, 2, 4, 6):
            x1, y1, x2, y2, x3, y3 = rest = form[:k] + form[k + 2:]
            layers.add(((from_ints(2 * y3, x3, s),
                         from_ints(x2 - x3, y2 - y3, s),
                         from_ints(x1 - x2, y1 - y2, s)),
                        from_ints(2 * form[k + 1], form[k], 2 * s),
                        b3.orbit_count([(0, 0) + rest])))
    return tuple(Slice(part, height, size, height.sign() > 0)
                 for part, height, size in sorted(layers))


def project_3d(labels: Sequence[LabelLike], scale: FieldScalar | int = 1
               ) -> Tuple[Tuple[FieldScalar, tuple], ...]:
    """Exact 3D layers of a (possibly rescaled) orbit, top to bottom: the
    (height, distinct imaginary coordinate triples, ascending) pairs."""
    f4 = f4_system()
    labels = _validated(f4, labels)
    scale = as_scalar(scale)
    if scale.sign() <= 0:
        raise ValueError("scale must be positive")
    orbit = _orbit_cached(f4.name, labels)
    den = orbit.den * f4.weight_den * scale.d
    forms = [list(zip(f[::2], f[1::2])) for f in scale_rows(orbit.forms, scale)]
    # rank i of the n sorted +- coordinates is key 2*i - n + 1, which keeps
    # order, negates with the value and is 0 at 0: key rows sort as points
    values = sorted({v for form in forms for x, y in form
                     for v in ((x, y), (-x, -y))}, key=surd_order)
    key = {xy: 2 * i - len(values) + 1 for i, xy in enumerate(values)}
    scalars = {key[xy]: from_ints(*xy, den) for xy in values}
    b3, rows = b3r_system(), {}  # the B3 key rows of each layer q0 = v >= 0
    for form in forms:
        keyed = tuple(k for xy in form for k in (key[xy], 0))
        for i in (0, 2, 4, 6):
            if keyed[i] not in keyed[:i:2]:  # each distinct v once
                rows.setdefault(keyed[i], []).extend(b3.signed_permutations(
                    keyed[i:i + 2] + keyed[:i] + keyed[i + 2:]))
    # the height is q0 / sqrt2, a positive factor: q0 order is height order
    top = [(scalars[v] * INV_SQRT2, tuple([
        (scalars[r[2]], scalars[r[4]], scalars[r[6]]) for r in sorted(rows[v])]))
        for v in sorted(rows, reverse=True)]
    return tuple(top + [(-h, pts) for h, pts in reversed(top) if h])


def verify_b4_branching(labels: Sequence[LabelLike]) -> bool:
    """Check that the branched orbits exactly partition the source orbit,
    whose expanded vertices number its closed-form size."""
    parts = [generate_orbit(b4_system(), p.labels).vertices
             for p in branch_b4(labels)]
    orbit = generate_orbit(f4_system(), labels)
    return (len(orbit.vertices) == orbit.size == sum(map(len, parts))
            and set().union(*parts) == set(orbit.vertices))


def verify_b3a1_slices(labels: Sequence[LabelLike]) -> bool:
    """Check that the slice sizes account for every expanded orbit row."""
    total = sum(s.size * (2 if s.paired else 1) for s in branch_b3a1(labels))
    return total == len(generate_orbit(f4_system(), labels).rows)
