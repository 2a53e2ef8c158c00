"""Orbit branching under the signed-permutation group W(B4) and under
the octahedral x reflection subgroup W(B3) x A1, whose orbits are the
parallel 3D layers.  Each suborbit holds one point in its subgroup's
closed fundamental chamber (J. E. Humphreys, "Reflection Groups and
Coxeter Groups", section 1.12; D. M. Snow, "Weyl group orbits", ACM
TOMS 16 (1990) 94-108), and with these roots the chambers are
coordinate chains: a W(B4) part has one vertex with
q0 >= q1 >= q2 >= q3 >= 0, a W(B3) layer one with q1 >= q2 >= q3 >= 0.
Both branchings read the cached F4 orbit's integer vertex rows, with
each coordinate a pair x + y*sqrt2 over one denominator S > 0, and test
the signs of the label entries: q0-q1, q1-q2, q2-q3 and sqrt2*q3 for
B4, and sqrt2*q3, q2-q3, q1-q2 for B3 (B3R's simple roots are sqrt2*e3,
e2-e3, e1-e2); the height |q0/sqrt2| is the pair (2*y0, x0) over 2S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .orbits import _validated, generate_orbit, orbit_size
from .rootsys import (LabelLike, Labels, b3r_system, b4_system, f4_system,
                      scale_rows)
from .scalar import (INV_SQRT2, FieldScalar, as_scalar, from_ints,
                     surd_sign)


@dataclass(frozen=True)
class B4Part:
    """One signed-permutation orbit appearing in a branching."""

    labels: Labels
    size: int


def branch_b4(labels: Sequence[LabelLike]) -> Tuple[B4Part, ...]:
    """Split a rank-4 orbit into signed-permutation orbits.

    Each part is the B4 orbit of its one vertex with
    q0 >= q1 >= q2 >= q3 >= 0; the union of the part orbits is the
    original orbit.
    """
    return _branch_b4(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b4(labels: Labels) -> Tuple[B4Part, ...]:
    f4, b4 = f4_system(), b4_system()
    orbit = generate_orbit(f4, labels)
    s = orbit.den * f4.weight_den
    parts = []  # the B4 labels (q0-q1, q1-q2, q2-q3, sqrt2*q3) >= 0
    for x0, y0, x1, y1, x2, y2, x3, y3 in orbit.rows:
        if (surd_sign(x0 - x1, y0 - y1) >= 0
                and surd_sign(x1 - x2, y1 - y2) >= 0
                and surd_sign(x2 - x3, y2 - y3) >= 0
                and surd_sign(x3, y3) >= 0):
            parts.append((from_ints(x0 - x1, y0 - y1, s),
                          from_ints(x1 - x2, y1 - y2, s),
                          from_ints(x2 - x3, y2 - y3, s),
                          from_ints(2 * y3, x3, s)))
    return tuple(B4Part(part, orbit_size(b4, part)) for part in sorted(parts))


@dataclass(frozen=True)
class Slice:
    """A hyperplane layer of a rank-4 orbit.

    ``height`` is the coordinate along the fixed axis, always >= 0;
    ``paired`` marks layers that occur as a +/- mirror pair.  ``size``
    counts the vertices of one layer.
    """

    labels: Labels
    height: FieldScalar
    size: int
    paired: bool


def branch_b3a1(labels: Sequence[LabelLike]) -> Tuple[Slice, ...]:
    """Slice a rank-4 orbit into octahedral orbits at fixed heights.

    Each layer is the B3 orbit of its one vertex with
    q1 >= q2 >= q3 >= 0; layers at heights h and -h share that label
    and merge into one +/- pair.
    """
    return _branch_b3a1(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b3a1(labels: Labels) -> Tuple[Slice, ...]:
    f4, b3 = f4_system(), b3r_system()
    orbit = generate_orbit(f4, labels)
    s = orbit.den * f4.weight_den
    layers = set()  # the B3 labels (sqrt2*q3, q2-q3, q1-q2) >= 0, heights
    for x0, y0, x1, y1, x2, y2, x3, y3 in orbit.rows:
        if (surd_sign(x1 - x2, y1 - y2) >= 0
                and surd_sign(x2 - x3, y2 - y3) >= 0
                and surd_sign(x3, y3) >= 0):
            layers.add(((from_ints(2 * y3, x3, s),
                         from_ints(x2 - x3, y2 - y3, s),
                         from_ints(x1 - x2, y1 - y2, s)),
                        abs(from_ints(2 * y0, x0, 2 * s))))
    return tuple(Slice(part, height, orbit_size(b3, part), height.sign() > 0)
                 for part, height in sorted(layers))


def project_3d(labels: Sequence[LabelLike],
               scale: FieldScalar | int = 1) -> Tuple[Tuple[FieldScalar, frozenset], ...]:
    """Exact 3D layer decomposition of a (possibly rescaled) orbit.

    Returns (height, point set) pairs ordered from top to bottom; the
    points are the imaginary coordinate triples of the orbit vertices
    in the layer.
    """
    f4 = f4_system()
    labels = _validated(f4, labels)
    scale = as_scalar(scale)
    if scale.sign() <= 0:
        raise ValueError("scale must be positive")
    orbit = generate_orbit(f4, labels)
    rows = scale_rows(orbit.rows, scale)
    den = orbit.den * f4.weight_den * scale.d
    pairs = {r[k:k + 2] for r in rows for k in (0, 2, 4, 6)}
    scalars = {xy: from_ints(*xy, den) for xy in pairs}  # one per pair
    layers: Dict[Tuple[int, int], set] = {}  # keyed by the q0 pair
    for r in sorted(rows):  # vertex order: the sets print in it
        layers.setdefault(r[:2], set()).add(
            (scalars[r[2:4]], scalars[r[4:6]], scalars[r[6:]]))
    # the height is q0 / sqrt2, a positive factor: q0 order is height order
    return tuple((scalars[q0] * INV_SQRT2, frozenset(pts)) for q0, pts in
                 sorted(layers.items(), key=lambda kv: scalars[kv[0]],
                        reverse=True))


def verify_b4_branching(labels: Sequence[LabelLike]) -> bool:
    """Check that the branched orbits exactly partition the source orbit."""
    f4 = f4_system()
    labels = _validated(f4, labels)
    parts = [generate_orbit(b4_system(), p.labels).vertices
             for p in branch_b4(labels)]
    source = generate_orbit(f4, labels).vertices
    return (sum(map(len, parts)) == len(source)
            and set().union(*parts) == set(source))


def verify_b3a1_slices(labels: Sequence[LabelLike]) -> bool:
    """Check that the slice sizes account for every orbit vertex."""
    f4 = f4_system()
    labels = _validated(f4, labels)
    total = sum(s.size * (2 if s.paired else 1) for s in branch_b3a1(labels))
    return total == generate_orbit(f4, labels).size
