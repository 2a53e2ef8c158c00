"""Orbit branching under the two index-reducing subgroup splits.

A rank-4 orbit splits in two useful ways: under the signed-permutation
subgroup (three left cosets, represented by left multiplication with
powers of the hurwitz unit) and under the octahedral x reflection
subgroup (24 cosets, one per unit quaternion of the first kind), the
latter slicing the orbit into parallel 3D layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .binocta import OMEGA0, build_subsets
from .orbits import _validated, generate_orbit, orbit_size
from .quat import ONE_Q
from .rootsys import (LabelLike, Labels, b3r_system, b4_system, f4_system,
                      format_labels)
from .scalar import INV_SQRT2, FieldScalar, as_scalar


@dataclass(frozen=True)
class B4Part:
    """One signed-permutation orbit appearing in a branching."""

    labels: Labels
    size: int


def branch_b4(labels: Sequence[LabelLike]) -> Tuple[B4Part, ...]:
    """Split a rank-4 orbit into signed-permutation orbits.

    Three coset representatives, left multiplication by 1, OMEGA0 and
    OMEGA0^2, act on the highest-weight vector; the images are rotated
    back to dominant position and coinciding parts are merged.  The
    union of the part orbits is the original orbit.
    """
    return _branch_b4(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b4(labels: Labels) -> Tuple[B4Part, ...]:
    f4 = f4_system()
    b4 = b4_system()
    lam = f4.label_to_vector(labels)
    parts: List[B4Part] = []
    seen = set()
    for rep in (ONE_Q, OMEGA0, OMEGA0 * OMEGA0):
        part, _ = b4.dominant_representative(rep * lam)
        if part in seen:
            continue
        seen.add(part)
        parts.append(B4Part(part, orbit_size(b4, part)))
    parts.sort(key=lambda p: p.labels)  # the published row order
    return tuple(parts)


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

    The 24 coset representatives of the height-preserving subgroup send
    the highest-weight vector into every layer; each image is reduced
    to its dominant octahedral label and layers are merged first by
    exact coincidence, then across the +/- height mirror.
    """
    return _branch_b3a1(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b3a1(labels: Labels) -> Tuple[Slice, ...]:
    b3 = b3r_system()
    lam = f4_system().label_to_vector(labels)
    raw: Dict[Tuple[Labels, FieldScalar], FieldScalar] = {}
    for t in build_subsets()["T"]:
        image = t * lam
        part, _ = b3.dominant_representative(image)
        height = image.q0 * INV_SQRT2
        raw.setdefault((part, abs(height)), height)
    slices = []
    for (part, mag), _h in sorted(raw.items(), key=lambda kv: kv[0]):
        slices.append(Slice(part, mag, orbit_size(b3, part), mag.sign() > 0))
    return tuple(slices)


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
    scaled = tuple(x * scale for x in labels)
    layers: Dict[FieldScalar, set] = {}
    for v in generate_orbit(f4, scaled).vertices:
        layers.setdefault(v.q0 * INV_SQRT2, set()).add((v.q1, v.q2, v.q3))
    return tuple((h, frozenset(pts)) for h, pts in
                 sorted(layers.items(), key=lambda kv: kv[0], reverse=True))


def verify_b4_branching(labels: Sequence[LabelLike]) -> bool:
    """Check that the branched orbits exactly partition the source orbit."""
    f4 = f4_system()
    b4 = b4_system()
    labels = _validated(f4, labels)
    union: set = set()
    total = 0
    for part in branch_b4(labels):
        orb = generate_orbit(b4, part.labels)
        union.update(orb.vertices)
        total += orb.size
    source = generate_orbit(f4, labels)
    return total == source.size and union == set(source.vertices)


def verify_b3a1_slices(labels: Sequence[LabelLike]) -> bool:
    """Check that the slice sizes account for every orbit vertex."""
    f4 = f4_system()
    labels = _validated(f4, labels)
    slices = branch_b3a1(labels)
    total = sum(s.size * (2 if s.paired else 1) for s in slices)
    return total == generate_orbit(f4, labels).size


def render_b4_branching(labels: Sequence[LabelLike]) -> str:
    labels = f4_system().coerce_labels(labels)
    parts = branch_b4(labels)
    rhs = " + ".join(format_labels(p.labels) + "_B4" for p in parts)
    return format_labels(labels) + "_F4 = " + rhs


def render_b3a1_slices(labels: Sequence[LabelLike]) -> List[str]:
    lines = []
    for s in branch_b3a1(labels):
        sign = "+/-" if s.paired else "at"
        noun = "vertex" if s.size == 1 else "vertices"
        lines.append("%s_B3 %s %s  (%d %s%s)"
                     % (format_labels(s.labels), sign, s.height, s.size, noun,
                        " each" if s.paired else ""))
    return lines
