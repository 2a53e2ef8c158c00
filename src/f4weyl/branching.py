"""Orbit branching under the signed-permutation group W(B4) and under
the octahedral x reflection subgroup W(B3) x A1, whose orbits are the
parallel 3D layers.  Each suborbit holds one point in its subgroup's
closed fundamental chamber (J. E. Humphreys, "Reflection Groups and
Coxeter Groups", section 1.12; D. M. Snow, "Weyl group orbits", ACM
TOMS 16 (1990) 94-108), and with these roots the chambers are
coordinate chains: a W(B4) part has one vertex with
q0 >= q1 >= q2 >= q3 >= 0, a W(B3) layer one with q1 >= q2 >= q3 >= 0.
Both branchings filter the cached F4 orbit by those chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .orbits import _validated, generate_orbit, orbit_size
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

    Each part is the B4 orbit of its one vertex with
    q0 >= q1 >= q2 >= q3 >= 0; the union of the part orbits is the
    original orbit.
    """
    return _branch_b4(_validated(f4_system(), labels))


@lru_cache(maxsize=64)
def _branch_b4(labels: Labels) -> Tuple[B4Part, ...]:
    b4 = b4_system()
    parts = sorted(b4.vector_to_label(v)  # row order
                   for v in generate_orbit(f4_system(), labels).vertices
                   if v.q0 >= v.q1 >= v.q2 >= v.q3 >= 0)
    return tuple(B4Part(part, orbit_size(b4, part)) for part in parts)


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
    b3 = b3r_system()
    layers = {(b3.vector_to_label(v), abs(v.q0 * INV_SQRT2))
              for v in generate_orbit(f4_system(), labels).vertices
              if v.q1 >= v.q2 >= v.q3 >= 0}
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
    scaled = tuple(x * scale for x in labels)
    layers: Dict[FieldScalar, set] = {}
    for v in generate_orbit(f4, scaled).vertices:
        layers.setdefault(v.q0, set()).add((v.q1, v.q2, v.q3))
    # the height is q0 / sqrt2, a positive factor: q0 order is height order
    return tuple((q0 * INV_SQRT2, frozenset(pts)) for q0, pts in
                 sorted(layers.items(), key=lambda kv: kv[0], reverse=True))


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
