"""Simple roots, Cartan matrices and fundamental weights for F4, B4, B3.

Normalization.  All simple roots here carry squared norm 2, so the Gram
matrix (alpha_i, alpha_j) IS the (symmetrized) Cartan matrix, with the
off-diagonal -sqrt2 entries at each double bond, and the fundamental
weights satisfy (alpha_i, omega_j) = delta_ij together with
(omega_i, omega_j) = (C^-1)_ij.  Reflections are insensitive to root
scaling, so the generated Weyl groups agree with the unit-quaternion
versions used by :mod:`f4weyl.binocta`.

The three systems:

* F4  -- rank 4, double bond between nodes 2 and 3.
* B4  -- rank 4, double bond between nodes 3 and 4.
* B3R -- rank 3, acting on the imaginary subspace span(e1, e2, e3);
         its "weights" are the dual-basis vectors v1, v2, v3 and its
         Weyl group fixes the real axis pointwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import List, Optional, Sequence, Tuple, Union

from .quat import E1, E2, E3, ONE_Q, Quaternion, from_scalars
from .scalar import (INV_SQRT2, SQRT2, FieldScalar, as_scalar, from_ints,
                     surd_sign)

LabelLike = Union[FieldScalar, int, Fraction]
Labels = Tuple[FieldScalar, ...]
#: labels (x_1 + y_1*sqrt2, ..., x_r + y_r*sqrt2) / D flattened to
#: (x_1, y_1, ..., x_r, y_r); the common denominator D travels beside it
IntLabels = Tuple[int, ...]
IntRow = Tuple[int, ...]  # a vertex (q0, ..., q3), flattened the same way

_MAX_DOMINANCE_STEPS = 10_000


def _denominator(values: Sequence[FieldScalar]) -> int:
    """Least common denominator of the rational and sqrt2 parts."""
    return lcm(*(v.d for v in values))


def scalar_labels(mu: IntLabels, den: int) -> Labels:
    """Integer pairs over ``den`` back as FieldScalar labels."""
    return tuple(from_ints(mu[k], mu[k + 1], den) for k in range(0, len(mu), 2))


def _add_multiple(v: Tuple[int, ...], x: int, y: int,
                  w: Sequence[Tuple[int, int, int]]) -> Tuple[int, ...]:
    """v + (x + y*sqrt2) * w, w sparse: (k, p, q) is w_k = p + q*sqrt2."""
    out = list(v)
    for k, p, q in w:
        out[2 * k] += x * p + 2 * y * q
        out[2 * k + 1] += x * q + y * p
    return tuple(out)


def scale_rows(rows: Sequence[IntRow], s: FieldScalar) -> Sequence[IntRow]:
    """Rows over D times s = (x + y*sqrt2)/d, as rows over D * d (the
    same rows when s = 1)."""
    if s == 1:
        return rows
    x, y = s.x, s.y
    return [tuple(v for a, b in zip(r[::2], r[1::2])
                  for v in (a * x + 2 * b * y, a * y + b * x)) for r in rows]


def first_negative(mu: IntLabels, nodes: Sequence[int]) -> Optional[int]:
    """Lowest node of the ascending ``nodes`` whose label is negative, or
    None when mu is dominant on them."""
    for i in nodes:
        if surd_sign(mu[2 * i], mu[2 * i + 1]) < 0:
            return i
    return None


class RootSystem:
    """Immutable bundle of simple roots, weights and simple reflections."""

    def __init__(self, name: str, simple_roots: Sequence[Quaternion],
                 weights: Sequence[Quaternion]) -> None:
        self.name = name
        self.rank = len(simple_roots)
        self.simple_roots = tuple(simple_roots)
        self.weights = tuple(weights)
        self.cartan = tuple(
            tuple(a.dot(b) for b in self.simple_roots) for a in self.simple_roots
        )
        # the weights are dual to the roots, so their Gram matrix is C^-1
        self.cartan_inv = tuple(
            tuple(a.dot(b) for b in self.weights) for a in self.weights)
        # the label-space kernel in sparse integer rows of (k, p, q):
        # C_ik = p + q*sqrt2, and component k of a weight or simple root
        # is (p + q*sqrt2) / weight_den
        if _denominator([c for row in self.cartan for c in row]) != 1:
            raise ValueError(f"{name}: Cartan matrix is not over Z[sqrt2]")
        self._cartan_rows = tuple(
            tuple((j, c.x, c.y) for j, c in enumerate(row) if c)
            for row in self.cartan)
        den = self.weight_den = _denominator(
            [c for w in self.weights for c in w.components()])
        if _denominator([c * den for a in self.simple_roots
                         for c in a.components()]) != 1:
            raise ValueError(f"{name}: a simple root is not over "
                             f"Z[sqrt2]/{den}")
        self._weight_rows, self._root_rows = (
            tuple(tuple((k, c.x * (den // c.d), c.y * (den // c.d))
                        for k, c in enumerate(v.components()) if c)
                  for v in vectors)
            for vectors in (self.weights, self.simple_roots))

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    @cached_property
    def reflections(self) -> tuple:
        """Simple reflections as GroupElements, built on first use: label
        commands skip them."""
        from .binocta import reflection_element
        return tuple(reflection_element(a) for a in self.simple_roots)

    def coerce_labels(self, labels: Sequence[LabelLike]) -> Labels:
        if len(labels) != self.rank:
            raise ValueError(
                f"{self.name} takes {self.rank} labels, got {len(labels)}")
        return tuple(as_scalar(a) for a in labels)

    def label_to_vector(self, labels: Sequence[LabelLike]) -> Quaternion:
        """Sum a_i * omega_i as an exact quaternion."""
        mu, den = self.integer_labels(self.coerce_labels(labels))
        return self.vertices([self.integer_vector(mu)], den)[0]

    def vector_to_label(self, v: Quaternion) -> Labels:
        """Coordinates in the weight basis: a_i = (v, alpha_i)."""
        return tuple(v.dot(a) for a in self.simple_roots)

    def is_dominant(self, labels: Sequence[LabelLike]) -> bool:
        return all(as_scalar(a).sign() >= 0 for a in labels)

    # -- label-space kernel ------------------------------------------------

    def integer_labels(self, labels: Labels) -> Tuple[IntLabels, int]:
        """Labels as flat Z[sqrt2] integer pairs over a common denominator."""
        den = _denominator(labels)
        return tuple(v * (den // a.d) for a in labels for v in (a.x, a.y)), den

    def reflect_labels(self, mu: IntLabels, i: int) -> IntLabels:
        """Simple reflection s_i in label space: mu_j <- mu_j - mu_i * C_ij."""
        return _add_multiple(mu, -mu[2 * i], -mu[2 * i + 1],
                             self._cartan_rows[i])

    def label_orbit(self, mu: IntLabels,
                    nodes: Sequence[int]) -> List[Tuple[IntLabels, IntRow]]:
        """Orbit of mu, dominant on the ascending ``nodes`` J, under W_J,
        as (label, vertex row) pairs.

        The walk that reflects on the lowest negative label among J gives
        every other orbit point one parent, so the search inverts it:
        reflect on each positive label i in J and keep the image exactly
        when i is its lowest negative label among J.  The image's label
        on i is -mu_i < 0 (C_ii = 2), so only the nodes of J below i
        need testing.  Every point is found once, with no visited set.
        s_i moves the vertex row sum mu_j omega_j by -mu_i * alpha_i.
        """
        below = [(i, nodes[:k]) for k, i in enumerate(nodes)]
        found = [(mu, self.integer_vector(mu))]
        for nu, row in found:  # the list grows as it is walked: breadth first
            for i, lower in below:
                x, y = nu[2 * i], nu[2 * i + 1]
                if surd_sign(x, y) <= 0:
                    continue
                child = _add_multiple(nu, -x, -y, self._cartan_rows[i])
                if first_negative(child, lower) is None:  # nu is its parent
                    found.append(
                        (child, _add_multiple(row, -x, -y, self._root_rows[i])))
        return found

    def integer_vector(self, mu: IntLabels) -> IntRow:
        """sum mu_i omega_i as flat integer pairs over ``den * weight_den``."""
        row = (0,) * 8
        for i, weight in enumerate(self._weight_rows):
            row = _add_multiple(row, mu[2 * i], mu[2 * i + 1], weight)
        return row

    def vertices(self, rows: Sequence[IntRow], den: int) -> Tuple[Quaternion, ...]:
        """Sorted quaternions of integer vertex rows over ``den * weight_den``
        (over one positive denominator, integer order is Quaternion order)."""
        coords = sorted(rows)
        scale = den * self.weight_den
        scalars = {xy: from_ints(xy[0], xy[1], scale)
                   for xy in {c[k:k + 2] for c in coords for k in (0, 2, 4, 6)}}
        return tuple(from_scalars(*(scalars[c[k:k + 2]] for k in (0, 2, 4, 6)))
                     for c in coords)

    def dominant_representative(self, v: Quaternion) -> Tuple[Labels, Tuple[int, ...]]:
        """Dominant label of the orbit of v plus the reflection word reaching it.

        Standard dominance walk in label space: reflect on the
        lowest-index negative label until none is left.  Applying
        ``reflections[word[0]]``, then ``reflections[word[1]]``, ... to v
        gives the dominant vector.
        """
        mu, den = self.integer_labels(self.vector_to_label(v))
        word: List[int] = []
        for _ in range(_MAX_DOMINANCE_STEPS):
            i = first_negative(mu, range(self.rank))
            if i is None:
                return scalar_labels(mu, den), tuple(word)
            mu = self.reflect_labels(mu, i)
            word.append(i)
        raise ArithmeticError("dominance walk failed to terminate")


@lru_cache(maxsize=1)
def f4_system() -> RootSystem:
    h = Fraction(1, 2)
    roots = (
        Quaternion(h, -h, -h, -h) * SQRT2,   # (1 - e1 - e2 - e3)/sqrt2
        E3 * SQRT2,
        E2 - E3,
        E1 - E2,
    )
    weights = (
        ONE_Q * SQRT2,                                   # (sqrt2, 0, 0, 0)
        Quaternion(3, 1, 1, 1) * INV_SQRT2,
        Quaternion(2, 1, 1, 0),
        Quaternion(1, 1, 0, 0),
    )
    return RootSystem("F4", roots, weights)


@lru_cache(maxsize=1)
def b4_system() -> RootSystem:
    roots = (ONE_Q - E1, E1 - E2, E2 - E3, E3 * SQRT2)
    weights = (
        ONE_Q,
        Quaternion(1, 1, 0, 0),
        Quaternion(1, 1, 1, 0),
        Quaternion(1, 1, 1, 1) * INV_SQRT2,
    )
    return RootSystem("B4", roots, weights)


@lru_cache(maxsize=1)
def b3r_system() -> RootSystem:
    roots = (E3 * SQRT2, E2 - E3, E1 - E2)
    duals = (
        (E1 + E2 + E3) * INV_SQRT2,
        E1 + E2,
        E1,
    )
    return RootSystem("B3R", roots, duals)


def get_system(name: str) -> RootSystem:
    systems = {"F4": f4_system, "B4": b4_system, "B3": b3r_system,
               "B3R": b3r_system}
    if name.upper() not in systems:
        raise ValueError(f"unknown root system {name!r}")
    return systems[name.upper()]()


def format_labels(labels: Sequence[FieldScalar]) -> str:
    return "(" + ",".join(str(a) for a in labels) + ")"
