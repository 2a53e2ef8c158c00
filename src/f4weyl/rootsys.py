"""Simple roots, Cartan matrices and fundamental weights for F4, B4, B3.

Normalization.  All simple roots carry squared norm 2, so the Gram
matrix (alpha_i, alpha_j) IS the (symmetrized) Cartan matrix, with
-sqrt2 at each double bond, and (alpha_i, omega_j) = delta_ij,
(omega_i, omega_j) = (C^-1)_ij.  Reflections ignore root scaling, so
the Weyl groups agree with the unit-quaternion ones of
:mod:`f4weyl.binocta`.  Each Weyl group is the union of ``cosets``
cosets, with representatives 1, omega0, omega0^2 (:func:`omega0_row`),
of the signed permutations of q_fixed..q3:

* F4  -- rank 4, double bond between nodes 2 and 3; three cosets.
* B4  -- rank 4, double bond between nodes 3 and 4; signed permutations.
* B3R -- rank 3 on span(e1, e2, e3), with the dual-basis vectors v1, v2,
         v3 as "weights"; signed permutations fixing q0.

:meth:`RootSystem.orbit_count` counts an orbit off its coset forms.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial, prod
from operator import itemgetter

from .scalar import (FieldScalar, as_scalar, from_ints, over_lcm, pair_values,
                     row_dot, surd_order, surd_sign)

LabelLike = "FieldScalar | int | Fraction"  # for annotations (PEP 563)
Labels = tuple[FieldScalar, ...]
#: labels (x_1 + y_1*sqrt2, ..., x_r + y_r*sqrt2) / D flattened to
#: (x_1, y_1, ..., x_r, y_r); the common denominator D travels beside it
IntLabels = tuple[int, ...]
IntRow = tuple[int, ...]  # a vertex (q0, ..., q3), flattened the same way


def scalar_labels(mu: IntLabels, den: int) -> Labels:
    """Integer pairs over ``den`` back as FieldScalar labels."""
    return tuple(from_ints(mu[k], mu[k + 1], den) for k in range(0, len(mu), 2))


def _sparse_row(v: IntRow) -> tuple[tuple[int, int, int], ...]:
    """v's nonzero components as (k, p, q): v_k = p + q*sqrt2."""
    return tuple((k, p, q) for k, (p, q) in enumerate(zip(v[::2], v[1::2])) if p or q)


def _add_multiple(v: tuple[int, ...], x: int, y: int,
                  w: Sequence[tuple[int, int, int]]) -> tuple[int, ...]:
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


def omega0_row(row: IntRow) -> IntRow:
    """(1 + e1 + e2 + e3)/2 * v: each coordinate (+-q0 +- q1 +- q2 +- q3)/2
    is halved exactly (an odd sum means v is off the lattice)."""
    x0, y0, x1, y1, x2, y2, x3, y3 = row
    if (x0 + x1 + x2 + x3) & 1 or (y0 + y1 + y2 + y3) & 1:  # every sum's
        raise ArithmeticError(f"omega0 * {row} is not integral")  # parity
    return ((x0 - x1 - x2 - x3) >> 1, (y0 - y1 - y2 - y3) >> 1,
            (x0 + x1 - x2 + x3) >> 1, (y0 + y1 - y2 + y3) >> 1,
            (x0 + x1 + x2 - x3) >> 1, (y0 + y1 + y2 - y3) >> 1,
            (x0 - x1 + x2 + x3) >> 1, (y0 - y1 + y2 + y3) >> 1)


def first_negative(mu: IntLabels, nodes: Sequence[int]) -> int | None:
    """Lowest node of the ascending ``nodes`` whose label is negative, or
    None when mu is dominant on them."""
    for i in nodes:
        if surd_sign(mu[2 * i], mu[2 * i + 1]) < 0:
            return i
    return None


def _quaternions(rows: Sequence[IntRow], den: int) -> tuple[Quaternion, ...]:
    from .quat import from_scalars  # no label command but orbit loads quat
    scalars = pair_values(rows, den)
    return tuple(from_scalars(*(scalars[c[k:k + 2]] for k in (0, 2, 4, 6)))
                 for c in rows)


class RootSystem:
    """Immutable bundle of simple roots, weights and simple reflections, given
    as integer rows (flattened as above) over one ``weight_den``: 2 for the
    three systems below, whose quaternions tests/test_rootsys.py writes out."""

    def __init__(self, name: str, roots: Sequence[IntRow],
                 weights: Sequence[IntRow], weight_den: int, cosets: int = 1,
                 fixed: int = 0) -> None:
        self.name, self.cosets, self.fixed = name, cosets, fixed
        self.rank, self.weight_den = len(roots), weight_den
        self.root_vectors, self.weight_vectors = tuple(roots), tuple(weights)
        # Gram matrices: C and (weights dual to roots) C^-1
        self.cartan, self.cartan_inv = (
            tuple(tuple(from_ints(*row_dot(a)(b), weight_den ** 2)
                        for b in vs) for a in vs)
            for vs in (self.root_vectors, self.weight_vectors))
        if any(c.d != 1 for row in self.cartan for c in row):
            raise ValueError(f"{name}: Cartan matrix is not over Z[sqrt2]")
        # sparse integer rows of (k, p, q): C_ik = p + q*sqrt2, and
        # component k of a root or weight is (p + q*sqrt2) / weight_den
        self._cartan_rows = tuple(
            tuple((j, c.x, c.y) for j, c in enumerate(row) if c)
            for row in self.cartan)
        self._root_rows = tuple(map(_sparse_row, self.root_vectors))
        self._weight_rows = tuple(map(_sparse_row, self.weight_vectors))
        f = 2 * fixed  # one getter per permutation of the pairs q_fixed..q3
        self._arrangements = tuple(
            itemgetter(*range(f), *[j for i in p for j in (i, i + 1)])
            for p in permutations(range(f, 8, 2)))

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    # the roots and weights as quaternions, built on first read: the group
    # layer and verify read them, label commands do not
    simple_roots = cached_property(lambda s: _quaternions(s.root_vectors, s.weight_den))
    weights = cached_property(lambda s: _quaternions(s.weight_vectors, s.weight_den))

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
        mu, den = over_lcm(self.coerce_labels(labels))
        return self.vertices([self.integer_vector(mu)], den * self.weight_den)[0]

    def vector_to_label(self, v: Quaternion) -> Labels:
        """Coordinates in the weight basis: a_i = (v, alpha_i)."""
        return tuple(v.dot(a) for a in self.simple_roots)

    def is_dominant(self, labels: Sequence[LabelLike]) -> bool:
        return all(as_scalar(a).sign() >= 0 for a in labels)

    # -- label-space kernel ------------------------------------------------

    def reflect_labels(self, mu: IntLabels, i: int) -> IntLabels:
        """Simple reflection s_i in label space: mu_j <- mu_j - mu_i * C_ij."""
        return _add_multiple(mu, -mu[2 * i], -mu[2 * i + 1],
                             self._cartan_rows[i])

    def reflect_row(self, row: IntRow, mu: IntLabels, i: int) -> IntRow:
        """s_i v = v - mu_i * alpha_i (|alpha_i|^2 = 2) on v's row and labels."""
        return _add_multiple(row, -mu[2 * i], -mu[2 * i + 1], self._root_rows[i])

    def coset_forms(self, mu: IntLabels) -> tuple[IntRow, ...]:
        """The distinct dominant forms (|q_fixed| >= ... >= |q3|) of the
        coset rows r, omega0*r, ... of r = sum mu_i omega_i."""
        row, forms, f = self.integer_vector(mu), [], 2 * self.fixed
        for k in range(self.cosets):
            row = omega0_row(row) if k else row
            pairs = [(x, y) if surd_sign(x, y) >= 0 else (-x, -y)
                     for x, y in zip(row[f::2], row[f + 1::2])]
            pairs.sort(key=surd_order, reverse=True)
            if (form := row[:f] + sum(pairs, ())) not in forms:
                forms.append(form)
        return tuple(forms)

    def signed_permutations(self, form: IntRow) -> list[IntRow]:
        """The distinct signed permutations of q_fixed..q3 of a form: each
        distinct arrangement once (the getters built with the system, in
        permutation order), zero coordinates never negated."""
        f = 2 * self.fixed
        signed, arranged = [form[:f]], {}
        for x, y in zip(form[f::2], form[f + 1::2]):
            signed = [r + s for r in signed
                      for s in ((x, y), (-x, -y))[:1 + bool(x or y)]]
        for get in self._arrangements:
            arranged.setdefault(get(form), get)
        return [get(r) for get in arranged.values() for r in signed]

    def orbit_count(self, forms: Sequence[IntRow]) -> int:
        """The number of rows ``signed_permutations`` makes of the forms:
        per form, n!/prod(m!) arrangements of its n coordinates (m the
        multiplicities of equal ones) times 2^(number of nonzero ones)."""
        f, total = 2 * self.fixed, 0
        for form in forms:
            pairs = list(zip(form[f::2], form[f + 1::2]))
            total += (factorial(len(pairs)) << sum(map(any, pairs))) // prod(
                factorial(pairs.count(p)) for p in set(pairs))
        return total

    def integer_vector(self, mu: IntLabels) -> IntRow:
        """sum mu_i omega_i as flat integer pairs over ``den * weight_den``."""
        row = (0,) * 8
        for i, weight in enumerate(self._weight_rows):
            row = _add_multiple(row, mu[2 * i], mu[2 * i + 1], weight)
        return row

    def vertices(self, rows: Sequence[IntRow], den: int) -> tuple[Quaternion, ...]:
        """Sorted quaternions of integer vertex rows over their own ``den``
        (over one positive denominator, integer order is Quaternion order)."""
        return _quaternions(sorted(rows), den)

    def dominant_representative(self, v: Quaternion) -> tuple[Labels, tuple[int, ...]]:
        """Dominant label of the orbit of v and the word of the dominance
        walk (reflect on the lowest negative label) that reaches it."""
        mu, den = over_lcm(self.vector_to_label(v))
        word: list[int] = []  # the walk ends: W is finite
        while (i := first_negative(mu, range(self.rank))) is not None:
            mu = self.reflect_labels(mu, i)
            word.append(i)
        return scalar_labels(mu, den), tuple(word)


@lru_cache(maxsize=1)
def f4_system() -> RootSystem:
    return RootSystem("F4", (
        (0, 1, 0, -1, 0, -1, 0, -1), (0, 0, 0, 0, 0, 0, 0, 2),
        (0, 0, 0, 0, 2, 0, -2, 0), (0, 0, 2, 0, -2, 0, 0, 0)), (
        (0, 2, 0, 0, 0, 0, 0, 0), (0, 3, 0, 1, 0, 1, 0, 1),
        (4, 0, 2, 0, 2, 0, 0, 0), (2, 0, 2, 0, 0, 0, 0, 0)), 2, cosets=3)


@lru_cache(maxsize=1)
def b4_system() -> RootSystem:
    return RootSystem("B4", (
        (2, 0, -2, 0, 0, 0, 0, 0), (0, 0, 2, 0, -2, 0, 0, 0),
        (0, 0, 0, 0, 2, 0, -2, 0), (0, 0, 0, 0, 0, 0, 0, 2)), (
        (2, 0, 0, 0, 0, 0, 0, 0), (2, 0, 2, 0, 0, 0, 0, 0),
        (2, 0, 2, 0, 2, 0, 0, 0), (0, 1, 0, 1, 0, 1, 0, 1)), 2)


@lru_cache(maxsize=1)
def b3r_system() -> RootSystem:
    return RootSystem("B3R", (
        (0, 0, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 2, 0, -2, 0),
        (0, 0, 2, 0, -2, 0, 0, 0)), (
        (0, 0, 0, 1, 0, 1, 0, 1), (0, 0, 2, 0, 2, 0, 0, 0),
        (0, 0, 2, 0, 0, 0, 0, 0)), 2, fixed=1)


_SYSTEMS = {"F4": f4_system, "B4": b4_system, "B3R": b3r_system}


def get_system(name: str) -> RootSystem:
    if (build := _SYSTEMS.get(name)) is None:
        raise ValueError(f"unknown root system {name!r}")
    return build()


def format_labels(labels: Sequence[FieldScalar]) -> str:
    return "(" + ",".join(str(a) for a in labels) + ")"
