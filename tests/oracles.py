"""Slow exact routes kept as test oracles, and the seeded labels they are
compared on.

The library reads each per-label result off the label walk's integer
(label, vertex row) points.  The oracles below are the routes those
replaced: the walk tests a point's parent on every node of J, and the
per-label routes read the sorted ``FieldScalar`` vertices, walk every
rescaled dual shell, and take |W_J| as the free orbit of rho.
"""

import random
from fractions import Fraction
from itertools import product
from typing import Dict

from f4weyl.branching import B4Part, Slice
from f4weyl.orbits import generate_orbit, orbit_size
from f4weyl.rootsys import (b3r_system, b4_system, f4_system, first_negative,
                            get_system)
from f4weyl.scalar import INV_SQRT2, FieldScalar, as_scalar, surd_sign


def zero_one_labels(rank):
    return [p for p in product((0, 1), repeat=rank) if any(p)]


def random_labels(rank, count, seed):
    """Seeded dominant labels: each entry is 0 or a positive x + y*sqrt2
    with small rational x and y of either sign."""
    rng = random.Random(seed)

    def entry():
        while True:
            a = FieldScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            if a.sign() > 0:
                return a

    out = []
    while len(out) < count:
        labels = tuple(entry() if rng.random() < 0.6 else FieldScalar(0)
                       for _ in range(rank))
        if any(labels):
            out.append(labels)
    assert any(a.b < 0 for labels in out for a in labels)
    return out


def label_orbit(sys, mu, nodes):
    """The label walk with the parent test on all of J: keep s_i(nu) when
    i is its lowest negative label among J; rows from ``integer_vector``."""
    found = [mu]
    for nu in found:
        for i in nodes:
            if surd_sign(nu[2 * i], nu[2 * i + 1]) > 0:
                child = sys.reflect_labels(nu, i)
                if first_negative(child, nodes) == i:
                    found.append(child)
    return [(nu, sys.integer_vector(nu)) for nu in found]


def branch_b4(labels):
    """B4 parts: the F4 vertices with q0 >= q1 >= q2 >= q3 >= 0, each
    read in the B4 weight basis."""
    b4 = b4_system()
    parts = sorted(b4.vector_to_label(v)
                   for v in generate_orbit(f4_system(), labels).vertices
                   if v.q0 >= v.q1 >= v.q2 >= v.q3 >= 0)
    return tuple(B4Part(part, orbit_size(b4, part)) for part in parts)


def branch_b3a1(labels):
    """B3 layers: the F4 vertices with q1 >= q2 >= q3 >= 0, each read in
    the B3 weight basis, at height |q0/sqrt2|."""
    b3 = b3r_system()
    layers = {(b3.vector_to_label(v), abs(v.q0 * INV_SQRT2))
              for v in generate_orbit(f4_system(), labels).vertices
              if v.q1 >= v.q2 >= v.q3 >= 0}
    return tuple(Slice(part, height, orbit_size(b3, part), height.sign() > 0)
                 for part, height in sorted(layers))


def project_3d(labels, scale=1):
    """(height, point set) layers of the scaled orbit, grouped on q0."""
    f4 = f4_system()
    scaled = tuple(a * as_scalar(scale) for a in f4.coerce_labels(labels))
    layers: Dict[FieldScalar, set] = {}
    for v in generate_orbit(f4, scaled).vertices:
        layers.setdefault(v.q0, set()).add((v.q1, v.q2, v.q3))
    return tuple((q0 * INV_SQRT2, frozenset(pts)) for q0, pts in
                 sorted(layers.items(), key=lambda kv: kv[0], reverse=True))


def dual_shells(sys, dual):
    """(shell sizes, vertex union) of the dual's shells, each walked as
    the orbit of its rescaled single-node label."""
    sizes, vertices = [], set()
    for shell in dual.shells:
        single = tuple(shell.scale if i == shell.node - 1 else 0
                       for i in range(sys.rank))
        orbit = generate_orbit(sys, single)
        sizes.append(orbit.size)
        vertices.update(orbit.vertices)
    return sizes, frozenset(vertices)


def parabolic_order(sys_name, nodes):
    """|W_J| as the size of the free W_J-orbit of rho = (1, ..., 1)."""
    sys = get_system(sys_name)
    return len(sys.label_orbit((1, 0) * sys.rank, sorted(nodes)))
