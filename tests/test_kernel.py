"""The label-space orbit kernel against the quaternion search it replaced.

``quaternion_orbit`` is the reference: a breadth-first search over
vectors that applies each simple reflection as a quaternion pair
product and keeps a visited set.  The kernel must return the same
sorted vertex tuple.  The property tests draw seeded random dominant
Q(sqrt2) labels (derandomized, so every run sees the same examples).
"""

from fractions import Fraction
from itertools import product
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4weyl.orbits import generate_orbit, orbit_size, stabilizer_order, weyl_order
from f4weyl.quat import E1, ONE_Q, Quaternion
from f4weyl.rootsys import RootSystem, b3r_system, b4_system, f4_system, get_system
from f4weyl.scalar import INV_SQRT2, FieldScalar

PROPERTY = dict(derandomize=True, deadline=None, database=None)


def quaternion_orbit(sys, labels):
    """Reference orbit: BFS over quaternion vectors with a visited set."""
    start = sys.label_to_vector(labels)
    seen = {start}
    frontier = [start]
    while frontier:
        new: List[Quaternion] = []
        for v in frontier:
            for r in sys.reflections:
                w = r.apply(v)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return tuple(sorted(seen))


def zero_one_labels(rank):
    return [p for p in product((0, 1), repeat=rank) if any(p)]


@pytest.mark.parametrize("sys", [f4_system(), b4_system(), b3r_system()],
                         ids=lambda s: s.name)
def test_kernel_matches_quaternion_search_on_01_labels(sys):
    for labels in zero_one_labels(sys.rank):
        assert generate_orbit(sys, labels).vertices == \
            quaternion_orbit(sys, labels), labels


def test_cartan_must_be_integral():
    roots = (ONE_Q, (ONE_Q + E1) * INV_SQRT2)  # (a1, a2) = sqrt2/2
    with pytest.raises(ValueError, match="Cartan"):
        RootSystem("X", roots, (ONE_Q, E1), "WF4")


def test_reflect_labels_is_an_involution():
    f4 = f4_system()
    mu, _ = f4.integer_labels(f4.coerce_labels((1, 2, 3, 4)))
    for i in range(4):
        image = f4.reflect_labels(mu, i)
        assert image[2 * i:2 * i + 2] == (-mu[2 * i], -mu[2 * i + 1])
        assert f4.reflect_labels(image, i) == mu


# ---------------------------------------------------------------------------
# properties on random dominant labels


def positive_scalars():
    part = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
    return st.builds(FieldScalar, part, part).filter(lambda x: x.sign() > 0)


@st.composite
def system_and_label(draw, max_active=None, systems=("F4", "B4", "B3R")):
    """A root system and a dominant label with 1..max_active nonzero entries."""
    sys = get_system(draw(st.sampled_from(systems)))
    top = sys.rank if max_active is None else max_active[sys.name]
    active = draw(st.lists(st.integers(0, sys.rank - 1), min_size=1,
                           max_size=top, unique=True))
    labels = tuple(draw(positive_scalars()) if i in active else FieldScalar(0)
                   for i in range(sys.rank))
    return sys, labels


# at most 288 vertices: two active F4 nodes, three active B4 nodes
SMALL = {"F4": 2, "B4": 3, "B3R": 3}


@settings(max_examples=12, **PROPERTY)
@given(system_and_label(max_active=SMALL))
def test_property_kernel_matches_oracle(case):
    sys, labels = case
    orbit = generate_orbit(sys, labels)
    assert orbit.size <= 288
    assert orbit.vertices == quaternion_orbit(sys, labels)


@settings(max_examples=40, **PROPERTY)
@given(system_and_label())
def test_property_orbit_stabilizer(case):
    sys, labels = case
    size = generate_orbit(sys, labels).size
    assert size * stabilizer_order(sys, labels) == weyl_order(sys)
    assert size == orbit_size(sys, labels)


@settings(max_examples=40, **PROPERTY)
@given(system_and_label(), st.data())
def test_property_dominance_walk_returns_source(case, data):
    sys, labels = case
    orbit = generate_orbit(sys, labels)
    v = orbit.vertices[data.draw(st.integers(0, orbit.size - 1))]
    got, word = sys.dominant_representative(v)
    assert got == labels
    for i in word:
        v = sys.reflections[i].apply(v)
    assert v == sys.label_to_vector(labels)
