"""The label-space orbit kernel against the quaternion searches it replaced.

``quaternion_orbit`` is the reference: a breadth-first search over
vectors that applies each simple reflection as a quaternion pair
product and keeps a visited set.  The kernel must return the same
sorted vertex tuple.  Parabolic subgroup orders and dual-cell centers
are checked against ``parabolic_elements``, the closure of the simple
reflections as quaternion pairs.  Both branchings are checked against
the paper's coset route: quaternion left-multiplications of the
highest-weight vector, each followed by a dominance walk.  The property
tests draw seeded random dominant Q(sqrt2) labels (derandomized, so
every run sees the same examples).
"""

from fractions import Fraction
from itertools import combinations
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4weyl.binocta import OMEGA0, build_group, build_subsets
from f4weyl.branching import B4Part, Slice, branch_b3a1, branch_b4
from f4weyl.duals import dual_polytope
from f4weyl.orbits import (f_vector, generate_orbit, parabolic_elements,
                           parabolic_order, stabilizer_order)
from f4weyl.quat import ONE_Q, Quaternion
from f4weyl.rootsys import RootSystem, b3r_system, b4_system, f4_system, get_system
from f4weyl.scalar import INV_SQRT2, FieldScalar, over_lcm
from f4weyl.verify import (cells_at_vertex, verify_b3a1_slices,
                           verify_b4_branching)
import oracles

PROPERTY = dict(derandomize=True, deadline=None, database=None)


def quaternion_orbit(sys, labels):
    """Reference orbit: BFS over quaternion vectors with a visited set."""
    start = weight_sum(sys, labels)
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


def weight_sum(sys, labels):
    """Reference highest-weight vector: sum a_i * omega_i in FieldScalars."""
    v = Quaternion(0, 0, 0, 0)
    for a, w in zip(sys.coerce_labels(labels), sys.weights):
        v = v + w * a
    return v


def coset_branch_b4(labels):
    """Reference B4 parts: the dominant B4 labels of 1, OMEGA0 and
    OMEGA0^2 times the highest-weight vector, merged."""
    b4 = b4_system()
    lam = weight_sum(f4_system(), labels)
    parts = {b4.dominant_representative(rep * lam)[0]
             for rep in (ONE_Q, OMEGA0, OMEGA0 * OMEGA0)}
    return tuple(B4Part(p, oracles.orbit_size(b4, p)) for p in sorted(parts))


def coset_branch_b3a1(labels):
    """Reference slices: dominant B3 label and |q0/sqrt2| of each of the 24
    units of T times the highest-weight vector, merged."""
    b3 = b3r_system()
    lam = weight_sum(f4_system(), labels)
    layers = set()
    for t in build_subsets()["T"]:
        image = t * lam
        layers.add((b3.dominant_representative(image)[0],
                    abs(image.q0 * INV_SQRT2)))
    return tuple(Slice(p, h, oracles.orbit_size(b3, p), h.sign() > 0)
                 for p, h in sorted(layers))


@pytest.mark.parametrize("sys", [f4_system(), b4_system(), b3r_system()],
                         ids=lambda s: s.name)
def test_kernel_matches_quaternion_search_on_01_labels(sys):
    for labels in oracles.zero_one_labels(sys.rank):
        assert generate_orbit(sys, labels).vertices == \
            quaternion_orbit(sys, labels), labels


@pytest.mark.parametrize("sys", [f4_system(), b4_system(), b3r_system()],
                         ids=lambda s: s.name)
def test_parabolic_order_matches_quaternion_closure(sys):
    for r in range(sys.rank + 1):
        for nodes in map(frozenset, combinations(range(sys.rank), r)):
            assert parabolic_order(sys.name, nodes) == \
                len(parabolic_elements(sys.name, nodes)), sorted(nodes)


# the 0/1 labels and two seeded random labels of each 0/1 pattern: the
# centers are read off the unit orbits by their products with the labels
CENTER_CASES = oracles.zero_one_labels(4) + oracles.pattern_labels(2, 19)


@pytest.mark.parametrize("labels", CENTER_CASES, ids=[
    str(labels) if i < 15 else f"random-{i - 15}"
    for i, labels in enumerate(CENTER_CASES)])
def test_cell_centers_match_quaternion_closure(labels):
    f4 = f4_system()
    zeros = frozenset(i for i, a in enumerate(labels) if a == 0)
    stabilizer = parabolic_elements("F4", zeros)
    for family in cells_at_vertex(f4, labels):
        weight = f4.weights[family.center_node - 1]
        assert family.centers == \
            tuple(sorted({g.apply(weight) for g in stabilizer})), family.nodes


def test_branching_premises():
    # B3R's roots are F4's alpha_2..alpha_4, and W(B3R) lies in W(B4),
    # so every B4 part is a union of B3 layers
    assert b3r_system().simple_roots == f4_system().simple_roots[1:]
    assert parabolic_elements("B3R", frozenset({0, 1, 2})) <= \
        build_group("WB4")


@pytest.mark.parametrize("labels", oracles.zero_one_labels(4), ids=str)
def test_branchings_match_coset_route_on_01_labels(labels):
    assert branch_b4(labels) == coset_branch_b4(labels)
    assert branch_b3a1(labels) == coset_branch_b3a1(labels)


def assert_chains_are_chambers(labels):
    """The coordinate chains that the branchings filter on are exactly the
    closed B4 and B3R chambers, on every vertex of the F4 orbit."""
    b4, b3 = b4_system(), b3r_system()
    for v in generate_orbit(f4_system(), labels).vertices:
        assert (v.q0 >= v.q1 >= v.q2 >= v.q3 >= 0) == \
            b4.is_dominant(b4.vector_to_label(v)), v
        assert (v.q1 >= v.q2 >= v.q3 >= 0) == \
            b3.is_dominant(b3.vector_to_label(v)), v


@pytest.mark.parametrize("labels", oracles.zero_one_labels(4), ids=str)
def test_branching_chains_are_chambers_on_01_labels(labels):
    assert_chains_are_chambers(labels)


def test_cartan_must_be_integral():
    # rows over 2 of the roots 1 and (1+e1)/sqrt2, so (a1, a2) = sqrt2/2,
    # and of the weights 1 and e1
    roots = ((2, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0))
    weights = ((2, 0, 0, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="Cartan"):
        RootSystem("X", roots, weights, 2)


def test_reflect_labels_is_an_involution():
    f4 = f4_system()
    mu, _ = over_lcm(f4.coerce_labels((1, 2, 3, 4)))
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
    assert size * stabilizer_order(sys, labels) == \
        parabolic_order(sys.name, frozenset(range(sys.rank)))
    assert size == oracles.orbit_size(sys, labels)


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


F4_LABELS = system_and_label(systems=("F4",))


@settings(max_examples=25, **PROPERTY)
@given(F4_LABELS)
def test_property_euler_relation(case):
    sys, labels = case
    assert oracles.euler_ok(f_vector(sys, labels))


@settings(max_examples=15, **PROPERTY)
@given(F4_LABELS)
def test_property_b4_parts_partition_the_orbit(case):
    _, labels = case
    assert verify_b4_branching(labels)


@settings(max_examples=15, **PROPERTY)
@given(F4_LABELS)
def test_property_branchings_match_coset_route(case):
    sys, labels = case
    assert sys.label_to_vector(labels) == weight_sum(sys, labels)
    assert branch_b4(labels) == coset_branch_b4(labels)
    assert branch_b3a1(labels) == coset_branch_b3a1(labels)


@settings(max_examples=15, **PROPERTY)
@given(F4_LABELS)
def test_property_branching_chains_are_chambers(case):
    _, labels = case
    assert_chains_are_chambers(labels)


@settings(max_examples=15, **PROPERTY)
@given(F4_LABELS)
def test_property_slice_sizes_sum_to_n0(case):
    _, labels = case
    assert verify_b3a1_slices(labels)


@settings(max_examples=15, **PROPERTY)
@given(F4_LABELS)
def test_property_dual_f_vector_is_reversed(case):
    sys, labels = case
    fv = f_vector(sys, labels)
    dual = dual_polytope(sys, labels)
    assert len(dual.vertices) == sum(s.size for s in dual.shells) == fv.n3
    assert dual.f_tuple == tuple(reversed(fv.f_tuple()))


def _inventory(entries, flip=False):
    return sorted((tuple(sorted(5 - n for n in e.nodes)) if flip else e.nodes,
                   e.name, e.count) for e in entries)


@settings(max_examples=25, **PROPERTY)
@given(F4_LABELS)
def test_property_diagram_flip_mirrors_f_vector(case):
    sys, labels = case
    fv, flipped = f_vector(sys, labels), f_vector(sys, labels[::-1])
    assert flipped.f_tuple() == fv.f_tuple()
    assert _inventory(flipped.faces, flip=True) == _inventory(fv.faces)
    assert _inventory(flipped.cells, flip=True) == _inventory(fv.cells)
