import random
from fractions import Fraction
from itertools import combinations

import pytest

from f4weyl import orbits
from f4weyl.binocta import build_subsets
from f4weyl.orbits import (f_vector, generate_orbit, geometric_edge_check,
                           parabolic_order, stabilizer_order)
from f4weyl.refdata import FVECTOR_GOLDEN
from f4weyl.rootsys import RootSystem, b4_system, f4_system, get_system
from f4weyl.scalar import SQRT2, FieldScalar, parse_scalar
from oracles import (_components, complex_walk, diagram_inventories, euler_ok,
                     orbit_size, pattern_labels, zero_one_labels)

F4 = f4_system()

ALL_PATTERNS = zero_one_labels(4)

# the ten labels worked out in detail downstream, with golden f-vectors
GOLDEN_FVECTORS = FVECTOR_GOLDEN

GOLDEN_CELLS = {
    (1, 0, 0, 0): {("octahedron", 24)},
    (0, 1, 0, 0): {("cuboctahedron", 24), ("cube", 24)},
    (0, 0, 1, 0): {("cube", 24), ("cuboctahedron", 24)},
    (1, 1, 0, 0): {("truncated octahedron", 24), ("cube", 24)},
    (1, 0, 1, 0): {("small rhombicuboctahedron", 24), ("cuboctahedron", 24),
                   ("triangular prism", 96)},
    (1, 0, 0, 1): {("octahedron", 24), ("triangular prism", 96)},
    (0, 1, 1, 0): {("truncated cube", 24)},
    (1, 1, 1, 0): {("great rhombicuboctahedron", 24), ("truncated cube", 24),
                   ("triangular prism", 96)},
    (1, 1, 0, 1): {("truncated octahedron", 24),
                   ("small rhombicuboctahedron", 24),
                   ("hexagonal prism", 96), ("triangular prism", 96)},
    (1, 1, 1, 1): {("great rhombicuboctahedron", 24),
                   ("hexagonal prism", 96)},
}

GOLDEN_FACES = {
    (1, 0, 0, 0): [("triangle", 96)],
    (0, 1, 0, 0): [("triangle", 96), ("square", 144)],
    (0, 0, 1, 0): [("square", 144), ("triangle", 96)],
    (1, 1, 0, 0): [("hexagon", 96), ("square", 144)],
    (1, 0, 1, 0): [("triangle", 96), ("square", 288), ("square", 144),
                   ("triangle", 192)],
    (1, 0, 0, 1): [("triangle", 192), ("square", 288), ("triangle", 192)],
    (0, 1, 1, 0): [("triangle", 96), ("octagon", 144), ("triangle", 96)],
    (1, 1, 1, 0): [("hexagon", 96), ("square", 288), ("octagon", 144),
                   ("triangle", 192)],
    (1, 1, 0, 1): [("hexagon", 192), ("square", 288), ("square", 144),
                   ("square", 288), ("triangle", 192)],
    (1, 1, 1, 1): [("hexagon", 192), ("square", 288), ("square", 288),
                   ("octagon", 144), ("square", 288), ("hexagon", 192)],
}


def test_small_orbits_are_scaled_binocta_sets():
    sets = build_subsets()
    orbit1 = generate_orbit(F4, (1, 0, 0, 0))
    assert orbit1.size == 24
    assert frozenset(orbit1.vertices) == {t * SQRT2 for t in sets["T"]}
    orbit4 = generate_orbit(F4, (0, 0, 0, 1))
    assert orbit4.size == 24
    assert frozenset(orbit4.vertices) == {t * SQRT2 for t in sets["T'"]}


def test_orbit_stabilizer_identity():
    for pattern in ALL_PATTERNS:
        orbit = generate_orbit(F4, pattern)
        assert orbit.size * stabilizer_order(F4, pattern) == \
            parabolic_order("F4", frozenset(range(4)))
        assert orbit.size == orbit_size(F4, pattern)


def test_one_sphere_property():
    for pattern in ALL_PATTERNS:
        orbit = generate_orbit(F4, pattern)
        norms = {v.norm_sq() for v in orbit.vertices}
        assert len(norms) == 1


def test_degenerate_labels_rejected():
    try:
        generate_orbit(F4, (0, 0, 0, 0))
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        generate_orbit(F4, (1, -1, 0, 0))
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_stabilizer_orders():
    assert stabilizer_order(F4, (1, 0, 0, 0)) == 48
    assert stabilizer_order(F4, (0, 1, 0, 0)) == 12
    assert stabilizer_order(F4, (1, 1, 1, 1)) == 1
    assert parabolic_order("F4", frozenset()) == 1
    assert parabolic_order("F4", frozenset({1, 2})) == 8  # the double bond


def test_golden_f_vectors_and_euler():
    for pattern, expected in GOLDEN_FVECTORS.items():
        complex_ = f_vector(F4, pattern)
        assert complex_.f_tuple() == expected, pattern
        assert euler_ok(complex_), pattern


def test_remaining_patterns_euler_and_size():
    sizes = {(0, 0, 0, 1): 24, (0, 1, 0, 1): 288, (0, 0, 1, 1): 192,
             (1, 0, 1, 1): 576, (0, 1, 1, 1): 576}
    for pattern, n0 in sizes.items():
        complex_ = f_vector(F4, pattern)
        assert complex_.n0 == n0, pattern
        assert euler_ok(complex_), pattern


def test_golden_inventories():
    for pattern, expected in GOLDEN_CELLS.items():
        cells = {(c.name, c.count) for c in f_vector(F4, pattern).cells}
        assert cells == expected, pattern
    for pattern, expected in GOLDEN_FACES.items():
        faces = [(f.name, f.count) for f in f_vector(F4, pattern).faces]
        assert faces == expected, pattern


def test_b4_f_vector_cross_check():
    # same counting rules on the other rank-4 diagram in play
    b4 = b4_system()
    complex_ = f_vector(b4, (0, 1, 0, 0))
    assert complex_.n0 == 24 and complex_.n1 == 96
    assert euler_ok(complex_)
    # the 24 octahedral cells of this 24-cell split 16 + 8 here
    assert {(c.name, c.count) for c in complex_.cells} == \
        {("octahedron", 16), ("octahedron", 8)}
    assert sorted(c.count for c in complex_.cells) == [8, 16]
    assert [(f.name, f.count) for f in complex_.faces] == \
        [("triangle", 32), ("triangle", 64)]


def test_f_vector_reads_only_the_zero_pattern():
    # Wythoff: the face lattice depends on the zero-label nodes alone, so
    # each label's counts and inventories are its 0/1 pattern's, and the
    # pattern cache holds one entry per pattern and system
    surd = tuple(map(parse_scalar, "7/3-sqrt2,0,0,1/2+sqrt2".split(",")))
    for sys in (F4, b4_system()):
        orbits._pattern.cache_clear()
        for labels in pattern_labels(4, 28) + [surd]:
            pattern = tuple(int(not a.is_zero()) for a in labels)
            got, want = f_vector(sys, labels), f_vector(sys, pattern)
            assert (got.f_tuple(), got.faces, got.cells) == \
                (want.f_tuple(), want.faces, want.cells), (sys.name, labels)
            assert got.labels == sys.coerce_labels(labels)
        assert orbits._pattern.cache_info().currsize <= 15, sys.name
    orbits._pattern.cache_clear()


def test_node_set_table_matches_the_sub_diagram_walk():
    # the complex read off the per-system node-set table against the old
    # per-pattern walk over components and halos (|W_S| from the walk of
    # rho): counts and entries, in order, on all 30 (system, pattern) keys
    for sys in (F4, b4_system()):
        for pattern in ALL_PATTERNS:
            zeros = frozenset(i for i, a in enumerate(pattern) if not a)
            p = orbits._pattern(sys.name, zeros)
            assert (*p.counts, p.faces, p.cells) == \
                complex_walk(sys.name, zeros), (sys.name, pattern)


def test_node_set_table_entries():
    # F4 is the path 1-2=3-4: per bitmask S, the components of S, the
    # nodes in or adjacent to S and |W_S|
    table = orbits._node_sets("F4")
    assert len(table) == 16 and table[0] == ((), 0, 1)
    assert table[0b1001] == ((0b0001, 0b1000), 0b1111, 4)
    assert table[0b0110] == ((0b0110,), 0b1111, 8)
    assert table[0b0011] == ((0b0011,), 0b0111, 6)
    assert table[0b1111] == ((0b1111,), 0b1111, 1152)


@pytest.mark.parametrize("name", ("F4", "B4", "B3R"))
def test_node_set_table_counts_each_connected_set_once(name, monkeypatch):
    # one coset count for |W| and at most one per connected node set: a
    # disconnected set's order is its components' product
    rank, forms, calls = get_system(name).rank, RootSystem.coset_forms, []
    monkeypatch.setattr(RootSystem, "coset_forms",
                        lambda sys, mu: calls.append(mu) or forms(sys, mu))
    connected = sum(len(_components(get_system(name), nodes)) == 1
                    for r in range(1, rank + 1)
                    for nodes in combinations(range(rank), r))
    orbits._node_sets.cache_clear()
    orbits._node_sets(name)
    assert len(calls) <= connected + 1, (len(calls), connected)


class _ReadKeys(dict):
    """A name table that records the keys it is read at."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_names_match_the_diagram_walk(monkeypatch):
    # every (nodes, name, count) entry of the invariant-keyed table, in
    # order, against the old chain walk on all 30 (system, pattern)
    # complexes, and every key of the table is read on the way
    table = _ReadKeys(orbits._NAMES)
    monkeypatch.setattr(orbits, "_NAMES", table)
    orbits._pattern.cache_clear()
    try:
        for sys in (F4, b4_system()):
            for pattern in ALL_PATTERNS:
                complex_ = f_vector(sys, pattern)
                assert (complex_.faces, complex_.cells) == \
                    diagram_inventories(sys, pattern), (sys.name, pattern)
    finally:
        orbits._pattern.cache_clear()
    assert table.read == set(orbits._NAMES)


def test_edge_oracle_small():
    assert geometric_edge_check(generate_orbit(F4, (1, 0, 0, 0))) == 96
    assert geometric_edge_check(generate_orbit(F4, (0, 0, 0, 1))) == 96
    assert geometric_edge_check(generate_orbit(F4, (0, 1, 1, 0))) == 576


def test_edge_oracle_refuses_unequal_labels():
    # only the shortest edge class is counted: 288 here, while N1 is 576
    with pytest.raises(ValueError, match="equal nonzero entries"):
        geometric_edge_check(generate_orbit(F4, (100000, 0, 0, 1)))


def test_edge_oracle_counts_labels_past_int64():
    # squared distances of these orbits do not fit in 64 bits
    for label, want in (((10 ** 10, 0, 0, 0), 96), ((10 ** 19, 0, 0, 0), 96),
                        ((10 ** 19, 0, 0, 10 ** 19), 576)):
        got = geometric_edge_check(generate_orbit(F4, label))
        assert got == want == f_vector(F4, label).n1, label


def _brute_edge_count(orbit):
    dists = [(u - v).norm_sq() for u, v in combinations(orbit.vertices, 2)]
    return dists.count(min(dists))


def test_edge_oracle_on_random_surd_labels():
    # one equal-entry label a + b*sqrt2 > 0 per pattern; on these, a sweep
    # over rows in tuple order rather than by the value of q0 prunes pairs
    # it must count
    rng = random.Random(2024)
    negative_b = []
    for pattern in ALL_PATTERNS:
        entry = FieldScalar(0)
        while entry.sign() <= 0:
            entry = FieldScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        negative_b.append(entry.b < 0)
        orbit = generate_orbit(F4, [entry if a else 0 for a in pattern])
        got = geometric_edge_check(orbit)
        assert got == f_vector(F4, orbit.labels).n1, orbit.labels
        if orbit.size <= 144:
            assert got == _brute_edge_count(orbit), orbit.labels
    assert any(negative_b) and not all(negative_b)
