"""Per-label stages on integer rows against the replaced routes.

Full orbits are the signed permutations of their coset rows; the
branchings read those rows, and the 3D layers, the dual shells and the
subgroup orders read integer vertex rows; the CLI prints the branching
text from its payload.  ``oracles`` holds the routes they replaced: the
label walk over all nodes, sorted ``FieldScalar`` vertices, the walk's
labels, walked rescaled labels, the free orbit of rho, a second
branching, and the walk with its parent test on every node of J.
Labels are the 15 0/1 patterns and seeded random dominant Q(sqrt2)
labels, some with negative rational or sqrt2 parts; scales are seeded
positive Q(sqrt2) numbers with nonzero sqrt2 parts.
"""

from itertools import combinations

import pytest

from f4weyl import cli, orbits
from f4weyl.binocta import OMEGA0
from f4weyl.branching import branch_b3a1, branch_b4, project_3d
from f4weyl.duals import dual_polytope
from f4weyl.orbits import generate_orbit, parabolic_order
from f4weyl.rootsys import (RootSystem, f4_system, format_labels, get_system,
                            omega0_row)
from f4weyl.scalar import parse_scalar
import oracles

F4 = f4_system()
LABELS = oracles.zero_one_labels(4) + oracles.random_labels(4, 30, 14)
IDS = [str(i) for i in range(len(LABELS))]
SCALES = [2, parse_scalar("1+sqrt2")] + [
    a for labels in oracles.random_labels(1, 4, 15) for a in labels]


@pytest.mark.parametrize("name", ("F4", "B4", "B3R"))
def test_walk_tests_parents_below_i_only(name):
    # s_i(nu) has label -nu_i < 0 on i, so i is its lowest negative label
    # exactly when no node of J below i is negative: same points, same order
    sys = get_system(name)
    for labels in (oracles.zero_one_labels(sys.rank)
                   + oracles.random_labels(sys.rank, 10, 15)):
        mu, _ = sys.integer_labels(sys.coerce_labels(labels))
        for r in range(sys.rank + 1):
            for nodes in combinations(range(sys.rank), r):
                assert sys.label_orbit(mu, nodes) == \
                    oracles.label_orbit(sys, mu, nodes), (labels, nodes)


COSET_CASES = [("F4", labels) for seed in (1, 3)
               for labels in oracles.random_labels(4, 30, seed)] + [
    ("B4", labels) for labels in oracles.random_labels(4, 20, 2)] + [
    ("B3R", labels) for labels in oracles.zero_one_labels(3)
    + oracles.random_labels(3, 10, 4)]


def test_coset_cases_cover_every_pattern():
    patterns = {tuple(int(bool(a)) for a in labels)
                for name, labels in COSET_CASES if name == "F4"}
    assert patterns == set(oracles.zero_one_labels(4))


@pytest.mark.parametrize("name,labels", COSET_CASES,
                         ids=[f"{n}-{i}" for i, (n, _) in
                              enumerate(COSET_CASES)])
def test_coset_rows_match_walk(name, labels):
    sys = get_system(name)
    rows = generate_orbit(sys, labels).rows
    walked = oracles.walked_rows(sys, labels)
    assert len(rows) == len(walked) == len(set(rows))
    assert set(rows) == set(walked)


def test_omega0_row_is_the_quaternion_product():
    orbit = generate_orbit(F4, LABELS[-1])
    for row in orbit.rows[::37]:
        v, = F4.vertices([row], orbit.den)
        got, = F4.vertices([omega0_row(row)], orbit.den)
        assert got == OMEGA0 * v
        assert omega0_row(omega0_row(omega0_row(row))) == \
            tuple(-c for c in row)


@pytest.mark.parametrize("row", [(1, 0, 0, 0, 0, 0, 0, 0),
                                 (2, 1, 0, 0, 0, 0, 0, 0),
                                 (1, 0, 1, 0, 1, 0, 0, 0)])
def test_odd_omega0_sum_raises(row):
    # an odd sum means the row is off the lattice: never floored
    with pytest.raises(ArithmeticError):
        omega0_row(row)


@pytest.mark.parametrize("labels", LABELS, ids=IDS)
def test_branchings_match_vertex_oracles(labels):
    assert branch_b4(labels) == oracles.branch_b4(labels)
    assert branch_b3a1(labels) == oracles.branch_b3a1(labels)
    assert branch_b3a1(labels) == oracles.branch_b3a1_by_labels(labels)


@pytest.mark.parametrize("labels", LABELS, ids=IDS)
def test_layers_match_vertex_oracle(labels):
    for scale in [1] + SCALES:
        got = project_3d(labels, scale)
        assert got == oracles.project_3d(labels, scale), scale
        # the scaled rows against the walk of scale * labels, including
        # the order each layer's set iterates (and prints) in
        walked = oracles.project_3d_walked(labels, scale)
        assert [(h, list(pts)) for h, pts in got] == \
            [(h, list(pts)) for h, pts in walked], scale


@pytest.mark.parametrize("labels", LABELS, ids=IDS)
def test_branch_text_matches_renderer_oracles(capsys, labels):
    text = ",".join(str(a) for a in labels)
    assert cli.main(["branch-b4", text]) == 0
    assert capsys.readouterr().out == \
        oracles.render_b4_branching(labels) + "\n"
    assert cli.main(["branch-b3a1", text]) == 0
    header = format_labels(F4.coerce_labels(labels)) + "_F4 ="
    assert capsys.readouterr().out.splitlines() == [header] + [
        "  " + line for line in oracles.render_b3a1_slices(labels)]


@pytest.mark.parametrize("labels", LABELS, ids=IDS)
def test_dual_shells_match_walked_rescaled_orbits(labels):
    dual = dual_polytope(F4, labels)
    sizes, vertices = oracles.dual_shells(F4, dual)
    assert [s.size for s in dual.shells] == sizes
    assert dual.vertices == vertices


@pytest.mark.parametrize("name", ("F4", "B4", "B3R"))
def test_parabolic_orders_match_rho_orbit(name):
    rank = get_system(name).rank
    for r in range(rank + 1):
        for nodes in map(frozenset, combinations(range(rank), r)):
            assert parabolic_order(name, nodes) == \
                oracles.parabolic_order(name, nodes), sorted(nodes)


@pytest.mark.parametrize("name,walks", [
    ("F4", {(0,): 2, (0, 1): 3, (0, 1, 2): 8, (0, 1, 2, 3): 24}),
    ("B4", {(0,): 2, (0, 1): 3, (0, 1, 2): 4, (0, 1, 2, 3): 16}),
    ("B3R", {(0,): 2, (0, 1): 4, (0, 1, 2): 6}),
])
def test_parabolic_order_peels_the_highest_node(monkeypatch, name, walks):
    # |W| takes the orbit of omega_k under W_J for J = {0..k}, k = rank-1
    # down to 0: 24 + 8 + 3 + 2 points for F4, not the 1152 of rho
    walked = {}
    walk = RootSystem.label_orbit

    def counted(self, mu, nodes):
        points = walk(self, mu, nodes)
        walked[tuple(nodes)] = len(points)
        return points

    monkeypatch.setattr(RootSystem, "label_orbit", counted)
    orbits.parabolic_order.cache_clear()
    try:
        parabolic_order(name, frozenset(range(len(walks))))
    finally:
        orbits.parabolic_order.cache_clear()
    # the orbit of omega_k under all of W comes from its coset rows
    full = tuple(range(len(walks)))
    assert walked == {nodes: n for nodes, n in walks.items() if nodes != full}
    unit = [int(i == full[-1]) for i in full]
    assert generate_orbit(get_system(name), unit).size == walks[full]


def test_vertices_are_built_on_first_read():
    labels = (parse_scalar("7/3"), 0, parse_scalar("5-sqrt2"), 1)
    orbit = generate_orbit(F4, labels)
    dual = dual_polytope(F4, labels)
    for stage in (branch_b4, branch_b3a1, project_3d):
        stage(labels)
    # a scaled projection scales the cached rows: no walk, no vertices
    misses = orbits._orbit_cached.cache_info().misses
    project_3d(labels, parse_scalar("1/2+sqrt2"))
    assert orbits._orbit_cached.cache_info().misses == misses
    assert "vertices" not in vars(orbit) and "vertices" not in vars(dual)
    assert len(orbit.vertices) == orbit.size
    assert len(dual.vertices) == sum(s.size for s in dual.shells)
