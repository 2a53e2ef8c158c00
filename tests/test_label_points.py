"""Per-label stages on integer rows against the replaced routes.

Full orbits are the signed permutations of their coset rows, and their
sizes and the subgroup orders are counted off those rows' dominant
forms; the branchings and the cell centers read those rows, each +-
pair of 3D layers fills one cached B3 template per form with the forms'
coordinate ranks (tied labels merge the layers of several forms), and
the dual shells and the dual cell integer vertex rows; no
stage expands the label's orbit; the CLI prints the branching and orbit
text from its payload.
``oracles`` holds the routes they replaced: the inverse dominance walk
over all nodes, over the zero-label nodes from e_j and from rho, sorted
``FieldScalar`` vertices, the walk's labels, walked rescaled labels, the
quaternion frame of the dual cell and a second branching.  Labels are
the 15 0/1 patterns and seeded random dominant Q(sqrt2) labels of every
pattern, some with negative rational or sqrt2 parts; scales are seeded
positive Q(sqrt2) numbers with nonzero sqrt2 parts.
"""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4weyl import branching, cli, orbits
from f4weyl.binocta import OMEGA0
from f4weyl.branching import branch_b3a1, branch_b4, project_3d
from f4weyl.duals import dual_cell, dual_polytope
from f4weyl.orbits import f_vector, generate_orbit, parabolic_order
from f4weyl.rootsys import (RootSystem, f4_system, format_labels, get_system,
                            omega0_row)
from f4weyl.scalar import FieldScalar, over_lcm, parse_scalar
import oracles

F4 = f4_system()
LABELS = oracles.zero_one_labels(4) + oracles.random_labels(4, 30, 14)
IDS = [str(i) for i in range(len(LABELS))]
# two labels of each 0/1 pattern: the face filter reads label values
PATTERNS = oracles.zero_one_labels(4) + oracles.pattern_labels(2, 17)
PATTERN_IDS = [str(i) for i in range(len(PATTERNS))]
SCALES = [2, parse_scalar("1+sqrt2"), parse_scalar("1/2+sqrt2")] + [
    a for labels in oracles.random_labels(1, 4, 15) for a in labels]


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
        want = oracles.project_3d(labels, scale)
        assert [(h, frozenset(pts)) for h, pts in got] == list(want), scale
        # each layer lists its points once, in ascending order: the order
        # the sorted points of the walk of scale * labels come in
        walked = oracles.project_3d_walked(labels, scale)
        assert [h for h, _ in got] == [h for h, _ in walked], scale
        for (h, pts), (_, walked_pts) in zip(got, walked):
            assert list(pts) == sorted(pts), (scale, h)
            assert len(set(pts)) == len(pts), (scale, h)
            assert sorted(walked_pts) == list(pts), (scale, h)


# LABELS and PATTERNS share the 15 0/1 patterns: each label once, then a
# surd label
LAYER_CASES = list(dict.fromkeys(LABELS + PATTERNS)) + [
    (parse_scalar("7/3-sqrt2"), 0, parse_scalar("1/2+sqrt2"), 2)]


@pytest.mark.parametrize("labels", LAYER_CASES,
                         ids=[str(i) for i in range(len(LAYER_CASES))])
def test_layers_come_in_mirrored_pairs(monkeypatch, labels):
    # the layer at -h holds the points of the layer at h, both read off
    # the forms with no F4 signed permutations
    orbit = generate_orbit(F4, labels)
    zero = any(not any(form[k:k + 2]) for form in orbit.forms
               for k in (0, 2, 4, 6))
    expanded = []
    perms = RootSystem.signed_permutations

    def counted(self, form):
        expanded.append(self.name)
        return perms(self, form)

    monkeypatch.setattr(RootSystem, "signed_permutations", counted)
    for scale in [1] + SCALES:
        layers = project_3d(labels, scale)
        for (h, pts), (mirror, mirror_pts) in zip(layers, reversed(layers)):
            assert h == -mirror and pts == mirror_pts, (scale, h)
            assert len(set(pts)) == len(pts), (scale, h)
        assert any(h == 0 for h, _ in layers) == zero, scale
        assert not zero or layers[len(layers) // 2][0] == 0, scale
        assert sum(len(pts) for _, pts in layers) == orbit.size, scale
    assert "F4" not in expanded, expanded


def test_layers_and_slices_expand_no_forms(monkeypatch):
    # each layer and slice reads a cached B3 template: once the templates
    # are warm, project_3d expands no form and branch_b3a1 counts none
    for labels in LAYER_CASES:
        for scale in [1] + SCALES:
            project_3d(labels, scale)
        branch_b3a1(labels)
    calls = []
    for name in ("signed_permutations", "orbit_count"):
        def counted(self, arg, kernel=getattr(RootSystem, name), name=name):
            calls.append((self.name, name))
            return kernel(self, arg)
        monkeypatch.setattr(RootSystem, name, counted)
    branching._branch_b3a1.cache_clear()
    for labels in LAYER_CASES:
        for scale in [1] + SCALES:
            project_3d(labels, scale)
        branch_b3a1(labels)
    assert calls == []


# label entries that make coordinates coincide, so that coset forms share
# a coordinate value and their layers merge
TIED = st.sampled_from([parse_scalar(t) for t in
                        ("0", "1", "2", "sqrt2", "1+sqrt2", "1/2")])
POSITIVE = st.builds(FieldScalar, st.fractions(-9, 9, max_denominator=4),
                     st.fractions(-9, 9, max_denominator=4)).filter(
                         lambda a: a.sign() > 0)


def _shared_value(labels):
    """Whether two coset forms of the label share a coordinate value."""
    forms = [{f[k:k + 2] for k in (0, 2, 4, 6)}
             for f in generate_orbit(F4, labels).forms]
    return any(a & b for a, b in combinations(forms, 2))


def test_tied_labels_match_vertex_oracles():
    # layers (content and order) and slices of tied labels at random
    # scales match the vertex and walk oracles, merged layers included
    merged = []

    @settings(max_examples=40, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(TIED, min_size=4, max_size=4).filter(any), POSITIVE)
    def check(labels, scale):
        labels = tuple(labels)
        merged.append(_shared_value(labels))
        got = project_3d(labels, scale)
        assert [(h, frozenset(pts)) for h, pts in got] == \
            list(oracles.project_3d(labels, scale))
        assert [(h, sorted(pts)) for h, pts in
                oracles.project_3d_walked(labels, scale)] == \
            [(h, list(pts)) for h, pts in got]
        assert branch_b3a1(labels) == oracles.branch_b3a1(labels)
        assert branch_b3a1(labels) == oracles.branch_b3a1_by_labels(labels)

    check()
    assert any(merged), "no draw reached a layer shared by two forms"


@pytest.mark.parametrize("labels", LABELS, ids=IDS)
def test_orbit_command_matches_vertex_oracles(capsys, labels):
    text = ",".join(str(a) for a in labels)
    vertices = generate_orbit(F4, labels).vertices
    assert cli.main(["orbit", text, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["vertices"]
    assert got == [v.json_obj() for v in vertices]
    assert cli.main(["orbit", text]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == \
        list(map(oracles.quaternion_str, vertices))


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


@pytest.mark.parametrize("labels", PATTERNS, ids=PATTERN_IDS)
def test_dual_cell_matches_quaternion_frame(labels):
    coords, want = dual_cell(F4, labels).coords, oracles.dual_cell_coords(
        F4, labels)
    assert coords == want
    assert repr(coords) == repr(want)


@pytest.mark.parametrize("name", ("F4", "B4", "B3R"))
def test_orbit_count_matches_rows(name):
    sys = get_system(name)
    labels = oracles.zero_one_labels(sys.rank) + (
        oracles.pattern_labels(2, 18) if name == "F4"
        else oracles.random_labels(sys.rank, 20, 18))
    for lab in labels:
        mu, _ = over_lcm(sys.coerce_labels(lab))
        rows = generate_orbit(sys, lab).rows
        assert sys.orbit_count(sys.coset_forms(mu)) == len(rows), lab
    assert sys.orbit_count(sys.coset_forms((0, 0) * sys.rank)) == 1


def test_orbit_size_leaves_rows_unbuilt():
    # a label no other test builds: its orbit is fresh in the cache
    labels = (parse_scalar("5/17"), 0, FieldScalar(3, 1), parse_scalar("2/19"))
    orbit = generate_orbit(F4, labels)
    assert "rows" not in orbit.__dict__
    assert orbit.size == 576
    assert "rows" not in orbit.__dict__
    assert len(orbit.rows) == orbit.size


def test_vertices_are_built_on_first_read():
    labels = (parse_scalar("7/3"), 0, parse_scalar("5-sqrt2"), 1)
    orbit = generate_orbit(F4, labels)
    dual = dual_polytope(F4, labels)
    f_vector(F4, labels)
    dual_cell(F4, labels)
    for stage in (branch_b4, branch_b3a1, project_3d):
        stage(labels)
    # a scaled projection scales the cached forms: no walk, no vertices
    misses = orbits._orbit_cached.cache_info().misses
    project_3d(labels, parse_scalar("1/2+sqrt2"))
    assert orbits._orbit_cached.cache_info().misses == misses
    # and no per-label stage expands the orbit's rows
    assert "rows" not in vars(orbit)
    assert "vertices" not in vars(orbit) and "vertices" not in vars(dual)
    assert len(orbit.vertices) == orbit.size
    assert len(dual.vertices) == sum(s.size for s in dual.shells)
