"""The integer dual-cell hull against the scalar hull it replaced.

The dual-cell hull runs on Z[sqrt2] integer rows; ``oracle_faces`` is
the hull it replaced, in ``FieldScalar`` arithmetic, and both must give
the same face cycles.  Labels are the 0/1 patterns,
seeded random dominant Q(sqrt2) labels (some with negative rational or
sqrt2 parts) and three labels with a 10^17 entry; hypothesis draws small
Z[sqrt2] point sets, which must give the oracle's faces or name their
fault.
"""

from functools import cmp_to_key
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4weyl import duals
from f4weyl.branching import project_3d
from f4weyl.duals import convex_faces, dual_cell
from f4weyl.orbits import f_vector
from f4weyl.rootsys import f4_system
from f4weyl.scalar import FieldScalar
from oracles import cross3, dot3, random_labels, sub3, zero_one_labels

F4 = f4_system()
BIG = 10 ** 17
HUGE_LABELS = [(1, 0, 0, BIG), (BIG, 0, 1, 0), (1, BIG, 0, 0), (2, 0, 0, 1)]


# ---------------------------------------------------------------------------
# the integer hull


def oracle_faces(points):
    """The FieldScalar hull: a triple spans a face when every point lies
    weakly on one side of its plane; each face is sorted counter-clockwise
    about its outward normal from its lowest index."""
    pts = list(points)
    planes = {}
    for i, j, k in combinations(range(len(pts)), 3):
        normal = cross3(sub3(pts[j], pts[i]), sub3(pts[k], pts[i]))
        if all(c.is_zero() for c in normal):
            continue
        dots = [dot3(sub3(p, pts[i]), normal) for p in pts]
        signs = {d.sign() for d in dots} - {0}
        if len(signs) > 1:
            continue
        if signs == {1}:
            normal = tuple(-c for c in normal)
        planes[frozenset(m for m, d in enumerate(dots) if d.is_zero())] = normal
    faces = []
    for members, normal in planes.items():
        first, *rest = sorted(members)
        p0 = pts[first]

        def turn(a, b):
            return -dot3(normal, cross3(sub3(pts[a], p0),
                                        sub3(pts[b], p0))).sign()

        faces.append((first, *sorted(rest, key=cmp_to_key(turn))))
    return sorted(faces)


def cell_points(labels, scaled):
    cell = dual_cell(F4, labels)
    return [u for _, u in (cell.rows() if scaled else cell.coords)]


@pytest.mark.parametrize("scaled", (False, True), ids=("scale 1", "rows"))
def test_hull_matches_oracle_on_01_labels(scaled):
    for labels in zero_one_labels(4):
        pts = cell_points(labels, scaled)
        assert convex_faces(pts) == oracle_faces(pts), labels


def test_hull_matches_oracle_on_random_and_huge_labels():
    for labels in random_labels(4, 30, 7) + HUGE_LABELS:
        pts = cell_points(labels, False)
        assert convex_faces(pts) == oracle_faces(pts), labels


def test_hull_faces_are_the_edges_at_the_vertex():
    # a face of the dual cell at v is an edge of the source through v,
    # and every vertex meets 2 * N1 / N0 edges
    for labels in random_labels(4, 30, 8):
        fv = f_vector(F4, labels)
        assert len(convex_faces(cell_points(labels, False))) * fv.n0 == \
            2 * fv.n1, labels


def test_hull_skips_triples_inside_found_faces(monkeypatch):
    # the scan records a face at the first of its triples that it meets and
    # never scans the others, so no face is recorded twice; each of the 8
    # quadrilaterals holds 3 skipped triples
    pts = cell_points((1, 0, 0, 1), True)
    recorded, combos = [], duals.combinations

    def combinations(items, r):
        if not isinstance(items, range):  # a found face's members
            recorded.append(tuple(items))
        return combos(items, r)

    monkeypatch.setattr(duals, "combinations", combinations)
    faces = convex_faces(pts)
    assert [len(face) for face in faces] == [4] * 8
    assert sorted(recorded) == sorted(tuple(sorted(f)) for f in faces)


def test_hull_takes_each_orientation_once(monkeypatch):
    # one cross product per pair 2 <= b < c of the rows d minus row 0, one
    # triple product per 1 <= a < b < c (each unpacks its d_a once) and one
    # sign per 4-set; the scan of the 96 candidate triples takes none
    pts = cell_points((1, 0, 0, 1), True)
    n, crosses, reads, signs = len(pts), [], [], []

    class Row(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    sub, cross, sign = duals._sub_rows, duals._cross_rows, duals.surd_sign
    monkeypatch.setattr(duals, "_sub_rows", lambda a, b: Row(sub(a, b)))
    monkeypatch.setattr(duals, "_cross_rows",
                        lambda a, b: crosses.append(1) or cross(a, b))
    monkeypatch.setattr(duals, "surd_sign",
                        lambda p, q: signs.append(1) or sign(p, q))
    assert convex_faces(pts) == oracle_faces(pts)
    assert n == 10
    assert len(crosses) == comb(n - 2, 2) == 28
    assert len(reads) == comb(n - 1, 3) == 84
    assert len(signs) == comb(n, 4) == 210


# a hull's input either gives the oracle's faces or names its fault: grid
# draws make coplanar, collinear and repeated points common, sphere draws
# (signed permutations of one row) keep every point a vertex, and the
# midpoint of two sphere points is never one
FAULTS = ("empty geometry", "duplicate points", "degenerate (flat) geometry",
          "points not in convex position")
_SURD = st.builds(FieldScalar, st.integers(-3, 3), st.integers(-2, 2))
_GRID = st.builds(FieldScalar, st.integers(-1, 1))
_SIGNED = [(p, s) for p in permutations(range(3))
           for s in product((1, -1), repeat=3)]
_SPHERE = st.builds(
    lambda row, picks: list(dict.fromkeys(
        tuple(row[i] * e for i, e in zip(*_SIGNED[k])) for k in picks)),
    st.tuples(_SURD, _SURD, _SURD),
    st.lists(st.integers(0, len(_SIGNED) - 1), min_size=4, max_size=12,
             unique=True))
_MIDPOINT = st.builds(  # inside the body, inside a face or on an edge
    lambda pts, a, b: pts + [tuple((x + y) / 2 for x, y in zip(
        pts[a % len(pts)], pts[b % len(pts)]))],
    _SPHERE, st.integers(0, 11), st.integers(0, 11))
POINT_SETS = st.one_of(
    st.lists(st.tuples(_SURD, _SURD, _SURD), max_size=12, unique=True),
    st.lists(st.tuples(_GRID, _GRID, _GRID), max_size=12, unique=True),
    st.lists(st.tuples(_GRID, _GRID, _GRID), max_size=12), _SPHERE,
    _MIDPOINT)


def expected_fault(pts):
    """The message owed for ``pts``, read off the oracle's faces, or None:
    a flat set has no face or one holding every point, and a point of a
    3-polytope is a vertex exactly when it lies in three faces or more."""
    if not pts:
        return FAULTS[0]
    if len(set(pts)) < len(pts):
        return FAULTS[1]
    faces = oracle_faces(pts)
    if not faces or any(len(face) == len(pts) for face in faces):
        return FAULTS[2]
    if any(sum(m in face for face in faces) < 3 for m in range(len(pts))):
        return FAULTS[3]
    return None


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(POINT_SETS)
def test_hull_matches_oracle_or_names_the_fault(pts):
    fault = expected_fault(pts)
    if fault is not None:
        with pytest.raises(ValueError) as err:
            convex_faces(pts)
        assert str(err.value) == fault
    else:
        assert convex_faces(pts) == oracle_faces(pts)


def test_hull_matches_oracle_on_projected_layers():
    # every 3D layer of 4 to 12 points of the 0/1 orbits: its hull is the
    # oracle's, and a sphere's, V - E + F = 2
    sizes = []
    for labels in zero_one_labels(4):
        for _, layer in project_3d(labels):
            if 4 <= len(layer) <= 12:
                faces = convex_faces(layer)
                assert faces == oracle_faces(layer), (labels, len(layer))
                edges = sum(map(len, faces)) // 2
                assert len(layer) - edges + len(faces) == 2, labels
                sizes.append(len(layer))
    assert len(sizes) == 27 and set(sizes) == {6, 8, 12}
