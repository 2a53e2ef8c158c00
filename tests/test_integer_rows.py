"""The integer dual-cell hull against the scalar hull it replaced.

The dual-cell hull runs on Z[sqrt2] integer rows; ``oracle_faces`` is
the hull it replaced, in ``FieldScalar`` arithmetic, and both must give
the same face cycles.  Labels are the 0/1 patterns,
seeded random dominant Q(sqrt2) labels (some with negative rational or
sqrt2 parts) and three labels with a 10^17 entry.
"""

from functools import cmp_to_key
from itertools import combinations
from math import comb

import pytest

from f4weyl import duals
from f4weyl.branching import project_3d
from f4weyl.duals import convex_faces, dual_cell
from f4weyl.orbits import f_vector
from f4weyl.rootsys import f4_system
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
    # only the first triple of each face is tested against every point
    pts = cell_points((1, 0, 0, 1), True)
    faces = convex_faces(pts)
    calls = []
    cross = duals._cross_rows
    monkeypatch.setattr(duals, "_cross_rows",
                        lambda a, b: calls.append(1) or cross(a, b))
    monkeypatch.setattr(duals, "_order_face",
                        lambda rows, members, normal: tuple(sorted(members)))
    convex_faces(pts)
    skipped = sum(comb(len(face), 3) - 1 for face in faces)
    assert skipped > 0
    assert len(calls) == comb(len(pts), 3) - skipped


def test_hull_takes_each_difference_once_per_anchor(monkeypatch):
    # the rows minus anchor i are built once per anchor i < n - 2, and a
    # triple's own points are face members without a sign test
    pts = cell_points((1, 0, 0, 1), True)
    n, subs, triple, own = len(pts), [], [], []
    sub, cross, sign = duals._sub_rows, duals._cross_rows, duals._dot_sign

    def crossed(a, b):
        triple[:] = [(0,) * 6, a, b]  # the differences of i, j and k
        return cross(a, b)

    monkeypatch.setattr(duals, "_sub_rows",
                        lambda a, b: subs.append(1) or sub(a, b))
    monkeypatch.setattr(duals, "_cross_rows", crossed)
    monkeypatch.setattr(duals, "_dot_sign",
                        lambda a, b: own.append(a in triple) or sign(a, b))
    monkeypatch.setattr(duals, "_order_face",
                        lambda rows, members, normal: tuple(sorted(members)))
    convex_faces(pts)
    assert n == 10 and len(subs) == n * (n - 2)
    assert own and not any(own)


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
