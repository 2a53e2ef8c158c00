"""Dual polytopes via cell centers.

The vertices of the dual are the cell centers of the source polytope.
At the dominant vertex, the centers of the incident cells of one
combinatorial type form a single small orbit (under the subgroup fixing
the vertex), all proportional to one fundamental weight; the dual is
then a union of rescaled single-node orbits.  The scale factors are
fixed by requiring all centers incident to a vertex to lie in one
hyperplane, which makes the dual cell flat.

The centers around the dominant vertex Lambda are the face of their
weight's orbit that Lambda supports.  Local coordinates use the frame
``u_a(c) = (c, e_a * Lambda)``: three orthogonal vectors of squared
norm ``(Lambda, Lambda)``, so u-space squared distances are the true
ones times ``(Lambda, Lambda)``.  Both are read on integer rows.

The centers of one family depend only on J, so they come walked with
the cached ``orbits._pattern`` of J; one cached solve per label,
``_vertex_figure``, takes their integer products with Lambda for the
scales and the cell, and the scales, shells and cell all read that
solve; it reads Lambda off the cached orbit and ``PUBLISHED`` for F4
only.  Each public entry point validates its label once, by
``_validated``; the internal stages, whose pattern checks the rank, take
it validated.

The cell families, metrics and kite and the cells recovered from their
centers, which only the battery reads, live in :mod:`f4weyl.verify`.
"""

from __future__ import annotations

from functools import cached_property, cmp_to_key, lru_cache
from itertools import combinations
from operator import sub
from collections.abc import Sequence

from .orbits import (Record, _orbit_cached, _pattern, _validated,
                     generate_orbit, zero_nodes)
from .rootsys import LabelLike, Labels, RootSystem, get_system, scale_rows
from .scalar import (INV_SQRT2, ONE, SQRT2, FieldScalar, from_ints, over_lcm,
                     row_dot, surd_sign)

Triple = tuple[FieldScalar, FieldScalar, FieldScalar]


def __getattr__(name: str):
    # perfbench's tracer spans these verify names here (ROADMAP item 1)
    if name not in ("cells_at_vertex", "cell_metrics", "kite_face"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)


#: per published F4 0/1 pattern: the reference node (cell-center scale 1)
#: and the row scale of the printed cell rows, printed = row_scale * (c, e_a
#: L); other patterns and systems take the smallest center node and scale 1
PUBLISHED: dict[tuple[int, ...], tuple[int, FieldScalar]] = {
    (1, 0, 0, 0): (4, ONE), (0, 1, 0, 0): (4, INV_SQRT2),
    (0, 0, 1, 0): (1, ONE), (1, 1, 0, 0): (4, SQRT2),
    (1, 0, 1, 0): (2, ONE), (1, 0, 0, 1): (2, SQRT2 - 1),
    (0, 1, 1, 0): (1, ONE), (1, 1, 1, 0): (4, SQRT2),
    (1, 1, 0, 1): (3, SQRT2), (1, 1, 1, 1): (1, SQRT2),
}


def _point_rows(points: Sequence[Triple]) -> tuple[list[tuple[int, ...]], int]:
    """Exact 3D points as flat Z[sqrt2] rows (x0, y0, ..., x2, y2) over their
    denominators' lcm, and that lcm: the hull, metrics and kite read them."""
    flat, scale = over_lcm([c for p in points for c in p])
    return [flat[k:k + 6] for k in range(0, len(flat), 6)], scale


def _sub_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def _cross_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for i, j in ((2, 4), (4, 0), (0, 2)):  # the axis pairs yz, zx, xy
        out += (a[i] * b[j] - a[j] * b[i]
                + 2 * (a[i + 1] * b[j + 1] - a[j + 1] * b[i + 1]),
                a[i] * b[j + 1] + a[i + 1] * b[j] - a[j] * b[i + 1]
                - a[j + 1] * b[i])
    return tuple(out)


def convex_faces(points: Sequence[Triple]) -> list[tuple[int, ...]]:
    """Faces of the convex hull of exact 3D points in convex position, as
    index cycles counter-clockwise from outside; a point inside the body, a
    face or an edge lies in fewer than three faces and is refused.  Every
    test reads chi[a, b, c, e] = sign det(p_b - p_a, p_c - p_a, p_e - p_a)
    of a sorted 4-set (the chirotope; J. Richter-Gebert and G. M. Ziegler,
    Handbook of Discrete and Computational Geometry, ch. 6), filled once as
    D(b, c, e) - D(a, c, e) + D(a, b, e) - D(a, b, c) from the triple
    products D of the rows minus row 0.  A triple i < j < k spans a face
    when every other point lies weakly on one side of its plane; triples
    inside a face already found are skipped.  A triangle turns by that
    side, a larger face by orient(first, a, b, inner).  The signs are exact
    on Z[sqrt2] integer rows over the lcm of the points' denominators
    (H. Cohen, GTM 138, section 4.2; C. Yap, CGTA 7, 1997)."""
    n = len(points)
    if n == 0:
        raise ValueError("empty geometry")
    rows, _ = _point_rows(points)
    if len(set(rows)) != n:
        raise ValueError("duplicate points")
    d = [_sub_rows(r, rows[0]) for r in rows]
    vol = {(1, c): [(0, 0)] for c in range(2, n)}  # vol[b, c][a] = D(a, b, c)
    for b, c in combinations(range(2, n), 2):
        x0, y0, x1, y1, x2, y2 = _cross_rows(d[b], d[c])
        vol[b, c] = [(0, 0)] + [
            (u0 * x0 + u1 * x1 + u2 * x2 + 2 * (v0 * y0 + v1 * y1 + v2 * y2),
             u0 * y0 + v0 * x0 + u1 * y1 + v1 * x1 + u2 * y2 + v2 * x2)
            for u0, v0, u1, v1, u2, v2 in d[1:b]]
    chi = {}
    for b, c, e in combinations(range(1, n), 3):
        ce, be, bc = vol[c, e], vol[b, e], vol[b, c]
        p, q = ce[b]
        for a in range(b):
            (p1, q1), (p2, q2), (p3, q3) = ce[a], be[a], bc[a]
            chi[a, b, c, e] = surd_sign(p - p1 + p2 - p3, q - q1 + q2 - q3)

    def orient(i: int, j: int, k: int, m: int) -> int:  # i < j < k, m off
        # them: chi of the sorted 4-set, negated for m below i or in (j, k)
        return (chi[i, j, k, m] if m > k else -chi[i, j, m, k] if m > j
                else chi[i, m, j, k] if m > i else -chi[m, i, j, k])

    planes: dict[tuple[int, ...], int] = {}  # members -> side of the rest
    covered, count = set(), [0] * n  # count: the faces through each point
    for t in combinations(range(n), 3):
        if t in covered:
            continue
        i, j, k = t
        side, members = 0, []
        for m in range(n):
            s = m not in t and orient(i, j, k, m)  # 0 on the triple
            if not s:
                members.append(m)
            elif not side:
                side = s
            elif s != side:
                break
        else:
            if side:  # else all lie on it: i, j, k collinear or all flat
                planes[tuple(members)] = side
                covered.update(combinations(members, 3))
                for m in members:
                    count[m] += 1
    if not planes:
        raise ValueError("degenerate (flat) geometry")
    if min(count) < 3:
        raise ValueError("points not in convex position")
    faces = []
    for (first, *rest), side in planes.items():
        if len(rest) == 2:
            faces.append((first, *rest[::-side]))
            continue
        inner = next(m for m in range(n) if m != first and m not in rest)
        rest.sort(key=cmp_to_key(lambda a, b: orient(first, a, b, inner)
                                 if a < b else -orient(first, b, a, inner)))
        faces.append((first, *rest))
    return sorted(faces)


class DualCell(Record):
    """The dual cell at the dominant vertex in local u-coordinates."""

    source: Labels
    row_scale: FieldScalar  # published row scale of the 0/1 pattern, else 1
    coords: tuple[tuple[int, Triple], ...]  # (center node, u-triple) per vertex

    def rows(self) -> list[tuple[int, Triple]]:
        """The vertices as published: each u-triple times ``row_scale``."""
        return [(node, tuple(x * self.row_scale for x in u))
                for node, u in self.coords]


@lru_cache(maxsize=64)
def _vertex_figure(sys_name: str, labels: Labels):
    """The shared (read-only) solve around Lambda of validated labels:
    (the ``orbits.Pattern`` of their zeros, {node j: scale} in ascending
    node order, the DualCell).

    Every center c of the pattern's family of node j has (c, Lambda) =
    (omega_j, Lambda) = top_j (over the orbit's den times weight_den), the
    scale of node j is top_ref / top_j (the common factor cancels), and a
    center's u-triple is its (c, e_a * Lambda) times its scale, one
    product with the frame times the scale's integers; e_a * Lambda is a
    signed permutation of Lambda's row, the orbit's first form (a
    dominant row is its own form)."""
    zeros, sys = zero_nodes(labels), get_system(sys_name)
    pattern, orbit = _pattern(sys_name, zeros), _orbit_cached(sys_name, labels)
    lam = orbit.forms[0]
    dot = row_dot(lam)
    tops = {j: dot(rows[0]) for _, j, rows in pattern.families}
    ref, row_scale = (PUBLISHED if sys_name == "F4" else {}).get(
        tuple(int(i not in zeros) for i in range(4)), (None, ONE))
    top_ref = from_ints(*tops[ref if ref in tops else min(tops)], 1)
    scales = {j: top_ref / from_ints(*tops[j], 1) for j in sorted(tops)}
    x0, y0, x1, y1, x2, y2, x3, y3 = lam
    frame = [row_dot(f) for f in ((-x1, -y1, x0, y0, -x3, -y3, x2, y2),
                                    (-x2, -y2, x3, y3, x0, y0, -x1, -y1),
                                    (-x3, -y3, -x2, -y2, x1, y1, x0, y0))]
    over, coords = orbit.den * sys.weight_den, []  # Lambda's den, c's
    for _, j, rows in pattern.families:
        x, y, d = scales[j].x, scales[j].y, over * scales[j].d
        coords += [(j, tuple(from_ints(p * x + 2 * q * y, p * y + q * x, d)
                             for p, q in (f(c) for f in frame)))
                   for c in rows]
    return pattern, scales, DualCell(labels, row_scale, tuple(coords))


def solve_scales(sys: RootSystem, labels: Sequence[LabelLike]) -> dict[int, FieldScalar]:
    """Scale factor per center node making all incident centers coplanar.

    The center of the type-S cell is proportional to the complementary
    weight; scaling node j by ``(w_ref, L) / (w_j, L)`` puts every center
    into the hyperplane of the reference one.  Each ``(w_j, L)`` is read
    off the same integer product that picks the centers.  The reference
    node (scale exactly 1) follows ``PUBLISHED`` for F4's published 0/1
    patterns, else (other F4 patterns, every B4 pattern) it is the
    smallest center node.
    """
    _, scales, _ = _vertex_figure(sys.name, _validated(sys, labels))
    return dict(scales)


class Shell(Record):
    """One rescaled single-node orbit contributing dual vertices."""

    node: int
    scale: FieldScalar
    radius_sq: FieldScalar
    size: int


class DualPolytope(Record):
    source: Labels
    shells: tuple[Shell, ...]
    f_tuple: tuple[int, int, int, int]
    system: str

    @cached_property
    def vertices(self) -> frozenset[Quaternion]:
        """The union of the shells, built on first read: the rows of the
        cached orbit of omega_j times the shell's scale s = (x + y*sqrt2)/d."""
        sys, vertices = get_system(self.system), set()
        for shell in self.shells:
            unit = generate_orbit(sys, [int(i == shell.node) for i in range(1, 5)])
            vertices.update(sys.vertices(scale_rows(unit.rows, shell.scale),
                                         unit.den * shell.scale.d))
        return frozenset(vertices)


def dual_polytope(sys: RootSystem, labels: Sequence[LabelLike]) -> DualPolytope:
    """The dual as a union of rescaled single-node orbits.

    The orbit of s*omega_j is s times the unit orbit of omega_j, the
    centers of the cells opposite node j, so a shell's size is their
    count.  Its vertex count equals the source cell count and vice
    versa; the dual f-vector is the reversed source f-vector.
    """
    lab = _validated(sys, labels)
    pattern, scales, _ = _vertex_figure(sys.name, lab)
    sizes = {j: entry.count for entry, j, _ in pattern.families}
    shells = tuple(Shell(j, s, sys.cartan_inv[j - 1][j - 1] * s * s, sizes[j])
                   for j, s in scales.items())
    return DualPolytope(lab, shells, pattern.counts[::-1], sys.name)


# ---------------------------------------------------------------------------
# local coordinates of the dual cell at the dominant vertex


def dual_cell(sys: RootSystem, labels: Sequence[LabelLike]) -> DualCell:
    """The dual cell at the dominant vertex of the labels: each center's
    (c, e_a * Lambda) times its scale, read off the shared solve."""
    return _vertex_figure(sys.name, _validated(sys, labels))[2]
