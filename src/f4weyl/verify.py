"""End-to-end invariant battery.

Every published fact the package reproduces is re-derived here from
scratch and compared against the frozen tables in :mod:`f4weyl.refdata`:
the orders of the groups, the coset multiplication table, the reflection
presentation, f-vectors with Euler checks, both branching tables, the
3D layer decompositions, the scale factors of the duals, dual-cell
geometry with the printed row scales and the self-duality of the
24-cell.  Each check returns ``(ok, detail)``; ``run_all`` makes one
:class:`CheckResult` per family from it, the check's title in
``CHECKS`` and its wall time.  The command-line ``verify`` subcommand
renders them as PASS/FAIL lines and exits nonzero if anything failed.

Checks that touch a documented misprint (see ``refdata.ERRATA``) verify
the computed value *and* that the quoted value really differs, so a
regression in either direction is caught.

The dual-cell geometry and the branching partitions that only the
battery reads live here, not in :mod:`f4weyl.duals` and
:mod:`f4weyl.branching`, so a label command compiles none of them.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import combinations

from . import refdata
from .binocta import (build_group, diagram_symmetry, generate_from,
                      group_order, subset_product_table)
from .branching import branch_b3a1, branch_b4, project_3d
from .duals import (_cross_rows, _point_rows, _sub_rows, convex_faces,
                    dual_cell, dual_polytope, solve_scales)
from .orbits import (Record, _pattern, _validated, f_vector, generate_orbit,
                     geometric_edge_check, parabolic_elements, zero_nodes)
from .quat import E1, E2, E3, Quaternion, reflect, reflect_classical
from .rootsys import LabelLike, RootSystem, b4_system, f4_system, format_labels
from .scalar import FieldScalar, SQRT2, from_ints, parse_scalar, row_dot

DEFAULT_SEED = 314159

# the orbit patterns worked out cell by cell (the two mirror pairs of
# single-node patterns keep one representative each) and all fifteen
NINE_PATTERNS = tuple(refdata.DUAL_SCALES_GOLDEN)
ALL_PATTERNS = tuple(refdata.B4_BRANCH_GOLDEN)


class CheckResult(Record):
    name: str
    ok: bool
    detail: str
    seconds: float  # wall time

    def line(self) -> str:
        text = f"[{'PASS' if self.ok else 'FAIL'}] {self.name}"
        return text + (f": {self.detail}" if self.detail else "")


def _verdict(ok: bool, good: str, bad: str) -> tuple[bool, str]:
    return ok, good if ok else bad


def check_group_orders() -> tuple[bool, str]:
    expected = {"WF4": 1152, "AutF4": 2304, "WB4": 384,
                "WB3R": 48, "WB3R_C2": 96, "WB3L_C2": 96}
    got = {name: group_order(name) for name in expected}
    return _verdict(
        got == expected,
        " ".join(f"{k}={v}" for k, v in got.items()),
        f"expected {expected}, got {got}")


def check_subset_table() -> tuple[bool, str]:
    table = tuple(tuple(row) for row in subset_product_table())
    ok = table == refdata.SUBSET_TABLE_GOLDEN
    return _verdict(ok, "36/36 products as published",
                    f"table mismatch: {table}")


def check_presentation() -> tuple[bool, str]:
    refl = f4_system().reflections
    orders = [r.order() for r in refl]
    pair = {(i + 1, j + 1): refl[i].compose(refl[j]).order()
            for i, j in combinations(range(4), 2)}
    ok = (orders == [2, 2, 2, 2]
          and pair == {(1, 2): 3, (2, 3): 4, (3, 4): 3,
                       (1, 3): 2, (1, 4): 2, (2, 4): 2})
    generated = generate_from(refl)
    listed = build_group("WF4")
    ok = ok and generated == listed
    d = diagram_symmetry()
    ok = ok and d.compose(d).order() == 1 and d not in listed
    return _verdict(
        ok,
        "orders 2,2,2,2 / braid 3,4,3 / commuting pairs; "
        f"generated group = listed group ({len(generated)} elements)",
        f"orders={orders} pair={pair} generated={len(generated)}")


def check_f_vectors() -> tuple[bool, str]:
    bad = []
    for pattern in NINE_PATTERNS:
        fv = f_vector(f4_system(), pattern)
        if fv.f_tuple() != refdata.FVECTOR_GOLDEN[pattern]:
            bad.append((pattern, fv.f_tuple()))
        if fv.n0 - fv.n1 + fv.n2 - fv.n3 != 0:
            bad.append((pattern, "euler"))
    note = refdata.erratum("24cell-face-count")
    fv24 = f_vector(f4_system(), (1, 0, 0, 0))
    if fv24.n2 != 96 or "240" not in note["quoted"]:
        bad.append(((1, 0, 0, 0), "misprint record"))
    return _verdict(
        not bad,
        "9/9 orbit polytopes match and satisfy N0-N1+N2-N3=0 "
        "(24-cell face count 96; the often-quoted 240 is a documented "
        "misprint)",
        f"mismatches: {bad}")


def verify_b4_branching(labels: Sequence[LabelLike]) -> bool:
    """Check that the branched orbits exactly partition the source orbit,
    whose expanded vertices number its closed-form size."""
    parts = [generate_orbit(b4_system(), p.labels).vertices
             for p in branch_b4(labels)]
    orbit = generate_orbit(f4_system(), labels)
    return (len(orbit.vertices) == orbit.size == sum(map(len, parts))
            and set().union(*parts) == set(orbit.vertices))


def verify_b3a1_slices(labels: Sequence[LabelLike]) -> bool:
    """Check that the slice sizes account for every expanded orbit row."""
    total = sum(s.size * (2 if s.paired else 1) for s in branch_b3a1(labels))
    return total == len(generate_orbit(f4_system(), labels).rows)


def check_b4_branching() -> tuple[bool, str]:
    bad = []
    for pattern in ALL_PATTERNS:
        parts = tuple(p.labels for p in branch_b4(pattern))
        if parts != refdata.B4_BRANCH_GOLDEN[pattern]:
            bad.append((pattern, "table"))
        if not verify_b4_branching(pattern):
            bad.append((pattern, "partition"))
    return _verdict(
        not bad,
        "15/15 labels: parts match the table and partition the orbit "
        "point-for-point",
        f"failed: {bad}")


def check_b3a1_slices() -> tuple[bool, str]:
    bad = []
    for pattern in ALL_PATTERNS:
        got = {(s.labels, s.height) for s in branch_b3a1(pattern)}
        if got != set(refdata.B3A1_GOLDEN[pattern]):
            bad.append((pattern, "table"))
        if not verify_b3a1_slices(pattern):
            bad.append((pattern, "vertex count"))
    return _verdict(
        not bad,
        "15/15 labels: slice tables match and slice sizes account for "
        "every vertex",
        f"failed: {bad}")


def check_projections() -> tuple[bool, str]:
    half = FieldScalar(0, Fraction(1, 2))
    bad = []
    for pattern, table in (((1, 0, 0, 0), refdata.PROJECTED_24CELL),
                           ((0, 0, 0, 1), refdata.PROJECTED_DUAL24)):
        got = project_3d(pattern, half)
        if len(got) != len(table) or any(
                h != eh or frozenset(pts) != epts
                for (h, pts), (eh, epts) in zip(got, table)):
            bad.append(pattern)
    return _verdict(
        not bad,
        "half-scale 24-cell (point/cube/octahedron layers) and its dual "
        "(octahedron/cuboctahedron layers) reproduced exactly",
        f"failed for: {bad}")


# ---------------------------------------------------------------------------
# dual-cell geometry that only the battery reads


class CellFamily(Record):
    """All cells of one type incident to the dominant vertex."""

    nodes: tuple[int, ...]          # defining sub-diagram, 1-based
    name: str
    center_node: int                # the complementary node, 1-based
    centers: tuple[Quaternion, ...]  # unscaled centers (weight-vector orbit)


def cells_at_vertex(sys: RootSystem, labels: Sequence[LabelLike]) -> tuple[CellFamily, ...]:
    """Cell families around the dominant vertex, read off the pattern of
    J = ``zero_nodes`` alone.  The type-S centers are W_J omega_j: they are
    the rows c of the orbit of omega_j with (c, Lambda) = (omega_j, Lambda),
    since omega_j - c = sum c_i alpha_i, c_i >= 0, and sum c_i a_i = 0 iff
    c_i = 0 wherever a_i > 0; off J, omega_j is the only one."""
    pattern = _pattern(sys.name, zero_nodes(_validated(sys, labels)))
    return tuple(CellFamily(entry.nodes, entry.name, j,
                            sys.vertices(rows, sys.weight_den))
                 for entry, j, rows in pattern.families)


def _dist_sq(a: tuple[int, ...], b: tuple[int, ...], scale: int) -> FieldScalar:
    d = _sub_rows(a, b)
    return from_ints(*row_dot(d)(d), scale * scale)


def cell_metrics(sys: RootSystem, labels: Sequence[LabelLike]
                 ) -> dict[FieldScalar, int]:
    """Multiset of squared distances between dual-cell vertices: true
    4-space distances, the u-distances divided by |Lambda|^2."""
    cell = dual_cell(sys, labels)
    lam = sys.label_to_vector(cell.source)
    scale_sq = FieldScalar(1) / lam.dot(lam)
    rows, scale = _point_rows([u for _, u in cell.coords])
    return Counter(_dist_sq(p, q, scale) * scale_sq
                   for p, q in combinations(rows, 2))


def kite_face(sys: RootSystem, labels: Sequence[LabelLike]) -> dict[str, object]:
    """Exact geometry of one kite face of a trapezohedral dual cell.

    Works for labels whose dual cell is an apex / 4-ring / 4-ring / apex
    arrangement (the (1,0,0,1) pattern).  The kite is the first face of
    the exact hull of the cell at its published row scale, read as a
    cycle from its apex (the vertex whose family has one center).
    Returns squared side lengths, squared diagonals and the exact squared
    area, plus a float area computed independently by triangulation as a
    cross-check.
    """
    cell = dual_cell(sys, labels)
    nodes = [node for node, _ in cell.coords]
    family_size = {node: nodes.count(node) for node in nodes}
    if sorted(family_size.values()) != [1, 1, 4, 4]:
        raise ValueError("dual cell is not a trapezohedron for %s"
                         % format_labels(cell.source))
    pts = [u for _, u in cell.rows()]
    rows, scale = _point_rows(pts)
    face = convex_faces(pts)[0]
    k = next(k for k, i in enumerate(face) if family_size[nodes[i]] == 1)
    a, b1, c, b2 = (rows[i] for i in face[k:] + face[:k])
    sides = tuple(_dist_sq(p, q, scale)
                  for p, q in ((a, b1), (b1, c), (c, b2), (b2, a)))
    d_axis, d_cross = _dist_sq(a, c, scale), _dist_sq(b1, b2, scale)
    # the diagonals must be perpendicular for the half-product area rule
    if any(row_dot(_sub_rows(c, a))(_sub_rows(b2, b1))):
        raise ArithmeticError("kite diagonals are not perpendicular")
    area_sq = d_axis * d_cross / 4

    def tri_area(p, q, r) -> float:  # half the float norm of the cross product
        cx = _cross_rows(_sub_rows(q, p), _sub_rows(r, p))
        return 0.5 * float(from_ints(*row_dot(cx)(cx), scale ** 4)) ** 0.5

    area_float = tri_area(a, b1, c) + tri_area(a, c, b2)
    return {
        "sides_sq": sides,
        "axis_diagonal_sq": d_axis,
        "cross_diagonal_sq": d_cross,
        "area_sq": area_sq,
        "area_float": area_float,
    }


def cell_vertices_for_center(vertices: Sequence[Quaternion],
                             center: Quaternion) -> frozenset[Quaternion]:
    """Vertices of the cell supported by the hyperplane of ``center``:
    the orbit points maximizing the scalar product with it."""
    best = max(v.dot(center) for v in vertices)
    return frozenset(v for v in vertices if v.dot(center) == best)


def check_dual_scales() -> tuple[bool, str]:
    bad = []
    for pattern in NINE_PATTERNS:
        got = solve_scales(f4_system(), pattern)
        if got != refdata.DUAL_SCALES_GOLDEN[pattern]:
            bad.append((pattern, got))
    return _verdict(
        not bad,
        "9/9 polytopes solved exactly (2sqrt2/3, 3sqrt2/5, (1+9sqrt2)/7, "
        "(5-sqrt2)/2, (2+sqrt2)/2, ...)",
        f"mismatch: {bad}")


def check_dual_shells() -> tuple[bool, str]:
    sys = f4_system()
    bad = []
    for pattern in NINE_PATTERNS:
        dual = dual_polytope(sys, pattern)
        source = f_vector(sys, pattern)
        if len(dual.vertices) != source.n3 or dual.f_tuple[3] != source.n0:
            bad.append((pattern, "counts"))
        if sum(s.size for s in dual.shells) != source.n3:
            bad.append((pattern, "shell sizes"))
    radii = {s.node: s.radius_sq
             for s in dual_polytope(sys, (0, 1, 0, 0)).shells}
    if radii[4] / radii[1] != FieldScalar(Fraction(9, 8)):
        bad.append(((0, 1, 0, 0), "radius ratio"))
    radii = {s.node: s.radius_sq
             for s in dual_polytope(sys, (1, 0, 0, 1)).shells}
    if (radii[1] != parse_scalar("3+2sqrt2") or radii[4] != radii[1]
            or radii[2] != FieldScalar(6) or radii[3] != FieldScalar(6)):
        bad.append(((1, 0, 0, 1), "radii"))
    if any(s.radius_sq != FieldScalar(2)
           for s in dual_polytope(sys, (0, 1, 1, 0)).shells):
        bad.append(((0, 1, 1, 0), "single shell"))
    return _verdict(
        not bad,
        "9/9 duals: vertex count = source N3, one cell per source vertex; "
        "spot radii 3/(2sqrt2) ratio, 2.414/2.449 pair, single sqrt2 shell",
        f"failed: {bad}")


def check_dual_cells() -> tuple[bool, str]:
    sys = f4_system()
    bad = []
    flagged = 0
    for pattern, (row_scale, rows) in refdata.DUAL_CELL_PRINTED.items():
        cell = dual_cell(sys, pattern)
        if cell.row_scale != row_scale:
            bad.append((pattern, "row scale"))
        got = sorted(u for _, u in cell.rows())
        want = sorted(row for row, _ in rows)
        if got != want:
            bad.append((pattern, "rows"))
        for row, quoted in rows:
            if quoted is not None:
                flagged += 1
                if quoted in got:  # a misprint is no computed row
                    bad.append((pattern, "quoted variant"))
    if flagged != 3:
        bad.append(("misprint rows", flagged))
    lam = sys.label_to_vector((1, 0, 1, 0))
    norms = {(e * lam).dot(e * lam) for e in (E1, E2, E3)}  # the frame
    erratum = refdata.erratum("dual-1010-frame-norm")  # "... = sqrt(n)"
    quoted, computed = (parse_scalar(erratum[k].split("sqrt(", 1)[1][:-1])
                        for k in ("quoted", "computed"))
    if norms != {computed} or quoted in norms:
        bad.append(((1, 0, 1, 0), "frame norm"))
    return _verdict(
        not bad,
        "8/8 printed cells reproduced exactly; 3 quoted rows and one "
        "frame normalization are documented misprints",
        f"failed: {bad}")


def check_kite() -> tuple[bool, str]:
    g = refdata.KITE_GOLDEN
    face = kite_face(f4_system(), (1, 0, 0, 1))
    sides = sorted(face["sides_sq"])
    q, m = Fraction(str(g["quoted_area"])), Fraction(1, 4)  # quote, margin
    ok = (sides == sorted([g["long_side_sq"], g["long_side_sq"],
                           g["short_side_sq"], g["short_side_sq"]])
          and face["axis_diagonal_sq"] == g["axis_diagonal_sq"]
          and face["cross_diagonal_sq"] == g["cross_diagonal_sq"]
          and face["area_sq"] == g["area_sq"]  # q is more than m off
          and not max(q - m, 0) ** 2 <= g["area_sq"] <= (q + m) ** 2)
    return _verdict(
        ok,
        "side squares 16-10sqrt2 / 80-56sqrt2 exact; area = "
        f"sqrt(92-64sqrt2) = {face['area_float']:.6f} (quoted 0.934 is a "
        "documented misprint)",
        f"got sides {sides}, area {face['area_float']}")


def check_self_duality() -> tuple[bool, str]:
    sys = f4_system()
    bad = []
    dual = dual_polytope(sys, (1, 0, 0, 0))
    mirror = frozenset(generate_orbit(sys, (0, 0, 0, 1)).vertices)
    if dual.vertices != mirror:
        bad.append("vertex set")
    families = cells_at_vertex(sys, (1, 0, 0, 0))
    if len(families) != 1 or len(families[0].centers) != 6:
        bad.append("center count")
    table = {center: verts for center, verts in refdata.SELF_DUAL_CELL_TABLE}
    if set(families[0].centers) != set(table):
        bad.append("center table")
    else:
        orbit = generate_orbit(sys, (1, 0, 0, 0))
        for center, expected in table.items():
            if cell_vertices_for_center(orbit.vertices, center) != \
                    frozenset(v * SQRT2 for v in expected):
                bad.append(f"cell at {center}")
    return _verdict(
        not bad,
        "dual vertex set equals the mirror orbit; all six octahedron "
        "centers and their cells match the published table",
        f"failed: {bad}")


def check_orbit_stabilizer() -> tuple[bool, str]:
    # three independent computations: the expanded coset rows (not the
    # closed-form size), the quaternion closure of the zero-label
    # reflections and the octet-built group
    sys = f4_system()
    order = group_order("WF4")
    bad = []
    for pattern in ALL_PATTERNS:
        orbit = generate_orbit(sys, pattern)
        stabilizer = parabolic_elements(sys.name, zero_nodes(orbit.labels))
        if len(orbit.rows) * len(stabilizer) != order:
            bad.append(pattern)
    return _verdict(
        not bad,
        f"15/15 labels: |orbit| * |stabilizer| = {order}",
        f"failed: {bad}")


def check_reflection_forms(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    trials = 1000
    for i in range(trials):
        alpha = _random_quaternion(rng)
        if alpha.norm_sq().is_zero():
            continue
        v = _random_quaternion(rng)
        image = reflect(alpha, v)
        problem = ("forms disagree" if image != reflect_classical(alpha, v)
                   else "not an involution" if reflect(alpha, image) != v
                   else "norm not preserved"
                   if image.norm_sq() != v.norm_sq() else None)
        if problem:
            return False, f"{problem} at trial {i}"
    return True, (
        f"{trials} random trials (seed {seed}): quaternionic and "
        "linear-algebra reflections agree, are involutive and preserve "
        "norms")


def _random_quaternion(rng: random.Random) -> Quaternion:
    """Four components a/b + (c/d)*sqrt2, each drawn a, b, c, d in order."""
    pairs = ((rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8))
    return Quaternion(*[from_ints(a * d, c * b, b * d)
                        for (a, b), (c, d) in zip(pairs, pairs)])


def check_edge_oracle() -> tuple[bool, str]:
    sys = f4_system()
    counts = [geometric_edge_check(generate_orbit(sys, pattern))
              for pattern in NINE_PATTERNS]
    bad = [(pattern, got, refdata.FVECTOR_GOLDEN[pattern][1])
           for pattern, got in zip(NINE_PATTERNS, counts)
           if got != refdata.FVECTOR_GOLDEN[pattern][1]]
    return _verdict(
        not bad,
        "9/9 polytopes: nearest-neighbour pair count equals N1",
        f"failed: {bad}")


#: the one place that holds the check titles: the report, the JSON and the
#: benchmark's ``verify.<slug>_s`` metrics all read them here
CHECKS: tuple[tuple[str, Callable[..., tuple[bool, str]]], ...] = (
    ("group orders", check_group_orders),
    ("octet coset table", check_subset_table),
    ("reflection presentation", check_presentation),
    ("f-vectors and Euler", check_f_vectors),
    ("signed-permutation branching", check_b4_branching),
    ("octahedral slicing", check_b3a1_slices),
    ("3d layer decompositions", check_projections),
    ("dual scale factors", check_dual_scales),
    ("dual vertex shells", check_dual_shells),
    ("dual-cell local coordinates", check_dual_cells),
    ("trapezohedron kite", check_kite),
    ("24-cell self-duality", check_self_duality),
    ("orbit-stabilizer products", check_orbit_stabilizer),
    ("reflection forms", check_reflection_forms),
    ("geometric edge count", check_edge_oracle),
)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    for title, func in CHECKS:
        start = time.perf_counter()
        ok, detail = func(seed) if func is check_reflection_forms else func()
        results.append(CheckResult(title, ok, detail,
                                   time.perf_counter() - start))
    return results


def format_report(results: Sequence[CheckResult], timings=False) -> str:
    failed = sum(not r.ok for r in results)
    last = (f"{failed} of {len(results)} checks FAILED" if failed
            else f"all {len(results)} checks passed")
    return "\n".join([r.line() + (f"  [{r.seconds:.3f} s]" if timings else "")
                      for r in results] + [last])
