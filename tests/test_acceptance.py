"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Every criterion is recomputed from the public API and compared against
the frozen reference tables; the summary lines are written straight to
the terminal (bypassing pytest capture) so the gate is visible in any
run.  Where a published value is a documented misprint
(``refdata.ERRATA``) the line says so explicitly — the computed value is
asserted exactly and the quoted value is asserted to really differ, so
the discrepancy can never pass silently in either direction.
"""

import math
import random
import sys
from fractions import Fraction

from f4weyl import cli, refdata
from f4weyl.binocta import (build_group, generate_from, group_order,
                            subset_product_table)
from f4weyl.branching import branch_b3a1, project_3d
from f4weyl.duals import dual_cell, dual_polytope, solve_scales
from f4weyl.orbits import (f_vector, generate_orbit, geometric_edge_check,
                           parabolic_elements)
from f4weyl.quat import Quaternion, reflect, reflect_classical
from f4weyl.rootsys import f4_system, format_labels
from f4weyl.scalar import FieldScalar, SQRT2, parse_scalar
from f4weyl.verify import (ALL_PATTERNS, NINE_PATTERNS,
                           cell_vertices_for_center, cells_at_vertex,
                           kite_face, verify_b4_branching)
import oracles

SEED = 314159
RATIO_TOL = 1e-9          # float check on the first dual's radius ratio
PRINTED_RADIUS_TOL = 1e-3  # radii quoted to three decimals
DUAL_ROUTE_TOL = 1e-12    # exact-vs-float agreement on the kite area

F4 = f4_system()


def _gate(num, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"acceptance {num:2d} [{name}]: {flag} - {detail}",
          file=sys.__stdout__)


def test_criterion_01_group_orders():
    expected = {"WF4": 1152, "AutF4": 2304, "WB4": 384,
                "WB3R": 48, "WB3R_C2": 96}
    got = {name: group_order(name) for name in expected}
    ok = got == expected
    _gate(1, "group orders", ok,
          " ".join(f"{k}={v}" for k, v in got.items()))
    assert ok, got


def test_criterion_02_coset_product_table():
    table = tuple(tuple(row) for row in subset_product_table())
    ok = (table == refdata.SUBSET_TABLE_GOLDEN
          and sum(len(row) for row in table) == 36)
    _gate(2, "coset product table", ok, "36/36 entries exact")
    assert ok, table


def test_criterion_03_coxeter_presentation():
    r1, r2, r3, r4 = F4.reflections
    ok = all(r.order() == 2 for r in (r1, r2, r3, r4))
    ok = ok and (r1.compose(r2).order(), r2.compose(r3).order(),
                 r3.compose(r4).order()) == (3, 4, 3)
    ok = ok and all(a.compose(b).order() == 2
                    for a, b in ((r1, r3), (r1, r4), (r2, r4)))
    generated = generate_from((r1, r2, r3, r4))
    ok = ok and generated == build_group("WF4")
    _gate(3, "reflection presentation", ok,
          "involutions, braid orders 3/4/3, commuting non-neighbours; "
          f"generated group has {len(generated)} elements = listed set")
    assert ok


def test_criterion_04_f_vectors_and_euler():
    ok = True
    for pattern in NINE_PATTERNS:
        fv = f_vector(F4, pattern)
        ok = ok and fv.f_tuple() == refdata.FVECTOR_GOLDEN[pattern]
        ok = ok and fv.n0 - fv.n1 + fv.n2 - fv.n3 == 0
    note = refdata.erratum("24cell-face-count")
    ok = ok and f_vector(F4, (1, 0, 0, 0)).n2 == 96
    ok = ok and note["quoted"] == "240 faces"
    _gate(4, "f-vectors and Euler", ok,
          "9/9 polytopes exact incl. Euler; 24-cell has 96 faces, the "
          "quoted 240 is a documented erratum (computation prevails)")
    assert ok


def test_criterion_05_branching_ground_truth(capsys):
    ok = True
    for pattern, parts in refdata.B4_BRANCH_GOLDEN.items():
        expected = (format_labels(F4.coerce_labels(pattern)) + "_F4 = "
                    + " + ".join(format_labels(p) + "_B4" for p in parts))
        code = cli.main(["branch-b4", ",".join(map(str, pattern))])
        out = capsys.readouterr().out  # the text as the CLI prints it
        ok = ok and code == 0 and out == expected + "\n"
        ok = ok and verify_b4_branching(pattern)
    comparisons = 0
    for pattern, block in refdata.B3A1_GOLDEN.items():
        slices = branch_b3a1(pattern)
        ok = ok and {(s.labels, s.height) for s in slices} == set(block)
        comparisons += 1
        total = sum(s.size * (2 if s.paired else 1) for s in slices)
        ok = ok and total == oracles.orbit_size(F4, pattern)
        comparisons += 1
    ok = ok and comparisons == 30
    _gate(5, "branching ground truth", ok,
          "15/15 rank-4 rows printed by the CLI and verified as exact point "
          "partitions; 30/30 slice-table comparisons, sizes sum to N0")
    assert ok


def test_criterion_06_worked_projections():
    half = FieldScalar(0, Fraction(1, 2))
    ok = True
    for pattern, table in (((1, 0, 0, 0), refdata.PROJECTED_24CELL),
                           ((0, 0, 0, 1), refdata.PROJECTED_DUAL24)):
        got = project_3d(pattern, half)
        ok = ok and len(got) == len(table)
        ok = ok and all(h == eh and frozenset(pts) == epts
                        and list(pts) == sorted(epts)
                        for (h, pts), (eh, epts) in zip(got, table))
    _gate(6, "worked projections", ok,
          "half-scale 24-cell (pole/cube/octahedron layers) and dual "
          "24-cell (octahedra/cuboctahedron) are exact point sets")
    assert ok


def test_criterion_07_dual_scale_factors():
    ok = all(solve_scales(F4, pattern) == refdata.DUAL_SCALES_GOLDEN[pattern]
             for pattern in NINE_PATTERNS)
    # the printed quotient forms reduce to the solved values exactly
    quotients = (
        ((0, 1, 0, 0), 1, "2sqrt2", "3"),
        ((1, 1, 0, 0), 1, "3sqrt2", "5"),
        ((1, 0, 1, 0), 4, "1+9sqrt2", "7"),
        ((1, 0, 1, 0), 1, "5-sqrt2", "2"),
        ((1, 0, 0, 1), 1, "2+sqrt2", "2"),
        ((1, 1, 1, 1), 2, "5+3sqrt2", "9+6sqrt2"),
        ((1, 1, 0, 1), 1, "3+6sqrt2", "5+sqrt2"),
        ((1, 1, 0, 1), 2, "3+6sqrt2", "9+2sqrt2"),  # orthogonality-resolved
        ((1, 1, 0, 1), 4, "3+6sqrt2", "2+3sqrt2"),
    )
    for pattern, node, num, den in quotients:
        value = parse_scalar(num) / parse_scalar(den)
        ok = ok and solve_scales(F4, pattern)[node] == value
    _gate(7, "dual scale factors", ok,
          "9/9 polytopes solved exactly; all printed quotient forms "
          "reduce to the solved FieldScalars")
    assert ok


def test_criterion_08_dual_geometry():
    ok = True
    radii = {s.node: s.radius_sq
             for s in dual_polytope(F4, (0, 1, 0, 0)).shells}
    ok = ok and radii[4] / radii[1] == FieldScalar(Fraction(9, 8))
    ratio = math.sqrt(float(radii[4]) / float(radii[1]))
    ok = ok and abs(ratio - 3 / (2 * math.sqrt(2))) < RATIO_TOL
    radii = {s.node: s.radius_sq
             for s in dual_polytope(F4, (1, 0, 0, 1)).shells}
    ok = ok and radii[1] == radii[4] and radii[2] == radii[3]
    ok = ok and abs(math.sqrt(float(radii[1])) - 2.414) < PRINTED_RADIUS_TOL
    ok = ok and abs(math.sqrt(float(radii[2])) - 2.449) < PRINTED_RADIUS_TOL
    shells = dual_polytope(F4, (0, 1, 1, 0)).shells
    ok = ok and {s.radius_sq for s in shells} == {FieldScalar(2)}

    # local coordinates: one positive field scalar per cell carries the
    # computed rows onto the printed ones (three rows are documented
    # misprints and must differ from their quoted variants)
    flagged = 0
    for pattern, (s, rows) in refdata.DUAL_CELL_PRINTED.items():
        ok = ok and s.sign() > 0
        cell = dual_cell(F4, pattern)
        got = sorted(tuple(u * s for u in triple)
                     for _, triple in cell.coords)
        ok = ok and got == sorted(row for row, _ in rows)
        for row, quoted in rows:
            if quoted is not None:
                flagged += 1
                ok = ok and quoted != row and quoted not in [r for r, _ in rows]
    ok = ok and flagged == 3

    g = refdata.KITE_GOLDEN
    face = kite_face(F4, (1, 0, 0, 1))
    ok = ok and sorted(face["sides_sq"]) == sorted(
        [g["long_side_sq"]] * 2 + [g["short_side_sq"]] * 2)
    ok = ok and face["area_sq"] == g["area_sq"]
    ok = ok and abs(face["area_float"] ** 2 - float(g["area_sq"])) \
        < DUAL_ROUTE_TOL
    quoted_gap = abs(face["area_float"] - float(g["quoted_area"]))
    ok = ok and quoted_gap > 1e-3  # the quoted area misses its own window
    ok = ok and refdata.erratum("kite-area")["quoted"] == "0.934"
    _gate(8, "dual geometry", ok,
          "radius ratio/shells exact and within printed tolerances; 8/8 "
          "cell coordinate tables exact (3 quoted rows are documented "
          "misprints); kite sides 16-10sqrt2 / 80-56sqrt2 exact, area = "
          f"sqrt(92-64sqrt2) ~= {face['area_float']:.6f} by both routes - "
          "the quoted 0.934 is a documented erratum (computation prevails)")
    assert ok


def test_criterion_09_self_duality():
    orbit = generate_orbit(F4, (1, 0, 0, 0))
    dual = dual_polytope(F4, (1, 0, 0, 0))
    mirror = frozenset(generate_orbit(F4, (0, 0, 0, 1)).vertices)
    ok = dual.vertices == mirror  # global scale 1 relates the two sets
    (family,) = cells_at_vertex(F4, (1, 0, 0, 0))
    table = dict(refdata.SELF_DUAL_CELL_TABLE)
    ok = ok and set(family.centers) == set(table)
    for center, verts in table.items():
        got = cell_vertices_for_center(orbit.vertices, center)
        ok = ok and got == frozenset(v * SQRT2 for v in verts)
    _gate(9, "24-cell self-duality", ok,
          "six octahedron centers and their cells match the published "
          "table (stated sqrt2 scale); dual vertex set = mirror orbit")
    assert ok


def test_criterion_10_property_suites():
    # label-walk orbit x quaternion-closure stabilizer = octet-built group
    order = group_order("WF4")
    ok = True
    for p in ALL_PATTERNS:
        zeros = frozenset(i for i, a in enumerate(p) if a == 0)
        stabilizer = parabolic_elements("F4", zeros)
        ok = ok and generate_orbit(F4, p).size * len(stabilizer) == order

    rng = random.Random(SEED)
    trials = 0
    while trials < 1000:
        alpha = Quaternion(*[
            FieldScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(4)])
        if alpha.norm_sq().is_zero():
            continue
        v = Quaternion(*[
            FieldScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(4)])
        image = reflect(alpha, v)
        ok = ok and image == reflect_classical(alpha, v)
        ok = ok and reflect(alpha, image) == v
        trials += 1

    ok = ok and all(
        geometric_edge_check(generate_orbit(F4, p))
        == refdata.FVECTOR_GOLDEN[p][1]
        for p in NINE_PATTERNS)
    _gate(10, "property suites", ok,
          f"orbit-stabilizer on 15/15 labels; both reflection forms agree "
          f"and are involutive on 1000 seeded inputs (seed {SEED}); edge "
          "oracle = N1 on 9/9 polytopes")
    assert ok
