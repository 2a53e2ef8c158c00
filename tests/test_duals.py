import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from f4weyl import branching, duals, orbits, refdata
from f4weyl.duals import (PUBLISHED, convex_faces, dual_cell, dual_polytope,
                          solve_scales)
from f4weyl.orbits import Orbit, f_vector, generate_orbit, parabolic_order
from f4weyl.quat import E1, E2, E3, ONE_Q, Quaternion
from f4weyl.rootsys import RootSystem, b4_system, f4_system
from f4weyl.scalar import (SQRT2, FieldScalar, from_ints, over_lcm,
                           parse_scalar, row_dot, surd_order)
from f4weyl.verify import (cell_metrics, cell_vertices_for_center,
                           cells_at_vertex, kite_face)
from oracles import (dist_sq, frame_vectors, label_orbit, pattern_labels,
                     random_labels, scanned_centers, zero_one_labels)

F4 = f4_system()
_p = parse_scalar

# a surd label of the unpublished pattern (1,0,1,1)
SURD = (_p("7/3-sqrt2"), 0, _p("1/2+sqrt2"), 2)

NINE = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0),
        (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0), (1, 1, 0, 1),
        (1, 1, 1, 1))

# (pattern, {center node: count of incident cells of that family})
CENTER_COUNTS = {
    (1, 0, 0, 0): {4: 6},
    (0, 1, 0, 0): {4: 3, 1: 2},
    (1, 1, 0, 0): {4: 3, 1: 1},
    (1, 0, 1, 0): {4: 2, 2: 2, 1: 1},
    (1, 0, 0, 1): {4: 1, 3: 4, 2: 4, 1: 1},
    (0, 1, 1, 0): {4: 2, 1: 2},
    (1, 1, 1, 0): {4: 2, 2: 1, 1: 1},
    (1, 1, 0, 1): {4: 1, 3: 2, 2: 1, 1: 1},
    (1, 1, 1, 1): {4: 1, 3: 1, 2: 1, 1: 1},
}

#: dual-cell pair-distance goldens: per label, a scale choice and the
#: squared lengths (with multiplicities) the metric must contain.
#: "unit" scale divides raw frame coordinates by |Lambda|^2 (true 4-space
#: lengths); "quoted" uses the same overall factor as the printed rows.
DUAL_METRIC_GOLDEN = {
    (0, 1, 0, 0): ("unit", {_p("10/9"): 6, _p("2"): 3, _p("16/9"): 1}),
    (1, 1, 0, 0): ("unit", {_p("26/25"): 3, _p("2"): 3}),
    (0, 1, 1, 0): ("unit", {_p("4-2sqrt2"): 4, _p("2"): 2}),
    (1, 0, 0, 1): ("quoted", {_p("16-10sqrt2"): 8, _p("80-56sqrt2"): 8}),
}


def test_center_orbit_sizes():
    for pat, want in CENTER_COUNTS.items():
        fams = cells_at_vertex(F4, pat)
        got = {f.center_node: len(f.centers) for f in fams}
        assert got == want, pat
        # center nodes are exactly the complements of the cell diagrams
        for f in fams:
            assert f.center_node not in f.nodes


def test_scale_factors_golden():
    for pat, want in refdata.DUAL_SCALES_GOLDEN.items():
        assert solve_scales(F4, pat) == want, pat


def test_scaled_centers_coplanar():
    # after rescaling, every center incident to the vertex has the same
    # scalar product with the vertex vector
    for pat in NINE:
        lam = F4.label_to_vector(F4.coerce_labels(pat))
        scales = solve_scales(F4, pat)
        values = set()
        for fam in cells_at_vertex(F4, pat):
            s = scales[fam.center_node]
            for c in fam.centers:
                values.add((c * s).dot(lam))
        assert len(values) == 1, pat


def test_frame_orthogonality():
    rng = random.Random(7)
    for _ in range(40):
        lam = Quaternion(*[FieldScalar(rng.randrange(-3, 4),
                                       Fraction(rng.randrange(-2, 3)))
                           for _ in range(4)])
        if lam.is_zero():
            continue
        f1, f2, f3 = frame_vectors(lam)
        nsq = lam.dot(lam)
        assert f1.dot(f1) == nsq and f2.dot(f2) == nsq and f3.dot(f3) == nsq
        assert f1.dot(f2).is_zero() and f2.dot(f3).is_zero() and f3.dot(f1).is_zero()
        assert lam.dot(f1).is_zero() and lam.dot(f2).is_zero() and lam.dot(f3).is_zero()


def test_local_norm_identity():
    # sum of squared frame coordinates = |c|^2 |L|^2 - (c, L)^2
    rng = random.Random(8)
    for _ in range(30):
        comps = [FieldScalar(rng.randrange(-2, 3), Fraction(rng.randrange(-1, 2)))
                 for _ in range(8)]
        lam = Quaternion(*comps[:4])
        c = Quaternion(*comps[4:])
        if lam.is_zero():
            continue
        u = [c.dot(f) for f in frame_vectors(lam)]
        lhs = sum((x * x for x in u), FieldScalar(0))
        rhs = c.dot(c) * lam.dot(lam) - c.dot(lam) ** 2
        assert lhs == rhs


def test_printed_cell_rows():
    # the quoted local coordinate tables, with the documented corrections;
    # each cell carries its 0/1 pattern's printed row scale, also for a
    # non-unit label, and 1 where no rows are printed
    for pat, (s, rows) in refdata.DUAL_CELL_PRINTED.items():
        cell = dual_cell(F4, pat)
        assert cell.row_scale == s, pat
        got = sorted(tuple(x * s for x in u) for _, u in cell.coords)
        want = sorted(r[0] for r in rows)
        assert got == want, pat
    nonunit = dual_cell(F4, (2, parse_scalar("3+sqrt2"), 0, 1))
    assert nonunit.row_scale == refdata.DUAL_CELL_PRINTED[(1, 1, 0, 1)][0]
    unprinted = [p for p in product((0, 1), repeat=4)
                 if any(p) and p not in refdata.DUAL_CELL_PRINTED]
    assert len(unprinted) == 7
    for pat in unprinted:
        assert dual_cell(F4, pat).row_scale == FieldScalar(1), pat


def test_printed_row_errata_differ():
    # rows carrying a quoted variant really differ from the computed one
    flagged = 0
    for pat, (_, rows) in refdata.DUAL_CELL_PRINTED.items():
        for correct, quoted in rows:
            if quoted is not None:
                assert quoted != correct
                flagged += 1
    assert flagged == 3


def test_dual_counts_match_source():
    for pat in NINE:
        src = f_vector(F4, pat)
        d = dual_polytope(F4, pat)
        assert len(d.vertices) == src.n3, pat
        assert d.f_tuple == (src.n3, src.n2, src.n1, src.n0)
        assert sum(sh.size for sh in d.shells) == len(d.vertices)


def test_dual_radii():
    # quoted radii: two-shell cases with exact ratios, and the
    # equal-radius union for (0,1,1,0)
    d = dual_polytope(F4, (0, 1, 0, 0))
    by_node = {sh.node: sh for sh in d.shells}
    ratio_sq = by_node[4].radius_sq / by_node[1].radius_sq
    assert ratio_sq == FieldScalar(Fraction(9, 8))  # (3/(2 sqrt2))^2

    d = dual_polytope(F4, (1, 1, 0, 0))
    by_node = {sh.node: sh for sh in d.shells}
    ratio_sq = by_node[4].radius_sq / by_node[1].radius_sq
    assert ratio_sq == FieldScalar(Fraction(25, 18))  # (5 sqrt2/6)^2

    d = dual_polytope(F4, (0, 1, 1, 0))
    assert all(sh.radius_sq == FieldScalar(2) for sh in d.shells)

    d = dual_polytope(F4, (1, 0, 0, 1))
    by_node = {sh.node: sh for sh in d.shells}
    assert by_node[1].radius_sq == by_node[4].radius_sq == FieldScalar(3, 2)
    assert by_node[2].radius_sq == by_node[3].radius_sq == FieldScalar(6)
    assert abs(float(by_node[1].radius_sq) ** 0.5 - 2.414) < 1e-3
    assert abs(float(by_node[2].radius_sq) ** 0.5 - 2.449) < 1e-3


def test_cell_metric_golden():
    for pat, (mode, want) in DUAL_METRIC_GOLDEN.items():
        if mode == "unit":
            got = cell_metrics(F4, pat)
        else:
            # the u-distances times the quoted coordinate factor squared
            lam, s = F4.label_to_vector(pat), refdata.DUAL_CELL_PRINTED[pat][0]
            factor = lam.dot(lam) * s * s
            got = {d * factor: n for d, n in cell_metrics(F4, pat).items()}
        for dist_sq, count in want.items():
            assert got.get(dist_sq) == count, (pat, str(dist_sq))


def test_kite_face_exact():
    kite = kite_face(F4, (1, 0, 0, 1))
    g = refdata.KITE_GOLDEN
    assert sorted(kite["sides_sq"]) == sorted([g["long_side_sq"],
                                               g["long_side_sq"],
                                               g["short_side_sq"],
                                               g["short_side_sq"]])
    assert kite["axis_diagonal_sq"] == g["axis_diagonal_sq"]
    assert kite["cross_diagonal_sq"] == g["cross_diagonal_sq"]
    assert kite["area_sq"] == g["area_sq"]
    # independent float route agrees with the exact area
    exact = float(kite["area_sq"]) ** 0.5
    assert abs(kite["area_float"] - exact) < 1e-9
    # and the quoted area value does not (documented misprint)
    assert abs(exact - g["quoted_area"]) > 0.25
    # every face of the cell at its row scale is this kite
    pts = [u for _, u in dual_cell(F4, (1, 0, 0, 1)).rows()]
    faces = convex_faces(pts)
    assert len(faces) == 8
    for face in faces:
        p = [pts[i] for i in face]
        assert len(p) == 4
        assert sorted(dist_sq(p[i - 1], p[i]) for i in range(4)) == \
            sorted(kite["sides_sq"])
        assert sorted([dist_sq(p[0], p[2]), dist_sq(p[1], p[3])]) == \
            sorted([kite["axis_diagonal_sq"], kite["cross_diagonal_sq"]])


def test_kite_shape_sanity():
    # kite sides pair up adjacent around the quad: (a,b,b,a) order
    kite = kite_face(F4, (1, 0, 0, 1))
    a, b, c, d = kite["sides_sq"]
    assert a == d and b == c and a != b
    # a cell of another shape has no kite
    with pytest.raises(ValueError) as err:
        kite_face(F4, (1, 1, 1, 1))
    assert str(err.value) == \
        "dual cell is not a trapezohedron for (1,1,1,1)"


def test_self_dual_24cell():
    # the dual of the (1,0,0,0) orbit is the (0,0,0,1) orbit at scale 1
    d = dual_polytope(F4, (1, 0, 0, 0))
    other = generate_orbit(F4, (0, 0, 0, 1))
    assert d.vertices == frozenset(other.vertices)
    # and vice versa
    d2 = dual_polytope(F4, (0, 0, 0, 1))
    assert d2.vertices == frozenset(generate_orbit(F4, (1, 0, 0, 0)).vertices)


def test_self_dual_cell_table():
    # the six cells at the dominant vertex: centers 1 +/- e_k, vertex
    # sets matching the frozen table after the sqrt2 re-scale
    (fam,) = cells_at_vertex(F4, (1, 0, 0, 0))
    table_centers = frozenset(c for c, _ in refdata.SELF_DUAL_CELL_TABLE)
    assert frozenset(fam.centers) == table_centers
    orbit = generate_orbit(F4, (1, 0, 0, 0))
    for center, verts in refdata.SELF_DUAL_CELL_TABLE:
        got = cell_vertices_for_center(orbit.vertices, center)
        assert got == frozenset(v * SQRT2 for v in verts)


def test_diagram_symmetry_on_dual_cell():
    # on a label fixed by the diagram flip, the outer symmetry acts on the
    # dual cell as the frame map (u1,u2,u3) -> (-u1,u3,u2), swapping nodes
    # 1<->4 and 2<->3; dual_cell has already applied the scale factors
    swap = {1: 4, 2: 3, 3: 2, 4: 1}
    for labels in ((1, 1, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (2, 1, 1, 2)):
        source = set(dual_cell(F4, labels).coords)
        mapped = {(swap[node], (-u[0], u[2], u[1])) for node, u in source}
        assert mapped == source, labels


def test_solve_scales_general_labels():
    # a non-unit dominant label reuses the pattern's reference node, and an
    # unpublished pattern takes its smallest center node; the scales come
    # in ascending node order, and the dual cell has vertices at the
    # centers of the same nodes
    for labels, ref in (((2, 1, 0, 0), 4), (SURD, 1)):
        scales = solve_scales(F4, labels)
        assert list(scales) == sorted(scales)
        assert [j for j, s in scales.items() if s == 1] == [ref], scales
        assert {j for j, _ in dual_cell(F4, labels).coords} == set(scales)
        lam = F4.label_to_vector(F4.coerce_labels(labels))
        for j, s in scales.items():
            assert s * F4.weights[j - 1].dot(lam) == \
                F4.weights[ref - 1].dot(lam)


def test_degenerate_dual_rejected():
    for entry in (dual_polytope, dual_cell, cell_metrics, kite_face):
        try:
            entry(F4, (0, 0, 0, 0))
        except ValueError:
            pass
        else:
            assert False, entry.__name__


def test_published_table_matches_the_golden_data():
    # duals.PUBLISHED is the label path's copy of the published data
    for pattern in product((0, 1), repeat=4):
        if not any(pattern):
            continue
        printed = refdata.DUAL_CELL_PRINTED.get(pattern)
        want = printed[0] if printed else FieldScalar(1)
        assert PUBLISHED.get(pattern, (None, 1))[1] == want, pattern
        assert dual_cell(F4, pattern).row_scale == want, pattern
    for pattern, golden in refdata.DUAL_SCALES_GOLDEN.items():
        ref = PUBLISHED[pattern][0]
        assert golden[ref] == 1 and solve_scales(F4, pattern)[ref] == 1


def test_dual_steps_build_the_complex_once():
    # cells_at_vertex, solve_scales and dual_polytope all read the zero
    # pattern, whose counts, inventories and centers are built once
    orbits._pattern.cache_clear()
    dual_polytope(F4, (2, 1, 0, 1))
    dual_cell(F4, (2, 1, 0, 1))
    cells_at_vertex(F4, (2, 1, 0, 1))
    solve_scales(F4, (2, 1, 0, 1))
    assert orbits._pattern.cache_info().misses == 1


def test_b4_duals_take_the_unpublished_conventions():
    # the published row scales and reference nodes are F4's: every B4
    # pattern takes row scale 1 and its smallest center node as reference
    b4 = b4_system()
    for pattern in zero_one_labels(4):
        assert dual_cell(b4, pattern).row_scale == FieldScalar(1), pattern
        scales = solve_scales(b4, pattern)
        assert [j for j, s in scales.items() if s == 1] == [min(scales)], \
            (pattern, scales)


def test_dual_steps_solve_the_scales_once():
    # the four entry points share one vertex-figure solve; the public
    # scales call hands out a fresh dict each time
    duals._vertex_figure.cache_clear()
    dual_polytope(F4, (2, 1, 0, 1))
    dual_cell(F4, (2, 1, 0, 1))
    cells_at_vertex(F4, (2, 1, 0, 1))
    solve_scales(F4, (2, 1, 0, 1))
    assert duals._vertex_figure.cache_info().misses == 1
    solve_scales(F4, (2, 1, 0, 1)).clear()
    shells = dual_polytope(F4, (2, 1, 0, 1)).shells
    assert solve_scales(F4, (2, 1, 0, 1)) == {s.node: s.scale for s in shells}


def test_fresh_label_builds_its_vertex_row_once(monkeypatch):
    # with the complexes warm, a fresh label's orbit and its vertex-figure
    # solve share one integer_vector call: the solve reads Lambda's row
    # off the cached orbit
    orbits._orbit_cached.cache_clear()
    duals._vertex_figure.cache_clear()
    for pattern in zero_one_labels(4):
        dual_polytope(F4, pattern)
    calls = []
    real = RootSystem.integer_vector
    monkeypatch.setattr(RootSystem, "integer_vector",
                        lambda sys, mu: calls.append(mu) or real(sys, mu))
    for labels in pattern_labels(1, 29):
        calls.clear()
        generate_orbit(F4, labels)
        dual_polytope(F4, labels)
        dual_cell(F4, labels)
        assert len(calls) == 1, labels


def test_walked_centers_match_the_unit_orbit_scan():
    # the W_J walk of omega_j against the old filter of the unit orbit's
    # rows by (c, Lambda) = (omega_j, Lambda), on F4 and B4, four labels
    # of each of the 15 patterns
    for sys in (F4, b4_system()):
        for labels in pattern_labels(4, 31):
            lab = sys.coerce_labels(labels)
            families = duals._vertex_figure(sys.name, lab)[0].families
            assert [(j, list(rows)) for _, j, rows in families] == \
                scanned_centers(sys, lab), (sys.name, labels)


def test_fresh_patterns_make_no_kernel_calls(monkeypatch):
    # with the node-set table warm, the patterns (complexes and walked cell
    # centers) of all 15 F4 zero patterns read only rows of the system: no
    # label row, coset form, orbit count or kernel orbit; the B3 layer
    # templates of the 8 tie patterns make one kernel orbit each
    orbits._node_sets("F4")
    calls = []
    for name in ("integer_vector", "coset_forms", "orbit_count",
                 "signed_permutations"):
        monkeypatch.setattr(RootSystem, name, lambda sys, *args, _name=name,
                            _real=getattr(RootSystem, name):
                            calls.append(_name) or _real(sys, *args))
    for cache in (orbits._pattern, branching._b3_template):
        cache.cache_clear()
    for pattern in zero_one_labels(4):
        orbits._pattern("F4", frozenset(i for i, a in enumerate(pattern)
                                        if not a))
    assert calls == []
    for ties in product((False, True), repeat=3):
        branching._b3_template(*ties)
    assert calls == ["signed_permutations"] * 8


def test_fresh_dual_builds_no_polytope_complex(monkeypatch):
    # with its pattern warm, a fresh dual reads its f-vector and shell
    # sizes off the pattern: no PolytopeComplex is built for it
    for pattern in zero_one_labels(4):
        dual_polytope(F4, pattern)
    duals._vertex_figure.cache_clear()
    built, real = [], orbits.PolytopeComplex
    monkeypatch.setattr(orbits, "PolytopeComplex",
                        lambda *args: built.append(args) or real(*args))
    labels = pattern_labels(1, 35)
    made = [dual_polytope(F4, lab) for lab in labels]
    assert built == []
    monkeypatch.undo()
    for lab, dual in zip(labels, made):
        assert dual.f_tuple == f_vector(F4, lab).f_tuple()[::-1], lab


def test_fresh_cells_at_vertex_build_no_orbit(monkeypatch):
    # the cell families depend on J alone: with its pattern warm, a fresh
    # label's families come off the pattern, with no solve and no orbit
    for pattern in zero_one_labels(4):
        cells_at_vertex(F4, pattern)
    orbits._orbit_cached.cache_clear()
    duals._vertex_figure.cache_clear()
    forms, real = [], RootSystem.coset_forms
    monkeypatch.setattr(RootSystem, "coset_forms",
                        lambda sys, mu: forms.append(mu) or real(sys, mu))
    for labels, pattern in zip(pattern_labels(1, 36), zero_one_labels(4)):
        assert cells_at_vertex(F4, labels) == cells_at_vertex(F4, pattern)
    assert forms == []


def test_fresh_dual_builds_only_its_own_orbit(monkeypatch):
    # with its pattern warm, a fresh dual of a label with four nonzero
    # entries builds Lambda's orbit alone; the vertex union, read later,
    # takes the four omega_j orbits from the one label-orbit cache
    dual_polytope(F4, (1, 1, 1, 1))
    orbits._orbit_cached.cache_clear()
    forms, real = [], RootSystem.coset_forms
    monkeypatch.setattr(RootSystem, "coset_forms",
                        lambda sys, mu: forms.append(mu) or real(sys, mu))
    labels = next(lab for lab in pattern_labels(1, 34) if all(lab))
    dual = dual_polytope(F4, labels)
    assert forms == [over_lcm(F4.coerce_labels(labels))[0]]
    assert len(dual.vertices) == dual.f_tuple[0]
    assert len(forms) == 5
    assert orbits._orbit_cached.cache_info().currsize == 5
    orbits._orbit_cached.cache_clear()  # drops the omega_j orbits too
    assert orbits._orbit_cached.cache_info().currsize == 0
    # the source has 240 cells, the dual 240 vertices
    for labels in ((1, 0, 0, 1), SURD):
        dual = dual_polytope(F4, labels)
        assert len(dual.vertices) == dual.f_tuple[0] == 240, labels


def test_solve_reads_no_unit_orbit_rows(monkeypatch):
    # the centers are walked in label space, so no solve expands an orbit,
    # Lambda's or any omega_j's, into its signed-permutation rows
    reads = []
    rows = Orbit.rows.func
    monkeypatch.setattr(Orbit, "rows", property(
        lambda orbit: reads.append(orbit.labels) or rows(orbit)))
    orbits._orbit_cached.cache_clear()
    duals._vertex_figure.cache_clear()
    orbits._pattern.cache_clear()
    try:
        for sys in (F4, b4_system()):
            for labels in pattern_labels(1, 32):
                dual_polytope(sys, labels)
                dual_cell(sys, labels)
                cells_at_vertex(sys, labels)
    finally:
        orbits._orbit_cached.cache_clear()
    assert reads == []


def _row_dot(a, b, den):
    """(a, b) / den of flat Z[sqrt2] rows (x0, y0, ..., x3, y3)."""
    return from_ints(sum(a[k] * b[k] << (k & 1) for k in range(8)),
                     sum(a[k] * b[k ^ 1] for k in range(8)), den)


# two random labels of each of the 15 zero patterns
CERTIFIED = pattern_labels(2, 25)


@pytest.mark.parametrize("labels", CERTIFIED,
                         ids=[str(i) for i in range(len(CERTIFIED))])
def test_polar_duality_certificate(labels):
    # the dual is the polar of the source up to one scale per shell
    # (G. M. Ziegler, Lectures on Polytopes, section 2.3), checked on
    # integer rows: (a) each shell's s_j * omega_j has the same largest
    # product K with the source rows, reached on the |W_{I-j}| /
    # |W_{(I-j) & J}| vertices of the cell opposite node j (J the
    # zero-label nodes); (b) every dual row d has (d, Lambda) <= K, with
    # equality exactly on the dual cell's centers, node by node
    lab = F4.coerce_labels(labels)
    zeros = frozenset(i for i, a in enumerate(lab) if a.is_zero())
    source = generate_orbit(F4, lab)
    lam = F4.integer_vector(over_lcm(lab)[0])
    over = source.den * F4.weight_den  # a source row's times omega's
    dual = dual_polytope(F4, lab)
    centers = {f.center_node: frozenset(f.centers)
               for f in cells_at_vertex(F4, lab)}
    assert sorted(centers) == [s.node for s in dual.shells]
    shell_tops = set()
    for shell in dual.shells:
        omega = F4.integer_vector(tuple(
            v for i in range(4) for v in (int(i == shell.node - 1), 0)))
        products = [_row_dot(omega, r, over) for r in source.rows]
        top = max(products)
        shell_tops.add(top * shell.scale)
        rest = frozenset(range(4)) - {shell.node - 1}
        assert products.count(top) == parabolic_order(
            "F4", rest) // parabolic_order("F4", rest & zeros), shell.node
    (k,) = shell_tops
    for shell in dual.shells:
        unit = generate_orbit(F4, [int(i == shell.node - 1) for i in range(4)])
        products = [_row_dot(r, lam, over) * shell.scale for r in unit.rows]
        assert max(products) == k, shell.node
        on_top = [r for r, p in zip(unit.rows, products) if p == k]
        assert frozenset(F4.vertices(on_top, unit.den)) == centers[shell.node]


# the vertex count of each face and cell name that f_vector gives
VERTEX_COUNTS = {
    "triangle": 3, "square": 4, "hexagon": 6, "octagon": 8,
    "tetrahedron": 4, "octahedron": 6, "cube": 8, "cuboctahedron": 12,
    "truncated tetrahedron": 12, "truncated octahedron": 24,
    "truncated cube": 24, "small rhombicuboctahedron": 24,
    "great rhombicuboctahedron": 48, "triangular prism": 6,
    "square prism": 8, "hexagonal prism": 12, "octagonal prism": 16,
}


@pytest.mark.parametrize("labels", CERTIFIED,
                         ids=[str(i) for i in range(len(CERTIFIED))])
def test_f_vector_certificate(labels):
    # the dual cell at Lambda is polar to the vertex figure there (G. M.
    # Ziegler, Lectures on Polytopes, Lecture 2): its V vertices are the
    # cells at Lambda, its E edges the 2-faces and its F faces the edges,
    # so N0 times each counts the vertex incidences of the named cells,
    # of the named 2-faces and of the edges
    fv = f_vector(F4, labels)
    points = [u for _, u in dual_cell(F4, labels).coords]
    faces = convex_faces(points)
    edges = {frozenset((cycle[i - 1], cycle[i]))
             for cycle in faces for i in range(len(cycle))}
    assert fv.n0 * len(points) == sum(
        c.count * VERTEX_COUNTS[c.name] for c in fv.cells)
    assert fv.n0 * len(edges) == sum(
        f.count * VERTEX_COUNTS[f.name] for f in fv.faces)
    assert fv.n0 * len(faces) == 2 * fv.n1


def _rational_rank(vectors):
    """Rank over Q of integer vectors, by fraction-free elimination."""
    rows, rank = [v for v in vectors if any(v)], 0
    while rows:
        pivot = rows.pop()
        k = next(k for k, a in enumerate(pivot) if a)
        rows = [r for r in ([a * pivot[k] - b * r[k] for a, b in zip(r, pivot)]
                            for r in rows) if any(r)]
        rank += 1
    return rank


def _surd_rank(rows):
    """Rank over Q(sqrt2) of flat Z[sqrt2] rows: half the rational rank of
    the rows and their sqrt2 multiples, which span the same Q(sqrt2) space
    as a Q space of twice the dimension."""
    root2 = [tuple(v for x, y in zip(r[::2], r[1::2]) for v in (2 * y, x))
             for r in rows]
    return _rational_rank(list(rows) + root2) // 2


def _faces_at(rows, lam, functional):
    """(maximizer set, affine Q(sqrt2) rank) of a functional row over the
    orbit's rows, by exact integer products p + q*sqrt2."""
    products = list(map(row_dot(functional), rows))
    top = max(set(products), key=surd_order)
    face = frozenset(r for r, p in zip(rows, products) if p == top)
    return face, _surd_rank([[a - b for a, b in zip(r, lam)] for r in face])


# two random labels of each of the 15 zero patterns and 30 random labels
FACE_CERTIFIED = pattern_labels(2, 41) + random_labels(4, 30, 43)


@pytest.mark.parametrize("sys", [F4, b4_system()], ids=lambda s: s.name)
def test_face_count_certificate(sys):
    # every face is the maximizer set of a linear functional (G. M.
    # Ziegler, Lectures on Polytopes, Lecture 2).  For a k-set S of nodes,
    # the centroid c of W_S Lambda (the sum of the labels of the walk of
    # Lambda's label under S) is dominant with zeros on S and its halo, and
    # the walk of c's label under J gives one functional per face of that
    # type at Lambda.  Their maximizer sets span k dimensions exactly when
    # S is a face type (k = 1: an edge); each holds Lambda and the named
    # shape's vertex count, they are distinct, and N0 times their number
    # over that count is the entry's count.  No group table enters.
    for labels in FACE_CERTIFIED:
        lab = sys.coerce_labels(labels)
        mu, _ = over_lcm(lab)
        zeros = [i for i, a in enumerate(lab) if a.is_zero()]
        rows, lam = generate_orbit(sys, lab).rows, sys.integer_vector(mu)
        fv, n0 = f_vector(sys, lab), len(set(rows))
        assert fv.n0 == n0, labels
        found = {}
        for k in (1, 2, 3):
            for nodes in combinations(range(4), k):
                walked = label_orbit(sys, mu, nodes)
                c = tuple(map(sum, zip(*(nu for nu, _ in walked))))
                sets = []
                for _, f in label_orbit(sys, c, zeros):
                    sets.append(_faces_at(rows, lam, f))
                    if sets[0][1] < k:
                        break  # not a face type: one functional shows it
                assert all(lam in face for face, _ in sets), (labels, nodes)
                if {rank for _, rank in sets} == {k}:
                    found[tuple(i + 1 for i in nodes)] = [f for f, _ in sets]
                else:
                    assert all(rank < k for _, rank in sets), (labels, nodes)
        edges = [(i + 1,) for i in range(4) if i not in zeros]
        entries = [(e.nodes, VERTEX_COUNTS[e.name], e.count)
                   for e in fv.faces + fv.cells]
        assert sorted(found) == sorted(edges + [n for n, _, _ in entries])
        assert n0 * sum(len(found[e]) for e in edges) == 2 * fv.n1, labels
        for nodes, size, count in [(e, 2, None) for e in edges] + entries:
            faces = found[nodes]
            assert {len(face) for face in faces} == {size}, (labels, nodes)
            assert len(set(faces)) == len(faces), (labels, nodes)
            if count is not None:
                assert n0 * len(faces) == count * size, (labels, nodes)
