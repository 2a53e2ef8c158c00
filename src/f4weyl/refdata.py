"""Frozen reference tables for the golden-test battery.

Everything in this module is data the implementation must reproduce:
branching tables, slice decompositions, dual scale factors, dual-cell
local coordinates and the worked 3D projections.  Values were checked
by hand against independent derivations before being frozen here.
Only ``verify`` and the tests load this module, never a label command.

Known misprints.  A handful of the commonly quoted values for these
polytopes do not survive exact recomputation.  Each such case is listed
in :data:`ERRATA` with the quoted value, the computed value and a short
justification; the tables below always carry the computed (correct)
value, and where a coordinate row differs from the quoted form the
quoted variant is kept alongside for the record.  Computation prevails.
"""

from __future__ import annotations

from .quat import E1, E2, E3, ONE_Q, Quaternion
from .scalar import HALF, FieldScalar, parse_scalar as _p


def _lab(*texts: str) -> tuple[FieldScalar, ...]:
    return tuple(_p(t) for t in texts)


# ---------------------------------------------------------------------------
# the multiplication table of the six octet cosets of the binary octahedral
# group (rows/columns in the fixed order below; entry = product coset)

SUBSET_TABLE_GOLDEN = (
    ("V0", "V+", "V-", "V1", "V2", "V3"),
    ("V+", "V-", "V0", "V3", "V1", "V2"),
    ("V-", "V0", "V+", "V2", "V3", "V1"),
    ("V1", "V2", "V3", "V0", "V+", "V-"),
    ("V2", "V3", "V1", "V-", "V0", "V+"),
    ("V3", "V1", "V2", "V+", "V-", "V0"),
)

# f-vectors (N0, N1, N2, N3) of the ten worked 0/1-label orbit polytopes
FVECTOR_GOLDEN = {
    (1, 0, 0, 0): (24, 96, 96, 24),
    (0, 1, 0, 0): (96, 288, 240, 48),
    (0, 0, 1, 0): (96, 288, 240, 48),
    (1, 1, 0, 0): (192, 384, 240, 48),
    (1, 0, 1, 0): (288, 864, 720, 144),
    (1, 0, 0, 1): (144, 576, 672, 240),
    (0, 1, 1, 0): (288, 576, 336, 48),
    (1, 1, 1, 0): (576, 1152, 720, 144),
    (1, 1, 0, 1): (576, 1440, 1104, 240),
    (1, 1, 1, 1): (1152, 2304, 1392, 240),
}

# ---------------------------------------------------------------------------
# branchings of F4 orbit labels into B4 orbit labels
#
# keys: 0/1 F4 label patterns; values: ordered B4 parts.

B4_BRANCH_GOLDEN: dict[tuple[int, int, int, int], tuple[tuple[FieldScalar, ...], ...]] = {
    (0, 0, 0, 1): (_lab("0", "1", "0", "0"),),
    (0, 0, 1, 0): (_lab("1", "0", "1", "0"),),
    (0, 0, 1, 1): (_lab("1", "1", "1", "0"),),
    (0, 1, 0, 0): (_lab("0", "0", "sqrt2", "0"), _lab("sqrt2", "0", "0", "1")),
    (0, 1, 0, 1): (_lab("0", "1", "sqrt2", "0"), _lab("sqrt2", "1", "0", "1")),
    (0, 1, 1, 0): (_lab("1", "0", "1+sqrt2", "0"), _lab("1+sqrt2", "0", "1", "1")),
    (0, 1, 1, 1): (_lab("1", "1", "1+sqrt2", "0"), _lab("1+sqrt2", "1", "1", "1")),
    (1, 0, 0, 0): (_lab("0", "0", "0", "1"), _lab("sqrt2", "0", "0", "0")),
    (1, 0, 0, 1): (_lab("0", "1", "0", "1"), _lab("sqrt2", "1", "0", "0")),
    (1, 0, 1, 0): (_lab("1", "0", "1", "1"), _lab("1+sqrt2", "0", "1", "0")),
    (1, 0, 1, 1): (_lab("1", "1", "1", "1"), _lab("1+sqrt2", "1", "1", "0")),
    (1, 1, 0, 0): (_lab("0", "0", "sqrt2", "1"), _lab("sqrt2", "0", "0", "2"),
                   _lab("2sqrt2", "0", "0", "1")),
    (1, 1, 0, 1): (_lab("0", "1", "sqrt2", "1"), _lab("sqrt2", "1", "0", "2"),
                   _lab("2sqrt2", "1", "0", "1")),
    (1, 1, 1, 0): (_lab("1", "0", "1+sqrt2", "1"), _lab("1+sqrt2", "0", "1", "2"),
                   _lab("1+2sqrt2", "0", "1", "1")),
    (1, 1, 1, 1): (_lab("1", "1", "1+sqrt2", "1"), _lab("1+sqrt2", "1", "1", "2"),
                   _lab("1+2sqrt2", "1", "1", "1")),
}


# ---------------------------------------------------------------------------
# slice decompositions under the octahedral x reflection split
#
# values: ((b1, b2, b3), height) with height >= 0; a positive height
# stands for the +/- pair of hyperplanes.

B3A1_GOLDEN: dict[tuple[int, int, int, int],
                  tuple[tuple[tuple[FieldScalar, ...], FieldScalar], ...]] = {
    (0, 0, 0, 1): (
        (_lab("0", "0", "1"), _p("1/sqrt2")),
        (_lab("0", "1", "0"), _p("0")),
    ),
    (0, 0, 1, 0): (
        (_lab("0", "1", "0"), _p("sqrt2")),
        (_lab("0", "1", "1"), _p("1/sqrt2")),
        (_lab("sqrt2", "0", "1"), _p("0")),
    ),
    (0, 0, 1, 1): (
        (_lab("0", "1", "1"), _p("3/sqrt2")),
        (_lab("0", "1", "2"), _p("sqrt2")),
        (_lab("0", "2", "1"), _p("1/sqrt2")),
        (_lab("sqrt2", "1", "1"), _p("0")),
    ),
    (0, 1, 0, 0): (
        (_lab("0", "sqrt2", "0"), _p("1")),
        (_lab("1", "0", "0"), _p("3/2")),
        (_lab("1", "0", "sqrt2"), _p("1/2")),
        (_lab("2", "0", "0"), _p("0")),
    ),
    (0, 1, 0, 1): (
        (_lab("0", "sqrt2", "1"), _p("1+1/sqrt2")),
        (_lab("0", "1+sqrt2", "0"), _p("1")),
        (_lab("1", "0", "1"), _p("3/2+1/sqrt2")),
        (_lab("1", "0", "1+sqrt2"), _p("1/2+1/sqrt2")),
        (_lab("1", "1", "sqrt2"), _p("1/2")),
        (_lab("2", "1", "0"), _p("0")),
    ),
    (0, 1, 1, 0): (
        (_lab("0", "1+sqrt2", "0"), _p("1+sqrt2")),
        (_lab("0", "1+sqrt2", "1"), _p("1+1/sqrt2")),
        (_lab("1", "1", "0"), _p("3/2+sqrt2")),
        (_lab("1", "1", "1+sqrt2"), _p("1/2+1/sqrt2")),
        (_lab("1+sqrt2", "0", "1+sqrt2"), _p("1/2")),
        (_lab("2+sqrt2", "0", "1"), _p("0")),
    ),
    (0, 1, 1, 1): (
        (_lab("0", "1+sqrt2", "1"), _p("1+3/sqrt2")),
        (_lab("0", "1+sqrt2", "2"), _p("1+sqrt2")),
        (_lab("0", "2+sqrt2", "1"), _p("1+1/sqrt2")),
        (_lab("1", "1", "1"), _p("3/2+3/2sqrt2")),
        (_lab("1", "1", "2+sqrt2"), _p("1/2+sqrt2")),
        (_lab("1", "2", "1+sqrt2"), _p("1/2+1/sqrt2")),
        (_lab("1+sqrt2", "1", "1+sqrt2"), _p("1/2")),
        (_lab("2+sqrt2", "1", "1"), _p("0")),
    ),
    (1, 0, 0, 0): (
        (_lab("0", "0", "0"), _p("1")),
        (_lab("0", "0", "sqrt2"), _p("0")),
        (_lab("1", "0", "0"), _p("1/2")),
    ),
    (1, 0, 0, 1): (
        (_lab("0", "0", "1"), _p("1+1/sqrt2")),
        (_lab("0", "0", "1+sqrt2"), _p("1/sqrt2")),
        (_lab("0", "1", "sqrt2"), _p("0")),
        (_lab("1", "0", "1"), _p("1/2+1/sqrt2")),
        (_lab("1", "1", "0"), _p("1/2")),
    ),
    (1, 0, 1, 0): (
        (_lab("0", "1", "0"), _p("1+sqrt2")),
        (_lab("0", "1", "1+sqrt2"), _p("1/sqrt2")),
        (_lab("1", "1", "0"), _p("1/2+sqrt2")),
        (_lab("1", "1", "1"), _p("1/2+1/sqrt2")),
        (_lab("sqrt2", "0", "1+sqrt2"), _p("0")),
        (_lab("1+sqrt2", "0", "1"), _p("1/2")),
    ),
    (1, 0, 1, 1): (
        (_lab("0", "1", "1"), _p("1+3/sqrt2")),
        (_lab("0", "1", "2+sqrt2"), _p("sqrt2")),
        (_lab("0", "2", "1+sqrt2"), _p("1/sqrt2")),
        (_lab("1", "1", "1"), _p("1/2+3/sqrt2")),
        (_lab("1", "1", "2"), _p("1/2+sqrt2")),
        (_lab("1", "2", "1"), _p("1/2+1/sqrt2")),
        (_lab("sqrt2", "1", "1+sqrt2"), _p("0")),
        (_lab("1+sqrt2", "1", "1"), _p("1/2")),
    ),
    (1, 1, 0, 0): (
        (_lab("1", "0", "0"), _p("5/2")),
        (_lab("1", "0", "2sqrt2"), _p("1/2")),
        (_lab("1", "sqrt2", "0"), _p("3/2")),
        (_lab("2", "0", "0"), _p("2")),
        (_lab("2", "0", "sqrt2"), _p("1")),
        (_lab("3", "0", "0"), _p("1/2")),
    ),
    (1, 1, 0, 1): (
        (_lab("1", "0", "1"), _p("5/2+1/sqrt2")),
        (_lab("1", "0", "1+2sqrt2"), _p("1/2+1/sqrt2")),
        (_lab("1", "1", "2sqrt2"), _p("1/2")),
        (_lab("1", "sqrt2", "1"), _p("3/2+1/sqrt2")),
        (_lab("1", "1+sqrt2", "0"), _p("3/2")),
        (_lab("2", "0", "1"), _p("2+1/sqrt2")),
        (_lab("2", "0", "1+sqrt2"), _p("1+1/sqrt2")),
        (_lab("2", "1", "sqrt2"), _p("1")),
        (_lab("3", "1", "0"), _p("1/2")),
    ),
    (1, 1, 1, 0): (
        (_lab("1", "1", "0"), _p("5/2+sqrt2")),
        (_lab("1", "1", "1+2sqrt2"), _p("1/2+1/sqrt2")),
        (_lab("1", "1+sqrt2", "0"), _p("3/2+sqrt2")),
        (_lab("1", "1+sqrt2", "1"), _p("3/2+1/sqrt2")),
        (_lab("2", "1", "0"), _p("2+sqrt2")),
        (_lab("2", "1", "1+sqrt2"), _p("1+1/sqrt2")),
        (_lab("1+sqrt2", "0", "1+2sqrt2"), _p("1/2")),
        (_lab("2+sqrt2", "0", "1+sqrt2"), _p("1")),
        (_lab("3+sqrt2", "0", "1"), _p("1/2")),
    ),
    (1, 1, 1, 1): (
        (_lab("1", "1", "1"), _p("5/2+3/sqrt2")),
        (_lab("1", "1", "2+2sqrt2"), _p("1/2+sqrt2")),
        (_lab("1", "2", "1+2sqrt2"), _p("1/2+1/sqrt2")),
        (_lab("1", "1+sqrt2", "1"), _p("3/2+3/2sqrt2")),
        (_lab("1", "1+sqrt2", "2"), _p("3/2+sqrt2")),
        (_lab("1", "2+sqrt2", "1"), _p("3/2+1/sqrt2")),
        (_lab("2", "1", "1"), _p("2+3/sqrt2")),
        (_lab("2", "1", "2+sqrt2"), _p("1+sqrt2")),
        (_lab("2", "2", "1+sqrt2"), _p("1+1/sqrt2")),
        (_lab("1+sqrt2", "1", "1+2sqrt2"), _p("1/2")),
        (_lab("2+sqrt2", "1", "1+sqrt2"), _p("1")),
        (_lab("3+sqrt2", "1", "1"), _p("1/2")),
    ),
}


# ---------------------------------------------------------------------------
# worked 3D projections (heights paired with exact slice point sets)

def _pts(*triples) -> frozenset:
    return frozenset(tuple(_p(c) for c in t) for t in triples)


#: the 24-cell at half scale, label (1/sqrt2, 0, 0, 0): two poles, one
#: octahedron, two cubes.
PROJECTED_24CELL = (
    (_p("1/sqrt2"), _pts(("0", "0", "0"))),
    (_p("sqrt2/4"), _pts(*[(f"{sx}1/2", f"{sy}1/2", f"{sz}1/2")
                           for sx in ("", "-") for sy in ("", "-")
                           for sz in ("", "-")])),
    (_p("0"), _pts(("1", "0", "0"), ("-1", "0", "0"), ("0", "1", "0"),
                   ("0", "-1", "0"), ("0", "0", "1"), ("0", "0", "-1"))),
    (_p("-sqrt2/4"), _pts(*[(f"{sx}1/2", f"{sy}1/2", f"{sz}1/2")
                            for sx in ("", "-") for sy in ("", "-")
                            for sz in ("", "-")])),
    (_p("-1/sqrt2"), _pts(("0", "0", "0"))),
)

#: its dual at matching scale, label (0, 0, 0, 1/sqrt2): two octahedra
#: and an equatorial cuboctahedron.
_OCTA_HALF = _pts(("1/sqrt2", "0", "0"), ("-1/sqrt2", "0", "0"),
                  ("0", "1/sqrt2", "0"), ("0", "-1/sqrt2", "0"),
                  ("0", "0", "1/sqrt2"), ("0", "0", "-1/sqrt2"))
_CUBOCTA_HALF = _pts(
    *[(f"{sa}1/sqrt2", f"{sb}1/sqrt2", "0") for sa in ("", "-") for sb in ("", "-")],
    *[(f"{sa}1/sqrt2", "0", f"{sb}1/sqrt2") for sa in ("", "-") for sb in ("", "-")],
    *[("0", f"{sa}1/sqrt2", f"{sb}1/sqrt2") for sa in ("", "-") for sb in ("", "-")],
)

PROJECTED_DUAL24 = (
    (_p("1/2"), _OCTA_HALF),
    (_p("0"), _CUBOCTA_HALF),
    (_p("-1/2"), _OCTA_HALF),
)


# ---------------------------------------------------------------------------
# dual polytopes: scale factors, printed cell rows

#: exact scale factors per center node, after fixing the reference to 1
DUAL_SCALES_GOLDEN: dict[tuple[int, int, int, int], dict[int, FieldScalar]] = {
    (1, 0, 0, 0): {4: _p("1")},
    (0, 1, 0, 0): {1: _p("2/3sqrt2"), 4: _p("1")},
    (1, 1, 0, 0): {1: _p("3/5sqrt2"), 4: _p("1")},
    (1, 0, 1, 0): {1: _p("5/2-1/2sqrt2"), 2: _p("1"), 4: _p("1/7+9/7sqrt2")},
    (1, 0, 0, 1): {1: _p("1+1/2sqrt2"), 2: _p("1"), 3: _p("1"),
                   4: _p("1+1/2sqrt2")},
    (0, 1, 1, 0): {1: _p("1"), 4: _p("1")},
    (1, 1, 1, 0): {1: _p("3/17+9/17sqrt2"), 2: _p("3/49+15/49sqrt2"),
                   4: _p("1")},
    (1, 1, 0, 1): {1: _p("3/23+27/23sqrt2"), 2: _p("3/73+48/73sqrt2"),
                   3: _p("1"), 4: _p("15/7-3/14sqrt2")},
    (1, 1, 1, 1): {1: _p("1"), 2: _p("1-1/3sqrt2"), 3: _p("1-1/3sqrt2"),
                   4: _p("1")},
}


def _row(x: str, y: str, z: str) -> tuple[FieldScalar, FieldScalar, FieldScalar]:
    return (_p(x), _p(y), _p(z))


#: local dual-cell coordinates: per source label, the overall positive
#: factor s relating the quoted triples to the raw frame coordinates
#: (quoted = s * (c, e_a Lambda)), and the vertex rows.  Each row is
#: (correct triple, quoted-variant-if-misprinted-or-None).
DUAL_CELL_PRINTED: dict[tuple[int, int, int, int], tuple[FieldScalar, tuple]] = {
    (0, 1, 0, 0): (_p("1/sqrt2"), (
        (_row("1", "0", "-1"), None),
        (_row("-1", "1", "0"), None),
        (_row("0", "-1", "1"), None),
        (_row("2/3", "2/3", "2/3"), None),
        (_row("-2/3", "-2/3", "-2/3"), None),
    )),
    (1, 1, 0, 0): (_p("sqrt2"), (
        (_row("4", "0", "-2"), None),
        (_row("0", "-2", "4"), None),
        (_row("-2", "4", "0"), None),
        (_row("-6/5", "-6/5", "-6/5"), None),
    )),
    (1, 0, 1, 0): (_p("1"), (
        (_row("19/7+10/7sqrt2", "-1/7-9/7sqrt2", "-1/7-9/7sqrt2"), None),
        (_row("-1/7-9/7sqrt2", "19/7+10/7sqrt2", "1/7+9/7sqrt2"), None),
        (_row("1-5/2sqrt2", "1-5/2sqrt2", "0"), None),
        (_row("1", "1-sqrt2", "1+sqrt2"), None),
        (_row("1-sqrt2", "1", "-1-sqrt2"), None),
    )),
    (1, 0, 0, 1): (_p("-1+sqrt2"), (
        (_row("-1", "0", "0"), None),
        (_row("1", "0", "0"), None),
        (_row("-3+2sqrt2", "-1+sqrt2", "1"), None),
        (_row("-3+2sqrt2", "1", "1-sqrt2"),
         _row("-3+2sqrt2", "1", "-1+sqrt2")),
        (_row("-3+2sqrt2", "1-sqrt2", "-1"),
         _row("-3+2sqrt2", "-1+sqrt2", "-1")),
        (_row("-3+2sqrt2", "-1", "-1+sqrt2"), None),
        (_row("3-2sqrt2", "1", "-1+sqrt2"), None),
        (_row("3-2sqrt2", "-1+sqrt2", "-1"), None),
        (_row("3-2sqrt2", "-1", "1-sqrt2"), None),
        (_row("3-2sqrt2", "1-sqrt2", "1"), None),
    )),
    (0, 1, 1, 0): (_p("1"), (
        (_row("-1-sqrt2", "-1-sqrt2", "-1"), None),
        (_row("1+sqrt2", "1", "1+sqrt2"), None),
        (_row("1+sqrt2", "-1", "-1-sqrt2"), None),
        (_row("-1-sqrt2", "1+sqrt2", "1"), None),
    )),
    (1, 1, 1, 0): (_p("sqrt2"), (
        (_row("-24/17-21/17sqrt2", "-24/17-21/17sqrt2", "-18/17-3/17sqrt2"),
         None),
        (_row("30/49+3/49sqrt2", "24/49-27/49sqrt2", "36/49+33/49sqrt2"),
         _row("30/49+3/49sqrt2", "30/49+3/49sqrt2", "36/49+33/49sqrt2")),
        (_row("4+sqrt2", "-sqrt2", "-2-sqrt2"), None),
        (_row("-2-sqrt2", "4+sqrt2", "sqrt2"), None),
    )),
    (1, 1, 0, 1): (_p("sqrt2"), (
        (_row("-60/23-57/23sqrt2", "-54/23-3/23sqrt2", "-54/23-3/23sqrt2"),
         None),
        (_row("90/73-93/73sqrt2", "96/73+3/73sqrt2", "102/73+99/73sqrt2"),
         None),
        (_row("60/7-6/7sqrt2", "0", "-30/7+3/7sqrt2"), None),
        (_row("2-sqrt2", "4+sqrt2", "-2+sqrt2"), None),
        (_row("4-sqrt2", "-2-sqrt2", "2+sqrt2"), None),
    )),
    (1, 1, 1, 1): (_p("sqrt2"), (
        (_row("-4-sqrt2", "-2-sqrt2", "-sqrt2"), None),
        (_row("4+sqrt2", "-sqrt2", "-2-sqrt2"), None),
        (_row("-8/3+5/3sqrt2", "-8/3+5/3sqrt2", "10/3-1/3sqrt2"), None),
        (_row("8/3-5/3sqrt2", "10/3-1/3sqrt2", "-8/3+5/3sqrt2"), None),
    )),
}

#: the kite face of the (1,0,0,1) dual cell, in the quoted coordinate
#: scale: side and diagonal squares are exact; the quoted area value is
#: a misprint (see ERRATA).
KITE_GOLDEN = {
    "long_side_sq": _p("16-10sqrt2"),
    "short_side_sq": _p("80-56sqrt2"),
    "axis_diagonal_sq": _p("28-18sqrt2"),
    "cross_diagonal_sq": _p("8-4sqrt2"),
    "area_sq": _p("92-64sqrt2"),
    "quoted_area": 0.934,
}


# ---------------------------------------------------------------------------
# self-duality of the 24-cell: octahedron cells at the vertex sqrt2*1,
# with unit-scale centers 1 +/- e_k and their six cell vertices.

def _cell_row(center: Quaternion, axis: Quaternion) -> tuple[Quaternion, frozenset]:
    others = [e for e in (E1, E2, E3) if e != axis and -e != axis]
    return center, frozenset(
        [ONE_Q, axis] + [(ONE_Q + axis + others[0] * si + others[1] * sj)
                         * HALF for si in (1, -1) for sj in (1, -1)])


SELF_DUAL_CELL_TABLE = tuple(
    _cell_row(ONE_Q + e * s, e * s)
    for e in (E1, E2, E3) for s in (1, -1)
)


# ---------------------------------------------------------------------------
# registry of misprints found by exact recomputation

ERRATA = (
    {
        "id": "24cell-face-count",
        "object": "f-vector of the (1,0,0,0) polytope",
        "quoted": "240 faces",
        "computed": "96 triangular faces",
        "note": "24 octahedral cells with 8 triangles each, every triangle "
                "shared by two cells: 24*8/2 = 96; Euler then gives "
                "24-96+96-24 = 0.",
    },
    {
        "id": "dual-1010-frame-norm",
        "object": "frame normalization for the (1,0,1,0) dual cell",
        "quoted": "|Lambda| = sqrt(8+2sqrt2)",
        "computed": "|Lambda| = sqrt(8+4sqrt2)",
        "note": "Lambda = (2+sqrt2, 1, 1, 0) has squared norm "
                "(2+sqrt2)^2 + 1 + 1 = 8+4sqrt2.",
    },
    {
        "id": "slice-family-6-height",
        "object": "sixth generic slice family (label a1+a2 block)",
        "quoted": "height with the 1/2 factor closing after a1",
        "computed": "height (a1 + 3a2 + 2sqrt2 a3 + sqrt2 a4)/2",
        "note": "only this reading reproduces the tabulated slices, e.g. "
                "height 5/2 for the (1,1,0,0) orbit.",
    },
    {
        "id": "slice-family-9-label",
        "object": "ninth generic slice family (label a1+a2+sqrt2 a3 block)",
        "quoted": "first label entry carrying a spurious 1/2 factor and "
                  "unbalanced parentheses",
        "computed": "first label entry a1 + a2 + sqrt2 a3",
        "note": "evaluating at the unit labels matches the tabulated "
                "slices only without the 1/2.",
    },
    {
        "id": "dual-1001-ring-signs",
        "object": "two ring rows of the (1,0,0,1) dual cell coordinates",
        "quoted": "(2sqrt2-3, 1, sqrt2-1) and (2sqrt2-3, sqrt2-1, -1)",
        "computed": "(2sqrt2-3, 1, 1-sqrt2) and (2sqrt2-3, 1-sqrt2, -1)",
        "note": "the quoted ring is not 90-degree symmetric and yields an "
                "impossible edge square 68-48sqrt2; the corrected ring "
                "reproduces the quoted kite sides exactly.",
    },
    {
        "id": "dual-1110-middle-coefficient",
        "object": "scaled second-node center row of the (1,1,1,0) dual cell",
        "quoted": "middle coordinate coefficient 2+sqrt2",
        "computed": "middle coordinate coefficient -sqrt2",
        "note": "the frame identity sum(u_a^2) = |c|^2|L|^2 - (c,L)^2 "
                "fails for the quoted row and holds for the computed one.",
    },
    {
        "id": "kite-area",
        "object": "face area of the (1,0,0,1) dual-cell kite",
        "quoted": "0.934",
        "computed": "sqrt(92-64sqrt2) ~= 1.220792",
        "note": "with the quoted side squares 16-10sqrt2 and 80-56sqrt2 the "
                "kite's perpendicular diagonals square to 28-18sqrt2 and "
                "8-4sqrt2, forcing area^2 = 92-64sqrt2; no consistent "
                "rescaling reaches 0.934.",
    },
)


def erratum(erratum_id: str) -> dict:
    return {entry["id"]: entry for entry in ERRATA}[erratum_id]
