"""Slow exact routes kept as test oracles, and the seeded labels they are
compared on.

The library builds every orbit as the signed permutations of its coset
rows, counts orbits and subgroup orders off those rows' dominant forms,
reads both branchings off the same rows, reads the face lattice off a
per-system table of node sets, walks the cell centers W_J omega_j once
per zero pattern, and reads the other per-label results off integer
vertex rows.  The oracles below are the routes those replaced: the
inverse dominance walk (``label_orbit``) for full orbits, for the cell
centers (a W_J-walk of e_j) and for |W_J| (the free W_J-walk of rho),
the per-pattern sub-diagram walk of the face lattice (``complex_walk``),
the scan of the unit orbits for the cell centers (``scanned_centers``),
and per-label routes that
read the sorted ``FieldScalar`` vertices or the walk's labels, walk
every rescaled label (dual shells and scaled layers), take the dual
cell's coordinates against the quaternion frame, render the
branching text from a second branching, and name each face and cell
by walking its sub-diagram (``diagram_inventories``).  The Euler relation, the
closed-form orbit size |W| / |W_J| and the quaternion and group-element
inverses, which only tests call, live here too, and so do the
``Fraction``-based literal parser and random quaternion, the octet table
from ``Quaternion`` products, the quaternion formatter that read each
scalar's string once per call and the ``FieldScalar`` triple kernel
(``sub3``, ``dot3``, ``cross3``, ``dist_sq``) that the integer dual-cell
rows replaced.  The quaternion product and scalar product from
``FieldScalar`` products (``quaternion_product_scalar``,
``quaternion_dot_scalar``) check the integer ones over one denominator per
operand, and the scan of all 2304 (star, i, j) candidates through one
membership rule per group (``build_group_scan``) checks the groups read
off the second halves each allows.
"""

import random
import re
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Sequence, Tuple

from f4weyl.binocta import (GROUP_NAMES, SUBSET_ORDER, _element, build_subsets,
                            unit_tables)
from f4weyl import orbits
from f4weyl.branching import B4Part, Slice, branch_b3a1, branch_b4
from f4weyl.duals import Triple, solve_scales
from f4weyl.orbits import (_NAMES, FaceEntry, _orbit_cached, _pattern,
                           _validated, f_vector, generate_orbit,
                           stabilizer_order, zero_nodes)
from f4weyl.quat import E1, E2, E3, ONE_Q, Quaternion, from_scalars
from f4weyl.rootsys import (RootSystem, b3r_system, b4_system, f4_system,
                            first_negative, format_labels, get_system,
                            scalar_labels)
from f4weyl.scalar import (_TERM_RE, INV_SQRT2, FieldScalar, as_scalar,
                           from_ints, over_lcm, row_dot, surd_sign)


def zero_one_labels(rank):
    return [p for p in product((0, 1), repeat=rank) if any(p)]


def _entry(rng):
    """A positive x + y*sqrt2 with small rational x and y of either sign."""
    while True:
        a = FieldScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if a.sign() > 0:
            return a


def random_labels(rank, count, seed):
    """Seeded dominant labels: each entry is 0 or a positive x + y*sqrt2
    with small rational x and y of either sign."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        labels = tuple(_entry(rng) if rng.random() < 0.6 else FieldScalar(0)
                       for _ in range(rank))
        if any(labels):
            out.append(labels)
    assert any(a.b < 0 for labels in out for a in labels)
    return out


def pattern_labels(count, seed):
    """Seeded dominant labels, ``count`` for each 0/1 pattern of rank 4: the
    nonzero entries are positive x + y*sqrt2 as in ``random_labels``."""
    rng = random.Random(seed)
    return [tuple(_entry(rng) if p else FieldScalar(0) for p in pattern)
            for pattern in zero_one_labels(4) for _ in range(count)]


def label_orbit(sys, mu, nodes):
    """The orbit of mu, dominant on J, under W_J by the inverse dominance
    walk (D. M. Snow, ACM TOMS 16, 1990): keep s_i(nu) when i is its
    lowest negative label among J; rows from ``integer_vector``."""
    found = [mu]
    for nu in found:
        for i in nodes:
            if surd_sign(nu[2 * i], nu[2 * i + 1]) > 0:
                child = sys.reflect_labels(nu, i)
                if first_negative(child, nodes) == i:
                    found.append(child)
    return [(nu, sys.integer_vector(nu)) for nu in found]


def walked_rows(sys, labels):
    """Vertex rows of the full orbit from the label walk over all nodes."""
    mu, _ = over_lcm(sys.coerce_labels(labels))
    return [row for _, row in label_orbit(sys, mu, range(sys.rank))]


def branch_b4(labels):
    """B4 parts: the F4 vertices with q0 >= q1 >= q2 >= q3 >= 0, each
    read in the B4 weight basis."""
    b4 = b4_system()
    parts = sorted(b4.vector_to_label(v)
                   for v in generate_orbit(f4_system(), labels).vertices
                   if v.q0 >= v.q1 >= v.q2 >= v.q3 >= 0)
    return tuple(B4Part(part, orbit_size(b4, part)) for part in parts)


def branch_b3a1(labels):
    """B3 layers: the F4 vertices with q1 >= q2 >= q3 >= 0, each read in
    the B3 weight basis, at height |q0/sqrt2|."""
    b3 = b3r_system()
    layers = {(b3.vector_to_label(v), abs(v.q0 * INV_SQRT2))
              for v in generate_orbit(f4_system(), labels).vertices
              if v.q1 >= v.q2 >= v.q3 >= 0}
    return tuple(Slice(part, height, orbit_size(b3, part), height.sign() > 0)
                 for part, height in sorted(layers))


def branch_b3a1_by_labels(labels):
    """B3 layers: the walk's points with F4 labels 2..4 >= 0 (B3R's roots
    are alpha_2..alpha_4), those labels being the B3 label, at height
    |q0/sqrt2| read off the row as the pair (2*y0, x0) over 2S."""
    f4, b3 = f4_system(), b3r_system()
    mu, den = over_lcm(_validated(f4, labels))
    layers = {(scalar_labels(nu[2:], den),
               abs(from_ints(2 * row[1], row[0], 2 * den * f4.weight_den)))
              for nu, row in label_orbit(f4, mu, range(4))
              if first_negative(nu, (1, 2, 3)) is None}
    return tuple(Slice(part, height, orbit_size(b3, part), height.sign() > 0)
                 for part, height in sorted(layers))


def project_3d_walked(labels, scale=1):
    """Layers of the walked orbit of scale * labels, grouped on the q0
    pair of its integer rows, one FieldScalar per coordinate pair."""
    f4 = f4_system()
    scale = as_scalar(scale)
    orbit = generate_orbit(f4, tuple(a * scale for a in
                                     _validated(f4, labels)))
    den = orbit.den
    pairs = {r[k:k + 2] for r in orbit.rows for k in (0, 2, 4, 6)}
    scalars = {xy: from_ints(*xy, den) for xy in pairs}
    layers: Dict[tuple, set] = {}
    for r in sorted(orbit.rows):
        layers.setdefault(r[:2], set()).add(
            (scalars[r[2:4]], scalars[r[4:6]], scalars[r[6:]]))
    return tuple((scalars[q0] * INV_SQRT2, frozenset(pts)) for q0, pts in
                 sorted(layers.items(), key=lambda kv: scalars[kv[0]],
                        reverse=True))


def render_b4_branching(labels):
    """The ``branch-b4`` text line from a second ``branch_b4`` call."""
    labels = f4_system().coerce_labels(labels)
    rhs = " + ".join(format_labels(p.labels) + "_B4"
                     for p in branch_b4(labels))
    return format_labels(labels) + "_F4 = " + rhs


def render_b3a1_slices(labels):
    """The ``branch-b3a1`` slice lines from a second ``branch_b3a1`` call."""
    lines = []
    for s in branch_b3a1(labels):
        sign = "+/-" if s.paired else "at"
        noun = "vertex" if s.size == 1 else "vertices"
        lines.append("%s_B3 %s %s  (%d %s%s)"
                     % (format_labels(s.labels), sign, s.height, s.size, noun,
                        " each" if s.paired else ""))
    return lines


def project_3d(labels, scale=1):
    """(height, point set) layers of the scaled orbit, grouped on q0."""
    f4 = f4_system()
    scaled = tuple(a * as_scalar(scale) for a in f4.coerce_labels(labels))
    layers: Dict[FieldScalar, set] = {}
    for v in generate_orbit(f4, scaled).vertices:
        layers.setdefault(v.q0, set()).add((v.q1, v.q2, v.q3))
    return tuple((q0 * INV_SQRT2, frozenset(pts)) for q0, pts in
                 sorted(layers.items(), key=lambda kv: kv[0], reverse=True))


def dual_shells(sys, dual):
    """(shell sizes, vertex union) of the dual's shells, each walked as
    the orbit of its rescaled single-node label."""
    sizes, vertices = [], set()
    for shell in dual.shells:
        single = tuple(shell.scale if i == shell.node - 1 else 0
                       for i in range(sys.rank))
        orbit = generate_orbit(sys, single)
        sizes.append(orbit.size)
        vertices.update(orbit.vertices)
    return sizes, frozenset(vertices)


def parabolic_order(sys_name, nodes):
    """|W_J| as the size of the free W_J-orbit of rho = (1, ..., 1)."""
    sys = get_system(sys_name)
    return len(label_orbit(sys, (1, 0) * sys.rank, sorted(nodes)))


def orbit_size(sys, labels):
    """The closed-form orbit size |W| / |W_J|, J the zero-label nodes."""
    whole = orbits.parabolic_order(sys.name, frozenset(range(sys.rank)))
    return whole // stabilizer_order(sys, labels)


def cell_centers(sys, labels):
    """(center node, sorted center rows) per cell family: the W_J-walk of
    the unit label e_j, J the zero-label nodes."""
    lab = _validated(sys, labels)
    zeros = [i for i, a in enumerate(lab) if a.is_zero()]
    out = []
    for entry in f_vector(sys, lab).cells:
        (j,) = set(range(1, 5)) - set(entry.nodes)
        unit = tuple(v for i in range(4) for v in (int(i == j - 1), 0))
        out.append((j, sorted(row for _, row in label_orbit(sys, unit, zeros))))
    return out


def scanned_centers(sys, labels):
    """(center node, sorted center rows) per cell family by the scan of the
    unit orbits: the rows c of the orbit of omega_j with (c, Lambda) =
    (omega_j, Lambda), Lambda the first form of the labels' cached orbit."""
    lab = _validated(sys, labels)
    orbit = _orbit_cached(sys.name, lab)
    dot = row_dot(orbit.forms[0])
    zeros = zero_nodes(lab)
    out = []
    for entry in _pattern(sys.name, zeros).cells:
        (j,) = {1, 2, 3, 4} - set(entry.nodes)  # the node off the cell
        unit = generate_orbit(sys, [int(i == j - 1) for i in range(sys.rank)])
        omega = unit.forms[0]  # a dominant row is its own dominant form
        rows = (unit.rows if j - 1 in zeros
                else [omega])  # W_J fixes omega_j unless j is in J
        top = dot(omega)
        out.append((j, sorted(r for r in rows if dot(r) == top)))
    return out


def frame_vectors(lam):
    """The frame E1*L, E2*L, E3*L of the quaternion L: three mutually
    orthogonal vectors normal to L, each of squared norm (L, L)."""
    return (E1 * lam, E2 * lam, E3 * lam)


def dual_cell_coords(sys, labels):
    """The dual cell's u-triples in FieldScalars: the walked centers as
    quaternions, dotted with the frame ``E1*L, E2*L, E3*L`` of the vertex
    quaternion L and times their ``solve_scales`` factor."""
    frame = frame_vectors(sys.label_to_vector(labels))
    scales = solve_scales(sys, labels)
    return tuple((j, tuple(c.dot(f) * scales[j] for f in frame))
                 for j, rows in cell_centers(sys, labels)
                 for c in sys.vertices(rows, sys.weight_den))


def scalar_str(s):
    """``str`` of a FieldScalar from its ``Fraction`` parts ``a`` and ``b``,
    the formatter that the integer one replaced."""
    a, b = s.a, s.b
    if not b:
        return str(a)
    if b == 1:
        surd = "sqrt2"
    elif b == -1:
        surd = "-sqrt2"
    else:
        surd = f"{b}sqrt2"
    if not a:
        return surd
    sep = "" if surd.startswith("-") else "+"
    return f"{a}{sep}{surd}"


#: rank-3 orbit names keyed by 0/1 activity pattern, double-bond end first
_B3_CELL_NAMES = {
    (1, 0, 0): "cube",
    (0, 1, 0): "cuboctahedron",
    (0, 0, 1): "octahedron",
    (1, 1, 0): "truncated cube",
    (0, 1, 1): "truncated octahedron",
    (1, 0, 1): "small rhombicuboctahedron",
    (1, 1, 1): "great rhombicuboctahedron",
}

#: linear-diagram rank-3 names (pattern and its reversal coincide)
_A3_CELL_NAMES = {
    (1, 0, 0): "tetrahedron",
    (0, 0, 1): "tetrahedron",
    (0, 1, 0): "octahedron",
    (1, 1, 0): "truncated tetrahedron",
    (0, 1, 1): "truncated tetrahedron",
    (1, 0, 1): "cuboctahedron",
    (1, 1, 1): "truncated octahedron",
}

_PRISM_NAMES = {
    "triangle": "triangular prism",
    "hexagon": "hexagonal prism",
    "square": "square prism",
    "octagon": "octagonal prism",
}


def _adjacent(sys: RootSystem, i: int, j: int) -> bool:
    return not sys.cartan[i][j].is_zero()


def _components(sys: RootSystem, nodes: Sequence[int]) -> List[List[int]]:
    remaining, comps = set(nodes), []
    while remaining:
        comp = [remaining.pop()]
        for cur in comp:  # the list grows as it is walked
            near = sorted(j for j in remaining if _adjacent(sys, cur, j))
            remaining.difference_update(near)
            comp += near
        comps.append(sorted(comp))
    return comps


def _halo(sys: RootSystem, nodes: Tuple[int, ...], active: FrozenSet[int]) -> FrozenSet[int]:
    return frozenset(nodes).union(
        j for j in range(sys.rank) if j not in active
        and not any(_adjacent(sys, j, s) for s in nodes))


def complex_walk(sys_name: str, zeros: FrozenSet[int]) -> tuple:
    """(N0, N1, N2, N3, faces, cells) for zeros on J by the sub-diagram
    walk: each S's components and halo found per pattern, each |W_S| from
    this module's ``parabolic_order`` (the free W_S-walk of rho, not the
    library's node-set table); only |W| is read off that table."""
    sys = get_system(sys_name)
    active = frozenset(range(sys.rank)) - zeros
    order = orbits.parabolic_order(sys.name, frozenset(range(sys.rank)))

    def count_for(nodes: Tuple[int, ...]) -> int:
        return order // parabolic_order(sys.name, _halo(sys, nodes, active))

    def valid(nodes: Tuple[int, ...]) -> bool:
        return all(any(i in active for i in comp)
                   for comp in _components(sys, nodes))

    def shape(nodes: Tuple[int, ...]) -> Tuple[int, int]:  # |W_S|, vertices
        whole = parabolic_order(sys_name, frozenset(nodes))
        return whole, whole // parabolic_order(sys_name, frozenset(nodes) - active)

    def entry(nodes: Tuple[int, ...], *key: int) -> FaceEntry:
        return FaceEntry(tuple(i + 1 for i in nodes), _NAMES[key], count_for(nodes))

    n0 = count_for(())  # the halo of no nodes: every zero-label node
    n1 = sum(count_for((i,)) for i in sorted(active))
    polygons = {p: shape(p) for p in combinations(range(4), 2) if valid(p)}
    faces = [entry(p, *key, key[1]) for p, key in polygons.items()]
    cells = [entry(c, *shape(c), max(polygons[p][1] for p in combinations(c, 2)
                                     if p in polygons))
             for c in combinations(range(4), 3) if valid(c)]
    return (n0, n1, sum(f.count for f in faces), sum(c.count for c in cells),
            tuple(faces), tuple(cells))


def _is_double_bond(sys: RootSystem, i: int, j: int) -> bool:
    return sys.cartan[i][j] * sys.cartan[j][i] == 2


def _polygon_name(sys: RootSystem, pair: Tuple[int, int],
                  active: FrozenSet[int]) -> str:
    i, j = pair
    both = i in active and j in active
    if not _adjacent(sys, i, j):
        return "square"  # A1 x A1 (both must be active for validity)
    if _is_double_bond(sys, i, j):
        return "octagon" if both else "square"
    return "hexagon" if both else "triangle"


def _chain_order(sys: RootSystem, comp: List[int]) -> List[int]:
    """Order a connected rank-3 component along its path."""
    ends = [i for i in comp if sum(_adjacent(sys, i, j) for j in comp if j != i) == 1]
    middle = next(j for j in comp if j not in ends)
    return [ends[0], middle, ends[1]]


def _cell_name(sys: RootSystem, comps: List[List[int]],
               active: FrozenSet[int]) -> str:
    if len(comps) == 1:
        chain = _chain_order(sys, comps[0])
        first = _is_double_bond(sys, chain[0], chain[1])
        second = _is_double_bond(sys, chain[1], chain[2])
        pattern = tuple(1 if i in active else 0 for i in chain)
        if second and not first:  # read from the double-bond end
            pattern = pattern[::-1]
        return (_B3_CELL_NAMES if first or second else _A3_CELL_NAMES)[pattern]
    # a polygon component plus an isolated active node: a prism
    pair = next(c for c in comps if len(c) == 2)
    base = _polygon_name(sys, (pair[0], pair[1]), active)
    return _PRISM_NAMES[base]


def diagram_inventories(sys, labels):
    """``f_vector``'s face and cell inventories with each name read off the
    diagram: walk the sub-diagram's chain, orient it from the double bond
    and look the label pattern up in a rank-2 or rank-3 table.  The
    counts are ``|W| / |W(S + halo(S))|`` with |W_J| from the walk of rho."""
    lab = _validated(sys, labels)
    active = frozenset(i for i, a in enumerate(lab) if not a.is_zero())
    order = orbits.parabolic_order(sys.name, frozenset(range(sys.rank)))

    def count_for(nodes):
        return order // parabolic_order(sys.name, _halo(sys, nodes, active))

    def valid(nodes):
        return all(any(i in active for i in comp)
                   for comp in _components(sys, nodes))

    faces = [FaceEntry((i + 1, j + 1), _polygon_name(sys, (i, j), active),
                       count_for((i, j)))
             for i, j in combinations(range(4), 2) if valid((i, j))]
    cells = [FaceEntry(tuple(i + 1 for i in nodes),
                       _cell_name(sys, _components(sys, nodes), active),
                       count_for(nodes))
             for nodes in combinations(range(4), 3) if valid(nodes)]
    return tuple(faces), tuple(cells)


def euler_ok(complex_):
    """The Euler relation N0 - N1 + N2 - N3 = 0 of a 4-polytope."""
    n0, n1, n2, n3 = complex_.f_tuple()
    return n0 - n1 + n2 - n3 == 0


def quaternion_inverse(p):
    """conj(p) / |p|^2, for p nonzero."""
    n = p.norm_sq()
    if n.is_zero():
        raise ZeroDivisionError("zero quaternion has no inverse")
    return p.conj() / n


def element_inverse(g):
    """The inverse of a pair element by unit-table lookup: [p, q]* is
    undone by [q, p]*, and [p, q] by [conj p, conj q]."""
    star, p, q = g
    if star:
        return _element(True, q, p)
    conj = unit_tables()[3]
    return _element(False, conj[p], conj[q])


def subset_product_table_quaternion():
    """The octet table from the 2304 ``Quaternion`` products of each pair of
    octets, the route that the unit product table replaced."""
    sets = build_subsets()
    lookup = {frozenset(sets[name]): name for name in SUBSET_ORDER}
    return tuple(tuple(lookup[frozenset(x * y for x in sets[row]
                                        for y in sets[col])]
                       for col in SUBSET_ORDER) for row in SUBSET_ORDER)


def quaternion_product_scalar(p, q):
    """The Hamilton product from 16 ``FieldScalar`` products and 12 sums,
    the route that the integer product over one denominator per operand
    replaced."""
    return from_scalars(
        p.q0 * q.q0 - p.q1 * q.q1 - p.q2 * q.q2 - p.q3 * q.q3,
        p.q0 * q.q1 + p.q1 * q.q0 + p.q2 * q.q3 - p.q3 * q.q2,
        p.q0 * q.q2 + p.q2 * q.q0 + p.q3 * q.q1 - p.q1 * q.q3,
        p.q0 * q.q3 + p.q3 * q.q0 + p.q1 * q.q2 - p.q2 * q.q1,
    )


def quaternion_dot_scalar(self, other):
    """The Euclidean scalar product from four ``FieldScalar`` products, the
    route that the integer one replaced."""
    return (self.q0 * other.q0 + self.q1 * other.q1 +
            self.q2 * other.q2 + self.q3 * other.q3)


#: the octet pairs (p, q) of WB4: V+ and V- swap, the rest pair with themselves
_WB4_PAIRS = frozenset((("V0", "V0"), ("V+", "V-"), ("V-", "V+"),
                        ("V1", "V1"), ("V2", "V2"), ("V3", "V3")))


def build_group_scan(name):
    """One of the named groups as a frozen set of canonical elements, by
    scanning all 2304 (star, i, j) candidates: the route that the lists of
    second halves replaced.

    Each group is one membership rule on the indices (star, i, j) of its
    halves, read off their octets and the unit tables; -units[k] is
    units[47 - k].
    """
    if name not in GROUP_NAMES:
        raise ValueError(f"unknown group {name!r}")
    sets = build_subsets()
    _, index, mul, conj = unit_tables()
    octet = {index[u]: v for v in SUBSET_ORDER for u in sets[v]}
    in_t = {index[u] for u in sets["T"]}
    a = index[(ONE_Q + E1) * INV_SQRT2]  # the axis WB3L_C2 fixes up to sign

    def wb3l(star: bool, i: int, j: int) -> bool:
        # [x, +-conj(a) conj(x) a] and [x, +-a conj(x) a]*
        k = mul[mul[a if star else conj[a]][conj[i]]][a]
        return j in (k, 47 - k)

    rule = {
        "WF4": lambda star, i, j: (i in in_t) == (j in in_t),
        "AutF4": lambda star, i, j: True,
        "WB4": lambda star, i, j: (octet[i], octet[j]) in _WB4_PAIRS,
        "WB3R": lambda star, i, j: j == conj[i],
        "WB3R_C2": lambda star, i, j: j in (conj[i], 47 - conj[i]),
        "WB3L_C2": wb3l,
    }[name]
    return frozenset(_element(star, i, j) for star in (False, True)
                     for i in range(24, 48) for j in range(48)
                     if rule(star, i, j))


def quaternion_str(self):
    """``str`` of a Quaternion from its components, the method that the
    formatter of the four component strings replaced."""
    names = ("", "e1", "e2", "e3")
    parts = []
    for comp, name in zip(self.components(), names):
        if comp.is_zero():
            continue
        text = str(comp)
        if text in ("1", "-1") and name:
            text = text[:-1] + name
        elif ("+" in text[1:] or "-" in text[1:]) and name:
            text = f"({text}){name}"
        else:
            text += name
        parts.append(text if not parts or text.startswith("-")
                     else "+" + text)
    return "".join(parts) if parts else "0"


def parse_terms_fraction(text: str) -> FieldScalar:
    """The literal parser that summed ``Fraction`` terms, which the one on
    the terms' integer digits replaced."""
    if re.search("[0-9] +[0-9]", text):
        raise ValueError(f"space inside a number in scalar literal {text!r}")
    s = text.strip().replace(" ", "").lower()
    if not s:
        raise ValueError("empty scalar literal")
    pos = 0
    total = FieldScalar(0)
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad scalar literal: {text!r} (at {s[pos:]!r})")
        sgn = -1 if m.group("sign") == "-" else 1
        if m.group("num") is not None:
            coef = Fraction(m.group("num"))
            if m.group("den"):  # rational / sqrt2  ==  (rational/2) * sqrt2
                total = total + FieldScalar(0, sgn * coef / 2)
            else:
                total = total + FieldScalar(sgn * coef)
        else:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("sdiv"):
                coef /= int(m.group("sdiv"))
            total = total + FieldScalar(0, sgn * coef)
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise ValueError(f"bad scalar literal: {text!r} (at {s[pos:]!r})")
    return total


def parse_scalar_fraction(text: str) -> FieldScalar:
    """``parse_scalar`` on the ``Fraction``-based term parser."""
    try:
        return parse_terms_fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal {text!r}") from None


def parse_outcome(parse, text):
    """What ``parse(text)`` gives: a scalar's ``(x, y, d)`` and ``repr``, or
    the message of its ValueError."""
    try:
        value = parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return value.x, value.y, value.d, repr(value)


def random_quaternion_fraction(rng):
    """``verify``'s random quaternion from two ``Fraction``s per component,
    the route that the integer one replaced."""
    return Quaternion(*[
        FieldScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(4)
    ])


def sub3(a: Triple, b: Triple) -> Triple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def dot3(a: Triple, b: Triple) -> FieldScalar:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: Triple, b: Triple) -> Triple:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def dist_sq(p: Triple, q: Triple) -> FieldScalar:
    d = sub3(p, q)
    return dot3(d, d)
