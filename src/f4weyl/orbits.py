"""Weight orbits, stabilizers, f-vectors and face/cell inventories.

A full orbit is the signed permutations of at most three integer vertex
rows: W(F4) is the union of the cosets of the signed-permutation group
W(B4) with representatives 1, omega0, omega0^2 for omega0 = (1 + e1 +
e2 + e3)/2 on the left (J. H. Conway and D. A. Smith, "On Quaternions
and Octonions", ch. 4).  :class:`Orbit` keeps the distinct dominant
forms of those rows, counts its size off them and expands them into
rows, and those into sorted vertices, on first read.  The stabilizer
of a label whose zeros are on the nodes J is W_J (J. E. Humphreys,
"Reflection Groups and Coxeter Groups", sections 1.12 and 2.2), so a
connected J's |W_J| is |W| over the size of the orbit of the label with
ones off J, and a disconnected J's is its components' product.  No float
decides anything; ``parabolic_elements`` (group closures) is an oracle.

Counting scheme.  N0 is the index of the parabolic subgroup on the
zero-label nodes.  A subset S of nodes spans a face type exactly when
every connected component of S touches a nonzero label, and there are
``|W| / |W(S + halo(S))|`` such faces, halo(S) being the zero-label
nodes neither in S nor adjacent to it (they fix the face).  The face is
the orbit polytope of the sub-diagram S (Wythoff's construction; H. S.
M. Coxeter, "Regular Polytopes", section 11.6), named by one lookup on
|W_S|, its vertex count |W_S| / |W_(S & J)|, J the zero-label nodes,
and the largest vertex count among its 2-faces (a polygon's own).
|W_S| fixes the diagram type (A1xA1 4, A2 6, B2 8, A2xA1 12, B2xA1 16,
A3 24, B3 48) and the counts its label pattern up to symmetry, so the
21 keys of F4 and B4, the rank-4 systems ``f_vector`` accepts, differ.
A label enters only through J, read by ``zero_nodes`` (as for the
stabilizer), so one cached :class:`Pattern` per system and J holds the
counts, the inventories and the cell centers W_J omega_j that the duals
read.  Node sets are bitmasks, and one table per system holds each set's
components, the nodes in or adjacent to it and |W_S| (its only holder):
a fresh pattern's halos, validity tests and counts are bit operations.

The geometric edge oracle recounts N1 with no group theory: the closest
pairs of vertex rows, swept along q0 (M. I. Shamos and D. Hoey,
"Closest-point problems", FOCS 1975).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from collections.abc import Sequence

from .rootsys import (IntRow, LabelLike, Labels, RootSystem, format_labels,
                      get_system)
from .scalar import over_lcm, surd_order, surd_sign

#: face and cell names keyed by |W_S|, the vertex count |W_S| / |W_(S & J)|
#: and the largest vertex count among the 2-faces of S (a polygon's own)
_NAMES = {
    (4, 4, 4): "square", (6, 3, 3): "triangle", (6, 6, 6): "hexagon",
    (8, 4, 4): "square", (8, 8, 8): "octagon",
    (12, 6, 4): "triangular prism", (12, 12, 6): "hexagonal prism",
    (16, 8, 4): "square prism", (16, 16, 8): "octagonal prism",
    (24, 4, 3): "tetrahedron", (24, 6, 3): "octahedron",
    (24, 12, 4): "cuboctahedron", (24, 12, 6): "truncated tetrahedron",
    (24, 24, 6): "truncated octahedron", (48, 6, 3): "octahedron",
    (48, 8, 4): "cube", (48, 12, 4): "cuboctahedron",
    (48, 24, 4): "small rhombicuboctahedron", (48, 24, 8): "truncated cube",
    (48, 24, 6): "truncated octahedron",
    (48, 48, 8): "great rhombicuboctahedron",
}


class Record:
    """Immutable value base: a subclass's annotated fields are its positional
    arguments, and it compares, hashes and prints on them as a frozen
    dataclass does, without the cost of building one at import."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__annotations__)  # after inherited ones

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)}"
                            f" arguments, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _frozen


class FaceEntry(Record):
    """One face/cell type: 1-based diagram nodes, polygon/polyhedron name, count."""
    nodes: tuple[int, ...]
    name: str
    count: int


class Orbit(Record):
    """Dominant forms of the coset rows over ``den`` (the labels' times
    ``weight_den``); rows and vertices are built on first read."""
    system: str
    labels: Labels
    forms: tuple[IntRow, ...]
    den: int

    @property
    def size(self) -> int:
        return get_system(self.system).orbit_count(self.forms)

    @cached_property
    def rows(self) -> tuple[IntRow, ...]:
        perms = get_system(self.system).signed_permutations
        return tuple(row for form in self.forms for row in perms(form))

    @cached_property
    def vertices(self) -> tuple[Quaternion, ...]:
        return get_system(self.system).vertices(self.rows, self.den)


# a dataclass still: perfbench/selftest.py calls dataclasses.replace on it
@dataclass(frozen=True)
class PolytopeComplex:
    labels: Labels
    n0: int
    n1: int
    n2: int
    n3: int
    faces: tuple[FaceEntry, ...]
    cells: tuple[FaceEntry, ...]

    def f_tuple(self) -> tuple[int, int, int, int]:
        return (self.n0, self.n1, self.n2, self.n3)


def _validated(sys: RootSystem, labels: Sequence[LabelLike],
               require_nonzero: bool = True) -> Labels:
    """The one label check: the registered system of its name (every cache
    keys on the name), right length, dominant and (by default) nonzero."""
    if get_system(sys.name) is not sys:
        raise ValueError(f"{sys.name} is not the registered {sys.name} system")
    lab = sys.coerce_labels(labels)
    if not sys.is_dominant(lab):
        raise ValueError("the label is not dominant (negative entry)")
    if require_nonzero and all(a.is_zero() for a in lab):
        raise ValueError("the zero label spans no polytope")
    return lab


@lru_cache(maxsize=64)
def _orbit_cached(sys_name: str, labels: Labels) -> Orbit:
    sys = get_system(sys_name)
    mu, den = over_lcm(labels)
    return Orbit(sys_name, labels, sys.coset_forms(mu), den * sys.weight_den)


def generate_orbit(sys: RootSystem, labels: Sequence[LabelLike]) -> Orbit:
    """The orbit of the labelled weight vector (cached; rows in a fixed
    order, vertices sorted)."""
    return _orbit_cached(sys.name, _validated(sys, labels))


@lru_cache(maxsize=None)
def parabolic_elements(sys_name: str, nodes: frozenset[int]) -> frozenset:
    """GroupElements of the subgroup of the given simple reflections (0-based)."""
    from .binocta import GroupElement, generate_from
    sys = get_system(sys_name)
    if not nodes:
        return frozenset([GroupElement.identity()])
    return generate_from([sys.reflections[i] for i in sorted(nodes)])


def parabolic_order(sys_name: str, nodes: frozenset[int]) -> int:
    """Order of the subgroup W_J of the given simple reflections (0-based)."""
    return _node_sets(sys_name)[sum(1 << i for i in nodes)][2]


def zero_nodes(labels: Labels) -> frozenset[int]:
    """J, the 0-based nodes of the zero entries: all the face lattice reads."""
    return frozenset(i for i, a in enumerate(labels) if a.is_zero())


def stabilizer_order(sys: RootSystem, labels: Sequence[LabelLike]) -> int:
    lab = _validated(sys, labels, require_nonzero=False)
    return parabolic_order(sys.name, zero_nodes(lab))


# ---------------------------------------------------------------------------
# the face lattice


@lru_cache(maxsize=None)
def _node_sets(sys_name: str) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Per node set S, a bitmask: (S's components as bitmasks, the nodes
    in or adjacent to S, |W_S|) for all 2^rank sets of a system.  |W_S| is
    |W| / |W lambda_S| (ones off S), or its components' product if split."""
    sys = get_system(sys_name)

    def orbit_size(s: int) -> int:  # |W lambda_S|, uncounted for S full
        mu = tuple(v for i in range(sys.rank) for v in (~s >> i & 1, 0))
        return sys.orbit_count(sys.coset_forms(mu)) if any(mu) else 1

    near = [sum(1 << j for j, c in enumerate(row) if c) for row in sys.cartan]
    order = orbit_size(0)
    spread, table = [0], [((), 0, 1)]  # spread: S and its neighbours
    for s in range(1, 1 << sys.rank):  # every proper subset of S comes first
        comp = s & -s  # S's lowest node, grown to its component below
        spread.append(spread[s ^ comp] | near[comp.bit_length() - 1])
        while (grown := spread[comp] & s) != comp:
            comp = grown
        rest = table[s & ~comp]  # S's other components
        size = table[comp][2] * rest[2] if rest[0] else order // orbit_size(s)
        table.append(((comp, *rest[0]), spread[s], size))
    return tuple(table)


def f_vector(sys: RootSystem, labels: Sequence[LabelLike]) -> PolytopeComplex:
    """The validated labels' counts and named inventories (cached per J)."""
    lab = _validated(sys, labels)
    pattern = _pattern(sys.name, zero_nodes(lab))
    return PolytopeComplex(lab, *pattern.counts, pattern.faces, pattern.cells)


#: the sets of at most three of four nodes, by size, so each 3-set comes
#: after its 2-sets: (1-based nodes, bitmask, the bitmasks of its 2-sets)
_SUBSETS = tuple((tuple(i + 1 for i in c), sum(1 << i for i in c),
                  tuple(sum(1 << i for i in p) for p in combinations(c, 2)))
                 for k in range(4) for c in combinations(range(4), k))


class Pattern(Record):
    """What the zero nodes J fix: N0..N3, the face and cell entries, and
    per cell (its entry, the node j off it, the sorted rows of W_J omega_j)."""
    counts: tuple[int, int, int, int]
    faces: tuple[FaceEntry, ...]
    cells: tuple[FaceEntry, ...]
    families: tuple[tuple[FaceEntry, int, tuple[IntRow, ...]], ...]


@lru_cache(maxsize=None)
def _pattern(sys_name: str, zeros: frozenset[int]) -> Pattern:
    """The pattern of zeros on J: 2^rank keys at most.  A k-set S with no
    component inside J spans |W| / |W_(S + halo)| k-faces (N0 and N1 from
    the empty set and single nodes), each order and test read off
    ``_node_sets``: the halo is J off S and its neighbours.  A cell's
    centers walk omega_j's label under the reflections of J, stepping
    where it is positive (omega_j is dominant, so the downward steps reach
    its whole W_J-orbit), each step's row reflected beside its label."""
    sys = get_system(sys_name)
    if sys.rank != 4:
        raise ValueError("f_vector needs a rank-4 system")
    table, zmask = _node_sets(sys_name), sum(1 << i for i in zeros)
    order, counts, found = table[-1][2], [0] * 4, ([], [], [], [])
    verts = [0] * 16  # per bitmask: its face's vertices, 0 if it spans none
    for nodes, s, pairs in _SUBSETS:  # a 3-set reads its 2-sets' verts
        comps, near, size = table[s]
        if all(comp & ~zmask for comp in comps):
            count = order // table[s | zmask & ~near][2]
            counts[len(nodes)] += count
            if pairs:  # a polygon or a polyhedron, named by its 2-faces
                verts[s] = n = size // table[s & zmask][2]
                top = max(verts[p] for p in pairs)
                found[len(nodes)].append(
                    FaceEntry(nodes, _NAMES[size, n, top], count))
    families = []
    for entry in found[3]:
        (j,) = {1, 2, 3, 4} - set(entry.nodes)  # the node off the cell
        unit = (0, 0) * (j - 1) + (1, 0) + (0, 0) * (4 - j)
        rows, walk = {unit: sys.weight_vectors[j - 1]}, [unit]  # label -> row
        for mu in walk:  # the list grows as it is walked
            for i in zeros:
                if surd_sign(mu[2 * i], mu[2 * i + 1]) > 0 and \
                        (nu := sys.reflect_labels(mu, i)) not in rows:
                    rows[nu] = sys.reflect_row(rows[mu], mu, i)
                    walk.append(nu)
        families.append((entry, j, tuple(sorted(rows.values()))))
    return Pattern(tuple(counts), *map(tuple, found[2:]), tuple(families))


# ---------------------------------------------------------------------------
# geometric edge oracle


def geometric_edge_check(orbit: Orbit) -> int:
    """Count vertex pairs at the minimal nonzero squared distance.

    Exact: the orbit's vertex rows are integer pairs (rational and sqrt2
    parts) over one positive denominator, squared distances are
    P + Q*sqrt2 on Python integers, and every comparison is an exact
    sign.  A pair is dropped at the first coordinate whose partial sum
    exceeds the least distance found; the rows are sorted by q0, so once
    the q0 gap alone exceeds it, no later row can be nearer to this one.

    Only the shortest edge class is counted, so the count is N1 only for
    labels whose nonzero entries are all equal; other labels are refused.
    """
    if len({a for a in orbit.labels if not a.is_zero()}) > 1:
        raise ValueError(
            f"edge oracle needs equal nonzero entries, got "
            f"{format_labels(orbit.labels)}")
    rows = sorted(orbit.rows, key=surd_order)
    best, count = None, 0
    for i, u in enumerate(rows):
        for v in rows[i + 1:]:
            p = q = 0
            for k in (0, 2, 4, 6):  # (dx + dy*sqrt2)^2: the sum only grows
                dx, dy = v[k] - u[k], v[k + 1] - u[k + 1]
                p, q = p + dx * dx + 2 * dy * dy, q + 2 * dx * dy
                sign = surd_sign(p - best[0], q - best[1]) if best else -1
                if sign > 0:
                    break
            if sign > 0 and k == 0:
                break  # the q0 gap only grows along the sorted rows
            if sign < 0:
                best, count = (p, q), 1
            elif sign == 0:
                count += 1
    return count
