"""Binary octahedral quaternions and the finite groups built from them.

The 48 unit quaternions of the binary octahedral group O split into six
8-element subsets V0, V+, V-, V1, V2, V3; T = V0 + V+ + V- is the binary
tetrahedral subgroup and T' = V1 + V2 + V3 its complement.  Orthogonal
transformations of 4-space are encoded as pairs::

    [p, q]  : v -> p v q          (rotation)
    [p, q]* : v -> p conj(v) q    (rotary reflection)

with p, q unit quaternions.  [p, q] and [-p, -q] act identically, so
every stored element is sign-normalized on its first half.  An element
is stored as the indices (star, i, j) of its halves among the 48 sorted
units.  Each of the six groups lists, for each star and each first half,
the second halves it allows, so it is built at the cost of its size
(orders in parentheses): WF4 (1152), AutF4 (2304), WB4 (384), WB3R (48),
WB3R_C2 (96), WB3L_C2 (96).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import product, repeat

from .quat import E1, E2, E3, ONE_Q, Quaternion
from .scalar import HALF, INV_SQRT2

SUBSET_ORDER = ("V0", "V+", "V-", "V1", "V2", "V3")

GROUP_NAMES = ("WF4", "AutF4", "WB4", "WB3R", "WB3R_C2", "WB3L_C2")

#: order-3 element of T used for triple coset splittings: (1+e1+e2+e3)/2
OMEGA0 = Quaternion(*([HALF] * 4))


@lru_cache(maxsize=1)
def build_subsets() -> dict[str, tuple[Quaternion, ...]]:
    """The nine named quaternion sets, each sorted deterministically."""
    units = (ONE_Q, E1, E2, E3)
    v0 = [u * s for u in units for s in (1, -1)]

    # parity convention: an even number of + signs lands in V+
    halves = {signs: Quaternion(*[s * HALF for s in signs])
              for signs in product((1, -1), repeat=4)}
    vplus = [q for signs, q in halves.items() if signs.count(1) % 2 == 0]
    vminus = [q for signs, q in halves.items() if signs.count(1) % 2]

    def mix(a: Quaternion, b: Quaternion) -> list[Quaternion]:
        return [(a * sa + b * sb) * INV_SQRT2
                for sa, sb in product((1, -1), repeat=2)]

    v1 = mix(ONE_Q, E1) + mix(E2, E3)
    v2 = mix(ONE_Q, E2) + mix(E3, E1)
    v3 = mix(ONE_Q, E3) + mix(E1, E2)

    sets = {"V0": v0, "V+": vplus, "V-": vminus, "V1": v1, "V2": v2, "V3": v3}
    sets["T"] = sets["V0"] + sets["V+"] + sets["V-"]
    sets["T'"] = sets["V1"] + sets["V2"] + sets["V3"]
    sets["O"] = sets["T"] + sets["T'"]
    return {name: tuple(sorted(els)) for name, els in sets.items()}


def subset_product_table() -> tuple[tuple[str, ...], ...]:
    """6x6 multiplication table of the V-subsets, on the units' indices.

    Entry (i, j) names the single subset equal to ``{x*y : x in row_i,
    y in col_j}``, each x*y read off the unit product table; anything
    else raises, since it would mean the subset conventions are broken.
    """
    mul, octets = unit_tables()[2], _unit_classes()[0]
    lookup = {frozenset(octets[v]): v for v in SUBSET_ORDER}
    products = {(row, col): frozenset(mul[x][y] for x in octets[row]
                                      for y in octets[col])
                for row in SUBSET_ORDER for col in SUBSET_ORDER}
    for (row, col), prod in products.items():
        if prod not in lookup:
            raise ArithmeticError(f"{row} * {col} is not a single named subset")
    return tuple(tuple(lookup[products[row, col]] for col in SUBSET_ORDER)
                 for row in SUBSET_ORDER)


@lru_cache(maxsize=1)
def unit_tables() -> tuple[tuple, dict[Quaternion, int], tuple, tuple]:
    """The 48 sorted units of O, their index, product and conjugate tables.
    Negation reverses the order: ``-units[k] == units[47 - k]``, and
    ``units[24:]`` are the units whose first nonzero component is positive.
    Product rows compose, row(g a) = row(g) o row(a), so only the rows of
    two generating units take quaternion products."""
    units = build_subsets()["O"]
    index = {u: k for k, u in enumerate(units)}
    gens = [tuple(index[g * b] for b in units)
            for g in (OMEGA0, (ONE_Q + E1) * INV_SQRT2)]
    rows = {index[ONE_Q]: tuple(range(len(units)))}
    found = list(rows)
    for a in found:  # the list grows as it is walked
        for g in gens:
            if g[a] not in rows:  # g[a] is the index of g * units[a]
                rows[g[a]] = tuple(g[k] for k in rows[a])
                found.append(g[a])
    if len(rows) != len(units):
        raise ArithmeticError("the generating units do not reach all of O")
    product = tuple(rows[k] for k in range(len(units)))
    conj = tuple(index[u.conj()] for u in units)
    return units, index, product, conj


def _element(star: bool, i: int, j: int) -> "GroupElement":
    """[units[i], units[j]] or its star, sign-normalized on its first half."""
    if i < 24:
        i, j = 47 - i, 47 - j
    return tuple.__new__(GroupElement, (star, i, j))


class GroupElement(tuple):
    """Pair element [p, q] or [p, q]* of units of O, stored as the indices
    (star, i, j) with p = units[i], q = units[j] and i >= 24.  Index order
    is Quaternion order, so elements sort as (star, p, q)."""

    __slots__ = ()

    def __new__(cls, p: Quaternion, q: Quaternion,
                star: bool = False) -> "GroupElement":
        i, j = (unit_tables()[1].get(half) for half in (p, q))
        if i is None or j is None:
            raise ValueError("group element halves must be units of O")
        return _element(bool(star), i, j)

    star = property(lambda self: self[0])
    p = property(lambda self: unit_tables()[0][self[1]])
    q = property(lambda self: unit_tables()[0][self[2]])
    __reduce__ = lambda self: (_element, tuple(self))

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(ONE_Q, ONE_Q, False)

    def apply(self, v: Quaternion) -> Quaternion:
        if self.star:
            return self.p * v.conj() * self.q
        return self.p * v * self.q

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        star, p, q = self
        other_star, r, s = other
        _, _, mul, conj = unit_tables()
        if not star:
            # [p,q][r,s] = [pr, sq], star carried through from other
            return _element(other_star, mul[p][r], mul[s][q])
        # [p,q]* [r,s]   = [p conj(s), conj(r) q]*
        # [p,q]* [r,s]*  = [p conj(s), conj(r) q]
        return _element(not other_star, mul[p][conj[s]], mul[conj[r]][q])

    def order(self) -> int:
        ident = GroupElement.identity()
        g = self
        for n in range(1, 100):
            if g == ident:
                return n
            g = g.compose(self)
        raise ArithmeticError("element order exceeds sanity bound")

    def __repr__(self) -> str:
        return f"GroupElement({self.p!r}, {self.q!r}, star={self.star})"

    def __str__(self) -> str:
        tail = "]*" if self.star else "]"
        return f"[{self.p}, {self.q}{tail}"


def reflection_element(alpha: Quaternion) -> GroupElement:
    """The reflection in the hyperplane orthogonal to alpha, as [-a, a]*.

    alpha is unit-normalized first, so its squared norm must be a square
    in Q(sqrt2) (true for every root used here: norms 1 and 2).
    """
    n = alpha.norm_sq().sqrt()
    if n is None:
        raise ValueError("root norm is not a square in Q(sqrt2)")
    if n.is_zero():
        raise ValueError("cannot reflect in a zero root")
    unit = alpha / n
    return GroupElement(-unit, unit, star=True)


def diagram_symmetry() -> GroupElement:
    """The order-2 outer symmetry swapping r1<->r4 and r2<->r3."""
    return GroupElement(-(E2 + E3) * INV_SQRT2, E2, False)


def generate_from(generators: Iterable[GroupElement]) -> frozenset[GroupElement]:
    """Closure of the generators under composition (breadth-first)."""
    gens = list(generators)
    found = [GroupElement.identity()]
    seen = set(found)
    for g in found:  # the list grows as it is walked: breadth first
        for r in gens:
            h = g.compose(r)
            if h not in seen:
                seen.add(h)
                found.append(h)
    return frozenset(seen)


@lru_cache(maxsize=1)
def _unit_classes() -> tuple:
    """The unit indices of each octet and of T and T'; for each unit, those
    of its side and of the octet WB4 pairs with its own (V+ and V- swap);
    and the index of (1+e1)/sqrt2, the axis WB3L_C2 fixes up to sign."""
    index = unit_tables()[1]
    members = {v: tuple(index[u] for u in build_subsets()[v])
               for v in SUBSET_ORDER + ("T", "T'")}
    side = {k: members[t] for t in ("T", "T'") for k in members[t]}
    partner = {k: members[{"V+": "V-", "V-": "V+"}.get(v, v)]
               for v in SUBSET_ORDER for k in members[v]}
    return members, side, partner, index[(ONE_Q + E1) * INV_SQRT2]


@lru_cache(maxsize=None)
def build_group(name: str) -> frozenset[GroupElement]:
    """One of the named groups as a frozen set of canonical elements.

    For each star and each first half i >= 24, the group lists the second
    halves j it allows, read off the octets, the sides T and T' and the
    unit tables; -units[k] is units[47 - k].
    """
    if name not in GROUP_NAMES:
        raise ValueError(f"unknown group {name!r}")
    _, _, mul, conj = unit_tables()
    _, side, partner, a = _unit_classes()

    def wb3l(star: bool, i: int) -> tuple[int, int]:
        # [x, +-conj(a) conj(x) a] and [x, +-a conj(x) a]*
        k = mul[mul[a if star else conj[a]][conj[i]]][a]
        return k, 47 - k

    seconds = {
        "WF4": lambda star, i: side[i],
        "AutF4": lambda star, i: range(48),
        "WB4": lambda star, i: partner[i],
        "WB3R": lambda star, i: (conj[i],),
        "WB3R_C2": lambda star, i: (conj[i], 47 - conj[i]),
        "WB3L_C2": wb3l,
    }[name]
    triples = ((star, i, j) for star in (False, True) for i in range(24, 48)
               for j in seconds(star, i))  # canonical already: i >= 24
    return frozenset(map(tuple.__new__, repeat(GroupElement), triples))


def group_order(name: str) -> int:
    return len(build_group(name))


def sorted_elements(group: Iterable[GroupElement]) -> list[GroupElement]:
    return sorted(group)


def coset_decompose(big: frozenset[GroupElement],
                    small: frozenset[GroupElement]) -> list[GroupElement]:
    """Deterministic right-coset representatives of small inside big: big
    is partitioned into the sets ``small . g``, each represented by its
    least canonical element.
    """
    if not small <= big:
        raise ValueError("small is not contained in big")
    if len(big) % len(small):
        raise ValueError("small cannot be a subgroup (order mismatch)")
    remaining = set(big)
    reps: list[GroupElement] = []
    for g in sorted_elements(big):
        if g not in remaining:
            continue
        coset = {s.compose(g) for s in small}
        if not coset <= remaining:
            raise ValueError("small is not a subgroup of big")
        remaining -= coset
        reps.append(g)
    return reps
