import random
from fractions import Fraction

import pytest

from f4weyl.binocta import (GROUP_NAMES, OMEGA0, GroupElement, build_group,
                            build_subsets, coset_decompose, diagram_symmetry,
                            generate_from, group_order, reflection_element,
                            subset_product_table, unit_tables)
from f4weyl.quat import E1, E2, E3, ONE_Q, Quaternion
from f4weyl.refdata import SUBSET_TABLE_GOLDEN
from f4weyl.rootsys import f4_system
from f4weyl.scalar import INV_SQRT2
from oracles import (build_group_scan, element_inverse,
                     subset_product_table_quaternion)

IDENT = GroupElement.identity()

# computed once per run; the groups are cached anyway
WF4 = build_group("WF4")

# the simple reflections r1..r4 of the F4 diagram
F4_REFLECTIONS = f4_system().reflections


def test_subset_sizes_and_norms():
    sets = build_subsets()
    for name, size in (("V0", 8), ("V+", 8), ("V-", 8), ("V1", 8),
                       ("V2", 8), ("V3", 8), ("T", 24), ("T'", 24), ("O", 48)):
        assert len(sets[name]) == size
        assert len(set(sets[name])) == size
        for q in sets[name]:
            assert q.norm_sq() == 1
    assert set(sets["T"]) == set(sets["V0"]) | set(sets["V+"]) | set(sets["V-"])
    assert set(sets["O"]) == set(sets["T"]) | set(sets["T'"])
    assert set(sets["V-"]) == {q.conj() for q in sets["V+"]}
    # spot membership: omega0 in V+, its square in V-, e2 in V0
    assert OMEGA0 in sets["V+"]
    assert OMEGA0 * OMEGA0 in sets["V-"]
    assert E2 in sets["V0"]


def test_subsets_are_groups():
    sets = build_subsets()
    for name in ("V0", "T", "O"):
        g = set(sets[name])
        assert ONE_Q in g
        assert all(x * y in g for x in g for y in g)
        assert all(x.conj() in g for x in g)  # inverse of a unit quaternion


def test_subset_product_table():
    table = subset_product_table()
    assert tuple(tuple(row) for row in table) == SUBSET_TABLE_GOLDEN


def test_subset_product_table_matches_quaternion_products():
    # read off the unit product table; the Quaternion products are its oracle
    assert subset_product_table() == subset_product_table_quaternion()


def test_unit_product_table_is_the_quaternion_product():
    units, index, mul, _ = unit_tables()
    assert [[mul[i][j] for j in range(48)] for i in range(48)] == \
        [[index[u * w] for w in units] for u in units]


def test_group_orders():
    expected = {"WF4": 1152, "AutF4": 2304, "WB4": 384,
                "WB3R": 48, "WB3R_C2": 96, "WB3L_C2": 96}
    for name in GROUP_NAMES:
        assert group_order(name) == expected[name], name


def _listed_group(name):
    """Oracle: the named group listed from quaternion blocks of octets."""
    sets = build_subsets()
    t, tp = sets["T"], sets["T'"]

    def block(left, right, star):
        return (GroupElement(p, q, star) for p in left for q in right)

    elems = set()
    if name == "WF4":
        for star in (False, True):
            elems.update(block(t, t, star))
            elems.update(block(tp, tp, star))
    elif name == "AutF4":
        for star in (False, True):
            elems.update(block(sets["O"], sets["O"], star))
    elif name == "WB4":
        pairs = (("V0", "V0"), ("V+", "V-"), ("V-", "V+"),
                 ("V1", "V1"), ("V2", "V2"), ("V3", "V3"))
        for star in (False, True):
            for a, b in pairs:
                elems.update(block(sets[a], sets[b], star))
    elif name == "WB3R":
        for star in (False, True):
            for x in t + tp:
                elems.add(GroupElement(x, x.conj(), star))
    elif name == "WB3R_C2":
        for star in (False, True):
            for x in t + tp:
                for sgn in (1, -1):
                    elems.add(GroupElement(x, x.conj() * sgn, star))
    elif name == "WB3L_C2":
        axis = (ONE_Q + E1) * INV_SQRT2
        for x in t + tp:
            for sgn in (1, -1):
                elems.add(GroupElement(x, axis.conj() * x.conj() * axis * sgn,
                                       False))
                elems.add(GroupElement(x, axis * x.conj() * axis * sgn, True))
    return frozenset(elems)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_index_rules_match_quaternion_listing(name):
    assert build_group(name) == _listed_group(name)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_listed_halves_match_the_candidate_scan(name):
    assert build_group(name) == build_group_scan(name)


@pytest.mark.parametrize("name", ["wf4", "B4"])
def test_unknown_group_name(name):
    with pytest.raises(ValueError, match="unknown group"):
        build_group(name)


def test_canonicalization_and_identity():
    g = GroupElement(-E3, E3, star=True)
    h = GroupElement(E3, -E3, star=True)
    assert g == h and hash(g) == hash(h)
    assert g.compose(g) == IDENT
    # both halves must be units of O
    for p, q in ((Quaternion(0, 0, 0, 0), ONE_Q), (2 * ONE_Q, ONE_Q),
                 (ONE_Q, E1 + E2), (OMEGA0, 3 * E3)):
        try:
            GroupElement(p, q)
            assert False, (p, q)
        except ValueError:
            pass


def test_compose_matches_action():
    # compose and inverse are table lookups: check them against the
    # quaternion formulas, up to the sign of the pair, and the action
    rng = random.Random(17)
    pool = sorted(build_group("AutF4"))
    basis = (ONE_Q, E1, E2, E3)

    def up_to_sign(star, p, q):
        return {(star, p, q), (star, -p, -q)}

    for _ in range(150):
        g = rng.choice(pool)
        h = rng.choice(pool)
        gh = g.compose(h)
        p, q, r, s = g.p, g.q, h.p, h.q
        if g.star:
            want = up_to_sign(not h.star, p * s.conj(), r.conj() * q)
            inverse = up_to_sign(True, q, p)
        else:
            want = up_to_sign(h.star, p * r, s * q)
            inverse = up_to_sign(False, p.conj(), q.conj())
        assert (gh.star, gh.p, gh.q) in want
        ginv = element_inverse(g)
        assert (ginv.star, ginv.p, ginv.q) in inverse
        generic = Quaternion(*(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            + rng.randint(-3, 3) * INV_SQRT2 for _ in range(4)))
        for v in basis + (generic,):
            assert gh.apply(v) == g.apply(h.apply(v))
        assert g.compose(ginv) == IDENT
        assert ginv.compose(g) == IDENT


def test_unit_tables():
    units, index, _, _ = unit_tables()
    assert units == build_subsets()["O"]
    for k, u in enumerate(units):
        assert index[u] == k
        assert units[47 - k] == -u
        first = next(c for c in u.components() if not c.is_zero())
        assert (first.sign() > 0) == (k >= 24)
        # index order is Quaternion order
        assert all((k < m) == (u < w) for m, w in enumerate(units))


def test_coxeter_relations():
    r1, r2, r3, r4 = F4_REFLECTIONS
    for r in (r1, r2, r3, r4):
        assert r.order() == 2
    assert r1.compose(r2).order() == 3
    assert r2.compose(r3).order() == 4
    assert r3.compose(r4).order() == 3
    assert r1.compose(r3).order() == 2
    assert r1.compose(r4).order() == 2
    assert r2.compose(r4).order() == 2


def test_generated_equals_listed_wf4():
    assert generate_from(F4_REFLECTIONS) == WF4


def test_autf4_is_wf4_extended():
    d = diagram_symmetry()
    assert d.compose(d) == IDENT
    assert d not in WF4
    r1, r2, r3, r4 = F4_REFLECTIONS
    dinv = element_inverse(d)
    assert d.compose(r1).compose(dinv) == r4
    assert d.compose(r2).compose(dinv) == r3
    assert d.compose(r3).compose(dinv) == r2
    assert d.compose(r4).compose(dinv) == r1
    aut = build_group("AutF4")
    assert WF4 | {d.compose(g) for g in WF4} == aut


def test_wb4_generated_by_reflections():
    from f4weyl.scalar import SQRT2
    roots = (ONE_Q - E1, E1 - E2, E2 - E3, E3 * SQRT2)
    gens = [reflection_element(a) for a in roots]
    assert generate_from(gens) == build_group("WB4")
    # a zero root, and one whose norm (3) is not a square in Q(sqrt2)
    for root, message in ((Quaternion(0, 0, 0, 0),
                           "cannot reflect in a zero root"),
                          (ONE_Q + E1 + E2, "root norm is not a square in "
                                            "Q(sqrt2)")):
        with pytest.raises(ValueError) as err:
            reflection_element(root)
        assert str(err.value) == message


def test_wb3r_is_r234():
    _, r2, r3, r4 = F4_REFLECTIONS
    wb3r = build_group("WB3R")
    assert generate_from((r2, r3, r4)) == wb3r
    for g in wb3r:
        assert g.apply(ONE_Q) == ONE_Q
    neg = GroupElement(ONE_Q, -ONE_Q)
    assert generate_from((r2, r3, r4, neg)) == build_group("WB3R_C2")


def test_wb3l_fixes_axis():
    r1, r2, r3, _ = F4_REFLECTIONS
    neg = GroupElement(ONE_Q, -ONE_Q)
    group = build_group("WB3L_C2")
    assert generate_from((r1, r2, r3, neg)) == group
    axis = (ONE_Q + E1) * INV_SQRT2
    for g in group:
        img = g.apply(axis)
        assert img == axis or img == -axis


def test_wf4_over_wb4_cosets():
    wb4 = build_group("WB4")
    reps = coset_decompose(WF4, wb4)
    assert len(reps) == 3
    # the identity and the two [omega0^k, 1] rotations pick out the three
    g2 = GroupElement(OMEGA0, ONE_Q)
    g3 = GroupElement(OMEGA0 * OMEGA0, ONE_Q)
    cosets = [frozenset(s.compose(g) for s in wb4) for g in (IDENT, g2, g3)]
    assert cosets[0] | cosets[1] | cosets[2] == WF4
    assert len(cosets[0] & cosets[1]) == 0
    assert len(cosets[0] & cosets[2]) == 0
    assert len(cosets[1] & cosets[2]) == 0
    # a set that is not inside the group, whose order does not divide the
    # group's, or that is no subgroup (g2 has order 3) is refused
    for big, small, message in (
            (wb4, WF4, "small is not contained in big"),
            (WF4, frozenset(sorted(wb4)[:5]),
             "small cannot be a subgroup (order mismatch)"),
            (WF4, frozenset((IDENT, g2)), "small is not a subgroup of big")):
        with pytest.raises(ValueError) as err:
            coset_decompose(big, small)
        assert str(err.value) == message


def test_wf4_over_wb3r_transversal():
    wb3r = build_group("WB3R")
    reps = coset_decompose(WF4, wb3r)
    assert len(reps) == 24
    sets = build_subsets()
    seen = set()
    for t in sets["T"]:
        coset = frozenset(s.compose(GroupElement(t, ONE_Q)) for s in wb3r)
        seen.add(coset)
    assert len(seen) == 24
    assert frozenset().union(*seen) == WF4


def test_left_translation_subgroups():
    # [T,1] and [1,T] are order-24 subgroups; plain rotations preserve
    # each one under conjugation while starred elements swap them.
    sets = build_subsets()
    left = {GroupElement(t, ONE_Q) for t in sets["T"]}
    right = {GroupElement(ONE_Q, t) for t in sets["T"]}
    assert len(left) == 24 and len(right) == 24
    assert all(a.compose(b) in left for a in left for b in left)
    assert all(a.compose(b) in right for a in right for b in right)
    rng = random.Random(23)
    pool = sorted(WF4)
    for _ in range(60):
        g = rng.choice(pool)
        t = rng.choice(sorted(left))
        conj = g.compose(t).compose(element_inverse(g))
        if g.star:
            assert conj in right
        else:
            assert conj in left


def test_binocta_cosets_match_printed_reps():
    sets = build_subsets()
    computed = {c for _, c in quaternion_cosets(sets["O"], sets["V0"])}
    h = Fraction(1, 2)
    printed = [
        ONE_Q,
        (E1 - E2) * INV_SQRT2,
        (E2 - E3) * INV_SQRT2,
        (E3 - E1) * INV_SQRT2,
        Quaternion(h, h, h, h),
        Quaternion(h, -h, -h, -h),
    ]
    expected = {frozenset(c * v for v in sets["V0"]) for c in printed}
    assert computed == expected


def test_binocta_quotient_is_s3():
    sets = build_subsets()
    cosets = quaternion_cosets(sets["O"], sets["V0"])
    index = {}
    for i, (_, coset) in enumerate(cosets):
        for x in coset:
            index[x] = i
    # multiplication on cosets must be well-defined ...
    table = [[None] * 6 for _ in range(6)]
    for i, (_, ci) in enumerate(cosets):
        for j, (_, cj) in enumerate(cosets):
            prods = {index[x * y] for x in ci for y in cj}
            assert len(prods) == 1
            table[i][j] = prods.pop()
    # ... and the resulting order-6 group is non-abelian, hence S3
    assert any(table[i][j] != table[j][i] for i in range(6) for j in range(6))
    # element orders in S3: 1,2,2,2,3,3
    assert _element_orders(table) == [1, 2, 2, 2, 3, 3]


def quaternion_cosets(ambient, subgroup):
    """Left cosets x.H of a quaternion subgroup inside a finite set.

    Returns (representative, coset) pairs; the representative is the
    least element of its coset under the deterministic sort order.
    """
    remaining = set(ambient)
    out = []
    for x in sorted(ambient):
        if x not in remaining:
            continue
        coset = frozenset(x * h for h in subgroup)
        if not coset <= remaining:
            raise ValueError("subgroup does not partition the ambient set")
        remaining -= coset
        out.append((x, coset))
    return out


def _identity_index(table):
    for e in range(6):
        if all(table[e][j] == j and table[j][e] == j for j in range(6)):
            return e
    raise AssertionError("no identity in coset table")


def _element_orders(table):
    e = _identity_index(table)
    orders = []
    for k in range(6):
        acc = k
        n = 1
        while acc != e:
            acc = table[acc][k]
            n += 1
        orders.append(n)
    return sorted(orders)
