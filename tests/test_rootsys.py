import random
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter

from f4weyl import rootsys
from f4weyl.binocta import GroupElement, build_group
from f4weyl.quat import E1, E2, E3, ONE_Q, Quaternion
from f4weyl.rootsys import (b3r_system, b4_system, f4_system, format_labels,
                            get_system)
from f4weyl.scalar import INV_SQRT2, FieldScalar, SQRT2, from_ints

S = lambda a=0, b=0: FieldScalar(a, b)  # noqa: E731 - compact matrix literals


F4_CARTAN = [
    [S(2), S(-1), S(0), S(0)],
    [S(-1), S(2), S(0, -1), S(0)],
    [S(0), S(0, -1), S(2), S(-1)],
    [S(0), S(0), S(-1), S(2)],
]
F4_CARTAN_INV = [
    [S(2), S(3), S(0, 2), S(0, 1)],
    [S(3), S(6), S(0, 4), S(0, 2)],
    [S(0, 2), S(0, 4), S(6), S(3)],
    [S(0, 1), S(0, 2), S(3), S(2)],
]
B4_CARTAN = [
    [S(2), S(-1), S(0), S(0)],
    [S(-1), S(2), S(-1), S(0)],
    [S(0), S(-1), S(2), S(0, -1)],
    [S(0), S(0), S(0, -1), S(2)],
]
B4_CARTAN_INV = [
    [S(1), S(1), S(1), S(0, Fraction(1, 2))],
    [S(1), S(2), S(2), S(0, 1)],
    [S(1), S(2), S(3), S(0, Fraction(3, 2))],
    [S(0, Fraction(1, 2)), S(0, 1), S(0, Fraction(3, 2)), S(2)],
]
B3_CARTAN = [
    [S(2), S(0, -1), S(0)],
    [S(0, -1), S(2), S(-1)],
    [S(0), S(-1), S(2)],
]
B3_CARTAN_INV = [
    [S(Fraction(3, 2)), S(0, 1), S(0, Fraction(1, 2))],
    [S(0, 1), S(2), S(1)],
    [S(0, Fraction(1, 2)), S(1), S(1)],
]


def test_cartan_matrices():
    for sys, cartan, inv in ((f4_system(), F4_CARTAN, F4_CARTAN_INV),
                             (b4_system(), B4_CARTAN, B4_CARTAN_INV),
                             (b3r_system(), B3_CARTAN, B3_CARTAN_INV)):
        assert [list(r) for r in sys.cartan] == cartan, sys.name
        assert [list(r) for r in sys.cartan_inv] == inv, sys.name
        n = sys.rank
        for i in range(n):
            for j in range(n):
                entry = sum((sys.cartan[i][k] * sys.cartan_inv[k][j]
                             for k in range(n)), FieldScalar(0))
                assert entry == (1 if i == j else 0)


def test_weights_dual_to_roots():
    for sys in (f4_system(), b4_system(), b3r_system()):
        for i, alpha in enumerate(sys.simple_roots):
            assert alpha.norm_sq() == 2
            for j, omega in enumerate(sys.weights):
                assert alpha.dot(omega) == (1 if i == j else 0), (sys.name, i, j)
        # weight Gram matrix equals the inverse Cartan matrix
        for i, wi in enumerate(sys.weights):
            for j, wj in enumerate(sys.weights):
                assert wi.dot(wj) == sys.cartan_inv[i][j], (sys.name, i, j)


# each system's simple roots and weights as the paper's quaternions,
# written out: the oracle of the integer rows the systems are built from
QUATERNIONS = {
    "F4": ((Quaternion(1, -1, -1, -1) * INV_SQRT2, E3 * SQRT2, E2 - E3,
            E1 - E2),
           (ONE_Q * SQRT2, Quaternion(3, 1, 1, 1) * INV_SQRT2,
            Quaternion(2, 1, 1, 0), Quaternion(1, 1, 0, 0))),
    "B4": ((ONE_Q - E1, E1 - E2, E2 - E3, E3 * SQRT2),
           (ONE_Q, Quaternion(1, 1, 0, 0), Quaternion(1, 1, 1, 0),
            Quaternion(1, 1, 1, 1) * INV_SQRT2)),
    "B3R": ((E3 * SQRT2, E2 - E3, E1 - E2),
            ((E1 + E2 + E3) * INV_SQRT2, E1 + E2, E1)),
}


def test_gram_matrices_are_the_quaternion_dots():
    # the integer root and weight rows over weight_den are the quaternions,
    # and both Gram matrices, read off the rows, are their FieldScalar dots
    for sys in (f4_system(), b4_system(), b3r_system()):
        roots, weights = QUATERNIONS[sys.name]
        for rows, quaternions in ((sys.root_vectors, roots),
                                  (sys.weight_vectors, weights)):
            assert [tuple(from_ints(r[k], r[k + 1], sys.weight_den)
                          for k in (0, 2, 4, 6)) for r in rows] == \
                [q.components() for q in quaternions], sys.name
        for gram, vectors in ((sys.cartan, roots), (sys.cartan_inv, weights)):
            assert [list(r) for r in gram] == \
                [[a.dot(b) for b in vectors] for a in vectors], sys.name
        # the quaternions the group layer reads, built on first read
        assert (sys.simple_roots, sys.weights) == (roots, weights), sys.name


def test_label_to_vector():
    f4 = f4_system()
    assert f4.label_to_vector((1, 0, 0, 0)) == ONE_Q * SQRT2
    assert f4.label_to_vector((0, 0, 0, 1)) == Quaternion(1, 1, 0, 0)
    assert f4.label_to_vector((0, 0, 0, 0)).is_zero()
    b4 = b4_system()
    assert b4.vector_to_label(ONE_Q * SQRT2) == (SQRT2, S(0), S(0), S(0))
    try:
        f4.label_to_vector((1, 0, 0))
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_round_trip():
    rng = random.Random(41)
    for sys in (f4_system(), b4_system()):
        for _ in range(50):
            labels = tuple(S(Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                             Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
                           for _ in range(4))
            v = sys.label_to_vector(labels)
            assert sys.vector_to_label(v) == labels
    b3 = b3r_system()
    for _ in range(50):
        labels = tuple(S(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3))
        v = b3.label_to_vector(labels)
        assert v.q0.is_zero()  # spanned by imaginary dual vectors
        assert b3.vector_to_label(v) == labels


def test_f4_reflection_coordinate_actions():
    r1, r2, r3, r4 = f4_system().reflections
    rng = random.Random(42)
    for _ in range(40):
        v = Quaternion(*[S(rng.randint(-9, 9), rng.randint(-9, 9))
                         for _ in range(4)])
        x0, x1, x2, x3 = v.components()
        assert r2.apply(v) == Quaternion(x0, x1, x2, -x3)
        assert r3.apply(v) == Quaternion(x0, x1, x3, x2)
        assert r4.apply(v) == Quaternion(x0, x2, x1, x3)
        t = (x0 - x1 - x2 - x3) / 2
        assert r1.apply(v) == Quaternion(x0 - t, x1 + t, x2 + t, x3 + t)


def test_b4_dominance_is_sorted_coordinates():
    b4 = b4_system()
    rng = random.Random(43)
    for _ in range(80):
        v = Quaternion(*[S(rng.randint(-6, 6), rng.randint(-6, 6))
                         for _ in range(4)])
        x = v.components()
        sorted_desc = all((x[i] - x[i + 1]).sign() >= 0 for i in range(3))
        nonneg = x[3].sign() >= 0
        assert b4.is_dominant(b4.vector_to_label(v)) == (sorted_desc and nonneg)


def test_wb4_acts_by_signed_permutations():
    # generic vector with distinct component magnitudes
    v = Quaternion(S(1), S(5), S(19), S(67))
    comps = set(v.components()) | {-c for c in v.components()}
    images = set()
    for g in build_group("WB4"):
        w = g.apply(v)
        assert all(c in comps for c in w.components())
        images.add(w)
    # 2^4 * 4! signed permutations, all realized exactly once
    assert len(images) == 384
    expected = set()
    for perm in permutations(v.components()):
        for signs in product((1, -1), repeat=4):
            expected.add(Quaternion(*[c * s for c, s in zip(perm, signs)]))
    assert images == expected


def test_signed_permutations_build_no_getters_per_call(monkeypatch):
    # the arrangement getters depend only on ``fixed``: the system builds
    # them once, in permutation order, and the rows keep the order of the
    # per-call getters they replaced
    def per_call(sys, form):
        f = 2 * sys.fixed
        signed, arranged = [form[:f]], {}
        for x, y in zip(form[f::2], form[f + 1::2]):
            signed = [r + s for r in signed
                      for s in ((x, y), (-x, -y))[:1 + bool(x or y)]]
        for p in permutations(range(f, 8, 2)):
            get = itemgetter(*range(f), *[j for i in p for j in (i, i + 1)])
            arranged.setdefault(get(form), get)
        return [get(r) for get in arranged.values() for r in signed]

    cases = [(f4_system(), (5, 0, 3, 1, 3, 1, 0, 0)),
             (b4_system(), (4, 1, 4, 1, 2, 0, -1, 1)),
             (b3r_system(), (7, 0, 2, 0, 1, 1, 1, 1))]
    expected = [per_call(sys, form) for sys, form in cases]

    def refuse(*args):
        raise AssertionError("itemgetter built per call")

    monkeypatch.setattr(rootsys, "itemgetter", refuse)
    for (sys, form), rows in zip(cases, expected):
        assert sys.signed_permutations(form) == rows
        assert len(rows) == len(set(rows)) == sys.orbit_count([form])


def witness_of(sys, word):
    """The group element applying the reflections of ``word`` in order."""
    g = GroupElement.identity()
    for i in word:
        g = sys.reflections[i].compose(g)
    return g


def test_dominant_representative():
    f4 = f4_system()
    rng = random.Random(44)
    pool = sorted(build_group("WF4"))
    omega1 = f4.label_to_vector((1, 0, 0, 0))
    labels, word = f4.dominant_representative(omega1)
    assert labels == (S(1), S(0), S(0), S(0))
    assert word == ()
    r1 = f4.reflections[0]
    labels, word = f4.dominant_representative(r1.apply(omega1))
    assert labels == (S(1), S(0), S(0), S(0))
    assert witness_of(f4, word) == r1
    for _ in range(25):
        dom = tuple(S(rng.randint(0, 3)) for _ in range(4))
        if all(a.is_zero() for a in dom):
            continue
        v = f4.label_to_vector(dom)
        g = rng.choice(pool)
        moved = g.apply(v)
        labels, word = f4.dominant_representative(moved)
        assert labels == dom
        assert witness_of(f4, word).apply(moved) == v


def test_format_labels():
    assert format_labels((S(1), S(0, 1), S(0))) == "(1,sqrt2,0)"
    # only the registered names: no case folding and no "B3" alias
    for name in ("E8", "b3", "B3"):
        try:
            get_system(name)
            assert False, f"expected ValueError for {name!r}"
        except ValueError:
            pass
