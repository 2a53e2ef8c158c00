import random
from fractions import Fraction

import pytest

from f4weyl.binocta import build_group, sorted_elements, unit_tables
from f4weyl.quat import (E1, E2, E3, ONE_Q, Quaternion, _render, reflect,
                         reflect_classical)
from f4weyl.scalar import FieldScalar
from f4weyl.verify import _random_quaternion
from oracles import (quaternion_dot_scalar, quaternion_inverse,
                     quaternion_product_scalar, quaternion_str)

ZERO_Q = Quaternion(0, 0, 0, 0)


def rand_quat(rng, span=6):
    return Quaternion(*[
        FieldScalar(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 4)))
        for _ in range(4)
    ])


def test_multiplication_convention():
    # The sign convention everything downstream depends on: e1 e2 = e3.
    assert E1 * E2 == E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    assert E2 * E1 == -E3
    assert E1 * E1 == -ONE_Q
    assert E2 * E2 == -ONE_Q
    assert E3 * E3 == -ONE_Q
    q = rand_quat(random.Random(1))
    assert q * ONE_Q == q and ONE_Q * q == q


def test_conjugation():
    h = Fraction(1, 2)
    w = Quaternion(h, h, h, h)
    assert w.conj() == Quaternion(h, -h, -h, -h)
    assert ONE_Q.conj() == ONE_Q
    assert E1.conj() == -E1
    rng = random.Random(2)
    for _ in range(100):
        p, q = rand_quat(rng), rand_quat(rng)
        assert (p * q).conj() == q.conj() * p.conj()
        assert p.conj().conj() == p


def test_scalar_product_two_routes():
    rng = random.Random(3)
    for _ in range(100):
        p, q = rand_quat(rng), rand_quat(rng)
        # (p,q) = (conj(p) q + conj(q) p)/2 must be a pure scalar equal to
        # the componentwise dot product.
        s = p.conj() * q + q.conj() * p
        assert s.q1.is_zero() and s.q2.is_zero() and s.q3.is_zero()
        assert s.q0 == p.dot(q) * 2
    assert E1.dot(E1) == 1
    assert E1.dot(E2) == 0
    w = Quaternion(Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))
    assert w.dot(w) == 1


def _disagreements(pairs):
    """The pairs whose integer product or dot differs from the
    ``FieldScalar`` route's; scalars compare by their canonical (x, y, d)."""
    return [(p, q) for p, q in pairs
            if p * q != quaternion_product_scalar(p, q)
            or p.dot(q) != quaternion_dot_scalar(p, q)]


@pytest.mark.parametrize("seed", [314159, 3])
def test_integer_product_and_dot_on_verify_draws(seed):
    rng = random.Random(seed)
    draws = [_random_quaternion(rng) for _ in range(2000)]
    assert _disagreements(zip(draws, draws[1:])) == []
    assert _disagreements((q, q) for q in draws) == []


def test_integer_product_and_dot_on_all_unit_pairs():
    units = unit_tables()[0]
    assert _disagreements((p, q) for p in units for q in units) == []


def test_integer_product_and_dot_on_fractions_large_and_zero_parts():
    rng = random.Random(29)
    dens = (1, 2, 3, 7, 12, 10**12 + 39, 2**61 - 1, 6 * 10**15)

    def part():
        n = rng.choice((0, rng.randint(-9, 9), rng.randint(-10**18, 10**18)))
        return Fraction(n, rng.choice(dens))

    operands = [Quaternion(*(FieldScalar(part(), part()) if rng.random() < 0.5
                             else part() if rng.random() < 0.6 else 0
                             for _ in range(4)))
                for _ in range(60)]
    operands += [ZERO_Q, ONE_Q, E1, E2, E3,
                 Quaternion(Fraction(1, 3), 0, Fraction(-5, 7), 2),
                 Quaternion(0, FieldScalar(0, Fraction(1, 10**20 + 1)), 0, 0)]
    assert any(c.d > 10**15 for q in operands for c in q.components())
    assert _disagreements((p, q) for p in operands for q in operands) == []


def test_norm_multiplicative():
    rng = random.Random(4)
    for _ in range(100):
        p, q = rand_quat(rng), rand_quat(rng)
        assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_inverse():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_quat(rng)
        if not any(p.components()):
            continue
        assert p * quaternion_inverse(p) == ONE_Q
        assert quaternion_inverse(p) * p == ONE_Q
    try:
        quaternion_inverse(ZERO_Q)
        assert False, "expected ZeroDivisionError"
    except ZeroDivisionError:
        pass


def test_reflection_agreement():
    rng = random.Random(6)
    for _ in range(200):
        a = rand_quat(rng)
        if not any(a.components()):
            continue
        v = rand_quat(rng)
        assert reflect(a, v) == reflect_classical(a, v)


def test_reflection_geometry():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_quat(rng)
        if not any(a.components()):
            continue
        v = rand_quat(rng)
        # root goes to its negative, reflection is an involution
        assert reflect(a, a) == -a
        assert reflect(a, reflect(a, v)) == v
        # vectors in the fixed hyperplane stay put
        if not a.q0.is_zero():
            # build w with (w, a) = 0 by Gram-Schmidt against a
            w = v - a * (v.dot(a) / a.norm_sq())
            assert w.dot(a).is_zero()
            assert reflect(a, w) == w
    for kernel in (reflect, reflect_classical):
        with pytest.raises(ValueError) as err:
            kernel(ZERO_Q, ONE_Q)
        assert str(err.value) == "cannot reflect in a zero vector"


def test_string_and_json():
    h = Fraction(1, 2)
    assert str(Quaternion(h, h, h, h)) == "1/2+1/2e1+1/2e2+1/2e3"
    assert str(-E2) == "-e2"
    assert str(ZERO_Q) == "0"
    assert str(Quaternion(0, FieldScalar(1, 1), 0, 0)) == "(1+sqrt2)e1"
    assert Quaternion(1, 0, 0, 0).json_obj() == ["1", "0", "0", "0"]


def test_sort_key_deterministic():
    rng = random.Random(8)
    pts = [rand_quat(rng) for _ in range(40)]
    s1 = sorted(pts)
    s2 = sorted(list(reversed(pts)))
    assert s1 == s2


def seed_key(q):
    """The order quaternions sorted by: lexicographic over the Fraction
    parts (q0.a, q0.b), ..., (q3.a, q3.b)."""
    return tuple((c.a, c.b) for c in q.components())


def test_sort_order_matches_fraction_key():
    rng = random.Random(9)
    for span in (1, 2, 6):  # small spans give many equal leading parts
        pts = [rand_quat(rng, span) for _ in range(300)]
        pts += [Quaternion(p.q0, p.q1, p.q2 + FieldScalar(0, 1), p.q3)
                for p in pts[:40]]
        assert sorted(pts) == sorted(pts, key=seed_key)
        assert [seed_key(p) for p in sorted(pts)] \
            == sorted(seed_key(p) for p in pts)
    for p in pts[:50]:
        assert not p < p


def test_group_element_order_matches_fraction_key():
    group = build_group("WB3R_C2")
    assert sorted_elements(group) == sorted(
        group, key=lambda g: (g.star, seed_key(g.p), seed_key(g.q)))


def test_render_matches_the_method_it_replaced():
    # components of every shape the formatter tells apart: zero, +-1, a
    # lone surd, +-sqrt2, a rational and a two-term sum of either sign
    rng = random.Random(13)
    pool = [FieldScalar(0), FieldScalar(1), FieldScalar(-1),
            FieldScalar(0, 1), FieldScalar(0, -1), FieldScalar(0, 3),
            FieldScalar(Fraction(-2, 3)), FieldScalar(1, 1), FieldScalar(-1, 1),
            FieldScalar(Fraction(1, 2), Fraction(-3, 2)),
            FieldScalar(0, Fraction(-1, 3))]
    quats = [Quaternion(*[rng.choice(pool) for _ in range(4)])
             for _ in range(600)]
    quats += [rand_quat(rng) for _ in range(200)] + [ZERO_Q, ONE_Q, -E3]
    for q in quats:
        assert _render(q.json_obj()) == str(q) == quaternion_str(q), q
