import random
from fractions import Fraction
from itertools import product

import pytest

from f4weyl import cli, refdata
from f4weyl.binocta import OMEGA0, build_subsets
from f4weyl.branching import _b3_template, branch_b3a1, branch_b4, project_3d
from f4weyl.orbits import generate_orbit
from f4weyl.quat import ONE_Q, Quaternion
from f4weyl.rootsys import RootSystem, b3r_system, b4_system, f4_system
from f4weyl.scalar import FieldScalar, SQRT2, over_lcm, parse_scalar
from f4weyl.verify import verify_b3a1_slices, verify_b4_branching
import oracles


def _lab(*texts):
    return tuple(parse_scalar(t) for t in texts)


#: coefficient matrices of the three generic B4 parts: row k gives the
#: coefficients of (a1, a2, a3, a4) in the k-th B4 label entry.
B4_PART_MATRICES = (
    (_lab("sqrt2", "sqrt2", "1", "0"), _lab("0", "0", "0", "1"),
     _lab("0", "0", "1", "0"), _lab("0", "1", "0", "0")),
    (_lab("0", "0", "1", "0"), _lab("0", "0", "0", "1"),
     _lab("0", "sqrt2", "1", "0"), _lab("1", "0", "0", "0")),
    (_lab("0", "sqrt2", "1", "0"), _lab("0", "0", "0", "1"),
     _lab("0", "0", "1", "0"), _lab("1", "1", "0", "0")),
)

#: the twelve generic slice families: (3x4 label-coefficient matrix,
#: 4-vector of height coefficients); heights are the +/- values.
#: Two of the quoted family formulas contain typos (see ERRATA entries
#: slice-family-6-height and slice-family-9-label); the corrected
#: coefficients below reproduce every block of B3A1_GOLDEN.
B3A1_FAMILY_FORMULAS = (
    ((_lab("0", "1", "0", "0"), _lab("0", "0", "1", "0"), _lab("0", "0", "0", "1")),
     _lab("1", "3/2", "sqrt2", "sqrt2/2")),
    ((_lab("0", "1", "0", "0"), _lab("0", "0", "1", "0"), _lab("sqrt2", "sqrt2", "1", "1")),
     _lab("0", "1/2", "sqrt2/2", "sqrt2/2")),
    ((_lab("0", "1", "0", "0"), _lab("0", "0", "1", "1"), _lab("sqrt2", "sqrt2", "1", "0")),
     _lab("0", "1/2", "sqrt2/2", "0")),
    ((_lab("0", "1", "sqrt2", "0"), _lab("0", "0", "0", "1"), _lab("sqrt2", "sqrt2", "1", "0")),
     _lab("0", "1/2", "0", "0")),
    ((_lab("1", "2", "sqrt2", "0"), _lab("0", "0", "0", "1"), _lab("0", "0", "1", "0")),
     _lab("1/2", "0", "0", "0")),
    ((_lab("1", "1", "0", "0"), _lab("0", "0", "1", "0"), _lab("0", "0", "0", "1")),
     _lab("1/2", "3/2", "sqrt2", "sqrt2/2")),
    ((_lab("1", "1", "0", "0"), _lab("0", "0", "1", "0"), _lab("0", "sqrt2", "1", "1")),
     _lab("1/2", "1/2", "sqrt2/2", "sqrt2/2")),
    ((_lab("1", "1", "0", "0"), _lab("0", "0", "1", "1"), _lab("0", "sqrt2", "1", "0")),
     _lab("1/2", "1/2", "sqrt2/2", "0")),
    ((_lab("1", "1", "sqrt2", "0"), _lab("0", "0", "0", "1"), _lab("0", "sqrt2", "1", "0")),
     _lab("1/2", "1/2", "0", "0")),
    ((_lab("1", "0", "0", "0"), _lab("0", "sqrt2", "1", "0"), _lab("0", "0", "0", "1")),
     _lab("1/2", "1", "sqrt2", "sqrt2/2")),
    ((_lab("1", "0", "0", "0"), _lab("0", "sqrt2", "1", "1"), _lab("0", "0", "1", "0")),
     _lab("1/2", "1", "sqrt2/2", "0")),
    ((_lab("1", "0", "0", "0"), _lab("0", "sqrt2", "1", "0"), _lab("0", "0", "1", "1")),
     _lab("1/2", "1", "sqrt2/2", "sqrt2/2")),
)


def test_b4_branch_golden_table():
    # all fifteen nonzero 0/1 label patterns, in the published row order
    for pattern, parts in refdata.B4_BRANCH_GOLDEN.items():
        got = branch_b4(pattern)
        assert tuple(p.labels for p in got) == parts, pattern


def test_b4_branch_is_exact_partition():
    for pattern in refdata.B4_BRANCH_GOLDEN:
        assert verify_b4_branching(pattern), pattern


def test_b4_part_sizes_sum():
    f4 = f4_system()
    for pattern in refdata.B4_BRANCH_GOLDEN:
        parts = branch_b4(pattern)
        assert sum(p.size for p in parts) == oracles.orbit_size(f4, pattern)


def test_b4_coset_representatives():
    # the representatives are left multiplication by 1, omega, omega^2,
    # and omega^3 = -1 acts on vectors as the signed permutation -1
    assert OMEGA0 * OMEGA0 * OMEGA0 == -ONE_Q


def test_b4_part_matrices_match_walk():
    # the three frozen coefficient matrices reproduce branch_b4 on
    # random nonnegative labels
    rng = random.Random(41)
    for _ in range(25):
        labels = tuple(FieldScalar(rng.randrange(0, 4)) for _ in range(4))
        if all(x.sign() == 0 for x in labels):
            continue
        expected = set()
        for matrix in B4_PART_MATRICES:
            expected.add(tuple(sum((row[i] * labels[i] for i in range(4)),
                                   FieldScalar(0)) for row in matrix))
        got = set(p.labels for p in branch_b4(labels))
        assert got == expected


def test_b3a1_golden_blocks():
    # the fifteen tabulated slice decompositions, exact heights included
    for pattern, block in refdata.B3A1_GOLDEN.items():
        got = branch_b3a1(pattern)
        assert set((s.labels, s.height) for s in got) == set(block), pattern
        assert len(got) == len(block), pattern


def test_b3a1_sizes_account_for_orbit():
    for pattern in refdata.B3A1_GOLDEN:
        assert verify_b3a1_slices(pattern), pattern


def test_b3a1_zero_height_unpaired():
    for pattern in refdata.B3A1_GOLDEN:
        for s in branch_b3a1(pattern):
            assert s.paired == (s.height.sign() > 0)
            assert s.height.sign() >= 0


def test_b3a1_family_formulas():
    # the twelve generic families evaluated at random nonnegative labels
    # reproduce branch_b3a1 exactly (after deduplication)
    rng = random.Random(42)
    zero = FieldScalar(0)
    for _ in range(20):
        labels = tuple(FieldScalar(rng.randrange(0, 3)) for _ in range(4))
        if all(x.sign() == 0 for x in labels):
            continue
        expected = set()
        for matrix, hrow in B3A1_FAMILY_FORMULAS:
            lab = tuple(sum((row[i] * labels[i] for i in range(4)), zero)
                        for row in matrix)
            h = sum((hrow[i] * labels[i] for i in range(4)), zero)
            expected.add((lab, abs(h)))
        got = set((s.labels, s.height) for s in branch_b3a1(labels))
        assert got == expected


@pytest.mark.parametrize("ties", list(product((False, True), repeat=3)))
def test_b3_template_is_the_sorted_kernel_orbit(ties):
    # the template of a tie pattern (a == b, b == c, c == 0) lists the
    # sorted signed permutations of every chamber point with those ties
    ab, bc, c0 = ties
    b3, template = b3r_system(), _b3_template(*ties)
    assert list(template) == sorted(set(template))
    for step in (1, 5):
        c = 0 if c0 else 2 * step
        b = c if bc else c + 3 * step
        a = b if ab else b + step
        slots = (-a, -b, -c, 0, c, b, a)
        form = (0, 0, a, 0, b, 0, c, 0)
        rows = sorted((r[2], r[4], r[6]) for r in b3.signed_permutations(form))
        assert [(slots[i], slots[j], slots[k]) for i, j, k in template] == rows
        assert len(template) == b3.orbit_count([form])
    # and each index names the slot of the value it stands for
    slot = {v: i for i, v in enumerate(slots)}
    assert template == tuple(sorted((slot[r[0]], slot[r[1]], slot[r[2]])
                                    for r in rows))


def test_one_walk_per_label(monkeypatch):
    # the vertex list and both branchings of a label no test has seen
    # come from one build of its coset rows
    f4 = f4_system()
    labels = f4.coerce_labels((Fraction(3, 11), 0, FieldScalar(2, 1),
                               Fraction(5, 13)))
    top, _ = over_lcm(labels)
    built = []
    cosets = RootSystem.coset_forms

    def counted(self, mu):
        built.append(mu)
        return cosets(self, mu)

    monkeypatch.setattr(RootSystem, "coset_forms", counted)
    assert generate_orbit(f4, labels).size == 576
    branch_b4(labels)
    branch_b3a1(labels)
    assert built.count(top) == 1


def test_slice_count_is_24():
    # the number of coset representatives: each vertex is hit by
    # exactly one representative per stabilizer coset
    assert len(build_subsets()["T"]) == 24


def test_projection_24cell_halfscale():
    got = project_3d((1, 0, 0, 0), FieldScalar(0, Fraction(1, 2)))
    assert len(got) == len(refdata.PROJECTED_24CELL)
    for (h, pts), (eh, epts) in zip(got, refdata.PROJECTED_24CELL):
        assert h == eh
        assert frozenset(pts) == epts
        assert list(pts) == sorted(epts)


def test_projection_dual24_halfscale():
    got = project_3d((0, 0, 0, 1), FieldScalar(0, Fraction(1, 2)))
    assert len(got) == len(refdata.PROJECTED_DUAL24)
    for (h, pts), (eh, epts) in zip(got, refdata.PROJECTED_DUAL24):
        assert h == eh
        assert frozenset(pts) == epts
        assert list(pts) == sorted(epts)


def test_projection_consistent_with_slices():
    # layer point counts match slice sizes, and each layer's points have
    # the B3 label claimed for it
    b3 = b3r_system()
    for pattern in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1)):
        slices = {}
        for s in branch_b3a1(pattern):
            slices[s.height] = (s.labels, s.size)
            if s.paired:
                slices[-s.height] = (s.labels, s.size)
        layers = project_3d(pattern)
        assert set(slices) == set(h for h, _ in layers)
        for h, pts in layers:
            labels, size = slices[h]
            assert len(pts) == size
            sample = Quaternion(FieldScalar(0), *next(iter(pts)))
            got, _ = b3.dominant_representative(sample)
            assert got == labels


def test_left_ideal_interchange():
    # conjugating the height axis into the second frame swaps the roles
    # of the two 24-element quaternion families: heights of T along
    # (1+e1)/sqrt2 show the T'-like layer profile and vice versa
    subsets = build_subsets()
    axis = (Quaternion(1, 1, 0, 0)) * FieldScalar(0, Fraction(1, 2))
    profile_t = {}
    profile_tp = {}
    for x in subsets["T"]:
        profile_t[x.dot(axis)] = profile_t.get(x.dot(axis), 0) + 1
    for x in subsets["T'"]:
        profile_tp[x.dot(axis)] = profile_tp.get(x.dot(axis), 0) + 1
    t_sizes = sorted(profile_t.values())
    tp_sizes = sorted(profile_tp.values())
    assert t_sizes == [6, 6, 12]
    assert tp_sizes == [1, 1, 6, 8, 8]


def test_render_b4(capsys):
    assert cli.main(["branch-b4", "1,0,0,0"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n") == 1 and text.startswith("(1,0,0,0)_F4 = ")
    assert "(0,0,0,1)_B4" in text and "(sqrt2,0,0,0)_B4" in text


def test_branch_rejects_bad_labels():
    for bad in ((0, 0, 0, 0), (-1, 0, 0, 0)):
        try:
            branch_b4(bad)
        except ValueError:
            pass
        else:
            assert False, bad
        try:
            branch_b3a1(bad)
        except ValueError:
            pass
        else:
            assert False, bad
    for scale in (0, -1, 1 - SQRT2):
        with pytest.raises(ValueError, match="^scale must be positive$"):
            project_3d((1, 0, 0, 0), scale)
