"""The verify battery: its check titles and the checks that compare the
expanded orbit rows with their closed-form count."""

import json
import random
from pathlib import Path

from f4weyl import verify
from f4weyl.orbits import _orbit_cached
from f4weyl.rootsys import RootSystem
from oracles import random_quaternion_fraction
from test_bench_names import TRACER

ROOT = Path(__file__).resolve().parents[1]


def test_check_titles_name_the_report_and_the_benchmark_metrics():
    titles = [title for title, _ in verify.CHECKS]
    assert [r.name for r in verify.run_all()] == titles
    slug = TRACER.slug
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [f"verify.{slug(t)}_s" for t in titles] == [
        m["name"] for m in bench["per_layer"]
        if m["name"].startswith("verify.")]


def test_dropped_arrangement_fails_both_orbit_size_checks(monkeypatch):
    # a fault that drops the last distinct arrangement of every form (its
    # signed rows come last) leaves the closed-form sizes unchanged, so
    # each check must count the expanded rows
    signed_permutations = RootSystem.signed_permutations

    def faulty(self, form):
        f = 2 * self.fixed
        signs = 1 << sum(map(any, zip(form[f::2], form[f + 1::2])))
        return signed_permutations(self, form)[:-signs]

    monkeypatch.setattr(RootSystem, "signed_permutations", faulty)
    _orbit_cached.cache_clear()
    try:
        assert not verify.check_b4_branching()[0]
        assert not verify.check_orbit_stabilizer()[0]
        assert not verify.check_b3a1_slices()[0]
    finally:
        _orbit_cached.cache_clear()  # drop the faulty orbits


def test_kite_quote_within_a_quarter_of_the_area_fails(monkeypatch):
    # the exact area is sqrt(92-64sqrt2) = 1.2208...: a quote of 1.1 is
    # no misprint, and the check must say so on exact squares
    assert verify.check_kite()[0]
    monkeypatch.setitem(verify.refdata.KITE_GOLDEN, "quoted_area", 1.1)
    assert not verify.check_kite()[0]


def test_frame_norm_quote_equal_to_the_frame_fails(monkeypatch):
    # the erratum's quoted norm must differ from the computed frame norm
    entry = verify.refdata.erratum("dual-1010-frame-norm")
    assert verify.check_dual_cells()[0]
    monkeypatch.setitem(entry, "quoted", entry["computed"])
    assert not verify.check_dual_cells()[0]


def test_quoted_variant_equal_to_a_computed_row_fails(monkeypatch):
    # a quoted misprint of (1,0,0,1) that is in fact another computed row
    # of the cell is no misprint
    scale, rows = verify.refdata.DUAL_CELL_PRINTED[(1, 0, 0, 1)]
    k = next(i for i, (_, quoted) in enumerate(rows) if quoted is not None)
    rows = rows[:k] + ((rows[k][0], rows[0][0]),) + rows[k + 1:]
    monkeypatch.setitem(verify.refdata.DUAL_CELL_PRINTED, (1, 0, 0, 1),
                        (scale, rows))
    assert not verify.check_dual_cells()[0]


def test_random_quaternions_match_the_fraction_route():
    # the integer draws keep the randint order a, b, c, d per component, so
    # the stream and every quaternion equal the Fraction route's
    for seed in (verify.DEFAULT_SEED, 3):
        ints, fracs = random.Random(seed), random.Random(seed)
        for i in range(2000):
            got = verify._random_quaternion(ints)
            want = random_quaternion_fraction(fracs)
            assert got == want, (seed, i)
            assert [(c.x, c.y, c.d) for c in got.components()] == \
                [(c.x, c.y, c.d) for c in want.components()], (seed, i)
        assert ints.random() == fracs.random(), seed
