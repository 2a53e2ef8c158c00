"""Shared constants, seeded input generators and statistics.

Imported by the runner and by every worker process.  Nothing here
imports ``f4weyl``: the runner only ever talks to the program through
child processes.
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("random-labels", "cli-cold")

#: the seven subcommands that take a label
LABEL_COMMANDS = ("orbit", "fvector", "branch-b4", "branch-b3a1", "project",
                  "dual", "export")

#: the 15 nonzero 0/1 zero patterns, in the order ``verify`` uses
PATTERNS: Tuple[Tuple[int, ...], ...] = tuple(
    (a, b, c, d)
    for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    if a or b or c or d)

#: vertex count N0 of each pattern; the cli-cold deck draws one label
#: per stratum so every deck carries the same amount of orbit work
N0 = {
    (1, 0, 0, 0): 24, (0, 0, 0, 1): 24, (0, 1, 0, 0): 96, (0, 0, 1, 0): 96,
    (1, 0, 0, 1): 144, (1, 1, 0, 0): 192, (0, 0, 1, 1): 192,
    (1, 0, 1, 0): 288, (0, 1, 0, 1): 288, (0, 1, 1, 0): 288,
    (1, 1, 1, 0): 576, (1, 1, 0, 1): 576, (1, 0, 1, 1): 576,
    (0, 1, 1, 1): 576, (1, 1, 1, 1): 1152,
}
STRATA = tuple(
    tuple(p for p in PATTERNS if lo <= N0[p] <= hi)
    for lo, hi in ((24, 96), (144, 288), (576, 576), (1152, 1152)))

WEYL_ORDER = 1152


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's sources, one thread."""
    env = dict(os.environ)
    env.pop("F4WEYL_THREADS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def use_source_tree() -> None:
    """Make ``import f4weyl`` resolve to the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# seeded inputs


def pattern_text(pattern: Sequence[int]) -> str:
    return ",".join(str(x) for x in pattern)


def _positive_entry(rng: random.Random) -> Tuple[Fraction, Fraction]:
    """A seeded a + b*sqrt2 > 0 with a = n/7 and b = m/9 in lowest terms.

    Numerators are two-digit, so the arithmetic is multi-digit as for
    real labels; the denominators are fixed so that every label (and
    every seed) costs about the same.
    """
    while True:
        n, m = rng.randint(10, 99), rng.randint(-99, 99)
        if n % 7 == 0 or m % 3 == 0:
            continue
        a, b = Fraction(n, 7), Fraction(m, 9)
        if b > 0 or a * a > 2 * b * b:
            return a, b


def label_cycle(seed: int, cycle: int) -> List[Tuple[Tuple[int, ...], Tuple]]:
    """One random-labels cycle: every zero pattern once, in ``PATTERNS`` order.

    The order is fixed because the orbit cache keeps every orbit of the
    cycle: the peak memory depends on where the largest orbit comes.

    Each nonzero entry is a seeded positive a + b*sqrt2 (see
    ``_positive_entry``); returns (pattern, entries) pairs where entries
    are (a, b) Fraction pairs (zero entries are (0, 0)).
    """
    rng = random.Random(f"random-labels:{seed}:{cycle}")
    out = []
    for pattern in PATTERNS:
        entries = tuple(_positive_entry(rng) if x else (Fraction(0), Fraction(0))
                        for x in pattern)
        out.append((pattern, entries))
    return out


def cli_deck(seed: int, deck: int) -> List[Tuple[str, Tuple[int, ...], str]]:
    """One cli-cold deck of (command, pattern, format) requests.

    Every command gets one label from each N0 stratum, two of them as
    text and two as JSON (``export`` only writes OFF); the order of the
    28 requests is seeded.
    """
    rng = random.Random(f"cli-cold:{seed}:{deck}")
    requests = []
    for cmd in LABEL_COMMANDS:
        formats = ["off"] * 4 if cmd == "export" else ["text", "text",
                                                       "json", "json"]
        rng.shuffle(formats)
        for stratum, fmt in zip(STRATA, formats):
            requests.append((cmd, rng.choice(stratum), fmt))
    rng.shuffle(requests)
    return requests


def cli_argv(cmd: str, label: str, fmt: str) -> List[str]:
    argv = [cmd, label]
    if fmt == "json":
        argv += ["--format", "json"]
    return argv


#: malformed-label probes: (kind, label text).  A correct program exits
#: nonzero with a one-line error that echoes the label.
MALFORMED = (
    ("zero label", ("0,0,0,0",)),
    ("bad literal", ("1,2x,0,0", "1,sqrt,0,1", "1,0,,1")),
    ("zero denominator", ("1/0,0,0,1",)),
    ("negative label", ("-1,0,0,0", "-1/2,1,0,0")),
)

#: probe kinds that fail on this code base for reasons already on the
#: ROADMAP: kind -> (the exact problem list ``probe_failures`` gives for
#: the recorded symptom, reason).  Any other failure is a regression.
KNOWN_DEFECTS = {
    "zero denominator": (
        ("traceback on stderr", "stderr does not echo the label"),
        "ROADMAP 4(a): parse_scalar lets ZeroDivisionError escape, so the "
        "CLI prints a traceback"),
    "negative label": (
        ("stderr does not echo the label",),
        "ROADMAP 4(b): argparse reads the label as an option and the error "
        "does not echo it"),
}


def malformed_probes(seed: int) -> List[Tuple[str, str, str]]:
    """One (kind, command, label) probe per malformed kind, seeded."""
    rng = random.Random(f"malformed:{seed}")
    return [(kind, rng.choice(LABEL_COMMANDS), rng.choice(labels))
            for kind, labels in MALFORMED]


# ---------------------------------------------------------------------------
# statistics


def median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def hd_median(xs: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta((n+1)/2, (n+1)/2) mass on [(i-1)/n, i/n].  The sample median
    of a few dozen requests of unequal cost jumps from one sample to its
    neighbour when two samples near the middle swap order; this estimate
    moves smoothly.
    """
    s = sorted(xs)
    n = len(s)
    if n < 2:
        return median(s)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def pdf(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta)

    steps = 64  # Simpson's rule on each [(i-1)/n, i/n]; even
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [pdf(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2])
                                + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, s)) / sum(weights)


def tail(xs: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, level in percent, sample count).  With ten or fewer
    samples no such percentile exists and the maximum is returned with
    level 100.
    """
    s = sorted(xs)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    i = n - 11
    return s[i], 100.0 * (i + 1) / n, n
