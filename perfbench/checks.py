"""Output checks.  Each returns a list of failure strings (empty = pass)."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from common import KNOWN_DEFECTS, WEYL_ORDER

VERIFY_SEED_TEXT = "(seed 314159)"


def verify_failures(report: str, expected: str, seed: int) -> List[str]:
    """The battery report must equal the recorded one, seed substituted."""
    want = expected.replace(VERIFY_SEED_TEXT, f"(seed {seed})")
    if report == want:
        return []
    got_lines, want_lines = report.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return [f"verify report line {i + 1}: {g!r} != {w!r}"]
    return [f"verify report has {len(got_lines)} lines, "
            f"expected {len(want_lines)}"]


def label_failures(stabilizer: int, fv, orbit, b4, b3, layers, dual,
                   off: str) -> List[str]:
    """Invariants of one random-labels pipeline result."""
    bad = []
    n0 = fv.n0
    if WEYL_ORDER % stabilizer or orbit.size != n0 \
            or n0 != WEYL_ORDER // stabilizer:
        bad.append(f"|orbit|={orbit.size} N0={n0} stabilizer={stabilizer}")
    if fv.n0 - fv.n1 + fv.n2 - fv.n3 != 0:
        bad.append(f"Euler fails for f-vector {fv.f_tuple()}")
    if sum(p.size for p in b4) != n0:
        bad.append(f"B4 parts sum to {sum(p.size for p in b4)}, N0={n0}")
    slices = sum(s.size * (2 if s.paired else 1) for s in b3)
    if slices != n0:
        bad.append(f"slices sum to {slices}, N0={n0}")
    if sum(len(pts) for _, pts in layers) != n0:
        bad.append(f"3d layers hold {sum(len(p) for _, p in layers)} points, "
                   f"N0={n0}")
    if len(dual.vertices) != fv.n3:
        bad.append(f"dual has {len(dual.vertices)} vertices, N3={fv.n3}")
    if tuple(dual.f_tuple) != tuple(reversed(fv.f_tuple())):
        bad.append(f"dual f-vector {dual.f_tuple} is not "
                   f"{fv.f_tuple()} reversed")
    bad.extend(off_failures(off))
    return bad


def off_failures(text: str) -> List[str]:
    lines = text.splitlines()
    try:
        if lines[0] != "OFF":
            return ["OFF header missing"]
        v, f, e = (int(x) for x in lines[1].split())
    except (IndexError, ValueError):
        return ["OFF counts line unreadable"]
    if len(lines) != 2 + v + f:
        return [f"OFF has {len(lines)} lines for V={v} F={f}"]
    if v - e + f != 2:
        return [f"OFF mesh V-E+F = {v - e + f}"]
    return []


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_failures(expected: Dict[str, object], code: int, stdout: bytes,
                 stderr: bytes) -> List[str]:
    """Exit code 0 and stdout byte-equal (by SHA-256) to the record."""
    bad = []
    if code != 0:
        bad.append(f"exit code {code}: {stderr.decode(errors='replace')[-200:]}")
    if len(stdout) != expected["bytes"] or digest(stdout) != expected["sha256"]:
        bad.append(f"stdout differs from the record ({len(stdout)} bytes, "
                   f"expected {expected['bytes']})")
    return bad


def probe_failures(label: str, code: int, stderr: bytes) -> List[str]:
    """A malformed label must exit nonzero with a one-line echoing error."""
    err = stderr.decode(errors="replace")
    bad = []
    if code == 0:
        bad.append("exit code 0")
    if "Traceback" in err:
        bad.append("traceback on stderr")
    if label not in err:
        bad.append("stderr does not echo the label")
    return bad


def known_defect(kind: str, problems: List[str]) -> Optional[str]:
    """The reason, if ``problems`` is exactly a known defect's symptom."""
    symptom, reason = KNOWN_DEFECTS.get(kind, (None, None))
    return reason if problems and tuple(problems) == symptom else None

