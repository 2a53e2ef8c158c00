"""Self-test of the benchmark's checks and metric names.

    python3 perfbench/selftest.py

Corrupted outputs (one flipped byte, a wrong N0, a broken OFF mesh, a
traceback) must be reported as failures; two runs on different seeds
(one of them never used while tuning) must report the same metric
names; ``BENCHMARK.json`` must list the metrics ``layers.py`` defines.
Exits nonzero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

from checks import (cli_failures, known_defect, label_failures,
                    off_failures, probe_failures, verify_failures)
from common import (EXPECTED, ROOT, child_env, hd_median, label_cycle,
                    tail, use_source_tree)
from layers import END_TO_END, PER_LAYER

HELD_OUT_SEED = 90210


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def check_verify() -> None:
    report = (EXPECTED / "verify_report.txt").read_text()
    expect(not verify_failures(report, report, 314159),
           "recorded verify report passes")
    expect(not verify_failures(report.replace("(seed 314159)", "(seed 5)"),
                               report, 5),
           "verify report with another seed passes")
    bad = flip(report.encode(), len(report) // 2).decode()
    expect(verify_failures(bad, report, 314159),
           "verify report with one flipped byte fails")


def check_cli() -> None:
    record = json.loads((EXPECTED / "cli.json").read_text())
    key = "fvector 1,0,0,1 text"
    proc = subprocess.run([sys.executable, "-m", "f4weyl", "fvector",
                           "1,0,0,1"], env=child_env(), cwd=ROOT,
                          capture_output=True)
    expect(not cli_failures(record[key], proc.returncode, proc.stdout,
                            proc.stderr), "recorded CLI output passes")
    expect(cli_failures(record[key], 0, flip(proc.stdout, 3), b""),
           "CLI output with one flipped byte fails")
    wrong = dict(record[key], sha256=record[key]["sha256"][::-1])
    expect(cli_failures(wrong, 0, proc.stdout, b""),
           "corrupted expected digest fails")
    expect(cli_failures(record[key], 1, proc.stdout, b""),
           "nonzero exit code fails")
    expect(probe_failures("1/0,0,0,1", 1,
                          b"Traceback (most recent call last):\n 1/0,0,0,1"),
           "malformed label with a traceback fails")
    expect(probe_failures("-1,0,0,0", 2, b"error: label is required"),
           "malformed label without echo fails")
    expect(not probe_failures("0,0,0,0", 1,
                              b"error for label (0,0,0,0): zero label"),
           "one-line echoing error passes")
    traceback = b"Traceback (most recent call last):\nZeroDivisionError"
    expect(known_defect("zero denominator",
                        probe_failures("1/0,0,0,1", 1, traceback)),
           "zero denominator with its recorded symptom is a known defect")
    expect(not known_defect("zero denominator",
                            probe_failures("1/0,0,0,1", 0, traceback)),
           "zero denominator that exits 0 is not excused")
    expect(not known_defect("zero denominator",
                            probe_failures("1/0,0,0,1", 0, b"")),
           "zero denominator that exits 0 silently is not excused")
    expect(known_defect("negative label",
                        probe_failures("-1,0,0,0", 2, b"error: label")),
           "negative label with its recorded symptom is a known defect")
    expect(not known_defect("negative label",
                            probe_failures("-1,0,0,0", 0, b"")),
           "negative label that is accepted is not excused")
    expect(not known_defect("bad literal",
                            probe_failures("1,2x,0,0", 1, traceback)),
           "a failing probe of another kind is not excused")


def check_labels() -> None:
    use_source_tree()
    import worker
    from f4weyl.orbits import stabilizer_order
    sys_f4 = worker.build_label_tables()
    pattern, entries = next((p, e) for p, e in label_cycle(1, 0)
                            if p == (1, 0, 0, 0))
    labels = worker.to_labels(entries)
    stab = stabilizer_order(sys_f4, labels)
    fv, orbit, b4, b3, layers, dual, off = worker.pipeline(sys_f4, labels)
    expect(not label_failures(stab, fv, orbit, b4, b3, layers, dual, off),
           f"random label {pattern} passes its invariants")
    wrong = dataclasses.replace(fv, n0=fv.n0 + 1)
    expect(label_failures(stab, wrong, orbit, b4, b3, layers, dual, off),
           "wrong N0 fails")
    expect(label_failures(stab * 2, fv, orbit, b4, b3, layers, dual, off),
           "wrong stabilizer order fails")
    expect(label_failures(stab, fv, orbit, b4[1:], b3, layers, dual, off),
           "missing B4 part fails")
    lines = off.splitlines()
    v, f, e = lines[1].split()
    broken = "\n".join([lines[0], f"{v} {f} {int(e) + 1}"] + lines[2:])
    expect(off_failures(broken), "OFF mesh with V-E+F != 2 fails")


def check_tail() -> None:
    expect(tail(list(range(100))) == (89, 90.0, 100),
           "tail of 100 samples is p90")
    expect(tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3),
           "tail of 3 samples is the maximum")
    expect(abs(hd_median([4.0, 1.0, 3.0, 2.0]) - 2.5) < 1e-9,
           "Harrell-Davis median of symmetric samples is their centre")
    expect(abs(hd_median([1.0, 2.0, 30.0]) - 9.0) < 1e-9,
           "Harrell-Davis median weights 7/27, 13/27, 7/27 for three samples")


def metric_names(seed: int) -> list:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    expect(proc.returncode == 0, f"cli-cold run on seed {seed} exits 0")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0,
           f"cli-cold run on seed {seed} is correct")
    return sorted(result["metrics"])


def check_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]]
           == [m[0] for m in END_TO_END],
           "BENCHMARK.json end_to_end matches layers.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [m[:3] for m in PER_LAYER],
           "BENCHMARK.json per_layer matches layers.PER_LAYER")
    expect(metric_names(1) == metric_names(HELD_OUT_SEED)
           == sorted(m[0] for m in END_TO_END),
           "a held-out seed reports the same metric names")


def main() -> None:
    check_tail()
    check_verify()
    check_cli()
    check_labels()
    check_names()
    print("selftest passed")


if __name__ == "__main__":
    main()
