"""f4weyl benchmark: one command, two workloads, every output checked.

    python3 perfbench/run.py --workload {random-labels,cli-cold}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  Each workload is a closed loop with
one client: the next request starts when the previous one has finished,
and the program only ever sees the inputs generated from ``--seed``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once with the span
tracer of ``tracer.py`` installed, and reports the per-layer metrics of
``layers.py`` plus ``trace.overhead_frac``; the random-labels traced run
also traces one ``verify`` battery for the per-check times.

Every time is scaled to a reference machine speed by
``speed.SpeedSampler``: inside the worker for set-up, labels and the
traced verify battery, and by probe bursts right before and after each
CLI request.  The unscaled medians are printed beside the scaled ones.

Human-readable lines go to stdout first; the last stdout line is the
JSON result.  The exit code is nonzero when an output check fails or
the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import cli_failures, known_defect, probe_failures, verify_failures
from common import (BENCH_DIR, EXPECTED, OUT, ROOT, SRC,
                    WORKLOADS, child_env, cli_argv, cli_deck,
                    hd_median, malformed_probes, median, pattern_text,
                    tail)
from layers import ALIASES, END_TO_END, PER_LAYER, units
from speed import SpeedSampler

WORKER = str(BENCH_DIR / "worker.py")
SETUP_REPEATS = {"random-labels": 5, "cli-cold": 11}
TIMEOUT_S = 170


class ChildTimeout(Exception):
    pass


def _on_timeout(signum, frame):
    raise ChildTimeout


class Run:
    """State of one benchmark run: outcomes, failures, printed notes."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.known: List[str] = []
        self.raw: List[float] = []  # unscaled request times
        self.peak_mb = 0.0  # largest resident set of any request's process
        self.pool_mb = 0.0  # of which the speed probe's pool holds
        self.sampler = SpeedSampler()
        self.expected_cli = json.loads((EXPECTED / "cli.json").read_text())
        self.expected_report = (EXPECTED / "verify_report.txt").read_text()

    # -- children ------------------------------------------------------------

    def child(self, argv: List[str], timeout: int = TIMEOUT_S):
        """Run one child to completion.

        Returns (code, stdout, stderr, wall seconds, peak MB), where the
        peak is the child's own largest resident set, from ``wait4``.
        """
        with tempfile.TemporaryFile(dir=OUT) as out, \
                tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, _on_timeout)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{argv[:4]} ran over {timeout} s")
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read(), err.read(), wall,
                    usage.ru_maxrss / 1024)

    def keep(self, raw: float, scaled: float) -> float:
        """Return a request's scaled time; keep the unscaled one."""
        self.raw.append(raw)
        return scaled

    def worker(self, *args: str) -> Tuple[dict, float]:
        """A worker's result line and its peak MB."""
        code, out, err, _, peak = self.child([sys.executable, WORKER, *args])
        if code != 0:
            raise RuntimeError(f"worker {args[0]} exited {code}: "
                               + err.decode(errors="replace")[-2000:])
        return json.loads(out.decode().splitlines()[-1]), peak

    def check(self, what: str, problems: List[str]) -> None:
        """Count one attempted request and record its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)

    # -- pieces shared by both modes ----------------------------------------

    def setup_s(self, workload: str) -> float:
        times = [self.worker("setup", "--workload", workload)[0]["time"]
                 for _ in range(SETUP_REPEATS[workload])]
        self.raw_setup = median([raw for raw, _ in times])
        return median([scaled for _, scaled in times])

    def battery(self, seed: int, trace_out: Path) -> None:
        res, _ = self.worker("verify", "--seed", str(seed),
                             "--trace-out", str(trace_out))
        bad = verify_failures(res["report"], self.expected_report, seed)
        if not res["ok"]:
            bad.append("a check reported FAIL")
        self.check(f"verify seed {seed}", bad)

    def labels(self, cycle: int,
               trace_out: Optional[Path] = None) -> List[float]:
        """One random-labels cycle in a fresh worker."""
        args = ["labels", "--seed", str(self.seed), "--cycle", str(cycle)]
        if trace_out:
            args += ["--trace-out", str(trace_out)]
        res, peak = self.worker(*args)
        self.peak_mb = max(self.peak_mb, peak)
        self.pool_mb = res["pool_mb"]
        self.attempted += len(res["times"]) - len(res["failures"])
        for pattern, bad in res["failures"]:
            self.check(f"random-labels {tuple(pattern)}", bad)
        return [self.keep(*t) for t in res["times"]]

    def request(self, cmd: str, pattern, fmt: str,
                trace_out: Optional[Path] = None) -> float:
        label = pattern_text(pattern)
        argv = cli_argv(cmd, label, fmt)
        if trace_out:
            argv = [sys.executable, WORKER, "cli", "--trace-out",
                    str(trace_out), "--", *argv]
        else:
            argv = [sys.executable, "-m", "f4weyl", *argv]
        before = self.sampler.burst()
        code, out, err, wall, peak = self.child(argv)
        self.peak_mb = max(self.peak_mb, peak)
        scaled = self.sampler.scale(wall, before + self.sampler.burst())
        key = f"{cmd} {label} {fmt}"
        self.check(key, cli_failures(self.expected_cli[key], code, out, err))
        return self.keep(wall, scaled)

    def probes(self) -> float:
        """Malformed-label probes; returns the share that failed.

        A probe that fails with exactly the recorded symptom of a known
        defect (``KNOWN_DEFECTS``) is reported but not counted as failed;
        any other failing probe is a regression.
        """
        probes = malformed_probes(self.seed)
        failing = 0
        for kind, cmd, label in probes:
            code, _, err, _, _ = self.child(
                [sys.executable, "-m", "f4weyl", cmd, label])
            problems = probe_failures(label, code, err)
            failing += bool(problems)
            reason = known_defect(kind, problems)
            if reason:
                self.attempted += 1
                self.known.append(f"{cmd} {label}: {', '.join(problems)} "
                                  f"[{reason}]")
            else:
                self.check(f"malformed {kind}: {cmd} {label}", problems)
        return failing / len(probes)

    # -- the timed run ---------------------------------------------------------

    def timed(self) -> Dict[str, float]:
        setup = self.setup_s(self.workload)
        times, n, start = [], 0, time.perf_counter()
        while not times or time.perf_counter() - start < self.seconds:
            if self.workload == "random-labels":
                times += self.labels(n)
            else:
                times += [self.request(*r) for r in cli_deck(self.seed, n)]
            n += 1
        if self.workload == "cli-cold":
            self.probes()
        self.times = times
        return {"setup_s": setup, "op_p50_s": hd_median(times),
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": self.peak_mb}

    # -- the traced run ----------------------------------------------------------

    def traced(self) -> Dict[str, float]:
        trace_dir = OUT / f"{self.workload}-seed{self.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        micro, _ = self.worker("micro", "--seed", str(self.seed))
        metrics = dict(micro["micro"])
        metrics["cli.interpreter_s"] = median(
            [self.child([sys.executable, "-c", "pass"])[3] for _ in range(5)])
        metrics["cli.import_s"] = self.setup_s("cli-cold")
        metrics["cli.malformed_failed_frac"] = self.probes()

        traces: List[Path] = []
        if self.workload == "random-labels":
            plain = sum(self.labels(0))
            traces.append(trace_dir / "labels.json")
            traced = sum(self.labels(0, trace_out=traces[-1]))
        else:
            deck = cli_deck(self.seed, 0)
            plain = sum(self.request(*r) for r in deck)
            traced = 0.0
            for i, r in enumerate(deck):
                traces.append(trace_dir / f"request{i:02d}.json")
                traced += self.request(*r, trace_out=traces[-1])
        metrics["trace.overhead_frac"] = traced / plain - 1
        metrics.update(layer_metrics([json.loads(p.read_text())
                                      for p in traces]))
        if self.workload == "random-labels":
            # no gated workload runs the battery: trace one for the checks
            battery = trace_dir / "battery.json"
            seed = random.Random(f"verify:{self.seed}").randrange(10 ** 6)
            self.battery(seed, battery)
            checks = json.loads(battery.read_text())["totals"]
            metrics.update({name: checks.get(name, 0.0)
                            for name, *_ in PER_LAYER
                            if name.startswith("verify.")})
        return metrics


def layer_metrics(dumps: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from the tracers' raw totals, per request."""
    totals: Dict[str, float] = {}
    cache: Dict[str, int] = {}
    ops = 0
    for d in dumps:
        ops += d["ops"]
        for k, v in d["totals"].items():
            totals[k] = totals.get(k, 0) + v
        for k, v in d["cache"].items():
            cache[k] = cache.get(k, 0) + v

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for name, unit, _better, _moves, _no in PER_LAYER:
        if unit in ("count/op", "s/op"):
            out[name] = totals.get(name, 0) / ops
        elif name.startswith("verify."):
            out[name] = totals.get(name, 0.0) / ops
    out["binocta.compose_per_element"] = ratio(totals["closure_composes"],
                                               totals["closure_elements"])
    out["orbits.vertices_per_s"] = ratio(totals["orbit_miss_vertices"],
                                         totals["orbit_miss_s"])
    out["orbits.apply_per_vertex"] = ratio(totals["orbit_miss_applies"],
                                           totals["orbit_miss_vertices"])
    out["orbits.orbit_cache_hit_ratio"] = ratio(
        cache["orbit_hits"], cache["orbit_hits"] + cache["orbit_misses"])
    out["branching.cache_hit_ratio"] = ratio(
        cache["branch_hits"], cache["branch_hits"] + cache["branch_misses"])
    return out


# ---------------------------------------------------------------------------
# reporting


def stamp(args) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def summary(run: Run, metrics: Dict[str, float], traced: bool) -> List[str]:
    lines = []
    unit = units()
    aliases = ALIASES[run.workload]
    if not traced:
        for name, *_ in END_TO_END:
            alias = aliases.get(name)
            shown = f"{alias} ({name})" if alias else name
            lines.append(f"{shown} = {metrics[name]:.6g} {unit[name]}")
        value, level, n = tail(run.times)
        prefix = {"random-labels": "label", "cli-cold": "cli"}[run.workload]
        lines.append(f"{prefix}_tail_s = {value:.6g} s "
                     f"(p{level:.1f} of n={n}: the highest percentile with "
                     f"at least ten samples beyond it; the maximum when "
                     f"n <= 10; max = {max(run.times):.6g} s)")
        lines.append(f"unscaled: setup_s = {run.raw_setup:.6g} s, "
                     f"op_p50_s = {hd_median(run.raw):.6g} s")
        lines.append(f"sample median request = {median(run.times):.6g} s")
        if run.pool_mb:
            lines.append(f"peak_rss_mb includes the speed probe's pool of "
                         f"{run.pool_mb:.3g} MB in each label worker")
    else:
        for name, *_ in PER_LAYER:
            lines.append(f"{name} = {metrics[name]:.6g} {unit[name]}")
    failed = run.failed + len(run.known)
    lines.append(f"failed_frac = {failed / max(run.attempted, 1):.6g} "
                 f"({failed} of {run.attempted}; {len(run.known)} on known "
                 f"defects)")
    lines.extend(f"known defect: {k}" for k in run.known)
    lines.extend(f"FAILED: {f}" for f in run.failures[:50])
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "f4weyl" / "__init__.py",
                           EXPECTED / "cli.json",
                           EXPECTED / "verify_report.txt") if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from "
              "a checkout that holds the f4weyl sources", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds)
    # compile bytecode once, as an installed package would have it
    code, _, err, _, _ = run.child([sys.executable, "-c",
                                    "import f4weyl.cli"])
    if code != 0:
        print(err.decode(errors="replace"), file=sys.stderr)
        return 2

    print("stamp " + json.dumps(stamp(args)), flush=True)
    metrics = run.traced() if args.trace else run.timed()
    for line in summary(run, metrics, bool(args.trace)):
        print(line)
    names = ([m[0] for m in PER_LAYER] if args.trace
             else [m[0] for m in END_TO_END])
    unit = units()
    correct = not run.failures
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit[n]}
                    for n in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
