"""Fresh-process side of the benchmark.

Each subcommand runs in its own interpreter, started by ``run.py``, and
prints one JSON object on its last stdout line (``cli`` excepted: there
stdout belongs to the program and the trace goes to ``--trace-out``).
Timed calls go through ``SpeedSampler.measure`` and are reported as
(seconds, scaled seconds) pairs.

    worker.py setup --workload W        the set-up a user pays
    worker.py verify --seed N ...       one cold, traced verify battery
    worker.py labels --seed N --cycle C one random-labels cycle
    worker.py micro --seed N            per-op times of scalar/quat/binocta
    worker.py cli --trace-out P -- ARGS one traced ``f4weyl`` invocation
"""

from __future__ import annotations

import argparse
import json
import operator
import random
import sys
import time
from pathlib import Path

from common import (STRATA, label_cycle, median, tail, use_source_tree)
from speed import SpeedSampler

use_source_tree()


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _write_trace(tracer, path: str, extra=None) -> None:
    out = Path(path)
    tracer.dump(out.with_suffix(".spans.jsonl"))
    payload = {"totals": tracer.totals(), "cache": tracer.cache_snapshot()}
    payload.update(extra or {})
    out.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# set-up


def build_label_tables():
    """Everything every random label needs, built through public calls."""
    import itertools
    from f4weyl.binocta import build_group
    from f4weyl.orbits import parabolic_elements
    from f4weyl.rootsys import b3r_system, b4_system, f4_system
    systems = (f4_system(), b4_system(), b3r_system())
    for name in ("WF4", "AutF4", "WB4", "WB3R", "WB3R_C2", "WB3L_C2"):
        build_group(name)
    for sys_ in systems:
        for r in range(sys_.rank):  # proper subsets: stabilizers of labels
            for nodes in itertools.combinations(range(sys_.rank), r):
                parabolic_elements(sys_.name, frozenset(nodes))
    return systems[0]


def _setup(workload: str) -> None:
    import f4weyl.cli  # noqa: F401
    if workload == "random-labels":
        build_label_tables()


def cmd_setup(args) -> None:
    _, raw, scaled = SpeedSampler().measure(_setup, args.workload)
    _emit({"time": [raw, scaled]})


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> None:
    from f4weyl import verify
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    results = verify.run_all(args.seed)
    report = verify.format_report(results) + "\n"  # as ``f4weyl verify``
    _write_trace(tracer, args.trace_out, {"ops": 1})
    _emit({"report": report, "ok": all(r.ok for r in results)})


# ---------------------------------------------------------------------------
# random labels


def to_labels(entries):
    from f4weyl.scalar import FieldScalar
    return tuple(FieldScalar(a, b) for a, b in entries)


def pipeline(sys_f4, labels):
    """The per-label request: every public stage a user would chain."""
    from f4weyl.branching import branch_b3a1, branch_b4, project_3d
    from f4weyl.cli import export_off
    from f4weyl.duals import dual_cell, dual_polytope
    from f4weyl.orbits import f_vector, generate_orbit
    fv = f_vector(sys_f4, labels)
    orbit = generate_orbit(sys_f4, labels)
    b4 = branch_b4(labels)
    b3 = branch_b3a1(labels)
    layers = project_3d(labels)
    dual = dual_polytope(sys_f4, labels)
    cell = dual_cell(sys_f4, labels)
    off = export_off([triple for _, triple in cell.coords])
    return fv, orbit, b4, b3, layers, dual, off


def _attempt(fn, *args):
    """fn(*args), or the ValueError/ArithmeticError it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return exc


def cmd_labels(args) -> None:
    """One cycle of ``args.seed`` in this fresh process.

    The orbit cache keeps every orbit the process builds, so a worker
    runs exactly one cycle: its peak memory is per cycle, whatever the
    speed.  The runner starts workers until its time is used up.
    """
    from checks import label_failures
    from f4weyl.orbits import stabilizer_order
    sys_f4 = build_label_tables()
    sampler = SpeedSampler()
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        cache0 = tracer.cache_snapshot()
    times, failures = [], []  # failures: one (pattern, problems) per label
    for pattern, entries in label_cycle(args.seed, args.cycle):
        labels = to_labels(entries)
        if tracer:
            tracer.op = len(times)
        result, raw, scaled = sampler.measure(_attempt, pipeline, sys_f4,
                                              labels)
        times.append((raw, scaled))
        if isinstance(result, Exception):
            failures.append((pattern, [f"{type(result).__name__}: "
                                       f"{result}"]))
            continue
        bad = label_failures(stabilizer_order(sys_f4, labels), *result)
        if bad:
            failures.append((pattern, bad))
    if tracer:
        cache1 = tracer.cache_snapshot()
        _write_trace(tracer, args.trace_out, {
            "ops": len(times),
            "cache": {k: cache1[k] - cache0[k] for k in cache0}})
    _emit({"times": times, "failures": failures,
           "pool_mb": sampler.pool_mb()})


# ---------------------------------------------------------------------------
# micro section


def harvest(seed: int):
    """Operands from seeded random-labels orbits of the smallest stratum."""
    from f4weyl.binocta import build_group, sorted_elements
    from f4weyl.orbits import generate_orbit
    from f4weyl.rootsys import f4_system
    sys_f4 = f4_system()
    small = set(STRATA[0])
    verts = []
    for pattern, entries in label_cycle(seed, 0):
        if pattern in small:
            verts.extend(generate_orbit(sys_f4, to_labels(entries)).vertices)
    scalars = sorted({c for v in verts for c in v.components()
                      if not c.is_zero()}, key=lambda c: (c.a, c.b))
    rng = random.Random(f"micro:{seed}")
    rng.shuffle(scalars)
    elements = rng.sample(sorted_elements(build_group("WF4")), 64)
    return scalars, verts, elements


BATCHES = 100


def time_batches(op, operands, batch: int, batches: int = BATCHES):
    """Per-op nanoseconds of each batch, after one warm-up batch."""
    per = []
    n = len(operands)
    for b in range(batches + 1):
        chunk = [operands[(b * batch + i) % n] for i in range(batch)]
        t0 = time.perf_counter_ns()
        for args in chunk:
            op(*args)
        dt = time.perf_counter_ns() - t0
        if b:
            per.append(dt / batch)
    return per


def cmd_micro(args) -> None:
    from f4weyl.binocta import GroupElement
    from f4weyl.scalar import FieldScalar
    scalars, verts, elements = harvest(args.seed)
    rng = random.Random(f"micro-pairs:{args.seed}")
    pairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(512)]
    qpairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(256)]
    gpairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(256)]
    gv = [(rng.choice(elements), rng.choice(verts)) for _ in range(256)]
    cases = {
        "scalar.mul": (operator.mul, pairs, 20),
        "scalar.add": (operator.add, pairs, 20),
        "scalar.div": (operator.truediv, pairs, 10),
        "scalar.sign": (FieldScalar.sign, [(x,) for x, _ in pairs], 50),
        "scalar.hash": (hash, None, 50),
        "quat.mul": (operator.mul, qpairs, 4),
        "binocta.compose": (GroupElement.compose, gpairs, 2),
        "binocta.apply": (GroupElement.apply, gv, 2),
    }
    out = {}
    for name, (op, operands, batch) in cases.items():
        if operands is None:  # hashes are cached per object: hash new copies
            copies = -(-batch * (BATCHES + 1) // len(scalars))
            operands = [(FieldScalar(x.a, x.b),) for x in scalars * copies]
        per = time_batches(op, operands, batch)
        out[name + "_ns"] = median(per)
        out[name + "_tail_ns"] = tail(per)[0]
    _emit({"micro": out, "operands": {"scalars": len(scalars),
                                      "vertices": len(verts)}})


# ---------------------------------------------------------------------------
# traced CLI invocation


def cmd_cli(args) -> None:
    import atexit
    import runpy
    import f4weyl.cli  # noqa: F401  (import before wrapping)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    atexit.register(_write_trace, tracer, args.trace_out, {"ops": 1})
    sys.argv = ["f4weyl"] + args.argv
    runpy.run_module("f4weyl", run_name="__main__", alter_sys=True)


def main() -> None:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p = sub.add_parser("verify")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-out", required=True)
    p = sub.add_parser("labels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycle", type=int, required=True)
    p.add_argument("--trace-out")
    p = sub.add_parser("micro")
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace-out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.cmd == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {"setup": cmd_setup, "verify": cmd_verify, "labels": cmd_labels,
     "micro": cmd_micro, "cli": cmd_cli}[args.cmd](args)


if __name__ == "__main__":
    main()
