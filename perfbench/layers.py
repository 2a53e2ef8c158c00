"""Every metric the benchmark reports, with unit, direction and prediction.

``END_TO_END`` is what the timed run prints (``--trace 0``); ``PER_LAYER``
is what the traced run prints (``--trace 1``).  Each per-layer entry names
the end-to-end metrics and workloads it should move, and where no move
is predicted.  ``BENCHMARK.json`` lists the same
names; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import slug

# name, unit, better, meaning per workload
END_TO_END: Tuple[Tuple[str, str, str, str], ...] = (
    ("setup_s", "s", "lower",
     "fresh-process import of f4weyl.cli (cli-cold); for random-labels "
     "also the systems, six groups and parabolic subgroups; median of "
     "several fresh processes"),
    ("op_p50_s", "s", "lower",
     "median time of one request (Harrell-Davis estimate): one label "
     "pipeline (label_p50_s), one CLI process (cli_p50_s)"),
    ("ops_per_s", "1/s", "higher",
     "requests completed per second in the closed loop (labels_per_s on "
     "random-labels)"),
    ("peak_rss_mb", "MB", "lower",
     "largest resident set of one request's process: a label worker "
     "running one cycle, or one CLI process"),
)

# per-workload names printed beside the generic ones
ALIASES = {
    "random-labels": {"op_p50_s": "label_p50_s", "ops_per_s": "labels_per_s"},
    "cli-cold": {"op_p50_s": "cli_p50_s", "ops_per_s": "cli_calls_per_s"},
}

CHECK_TITLES = (
    "group orders", "octet coset table", "reflection presentation",
    "f-vectors and Euler", "signed-permutation branching",
    "octahedral slicing", "3d layer decompositions", "dual scale factors",
    "dual vertex shells", "dual-cell local coordinates",
    "trapezohedron kite", "24-cell self-duality",
    "orbit-stabilizer products", "reflection forms", "geometric edge count",
)

RL, CLI = "random-labels", "cli-cold"


def _span_metrics(module: str, funcs, moves, no_move) -> List[tuple]:
    out = []
    for f in funcs:
        out.append((f"{module}.{f}.calls", "count/op", "lower", moves, no_move))
        out.append((f"{module}.{f}.self_s", "s/op", "lower", moves, no_move))
    return out


def _micro(prefix: str, ops, moves, no_move) -> List[tuple]:
    out = []
    for op in ops:
        out.append((f"{prefix}.{op}_ns", "ns", "lower", moves, no_move))
        out.append((f"{prefix}.{op}_tail_ns", "ns", "lower", moves, no_move))
    return out


_LABELS = ((RL, "ops_per_s"), (RL, "op_p50_s"))
_TABLES = ((RL, "setup_s"), (CLI, "op_p50_s"))
_CLI = ((CLI, "op_p50_s"), (CLI, "setup_s"))

# name, unit, better, should move [(workload, metric)], predicted no move
PER_LAYER: Tuple[Tuple[str, str, str, tuple, str], ...] = tuple(
    _micro("scalar", ("mul", "add", "div", "sign", "hash"), _LABELS,
           "cli-cold op_p50_s on small labels")
    + [("scalar.ops", "count/op", "lower", _LABELS,
        "cli-cold op_p50_s on small labels")]
    + _micro("quat", ("mul",), _LABELS, "setup_s")
    + [("quat.mul_calls", "count/op", "lower", _LABELS, "setup_s")]
    + _span_metrics("binocta", ("build_group", "generate_from",
                                "coset_decompose", "subset_product_table"),
                    _TABLES, "random-labels ops_per_s after set-up")
    + [("binocta.compose_calls", "count/op", "lower", _TABLES,
        "random-labels ops_per_s after set-up"),
       ("binocta.apply_calls", "count/op", "lower", _LABELS, "setup_s")]
    + _micro("binocta", ("compose", "apply"), _TABLES,
             "random-labels ops_per_s after set-up")
    + [("binocta.compose_per_element", "ratio", "lower", _TABLES,
        "random-labels ops_per_s after set-up")]
    + _span_metrics("rootsys", ("dominant_representative",), _LABELS,
                    "cli-cold op_p50_s")
    + _span_metrics("orbits", ("generate_orbit", "parabolic_elements",
                               "f_vector", "geometric_edge_check"),
                    _LABELS,
                    "cli-cold op_p50_s except orbits of large labels")
    + [("orbits.vertices_per_s", "1/s", "higher", _LABELS,
        "cli-cold op_p50_s except orbits of large labels"),
       ("orbits.apply_per_vertex", "ratio", "lower", _LABELS,
        "cli-cold op_p50_s except orbits of large labels"),
       ("orbits.orbit_cache_hit_ratio", "ratio", "higher", _LABELS,
        "cli-cold (one request per process)")]
    + _span_metrics("branching", ("branch_b4", "branch_b3a1", "project_3d",
                                  "verify_b4_branching",
                                  "verify_b3a1_slices"),
                    _LABELS, "setup_s")
    + [("branching.cache_hit_ratio", "ratio", "higher", _LABELS, "setup_s")]
    + _span_metrics("duals", ("cells_at_vertex", "solve_scales",
                              "dual_polytope", "dual_cell", "cell_metrics",
                              "kite_face"),
                    ((RL, "ops_per_s"), (CLI, "op_p50_s")), "setup_s")
    # per-check times of one traced battery (random-labels traced run);
    # no gated workload runs the battery, see README.md
    + [(f"verify.{slug(t)}_s", "s", "lower", (), "every gated metric")
       for t in CHECK_TITLES]
    + [("cli.interpreter_s", "s", "lower", _CLI, "random-labels ops_per_s"),
       ("cli.import_s", "s", "lower", _CLI, "random-labels ops_per_s")]
    + _span_metrics("cli", ("main", "parse_label", "convex_faces",
                            "export_off"),
                    _CLI, "random-labels ops_per_s")
    + [("cli.malformed_failed_frac", "ratio", "lower", (),
        "every timing (it counts failing malformed-label probes)"),
       ("trace.overhead_frac", "ratio", "lower", (),
        "every timing (tracing is off in timed runs)")]
)


def units() -> Dict[str, str]:
    out = {m[0]: m[1] for m in END_TO_END}
    out.update({m[0]: m[1] for m in PER_LAYER})
    return out
