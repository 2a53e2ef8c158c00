"""The command table: a payload builder per subcommand, and its parser.

``verify`` runs the invariant battery, ``orbit``/``fvector`` generate a
polytope and report counts, ``branch-b4``/``branch-b3a1`` print the
branching tables in the notation of the published appendices,
``project`` prints the exact 3D layer decomposition, ``dual`` reports
dual scales/shells/cell and ``export`` writes the dual cell as an OFF
mesh.  Each builder returns its JSON payload and the text lines rendered
from it (no other module renders text), and imports what it runs when it
runs: a cold process loads only those layers, and a name rebound in its
own module is the one called.  Only ``cli.main`` loads this module.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .rootsys import format_labels, f4_system
from .scalar import pair_values


def _inventory(entries) -> list[dict]:
    return [{"nodes": list(e.nodes), "name": e.name, "count": e.count}
            for e in entries]


def _cmd_verify(args):
    from . import verify  # the battery and its tables load for verify only
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(seed=seed)
    payload = {
        "seed": seed,
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                   for r in results],
        "ok": all(r.ok for r in results),
    }
    if args.timings:
        payload["timings"] = {r.name: r.seconds for r in results}
    return payload, [verify.format_report(results, args.timings)]


def _cmd_fvector(args):
    from .orbits import f_vector
    fv = f_vector(f4_system(), args.label)
    payload = {
        "label": format_labels(fv.labels),
        "N0": fv.n0, "N1": fv.n1, "N2": fv.n2, "N3": fv.n3,
        "face_inventory": _inventory(fv.faces),
        "cell_inventory": _inventory(fv.cells),
    }
    lines = [f"{payload['label']}  N0={fv.n0} N1={fv.n1} N2={fv.n2} N3={fv.n3}"]
    for title, entries in (("faces:", fv.faces), ("cells:", fv.cells)):
        lines.append(title)
        lines.extend(f"  {e.count} x {e.name}  "
                     f"(nodes {','.join(map(str, e.nodes))})" for e in entries)
    return payload, lines


def _cmd_orbit(args):
    from .orbits import generate_orbit
    from .quat import _render  # the one command that renders quaternions
    orbit = generate_orbit(f4_system(), args.label)
    payload, _ = _cmd_fvector(args)
    rows = sorted(orbit.rows)  # the order of orbit.vertices
    text = {xy: str(v) for xy, v in pair_values(rows, orbit.den).items()}
    payload["vertices"] = [[text[r[k:k + 2]] for k in (0, 2, 4, 6)]
                           for r in rows]
    lines = [f"{payload['label']}  {orbit.size} vertices"]
    return payload, lines + [_render(v) for v in payload["vertices"]]


def _cmd_branch_b4(args):
    from .branching import branch_b4
    payload = {
        "label": format_labels(args.label),
        "parts": [{"labels": format_labels(p.labels), "size": p.size}
                  for p in branch_b4(args.label)],
    }
    return payload, [payload["label"] + "_F4 = " + " + ".join(
        p["labels"] + "_B4" for p in payload["parts"])]


def _cmd_branch_b3a1(args):
    from .branching import branch_b3a1
    payload = {
        "label": format_labels(args.label),
        "slices": [{"labels": format_labels(s.labels),
                    "height": str(s.height),
                    "size": s.size,
                    "paired": s.paired} for s in branch_b3a1(args.label)],
    }
    lines = [payload["label"] + "_F4 ="]
    lines.extend("  %s_B3 %s %s  (%d %s%s)" % (
        s["labels"], "+/-" if s["paired"] else "at", s["height"], s["size"],
        "vertex" if s["size"] == 1 else "vertices",
        " each" if s["paired"] else "") for s in payload["slices"])
    return payload, lines


def _cmd_project(args):
    from .branching import project_3d
    layers = project_3d(args.label, args.scale)
    text = {c: str(c) for c in {c for _, pts in layers for p in pts for c in p}}
    payload = {
        "label": format_labels(args.label),
        "scale": str(args.scale),
        "layers": [{"height": str(h),
                    "points": [[text[c] for c in p] for p in pts]}
                   for h, pts in layers],
    }
    lines = [f"{payload['label']} at scale {args.scale}: {len(layers)} layers"]
    for layer in payload["layers"]:
        n = len(layer["points"])
        lines.append(f"h = {layer['height']}  ({n} "
                     f"{'point' if n == 1 else 'points'})")
        lines.extend("  (" + ",".join(p) + ")" for p in layer["points"])
    return payload, lines


def _cmd_dual(args):
    from .duals import dual_cell, dual_polytope
    dual = dual_polytope(f4_system(), args.label)
    cell = dual_cell(f4_system(), args.label)
    rows = [{"node": node, "coords": [str(u) for u in triple]}
            for node, triple in cell.rows()]
    count, _, _, cells = dual.f_tuple
    payload = {
        "label": format_labels(dual.source),
        "vertex_count": count,
        "cell_count": cells,
        "scales": [{"node": s.node, "scale": str(s.scale)}
                   for s in dual.shells],
        "shells": [{"node": s.node, "size": s.size,
                    "radius_sq": str(s.radius_sq),
                    "radius": math.sqrt(float(s.radius_sq))}
                   for s in dual.shells],
        "cell": {"row_scale": str(cell.row_scale), "vertices": rows},
    }
    lines = [f"dual of {payload['label']}: {count} vertices, "
             f"{cells} cells",
             "scales: " + ", ".join(f"node{s.node} = {s.scale}"
                                    for s in dual.shells),
             "shells:"]
    lines.extend(f"  node {s['node']}: {s['size']} vertices, radius^2 = "
                 f"{s['radius_sq']} ({s['radius']:.6f})"
                 for s in payload["shells"])
    lines.append(f"cell vertices (rows scaled by {cell.row_scale}):")
    lines.extend(f"  node {r['node']}: (" + ",".join(r["coords"]) + ")"
                 for r in rows)
    return payload, lines


def _cmd_export(args):
    from .cli import export_off
    from .duals import dual_cell
    cell = dual_cell(f4_system(), args.label)
    return None, export_off([u for _, u in cell.rows()]).splitlines()


COMMANDS = {
    "verify": (_cmd_verify, "run the full invariant battery"),
    "orbit": (_cmd_orbit, "orbit vertices and counts"),
    "fvector": (_cmd_fvector, "vertex/edge/face/cell counts and inventories"),
    "branch-b4": (_cmd_branch_b4, "split into signed-permutation orbits"),
    "branch-b3a1": (_cmd_branch_b3a1,
                    "slice into octahedral orbits by height"),
    "project": (_cmd_project, "exact 3D layer decomposition"),
    "dual": (_cmd_dual, "dual polytope: scales, shells, cell"),
    "export": (_cmd_export, "OFF mesh of the dual cell"),
}


def build_parser():
    import argparse  # help, usage errors and what _table_parse defers

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # one line, without the usage block
            self.exit(2, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="f4weyl",
        description="exact F4 orbit polytopes, branchings and duals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # a value such as -1,0,0,0, -x or --1 is an argument, not an option
        # ("--" then a letter, "_" or "-" is one): the validator names it
        p._negative_number_matcher = re.compile(r"-(?!-[A-Za-z_-])")
        if name == "verify":
            p.add_argument("--seed", default=None,
                           help="seed for the randomized property checks")
        else:
            p.add_argument("label", help="four comma-separated scalars, "
                                         "e.g. 1,0,0,1")
        formats = ("off",) if name == "export" else ("text", "json")
        p.add_argument("--format", choices=formats, default=formats[0])
        if name == "project":
            p.add_argument("--scale", default="1",
                           help="positive scalar applied to the orbit")
        p.add_argument("--output", default=None)
        if name == "verify":
            p.add_argument("--timings", action="store_true",
                           help="report the wall time of each check")
    return parser


# by command, the defaults of the options besides --format and --output
_DEFAULTS = {"verify": {"seed": None, "timings": False},
             "project": {"label": None, "scale": "1"}}


def _table_parse(argv: Sequence[str] | None) -> SimpleNamespace | None:
    """argparse's namespace for a command, its label and its ``--name value``
    options (``--timings`` bare), each at most once, no value "-" then a
    non-digit; None for any other argv, which argparse is left to read."""
    name, *words = (sys.argv[1:] if argv is None else argv) or [""]
    if name not in COMMANDS:
        return None
    formats = ("off",) if name == "export" else ("text", "json")
    args = {"format": formats[0], "output": None,
            **_DEFAULTS.get(name, {"label": None})}
    seen, words = set(), iter(words)
    for word in words:
        key = word[2:] if word[:2] == "--" else "label"
        value = (True if key == "timings" else word if key == "label"
                 else next(words, "--"))
        if key not in args or key in seen or re.match(r"-\D", str(value)):
            return None
        seen.add(key)
        args[key] = value
    ok = args["format"] in formats and args.get("label", "") is not None
    return SimpleNamespace(command=name, **args) if ok else None

