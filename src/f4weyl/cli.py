"""Console entry, and the label, scale and OFF helpers library callers use.

``main`` is the ``f4weyl`` command: it loads the command table
(``commands``) when it runs, so a process that imports ``parse_label``,
``parse_scale`` or ``export_off`` from here compiles no command code.

Output is deterministic: identical invocations produce byte-identical
text.  Labels are given as four comma-separated scalar literals, e.g.
``1,0,0,1`` or ``1+sqrt2,0,1/2,0``.
"""

from __future__ import annotations

import os
import re
import sys
from collections.abc import Sequence

from .rootsys import format_labels
from .scalar import FieldScalar, parse_scalar


def __getattr__(name: str):
    # cli.convex_faces resolves without loading duals at import: perfbench's
    # tracer spans it (ROADMAP item 1)
    if name != "convex_faces":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .duals import convex_faces
    return convex_faces


def parse_label(text: str) -> tuple[FieldScalar, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"label {text!r} must have four comma-separated entries")
    try:
        return tuple(parse_scalar(p.strip()) for p in parts)
    except ValueError as exc:
        raise ValueError(f"label {text!r}: {exc}") from None


def parse_scale(text: str) -> FieldScalar:
    try:
        scale = parse_scalar(text)
        if scale.sign() <= 0:
            raise ValueError("must be positive")
    except ValueError as exc:
        raise ValueError(f"scale {text!r}: {exc}") from None
    return scale


# ---------------------------------------------------------------------------
# OFF meshes


def export_off(points: Sequence[tuple[FieldScalar, ...]]) -> str:
    """Render exact 3D points in convex position (each a vertex of their
    hull, as in every dual cell) as OFF text (17 significant digits)."""
    from . import duals  # per call, so a rebound duals.convex_faces is run
    pts = sorted(points)
    try:  # before the hull, which is slow on coordinates this long
        coords = [" ".join("%.17g" % float(c) for c in p) for p in pts]
    except OverflowError:
        raise OverflowError("OFF coordinate too large for a float") from None
    faces = duals.convex_faces(pts)
    edges = {frozenset((cycle[i - 1], cycle[i]))
             for cycle in faces for i in range(len(cycle))}
    lines = ["OFF", f"{len(pts)} {len(faces)} {len(edges)}", *coords]
    for cycle in faces:
        lines.append(" ".join([str(len(cycle))] + [str(m) for m in cycle]))
    return "\n".join(lines) + "\n"



def main(argv: Sequence[str] | None = None) -> int:
    from .commands import COMMANDS, _table_parse, build_parser
    args = _table_parse(argv) or build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse's "--name=--" before 3.13
            build_parser().error(f"argument --{name}: expected one argument")
    try:
        if getattr(args, "label", None) is not None:
            args.label = parse_label(args.label)
        if getattr(args, "scale", None) is not None:
            args.scale = parse_scale(args.scale)
        if getattr(args, "seed", None) is not None:
            if not re.fullmatch(r"-?[0-9]+", args.seed):  # not int(): ASCII
                raise ValueError(f"seed {args.seed!r} must be an integer")
            args.seed = int(args.seed)
    except ValueError as exc:
        build_parser().error(str(exc))
    # a computed value may have more digits than a literal may: lift the
    # int-to-str limit (Python 3.10.7 on) while the command renders them
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        payload, lines = COMMANDS[args.command][0](args)
    except (ValueError, ArithmeticError) as exc:
        label = getattr(args, "label", None)
        where = f" for label {format_labels(label)}" if label else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return 1
    finally:
        set_limit(limit)
    if args.format == "json":
        import json
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    # verify is the one command whose payload carries "ok"
    code = 0 if payload is None or payload.get("ok", True) else 1
    try:
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        elif sys.stdout is None:  # started with fd 1 closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write {args.output or 'stdout'}: {exc}",
              file=sys.stderr)
        if not args.output:  # keep the interpreter's final flush quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        return 1
    return code
