"""No module of the package imports or defines a name that nothing reads.

No linter ships with the project, so these are small AST scans: every
name bound by a top-level ``import`` must appear as a name somewhere in
the module or be listed in its ``__all__``; every name a module defines
at top level must be read by the package or the benchmark harness; no
module imports ``typing``; and no test reads a name through a module
``__getattr__`` forwarder: the verify-only names that ``duals`` and
``branching`` forward to ``verify``, and ``cli``'s ``convex_faces``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import f4weyl

SRC = Path(f4weyl.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used - exported)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Dict, List\n"
              "from .quat import Quaternion\n__all__ = ['Quaternion']\n"
              "def f(x: List[int]):\n    return os.path.join(*x)\n")
    assert unused_imports(source) == ["Dict", "np"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def takes_lcm(source: str) -> bool:
    """Whether a module imports ``lcm`` from ``math`` or reads ``math.lcm``."""
    return any(isinstance(n, ast.ImportFrom) and n.module == "math"
               and any(a.name == "lcm" for a in n.names)
               or isinstance(n, ast.Attribute) and n.attr == "lcm"
               for n in ast.walk(ast.parse(source)))


def test_only_scalar_takes_an_lcm():
    # scalar.over_lcm is the one flattening of FieldScalars into Z[sqrt2]
    # integer rows over one denominator; no other module keeps a copy
    assert takes_lcm("from math import gcd, lcm\n")
    assert takes_lcm("import math\nd = math.lcm(2, 3)\n")
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if takes_lcm(p.read_text())] == ["scalar.py"]


def imports_typing(source: str) -> bool:
    """Whether a module imports ``typing`` anywhere, at top level or not."""
    return any(isinstance(n, ast.Import)
               and any(a.name.split(".")[0] == "typing" for a in n.names)
               or isinstance(n, ast.ImportFrom) and n.level == 0
               and n.module.split(".")[0] == "typing"
               for n in ast.walk(ast.parse(source)))


def test_no_module_imports_typing():
    # builtin generics, X | Y and collections.abc cover every annotation,
    # and typing costs a cold command several ms
    assert imports_typing("from typing import Dict\n")
    assert imports_typing("def f():\n    import typing.re\n")
    assert not imports_typing("from collections.abc import Sequence\n")
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if imports_typing(p.read_text())] == []


def defined_names(source: str):
    """The names a module binds at top level by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def read_names(source: str, strings=False):
    """The names a module reads: loaded names, attributes and imports, and
    with ``strings`` every string constant (the harness binds by strings)."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            read |= {a.name for a in n.names}
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str):
            read.add(n.value)
    return read


def test_scan_finds_defined_and_read_names():
    source = ("X = 1\nY, Z = X, 2\nW: int = 3\n__all__ = []\n"
              "def f():\n    v = 4\nclass C:\n    u = 5\n")
    assert defined_names(source) == ["X", "Y", "Z", "W", "__all__", "f", "C"]
    source = "from m import a\nb.c = d\ne = 'g'\n"
    assert read_names(source) == {"a", "b", "c", "d"}
    assert read_names(source, strings=True) == {"a", "b", "c", "d", "g"}


def test_every_top_level_name_is_read_by_src_or_the_harness():
    # a name that only tests read belongs in the tests; a dunder is read by
    # the interpreter
    read = set()
    for path in SRC.glob("*.py"):
        read |= read_names(path.read_text())
    for path in BENCH.rglob("*.py"):
        read |= read_names(path.read_text(), strings=True)
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in defined_names(path.read_text())
              if name not in read
              and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []


#: the verify-only names that moved out of duals and branching, and the
#: ones a module ``__getattr__`` still resolves for perfbench's tracer
#: (cli's forwards to duals)
MOVED = {"duals": ("CellFamily", "cells_at_vertex", "cell_metrics",
                   "kite_face", "cell_vertices_for_center", "_dist_sq"),
         "branching": ("verify_b4_branching", "verify_b3a1_slices")}
FORWARDED = {"duals": ("cells_at_vertex", "cell_metrics", "kite_face"),
             "branching": ("verify_b4_branching", "verify_b3a1_slices"),
             "cli": ("convex_faces",)}
TESTS = Path(__file__).resolve().parent


def forwarded_reads(source: str):
    """The forwarded names a module imports from a forwarding module, or
    reads off one (as an attribute or by ``getattr``)."""
    tree = ast.parse(source)
    modules = {}  # a local name bound to a forwarding module -> its stem
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module:
            stem = n.module.rsplit(".", 1)[-1]
            for a in n.names:
                if a.name in FORWARDED.get(stem, ()):
                    found.append(f"{stem}.{a.name}")
                elif a.name in FORWARDED:
                    modules[a.asname or a.name] = a.name
        elif isinstance(n, ast.Import):
            for a in n.names:
                stem = a.name.rsplit(".", 1)[-1]
                if stem in FORWARDED and a.asname:
                    modules[a.asname] = stem

    def stem_of(node):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        return node.attr if isinstance(node, ast.Attribute) \
            and node.attr in FORWARDED else None

    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            stem, name = stem_of(n.value), n.attr
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "getattr" and len(n.args) > 1 \
                and isinstance(n.args[1], ast.Constant):
            stem, name = stem_of(n.args[0]), n.args[1].value
        else:
            continue
        if name in FORWARDED.get(stem, ()):
            found.append(f"{stem}.{name}")
    return sorted(found)


def test_scan_finds_forwarded_reads():
    source = ("from f4weyl.duals import dual_cell, kite_face\n"
              "from f4weyl import branching, duals as d\n"
              "import f4weyl.branching as b\n"
              "d.cell_metrics(1)\nd.dual_cell(1)\nb.verify_b3a1_slices\n"
              "getattr(branching, 'verify_b4_branching')\n"
              "f4weyl.duals.cells_at_vertex\n"
              "from f4weyl.verify import kite_face\nverify.cell_metrics\n"
              "from f4weyl.cli import convex_faces, export_off\n"
              "from f4weyl.duals import convex_faces\n")
    assert forwarded_reads(source) == [
        "branching.verify_b3a1_slices", "branching.verify_b4_branching",
        "cli.convex_faces", "duals.cell_metrics", "duals.cells_at_vertex",
        "duals.kite_face"]


def test_no_test_reads_a_forwarded_name():
    # the tests read the moved names from verify and convex_faces from
    # duals; only the harness reads them through the forwarders, which go
    # with its tracer edit
    assert {p.name: forwarded_reads(p.read_text())
            for p in sorted(TESTS.glob("*.py"))
            if forwarded_reads(p.read_text())} == {}


def test_moved_names_are_defined_in_verify_alone():
    verify_names = defined_names((SRC / "verify.py").read_text())
    for stem, names in MOVED.items():
        assert set(names) <= set(verify_names), stem
        assert not set(names) & set(defined_names(
            (SRC / f"{stem}.py").read_text())), stem


@pytest.mark.parametrize("stem", sorted(MOVED))
def test_forwarders_hand_out_verify_objects(stem):
    # the tracer rebinds the object it reads here in every module that
    # binds it, so reading verify's own object reaches verify's call sites
    from f4weyl import verify
    module = importlib.import_module(f"f4weyl.{stem}")
    for name in FORWARDED[stem]:
        assert getattr(module, name) is getattr(verify, name), name
    for name in set(MOVED[stem]) - set(FORWARDED[stem]):
        assert not hasattr(module, name), name
    with pytest.raises(AttributeError):
        module.nope
    with pytest.raises(ImportError):
        exec(f"from f4weyl.{stem} import nope", {})


def test_cli_forwarder_hands_out_the_duals_object():
    # convex_faces lives in duals: cli forwards to it, not to verify
    from f4weyl import duals
    module = importlib.import_module("f4weyl.cli")
    for name in FORWARDED["cli"]:
        assert getattr(module, name) is getattr(duals, name), name
    with pytest.raises(AttributeError):
        module.nope
