"""No module of the package imports a top-level name it never uses.

No linter ships with the project, so this is a small AST scan: every
name bound by a top-level ``import`` must appear as a name somewhere in
the module or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import f4weyl

SRC = Path(f4weyl.__file__).parent


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
