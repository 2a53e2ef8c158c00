"""Every ``f4weyl`` name the benchmark harness binds still resolves.

The traced run of ``perfbench`` wraps functions by (module, name) and its
worker imports entry points by name.  CI's ``--trace 1`` smoke runs stop
on a lost name too, but only after the suite, and a plain tier-1 run
never starts the harness; here the suite names the binding itself.  The
tracer needs only the standard library and is loaded from its file; the
worker is read with ``ast``, since importing it starts the harness.  The
tracer's rebinding reaches the command table whenever ``commands`` was
imported.
"""

import ast
import functools
import importlib
import importlib.util
import io
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from f4weyl.branching import _branch_b3a1, _branch_b4
from f4weyl.orbits import _orbit_cached
from f4weyl.scalar import FieldScalar

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _worker_imports():
    """(module, name) for every ``f4weyl`` import in the worker."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "f4weyl":
            out += [(node.module, a.name) for a in node.names]
    return out


@pytest.mark.parametrize("module,name", TRACER.SPANNED)
def test_spanned_function_resolves(module, name):
    assert callable(getattr(importlib.import_module("f4weyl." + module), name))


def test_scalar_dunders_resolve():
    assert [n for n in TRACER.SCALAR_DUNDERS
            if not callable(getattr(FieldScalar, n, None))] == []


def test_worker_imports_resolve():
    names = _worker_imports()
    assert ("f4weyl.cli", "export_off") in names
    missing = []
    for module, name in names:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:  # ``from f4weyl import verify`` names a submodule
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append((module, name))
    assert missing == []


def test_traced_caches_expose_cache_info():
    for cached in (_orbit_cached, _branch_b4, _branch_b3a1):
        assert callable(cached.cache_info)


#: the spanned functions each label command runs, by the module the tracer
#: reads them from
WRAPPED = {"orbits": ("f_vector", "generate_orbit"),
           "branching": ("branch_b4", "branch_b3a1", "project_3d"),
           "duals": ("dual_polytope", "dual_cell"), "cli": ("export_off",)}
RUNS = {"orbit": {"generate_orbit", "f_vector"}, "fvector": {"f_vector"},
        "branch-b4": {"branch_b4"}, "branch-b3a1": {"branch_b3a1"},
        "project": {"project_3d"}, "dual": {"dual_polytope", "dual_cell"},
        "export": {"dual_cell", "export_off"}}


def test_spans_reach_a_command_table_imported_before_the_tracer():
    # the tracer rebinds a name only in the modules of its MODULES, which
    # leave out commands: the payload builders read each name at call
    # time, so its span fires whichever module was imported first
    from f4weyl import cli, commands  # noqa: F401  (before the rebinding)
    mods = [importlib.import_module("f4weyl." + stem) for stem in WRAPPED]
    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    rebound = []
    for mod, names in zip(mods, WRAPPED.values()):
        for name in names:
            orig = getattr(mod, name)
            rebound.append((orig, counting(name, orig)))
            TRACER._rebind(mods, *rebound[-1])
    try:
        for command, uses in RUNS.items():
            calls.clear()
            with redirect_stdout(io.StringIO()):
                assert cli.main([command, "1,0,0,1"]) == 0
            assert uses <= set(calls), (command, dict(calls))
    finally:
        for orig, wrapper in rebound:
            TRACER._rebind(mods, wrapper, orig)
