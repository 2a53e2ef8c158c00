"""Span tracer that wraps ``f4weyl``'s public functions from outside.

Only the traced run installs it.  Each wrapped function records a span
(name, start, end, parent, op id) in memory; class-level wrappers count
``FieldScalar`` arithmetic, ``Quaternion.__mul__`` and
``GroupElement.compose``/``apply``.  A function imported into several
modules (``from .orbits import generate_orbit``) is wrapped in every
module namespace that binds it, so no caller slips past.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List

#: (module, function) pairs that get a span; names are "<module>.<function>"
SPANNED = (
    ("binocta", "build_group"), ("binocta", "generate_from"),
    ("binocta", "coset_decompose"), ("binocta", "subset_product_table"),
    ("orbits", "generate_orbit"), ("orbits", "parabolic_elements"),
    ("orbits", "f_vector"), ("orbits", "geometric_edge_check"),
    ("branching", "branch_b4"), ("branching", "branch_b3a1"),
    ("branching", "project_3d"), ("branching", "verify_b4_branching"),
    ("branching", "verify_b3a1_slices"),
    ("duals", "cells_at_vertex"), ("duals", "solve_scales"),
    ("duals", "dual_polytope"), ("duals", "dual_cell"),
    ("duals", "cell_metrics"), ("duals", "kite_face"),
    ("cli", "main"), ("cli", "parse_label"), ("cli", "convex_faces"),
    ("cli", "export_off"),
)

SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                  "__abs__", "__pow__")

MODULES = ("scalar", "quat", "binocta", "rootsys", "orbits", "branching",
           "duals", "refdata", "verify", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = 0
        # class-level call counters, as one-element lists for cheap bumps
        self.counts: Dict[str, List[int]] = {
            k: [0] for k in ("scalar.ops", "quat.mul_calls",
                             "binocta.compose_calls", "binocta.apply_calls")}
        # generate_orbit cache misses: vertices, seconds, apply calls
        self.orbit_miss = [0, 0.0, 0]
        # generate_from: compositions and elements produced
        self.closure = [0, 0]
        self._cached: Dict[str, Callable] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib
        mods = {m: importlib.import_module("f4weyl." + m) for m in MODULES}
        from f4weyl.binocta import GroupElement
        from f4weyl.quat import Quaternion
        from f4weyl.rootsys import RootSystem
        from f4weyl.scalar import FieldScalar

        ops = self.counts["scalar.ops"]
        for name in SCALAR_DUNDERS:
            setattr(FieldScalar, name, _counted(getattr(FieldScalar, name), ops))
        Quaternion.__mul__ = _counted(Quaternion.__mul__,
                                      self.counts["quat.mul_calls"])
        GroupElement.compose = _counted(GroupElement.compose,
                                        self.counts["binocta.compose_calls"])
        GroupElement.apply = _counted(GroupElement.apply,
                                      self.counts["binocta.apply_calls"])
        RootSystem.dominant_representative = self._span(
            "rootsys.dominant_representative",
            RootSystem.dominant_representative)

        self._cached = {
            "orbit": mods["orbits"]._orbit_cached,
            "branch": (mods["branching"]._branch_b4,
                       mods["branching"]._branch_b3a1),
        }
        for module, fname in SPANNED:
            orig = getattr(mods[module], fname)
            label = f"{module}.{fname}"
            if label == "orbits.generate_orbit":
                wrapper = self._orbit_span(label, orig)
            elif label == "binocta.generate_from":
                wrapper = self._closure_span(label, orig)
            else:
                wrapper = self._span(label, orig)
            _rebind(mods.values(), orig, wrapper)

        verify = mods["verify"]
        checks = []
        for title, func in verify.CHECKS:
            wrapper = self._span("verify." + slug(title), func)
            _rebind([verify], func, wrapper)
            checks.append((title, wrapper))
        verify.CHECKS = tuple(checks)

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[1], span[2] = start, end
        self._stack.pop()
        return end - start

    def _span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)
        return wrapper

    def _orbit_span(self, name: str, fn: Callable) -> Callable:
        cache = self._cached["orbit"]
        applies = self.counts["binocta.apply_calls"]
        miss = self.orbit_miss

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses, apply0 = cache.cache_info().misses, applies[0]
            idx = self._open(name)
            start = time.perf_counter()
            try:
                orbit = fn(*args, **kwargs)
            finally:
                dt = self._close(idx, start)
            if cache.cache_info().misses > misses:
                miss[0] += orbit.size
                miss[1] += dt
                miss[2] += applies[0] - apply0
            return orbit
        return wrapper

    def _closure_span(self, name: str, fn: Callable) -> Callable:
        composes = self.counts["binocta.compose_calls"]
        closure = self.closure

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            compose0 = composes[0]
            idx = self._open(name)
            start = time.perf_counter()
            try:
                group = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            closure[0] += composes[0] - compose0
            closure[1] += len(group)
            return group
        return wrapper

    # -- results ---------------------------------------------------------------

    def cache_snapshot(self) -> Dict[str, int]:
        """Hits and misses of the orbit and branching caches so far."""
        orbit = self._cached["orbit"].cache_info()
        b4, b3 = (f.cache_info() for f in self._cached["branch"])
        return {"orbit_hits": orbit.hits, "orbit_misses": orbit.misses,
                "branch_hits": b4.hits + b3.hits,
                "branch_misses": b4.misses + b3.misses}

    def totals(self) -> Dict[str, float]:
        """Raw per-process totals; the runner sums them and normalizes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + (end - start) - child[i])
            if name.startswith("verify."):
                out[name + "_s"] = out.get(name + "_s", 0.0) + end - start
        for key, cell in self.counts.items():
            out[key] = cell[0]
        out["orbit_miss_vertices"], out["orbit_miss_s"], \
            out["orbit_miss_applies"] = self.orbit_miss
        out["closure_composes"], out["closure_elements"] = self.closure
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


def slug(title: str) -> str:
    """'signed-permutation branching' -> 'signed_permutation_branching'."""
    return "".join(c if c.isalnum() else "_" for c in title.lower())


def _counted(fn: Callable, cell: List[int]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    return wrapper


def _rebind(modules, orig: Callable, wrapper: Callable) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
