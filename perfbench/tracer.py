"""Per-layer spans around the public functions of the coarseact modules.

The tracer replaces every public module-level function of each layer module
with a timing wrapper, at every binding site: the defining module, every
module that imported the function by name, and the package namespace.  The
program's own files are not changed; ``uninstall`` puts the originals back.

Spans are aggregated as they close rather than stored one by one, because a
single verdict can make hundreds of thousands of wrapped calls.  For each
function the tracer keeps its call count, its self time (the span's duration
minus the time its child spans cover) and its inclusive time (outermost spans
only, so recursion is not counted twice), plus a few result counters that the
per-layer ratios need.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

# Module name -> metric prefix.  Metric names must start with a letter, so the
# ``_kernels`` module reports as ``kernels``.  ``verdicts`` holds only result
# dataclasses and is not a layer.
LAYERS = {
    "boxes": "boxes",
    "bornology": "bornology",
    "actions": "actions",
    "coarse": "coarse",
    "associated": "associated",
    "oracle": "oracle",
    "_kernels": "kernels",
    "cli": "cli",
}
PACKAGE = "coarseact"
TRACE_MARKER = "PERFBENCH-TRACE "  # prefixes a child's span snapshot on stderr
KERNEL_SWEEPS = ("transporter_sweep", "orbit_pair_sweep", "orbit_compose_sweep")


class FnStat:
    """Aggregated spans of one wrapped function."""

    __slots__ = ("calls", "self_s", "incl_s", "depth", "events", "cells", "nbytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.events = 0  # result counter: undecided, inexact, inconclusive
        self.cells = 0
        self.nbytes = 0


def _kernel_cells(name, args):
    """Cells a sweep examines and float64 bytes it computes, from the shapes.

    transporter_sweep: group elements x window points, one d-vector each.
    orbit_pair_sweep: pairs x group elements, two d-vectors (x and y side).
    orbit_compose_sweep: pairs x group elements^2, two d-vectors (lo and hi).
    """
    n = [np.shape(a)[0] for a in args[:7]]
    if name == "transporter_sweep":  # (lgrid, m, b_lo, b_hi, b2_lo, b2_hi, xgrid)
        cells = n[0] * n[6]
        return cells, cells * n[1] * 8
    if name == "orbit_pair_sweep":  # (xs, ys, lgrid, m, b_lo, b_hi)
        cells = n[0] * n[2]
        return cells, cells * n[3] * 8 * 2
    # (xs, zs, lgrid, hgrid, m, b1_lo, b1_hi, ...)
    cells = n[0] * n[2] * n[3]
    return cells, cells * n[4] * 8 * 2


class Tracer:
    """Install with ``install()``; read ``stats`` after ``uninstall()``."""

    def __init__(self):
        self.stats: dict[str, FnStat] = {}
        self.points = 0  # boxes.points_enumerated
        self.snapshots: list = []  # merged from child processes, one per child
        self._stack = [0.0]  # child-time accumulators; [0] is the root
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the verdict root)."""
        st = self.stats.setdefault(name, FnStat())
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            stack[-1] += dt
            st.calls += 1
            st.self_s += dt - child
            st.incl_s += dt

    def _wrap(self, fn, st: FnStat, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                child = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_s += dt - child
                if not st.depth:
                    st.incl_s += dt
            if observe is not None:
                out = observe(st, args, kwargs, out)
            return out

        return traced

    # -- result observers ----------------------------------------------------

    def _observers(self) -> dict:
        tracer = self

        def count_points(st, args, kwargs, it):
            def counted():
                n = 0
                try:
                    for p in it:
                        n += 1
                        yield p
                finally:
                    tracer.points += n

            return counted()

        def undecided(st, args, kwargs, out):
            st.events += out is None
            return out

        def inexact(st, args, kwargs, out):
            st.events += not out[1]
            return out

        def inconclusive(st, args, kwargs, out):
            st.events += out.outcome == "inconclusive"
            return out

        def kernel(name):
            def observe(st, args, kwargs, out):
                cells, nbytes = _kernel_cells(name, args)
                st.cells += cells
                st.nbytes += nbytes
                return out

            return observe

        obs = {
            "boxes.box_points": count_points,
            "bornology.is_bounded": inconclusive,
            "actions.lattice_box_feasible": undecided,
            "coarse.entourage_membership": undecided,
            "coarse.neighborhood": inexact,
        }
        for name in KERNEL_SWEEPS:
            obs[f"kernels.{name}"] = kernel(name)
        return obs

    def _wrap_points_within(self, fn, st: FnStat):
        """set_points_within returns a list built from box_points; count the
        list once and drop the box_points yields made inside it."""
        inner = self._wrap(fn, st, None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer.points
            out = inner(*args, **kwargs)
            tracer.points = before + len(out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self, callers=()):
        """Wrap every layer function at every binding site in the package and
        in ``callers``, modules that imported layer functions by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        observers = self._observers()
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            prefix = LAYERS[short]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{prefix}.{name}"
                st = self.stats.setdefault(key, FnStat())
                if key == "boxes.set_points_within":
                    wrapped[id(obj)] = (obj, self._wrap_points_within(obj, st))
                else:
                    wrapped[id(obj)] = (obj, self._wrap(obj, st, observers.get(key)))
        for mod in [importlib.import_module(PACKAGE), *modules, *callers]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    # -- per-layer aggregation -------------------------------------------------

    def layer_self(self) -> dict:
        """Self seconds per layer prefix (benchmark spans excluded)."""
        out = {prefix: 0.0 for prefix in LAYERS.values()}
        for key, st in self.stats.items():
            prefix = key.split(".", 1)[0]
            if prefix in out:
                out[prefix] += st.self_s
        return out

    def layer_calls(self, prefix: str) -> int:
        return sum(st.calls for key, st in self.stats.items()
                   if key.split(".", 1)[0] == prefix)

    def get(self, key: str) -> FnStat:
        return self.stats.get(key) or FnStat()

    def snapshot(self) -> dict:
        """Plain-data form, for sending across a process boundary."""
        return {
            "points": self.points,
            "stats": {k: [s.calls, s.self_s, s.incl_s, s.events, s.cells, s.nbytes]
                      for k, s in self.stats.items() if s.calls},
        }

    def merge(self, snap: dict):
        self.snapshots.append(snap)
        self.points += snap["points"]
        for key, (calls, self_s, incl_s, events, cells, nbytes) in snap["stats"].items():
            st = self.stats.setdefault(key, FnStat())
            st.calls += calls
            st.self_s += self_s
            st.incl_s += incl_s
            st.events += events
            st.cells += cells
            st.nbytes += nbytes
