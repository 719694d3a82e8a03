"""Spans around the public functions of each volterra_ito module.

The benchmark wraps the module-level names the program looks up at call time
(for example ``itoverify.simulate_volterra`` or ``cli.verify_pathwise_formula``)
and a few methods (``Kernel.total_l2``, ``TestFunction.phi/dphi/d2phi``).
Nothing inside the program changes: a wrapper records one span per call and,
for a few functions, a work count computed from the arguments.

A span is (id, name, start, end, parent, thread, work). Its parent is the
innermost open span of the same thread; a span opened on a pool thread with
nothing open there takes the innermost open span of the thread that created
the tracer, which is the one that submitted the work. Self time is the
span's duration minus the part of it its children cover, so children running
concurrently on pool threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "itoverify", "paths", "bracket", "kernels", "approx", "sandbox")


class Tracer:
    """In-memory span recorder, safe to call from several threads."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self._ids = itertools.count()
        self._stacks = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        try:
            return home[-1] if home else None
        except IndexError:  # the home thread closed its span meanwhile
            return None

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``work(bound_arguments, result)`` may return a dict of counts that is
        stored on the span.
        """
        layer = name.split(".", 1)[0]
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                if isinstance(exc, Exception):
                    with self._lock:
                        self.errors[layer] += 1
                self.spans.append((sid, name, start, end, parent, tid, None))
                raise
            end = time.perf_counter()
            stack.pop()
            info = None
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = work(bound.arguments, result)
            self.spans.append((sid, name, start, end, parent, tid, info))
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        keys = ("id", "name", "start", "end", "parent", "thread", "work")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# Work counts computed from arguments (see BENCHMARK.json per_layer)
# ---------------------------------------------------------------------------

def _simulate_work(a, _result):
    n = a["grid"].n_cells
    p = a["paths"]
    return {"normals": p * n, "x_flop": 2 * p * n * n, "x_bytes": 16 * p * n}


def _cholesky_work(a, _result):
    return {"normals": a["paths"] * a["grid"].n_cells}


def _mehler_work(a, _result):
    import numpy as np

    if not callable(a["phi_prime"]):
        return {"points": 0}
    elements = np.broadcast(np.asarray(a["m"]), np.asarray(a["v"])).size
    return {"points": elements * a["quad_order"]}


def _energy_work(a, _result):
    n = a["grid"].n_cells
    return {"cells": n * (n + 1) // 2}


def _grid_work(a, _result):
    return {"interior_nodes": a["n_cells"] - 1}


WORK = {
    "paths.simulate_volterra": _simulate_work,
    "paths.simulate_cholesky": _cholesky_work,
    "itoverify.mehler_conditional": _mehler_work,
    "bracket.energy_function": _energy_work,
    "kernels.equal_energy_grid": _grid_work,
}

METHODS = (
    ("kernels", "Kernel", "total_l2"),
    ("itoverify", "TestFunction", "phi"),
    ("itoverify", "TestFunction", "dphi"),
    ("itoverify", "TestFunction", "d2phi"),
)


def install(tracer: Tracer):
    """Wrap the package's public functions; return a callable that undoes it.

    A public function is one listed in its module's ``__all__`` (``cli.main``
    for the CLI). Every module attribute bound to the original, including
    names imported into other modules, is rebound to the wrapper, because
    the program looks these names up at call time.
    """
    modules = {m: importlib.import_module(f"volterra_ito.{m}") for m in LAYERS}
    everywhere = [importlib.import_module("volterra_ito"), *modules.values()]
    undo = []

    def rebind(original, wrapped):
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))

    for layer, mod in modules.items():
        names = getattr(mod, "__all__", ["main"])
        for fname in names:
            fn = getattr(mod, fname)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{fname}"
                rebind(fn, tracer.wrap(name, fn, WORK.get(name)))
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", original))
        undo.append((cls, meth, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _child_intervals(spans) -> dict:
    """Parent id -> its children's intervals, clipped to the parent's."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        p = by_id.get(s[4])
        if p is not None:
            lo, hi = max(s[2], p[2]), min(s[3], p[3])
            children[s[4]].append((lo, max(lo, hi)))
    return children


def account(spans, wall_start: float, wall_end: float) -> dict:
    """Self times, uncovered time and the check that they add up to the wall.

    A span's self time is its duration minus the part of it its children
    cover. With nested spans on one thread, the self times plus the time no root
    span covers equal the wall exactly. Spans running concurrently (pool
    threads, overlapping roots) add their overlap, reported as
    ``parallel_s``. ``residual_s`` is what is left: zero up to rounding
    whenever every child lies inside its parent and every root inside the
    wall.
    """
    children = _child_intervals(spans)
    selfs = {s[0]: (s[3] - s[2]) - union_length(children.get(s[0], ()))
             for s in spans}
    roots = [(s[2], s[3]) for s in spans if s[4] not in selfs]
    parallel = sum(hi - lo for lo, hi in roots) - union_length(roots)
    for kids in children.values():
        parallel += sum(hi - lo for lo, hi in kids) - union_length(kids)
    wall = wall_end - wall_start
    uncovered = wall - union_length(roots)
    total_self = sum(selfs.values())
    return {
        "self": selfs,
        "wall_s": wall,
        "self_sum_s": total_self,
        "uncovered_s": uncovered,
        "parallel_s": parallel,
        "residual_s": total_self + uncovered - wall - parallel,
    }


def concurrency(intervals) -> float:
    """Mean number of intervals in flight while at least one is: 1.0 when
    they never overlap, 0.0 when there are none."""
    covered = union_length(intervals)
    if covered <= 0.0:
        return 0.0
    return sum(hi - lo for lo, hi in intervals) / covered


# ---------------------------------------------------------------------------
# Per-layer metrics (names as in BENCHMARK.json per_layer)
# ---------------------------------------------------------------------------

# metric stem -> the span name it sums, or a prefix of names when the
# pattern ends in "." or "_"; each stem yields <stem>.self_s
SELF_GROUPS = {
    **{name: name for name in (
        "cli.main", "paths.simulate_volterra", "paths.volterra_weights",
        "paths.simulate_cholesky", "itoverify.mehler_conditional",
        "bracket.energy_function", "bracket.stieltjes_integrate",
        "kernels.equal_energy_grid", "kernels.covariance",
        "kernels.kernel_l2mu_distance", "approx.fit_expsum",
        "approx.convergence_suite", "sandbox.sandbox_suite")},
    "itoverify.test_function": "itoverify.TestFunction.",
    "itoverify.verify": "itoverify.verify_",
    "kernels.total_l2": "kernels.Kernel.total_l2",
    **{layer: layer + "." for layer in LAYERS},
}
CALL_GROUPS = ("paths.simulate_volterra", "paths.volterra_weights",
               "itoverify.mehler_conditional", "itoverify.test_function",
               "kernels.total_l2", "kernels.covariance")


def _total(spans) -> float:
    """Summed durations, children included."""
    return sum((s[3] - s[2] for s in spans), 0.0)


def _work_sum(spans, key) -> float:
    return sum(s[6].get(key, 0) for s in spans if s[6])


def _matches(name: str, pattern: str) -> bool:
    return name.startswith(pattern) if pattern[-1] in "._" else name == pattern


def layer_metrics(spans, errors, wall_start: float, wall_end: float) -> tuple:
    """Every per-layer metric of one traced pass, and the span accounting."""
    acc = account(spans, wall_start, wall_end)
    selfs = acc["self"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    out = {}
    for stem, pattern in SELF_GROUPS.items():
        group = [s for n in list(by_name) if _matches(n, pattern) for s in by_name[n]]
        out[f"{stem}.self_s"] = sum((selfs[s[0]] for s in group), 0.0)
        if stem in CALL_GROUPS:
            out[f"{stem}.calls"] = len(group)

    sims = by_name["paths.simulate_volterra"]
    out["paths.normals_drawn"] = (_work_sum(sims, "normals")
                                  + _work_sum(by_name["paths.simulate_cholesky"],
                                              "normals"))
    out["paths.x_gflop"] = _work_sum(sims, "x_flop") / 1e9
    out["paths.x_mbytes"] = _work_sum(sims, "x_bytes") / 1e6
    mehler = by_name["itoverify.mehler_conditional"]
    out["itoverify.mehler_conditional.total_s"] = _total(mehler)
    out["itoverify.mehler_conditional.points"] = _work_sum(mehler, "points")
    out["itoverify.block_concurrency"] = concurrency([(s[2], s[3]) for s in sims])
    out["bracket.energy_function.cells"] = _work_sum(
        by_name["bracket.energy_function"], "cells")

    grids = {s[0]: s for s in by_name["kernels.equal_energy_grid"]}
    out["kernels.equal_energy_grid.total_s"] = _total(grids.values())
    per_grid = defaultdict(int)
    for s in by_name["kernels.Kernel.total_l2"]:
        if s[4] in grids:
            per_grid[s[4]] += 1
    nodes = sum(grids[g][6]["interior_nodes"] for g in per_grid
                if grids[g][6])
    out["kernels.total_l2.calls_per_node"] = (
        sum(per_grid.values()) / nodes if nodes else 0.0)

    for layer in LAYERS:
        out[f"{layer}.errors"] = errors.get(layer, 0)
    out["trace.wall_s"] = acc["wall_s"]
    out["trace.uncovered_s"] = acc["uncovered_s"]
    out["trace.parallel_s"] = acc["parallel_s"]
    out["trace.residual_s"] = acc["residual_s"]
    out["trace.spans"] = len(spans)
    return out, acc


def self_by_root(spans, selfs) -> list:
    """For each root span in start order: its name, duration and the self
    time of every span name below it (itself included)."""
    by_id = {s[0]: s for s in spans}
    root_of = {}

    def root(sid):
        path = []
        while sid not in root_of:
            parent = by_id[sid][4]
            if parent not in by_id:
                root_of[sid] = sid
                break
            path.append(sid)
            sid = parent
        top = root_of[sid]
        for p in path:
            root_of[p] = top
        return top

    totals = defaultdict(lambda: defaultdict(float))
    for s in spans:
        totals[root(s[0])][s[1]] += selfs[s[0]]
    ordered = sorted(totals, key=lambda r: by_id[r][2])
    return [{"name": by_id[r][1], "duration_s": by_id[r][3] - by_id[r][2],
             "self_s": dict(totals[r])} for r in ordered]
