"""Per-layer tracing from outside the program.

`Tracer.install` replaces viewplan's public functions with timing wrappers,
in the defining module and in every module that bound the same object at
import (``from .planner import next_best_view`` and the like), so no span is
placed inside ``src/``. `Tracer.uninstall` puts the originals back.

Each call of a traced function opens a frame that collects the time of the
traced calls made inside it, so self time is the call's duration minus its
children's. Calls of ordinary functions become span records (id, name,
start, end, parent, self). Hot functions, called up to hundreds of thousands
of times, are aggregated instead: count, total and self time per (parent
span, name), which keeps the overhead small. All records stay in memory
until `write` stores them as JSON lines.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from threading import get_ident
from collections import Counter
from time import perf_counter

# (module, attribute, span name, hot). "Class.method" attributes are traced on
# the class. Missing attributes are skipped, so the tracer keeps working when
# a function is renamed or removed; its metrics then read 0, and the entry is
# listed in `Tracer.unwrapped` so that a gap in coverage is not read as a gain.
TRACED = (
    ("shapes", "planar_grid", "shapes.planar_grid", False),
    ("mesh", "TriangleMesh.__init__", "mesh.mesh_init", False),
    ("mesh", "Submesh.from_triangles", "mesh.from_triangles", True),
    ("mesh", "union_coverage", "mesh.union_coverage", True),
    ("raycast", "build_bvh", "raycast.build_bvh", False),
    ("raycast", "Bvh.any_hit", "raycast.any_hit", True),
    ("raycast", "ray_triangle", "raycast.ray_triangle", True),
    ("visibility", "view_coverage", "visibility.view_coverage", False),
    ("visibility", "precompute_coverage", "visibility.precompute_coverage", False),
    ("visibility", "CoverageTable.build", "visibility.table_build", False),
    ("planner", "next_best_view", "planner.next_best_view", True),
    ("planner", "score", "planner.score", True),
    ("planner", "run_fixed_lambda", "planner.run", False),
    ("planner", "run_alternating", "planner.run", False),
    ("network", "forward", "network.forward", True),
    ("network", "gradient", "network.gradient", True),
    ("network", "apply_update", "network.apply_update", True),
    ("agents", "train", "agents.train", False),
    ("agents", "plan_with_model", "agents.plan_with_model", False),
    ("bench", "generate_instance", "bench.generate_instance", False),
    ("bench", "exact_min_cover", "bench.exact_min_cover", False),
    ("io", "load_mesh", "io.load_mesh", False),
    ("io", "load_coverage", "io.load_coverage", False),
    ("io", "save_coverage", "io.save_coverage", False),
    ("io", "load_model", "io.load_model", False),
    ("io", "save_model", "io.save_model", False),
    ("io", "save_plan", "io.plan_files", False),
    ("io", "load_plan", "io.plan_files", False),
)


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


def _after_any_hit(tracer, args, kwargs, result):
    if result:
        tracer.counts["raycast.any_hit.hits"] += 1


def _after_precompute(tracer, args, kwargs, result):
    mesh = kwargs.get("mesh", args[0] if args else None)
    views = kwargs.get("views", args[1] if len(args) > 1 else ())
    tracer.counts["visibility.view_triangles"] += len(views) * mesh.n_triangles


def _after_train(tracer, args, kwargs, result):
    tracer.counts["agents.transitions"] += int(result.episode_lengths.sum())


def _bytes_counter(key):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(_path_arg(args, kwargs))
    return after


AFTER = {
    "raycast.any_hit": _after_any_hit,
    "visibility.precompute_coverage": _after_precompute,
    "agents.train": _after_train,
    "io.load_coverage": _bytes_counter("io.coverage.bytes"),
    "io.save_coverage": _bytes_counter("io.coverage.bytes"),
    "io.load_model": _bytes_counter("io.model.bytes"),
    "io.save_model": _bytes_counter("io.model.bytes"),
}


def _state_key(state):
    chosen = state.chosen
    return chosen if isinstance(chosen, int) else bytes(memoryview(chosen))


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.thread = get_ident()
        self.spans: list[tuple] = []          # (id, name, start, end, parent, self)
        self.aggregates: dict[str, dict] = {}  # name -> parent -> [calls, total, self]
        self.counts: Counter = Counter()
        self.selector_keys: set = set()
        self.unwrapped: set[str] = set()  # "module.attribute" of TRACED entries not found
        self.scope = 0    # distinguishes CLI steps: a memo cannot outlive a process
        self._frames: list[float] = []
        self._open = 0    # id of the innermost open span, 0 at top level
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn, hot: bool = False, after=None):
        tracer = self
        thread = self.thread
        frames = self._frames  # per open call: seconds spent in traced children
        spans = self.spans
        by_parent = self.aggregates.setdefault(name, {}) if hot else None

        @functools.wraps(fn)
        def traced_hot(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            frames.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = frames.pop()
                if frames:
                    frames[-1] += took
                agg = by_parent.get(tracer._open)
                if agg is None:
                    agg = by_parent[tracer._open] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += took
                agg[2] += took - children
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            frames.append(0.0)
            parent = tracer._open
            sid = len(spans) + 1
            spans.append(None)
            tracer._open = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                took = end - start
                children = frames.pop()
                if frames:
                    frames[-1] += took
                spans[sid - 1] = (sid, name, start - tracer.t0, end - tracer.t0, parent,
                                  took - children)
                tracer._open = parent
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced_hot if hot else traced

    def _selector(self, traced_nbv):
        tracer = self

        @functools.wraps(traced_nbv)
        def selector(*args, **kwargs):
            state = kwargs.get("state", args[0] if args else None)
            lam = kwargs.get("lam", args[2] if len(args) > 2 else None)
            tracer.counts["agents.selector.calls"] += 1
            tracer.selector_keys.add((tracer.scope, _state_key(state), lam))
            return traced_nbv(*args, **kwargs)

        return selector

    def install(self) -> None:
        modules = {name.rsplit(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("viewplan.") and mod is not None}
        for modname, attr, name, hot in TRACED:
            mod = modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or member not in vars(owner):
                self.unwrapped.add(f"{modname}.{attr}")
                continue
            raw = vars(owner)[member]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.wrap(name, fn, hot, AFTER.get(name))
            if owner_name:
                self._replace(owner, member, classmethod(wrapped) if fn is not raw else wrapped)
                continue
            # rebind every module-level name that refers to this function
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        replacement = wrapped
                        if name == "planner.next_best_view" and other is modules.get("agents"):
                            replacement = self._selector(wrapped)
                        self._replace(other, key, replacement)

    def _replace(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------ results

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds] over every record."""
        out: dict[str, list] = {}
        for _sid, name, start, end, _parent, self_s in self.spans:
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        for name, by_parent in self.aggregates.items():
            for calls, total, self_s in by_parent.values():
                t = out.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += total
                t[2] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "self": self_s}) + "\n")
            for name, by_parent in self.aggregates.items():
                for parent, (calls, total, self_s) in by_parent.items():
                    fh.write(json.dumps({"parent": parent, "name": name, "calls": calls,
                                         "total": total, "self": self_s}) + "\n")


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float,
                  threads_speedup: float) -> dict[str, float]:
    """Per-layer metrics per pass, from the spans, aggregates and counters."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    counts = {k: v / passes for k, v in tracer.counts.items()}
    selector_calls = counts.get("agents.selector.calls", 0.0)
    distinct = len(tracer.selector_keys) / passes
    return {
        "raycast.build_bvh.s": secs("raycast.build_bvh"),
        "raycast.any_hit.calls": calls("raycast.any_hit"),
        "raycast.any_hit.s": secs("raycast.any_hit"),
        "raycast.any_hit.hit_ratio": ratio(counts.get("raycast.any_hit.hits", 0.0),
                                           calls("raycast.any_hit")),
        "raycast.ray_triangle.calls": calls("raycast.ray_triangle"),
        "raycast.ray_triangle.per_ray": ratio(calls("raycast.ray_triangle"),
                                              calls("raycast.any_hit")),
        "visibility.view_coverage.calls": calls("visibility.view_coverage"),
        "visibility.view_coverage.self_s": self_s("visibility.view_coverage"),
        "visibility.candidate_ratio": ratio(calls("raycast.any_hit"),
                                            counts.get("visibility.view_triangles", 0.0)),
        "visibility.table_build.s": secs("visibility.table_build"),
        "visibility.threads_speedup": threads_speedup,
        "mesh.mesh_init.s": secs("mesh.mesh_init"),
        "mesh.from_triangles.calls": calls("mesh.from_triangles"),
        "mesh.from_triangles.s": secs("mesh.from_triangles"),
        "mesh.union_coverage.calls": calls("mesh.union_coverage"),
        "mesh.union_coverage.s": secs("mesh.union_coverage"),
        "planner.next_best_view.calls": calls("planner.next_best_view"),
        "planner.next_best_view.self_s": self_s("planner.next_best_view"),
        "planner.candidates_per_call": ratio(calls("planner.score"),
                                             calls("planner.next_best_view")),
        "planner.run.s": secs("planner.run"),
        "network.forward.calls": calls("network.forward"),
        "network.forward.s": secs("network.forward"),
        "network.gradient.calls": calls("network.gradient"),
        "network.gradient.s": secs("network.gradient"),
        "network.apply_update.calls": calls("network.apply_update"),
        "network.apply_update.s": secs("network.apply_update"),
        "agents.train.s": secs("agents.train"),
        "agents.transitions": counts.get("agents.transitions", 0.0),
        "agents.selector.calls": selector_calls,
        "agents.selector.distinct": distinct,
        "agents.selector.repeat_ratio": ratio(selector_calls - distinct, selector_calls),
        "agents.plan_with_model.s": secs("agents.plan_with_model"),
        "bench.generate_instance.s": secs("bench.generate_instance"),
        "bench.exact_min_cover.calls": calls("bench.exact_min_cover"),
        "bench.exact_min_cover.s": secs("bench.exact_min_cover"),
        "io.load_coverage.s": secs("io.load_coverage"),
        "io.save_coverage.s": secs("io.save_coverage"),
        "io.coverage.bytes": counts.get("io.coverage.bytes", 0.0),
        "io.load_model.s": secs("io.load_model"),
        "io.save_model.s": secs("io.save_model"),
        "io.model.bytes": counts.get("io.model.bytes", 0.0),
        "io.load_mesh.s": secs("io.load_mesh"),
        "io.plan_files.s": secs("io.plan_files"),
        "shapes.planar_grid.s": secs("shapes.planar_grid"),
        "cli.self_s": sum(t[2] for name, t in totals.items() if name.startswith("cli.")) / passes,
        "trace.overhead_s": overhead_s,
    }
