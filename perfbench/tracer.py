"""Time calls into pathbench's public functions from outside the package.

`Tracer.install()` replaces each traced name where the package looks it
up (a module global such as ``pathbench.rrtstar.find_nearest``, or a
method on a class) with a wrapper that records a span: its name, its
duration and its parent span, which is the traced call it ran inside.
Spans are folded into per-name and per-(parent, child) aggregates as
they close, so memory stays flat however many calls a run makes.
`Tracer.restore()` puts every original back.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Optional


def _points(counters, args, result):
    counters["points"] += len(args[1])  # CollisionField.free(self, points)


def _free(counters, args, result):
    counters["free"] += bool(result)


def _found(counters, args, result):
    counters["found"] += len(result)


def _file_bytes(counters, args, result):
    counters["bytes"] += os.path.getsize(args[0])


def _text_bytes(counters, args, result):
    counters["bytes"] += len(result.encode("utf-8"))


#: (module, attribute on it, span name, counter hook). A name imported into
#: several modules is wrapped in each place the package calls it from.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("pathbench.geometry", "CollisionField.free", "geometry.CollisionField.free", _points),
    ("pathbench.rrtstar", "edge_free", "geometry.edge_free", _free),
    ("pathbench.benchmark", "edge_free", "geometry.edge_free", _free),
    ("pathbench.rrtstar", "RrtStarRun.step", "rrtstar.RrtStarRun.step", None),
    ("pathbench.rrtstar", "random_sample", "rrtstar.random_sample", None),
    ("pathbench.rrtstar", "find_nearest", "rrtstar.find_nearest", None),
    ("pathbench.rrtstar", "steering", "rrtstar.steering", None),
    ("pathbench.rrtstar", "get_neighbors", "rrtstar.get_neighbors", _found),
    ("pathbench.rrtstar", "choose_parent", "rrtstar.choose_parent", None),
    ("pathbench.rrtstar", "rewire", "rrtstar.rewire", None),
    ("pathbench.rrtstar", "RrtTree.add", "rrtstar.RrtTree.add", None),
    ("pathbench.pso", "PsoRun.step", "pso.step", None),
    ("pathbench.pso", "path_violation", "pso.path_violation", None),
    ("pathbench.benchmark", "generate_random_env", "environment.generate_random_env", None),
    ("pathbench.rrtstar", "validate_query", "environment.validate_query", None),
    ("pathbench.pso", "validate_query", "environment.validate_query", None),
    ("pathbench.benchmark", "validate_query", "environment.validate_query", None),
    ("pathbench.benchmark", "plan_once", "benchmark.plan_once", None),
    ("pathbench.benchmark", "table1_suite", "benchmark.table1_suite", None),
    ("pathbench.benchmark", "grid_oracle", "benchmark.grid_oracle", None),
    ("pathbench.benchmark", "audit_path", "benchmark.audit_path", None),
    ("pathbench.benchmark", "summarize", "benchmark.summarize", None),
    ("pathbench.benchmark", "write_results_csv", "benchmark.write_results_csv", _file_bytes),
    ("pathbench.benchmark", "write_summary", "benchmark.write_summary", _file_bytes),
    ("pathbench.benchmark", "write_table1_csv", "benchmark.write_table1_csv", _file_bytes),
    ("pathbench.render", "environment_svg", "render.environment_svg", _text_bytes),
    # The benchmark's own reference kernels run between plans, some inside
    # table1_suite; as child spans they stay out of its self time.
    ("workloads", "reference_s", "perfbench.reference_s", None),
)


class Tracer:
    """Aggregated spans for every name in TARGETS while installed."""

    def __init__(self):
        self.spans: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self.links: dict[tuple[Optional[str], str], int] = defaultdict(int)
        self.counters: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span, hook))

    def restore(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, original, span: str, hook):
        stack = self._stack
        stats = self.spans[span]
        counters = self.counters[span]
        links = self.links
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
                links[(parent[0] if parent else None, span)] += 1
                if parent is not None:
                    parent[1] += elapsed
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def report(self) -> dict:
        """Plain-dict dump of the aggregates, for writing out as JSON."""
        return {
            "spans": {name: dict(s, **self.counters[name])
                      for name, s in sorted(self.spans.items())},
            "links": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.links.items(), key=str)],
        }

    def calls(self, span: str) -> int:
        return self.spans[span]["calls"]

    def self_s(self, span: str) -> float:
        return self.spans[span]["self_s"]

    def count(self, span: str, key: str) -> float:
        return self.counters[span][key]
