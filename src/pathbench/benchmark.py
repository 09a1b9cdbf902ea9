"""Trial harness, summary statistics, the ten-case suite, and a grid oracle.

The oracle, a feasibility check and near-optimal length yardstick, runs
its own A* over an 8-connected grid. Only its cell test is shared: cells
are classified by `CollisionField.free`, as are the piece midpoints of
the cut pass in PSO's `blocked_lengths` (segments out of bounds or near
a polygon).
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .environment import (DEFAULT_BOUNDS, Environment, Query, check_query,
                          check_random_field, generate_random_env,
                          irregular_preset, validate_query)
from .errors import InvalidQueryError
from .geometry import Bounds, Point2, dist, edge_free
from .pso import PsoParams, plan_pso
from .result import PlanResult
from .rrtstar import RrtParams, plan_rrt_star

__all__ = [
    "TABLE1_CASES", "TrialStats", "CaseRow", "RandomEnvFactory",
    "plan_once", "run_trials", "table1_suite", "grid_oracle", "summarize",
    "audit_path", "result_record", "write_results_csv", "read_results_csv",
    "write_table1_csv", "write_summary", "TIME_HISTOGRAM_BIN",
]

#: Histogram bin width (seconds) for run-time summaries.
TIME_HISTOGRAM_BIN = 0.1

#: The ten start/target pairs exercised against the irregular preset.
TABLE1_CASES: tuple[Query, ...] = tuple(
    Query(Point2(*s), Point2(*t)) for s, t in [
        ((12.0, -35.0), (-15.0, 10.0)),
        ((10.0, -30.0), (-20.0, 8.0)),
        ((25.0, -35.0), (-7.0, 10.0)),
        ((5.0, -28.0), (10.0, 13.0)),
        ((0.0, -32.0), (12.0, 10.0)),
        ((-2.0, -33.0), (13.0, 15.0)),
        ((-10.0, -30.0), (20.0, 10.0)),
        ((25.0, 8.0), (-12.0, -25.0)),
        ((-38.0, -10.0), (32.0, -10.0)),
        ((33.0, -7.0), (-20.0, -13.0)),
    ])

_PLANNERS: dict[str, Callable[..., PlanResult]] = {
    "rrtstar": plan_rrt_star,
    "pso": plan_pso,
}

PlannerParams = Union[RrtParams, PsoParams]
EnvSource = Union[Environment, Callable[[int], Environment]]


@dataclass(frozen=True)
class RandomEnvFactory:
    """Picklable seed -> Environment callable; its field arguments are checked on construction."""

    query: Query
    n_obstacles: int = 12
    bounds: Bounds = DEFAULT_BOUNDS
    radius_range: tuple[float, float] = (2.0, 6.0)
    clearance: float = 1.0

    def __post_init__(self):
        names = ("n_obstacles", "bounds", "radius_range", "clearance")
        checked = check_random_field(*(getattr(self, n) for n in names))
        for name, value in zip(names, checked):
            object.__setattr__(self, name, value)

    def __call__(self, seed: int) -> Environment:
        return generate_random_env(seed, n_obstacles=self.n_obstacles,
                                   bounds=self.bounds,
                                   radius_range=self.radius_range,
                                   query=self.query, clearance=self.clearance)


@dataclass(frozen=True)
class TrialStats:
    """Per-planner outcome of a trial batch; statistics cover feasible runs."""

    results: tuple[PlanResult, ...]

    @property
    def n_trials(self) -> int:
        return len(self.results)

    @property
    def n_feasible(self) -> int:
        return sum(1 for r in self.results if r.feasible)

    @property
    def feasibility_rate(self) -> float:
        return self.n_feasible / self.n_trials if self.results else math.nan

    @property
    def feasible_lengths(self) -> np.ndarray:
        return np.array([r.length for r in self.results if r.feasible])

    @property
    def mean_length(self) -> float:
        ls = self.feasible_lengths
        return float(ls.mean()) if ls.size else math.nan

    @property
    def std_length(self) -> float:
        """Population standard deviation (n divisor) of feasible lengths."""
        ls = self.feasible_lengths
        return float(ls.std(ddof=0)) if ls.size else math.nan

    @property
    def times(self) -> np.ndarray:
        return np.array([r.elapsed for r in self.results])

    @property
    def mean_time(self) -> float:
        return float(self.times.mean()) if self.results else math.nan

    @property
    def median_time(self) -> float:
        return float(np.median(self.times)) if self.results else math.nan

    def time_histogram(self) -> tuple[list[float], list[int]]:
        """(edges, counts) with fixed-width TIME_HISTOGRAM_BIN bins from 0."""
        ts = self.times
        if not ts.size:
            return [0.0], []
        n_bins = max(1, int(math.ceil(ts.max() / TIME_HISTOGRAM_BIN)))
        edges = [round(i * TIME_HISTOGRAM_BIN, 10) for i in range(n_bins + 1)]
        counts = [0] * n_bins
        for t in ts:
            b = min(int(t / TIME_HISTOGRAM_BIN), n_bins - 1)
            counts[b] += 1
        return edges, counts


def plan_once(env: EnvSource, query: Query, planner_id: str,
              params: PlannerParams, seed: int) -> PlanResult:
    """Run one seeded trial; `seed` overrides params.rng_seed.

    When `env` is a callable it is built from the same seed. A planner
    error, such as a query the environment buries, propagates: it is not
    an infeasible run.
    """
    if planner_id not in _PLANNERS:
        raise ValueError(f"unknown planner {planner_id!r}; expected one of {sorted(_PLANNERS)}")
    trial_env = env(seed) if callable(env) else env
    return _PLANNERS[planner_id](trial_env, query, replace(params, rng_seed=seed))


def run_trials(env: EnvSource, query: Query, planner_id: str,
               params: PlannerParams, n_trials: int, base_seed: int,
               jobs: int = 1) -> TrialStats:
    """Run n_trials independent seeded runs (seeds base_seed + 0..n-1).

    `env` may be a fixed Environment or a seed -> Environment callable, in
    which case each trial gets the environment built from its own seed.
    Trials are independent, so `jobs` > 1 fans them out over at most
    min(jobs, n_trials) processes; results always come back in seed order.
    The first trial error, in seed order, is raised for every `jobs`.
    """
    if planner_id not in _PLANNERS:
        raise ValueError(f"unknown planner {planner_id!r}; expected one of {sorted(_PLANNERS)}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [base_seed + i for i in range(n_trials)]
    # Under fork every worker starts with the pool, so never ask for idle ones.
    workers = min(jobs, n_trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(plan_once, [env] * n_trials,
                                    [query] * n_trials, [planner_id] * n_trials,
                                    [params] * n_trials, seeds))
    else:
        results = [plan_once(env, query, planner_id, params, s) for s in seeds]
    return TrialStats(tuple(results))


def summarize(stats: TrialStats) -> dict:
    """Plain-dict report of a trial batch, ready for JSON serialization."""
    report: dict = {
        "planner": stats.results[0].planner_id if stats.results else None,
        "n_trials": stats.n_trials,
        "n_feasible": stats.n_feasible,
        "feasibility_rate": stats.feasibility_rate,
    }
    if stats.n_feasible:
        ls = stats.feasible_lengths
        report["length"] = {
            "mean": stats.mean_length,
            "std": stats.std_length,
            "min": float(ls.min()),
            "max": float(ls.max()),
        }
    else:
        report["no_feasible_runs"] = True
    edges, counts = stats.time_histogram()
    report["time"] = {
        "mean": stats.mean_time,
        "median": stats.median_time,
        "histogram": {"bin_width": TIME_HISTOGRAM_BIN,
                      "edges": edges, "counts": counts},
    }
    return report


@dataclass(frozen=True)
class CaseRow:
    """One (case, planner) outcome of the ten-case suite."""

    case_id: int
    planner_id: str
    start: Point2
    target: Point2
    feasible: bool
    length: float


def table1_suite(env: Optional[Environment] = None,
                 cases: Sequence[Query] = TABLE1_CASES,
                 specs: Optional[Sequence[tuple[str, PlannerParams]]] = None,
                 seed: int = 0) -> list[CaseRow]:
    """Run every case with every planner; rows come back in case order.

    Case k uses rng seed `seed + k - 1` for both planners, so a suite is
    reproducible from a single integer. All case queries must be valid in
    the environment (the irregular preset by default).
    """
    if env is None:
        env, _ = irregular_preset("irregular-a")
    if specs is None:
        specs = [("rrtstar", RrtParams()), ("pso", PsoParams())]
    for q in cases:
        check_query(validate_query(env, q))
    rows: list[CaseRow] = []
    for case_idx, q in enumerate(cases, start=1):
        for planner_id, params in specs:
            res = plan_once(env, q, planner_id, params, seed + case_idx - 1)
            rows.append(CaseRow(case_id=case_idx, planner_id=planner_id,
                                start=q.start, target=q.target,
                                feasible=res.feasible, length=res.length))
    return rows


def audit_path(path: Sequence[Sequence[float]], env: Environment) -> bool:
    """Re-check a finished path segment-by-segment with the exact predicate."""
    if len(path) < 2:
        return False
    return all(edge_free(a, b, env) for a, b in zip(path, path[1:]))


def grid_oracle(env: Environment, query: Query, resolution: float = 0.5) -> float:
    """Shortest 8-connected grid path length between the query endpoints.

    Cells are free when their centers pass `CollisionField.free`, PSO's
    midpoint classifier; the search shares nothing with the planners.
    Straight moves cost `resolution`, diagonal moves sqrt(2) * resolution.
    Endpoints snap to the nearest free cell center within a 3-cell window
    (an error if none exists). Returns math.inf when the goal is unreachable.
    """
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be > 0, got {resolution}")
    b = env.bounds
    nx = max(1, int(math.ceil(b.width / resolution)))
    ny = max(1, int(math.ceil(b.height / resolution)))
    xs = b.x_min + (np.arange(nx) + 0.5) * resolution
    ys = b.y_min + (np.arange(ny) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    free = env.collision_field.free(centers).reshape(nx, ny)

    def snap(p: Point2, name: str) -> tuple[int, int]:
        ix = min(max(int((p.x - b.x_min) / resolution), 0), nx - 1)
        iy = min(max(int((p.y - b.y_min) / resolution), 0), ny - 1)
        if free[ix, iy]:
            return ix, iy
        best = None
        best_d = math.inf
        for cx in range(max(0, ix - 3), min(nx, ix + 4)):
            for cy in range(max(0, iy - 3), min(ny, iy + 4)):
                if not free[cx, cy]:
                    continue
                d = dist(p, (xs[cx], ys[cy]))
                if d < best_d:
                    best_d = d
                    best = (cx, cy)
        if best is None:
            raise InvalidQueryError(
                f"{name} {tuple(p)} has no free grid cell within 3 cells")
        return best

    start = snap(query.start, "start")
    goal = snap(query.target, "target")
    diag = math.sqrt(2.0) * resolution
    moves = [(-1, -1, diag), (-1, 0, resolution), (-1, 1, diag),
             (0, -1, resolution), (0, 1, resolution),
             (1, -1, diag), (1, 0, resolution), (1, 1, diag)]

    def heuristic(ix: int, iy: int) -> float:
        dx = abs(ix - goal[0])
        dy = abs(iy - goal[1])
        return resolution * (max(dx, dy) + (math.sqrt(2.0) - 1.0) * min(dx, dy))

    g_cost = np.full((nx, ny), math.inf)
    g_cost[start] = 0.0
    heap: list[tuple[float, int, int]] = [(heuristic(*start), start[0], start[1])]
    closed = np.zeros((nx, ny), dtype=bool)
    while heap:
        f, ix, iy = heapq.heappop(heap)
        if (ix, iy) == goal:
            return float(g_cost[ix, iy])
        if closed[ix, iy]:
            continue
        closed[ix, iy] = True
        base = g_cost[ix, iy]
        for dx_, dy_, cost in moves:
            jx, jy = ix + dx_, iy + dy_
            if not (0 <= jx < nx and 0 <= jy < ny):
                continue
            if not free[jx, jy] or closed[jx, jy]:
                continue
            cand = base + cost
            if cand < g_cost[jx, jy]:
                g_cost[jx, jy] = cand
                heapq.heappush(heap, (cand + heuristic(jx, jy), jx, jy))
    return math.inf


# --- durable record formats ---------------------------------------------

RESULT_FIELDS = ("planner", "seed", "case_id", "feasible", "length",
                 "elapsed_s", "iterations_used", "closest_approach")


def result_record(result: PlanResult, case_id: str = "") -> dict:
    """Flatten a PlanResult into the tabular results-file record."""
    return {
        "planner": result.planner_id,
        "seed": result.seed,
        "case_id": case_id,
        "feasible": result.feasible,
        "length": result.length,
        "elapsed_s": result.elapsed,
        "iterations_used": result.iterations_used,
        "closest_approach": result.closest_approach,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_results_csv(path, records: Sequence[dict]) -> None:
    """Write result records as CSV; floats carry six decimal places."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in RESULT_FIELDS])


def read_results_csv(path) -> list[dict]:
    """Inverse of write_results_csv (floats parsed back, bools restored)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append({
                "planner": row["planner"],
                "seed": int(row["seed"]),
                "case_id": row["case_id"],
                "feasible": row["feasible"] == "true",
                "length": float(row["length"]),
                "elapsed_s": float(row["elapsed_s"]),
                "iterations_used": int(row["iterations_used"]),
                "closest_approach": float(row["closest_approach"]),
            })
    return out


def write_table1_csv(path, rows: Sequence[CaseRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "planner", "start_x", "start_y",
                         "target_x", "target_y", "feasible", "length"])
        for r in rows:
            writer.writerow([r.case_id, r.planner_id, _fmt(r.start.x),
                             _fmt(r.start.y), _fmt(r.target.x), _fmt(r.target.y),
                             _fmt(r.feasible), _fmt(r.length)])


def write_summary(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
