"""Plan grid, trial batches, summary statistics, the ten-case suite, and a grid oracle.

Every experiment is one `plan_grid` of seeded plans, which checks every
row before the first; `run_trials` and `table1_suite` check the integers
that size and seed their rows, and build them.

The oracle, a feasibility check and near-optimal length yardstick, runs
its own A* over an 8-connected grid. Only its cell test is shared: cells
are classified by `CollisionField.free`, which keeps the planners' one
exact boundary rule.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

# Acceptance imports RandomEnvFactory, defined in environment, from this module.
# perfbench's tracer wraps generate_random_env as a name of this module.
from .environment import (Environment, Query, RandomEnvFactory, generate_random_env,  # noqa: F401
                          _write_text, irregular_preset, validate_query, write_json)
from .errors import FormatError, InvalidQueryError
# perfbench's tracer wraps audit_path and edge_free as names of this module.
from .geometry import Point2, audit_path, check_integer, check_real, dist, edge_free  # noqa: F401
from .pso import PsoParams, PsoRun
from .result import PlanResult, plan
from .rrtstar import RrtParams, RrtStarRun

#: Most cells `grid_oracle` builds: 52 times the default 160 x 120 grid, about
#: 0.1 GB at the oracle's ~105 bytes per cell.
MAX_GRID_CELLS = 1_000_000

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

#: Acceptance 1's random fields: this query on each seed's field, planned with that seed.
FIELD_QUERY = Query(Point2(20.0, -15.0), Point2(-25.0, 15.0))
FIELD_SEEDS = range(1000, 1050)

#: Every planner, in report order: id -> run class, which names its
#: parameter record as `params_type`.
_PLANNERS: dict[str, type] = {run.planner_id: run for run in (RrtStarRun, PsoRun)}

PlannerParams = RrtParams | PsoParams
EnvSource = Environment | Callable[[int], Environment]


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


def _planner(planner_id: str, params: PlannerParams) -> type:
    """`planner_id`'s run class; ValueError for an unknown id or another planner's params."""
    if planner_id not in _PLANNERS:
        raise ValueError(f"unknown planner {planner_id!r}; expected one of {sorted(_PLANNERS)}")
    run = _PLANNERS[planner_id]
    if not isinstance(params, run.params_type):
        raise ValueError(f"planner {planner_id!r} takes {run.params_type.__name__}, "
                         f"got {type(params).__name__}")
    return run


def plan_once(env: EnvSource, query: Query, planner_id: str,
              params: PlannerParams, seed: int) -> PlanResult:
    """Run one seeded trial; `seed` overrides params.rng_seed.

    When `env` is a callable it is built from the same seed. A planner
    error, such as a query the environment buries, propagates: it is not
    an infeasible run.
    """
    run = _planner(planner_id, params)
    trial_env = env(seed) if callable(env) else env
    return plan(run, trial_env, query, replace(params, rng_seed=seed))


def ProcessPoolExecutor(max_workers: int):
    """The standard process pool, imported on the first parallel run.

    Importing it loads multiprocessing and about 30 more modules, which a
    serial run never needs.
    """
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def plan_grid(rows: Sequence[tuple], jobs: int = 1) -> list[PlanResult]:
    """Plan each row, `plan_once`'s arguments (environment or factory, query,
    planner id, params, seed), and return the results in row order.

    Before the first plan or pool it checks `jobs`, then every row's
    planner, params and seed, then each fixed map's query (a factory checks
    its query on each field it draws). After these checks the first error a
    plan raises, in row order, is raised for every `jobs`. `jobs` > 1 fans
    the rows out over min(jobs, len(rows), os.cpu_count()) processes,
    importing the pool on the first such call; otherwise rows go through
    this module's `plan_once`.
    """
    jobs = check_integer("jobs", jobs, 1)
    for _, _, planner_id, params, seed in rows:
        _planner(planner_id, params)
        replace(params, rng_seed=seed)
    for env, query, *_ in rows:
        if not callable(env):
            validate_query(env, query)
    # Under fork every worker starts with the pool, so never ask for idle
    # ones, nor for more than the CPUs can run at once.
    workers = min(jobs, len(rows), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(plan_once, *zip(*rows)))
    return [plan_once(*row) for row in rows]


def run_trials(env: EnvSource, query: Query, planner_id: str,
               params: PlannerParams, n_trials: int, base_seed: int,
               jobs: int = 1) -> TrialStats:
    """Run n_trials independent seeded runs (seeds base_seed + 0..n-1).

    `env` may be a fixed Environment or a seed -> Environment callable, in
    which case each trial gets the environment built from its own seed.
    The trials are one `plan_grid`, which checks `jobs`, the planner, its
    params and a fixed map's query; results come back in seed order.
    `n_trials` and `base_seed` (up to a last seed of sys.maxsize) are
    checked first.
    """
    n_trials = check_integer("n_trials", n_trials, 1)
    check_integer("base_seed", base_seed, 0, sys.maxsize - n_trials + 1)
    rows = [(env, query, planner_id, params, base_seed + i) for i in range(n_trials)]
    return TrialStats(tuple(plan_grid(rows, jobs)))


def summarize(stats: TrialStats) -> dict:
    """Plain-dict report of a trial batch, ready for JSON serialization; `time`
    holds the mean and quartiles. An empty batch has None for its planner,
    feasibility rate and each time."""
    ran = bool(stats.results)
    report: dict = {
        "planner": stats.results[0].planner_id if ran else None,
        "n_trials": stats.n_trials,
        "n_feasible": stats.n_feasible,
        "feasibility_rate": stats.feasibility_rate if ran else None,
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
    q1, q3 = np.percentile(stats.times, [25, 75]).tolist() if ran else (None, None)
    report["time"] = {
        "mean": stats.mean_time if ran else None,
        "q1": q1,
        "median": stats.median_time if ran else None,
        "q3": q3,
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
    reproducible from a single integer. The seeds are checked first; the
    rows are one `plan_grid`, which checks the (planner, params) specs, by
    default each planner's defaults, and then each case's query on the
    environment (the irregular preset by default).
    """
    check_integer("seed", seed, 0, sys.maxsize - len(cases) + 1)
    if env is None:
        env, _ = irregular_preset("irregular-a")
    if specs is None:
        specs = [(planner_id, run.params_type()) for planner_id, run in _PLANNERS.items()]
    rows = [(env, q, planner_id, params, seed + k)
            for k, q in enumerate(cases) for planner_id, params in specs]
    return [CaseRow(case_id=s - seed + 1, planner_id=p, start=q.start, target=q.target,
                    feasible=res.feasible, length=res.length)
            for (_, q, p, _, s), res in zip(rows, plan_grid(rows))]


def grid_oracle(env: Environment, query: Query, resolution: float = 0.5) -> float:
    """Shortest 8-connected grid path length between the query endpoints.

    Cells are free when their centers pass `CollisionField.free`; the
    search shares nothing with the planners.
    Straight moves cost `resolution`, diagonal moves sqrt(2) * resolution.
    An endpoint outside the bounds is an InvalidQueryError; one inside an
    obstacle snaps to the nearest free cell center within a 3-cell window
    (an error if none exists). Returns math.inf when the goal is unreachable.
    A resolution that makes more than MAX_GRID_CELLS cells is a ValueError.
    """
    check_real("resolution", resolution, above=0)
    b = env.bounds
    for name, p in (("start", query.start), ("target", query.target)):
        if not b.contains(p):
            raise InvalidQueryError(f"{name} {tuple(p)} outside bounds")
    # Counted in floats first: a tiny resolution overflows math.ceil.
    cols, rows = b.width / resolution, b.height / resolution
    cells = max(1.0, cols) * max(1.0, rows)
    if cells <= MAX_GRID_CELLS:
        nx, ny = max(1, math.ceil(cols)), max(1, math.ceil(rows))
        cells = nx * ny
    if not cells <= MAX_GRID_CELLS:
        raise ValueError(f"resolution {resolution!r} makes {cells:,.7g} grid cells, "
                         f"more than {MAX_GRID_CELLS:,}")
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

def _read_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(cell)
    return cell == "true"


#: The plan record's columns, in file order: column -> (the PlanResult field
#: it holds, the parser read_results_csv applies).
_RESULT_COLUMNS = {"planner": ("planner_id", str), "seed": ("seed", int),
                   "feasible": ("feasible", _read_bool), "length": ("length", float),
                   "elapsed_s": ("elapsed", float), "iterations_used": ("iterations_used", int),
                   "closest_approach": ("closest_approach", float)}
RESULT_FIELDS = tuple(_RESULT_COLUMNS)


def result_record(result: PlanResult) -> dict:
    """Flatten a PlanResult into the plan record: the RESULT_FIELDS row of
    the results files, which `pathbench plan`'s result.json extends."""
    return {column: getattr(result, field) for column, (field, _) in _RESULT_COLUMNS.items()}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path, header: Sequence[str], rows) -> None:
    """Write `header` and then `rows`, each cell formatted by `_fmt`, in one `_write_text`."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    _write_text(path, text.getvalue())


def write_results_csv(path, records: Sequence[dict]) -> None:
    """Write result records as CSV; floats carry six decimal places."""
    _write_csv(path, RESULT_FIELDS, ([rec[k] for k in RESULT_FIELDS] for rec in records))


def read_results_csv(path) -> list[dict]:
    """Inverse of write_results_csv (floats parsed back, bools restored).

    A file that is not UTF-8, a missing or repeated column, a row longer or
    shorter than the header, and a cell that does not parse are each a
    FormatError naming the file, and the line and column where there is one.
    `feasible` is `true` or `false`; a float may be `nan`, as an infeasible length is written.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(io.StringIO(fh.read(), newline=""))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 ({exc})") from None
    header = reader.fieldnames or []
    for k in RESULT_FIELDS:
        if header.count(k) != 1:
            raise FormatError(f"{path} line 1: {'a second' if k in header else 'no'} column {k!r}")
    records = []
    for row in reader:
        where = f"{path} line {reader.line_num}"
        if None in row or None in row.values():
            raise FormatError(f"{where}: the row and the header differ in length")
        record = {}
        for k, (_, parse) in _RESULT_COLUMNS.items():
            try:
                record[k] = parse(row[k])
            except ValueError:
                raise FormatError(f"{where}, column {k!r}: cannot read {row[k]!r}") from None
        records.append(record)
    return records


def write_table1_csv(path, rows: Sequence[CaseRow]) -> None:
    _write_csv(path, ("case_id", "planner", "start_x", "start_y",
                      "target_x", "target_y", "feasible", "length"),
               ([r.case_id, r.planner_id, *r.start, *r.target, r.feasible, r.length]
                for r in rows))


def write_summary(path, payload: dict) -> None:
    write_json(path, payload)
