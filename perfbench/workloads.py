"""Workloads of the pathbench benchmark: inputs from a seed, a timed loop, checks.

Every workload is a closed loop with one client: each plan starts when the
previous one returns, as `jobs=1` runs them. A run plans a fixed number of
work units, sized from --seconds by the unit's nominal cost on a 2-CPU
machine. So the same workload, seed and size always plan the same inputs,
whatever the machine's speed or tracing, and their output digests can be
compared between runs and between traced and untraced passes.

All calls into pathbench go through module attributes looked up at call
time (``pb.benchmark.plan_once``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

PLANNERS = ("rrtstar", "pso")

#: Fresh imports of the package per batch. A run times one batch before
#: its timed section and one after it. setup_s is the median of both, each
#: round scaled by its batch's speed factor like the plan times: unscaled,
#: the median of ten runs moved between 34 and 52 ms with the machine's
#: speed.
SETUP_REPEATS = 11

#: Acceptance 1's query and the seed of its first random field.
FIELD_QUERY = ((20.0, -15.0), (-25.0, 15.0))
FIELD_BASE = 1000

#: RRT* budget on the empty map: twice the default, so the quadratic
#: nearest/neighbour scans dominate the plan.
OPEN_TREE_ITERATIONS = 4000

#: Two reference kernels are timed before every plan and after the last.
#: Other tenants of the 2-CPU machine move its speed by up to 1.7x for
#: minutes at a time, and the kernels slow down with the plans. So each
#: gated plan time is scaled by (nominal kernel time / kernel time around
#: that plan), the mean of the samples just before and just after it. RRT*
#: plans use the pure-Python nearest-point scan (its tree scans are
#: interpreter-bound), PSO plans the numpy disk test (its fitness is
#: array-bound). The nominal times are about the kernels' times on an idle
#: core of the reference machine. They set the unit, "ref_s": seconds at
#: that speed.
REF_PY_S = 0.008
REF_NP_S = 0.004
_REF = np.random.default_rng(0)
_REF_XS = _REF.uniform(-40.0, 40.0, 2000).tolist()
_REF_YS = _REF.uniform(-40.0, 40.0, 2000).tolist()
_REF_POINTS = _REF.uniform(-40.0, 40.0, (10000, 2))
_REF_CENTERS = _REF.uniform(-40.0, 40.0, (12, 2))
_REF_R2 = _REF.uniform(2.0, 6.0, 12) ** 2


def reference_s() -> tuple[float, float]:
    """Seconds taken by the Python and the numpy reference kernel."""
    t0 = time.perf_counter()
    for _ in range(20):
        best = math.inf
        for x, y in zip(_REF_XS, _REF_YS):
            d = (x - 3.5) ** 2 + (y - 7.25) ** 2
            if d < best:
                best = d
    t1 = time.perf_counter()
    for _ in range(2):
        dx = _REF_POINTS[:, 0:1] - _REF_CENTERS[None, :, 0]
        dy = _REF_POINTS[:, 1:2] - _REF_CENTERS[None, :, 1]
        ((dx * dx + dy * dy) < _REF_R2[None, :]).any(axis=1)
    return t1 - t0, time.perf_counter() - t1


@dataclass
class Plan:
    """One plan_once call as the benchmark saw it."""

    planner: str
    env: Any
    query: Any
    result: Any  # PlanResult, or None when the call raised
    seconds: float  # wall time around the call
    speed: float = 1.0  # nominal / measured time of the planner's reference kernel


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    unit_s: float  # nominal seconds per unit on a 2-CPU machine
    build: Callable  # (pb, seed, units) -> inputs
    timed: Callable  # (pb, inputs, plans, out_dir) -> outputs; plans via plan_once
    check: Callable  # (pb, outputs, plans, out_dir) -> list of problems


class PlanRecorder:
    """Keeps the inputs, result and wall time of every plan_once call.

    plan_once is wrapped where table1_suite and the workloads look it up,
    in pathbench.benchmark, and restored on exit.
    """

    def __init__(self, pb):
        self.module = pb.benchmark
        self.plans: list[Plan] = []
        self.refs: list[tuple[float, float]] = []  # reference_s() before each plan

    def __enter__(self) -> "PlanRecorder":
        original = self.original = self.module.plan_once
        plans, refs = self.plans, self.refs

        def plan_once(env, query, planner_id, params, seed):
            refs.append(reference_s())
            t0 = time.perf_counter()
            try:
                result = original(env, query, planner_id, params, seed)
            except Exception:
                plans.append(Plan(planner_id, env, query, None, time.perf_counter() - t0))
                raise
            plans.append(Plan(planner_id, env, query, result, time.perf_counter() - t0))
            return result

        self.module.plan_once = plan_once
        return self

    def __exit__(self, *exc) -> None:
        self.module.plan_once = self.original


def _plan_each(pb, query, env, specs, seed) -> None:
    # One failing plan is counted and the loop goes on.
    for planner, params in specs:
        try:
            pb.benchmark.plan_once(env, query, planner, params, seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)


# --- field-h2h ------------------------------------------------------------

def _field_build(pb, seed, units):
    query = pb.Query(pb.Point2(*FIELD_QUERY[0]), pb.Point2(*FIELD_QUERY[1]))
    return {
        "query": query,
        "factory": pb.RandomEnvFactory(query=query),
        "specs": (("rrtstar", pb.RrtParams()), ("pso", pb.PsoParams())),
        # (field seed, planner seed) per unit: the fields are fixed, the
        # planners' random streams come from the benchmark seed.
        "units": [(FIELD_BASE + i, seed * 1000 + i) for i in range(units)],
    }


def _field_timed(pb, inp, plans, out) -> dict:
    bm = pb.benchmark
    envs = []
    for field, planner_seed in inp["units"]:
        env = inp["factory"](field)
        envs.append(env)
        _plan_each(pb, inp["query"], env, inp["specs"], planner_seed)
    # Then what `pathbench bench` writes, and one rendered field.
    records, report = [], {}
    for planner in PLANNERS:
        stats = bm.TrialStats(tuple(p.result for p in plans
                                    if p.planner == planner and p.result is not None))
        records.extend(bm.result_record(r) for r in stats.results)
        report[planner] = bm.summarize(stats)
    bm.write_results_csv(out / "results.csv", records)
    bm.write_summary(out / "summary.json", report)
    paths = [p.result.path for p in plans
             if p.env is envs[0] and p.result is not None and p.result.feasible]
    svg = pb.render.environment_svg(envs[0], inp["query"], paths)
    (out / "field.svg").write_text(svg, encoding="utf-8")
    return {"records": records, "report": report, "svg_paths": len(paths)}


def _field_check(pb, outputs, plans, out) -> list[str]:
    problems = []
    back = pb.benchmark.read_results_csv(out / "results.csv")
    key = ("planner", "seed", "feasible", "iterations_used")
    if [[r[k] for k in key] for r in back] != [[r[k] for k in key] for r in outputs["records"]]:
        problems.append("results.csv does not read back as the records written")
    written = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if written != json.loads(json.dumps(outputs["report"])):
        problems.append("summary.json does not hold the summaries written")
    svg = (out / "field.svg").read_text(encoding="utf-8")
    if not svg.startswith("<svg") or svg.count("<polyline") != outputs["svg_paths"]:
        problems.append("field.svg is not the rendered field with its paths")
    return problems


# --- maze-table1 ------------------------------------------------------------

def _maze_build(pb, seed, units):
    env, _ = pb.irregular_preset("irregular-a")
    return {"env": env, "seed": seed,
            "cases": pb.TABLE1_CASES[:min(units, len(pb.TABLE1_CASES))]}


def _maze_timed(pb, inp, plans, out) -> dict:
    bm = pb.benchmark
    rows = bm.table1_suite(inp["env"], cases=inp["cases"], seed=inp["seed"])
    bm.write_table1_csv(out / "table1.csv", rows)
    return {"rows": rows}


def _maze_check(pb, outputs, plans, out) -> list[str]:
    problems = []
    rows = outputs["rows"]
    if len(rows) != len(plans) or any(
            (r.planner_id, r.feasible) != (p.planner, p.result.feasible)
            or (r.feasible and r.length != p.result.length)
            for r, p in zip(rows, plans)):
        problems.append("table1_suite rows do not match the plans it ran")
    lines = (out / "table1.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != len(rows) + 1:
        problems.append("table1.csv does not hold one line per row")
    return problems


# --- open-tree ------------------------------------------------------------

def _open_build(pb, seed, units):
    env, query = pb.irregular_preset("empty")
    specs = (("rrtstar", pb.RrtParams(iterations_num=OPEN_TREE_ITERATIONS)),
             ("pso", pb.PsoParams()))
    return {"env": env, "query": query, "specs": specs,
            "units": [seed * 1000 + i for i in range(units)]}


def _open_timed(pb, inp, plans, out) -> dict:
    for planner_seed in inp["units"]:
        _plan_each(pb, inp["query"], inp["env"], inp["specs"], planner_seed)
    return {}


def _no_checks(pb, outputs, plans, out) -> list[str]:
    return []


WORKLOADS = {w.name: w for w in (
    Workload("field-h2h", "field (one RRT* and one PSO plan)", 3.2,
             _field_build, _field_timed, _field_check),
    Workload("open-tree", "RRT* plan plus one PSO control plan", 5.4,
             _open_build, _open_timed, _no_checks),
    Workload("maze-table1", "case (one RRT* and one PSO plan)", 5.6,
             _maze_build, _maze_timed, _maze_check),
)}


def units_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.unit_s))


def setup(workload: Workload, seed: int, units: int):
    """Import the package afresh and build the inputs, SETUP_REPEATS times.

    Returns the package, the inputs of the last round, the round times and
    the batch's speed factor: REF_PY_S over the Python reference kernel's
    time, measured just before and just after the batch. numpy is imported
    before, once: it cannot be re-imported in a process, and it is a
    dependency rather than part of the program.
    """
    before = reference_s()[0]
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "pathbench" or m.startswith("pathbench.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        pb = importlib.import_module("pathbench")
        inputs = workload.build(pb, seed, units)
        times.append(time.perf_counter() - t0)
    return pb, inputs, times, REF_PY_S * 2 / (before + reference_s()[0])


@dataclass
class Pass:
    """One execution of a workload's timed section and its checks."""

    plans: list[Plan]
    wall_s: float  # the timed section, less the reference kernels
    outcomes: list[str]  # per plan: see classify()
    ratios: list[Optional[float]]  # length / grid_oracle for clean plans
    problems: list[str]
    digests: dict[str, str]


def run_pass(pb, workload: Workload, inputs: dict, out: Path) -> Pass:
    out.mkdir(parents=True, exist_ok=True)
    with PlanRecorder(pb) as recorder:
        t0 = time.perf_counter()
        try:
            outputs = workload.timed(pb, inputs, recorder.plans, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["the timed section raised"]
        else:
            problems = []
        wall = time.perf_counter() - t0 - sum(map(sum, recorder.refs))
    plans = recorder.plans
    refs = recorder.refs + [reference_s()]
    for p, before, after in zip(plans, refs, refs[1:]):
        kernel = 0 if p.planner == "rrtstar" else 1
        p.speed = (REF_PY_S, REF_NP_S)[kernel] * 2 / (before[kernel] + after[kernel])
    outcomes, ratios = score(pb, plans)
    if not problems:
        problems = workload.check(pb, outputs, plans, out)
    return Pass(plans, wall, outcomes, ratios, problems,
                {planner: digest(plans, planner) for planner in PLANNERS})


def score(pb, plans: list[Plan]) -> tuple[list[str], list[Optional[float]]]:
    """Each plan's outcome and, when clean, its length / grid_oracle ratio.

    Runs after the timed section: the oracle and the audit are not timed.
    """
    outcomes, ratios = [], []
    oracles: dict[tuple[int, Any], float] = {}
    for p in plans:
        outcome = classify(pb, p)
        ratio = None
        if outcome == "clean":
            key = (id(p.env), p.query)
            if key not in oracles:
                oracles[key] = pb.benchmark.grid_oracle(p.env, p.query)
            ratio = p.result.length / oracles[key]
        outcomes.append(outcome)
        ratios.append(ratio)
    return outcomes, ratios


def classify(pb, plan: Plan) -> str:
    """'clean', 'infeasible' or the reason the plan counts as failed.

    A plan fails when it raised, when plan_once swallowed a planner error
    (iterations_used == 0), when its length is not its path's length, or
    when it claims a path that audit_path rejects.
    """
    r = plan.result
    if r is None:
        return "raised"
    if r.iterations_used == 0:
        return "swallowed_error"
    if not r.feasible:
        return "infeasible"
    if r.path is None or len(r.path) < 2 or r.length != pb.geometry.path_length(r.path):
        return "length_mismatch"
    if not pb.benchmark.audit_path(r.path, plan.env):
        return "audit_rejected"
    return "clean"


#: Failures that mean the program broke, as opposed to a planner's claim
#: of feasibility that the exact audit rejects.
HARD_FAILURES = ("raised", "swallowed_error", "length_mismatch")


def digest(plans: list[Plan], planner: str) -> str:
    """Hash of every plan's (seed, feasible, path, length, iterations_used)."""
    h = hashlib.sha256()
    for p in plans:
        if p.planner != planner:
            continue
        r = p.result
        if r is None:
            h.update(b"raised\n")
            continue
        path = tuple(tuple(pt) for pt in r.path) if r.path else None
        h.update(repr((r.seed, r.feasible, path, r.length, r.iterations_used)).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(run: Pass, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The gated user-facing metrics of one untraced pass, as name -> (value, unit).

    Times are in ref_s (see REF_PY_S). PSO's speed is gated per swarm
    iteration: how many iterations a plan runs before the swarm stalls
    depends on its seed so much that the median plan time of one run moves
    by about 20% from seed to seed; plans_per_s, which adds those plans up,
    moves by up to 20% too. PSO's feasible rate is not gated: on these
    workloads every PSO plan claims a path, so it moves only with audit
    rejections, which ok_rate gates over twice as many plans.
    """
    m = {"setup_s": (setup_s, "s"),
         "rrtstar.plan_s.p50": (_median(p.seconds * p.speed for p in run.plans
                                        if p.planner == "rrtstar"), "ref_s"),
         "pso.iteration_ms.p50": (_median(_iteration_ms(run, scaled=True)), "ref_ms")}
    m["rrtstar.feasible_rate"] = (_feasible_rate(run, "rrtstar"), "ratio")
    for planner in PLANNERS:
        m[f"{planner}.length_ratio"] = (_median(
            r for p, r in zip(run.plans, run.ratios) if p.planner == planner and r is not None),
            "ratio")
    m["ok_rate"] = (1.0 - _fail_rate(run), "ratio")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m


def ref_wall_s(run: Pass) -> float:
    """The timed section at reference speed: plans scaled one by one, the
    rest (environments, summaries, writers) by the median speed."""
    plan_s = sum(p.seconds for p in run.plans)
    other_s = (run.wall_s - plan_s) * _median(p.speed for p in run.plans)
    return sum(p.seconds * p.speed for p in run.plans) + other_s


def _feasible_rate(run: Pass, planner: str) -> float:
    outcomes = [o for p, o in zip(run.plans, run.outcomes) if p.planner == planner]
    return outcomes.count("clean") / len(outcomes) if outcomes else math.nan


def _iteration_ms(run: Pass, scaled: bool) -> list[float]:
    return [1000.0 * p.seconds * (p.speed if scaled else 1.0) / p.result.iterations_used
            for p, outcome in zip(run.plans, run.outcomes)
            if p.planner == "pso" and outcome not in HARD_FAILURES]


def ungated(run: Pass) -> dict[str, tuple[float, str]]:
    """Metrics printed for people but not gated: see perfbench/README.md."""
    return {"plans_per_s": (len(run.plans) / ref_wall_s(run), "1/ref_s"),
            "plans_per_s (wall clock)": (len(run.plans) / run.wall_s, "1/s"),
            "rrtstar.plan_s.p50 (wall clock)": (_median(p.seconds for p in run.plans
                                                        if p.planner == "rrtstar"), "s"),
            "pso.iteration_ms.p50 (wall clock)": (_median(_iteration_ms(run, scaled=False)), "ms"),
            "pso.plan_s.p50 (wall clock)": (_median(p.seconds for p in run.plans
                                                    if p.planner == "pso"), "s"),
            "pso.feasible_rate": (_feasible_rate(run, "pso"), "ratio"),
            "speed factor p50": (_median(p.speed for p in run.plans), "ratio"),
            "fail_rate": (_fail_rate(run), "ratio")}


def _fail_rate(run: Pass) -> float:
    failed = sum(o not in ("clean", "infeasible") for o in run.outcomes)
    return failed / len(run.plans) if run.plans else math.nan


def fail_breakdown(run: Pass) -> dict[str, int]:
    reasons = ("raised", "swallowed_error", "length_mismatch", "audit_rejected")
    return {r: sum(o == r for o in run.outcomes) for r in reasons}


def per_layer(tracer, run: Pass, untraced: Pass) -> dict[str, tuple[float, str]]:
    """Layer metrics of one traced pass, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls(span):
        m[f"{span}.calls"] = (tracer.calls(span), "count")

    def self_s(span):
        m[f"{span}.self_s"] = (tracer.self_s(span), "s")

    def written(span):
        m[f"{span}.bytes"] = (tracer.count(span, "bytes"), "B")

    free = "geometry.CollisionField.free"
    calls(free)
    m[f"{free}.points"] = (tracer.count(free, "points"), "count")
    self_s(free)
    m[f"{free}.points_per_s"] = (_ratio(tracer.count(free, "points"), tracer.self_s(free)), "1/s")
    edge = "geometry.edge_free"
    calls(edge)
    self_s(edge)
    m[f"{edge}.free_ratio"] = (_ratio(tracer.count(edge, "free"), tracer.calls(edge)), "ratio")
    for name in ("find_nearest", "get_neighbors", "choose_parent", "rewire",
                 "random_sample", "steering", "RrtStarRun.step"):
        self_s(f"rrtstar.{name}")
    m["rrtstar.get_neighbors.mean_found"] = (
        _ratio(tracer.count("rrtstar.get_neighbors", "found"),
               tracer.calls("rrtstar.get_neighbors")), "count")
    calls("rrtstar.RrtTree.add")
    rrt_iterations = sum(p.result.iterations_used for p in run.plans
                         if p.planner == "rrtstar" and p.result is not None)
    m["rrtstar.insert_ratio"] = (_ratio(tracer.calls("rrtstar.RrtTree.add"), rrt_iterations), "ratio")
    calls("pso.step")
    self_s("pso.step")
    m["pso.iterations.p50"] = (_median(p.result.iterations_used for p in run.plans
                                       if p.planner == "pso" and p.result is not None), "count")
    self_s("pso.path_violation")
    calls("environment.generate_random_env")
    self_s("environment.generate_random_env")
    self_s("environment.validate_query")
    for name in ("plan_once", "table1_suite", "grid_oracle", "audit_path", "summarize"):
        self_s(f"benchmark.{name}")
    for name in ("write_results_csv", "write_summary", "write_table1_csv"):
        self_s(f"benchmark.{name}")
        written(f"benchmark.{name}")
    self_s("render.environment_svg")
    written("render.environment_svg")
    m["trace.overhead"] = (ref_wall_s(run) / ref_wall_s(untraced), "ratio")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
