"""Trial harness, statistics, grid oracle, and the durable file formats."""

import hashlib
import importlib
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pathbench.benchmark import (FIELD_QUERY, FIELD_SEEDS, MAX_GRID_CELLS, RESULT_FIELDS,
                                 TABLE1_CASES, CaseRow, TrialStats, audit_path, grid_oracle,
                                 plan_grid, plan_once, read_results_csv, result_record, run_trials,
                                 summarize, table1_suite, write_results_csv,
                                 write_summary, write_table1_csv)
from pathbench.environment import (DEFAULT_BOUNDS, Environment, Query, RandomEnvFactory,
                                   generate_random_env, irregular_preset, read_json,
                                   validate_query)
from pathbench.errors import FormatError, InvalidQueryError
from pathbench.geometry import Bounds, Circle, Point2, Polygon, dist
from pathbench.pso import PsoParams
from pathbench.result import PlanResult
from pathbench.rrtstar import RrtParams, plan_rrt_star


def _result(planner="rrtstar", seed=0, feasible=True, length=10.0,
            elapsed=0.1, closest=0.0):
    return PlanResult(planner_id=planner, seed=seed, feasible=feasible,
                      length=length if feasible else math.nan,
                      elapsed=elapsed, iterations_used=100,
                      closest_approach=closest,
                      path=(Point2(0, 0), Point2(length, 0)) if feasible else None,
                      params={})


def test_stats_constant_lengths():
    stats = TrialStats(tuple(_result(seed=i, length=10.0) for i in range(3)))
    assert stats.mean_length == pytest.approx(10.0)
    assert stats.std_length == pytest.approx(0.0)
    assert stats.feasibility_rate == 1.0


def test_stats_population_std():
    stats = TrialStats((_result(seed=0, length=8.0), _result(seed=1, length=12.0)))
    assert stats.mean_length == pytest.approx(10.0)
    # Population (n divisor) convention: sqrt((4 + 4) / 2).
    assert stats.std_length == pytest.approx(2.0)


def test_stats_skip_infeasible_lengths():
    stats = TrialStats((_result(length=10.0), _result(feasible=False),
                        _result(length=14.0)))
    assert stats.n_feasible == 2
    assert stats.feasibility_rate == pytest.approx(2 / 3)
    assert stats.mean_length == pytest.approx(12.0)
    none = TrialStats((_result(feasible=False),))
    assert math.isnan(none.mean_length)
    assert math.isnan(none.std_length)


def test_summarize_shape():
    stats = TrialStats(tuple(_result(seed=i, length=length, elapsed=t) for i, (length, t)
                             in enumerate([(8.0, 0.05), (12.0, 0.15), (8.0, 0.17), (12.0, 0.31)])))
    report = summarize(stats)
    assert report["planner"] == "rrtstar"
    assert report["n_trials"] == 4
    assert report["length"]["mean"] == pytest.approx(10.0)
    assert report["length"]["std"] == pytest.approx(2.0)
    # Quartiles interpolate linearly between the sorted times.
    assert list(report["time"]) == ["mean", "q1", "median", "q3"]
    assert [report["time"][k] for k in ("q1", "median", "q3")] == pytest.approx(
        [0.125, 0.16, 0.205])
    assert report["time"]["median"] == stats.median_time
    empty = summarize(TrialStats((_result(feasible=False),)))
    assert empty["no_feasible_runs"] is True
    assert "length" not in empty


def test_summaries_are_strict_json(tmp_path):
    # An empty batch's rate and times were nan, which write_summary refused.
    write_summary(tmp_path / "none.json", summarize(TrialStats(())))
    assert read_json(tmp_path / "none.json") == {
        "planner": None, "n_trials": 0, "n_feasible": 0, "feasibility_rate": None,
        "no_feasible_runs": True,
        "time": {"mean": None, "q1": None, "median": None, "q3": None}}
    # A batch that ran keeps its numbers, an all-infeasible one included.
    failed = TrialStats((_result(feasible=False, elapsed=0.25),))
    write_summary(tmp_path / "failed.json", summarize(failed))
    report = read_json(tmp_path / "failed.json")
    assert (report["feasibility_rate"], report["time"]) == (
        0.0, {"mean": 0.25, "q1": 0.25, "median": 0.25, "q3": 0.25})


def test_plan_once_rejects_unknown_planner():
    env = generate_random_env(0, n_obstacles=0)
    with pytest.raises(ValueError):
        plan_once(env, FIELD_QUERY, "dijkstra", RrtParams(), 0)


def test_plan_once_and_run_trials_check_the_planner_and_its_params(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started for a refused call")

    monkeypatch.setattr("pathbench.benchmark.ProcessPoolExecutor", no_pool)
    env = generate_random_env(0, n_obstacles=0)
    for planner, params, match in [
            ("pso", RrtParams(), "'pso' takes PsoParams, got RrtParams"),
            ("rrtstar", PsoParams(), "'rrtstar' takes RrtParams, got PsoParams"),
            ("dijkstra", RrtParams(), "unknown planner 'dijkstra'")]:
        with pytest.raises(ValueError, match=match):
            plan_once(env, FIELD_QUERY, planner, params, 0)
        with pytest.raises(ValueError, match=match):
            run_trials(env, FIELD_QUERY, planner, params, n_trials=2, base_seed=0, jobs=2)


def test_run_trials_checks_its_integer_arguments_before_any_plan(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started for a refused call")

    def no_plan(*args, **kwargs):
        raise AssertionError("a plan ran for a refused call")

    monkeypatch.setattr("pathbench.benchmark.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("pathbench.benchmark.plan_once", no_plan)
    env = generate_random_env(0, n_obstacles=0)
    good = {"n_trials": 2, "base_seed": 0, "jobs": 2}
    for name, bad in [("n_trials", 2.5), ("n_trials", True), ("n_trials", 0),
                      ("base_seed", -1), ("base_seed", 1.0), ("base_seed", False),
                      ("jobs", True), ("jobs", 2.5), ("jobs", 0), ("jobs", np.float64(2))]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_trials(env, FIELD_QUERY, "rrtstar", RrtParams(), **dict(good, **{name: bad}))


def test_seeds_above_maxsize_are_refused_before_any_plan(monkeypatch):
    # run_trials and table1_suite planned with the seeds in range before
    # raising, and table1_suite took seed=True as seed 1.
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan ran for a refused seed")

    monkeypatch.setattr("pathbench.benchmark.plan_once", no_plan)
    env = generate_random_env(0, n_obstacles=0)
    with pytest.raises(ValueError, match=f"^base_seed must be <= {sys.maxsize - 1}, "):
        run_trials(env, FIELD_QUERY, "pso", PsoParams(), n_trials=2, base_seed=sys.maxsize)
    for bad, match in [(sys.maxsize, f"^seed must be <= {sys.maxsize - 9}, "),
                       (True, "^seed must be an integer >= 0"),
                       (-1, "^seed must be an integer >= 0"),
                       (1.0, "^seed must be an integer >= 0")]:
        with pytest.raises(ValueError, match=match):
            table1_suite(seed=bad)
    monkeypatch.undo()
    stats = run_trials(env, FIELD_QUERY, "pso", PsoParams(max_iterations=5, population=5),
                       n_trials=2, base_seed=sys.maxsize - 1)
    assert [r.seed for r in stats.results] == [sys.maxsize - 1, sys.maxsize]


def test_plan_once_overrides_seed():
    env = generate_random_env(4, query=FIELD_QUERY)
    res = plan_once(env, FIELD_QUERY, "rrtstar",
                    RrtParams(iterations_num=50, rng_seed=99), 5)
    assert res.seed == 5
    assert res.params["rng_seed"] == 5


def buried_start_env(seed):
    """Module level, so a worker process can unpickle it."""
    return Environment(Bounds(-40, 40, -40, 20), (Circle(FIELD_QUERY.start, 3.0),))


def test_plan_once_and_run_trials_raise_planner_errors():
    # A planner error is an error, not an infeasible row, for every jobs.
    with pytest.raises(InvalidQueryError, match="start"):
        plan_once(buried_start_env, FIELD_QUERY, "rrtstar", RrtParams(), 7)
    for jobs in (1, 2):
        with pytest.raises(InvalidQueryError, match="start"):
            run_trials(buried_start_env, FIELD_QUERY, "pso", PsoParams(max_iterations=5),
                       n_trials=2, base_seed=0, jobs=jobs)


def test_run_trials_deterministic_and_seed_ordered():
    env = generate_random_env(18, query=FIELD_QUERY)
    params = RrtParams(iterations_num=120)
    a = run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=4, base_seed=10)
    b = run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=4, base_seed=10)
    assert [r.seed for r in a.results] == [10, 11, 12, 13]
    assert [r.path for r in a.results] == [r.path for r in b.results]
    with pytest.raises(ValueError):
        run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=0, base_seed=0)


def test_run_trials_parallel_matches_serial():
    factory = RandomEnvFactory(query=FIELD_QUERY)
    params = PsoParams(max_iterations=40, population=10)
    serial = run_trials(factory, FIELD_QUERY, "pso", params, n_trials=4,
                        base_seed=100, jobs=1)
    parallel = run_trials(factory, FIELD_QUERY, "pso", params, n_trials=4,
                          base_seed=100, jobs=2)
    for s, p in zip(serial.results, parallel.results):
        assert s.seed == p.seed
        assert s.feasible == p.feasible
        assert s.path == p.path
        assert s.iterations_used == p.iterations_used


def test_run_trials_caps_and_checks_jobs(monkeypatch):
    started = []

    class SerialPool:
        """ProcessPoolExecutor stand-in: records max_workers, maps serially."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("pathbench.benchmark.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    env, _ = irregular_preset("empty")
    params = RrtParams(iterations_num=20)
    stats = run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=3,
                       base_seed=0, jobs=5000)
    assert started == [3]
    assert [r.seed for r in stats.results] == [0, 1, 2]
    # One trial never needs a pool, whatever jobs asks for.
    run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=1, base_seed=0, jobs=4)
    assert started == [3]
    # Nor more workers than CPUs; an unknown CPU count means one, and no pool.
    serial = [(r.seed, r.path, r.closest_approach) for r in stats.results]
    for cpus, pools in ((2, [3, 2]), (None, [3, 2])):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        stats = run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=3,
                           base_seed=0, jobs=6)
        assert started == pools
        assert [(r.seed, r.path, r.closest_approach) for r in stats.results] == serial
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            run_trials(env, FIELD_QUERY, "rrtstar", params, n_trials=2,
                       base_seed=0, jobs=jobs)


def _outcome(result):
    """Everything of a PlanResult but its wall time; a nan length compares equal."""
    return (result.planner_id, result.seed, result.feasible, result.length.hex(), result.path,
            result.iterations_used, result.closest_approach, result.params)


def test_plan_grid_gives_the_same_results_for_every_jobs():
    # Both planners, a factory row and a fixed-environment row, seeds out of order.
    factory = RandomEnvFactory(query=FIELD_QUERY)
    empty, query = irregular_preset("empty")
    rrt, pso = RrtParams(iterations_num=60), PsoParams(max_iterations=30, population=8)
    rows = [(factory, FIELD_QUERY, "pso", pso, 1003), (empty, query, "rrtstar", rrt, 7),
            (factory, FIELD_QUERY, "rrtstar", rrt, 1001), (empty, query, "pso", pso, 2)]
    serial = plan_grid(rows, jobs=1)
    assert [(r.planner_id, r.seed) for r in serial] == [(row[2], row[4]) for row in rows]
    assert [_outcome(r) for r in serial] == [_outcome(plan_once(*row)) for row in rows]
    assert [_outcome(r) for r in plan_grid(rows, jobs=2)] == [_outcome(r) for r in serial]
    assert plan_grid([], jobs=4) == []


def test_plan_grid_checks_every_row_and_jobs_before_any_plan(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started for a refused call")

    def no_plan(*args, **kwargs):
        raise AssertionError("a plan ran for a refused call")

    monkeypatch.setattr("pathbench.benchmark.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("pathbench.benchmark.plan_once", no_plan)
    env = generate_random_env(0, n_obstacles=0)
    good = [(env, FIELD_QUERY, "rrtstar", RrtParams(), 0),
            (env, FIELD_QUERY, "pso", PsoParams(), 1)]
    for last, match in [
            ((env, FIELD_QUERY, "pso", RrtParams(), 2), "'pso' takes PsoParams, got RrtParams"),
            ((env, FIELD_QUERY, "dijkstra", RrtParams(), 2), "unknown planner 'dijkstra'")]:
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=match):
                plan_grid([*good, last], jobs=jobs)
    for jobs in (0, -1, True, 2.5, np.float64(2)):
        with pytest.raises(ValueError, match="^jobs must be an integer"):
            plan_grid(good, jobs=jobs)


def test_plan_grid_checks_every_fixed_maps_query_before_any_plan(monkeypatch):
    # A fixed map's invalid query was caught only by the plan that reached
    # it. A factory row is not checked: the factory checks each field it draws.
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started for a refused call")

    def no_plan(*args, **kwargs):
        raise AssertionError("a plan ran for a refused call")

    monkeypatch.setattr("pathbench.benchmark.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("pathbench.benchmark.plan_once", no_plan)
    env, buried = generate_random_env(0, n_obstacles=0), buried_start_env(0)
    good = [(RandomEnvFactory(query=FIELD_QUERY), FIELD_QUERY, "pso", PsoParams(), 1000),
            (env, FIELD_QUERY, "rrtstar", RrtParams(), 0)]
    bad_planner = (env, FIELD_QUERY, "pso", RrtParams(), 3)
    for last, match in [
            ((buried, FIELD_QUERY, "pso", PsoParams(), 2), r"^start \(.*\) inside an obstacle$"),
            ((buried, Query(Point2(0.0, 35.0), FIELD_QUERY.target), "rrtstar", RrtParams(), 2),
             r"^start \(.*\) outside bounds$")]:
        for jobs in (1, 2):
            with pytest.raises(InvalidQueryError, match=match):
                plan_grid([*good, last], jobs=jobs)
            # A bad planner in any row is reported ahead of the bad query.
            for rows in ([*good, last, bad_planner], [bad_planner, *good, last]):
                with pytest.raises(ValueError, match="'pso' takes PsoParams, got RrtParams"):
                    plan_grid(rows, jobs=jobs)


def test_plan_grid_raises_the_first_error_in_row_order():
    inside = (buried_start_env, FIELD_QUERY, "pso", PsoParams(max_iterations=5), 0)
    outside = (buried_start_env, Query(Point2(0.0, 35.0), FIELD_QUERY.target),
               "rrtstar", RrtParams(iterations_num=20), 1)
    ok = (RandomEnvFactory(query=FIELD_QUERY), FIELD_QUERY, "rrtstar",
          RrtParams(iterations_num=20), 1000)
    for rows, match in [([ok, inside, outside], "start .* inside an obstacle"),
                        ([ok, outside, inside], "start .* outside bounds")]:
        for jobs in (1, 2):
            with pytest.raises(InvalidQueryError, match=match):
                plan_grid(rows, jobs=jobs)


def test_perfbench_tracer_installs_on_the_package(monkeypatch):
    # perfbench/tracer.py wraps package globals by name (validate_query in
    # pathbench.benchmark, say); without this test, deleting one would
    # break only `perfbench/run.py --trace 1`.
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import pathbench.benchmark as benchmark
    import tracer
    original = benchmark.plan_once
    tr = tracer.Tracer()
    try:
        tr.install()
        assert benchmark.plan_once is not original
    finally:
        tr.restore()
    assert benchmark.plan_once is original


@pytest.mark.parametrize("module", ["pathbench", "pathbench.benchmark", "pathbench.rrtstar",
                                    "pathbench.pso"])
def test_every_public_name_resolves(module):
    # A name deleted from a module but left in its __all__ breaks only
    # `from module import *`.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    if module == "pathbench":
        # The package loads each name from the module its table files it
        # under; a module that only re-imports the name (audit_path in
        # benchmark) would be loaded whole for it.
        assert set(mod.__all__) <= set(dir(mod))
        objects = {name: getattr(mod, name) for name in mod.__all__}
        assert {name: obj.__module__ for name, obj in objects.items()
                if (inspect.isclass(obj) or inspect.isfunction(obj))
                and obj.__module__ != "pathbench." + mod._HOME[name]} == {}


def test_a_short_rrt_star_plan_reaches_every_traced_layer(monkeypatch):
    # A speed-up that inlines a traced function would silently drop its
    # span from `perfbench/run.py --trace 1`. On a map with obstacles: a
    # short run on the empty map checks no edge.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer
    env, query = irregular_preset("irregular-a")
    params = RrtParams(iterations_num=50)
    tr = tracer.Tracer()
    with tr:
        traced = plan_rrt_star(env, query, params)
    wanted = {span for _, _, span, _ in tracer.TARGETS if span.startswith("rrtstar.")}
    assert {"rrtstar.find_nearest", "rrtstar.rewire", "rrtstar.RrtTree.add"} <= wanted
    assert [s for s in sorted(wanted | {"geometry.edge_free"}) if tr.calls(s) == 0] == []
    assert traced.path == plan_rrt_star(env, query, params).path


# Drops the package from sys.modules, imports it again and checks that the
# first generation can be collected. Module-level typing.Union and
# typing.Callable aliases sit in typing's caches and would keep every
# generation's classes, functions and module dicts alive; perfbench
# imports the package afresh for each run's setup.
_REIMPORT = """
import gc, sys, weakref
import pathbench
first = weakref.ref(pathbench.edge_free)
for name in [n for n in sys.modules if n == "pathbench" or n.startswith("pathbench.")]:
    del sys.modules[name]
del pathbench
import pathbench
del pathbench
gc.collect()
assert first() is None, "the first import of pathbench is still alive"
"""


def _run_in_a_fresh_interpreter(code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_reimported_package_frees_the_old_one():
    _run_in_a_fresh_interpreter(_REIMPORT)


# `import pathbench` loads each public name's module on first use: the
# quick start, and a random field drawn from its factory, load neither the
# harness (with csv and heapq) nor the renderer. The field's query is
# written out, since FIELD_QUERY lives in the harness. The process pool's
# import loads multiprocessing and about 30 more modules; a serial
# plan_grid (jobs=1, or one row) never needs it, a parallel run_trials does.
_IMPORT_FOOTPRINT = """
import sys
import pathbench
env, query = pathbench.irregular_preset("empty")
pathbench.PsoParams(), pathbench.plan_pso
pathbench.plan_rrt_star(env, query, pathbench.RrtParams(iterations_num=20))
field_query = pathbench.Query(pathbench.Point2(20.0, -15.0), pathbench.Point2(-25.0, 15.0))
field = pathbench.RandomEnvFactory(query=field_query)(1000)
assert len(field.obstacles) == 12
pathbench.RrtParams(), pathbench.PsoParams()
loaded = [m for m in ("pathbench.benchmark", "pathbench.render", "csv", "heapq")
          if m in sys.modules]
assert loaded == [], f"the quick start or a random field loaded {loaded}"
pathbench.plan_once
assert "pathbench.benchmark" in sys.modules, "plan_once did not load pathbench.benchmark"
try:
    pathbench.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("pathbench.no_such_name resolved")
pool_modules = ("multiprocessing", "concurrent.futures")
loaded = [m for m in pool_modules if m in sys.modules]
assert loaded == [], f"pathbench loaded {loaded} before a parallel run"
row = (env, query, "rrtstar", pathbench.RrtParams(iterations_num=20), 0)
pathbench.plan_grid([row, row[:4] + (1,)], jobs=1)
pathbench.plan_grid([row], jobs=4)
loaded = [m for m in pool_modules if m in sys.modules]
assert loaded == [], f"a serial plan_grid loaded {loaded}"
pathbench.run_trials(env, query, "rrtstar", pathbench.RrtParams(iterations_num=20),
                     n_trials=2, base_seed=0, jobs=2)
assert "concurrent.futures" in sys.modules, "a parallel run imported no pool"
"""


def test_import_pathbench_loads_the_process_pool_only_for_a_parallel_run():
    _run_in_a_fresh_interpreter(_IMPORT_FOOTPRINT)


# environment.py takes its number rule from geometry.py, not from the
# planners' result module.
_ENVIRONMENT_IMPORTS = """
import sys
import pathbench.environment
assert "pathbench.result" not in sys.modules, "pathbench.environment loaded pathbench.result"
"""


def test_import_environment_does_not_load_the_result_module():
    _run_in_a_fresh_interpreter(_ENVIRONMENT_IMPORTS)


def test_the_field_experiment_is_acceptance_1s():
    assert FIELD_QUERY == Query(Point2(20.0, -15.0), Point2(-25.0, 15.0))
    assert FIELD_SEEDS == range(1000, 1050)
    factory = RandomEnvFactory(query=FIELD_QUERY)
    assert all(len(factory(seed).obstacles) == 12 for seed in FIELD_SEEDS)


def test_random_env_factory_is_picklable_and_seeded():
    factory = RandomEnvFactory(query=FIELD_QUERY)
    clone = pickle.loads(pickle.dumps(factory))
    assert clone(42) == factory(42)
    assert factory(1) != factory(2)
    assert len(factory(5).obstacles) == 12


def test_grid_oracle_straight_line():
    env = Environment(Bounds(-20, 20, -20, 20), ())
    q = Query(Point2(0.0, 0.0), Point2(10.0, 0.0))
    assert grid_oracle(env, q, 0.5) == 10.0


def test_grid_oracle_diagonal():
    env = Environment(Bounds(-20, 20, -20, 20), ())
    q = Query(Point2(0.0, 0.0), Point2(10.0, 10.0))
    assert grid_oracle(env, q, 0.5) == pytest.approx(10 * math.sqrt(2.0))


def test_grid_oracle_detour_beats_straight_line():
    env = Environment(Bounds(-20, 20, -20, 20),
                      (Circle(Point2(5.0, 0.0), 3.0),))
    q = Query(Point2(0.0, 0.0), Point2(10.0, 0.0))
    length = grid_oracle(env, q, 0.5)
    assert 10.0 < length < 16.0


@pytest.mark.parametrize("axis", ["column", "row"])
def test_grid_oracle_passes_through_the_first_column_or_row(axis):
    # A 10 x 10 map at resolution 1 whose only passage between y < 4 and
    # y > 6 is the first column of cells; "row" transposes it.
    wall = [(1.0, 4.0), (10.0, 4.0), (10.0, 6.0), (1.0, 6.0)]
    start, target = (5.0, 1.0), (5.0, 9.0)
    if axis == "row":
        wall = [(y, x) for x, y in wall]
        start, target = start[::-1], target[::-1]
    env = Environment(Bounds(0.0, 10.0, 0.0, 10.0), (Polygon(tuple(Point2(*v) for v in wall)),))
    # Cell (5, 1) to (0, 4), up one cell, then to (5, 9), or its transpose:
    # 7 diagonal and 4 straight moves.
    assert grid_oracle(env, Query(start, target), 1.0) == pytest.approx(7 * math.sqrt(2.0) + 4)


def test_grid_oracle_plans_a_grid_of_exactly_the_cell_cap():
    env = Environment(Bounds(0.0, 1000.0, 0.0, 1000.0))
    assert 1000 * 1000 == MAX_GRID_CELLS
    assert grid_oracle(env, Query(Point2(0.5, 0.5), Point2(3.5, 0.5)), 1.0) == 3.0


def test_grid_oracle_unreachable():
    ring = []
    for k in range(12):
        ang = 2 * math.pi * k / 12
        ring.append(Circle(Point2(6 * math.cos(ang), 6 * math.sin(ang)), 2.2))
    env = Environment(Bounds(-20, 20, -20, 20), tuple(ring))
    q = Query(Point2(15.0, -15.0), Point2(0.0, 0.0))
    assert grid_oracle(env, q, 0.5) == math.inf


@pytest.mark.parametrize("bounds, resolution, cells", [
    (Bounds(0.0, 10.0, 0.0, 10.0), 1e-300, "inf"),  # numpy's bare "Maximum allowed size exceeded"
    (Bounds(0.0, 10.0, 0.0, 10.0), 5e-324, "inf"),  # a bare OverflowError from math.ceil
    (DEFAULT_BOUNDS, 1e-4, "4.8e+11"),  # which the oracle would try to allocate
    # 999,899.7 cells counted in floats, but 1,001 x 1,000 = 1,001,000 built
    (Bounds(0.0, 500.25, 0.0, 499.7), 0.5, "1,001,000"),
], ids=["1e-300", "5e-324", "default-bounds-1e-4", "ceil-above-the-cap"])
def test_grid_oracle_refuses_a_grid_above_the_cell_cap(bounds, resolution, cells):
    env = Environment(bounds)
    query = Query((bounds.x_min + 1.0, bounds.y_min + 1.0),
                  (bounds.x_max - 1.0, bounds.y_max - 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"resolution {resolution!r} makes {re.escape(cells)} "
                                             rf"grid cells, more than {MAX_GRID_CELLS:,}"):
            grid_oracle(env, query, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before any grid array


def test_grid_oracle_snaps_blocked_endpoints():
    env = Environment(Bounds(-20, 20, -20, 20),
                      (Circle(Point2(0.25, 0.25), 0.6),))
    q = Query(Point2(0.25, 0.25), Point2(10.0, 0.0))
    length = grid_oracle(env, q, 0.5)
    assert math.isfinite(length)
    # No free cell within the three-cell snap window: a hard error.
    sealed = Environment(Bounds(-20, 20, -20, 20),
                         (Circle(Point2(0.0, 0.0), 2.5),))
    with pytest.raises(InvalidQueryError):
        grid_oracle(sealed, Query(Point2(0.0, 0.0), Point2(10.0, 0.0)), 0.5)
    # True ran at resolution 1.0, 10**400 died with an OverflowError and
    # "0.5" with a TypeError.
    for bad in (0.0, True, 10**400, "0.5"):
        with pytest.raises(ValueError, match="^resolution must be"):
            grid_oracle(env, q, bad)


def test_grid_oracle_refuses_an_endpoint_outside_the_bounds():
    env, query = irregular_preset("empty")
    b = env.bounds
    # (1000, 1000) used to snap onto the nearest corner cell and get 58.435.
    for p in [(1000.0, 1000.0), (b.x_min - 0.1, 0.0), (b.x_max + 0.1, 0.0),
              (0.0, b.y_min - 0.1), (0.0, b.y_max + 0.1)]:
        for q in (Query(p, query.target), Query(query.start, p)):
            # The planners' refusal, word for word.
            with pytest.raises(InvalidQueryError) as planners:
                validate_query(env, q)
            with pytest.raises(InvalidQueryError, match=f"^{re.escape(str(planners.value))}$"):
                grid_oracle(env, q, 0.5)
    for p in [(b.x_min, 0.0), (b.x_max, 0.0), (0.0, b.y_min), (0.0, b.y_max)]:
        assert math.isfinite(grid_oracle(env, Query(p, query.target), 0.5))


#: SHA-256 of `CollisionField.free` over the oracle's 0.5-unit cell centres,
#: recorded when `free` still had its own vectorised point kernel.
ORACLE_GRID_SHA256 = {
    "field-1000": "958a43fbab1d85fe9809dd318e5fd7ad0996560b07ce5e0ea7896a000113866f",
    "irregular-a": "f8dae3b83ec183302252498453e10baad846807fc53c02cd7db10bd0788c361a",
}


@pytest.mark.parametrize("name, query, length", [
    ("field-1000", FIELD_QUERY, 57.426406871192796),
    ("irregular-a", TABLE1_CASES[0], 56.1837661840735),
    ("irregular-a", TABLE1_CASES[1], 54.23401871576768),
    ("irregular-a", TABLE1_CASES[2], 58.54772721475245),
], ids=["field-1000", "irregular-a-case-1", "irregular-a-case-2", "irregular-a-case-3"])
def test_grid_oracle_cells_and_lengths_are_pinned(name, query, length):
    env = (RandomEnvFactory(query=FIELD_QUERY)(1000) if name == "field-1000"
           else irregular_preset(name)[0])
    # The cell centres as `grid_oracle` lays them out.
    b = env.bounds
    xs = b.x_min + (np.arange(math.ceil(b.width / 0.5)) + 0.5) * 0.5
    ys = b.y_min + (np.arange(math.ceil(b.height / 0.5)) + 0.5) * 0.5
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    free = env.collision_field.free(np.column_stack([gx.ravel(), gy.ravel()]))
    assert hashlib.sha256(free.tobytes()).hexdigest() == ORACLE_GRID_SHA256[name]
    assert grid_oracle(env, query, 0.5) == length


def test_audit_path():
    env = Environment(Bounds(-20, 20, -20, 20), (Circle(Point2(5.0, 0.0), 2.0),))
    assert audit_path((Point2(0, 0), Point2(0, 5), Point2(10, 5)), env)
    assert not audit_path((Point2(0, 0), Point2(10, 0)), env)
    assert not audit_path((Point2(0, 0),), env)


def test_table1_cases_are_fixed():
    assert len(TABLE1_CASES) == 10
    assert TABLE1_CASES[0] == Query(Point2(12.0, -35.0), Point2(-15.0, 10.0))
    assert TABLE1_CASES[3] == Query(Point2(5.0, -28.0), Point2(10.0, 13.0))
    assert TABLE1_CASES[8] == Query(Point2(-38.0, -10.0), Point2(32.0, -10.0))
    assert dist(TABLE1_CASES[8].start, TABLE1_CASES[8].target) == pytest.approx(70.0)


def test_table1_suite_shape():
    specs = [("rrtstar", RrtParams(iterations_num=60)),
             ("pso", PsoParams(max_iterations=40, population=10))]
    rows = table1_suite(specs=specs, seed=3)
    assert len(rows) == 20
    assert [r.case_id for r in rows] == [k for k in range(1, 11) for _ in (0, 1)]
    assert [r.planner_id for r in rows[:4]] == ["rrtstar", "pso", "rrtstar", "pso"]
    assert rows[0].start == TABLE1_CASES[0].start
    for r in rows:
        if r.feasible:
            assert r.length >= dist(r.start, r.target) - 1e-9
        else:
            assert math.isnan(r.length)


# The default ten-case maze suite, pinned bit for bit: a sha256 of
# repr([(case_id, planner_id, feasible, length.hex())]) over its twenty rows.
TABLE1_SUITE_SHA256 = "bdf940960e92fe7a1a4ee09e9419c5a1b9e5ebccc7553588604634dbb86daf78"


def test_table1_suite_is_pinned():
    rows = table1_suite(seed=0)
    digest = repr([(r.case_id, r.planner_id, r.feasible, r.length.hex()) for r in rows])
    assert hashlib.sha256(digest.encode()).hexdigest() == TABLE1_SUITE_SHA256


def test_table1_suite_validates_cases():
    with pytest.raises(InvalidQueryError):
        table1_suite(cases=[Query(Point2(-20.0, -20.5), Point2(0.0, 10.0))],
                     specs=[("rrtstar", RrtParams(iterations_num=10))])


def test_table1_suite_checks_every_spec_before_its_first_plan(monkeypatch):
    plans = []
    monkeypatch.setattr("pathbench.benchmark.plan_once",
                        lambda *args: plans.append(args))
    for specs, match in [
            ([("rrtstar", RrtParams()), ("pso", RrtParams())],
             "'pso' takes PsoParams, got RrtParams"),
            ([("rrtstar", RrtParams()), ("dijkstra", RrtParams())],
             "unknown planner 'dijkstra'")]:
        with pytest.raises(ValueError, match=match):
            table1_suite(specs=specs)
    assert plans == []


def test_results_csv_round_trip(tmp_path):
    env, _ = irregular_preset("empty")
    q = Query(Point2(0.0, 0.0), Point2(6.0, 0.0))
    records = [
        result_record(plan_once(env, q, "rrtstar",
                                RrtParams(iterations_num=40), 1)),
        result_record(_result(planner="pso", seed=2, feasible=False,
                              closest=math.inf)),
    ]
    target = tmp_path / "results.csv"
    write_results_csv(target, records)
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS)
    back = read_results_csv(target)
    assert len(back) == 2
    assert back[0]["planner"] == "rrtstar"
    assert back[0]["seed"] == 1
    assert back[0]["feasible"] is True
    assert back[0]["length"] == pytest.approx(records[0]["length"], abs=1e-6)
    assert back[1]["feasible"] is False
    assert math.isnan(back[1]["length"])
    assert back[1]["closest_approach"] == math.inf


def test_write_results_csv_leaves_the_file_as_it_was_when_it_refuses(tmp_path):
    # It used to open the file first, and a record without a field left
    # only the header.
    target = tmp_path / "results.csv"
    write_results_csv(target, [result_record(_result(planner="pso"))])
    before = target.read_bytes()
    with pytest.raises(KeyError):
        write_results_csv(target, [{"planner": "pso"}])
    assert target.read_bytes() == before


GOOD_ROW = "pso,2,false,nan,0.010000,40,3.000000"


@pytest.mark.parametrize("lines, message", [
    # Each one slipped through or raised a bare KeyError or ValueError.
    ([",".join(RESULT_FIELDS).replace(",feasible", ""), "pso,2,nan,0.010000,40,3.000000"],
     "line 1: no column 'feasible'"),
    ([",".join(RESULT_FIELDS), GOOD_ROW, "pso,2.5,false,nan,0.010000,40,3.000000"],
     "line 3, column 'seed': cannot read '2.5'"),
    ([",".join(RESULT_FIELDS), "pso,2,yes,nan,0.010000,40,3.000000"],
     "line 2, column 'feasible': cannot read 'yes'"),
    ([",".join(RESULT_FIELDS), "pso,2,false,nan,0.010000,40"],
     "line 2: the row and the header differ in length"),
    ([",".join(RESULT_FIELDS), GOOD_ROW + ",extra"],
     "line 2: the row and the header differ in length"),
], ids=["missing-column", "bad-int", "feasible-yes", "short-row", "long-row"])
def test_read_results_csv_rejects_a_bad_file(tmp_path, lines, message):
    target = tmp_path / "results.csv"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{target} {message}')}$"):
        read_results_csv(target)


def test_table1_csv_golden_header(tmp_path):
    rows = [CaseRow(case_id=1, planner_id="rrtstar",
                    start=Point2(12.0, -35.0), target=Point2(-15.0, 10.0),
                    feasible=True, length=61.25)]
    target = tmp_path / "table1.csv"
    write_table1_csv(target, rows)
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case_id,planner,start_x,start_y,target_x,target_y,feasible,length"
    assert lines[1] == "1,rrtstar,12.000000,-35.000000,-15.000000,10.000000,true,61.250000"


def test_write_summary_round_trips(tmp_path):
    import json
    payload = {"planner": "pso", "n_trials": 3, "time": {"median": 0.25}}
    target = tmp_path / "summary.json"
    write_summary(target, payload)
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == payload
