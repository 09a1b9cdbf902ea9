"""The run protocol both planners share: plan_* is the hand-driven loop."""

import copy
import math
from dataclasses import replace

import pytest

from pathbench.benchmark import FIELD_QUERY, FIELD_SEEDS, TABLE1_CASES, RandomEnvFactory
from pathbench.environment import Query, irregular_preset
from pathbench.geometry import audit_path, path_length
from pathbench.pso import PsoParams, PsoRun, plan_pso
from pathbench.rrtstar import RrtParams, RrtStarRun, plan_rrt_star
from kernel_corpus import _pinned_case


@pytest.mark.parametrize("name", ["empty", "field-1000", "irregular-a"])
@pytest.mark.parametrize("plan, run_type, params", [
    (plan_rrt_star, RrtStarRun, RrtParams()),
    (plan_pso, PsoRun, PsoParams()),
], ids=["rrtstar", "pso"])
def test_plan_is_the_hand_driven_loop(name, plan, run_type, params):
    env, query = _pinned_case(name)
    planned = plan(env, query, params)
    run = run_type(env, query, params)
    while not run.should_stop:
        run.step()
    driven = run.result(0.0)
    # repr keeps every float exactly and compares a nan length as equal.
    assert repr(replace(planned, elapsed=0.0)) == repr(driven)
    assert planned.elapsed > 0.0


@pytest.mark.parametrize("run_type, params, env, query", [
    (RrtStarRun, RrtParams(iterations_num=600), *_pinned_case("field-1000")),
    (PsoRun, PsoParams(), *_pinned_case("field-1000")),
    (PsoRun, PsoParams(), irregular_preset("irregular-a")[0], TABLE1_CASES[1]),
], ids=["rrtstar-field-1000", "pso-field-1000", "pso-irregular-a-case-2"])
def test_a_deep_copy_of_a_mid_run_planner_replays(run_type, params, env, query):
    def finish(run):
        while not run.should_stop:
            run.step()
        return run.result(0.0)

    fresh = finish(run_type(env, query, params))
    run = run_type(env, query, params)
    for _ in range(20):
        run.step()
    copied = copy.deepcopy(run)
    for res in (finish(copied), finish(run)):
        assert (res.path, res.length, res.iterations_used) == (
            fresh.path, fresh.length, fresh.iterations_used)


def _contract_cases():
    """(id, env, query): the empty preset, fields 1000-1004 with acceptance
    1's query and the ten cases on irregular-a, then a query whose start is
    its target on each of those maps."""
    empty, query = irregular_preset("empty")
    maps = [("empty", empty, [query])]
    maps += [(f"field-{seed}", RandomEnvFactory(query=FIELD_QUERY)(seed), [FIELD_QUERY])
             for seed in FIELD_SEEDS[:5]]
    maps.append(("irregular-a", irregular_preset("irregular-a")[0], list(TABLE1_CASES)))
    for name, env, queries in maps:
        for k, q in enumerate(queries, start=1):
            yield (f"{name}-{k}" if len(queries) > 1 else name), env, q
        yield f"{name}-start-is-target", env, Query(queries[0].start, queries[0].start)


CONTRACT_CASES = list(_contract_cases())


@pytest.mark.parametrize("name, env, query", CONTRACT_CASES,
                         ids=[c[0] for c in CONTRACT_CASES])
@pytest.mark.parametrize("plan, params", [
    (plan_rrt_star, RrtParams(iterations_num=300)),
    (plan_pso, PsoParams(max_iterations=200)),
], ids=["rrtstar", "pso"])
def test_both_planners_keep_one_result_contract(name, env, query, plan, params):
    # RRT* returned the one-point path (start,) when the start was its
    # target, a path audit_path rejects.
    res = plan(env, query, params)
    if res.feasible:
        assert len(res.path) >= 2
        assert res.path[0] == query.start and res.path[-1] == query.target
        assert audit_path(res.path, env)
        assert res.length == path_length(res.path)
        assert res.closest_approach == 0.0
    else:
        assert res.path is None and math.isnan(res.length)
