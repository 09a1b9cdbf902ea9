"""The run protocol both planners share: plan_* is the hand-driven loop."""

from dataclasses import replace

import pytest

from pathbench.pso import PsoParams, PsoRun, plan_pso
from pathbench.rrtstar import RrtParams, RrtStarRun, plan_rrt_star
from test_rrtstar import _pinned_case


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
