"""The planners' common run loop, result record and parameter checks."""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import Optional

from .geometry import Point2, audit_path, check_integer, check_real, path_length


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one planning run, built by `build_result` for both planners.

    A run is feasible iff `audit_path` accepts its `path`, which then runs
    from the query start to its target with at least two points, and
    `length` is its geometric length. An infeasible run carries path=None
    and length=nan. `closest_approach` is 0 for a feasible run, and
    otherwise says how close the planner got, in its own measure:

    * rrtstar: distance to the target from the tree node nearest it;
    * pso: exact blocked length of the best path found, the length of it
      inside obstacles or out of bounds.

    `params` is a plain-dict snapshot of the planner settings.
    """

    planner_id: str
    seed: int
    feasible: bool
    length: float
    elapsed: float
    iterations_used: int
    closest_approach: float
    path: Optional[tuple[Point2, ...]]
    params: dict


def check_param_types(params, integers: dict[str, int], reals: dict[str, dict]) -> None:
    """Validate the fields of a frozen parameter record.

    `integers` maps each integer field to its `check_integer` minimum and
    `reals` each real field to its `check_real` bound keywords (`{}` for
    none). Fields are stored back as plain int and float, so a result's
    snapshot is the same whatever numeric type was given. Raises ValueError
    naming the first bad field.
    """
    for name, minimum in integers.items():
        object.__setattr__(params, name, check_integer(name, getattr(params, name), minimum))
    for name, bounds in reals.items():
        object.__setattr__(params, name, check_real(name, getattr(params, name), **bounds))


def plan(run_type, env, query, params) -> PlanResult:
    """Step a new `run_type` run until `should_stop`; `elapsed` includes its set-up."""
    t0 = time.perf_counter()
    run = run_type(env, query, params)
    while not run.should_stop:
        run.step()
    return run.result(time.perf_counter() - t0)


def build_result(run, elapsed: float, path: Optional[tuple[Point2, ...]],
                 closest_approach: Callable[[], float]) -> PlanResult:
    """`run`'s PlanResult for its candidate path (None if it has none).

    The target is appended to a candidate with one point or that stops
    short of it. The result is feasible iff `audit_path` accepts that path;
    only then is it measured, and only otherwise is `closest_approach()`
    called. `params` is a dict of the record's plain fields.
    """
    target = run.query.target
    if path is not None and (len(path) < 2 or path[-1] != target):
        path += (target,)
    feasible = path is not None and audit_path(path, run.env)
    return PlanResult(
        planner_id=run.planner_id, seed=run.params.rng_seed, feasible=feasible,
        length=path_length(path) if feasible else math.nan, elapsed=elapsed,
        iterations_used=run.iteration, path=path if feasible else None,
        closest_approach=0.0 if feasible else closest_approach(),
        params={f.name: getattr(run.params, f.name) for f in fields(run.params)})
