"""The planners' common run loop, result record, number rule and parameter checks."""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

from .geometry import Point2, path_length


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one planning run.

    `path` is present iff the run was feasible, in which case `length`
    equals the geometric length of `path`. Infeasible runs carry
    length=nan. `closest_approach` says how close the planner got, in a
    planner-specific measure:

    * rrtstar: distance to the target from the tree node nearest it (0
      for a feasible run, whose path ends on the target);
    * pso: exact blocked length of the best path found, the length of it
      inside obstacles or out of bounds (0 for a feasible run).

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


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for an int, a float or a numpy number that float() can take.

    A bool is not one, nor is an integer too large for a float.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_param_types(params, integers: dict[str, int], reals: tuple[str, ...]) -> None:
    """Validate the fields of a frozen parameter record.

    `integers` maps each integer field to its minimum; its maximum is
    sys.maxsize, as numpy sizes and loop counts take no more. Each field
    in `reals` must be a finite real number. Fields are stored back as plain
    int and float, so a result's snapshot is the same whatever numeric
    type was given. Raises ValueError naming the first bad field.
    """
    for name, minimum in integers.items():
        value = getattr(params, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if value > sys.maxsize:
            raise ValueError(f"{name} must be <= {sys.maxsize}, got {value}")
        object.__setattr__(params, name, int(value))
    for name in reals:
        value = getattr(params, name)
        if not (is_real(value) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(params, name, float(value))


def plan(run_type, env, query, params) -> PlanResult:
    """Step a new `run_type` run until `should_stop`; `elapsed` includes its set-up."""
    t0 = time.perf_counter()
    run = run_type(env, query, params)
    while not run.should_stop:
        run.step()
    return run.result(time.perf_counter() - t0)


def build_result(run, elapsed: float, path: Optional[tuple[Point2, ...]],
                 closest_approach: float) -> PlanResult:
    """`run`'s PlanResult for its best path, None when infeasible. A one-point
    path has length 0; `params` is a dict of the record's plain fields."""
    length = math.nan
    if path is not None:
        length = path_length(path) if len(path) >= 2 else 0.0
    return PlanResult(
        planner_id=run.planner_id, seed=run.params.rng_seed, feasible=path is not None,
        length=length, elapsed=elapsed, iterations_used=run.iteration,
        closest_approach=closest_approach, path=path,
        params={f.name: getattr(run.params, f.name) for f in fields(run.params)})
