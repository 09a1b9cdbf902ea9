"""Common record type returned by every planner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import Point2


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one planning run.

    `path` is present iff the run was feasible, in which case `length`
    equals the geometric length of `path`. Infeasible runs carry
    length=nan. `closest_approach` says how close the planner got, in a
    planner-specific measure:

    * rrtstar: distance to the target from the tree node nearest it
      (for a feasible run, from the path's last point, 0 when the path
      ends on the target);
    * pso: exact blocked length of the best path found, the length of it
      inside obstacles or out of bounds (0 for a feasible run);
    * a run that raised a planner error inside `plan_once`: inf.

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
