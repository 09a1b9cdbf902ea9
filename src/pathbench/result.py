"""Common record type returned by every planner, and its parameter checks."""

from __future__ import annotations

import math
import numbers
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


def check_param_types(params, integers: tuple[str, ...], reals: tuple[str, ...]) -> None:
    """Validate the types of a frozen parameter record's fields.

    Each field named in `integers` must be an integer (numpy integers are
    stored back as int); each in `reals` a finite real number. Booleans
    are neither. Raises ValueError naming the first bad field.
    """
    for name in integers:
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(params, name, int(value))
    for name in reals:
        value = getattr(params, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
