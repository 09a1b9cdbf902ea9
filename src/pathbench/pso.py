"""Particle-swarm path planner over a fixed-length waypoint encoding.

Each particle is a flat vector [x1, y1, ..., xn, yn] of intermediate
waypoints; decoding prepends the query start and appends the target.
Fitness is geometric path length plus a penalty proportional to the
length of path lying inside obstacles (or out of bounds), computed
exactly in one pass over a run's path buffer: each segment's `np.hypot`
length, taken once, adds to the path length and scales the blocked
measure in t that `CollisionField._blocked_measure` gives the segment.
As the penalty is never negative, a particle whose length alone reaches
its personal best (+inf for the first swarm) cannot improve on it and
skips the collision kernel. The swarm stops early once the global best
has been flat for a full stagnation window. `build_result` judges the
decoded global best with `audit_path`, as it does RRT*'s path; only an
infeasible one is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import Environment, Query, validate_query
from .errors import InvalidPathError
from .geometry import CollisionField, Point2, check_integer, check_real
from .result import PlanResult, build_result, check_param_types, plan

__all__ = [
    "PsoParams", "PsoRun", "plan_pso", "decode", "fitness",
    "path_violation", "update_inertia", "MAX_SWARM_WAYPOINTS",
]

#: Most waypoints a swarm may hold, population * n_waypoints: each
#: (population, 2 * n_waypoints) array of a run is 16 MB at the cap.
MAX_SWARM_WAYPOINTS = 1_000_000


@dataclass(frozen=True)
class PsoParams:
    max_iterations: int = 2000
    population: int = 50
    n_waypoints: int = 5
    c1: float = 2.0
    c2: float = 2.0
    omega_start: float = 0.9
    omega_end: float = 0.4
    v_max: float = 4.0
    penalty_lambda: float = 1000.0
    stop_epsilon: float = 1e-4
    stagnation_window: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        check_param_types(
            self, {"max_iterations": 1, "population": 1, "n_waypoints": 1,
                   "stagnation_window": 1, "rng_seed": 0},
            {"c1": {}, "c2": {}, "omega_start": {}, "omega_end": {}, "v_max": {"above": 0},
             "penalty_lambda": {"at_least": 0}, "stop_epsilon": {"at_least": 0}})
        if not self.omega_start >= self.omega_end:
            raise ValueError("omega_start must be >= omega_end")
        if self.population * self.n_waypoints > MAX_SWARM_WAYPOINTS:
            raise ValueError(f"population * n_waypoints must be <= {MAX_SWARM_WAYPOINTS:,}, "
                             f"got {self.population * self.n_waypoints:,}")


def _waypoint_vector(position: Sequence[float]) -> np.ndarray:
    """A waypoint vector as flat float64: a positive, even number of entries,
    each passing `check_real`; anything else is a ValueError."""
    vec = np.asarray(position, dtype=object).ravel()
    if vec.size == 0 or vec.size % 2 != 0:
        raise ValueError(f"waypoint vector length must be a positive even number, got {vec.size}")
    return np.array([check_real("waypoint coordinate", v) for v in vec], dtype=np.float64)


def decode(position: Sequence[float], query: Query) -> tuple[Point2, ...]:
    """Turn a flat waypoint vector into start -> w1 ... wn -> target; a
    ValueError for an odd or zero count or an entry `check_real` refuses."""
    xy = _waypoint_vector(position).tolist()
    return (query.start, *map(Point2, xy[0::2], xy[1::2]), query.target)


def _scores(paths: np.ndarray, field: CollisionField, penalty_lambda: float,
            bests: np.ndarray | float) -> np.ndarray:
    """Per-path length plus penalty_lambda times the exact blocked length of
    an (m, n + 2, 2) waypoint tensor, in the one pass the module describes. A
    path whose length is not below its entry of `bests` (nan included)
    keeps its length and skips the collision kernel."""
    seg = paths[:, 1:] - paths[:, :-1]
    seg_len = np.hypot(seg[:, :, 0], seg[:, :, 1])
    scores = seg_len.sum(axis=1)
    open_ = scores < bests
    k = np.count_nonzero(open_)
    if k:
        xy = paths.compress(open_, axis=0).transpose(2, 0, 1)  # (x or y, path, waypoint)
        (ax, ay), (ex, ey) = xy[:, :, :-1].reshape(2, -1), xy[:, :, 1:].reshape(2, -1)
        measure = field._blocked_measure(ax, ay, ex, ey).reshape(k, -1)
        scores[open_] += penalty_lambda * (measure * seg_len.compress(open_, axis=0)).sum(axis=1)
    return scores


def path_violation(path: Sequence[Sequence[float]], env: Environment) -> float:
    """Exact blocked length of an explicit waypoint path.

    The length of path inside obstacles or out of bounds; zero for a path
    that only touches obstacle boundaries. Raises InvalidPathError for
    fewer than two waypoints."""
    if len(path) < 2:
        raise InvalidPathError(f"path needs at least 2 waypoints, got {len(path)}")
    wp = np.asarray(path, dtype=np.float64)
    return float(env.collision_field.blocked_lengths(wp[:-1], wp[1:]).sum())


def fitness(position: Sequence[float], query: Query, env: Environment,
            penalty_lambda: float) -> float:
    """Path length plus penalty_lambda times the exact blocked length; a
    ValueError for a position `decode` refuses or a penalty_lambda `PsoParams` does."""
    wp = np.vstack((query.start, _waypoint_vector(position).reshape(-1, 2), query.target))
    penalty_lambda = PsoParams(penalty_lambda=penalty_lambda).penalty_lambda
    return float(_scores(wp[None], env.collision_field, penalty_lambda, math.inf)[0])


def update_inertia(iteration: int, max_iterations: int, omega_start: float,
                   omega_end: float, stagnant: bool,
                   rng: np.random.Generator) -> float:
    """Linearly decaying inertia weight with a jolt when the swarm stalls.

    The schedule runs omega_start at iteration 0 down to omega_end at
    max_iterations. When `stagnant` (no personal best improved for a full
    stagnation window) the value gains a uniform perturbation in
    [-0.1, 0.1], clamped back into [omega_end, omega_start].
    max_iterations is an integer >= 1, else ValueError.
    """
    max_iterations = check_integer("max_iterations", max_iterations, 1)
    frac = min(max(iteration / max_iterations, 0.0), 1.0)
    omega = omega_start - (omega_start - omega_end) * frac
    if stagnant:
        omega += float(rng.uniform(-0.1, 0.1))
        omega = min(max(omega, omega_end), omega_start)
    return omega


class PsoRun:
    """One in-progress swarm optimization; step() advances one iteration.

    `fitnesses` holds each particle's fitness at its current position,
    except for a particle that `_evaluate` pruned: one whose path length
    alone was not below its personal best. That particle's entry is its
    path length, a lower bound on its fitness that is still at least its
    personal best, so the personal and global bests are those of a full
    evaluation.

    Set-up draws the first swarm as numpy's `uniform` does, lo + (hi - lo)
    times `rng.random`, in place: the same doubles and generator state.
    """

    planner_id = "pso"
    params_type = PsoParams

    def __init__(self, env: Environment, query: Query, params: PsoParams):
        validate_query(env, query)
        self.env = env
        self.query = query
        self.params = params
        self.rng = np.random.default_rng(params.rng_seed)
        b = env.bounds
        m, n = params.population, params.n_waypoints
        self._lo = np.array((b.x_min, b.y_min) * n)
        self._hi = np.array((b.x_max, b.y_max) * n)
        self._c = np.array((params.c1, params.c2))
        positions = self.rng.random((m, 2 * n))
        positions *= self._hi - self._lo
        positions += self._lo
        # Particle 0 starts on the straight line so a trivially clear
        # query is solved from the first evaluation.
        ts = np.arange(1, n + 1) / (n + 1)
        sx, sy = query.start
        tx, ty = query.target
        positions[0, 0::2] = sx + (tx - sx) * ts
        positions[0, 1::2] = sy + (ty - sy) * ts
        self.positions = positions
        # The query ends are written once; `_evaluate` fills in the waypoints.
        self._paths = np.empty((m, n + 2, 2))
        self._paths[:, 0], self._paths[:, -1] = query.start, query.target
        self.velocities = np.zeros_like(positions)
        self._pull = np.empty_like(positions)
        self.pbest_positions = positions.copy()
        self.pbest_fitnesses = np.full(m, math.inf)
        self.gbest_position = positions[0].copy()
        self.gbest_fitness = math.inf
        self._evaluate()

        self.iteration = 0
        self.omega = params.omega_start
        self.stopped = False
        self._last_improvement = 0
        self._flat_streak = 0

    @property
    def stagnant(self) -> bool:
        return (self.iteration - self._last_improvement) >= self.params.stagnation_window

    @property
    def should_stop(self) -> bool:
        return self.stopped or self.iteration >= self.params.max_iterations

    def step(self) -> None:
        """Inertia, velocity, position, fitness, and best-tracking update."""
        p = self.params
        self.omega = update_inertia(self.iteration, p.max_iterations, p.omega_start,
                                    p.omega_end, self.stagnant, self.rng)
        # One r1, r2 pair per particle, drawn in index order. The velocity
        # update omega v + (c1 r1) (pbest - x) + (c2 r2) (gbest - x) runs in
        # place, in that order of operations.
        r = self.rng.random((p.population, 2))
        r *= self._c
        x, v, pull = self.positions, self.velocities, self._pull
        v *= self.omega
        np.subtract(self.pbest_positions, x, out=pull)
        pull *= r[:, 0:1]
        v += pull
        np.subtract(self.gbest_position, x, out=pull)
        pull *= r[:, 1:2]
        v += pull
        # np.clip gives the same values, nan included, at a higher cost per call.
        np.maximum(np.minimum(v, p.v_max, out=v), -p.v_max, out=v)
        x += v
        np.maximum(np.minimum(x, self._hi, out=x), self._lo, out=x)

        previous = self.gbest_fitness
        if self._evaluate():
            self._last_improvement = self.iteration + 1
        self.iteration += 1
        if previous - self.gbest_fitness < p.stop_epsilon:
            self._flat_streak += 1
        else:
            self._flat_streak = 0
        if self._flat_streak >= p.stagnation_window:
            self.stopped = True

    def _evaluate(self) -> bool:
        """Score the swarm at `positions` against the personal bests, take
        every better personal best and then a better global best; True if
        a personal best improved."""
        self._paths[:, 1:-1] = self.positions.reshape(len(self._paths), -1, 2)
        self.fitnesses = _scores(self._paths, self.env.collision_field,
                                 self.params.penalty_lambda, self.pbest_fitnesses)
        improved = self.fitnesses < self.pbest_fitnesses
        if not np.count_nonzero(improved):
            return False
        np.copyto(self.pbest_positions, self.positions, where=improved[:, None])
        np.copyto(self.pbest_fitnesses, self.fitnesses, where=improved)
        g = int(self.pbest_fitnesses.argmin())
        if self.pbest_fitnesses[g] < self.gbest_fitness:
            self.gbest_fitness = float(self.pbest_fitnesses[g])
            self.gbest_position = self.pbest_positions[g].copy()
        return True

    def result(self, elapsed: float) -> PlanResult:
        path = decode(self.gbest_position, self.query)
        return build_result(self, elapsed, path, lambda: path_violation(path, self.env))


def plan_pso(env: Environment, query: Query,
             params: PsoParams = PsoParams()) -> PlanResult:
    """Optimize a waypoint path; feasible iff `audit_path` accepts the best path."""
    return plan(PsoRun, env, query, params)
