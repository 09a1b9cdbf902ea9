"""Sampling-based tree planner (RRT*) over a 2D environment.

The growth loop follows the classic shape: draw a uniform sample, steer
from the nearest tree node toward it by at most one step, collision-check
the motion, then choose the cheapest collision-free parent among nearby
nodes and rewire those neighbors through the new node when that lowers
their cost-to-come. The run keeps planning for the full iteration budget;
its goal nodes are read off the tree when the result is asked for, and
`build_result` judges the chain to the best one, as it does PSO's path.

The loop hands `edge_free` plain `(x, y)` tuples of the tree's floats;
`Point2` is built only for what the API returns (`random_sample`,
`steering`, `RrtTree.position`, `get_optimized_path` and the result's
path). It checks only the edges that the new point's clearance does not
certify as free, a safety certificate (Bialkowski, Otte, Karaman &
Frazzoli, IJRR 2016) over RRT* (Karaman & Frazzoli, IJRR 2011); see
`RrtStarRun`. The trees, paths and lengths are those of a loop that checks
every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .environment import Environment, Query, validate_query
from .errors import InvalidStateError
from .geometry import Point2, edge_free
from .result import PlanResult, build_result, check_param_types, plan

__all__ = [
    "RrtParams", "RrtTree", "RrtStarRun", "plan_rrt_star", "random_sample",
    "find_nearest", "steering", "get_neighbors", "choose_parent", "rewire",
    "get_optimized_path", "edge_free",
]


@dataclass(frozen=True)
class RrtParams:
    iterations_num: int = 2000
    step_size: float = 2.0
    min_threshold: float = 3.0
    neighbor_radius: float = 4.0
    rng_seed: int = 0

    def __post_init__(self):
        check_param_types(self, {"iterations_num": 1, "rng_seed": 0},
                          {"step_size": {"above": 0}, "min_threshold": {"above": 0},
                           "neighbor_radius": {}})
        if not self.neighbor_radius >= self.step_size:
            raise ValueError(
                f"neighbor_radius ({self.neighbor_radius}) must be >= "
                f"step_size ({self.step_size})")


class RrtTree:
    """Rooted tree of 2D nodes with parent links and cost-to-come.

    Coordinates live twice: in float64 arrays that double when full, for
    the two O(n) scans, and in `_xs`/`_ys` lists of the same Python
    floats, for the per-node reads, which then skip numpy's per-call cost.
    Each node also keeps the length of its edge to its parent, set by
    `add` and by `rewire`, so a cost change below a reparented node is a
    sum of stored lengths. Costs stay scalar math.hypot sums, as np.hypot
    rounds differently in rare cases.

    `squared_distances` writes into two scratch arrays that grow with the
    coordinate arrays, so its result is valid only until the next call,
    and callers must not write into it (`find_nearest` and
    `get_neighbors` only read it). A repeat query at the point and node
    count of the last one returns that result without rescanning: when
    steering keeps the sample, the neighbour scan asks again at the point
    the nearest scan just did. Coordinates never change after insertion,
    so only `add` (a new count) makes the result stale.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, root: Sequence[float]):
        x, y = float(root[0]), float(root[1])
        self._x = np.empty(self._INITIAL_CAPACITY)
        self._y = np.empty(self._INITIAL_CAPACITY)
        self._x[0], self._y[0] = x, y
        self._dx = np.empty(self._INITIAL_CAPACITY)
        self._dy = np.empty(self._INITIAL_CAPACITY)
        self._xs: list[float] = [x]
        self._ys: list[float] = [y]
        self._parent: list[int] = [-1]
        self._cost: list[float] = [0.0]
        self._edge: list[float] = [0.0]
        self._children: list[list[int]] = [[]]
        self._scan_key: Optional[tuple] = None
        self._scan: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._cost)

    def _node(self, i: int) -> int:
        """i if it indexes a node, else IndexError; a negative i does not."""
        if not 0 <= i < len(self._cost):
            raise IndexError(f"node index {i} out of range")
        return i

    def position(self, i: int) -> Point2:
        i = self._node(i)
        return Point2(self._xs[i], self._ys[i])

    def parent(self, i: int) -> Optional[int]:
        p = self._parent[self._node(i)]
        return None if p < 0 else p

    def cost_to_come(self, i: int) -> float:
        return self._cost[self._node(i)]

    def children(self, i: int) -> tuple[int, ...]:
        return tuple(self._children[self._node(i)])

    def add(self, position: Sequence[float], parent_index: int) -> int:
        """Insert a node; its cost is the parent's plus the edge length."""
        x, y = float(position[0]), float(position[1])
        parent_index = self._node(parent_index)
        px, py = self._xs[parent_index], self._ys[parent_index]
        idx = len(self._cost)
        if idx == len(self._x):
            self._x = np.concatenate((self._x, np.empty_like(self._x)))
            self._y = np.concatenate((self._y, np.empty_like(self._y)))
            self._dx, self._dy = np.empty_like(self._x), np.empty_like(self._y)
        self._x[idx], self._y[idx] = x, y
        self._xs.append(x)
        self._ys.append(y)
        self._parent.append(parent_index)
        length = math.hypot(x - px, y - py)
        self._edge.append(length)
        self._cost.append(self._cost[parent_index] + length)
        self._children.append([])
        self._children[parent_index].append(idx)
        return idx

    def squared_distances(self, p: Sequence[float]) -> np.ndarray:
        """Squared distance from p to every node, (x - px)**2 + (y - py)**2
        with squares by product; valid until the next call, read-only."""
        n = len(self._cost)
        key = (p[0], p[1], n)
        if key != self._scan_key:
            d, e = self._dx[:n], self._dy[:n]
            np.subtract(self._x[:n], p[0], out=d)
            np.subtract(self._y[:n], p[1], out=e)
            d *= d
            e *= e
            d += e
            self._scan = d
            self._scan_key = key
        return self._scan

    def all_costs(self) -> list[float]:
        return list(self._cost)


def random_sample(env: Environment, rng: np.random.Generator) -> Point2:
    """Uniform point over the bounds rectangle; one draw per coordinate.

    Each coordinate is numpy's `uniform` formula, low + (high - low) *
    random(): the same doubles and generator state at a quarter of the cost.
    Samples are not filtered against obstacles. `rng` needs only a
    `random()` method; `RrtStarRun` passes one that draws in blocks.
    """
    x_min, x_max, y_min, y_max = env.bounds
    return Point2(x_min + (x_max - x_min) * rng.random(),
                  y_min + (y_max - y_min) * rng.random())


def find_nearest(tree: RrtTree, p: Sequence[float]) -> int:
    """Index of the node closest to p; ties go to the lowest index."""
    return int(tree.squared_distances(p).argmin())


def steering(p_rand: Sequence[float], p_near: Sequence[float],
             step_size: float) -> Point2:
    """Move from p_near toward p_rand by at most step_size."""
    dx = p_rand[0] - p_near[0]
    dy = p_rand[1] - p_near[1]
    d = math.hypot(dx, dy)
    if d <= step_size:
        return Point2(float(p_rand[0]), float(p_rand[1]))
    scale = step_size / d
    return Point2(p_near[0] + dx * scale, p_near[1] + dy * scale)


def get_neighbors(tree: RrtTree, p: Sequence[float], radius: float) -> list[int]:
    """Indices of all nodes within radius of p, in ascending index order."""
    return (tree.squared_distances(p) <= radius * radius).nonzero()[0].tolist()


def choose_parent(tree: RrtTree, neighbors: Sequence[int], lengths: Sequence[float],
                  p_near_idx: int, p_new: Sequence[float], env: Environment,
                  clear: float) -> int:
    """Cheapest collision-free parent for p_new among the neighbors.

    Candidates are ranked by cost_to_come + edge length (`lengths`, one
    per neighbor; ties by lower index); the first whose edge to p_new is
    free wins. An edge shorter than `clear`, p_new's clearance, is free
    unchecked (see `RrtStarRun`). Falls back to p_near_idx when no neighbor
    qualifies, an empty list included. The caller has found the edge
    p_near -> p_new free, so p_near_idx is taken unchecked. The cheapest
    edge is usually free, so the ranking is sorted only when it is not.
    """
    if not neighbors:
        return p_near_idx
    xs, ys, cost = tree._xs, tree._ys, tree._cost
    totals = [cost[i] + length for i, length in zip(neighbors, lengths)]
    least = min(totals)
    k = totals.index(least)
    if totals.count(least) > 1:  # a tie, which goes to the lowest index
        k = neighbors.index(min(i for i, total in zip(neighbors, totals) if total == least))
    best = neighbors[k]
    if best == p_near_idx or lengths[k] < clear or edge_free((xs[best], ys[best]), p_new, env):
        return best
    for _, i, length in sorted(zip(totals, neighbors, lengths))[1:]:
        if i == p_near_idx or length < clear or edge_free((xs[i], ys[i]), p_new, env):
            return i
    return p_near_idx


def _propagate_cost(tree: RrtTree, start: int) -> None:
    # Recompute cost-to-come below a reparented node.
    cost, edge, children = tree._cost, tree._edge, tree._children
    stack = [start]
    while stack:
        i = stack.pop()
        cost_i = cost[i]
        for c in children[i]:
            cost[c] = cost_i + edge[c]
        stack += children[i]


def rewire(tree: RrtTree, neighbors: Sequence[int], lengths: Sequence[float],
           new_index: int, env: Environment, clear: float) -> None:
    """Reroute neighbors through the new node where that lowers their cost.

    `lengths` gives each neighbor's edge length to the new node. Costs
    never increase, and the new node's cannot change here (a neighbor it
    undercuts is no ancestor of it), so a neighbor it does not undercut
    now never will be; the others are visited in ascending index order
    against live costs, so a cost drop propagated to a later neighbor's
    subtree is taken into account. The new node never undercuts itself.
    An edge shorter than `clear`, the new node's clearance, is free
    unchecked (see `RrtStarRun`).
    """
    xs, ys, cost = tree._xs, tree._ys, tree._cost
    new_cost = cost[new_index]
    better = [(i, length) for i, length in zip(neighbors, lengths) if new_cost + length < cost[i]]
    if not better:
        return
    better.sort()
    p_new = (xs[new_index], ys[new_index])
    for i, length in better:
        cand = new_cost + length
        if cand < cost[i] and (length < clear or edge_free(p_new, (xs[i], ys[i]), env)):
            tree._children[tree._parent[i]].remove(i)
            tree._parent[i] = new_index
            tree._children[new_index].append(i)
            tree._edge[i] = length
            cost[i] = cand
            if tree._children[i]:  # most rewired nodes are leaves
                _propagate_cost(tree, i)


def get_optimized_path(tree: RrtTree, goal_index: int) -> tuple[Point2, ...]:
    """Waypoints from the root to goal_index by following parent links."""
    if not (0 <= goal_index < len(tree)):
        raise InvalidStateError(f"node index {goal_index} out of range")
    out = [tree.position(goal_index)]
    i = goal_index
    while tree._parent[i] >= 0:
        i = tree._parent[i]
        out.append(tree.position(i))
        if len(out) > len(tree):
            raise InvalidStateError("parent chain does not terminate at the root")
    out.reverse()
    return tuple(out)


class _UniformBlocks:
    """`Generator.random()` doubles drawn a block at a time.

    `rng.random(k)` fills its array with the same doubles, in the same
    order, as k calls of `rng.random()`; a Python method call costs a
    fraction of numpy's per-call cost. The generator runs ahead of the
    draws by up to one block.
    """

    _BLOCK = 512

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._left: list[float] = []  # the block's undrawn doubles, last first

    def random(self) -> float:
        if not self._left:
            self._left = self._rng.random(self._BLOCK).tolist()[::-1]
        return self._left.pop()


class RrtStarRun:
    """One in-progress tree search; step() advances a single iteration.

    `step` reads the tree's coordinate lists and the settings once per call
    and passes node positions on as plain `(x, y)` tuples, so an iteration
    builds two `Point2`s: the sample and the steered point. Samples draw
    from `rng` a block of doubles at a time, so `rng` runs up to a block ahead.

    `step` reads the clearance of p_new's cell (`Clearance.at`, 0.0 for a
    point out of bounds) once, and every edge from p_new that is shorter
    than it, to p_near or to a neighbour, is free without an `edge_free`
    call. That is exact: such an edge lies in the ball around p_new whose
    radius is its length, which holds no blocked point, and both of its
    ends lie in the convex bounds, since the root passed `validate_query`
    and every other node was in bounds when added. The grid's margins (see
    `Clearance`) cover the rounding of the lookup, of the bound and of the
    `math.hypot` length. On a map with no obstacle every clearance is +inf,
    so the loop checks no edge at all.
    """

    planner_id = "rrtstar"
    params_type = RrtParams

    def __init__(self, env: Environment, query: Query, params: RrtParams):
        validate_query(env, query)
        self.env = env
        self.query = query
        self.params = params
        self.rng = np.random.default_rng(params.rng_seed)
        self._uniforms = _UniformBlocks(self.rng)
        self.tree = RrtTree(query.start)
        self.iteration = 0
        self._clearance = env.collision_field.clearance

    @property
    def should_stop(self) -> bool:
        return self.iteration >= self.params.iterations_num

    def step(self) -> Optional[int]:
        """Run one iteration; returns the inserted node index, or None."""
        self.iteration += 1
        env, params, tree = self.env, self.params, self.tree
        xs, ys = tree._xs, tree._ys
        p_rand = random_sample(env, self._uniforms)
        near_idx = find_nearest(tree, p_rand)
        p_near = (xs[near_idx], ys[near_idx])
        p_new = steering(p_rand, p_near, params.step_size)
        if p_new == p_near:
            return None
        x, y = p_new
        clear = self._clearance.at(x, y)  # 0.0 out of bounds
        if not (math.hypot(x - p_near[0], y - p_near[1]) < clear
                or edge_free(p_near, p_new, env)):
            return None
        neighbors = get_neighbors(tree, p_new, params.neighbor_radius)
        # hypot ignores signs, so one length per edge serves both calls.
        lengths = [math.hypot(xs[i] - x, ys[i] - y) for i in neighbors]
        idx = tree.add(p_new, choose_parent(tree, neighbors, lengths, near_idx, p_new, env, clear))
        rewire(tree, neighbors, lengths, idx, env, clear)
        return idx

    def _target_distances(self) -> Iterator[float]:
        """Each node's straight-line distance to the target, by index."""
        tx, ty = self.query.target
        return (math.hypot(x - tx, y - ty) for x, y in zip(self.tree._xs, self.tree._ys))

    def best_goal(self) -> Optional[tuple[int, float]]:
        """Best goal-region node and its cost through to the exact target.

        Of the nodes within min_threshold of the target that have a free
        segment to it, the one of least cost_to_come plus distance to the
        target; ties go to the lower index. None if none. A node on the
        target has one: the target passed `validate_query`.
        """
        tree, target, threshold = self.tree, self.query.target, self.params.min_threshold
        ranked = sorted((tree._cost[i] + d, i) for i, d in enumerate(self._target_distances())
                        if d <= threshold)
        for total, i in ranked:
            if edge_free((tree._xs[i], tree._ys[i]), target, self.env):
                return i, total
        return None

    def result(self, elapsed: float) -> PlanResult:
        bg = self.best_goal()
        path = None if bg is None else get_optimized_path(self.tree, bg[0])
        return build_result(self, elapsed, path, lambda: min(self._target_distances()))


def plan_rrt_star(env: Environment, query: Query,
                  params: RrtParams = RrtParams()) -> PlanResult:
    """Grow a tree for the full iteration budget and report the best path.

    Its candidate path is the chain to the cheapest node within
    min_threshold of the target that has a free segment to it.
    """
    return plan(RrtStarRun, env, query, params)
