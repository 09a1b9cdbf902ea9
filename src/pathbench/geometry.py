"""Planar primitives and collision predicates.

Conventions used throughout the package:

* obstacle interiors are blocked, obstacle boundaries are free (strict
  inequalities everywhere, so a segment tangent to a circle is free);
* workspace bounds are inclusive on both sides;
* all inputs are plain floats, points are (x, y) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TYPE_CHECKING, Union

import numpy as np

from .errors import InvalidObstacleError, InvalidPathError

if TYPE_CHECKING:
    from .environment import Environment


class Point2(NamedTuple):
    x: float
    y: float


#: A segment is just an endpoint pair.
Segment = tuple[Point2, Point2]


class Bounds(NamedTuple):
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, p: Sequence[float]) -> bool:
        return (self.x_min <= p[0] <= self.x_max
                and self.y_min <= p[1] <= self.y_max)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min


def _require_finite(values: Sequence[float], what: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidObstacleError(f"{what} must be finite, got {v!r}")


@dataclass(frozen=True)
class Circle:
    """Disk obstacle; the open disk is blocked, the rim is free."""

    center: Point2
    radius: float

    def __post_init__(self):
        _require_finite(self.center, "circle center")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidObstacleError(f"circle radius must be > 0, got {self.radius!r}")
        object.__setattr__(self, "center", Point2(*self.center))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon obstacle; the interior (even-odd rule) is blocked."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = tuple(Point2(*v) for v in self.vertices)
        _validate_polygon_arg(verts)
        for v in verts:
            _require_finite(v, "polygon vertex")
        n = len(verts)
        # Simplicity: no two non-adjacent edges may intersect.
        for i in range(n):
            a1, a2 = verts[i], verts[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                b1, b2 = verts[j], verts[(j + 1) % n]
                if segments_intersect(a1, a2, b1, b2):
                    raise InvalidObstacleError("polygon is self-intersecting")
        object.__setattr__(self, "vertices", verts)


Obstacle = Union[Circle, Polygon]


def dist(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def path_length(waypoints: Sequence[Sequence[float]]) -> float:
    """Sum of consecutive-waypoint distances.

    Raises InvalidPathError for fewer than two waypoints.
    """
    if len(waypoints) < 2:
        raise InvalidPathError(f"path needs at least 2 waypoints, got {len(waypoints)}")
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        total += math.hypot(a[0] - b[0], a[1] - b[1])
    return total


def point_segment_distance(p: Sequence[float], a: Sequence[float],
                           b: Sequence[float]) -> float:
    """Distance from point p to the closed segment (a, b).

    Zero-length segments are treated as points.
    """
    ax, ay = a[0], a[1]
    vx, vy = b[0] - ax, b[1] - ay
    wx, wy = p[0] - ax, p[1] - ay
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(wx - t * vx, wy - t * vy)


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p) -> bool:
    # Assumes p collinear with (a, b).
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(p1, p2, q1, q2) -> bool:
    """True if closed segments (p1,p2) and (q1,q2) share any point."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def point_in_polygon(p: Sequence[float], vertices: Sequence[Sequence[float]]) -> bool:
    """Even-odd (ray casting) containment test.

    Points exactly on the boundary may land on either side; callers that
    care keep a tolerance band around edges.
    """
    px, py = p[0], p[1]
    inside = False
    n = len(vertices)
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i][0], vertices[i][1]
        xj, yj = vertices[j][0], vertices[j][1]
        if (yi > py) != (yj > py):
            x_cross = (xj - xi) * (py - yi) / (yj - yi) + xi
            if px < x_cross:
                inside = not inside
        j = i
    return inside


def _validate_polygon_arg(vertices) -> None:
    if len(vertices) < 3:
        raise InvalidObstacleError("polygon needs at least 3 vertices")
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        if a[0] == b[0] and a[1] == b[1]:
            raise InvalidObstacleError(
                f"degenerate polygon: repeated consecutive vertex ({a[0]}, {a[1]})")


def segment_circle_collides(segment: Segment, center: Sequence[float],
                            radius: float) -> bool:
    """True iff the segment enters the open disk (tangency is free)."""
    if not (math.isfinite(radius) and radius > 0):
        raise InvalidObstacleError(f"circle radius must be > 0, got {radius!r}")
    a, b = segment
    return point_segment_distance(center, a, b) < radius


def segment_polygon_collides(segment: Segment,
                             vertices: Sequence[Sequence[float]]) -> bool:
    """True iff the segment crosses an edge or an endpoint is strictly inside."""
    _validate_polygon_arg(vertices)
    a, b = segment
    n = len(vertices)
    for i in range(n):
        v1, v2 = vertices[i], vertices[(i + 1) % n]
        if segments_intersect(a, b, v1, v2):
            return True
    return point_in_polygon(a, vertices) or point_in_polygon(b, vertices)


def point_free(p: Sequence[float], env: "Environment") -> bool:
    """True iff p lies inside the workspace bounds and outside every obstacle."""
    if not env.bounds.contains(p):
        return False
    for cx, cy, r in env.disks:
        dx, dy = p[0] - cx, p[1] - cy
        if dx * dx + dy * dy < r * r:
            return False
    return not any(point_in_polygon(p, vertices) for vertices in env.polygons)


def edge_free(a: Sequence[float], b: Sequence[float], env: "Environment") -> bool:
    """True iff segment (a, b) stays in bounds and clears every obstacle.

    Also requires the far endpoint b itself to be free, mirroring how the
    tree planner uses it (b is the candidate new node). Each disk of the
    environment's `disks` table is checked in one pass: b strictly inside,
    then `point_segment_distance` from the center below the radius,
    written out inline on plain floats. Polygons use `point_in_polygon`
    and `segment_polygon_collides`.
    """
    if not (env.bounds.contains(a) and env.bounds.contains(b)):
        return False
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    vx, vy = bx - ax, by - ay
    vv = vx * vx + vy * vy
    for cx, cy, r in env.disks:
        dx, dy = bx - cx, by - cy
        if dx * dx + dy * dy < r * r:
            return False
        wx, wy = cx - ax, cy - ay
        if vv == 0.0:
            if math.hypot(wx, wy) < r:
                return False
            continue
        t = (wx * vx + wy * vy) / vv
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        if math.hypot(wx - t * vx, wy - t * vy) < r:
            return False
    # Every polygon's cheap test for b first: steered nodes often land
    # inside one, and then no edge needs walking.
    for vertices in env.polygons:
        if point_in_polygon(b, vertices):
            return False
    for vertices in env.polygons:
        if segment_polygon_collides((a, b), vertices):
            return False
    return True


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


#: Relative widening of each disk's discriminant when `blocked_lengths`
#: picks the rows that need its exact pass. Far above double rounding
#: (about 1e-16), far below any gap a planner could exploit.
NEAR_MARGIN = 1e-9


class CollisionField:
    """Vectorized free-space tests over many points or segments at once.

    Point semantics match point_free exactly: strict interior tests,
    inclusive bounds. Built once per environment and reused across
    evaluations.
    """

    def __init__(self, env: "Environment"):
        self.bounds = env.bounds
        disks = np.array(env.disks, dtype=np.float64).reshape(-1, 3)
        self._circle_xy = disks[:, :2].copy()
        self._circle_r2 = disks[:, 2] ** 2
        # r^2 + |c|^2 per disk: the scale of the rounding in the row test.
        self._circle_scale = self._circle_r2 + (self._circle_xy ** 2).sum(axis=1)
        self._polygons = [np.asarray(v, dtype=np.float64) for v in env.polygons]

    def free(self, points: np.ndarray) -> np.ndarray:
        """points: (N, 2) array -> boolean (N,) mask of free points."""
        pts = np.asarray(points, dtype=np.float64)
        px = pts[:, 0]
        py = pts[:, 1]
        b = self.bounds
        ok = ((px >= b.x_min) & (px <= b.x_max)
              & (py >= b.y_min) & (py <= b.y_max))
        if self._circle_r2.size:
            dx = px[:, None] - self._circle_xy[None, :, 0]
            dy = py[:, None] - self._circle_xy[None, :, 1]
            inside = (dx * dx + dy * dy) < self._circle_r2[None, :]
            ok &= ~inside.any(axis=1)
        for verts in self._polygons:
            xi = verts[:, 0]
            yi = verts[:, 1]
            xj = np.roll(xi, 1)
            yj = np.roll(yi, 1)
            crosses = (yi[None, :] > py[:, None]) != (yj[None, :] > py[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = ((xj - xi)[None, :] * (py[:, None] - yi[None, :])
                           / (yj - yi)[None, :] + xi[None, :])
                hit = crosses & (px[:, None] < x_cross)
            inside = (hit.sum(axis=1) % 2) == 1
            ok &= ~inside
        return ok

    def blocked_lengths(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """(N, 2) start and end points -> (N,) exact blocked length per segment.

        A segment's blocked length is the length of it lying inside an
        obstacle or out of bounds. The exact pass cuts the segment at
        every parameter t where it crosses a disk rim, a polygon edge or a
        bound line, so each piece between cuts is wholly free or wholly
        blocked and its midpoint, classified by `free`, decides it.
        Overlapping obstacles therefore count once.

        Only rows that can come out non-zero take the exact pass: an
        endpoint out of bounds (or not finite), any polygon in the field,
        a squared length below 1e-100 (where the products below
        underflow), or a disk whose root interval, with the discriminant
        widened by NEAR_MARGIN relative to its scale, meets [0, 1]. Every
        other row is 0.0, which is what the exact pass returns for it:
        its endpoints are in the convex bounds, and every point of it,
        so every piece midpoint even after rounding, stays outside each
        disk by far more than a rounding error.
        """
        a = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
        end = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
        d = end - a
        dd = d[:, :1] * d[:, :1] + d[:, 1:] * d[:, 1:]
        b = self.bounds
        lo, hi = (b.x_min, b.y_min), (b.x_max, b.y_max)
        exact = ~((a >= lo) & (a <= hi) & (end >= lo) & (end <= hi)).all(axis=1)
        if self._polygons:
            exact[:] = True
        with np.errstate(invalid="ignore", over="ignore"):
            if self._circle_r2.size:
                # |a + t d - c|^2 = r^2, a quadratic in t per disk, with
                # roots (-half_b -+ sqrt(disc)) / dd. Per-coordinate
                # products, as a sum over a length-2 axis costs 4x more.
                fx = a[:, :1] - self._circle_xy[:, 0]
                fy = a[:, 1:] - self._circle_xy[:, 1]
                ff = fx * fx + fy * fy
                half_b = fx * d[:, :1] + fy * d[:, 1:]
                disc = half_b * half_b - dd * (ff - self._circle_r2)
                if not self._polygons:
                    # The widened interval [t0, t1] meets [0, 1] iff
                    # dd t1 >= 0 and dd t0 <= dd; a negative widened
                    # disc gives nan, which compares as a miss.
                    reach = np.sqrt(disc + (ff + self._circle_scale) * (NEAR_MARGIN * dd))
                    exact |= (reach >= np.maximum(half_b, -half_b - dd)).any(axis=1)
                    exact |= dd[:, 0] < 1e-100
        out = np.zeros(len(a))
        if not exact.any():
            return out
        rows = slice(None) if exact.all() else np.flatnonzero(exact)
        a, d, dd = a[rows], d[rows], dd[rows]
        cuts = [np.zeros((len(a), 1)), np.ones((len(a), 1))]
        # Misses, parallels and zero-length segments give nan or inf cuts,
        # which the clip below folds onto t = 0 or t = 1.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cuts.append((np.array([[b.x_min, b.x_max]]) - a[:, :1]) / d[:, :1])
            cuts.append((np.array([[b.y_min, b.y_max]]) - a[:, 1:]) / d[:, 1:])
            if self._circle_r2.size:
                half_b = half_b[rows]
                root = np.sqrt(disc[rows])
                cuts += [(-half_b - root) / dd, (-half_b + root) / dd]
            for verts in self._polygons:
                # a + t d = v + s e, kept where s lies on the edge.
                e = (np.roll(verts, -1, axis=0) - verts)[None, :, :]
                w = verts[None, :, :] - a[:, None, :]
                den = _cross(d[:, None, :], e)
                s = _cross(w, d[:, None, :]) / den
                cuts.append(np.where((s >= 0.0) & (s <= 1.0), _cross(w, e) / den, np.nan))
        t = np.concatenate(cuts, axis=1)
        t = np.sort(np.clip(np.nan_to_num(t, nan=1.0), 0.0, 1.0), axis=1)
        piece = np.diff(t, axis=1)
        keep = piece > 0.0
        i, j = np.nonzero(keep)
        mid = a[i] + (t[i, j] + 0.5 * piece[i, j])[:, None] * d[i]
        blocked = np.zeros(piece.shape, dtype=bool)
        blocked[keep] = ~self.free(mid)
        out[rows] = (piece * blocked).sum(axis=1) * np.hypot(d[:, 0], d[:, 1])
        return out
