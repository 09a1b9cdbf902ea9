"""Planar primitives and collision predicates.

Conventions used throughout the package:

* obstacle interiors are blocked, obstacle boundaries are free (strict
  inequalities everywhere, so a segment tangent to a circle is free);
* workspace bounds are inclusive on both sides;
* all inputs are plain floats, points are (x, y) pairs.

Each `Environment` builds one `CollisionField`, cached as
`Environment.collision_field`: every disk's and polygon's numbers as
plain floats and as arrays, with the obstacle's bounding box widened on
every side by NEAR_MARGIN * (1 + S), S the largest coordinate magnitude
of the bounds and obstacles. `edge_free` skips an obstacle whose widened
box misses the box of the segment under test; the field's docstring
argues why no skipped obstacle could have blocked. `point_free` is
`CollisionField.free` on one point.

`CollisionField.blocked_lengths` measures a segment in bounds and clear
of every polygon's widened box as the union of its disks' open root
intervals; every other segment is cut at every crossing and each piece
is classified by its midpoint.
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


#: Relative widening of every obstacle box in a `CollisionField`, which
#: only decides which obstacles a test may skip. Far above double
#: rounding (about 1e-16), far below any gap a planner could exploit.
NEAR_MARGIN = 1e-9


def point_free(p: Sequence[float], env: "Environment") -> bool:
    """True iff p lies inside the workspace bounds and outside every obstacle."""
    return bool(env.collision_field.free([p])[0])


def edge_free(a: Sequence[float], b: Sequence[float], env: "Environment") -> bool:
    """True iff segment (a, b) stays in bounds and clears every obstacle.

    Also requires the far endpoint b itself to be free, mirroring how the
    tree planner uses it (b is the candidate new node). Obstacles whose
    widened box (see `CollisionField`) is disjoint from the segment's box
    are skipped. Each remaining disk is checked in one pass: b strictly
    inside, then `point_segment_distance` from the center below the
    radius, written out inline on plain floats. Each remaining polygon
    gets `point_in_polygon` for b, then its edges and `point_in_polygon`
    for a: the checks of `segment_polygon_collides`, without re-validating
    the vertices `Polygon` already checked.
    """
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    # Bounds.contains for both endpoints, inline: a call costs more.
    x_min, x_max, y_min, y_max = env.bounds
    if not (x_min <= ax <= x_max and y_min <= ay <= y_max
            and x_min <= bx <= x_max and y_min <= by <= y_max):
        return False
    x_lo, x_hi = (ax, bx) if ax <= bx else (bx, ax)
    y_lo, y_hi = (ay, by) if ay <= by else (by, ay)
    field = env.collision_field
    for box_x_lo, box_x_hi, box_y_lo, box_y_hi, cx, cy, r in field.disks:
        if x_hi < box_x_lo or x_lo > box_x_hi or y_hi < box_y_lo or y_lo > box_y_hi:
            continue
        dx, dy = bx - cx, by - cy
        if dx * dx + dy * dy < r * r:
            return False
        vx, vy = bx - ax, by - ay
        vv = vx * vx + vy * vy
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
    if not field.polygons:
        return True
    near = [(vertices, edges)
            for box_x_lo, box_x_hi, box_y_lo, box_y_hi, vertices, edges in field.polygons
            if not (x_hi < box_x_lo or x_lo > box_x_hi or y_hi < box_y_lo or y_lo > box_y_hi)]
    # Every polygon's cheap test for b first: steered nodes often land
    # inside one, and then no edge needs walking.
    for vertices, _ in near:
        if point_in_polygon(b, vertices):
            return False
    for vertices, edges in near:
        for v1, v2 in edges:
            if segments_intersect(a, b, v1, v2):
                return False
        if point_in_polygon(a, vertices):
            return False
    return True


class CollisionField:
    """Every obstacle of one environment, laid out for the collision tests.

    Read it as `Environment.collision_field`, built on first use and
    cached. `free` and `blocked_lengths` test many points or segments at
    once: strict interior tests, inclusive bounds.

    For the scalar `edge_free`, in obstacle order: `disks` holds an
    (x_lo, x_hi, y_lo, y_hi, cx, cy, r) tuple of plain floats per circle,
    `polygons` an (x_lo, x_hi, y_lo, y_hi, vertices, edges) tuple per
    polygon, with the polygon's own vertices and their (v_i, v_i+1)
    pairs, the closing edge last. For the batch tests, as arrays:
    `disk_x`, `disk_y` and `disk_r2`, each a column with one row per
    circle; `vertex_xy`,
    `vertex_prev` (the vertex before, cyclically) and `edge_vec` (to the
    vertex after) per polygon vertex, all polygons in one array,
    `polygon_starts` giving each polygon's first row; `polygon_boxes` as
    x_lo, x_hi, y_lo, y_hi rows.

    Each box is the obstacle's bounding box widened on every side by a
    margin of NEAR_MARGIN * (1 + S), S the largest magnitude of a bound
    or an obstacle coordinate (for a disk, |center| + r). `edge_free`
    skips every obstacle whose widened box is disjoint from the box of
    the segment it tests, and `blocked_lengths` leaves out the polygons
    for such a segment. A skipped obstacle cannot block:

    * Every point a test computes with (an endpoint; the point a + t(b - a),
      t in [0, 1], that gives a disk distance; a piece midpoint that a
      cut pass would classify) lies in the tested box up to a few
      roundings of numbers below 4S, far less than the margin: the tests
      take only points in bounds, whose coordinates S bounds too.
    * So in some axis the point lies outside the obstacle's exact box by
      more than rounding. Its computed distance to a disk's center then
      exceeds r (an overflow gives inf or nan, which compare as clear). A
      ray cast from it crosses no polygon edge when its y is outside the
      box, and when its x is left or right of the box it crosses every
      edge spanning its y (an even count) or none, as a computed crossing
      abscissa stays within rounding of its edge's x range.
    * `segments_intersect` reports a touch only for an endpoint in the
      other segment's exact box. Its proper crossing compares orientation
      signs, which rounding decides only when the segment and an edge lie
      on nearly one line; there the full walk can report a crossing of
      segments that are apart, and the skip reports them clear.
    """

    def __init__(self, env: "Environment"):
        self.bounds = env.bounds
        circles = [(float(o.center.x), float(o.center.y), float(o.radius))
                   for o in env.obstacles if isinstance(o, Circle)]
        outlines = [o.vertices for o in env.obstacles if isinstance(o, Polygon)]
        scale = max([abs(v) for v in self.bounds]
                    + [max(abs(cx), abs(cy)) + r for cx, cy, r in circles]
                    + [abs(v) for vs in outlines for xy in vs for v in xy])
        m = NEAR_MARGIN * (1.0 + scale)
        self.disks = tuple((cx - r - m, cx + r + m, cy - r - m, cy + r + m, cx, cy, r)
                           for cx, cy, r in circles)
        self.polygons = tuple(
            (min(v.x for v in vs) - m, max(v.x for v in vs) + m,
             min(v.y for v in vs) - m, max(v.y for v in vs) + m,
             vs, tuple(zip(vs, vs[1:] + vs[:1])))
            for vs in outlines)
        disks = np.array(circles, dtype=np.float64).reshape(-1, 3)
        self.disk_x, self.disk_y = disks[:, :1].copy(), disks[:, 1:2].copy()
        self.disk_r2 = disks[:, 2:] ** 2
        xy = [np.asarray(vs, dtype=np.float64) for vs in outlines] or [np.empty((0, 2))]
        self.vertex_xy = np.concatenate(xy)
        self.vertex_prev = np.concatenate([np.roll(v, 1, axis=0) for v in xy])
        self.edge_vec = np.concatenate([np.roll(v, -1, axis=0) - v for v in xy])
        self.polygon_starts = np.cumsum([0] + [len(v) for v in xy[:-1]])
        self.polygon_boxes = np.array([p[:4] for p in self.polygons],
                                      dtype=np.float64).reshape(-1, 4)

    def free(self, points: np.ndarray) -> np.ndarray:
        """points: (N, 2) array -> boolean (N,) mask of free points."""
        pts = np.asarray(points, dtype=np.float64)
        px = pts[:, 0]
        py = pts[:, 1]
        b = self.bounds
        ok = ((px >= b.x_min) & (px <= b.x_max)
              & (py >= b.y_min) & (py <= b.y_max))
        # Points go in blocks of about 2^14 (point, disk or edge) pairs, so
        # the temporaries stay in cache and small on maps with many obstacles.
        # Polygons: ray casting over every edge at once, vertex i and the one
        # before it as in point_in_polygon; each polygon's parity says inside.
        rows = max(1, (1 << 14) // max(1, len(self.disks) + len(self.vertex_xy)))
        xi, yi = self.vertex_xy[:, 0], self.vertex_xy[:, 1]
        yj = self.vertex_prev[:, 1]
        back_x, back_y = self.vertex_prev[:, 0] - xi, yj - yi
        for k in range(0, len(px), rows):
            if self.disks:
                dx = px[k:k + rows] - self.disk_x
                dy = py[k:k + rows] - self.disk_y
                ok[k:k + rows] &= ~((dx * dx + dy * dy) < self.disk_r2).any(axis=0)
            if self.polygons:
                x, y = px[k:k + rows, None], py[k:k + rows, None]
                crosses = (yi > y) != (yj > y)
                with np.errstate(divide="ignore", invalid="ignore"):
                    hit = crosses & (x < back_x * (y - yi) / back_y + xi)
                inside = np.logical_xor.reduceat(hit, self.polygon_starts, axis=1)
                ok[k:k + rows] &= ~inside.any(axis=1)
        return ok

    def blocked_lengths(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """(N, 2) start and end points -> (N,) exact blocked length per segment.

        A segment's blocked length is the length of it lying inside an
        obstacle or out of bounds; overlapping obstacles count once. Rows
        are answered in one of two ways.

        The disk union answers a row whose endpoints are in bounds (so
        finite), whose box misses every polygon's widened box (see the
        class docstring) and whose squared length is at least 1e-100.
        Only disks can block it, and the set of t in [0, 1] where
        a + t(b - a) lies inside a disk is that disk's open root interval,
        clipped to [0, 1]. The row's blocked length is the measure of the
        union of those intervals times its `np.hypot` length: the
        intervals are sorted, merged into runs where one starts at or
        before the furthest end so far, and the runs' lengths added in
        order onto 0.0. A row with no non-empty interval adds nothing, so
        it is exactly 0.0 however its roots round. The disk pass runs in
        blocks of about 2^14 (row, disk) pairs and keeps only the pairs
        with a non-empty interval, so its memory follows the pairs that
        meet.

        Every other row takes the cut pass: it cuts the segment at every
        parameter t where it crosses a disk rim, a polygon edge or a bound
        line, so each piece between cuts is wholly free or wholly blocked
        and its midpoint, classified by `free`, decides it. Each row keeps
        every cut column, even a miss clamped onto t = 0 or t = 1: 0, 1,
        four bound cuts, two per disk and one per polygon vertex. numpy
        sums a row's pieces pairwise, grouped by column position, so
        dropping or merging columns would round some sums differently.
        """
        ax, ay = np.asarray(starts, dtype=np.float64).reshape(-1, 2).T.copy()
        ex, ey = np.asarray(ends, dtype=np.float64).reshape(-1, 2).T
        x_lo, x_hi = np.minimum(ax, ex), np.maximum(ax, ex)
        y_lo, y_hi = np.minimum(ay, ey), np.maximum(ay, ey)
        b = self.bounds
        # nan endpoints give nan box sides, which fail every comparison.
        cut = ~((x_lo >= b.x_min) & (x_hi <= b.x_max)
                & (y_lo >= b.y_min) & (y_hi <= b.y_max))
        if self.polygons:
            boxes = self.polygon_boxes
            cut |= ((x_lo[:, None] <= boxes[:, 1]) & (x_hi[:, None] >= boxes[:, 0])
                    & (y_lo[:, None] <= boxes[:, 3])
                    & (y_hi[:, None] >= boxes[:, 2])).any(axis=1)
        out = np.zeros(len(ax))
        if not (self.disks or cut.any()):
            return out
        # Rows with nan or infinite endpoints are ordinary input here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx, dy = ex - ax, ey - ay
            if self.disks:
                # Below 1e-100 the products of the disk quadratic underflow.
                cut |= dx * dx + dy * dy < 1e-100
                rows = np.flatnonzero(~cut)
                out[rows] = self._disk_union(ax[rows], ay[rows], dx[rows], dy[rows])
            if cut.any():
                rows = np.flatnonzero(cut)
                out[rows] = self._cut_pass(ax[rows], ay[rows], dx[rows], dy[rows])
        return out

    def _disk_quadratic(self, ax, ay, dx, dy):
        """dd and (disks, rows) arrays half_b and disc: |a + t d - c|^2 = r^2
        has the roots (-half_b -+ sqrt(disc)) / dd in t."""
        dd = dx * dx + dy * dy
        fx = ax - self.disk_x
        fy = ay - self.disk_y
        half_b = fx * dx
        half_b += fy * dy
        # In place, in the order of the written-out formula (so the same
        # doubles): fx becomes dd (|a - c|^2 - r^2).
        fx *= fx
        fy *= fy
        fx += fy
        fx -= self.disk_r2
        fx *= dd
        disc = half_b * half_b
        disc -= fx
        return dd, half_b, disc

    def _disk_union(self, ax, ay, dx, dy):
        """The disk union of `blocked_lengths` for the rows it answers."""
        step = max(1, (1 << 14) // len(self.disks))
        row, lo, hi = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]
        for k in range(0, len(ax), step):
            dd, half_b, disc = self._disk_quadratic(ax[k:k + step], ay[k:k + step],
                                                    dx[k:k + step], dy[k:k + step])
            # Only a positive discriminant can give a non-empty interval.
            hit = np.flatnonzero(disc > 0.0)
            r = hit % len(dd)
            half_b, root, dd = half_b.take(hit), np.sqrt(disc.take(hit)), dd[r]
            t0 = np.maximum((-half_b - root) / dd, 0.0)
            t1 = np.minimum((-half_b + root) / dd, 1.0)
            meet = t0 < t1
            row.append(r[meet] + k)
            lo.append(t0[meet])
            hi.append(t1[meet])
        # Sweep each row's interval ends in order. lexsort is stable and
        # every opening end comes before every closing one, so at a tie
        # opening ends go first and touching intervals merge into one run.
        # Each row closes what it opens, so the count of open intervals is
        # 0 between rows, goes 0 -> 1 at a run's start and 1 -> 0 at its end.
        event_row = np.concatenate(row + row)
        event_t = np.concatenate(lo + hi)
        order = np.lexsort((event_t, event_row))
        closes = order >= len(event_t) // 2
        event_row, event_t = event_row[order], event_t[order]
        depth = np.cumsum(np.where(closes, -1, 1))
        run_end = depth == 0
        run_start = (depth == 1) & ~closes
        # bincount adds each row's runs one by one, in order, onto 0.0.
        covered = np.bincount(event_row[run_end], minlength=len(ax),
                              weights=event_t[run_end] - event_t[run_start])
        return covered * np.hypot(dx, dy)

    def _cut_pass(self, ax, ay, dx, dy):
        """The cut pass of `blocked_lengths` for the rows it answers."""
        b = self.bounds
        n_disks = len(self.disks)
        t = np.empty((len(ax), 6 + 2 * n_disks + len(self.vertex_xy)))
        t[:, :2] = 0.0, 1.0
        # Misses, parallels and zero-length segments give nan or inf cuts,
        # which the clamp below folds onto t = 0 or t = 1.
        t[:, 2:4] = (np.array([b.x_min, b.x_max]) - ax[:, None]) / dx[:, None]
        t[:, 4:6] = (np.array([b.y_min, b.y_max]) - ay[:, None]) / dy[:, None]
        if n_disks:
            dd, half_b, disc = self._disk_quadratic(ax, ay, dx, dy)
            root = np.sqrt(disc)
            t[:, 6:6 + 2 * n_disks] = np.vstack(((-half_b - root) / dd,
                                                 (-half_b + root) / dd)).T
        if self.polygons:
            # a + t d = v + s e, kept where s lies on the edge.
            vx, vy = self.vertex_xy[:, 0], self.vertex_xy[:, 1]
            ux, uy = self.edge_vec[:, 0], self.edge_vec[:, 1]
            wx, wy = vx - ax[:, None], vy - ay[:, None]
            den = dx[:, None] * uy - dy[:, None] * ux
            s = (wx * dy[:, None] - wy * dx[:, None]) / den
            t[:, 6 + 2 * n_disks:] = np.where((s >= 0.0) & (s <= 1.0),
                                              (wx * uy - wy * ux) / den, np.nan)
        # fmin and fmax skip nan, so nan and inf go to 1 and -inf to 0.
        np.fmin(t, 1.0, out=t)
        np.fmax(t, 0.0, out=t)
        t.sort(axis=1)
        piece = t[:, 1:] - t[:, :-1]
        keep = piece > 0.0
        i, j = np.nonzero(keep)
        u = t[i, j] + 0.5 * piece[i, j]
        blocked = np.zeros(piece.shape, dtype=bool)
        blocked[keep] = ~self.free(np.stack((ax[i] + u * dx[i], ay[i] + u * dy[i]), axis=1))
        return (piece * blocked).sum(axis=1) * np.hypot(dx, dy)
