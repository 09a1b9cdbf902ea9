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

`CollisionField.blocked_lengths` measures each segment's union of open
intervals out of bounds, inside a disk and inside a polygon.
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
                if (j + 1) % n == i or (i + 1) % n == j:
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

    Points exactly on the boundary may land on either side.
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
    circle; `vertex_xy`, `vertex_prev` (the vertex before, cyclically) and
    `edge_vec` (to the vertex after) per polygon vertex, all polygons in
    one array, `polygon_starts` giving each polygon's first row;
    `polygon_boxes` as x_lo, x_hi, y_lo, y_hi rows.

    Each box is the obstacle's bounding box widened on every side by a
    margin of NEAR_MARGIN * (1 + S), S the largest magnitude of a bound
    or an obstacle coordinate (for a disk, |center| + r). `edge_free`
    skips every obstacle whose widened box is disjoint from the box of
    the segment it tests, and `blocked_lengths` leaves out the polygons
    for such a segment. A skipped obstacle cannot block:

    * Every point a test computes with (an endpoint; the point a + t(b - a),
      t in [0, 1], that gives a disk distance; a piece midpoint) lies in
      the tested box up to a few roundings of numbers below 4S, far less
      than the margin, when the segment is in bounds, as S bounds it too.
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
        px, py = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
        b = self.bounds
        return ((px >= b.x_min) & (px <= b.x_max) & (py >= b.y_min) & (py <= b.y_max)
                & ~self._in_disk(px, py) & ~self._in_polygon(px, py))

    def _in_disk(self, px, py):
        """Mask of the points strictly inside some disk, in blocks of about
        2^14 (point, disk) pairs, so temporaries stay small and in cache."""
        inside = np.zeros(len(px), dtype=bool)
        step = max(1, (1 << 14) // max(1, len(self.disks)))
        for k in range(0, len(px) if self.disks else 0, step):
            dx, dy = px[k:k + step] - self.disk_x, py[k:k + step] - self.disk_y
            inside[k:k + step] = ((dx * dx + dy * dy) < self.disk_r2).any(axis=0)
        return inside

    def _in_polygon(self, px, py):
        """Mask of the points inside some polygon, in blocks of about 2^14
        (point, vertex) pairs: `point_in_polygon`'s ray cast over every edge
        at once, vertex i and the one before it; each polygon's parity."""
        inside = np.zeros(len(px), dtype=bool)
        (xi, yi), (xj, yj) = self.vertex_xy.T, self.vertex_prev.T
        step = max(1, (1 << 14) // max(1, len(xi)))
        for k in range(0, len(px) if self.polygons else 0, step):
            x, y = px[k:k + step, None], py[k:k + step, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                hit = ((yi > y) != (yj > y)) & (x < (xj - xi) * (y - yi) / (yj - yi) + xi)
            inside[k:k + step] = np.logical_xor.reduceat(
                hit, self.polygon_starts, axis=1).any(axis=1)
        return inside

    def blocked_lengths(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """(N, 2) start and end points -> (N,) exact blocked length per segment.

        The measure of the union of the open intervals of t in [0, 1] where
        a + t(b - a) is out of bounds or inside an obstacle (so overlaps
        count once), times the segment's `np.hypot` length; exactly 0.0 for
        a segment that meets nothing, however its roots round.

        * Bounds, for segments whose box leaves them: [0, t_in) and
          (t_out, 1] around the part the slab method (Liang & Barsky)
          keeps; all of [0, 1] if that is empty or b - a is not finite.
        * Disks: each disk's open root interval, clipped to [0, 1]. The one
          approximation: below a squared length of 1e-100 the quadratic
          underflows, and the segment is blocked whole iff its midpoint is
          strictly inside a disk, an error under its length (1e-50).
        * Polygons, for segments whose box meets a polygon's widened box
          (see the class docstring): the pieces between edge crossings
          whose midpoint the ray cast puts inside.

        The disk and polygon passes work in blocks of about 2^14 (segment,
        obstacle) pairs and keep only what meets.
        """
        ax, ay = np.asarray(starts, dtype=np.float64).reshape(-1, 2).T.copy()
        ex, ey = np.asarray(ends, dtype=np.float64).reshape(-1, 2).T
        x_lo, x_hi = np.minimum(ax, ex), np.maximum(ax, ex)
        y_lo, y_hi = np.minimum(ay, ey), np.maximum(ay, ey)
        b = self.bounds
        # nan endpoints give nan box sides, which fail every comparison.
        leaves = ~((x_lo >= b.x_min) & (x_hi <= b.x_max) & (y_lo >= b.y_min) & (y_hi <= b.y_max))
        if not (self.disks or self.polygons or leaves.any()):
            return np.zeros(len(ax))
        # Rows with nan or infinite endpoints are ordinary input here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx, dy = ex - ax, ey - ay
            intervals = self._bound_intervals(leaves, ax, ay, dx, dy)
            if self.disks:
                tiny = dx * dx + dy * dy < 1e-100
                intervals += self._disk_intervals(np.flatnonzero(~tiny), ax, ay, dx, dy)
                if tiny.any():
                    tiny = np.flatnonzero(tiny)
                    tiny = tiny[self._in_disk(ax[tiny] + 0.5 * dx[tiny], ay[tiny] + 0.5 * dy[tiny])]
                    intervals.append((tiny, np.zeros(len(tiny)), np.ones(len(tiny))))
            if self.polygons:
                boxes = self.polygon_boxes
                near = ((x_lo[:, None] <= boxes[:, 1]) & (x_hi[:, None] >= boxes[:, 0])
                        & (y_lo[:, None] <= boxes[:, 3]) & (y_hi[:, None] >= boxes[:, 2]))
                intervals += self._polygon_intervals(np.flatnonzero(near.any(axis=1)),
                                                     ax, ay, dx, dy)
            return _union_length(intervals, dx, dy)

    def _bound_intervals(self, leaves, ax, ay, dx, dy):
        """[(row, lo, hi)]: the parts of the leaving rows out of bounds."""
        if not leaves.any():
            return []
        rows, b = np.flatnonzero(leaves), self.bounds
        t_in, t_out = 0.0, 1.0
        for lo, hi, p, q in ((b.x_min, b.x_max, ax[rows], dx[rows]),
                             (b.y_min, b.y_max, ay[rows], dy[rows])):
            # Parallel to the slab, the cuts are infinite, or nan on its side
            # lines, which fmax and fmin skip: no constraint.
            lo, hi = (lo - p) / q, (hi - p) / q
            t_in = np.fmax(t_in, np.minimum(lo, hi))
            t_out = np.fmin(t_out, np.maximum(lo, hi))
        whole = ~(np.isfinite(dx[rows]) & np.isfinite(dy[rows]) & (t_in < t_out))
        t_in[whole] = t_out[whole] = 1.0
        head, tail = t_in > 0.0, t_out < 1.0
        return [(rows[head], np.zeros(np.count_nonzero(head)), t_in[head]),
                (rows[tail], t_out[tail], np.ones(np.count_nonzero(tail)))]

    def _disk_intervals(self, rows, ax, ay, dx, dy):
        """[(row, lo, hi)]: the non-empty disk root intervals of the rows."""
        found = []
        step = max(1, (1 << 14) // len(self.disks))
        for k in range(0, len(rows), step):
            r = rows[k:k + step]
            # |a + t d - c|^2 = r^2 has the roots (-half_b -+ sqrt(disc)) / dd,
            # on (disks, rows) arrays. In place, in the written-out formula's
            # order (so the same doubles): fx becomes dd (|a - c|^2 - r^2).
            dx_r, dy_r = dx[r], dy[r]
            dd = dx_r * dx_r + dy_r * dy_r
            fx, fy = ax[r] - self.disk_x, ay[r] - self.disk_y
            half_b = fx * dx_r
            half_b += fy * dy_r
            fx *= fx
            fy *= fy
            fx += fy
            fx -= self.disk_r2
            fx *= dd
            disc = half_b * half_b
            disc -= fx
            # Only a positive discriminant can give a non-empty interval.
            hit = np.flatnonzero(disc > 0.0)
            i = hit % len(r)
            half_b, root, dd = half_b.take(hit), np.sqrt(disc.take(hit)), dd[i]
            t0 = np.maximum((-half_b - root) / dd, 0.0)
            t1 = np.minimum((-half_b + root) / dd, 1.0)
            meet = t0 < t1
            found.append((r[i[meet]], t0[meet], t1[meet]))
        return found

    def _polygon_intervals(self, rows, ax, ay, dx, dy):
        """[(row, lo, hi)]: the pieces of the rows between their polygon
        edge crossings whose midpoint the ray cast puts inside."""
        (vx, vy), (ux, uy) = self.vertex_xy.T, self.edge_vec.T
        row, cut = [rows, rows], [np.zeros(len(rows)), np.ones(len(rows))]
        step = max(1, (1 << 14) // len(vx))
        for k in range(0, len(rows), step):
            # a + t d = v + s e, kept where s lies on the edge and t inside
            # the segment. Parallels give nan or inf, which fail the test.
            r = rows[k:k + step]
            sx, sy = dx[r, None], dy[r, None]
            wx, wy = vx - ax[r, None], vy - ay[r, None]
            den = sx * uy - sy * ux
            s = (wx * sy - wy * sx) / den
            t = (wx * uy - wy * ux) / den
            i, j = np.nonzero((s >= 0.0) & (s <= 1.0) & (t > 0.0) & (t < 1.0))
            row.append(r[i])
            cut.append(t[i, j])
        row, cut = np.concatenate(row), np.concatenate(cut)
        order = np.lexsort((cut, row))
        row, cut = row[order], cut[order]
        # Consecutive cuts of one row bound a piece.
        piece = cut[1:] - cut[:-1]
        keep = np.flatnonzero((row[1:] == row[:-1]) & (piece > 0.0))
        row, lo, hi = row[keep], cut[keep], cut[keep + 1]
        u = lo + 0.5 * piece[keep]
        inside = self._in_polygon(ax[row] + u * dx[row], ay[row] + u * dy[row])
        return [(row[inside], lo[inside], hi[inside])]


def _union_length(intervals, dx, dy):
    """The measure of each row's union of open intervals, from (row, lo,
    hi) array triples with 0 <= lo < hi <= 1, times its `np.hypot` length."""
    if not intervals:
        return np.zeros(len(dx))
    row, lo, hi = (np.concatenate(part) for part in zip(*intervals))
    # Sweep each row's interval ends in order. lexsort is stable and
    # every opening end comes before every closing one, so at a tie
    # opening ends go first and touching intervals merge into one run.
    # Each row closes what it opens, so the count of open intervals is
    # 0 between rows, goes 0 -> 1 at a run's start and 1 -> 0 at its end.
    event_row, event_t = np.concatenate((row, row)), np.concatenate((lo, hi))
    order = np.lexsort((event_t, event_row))
    closes = order >= len(row)
    event_row, event_t = event_row[order], event_t[order]
    depth = np.cumsum(np.where(closes, -1, 1))
    run_end, run_start = depth == 0, (depth == 1) & ~closes
    # bincount adds each row's runs one by one, in order, onto 0.0.
    covered = np.bincount(event_row[run_end], minlength=len(dx),
                          weights=event_t[run_end] - event_t[run_start])
    return covered * np.hypot(dx, dy)
