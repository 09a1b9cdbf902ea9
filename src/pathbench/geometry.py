"""Planar primitives and collision predicates.

Conventions used throughout the package:

* obstacle interiors are blocked, obstacle boundaries are free (strict
  inequalities everywhere, so a segment tangent to a circle, or one that
  runs along a polygon edge or touches a corner, is free);
* workspace bounds are inclusive on both sides, with one exception: a
  seam, the part of a polygon edge that lies on a bound line with the
  polygon's interior on the inner side, is blocked between its end
  points, so a wall that meets the bounds leaves no gap there;
* a segment of positive length is blocked iff some point of it is, which
  is iff its blocked length is above 0;
* all inputs are plain floats, points are (x, y) pairs.

This module owns the package's one number rule for every value taken
from a caller or a document: `check_integer` (in a range), `check_real`
(finite, and > `above`, >= `at_least` and <= `at_most` where given) and
`_plain_point` (an exact pair), each raising its caller's error.

Every polygon decision rests on one exact orientation sign, `_orient`,
and every disk decision on one exact squared-distance sign, `_meets_disk`.

The rule has two implementations. The scalar one is `edge_free`, on one
closed segment; `point_free` is `edge_free` on the segment from a point to
itself, `CollisionField.free` too where its clearance grid does not clear
the point, and `audit_path`, the planners' feasibility test, is `edge_free`
on each segment of a path. The vectorised one is
`CollisionField.blocked_lengths`, which measures each segment's union of
open intervals out of bounds, inside a disk, inside a polygon and along
a seam, by the field's batch `Kernel` (`kernel.py`, loaded with the first).

Each `Environment` builds one `CollisionField`, cached as
`Environment.collision_field`: every disk's and polygon's numbers as
plain floats, with the obstacle's closed bounding box, and the seams. As
every test is exact, `edge_free` may skip an obstacle whose box misses
the box of the segment under test. On first use the field also builds
its `Clearance` grid (`clearance.py`), a lower bound per cell on the
distance to every blocked point: a segment between two in-bounds points
that is shorter than the bound at one of its ends is free without a test.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from .errors import InvalidObstacleError, InvalidPathError

if TYPE_CHECKING:
    from .clearance import Clearance
    from .environment import Environment
    from .kernel import Kernel


class Point2(NamedTuple):
    x: float
    y: float


def check_integer(name: str, value, minimum: int, maximum: int = sys.maxsize,
                  error=ValueError) -> int:
    """`value` as an int if an integer (a bool is not) in [minimum, maximum], else `error`."""
    # A plain int passes ahead of the slower ABC tests.
    if not ((type(value) is int or isinstance(value, numbers.Integral)
             and not isinstance(value, bool)) and value >= minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise error(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def check_real(name: str, value, error=ValueError, *, above=None, at_least=None,
               at_most=None) -> float:
    """`value` as a float if a finite real number, numpy's included, that is
    > `above`, >= `at_least` and <= `at_most` where given, else `error`. A
    bool, a str and an integer too large for a float are not finite real numbers."""
    try:  # a plain float or int passes ahead of the slower ABC tests
        real = ((type(value) in (float, int) or isinstance(value, numbers.Real)
                 and not isinstance(value, bool)) and math.isfinite(value))
    except OverflowError:  # math.isfinite of an integer too large for a float
        real = False
    if not real:
        raise error(f"{name} must be a finite number, got {value!r}")
    value = float(value)
    if above is not None and value <= above:
        raise error(f"{name} must be > {above}, got {value!r}")
    if at_least is not None and value < at_least:
        raise error(f"{name} must be >= {at_least}, got {value!r}")
    if at_most is not None and value > at_most:
        raise error(f"{name} must be <= {at_most}, got {value!r}")
    return value


def _plain_point(p, name: str, error) -> Point2:
    """p as a Point2 of floats if an exact [x, y] pair of finite real numbers, else `error`."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise error(f"{name} must be a [x, y] pair, got {p!r}") from None
    return Point2(check_real(name, x, error), check_real(name, y, error))


#: A segment is just an endpoint pair.
Segment = tuple[Point2, Point2]


def _plain_segment(segment) -> Segment:
    """segment as two `_plain_point`s if an exact pair of points, else InvalidPathError."""
    try:
        a, b = segment
    except (TypeError, ValueError):
        raise InvalidPathError(f"a segment must be a pair of points, got {segment!r}") from None
    return (_plain_point(a, "segment endpoint", InvalidPathError),
            _plain_point(b, "segment endpoint", InvalidPathError))


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


@dataclass(frozen=True)
class Circle:
    """Disk obstacle; the open disk is blocked, the rim is free."""

    center: Point2
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           _plain_point(self.center, "circle center", InvalidObstacleError))
        object.__setattr__(self, "radius", check_real("circle radius", self.radius,
                                                      InvalidObstacleError, above=0))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon obstacle; the open interior is blocked, the outline
    is free except along a seam (see the module docstring)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = _plain_vertices(self.vertices)
        n = len(verts)
        # No edge may run back over the one before it. With four or more
        # vertices it would meet a non-adjacent edge; a triangle does iff its
        # vertices are collinear.
        if n == 3 and _orient(*verts) == 0:
            raise InvalidObstacleError("polygon folds back: its three vertices are collinear")
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


Obstacle = Circle | Polygon


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


#: Shewchuk's bound on the rounding of the float orientation determinant,
#: relative to |left| + |right|: (3 + 16 eps) eps, eps = 2^-53. The
#: absolute term covers products that underflow.
_ORIENT_BAND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_TINY = 1e-300


def _orient(a, b, c) -> float:
    """A number with the exact sign of the orientation of (a, b, c):
    positive when c lies left of the line from a to b, 0 on it.

    The float determinant, where it decides: outside its rounding band
    (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast
    Robust Geometric Predicates", DCG 1997), or for a nan or infinite
    difference. Inside the band, 0.0 when both products have a zero
    factor, and otherwise the exact Fraction determinant.
    """
    ux, uy = b[0] - a[0], b[1] - a[1]
    wx, wy = c[0] - a[0], c[1] - a[1]
    left, right = ux * wy, uy * wx
    det = left - right
    if (abs(det) > _ORIENT_BAND * (abs(left) + abs(right)) + _ORIENT_TINY
            or not all(map(math.isfinite, (ux, uy, wx, wy)))):
        return det
    if (ux == 0.0 or wy == 0.0) and (uy == 0.0 or wx == 0.0):
        return 0.0
    return _orient_exact(a, b, c)


def _orient_exact(a, b, c):
    """The orientation determinant of (a, b, c) as an exact Fraction."""
    # Imported on first use: maps without near-degenerate polygon
    # contacts never need it.
    from fractions import Fraction
    ax, ay, bx, by, cx, cy = map(Fraction, (a[0], a[1], b[0], b[1], c[0], c[1]))
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(a, b, p) -> bool:
    # Assumes p collinear with (a, b).
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(p1, p2, q1, q2) -> bool:
    """True if closed segments (p1,p2) and (q1,q2) share any point, decided exactly."""
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
    """True iff p lies strictly inside the polygon (the outline is free), decided exactly.

    A ray cast from p toward +x: an edge whose ends lie on either side of
    p's level (an end on the level counts as below) crosses the ray iff p
    lies strictly left of the edge taken upward, by the exact sign of
    `_orient`; a zero sign puts p on the edge. A vertex at p, or a
    horizontal edge through p, puts p on the outline too.
    """
    px, py = p[0], p[1]
    inside = False
    u = vertices[-1]
    for v in vertices:
        if (u[1] > py) != (v[1] > py):
            s = _orient(u, v, p) if u[1] < v[1] else _orient(v, u, p)
            if s == 0:
                return False
            if s > 0:
                inside = not inside
        elif v[1] == py and (v[0] == px or u[1] == py and min(u[0], v[0]) <= px <= max(u[0], v[0])):
            return False
        u = v
    return inside


def _segment_enters(a, b, vertices) -> bool:
    """True iff some point of the closed segment (a, b) lies strictly
    inside the polygon, decided exactly.

    Along the segment's line, "above" meaning strictly left of it, the
    inside and outside swap where an edge with ends strictly on either
    side crosses, and at a vertex on the line where exactly one of its two
    neighbours lies above. A crossing within the segment enters. Otherwise
    the state just after a is the parity of the swaps ahead of a, each
    vertex on the line within the segment flips it in forward order, and a
    piece with odd parity enters unless it runs along an edge.
    """
    if a[0] == b[0] and a[1] == b[1]:
        return point_in_polygon(a, vertices)
    # Forward positions by one coordinate the segment moves in: exact, on the line.
    axis = 0 if a[0] != b[0] else 1
    sign = 1.0 if b[axis] > a[axis] else -1.0
    f_a, f_b = sign * a[axis], sign * b[axis]
    sides = [_orient(a, b, v) for v in vertices]
    odd = along = False
    events = []
    u, su, w, sw = vertices[-2], sides[-2], vertices[-1], sides[-1]
    for v, sv in zip(vertices, sides):
        if sw == 0:  # w on the line, between u and v
            f_u, f_w, f_v = sign * u[axis], sign * w[axis], sign * v[axis]
            flip = (su > 0) != (sv > 0)
            odd ^= f_w > f_a and flip
            if f_a < f_w < f_b:
                events.append((f_w, flip, sv == 0 and f_v > f_w or su == 0 and f_u > f_w))
            along |= sv == 0 and min(f_w, f_v) <= f_a < max(f_w, f_v)
        elif (sv > 0 and sw < 0) or (sv < 0 and sw > 0):
            oa, ob = _orient(w, v, a), _orient(w, v, b)
            if (oa > 0 and ob < 0) or (oa < 0 and ob > 0):
                return True
            if (oa > 0 and sv > 0) or (oa < 0 and sv < 0):  # the crossing is ahead of a
                odd = not odd
        u, su, w, sw = w, sw, v, sv
    for _, flip, outline in sorted([(f_a, False, along), *events]):
        odd ^= flip
        if odd and not outline:
            return True
    return False


def _plain_vertices(vertices) -> tuple[Point2, ...]:
    """A polygon outline as `_plain_point`s: at least three, no two
    consecutive ones equal; anything else is an InvalidObstacleError."""
    try:
        vertices = iter(vertices)
    except TypeError:
        raise InvalidObstacleError(f"polygon vertices must be a list of points, "
                                   f"got {vertices!r}") from None
    verts = tuple(_plain_point(v, "polygon vertex", InvalidObstacleError) for v in vertices)
    if len(verts) < 3:
        raise InvalidObstacleError("polygon needs at least 3 vertices")
    for a, b in zip(verts, verts[1:] + verts[:1]):
        if a == b:
            raise InvalidObstacleError(
                f"degenerate polygon: repeated consecutive vertex ({a[0]}, {a[1]})")
    return verts


#: Bounds the rounding of each float disk test here, relative to the sum of
#: its terms' magnitudes: 128 eps, against about 22 eps by error analysis.
_DISK_BAND = 2.0 ** -46


def _disk_gap(a, b, c, r):
    """(gap, size) on floats or Fractions: gap has the sign of min |p - c|^2 - r^2
    over the closed segment (a, b), and size bounds its terms. With v = b - a
    and w = c - a, the nearest point is a if w.v <= 0, b if w.v >= v.v, and
    else the foot of the perpendicular, at cross(v, w)^2 / v.v."""
    vx, vy, wx, wy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
    wv, vv, rr = wx * vx + wy * vy, vx * vx + vy * vy, r * r
    if 0 < wv < vv:
        cross = vx * wy - vy * wx
        return cross * cross - rr * vv, vv * (wx * wx + wy * wy + rr)
    if wv > 0:
        wx, wy = c[0] - b[0], c[1] - b[1]
    ww = wx * wx + wy * wy
    return ww - rr, ww + rr


def _meets_disk(a, b, c, r) -> bool:
    """True iff the closed segment (a, b) meets the open disk (c, r), decided
    exactly: the float `_disk_gap` outside its rounding band, else the one on
    Fractions, as in `_orient_exact`."""
    gap, size = _disk_gap(a, b, c, r)
    if abs(gap) > _DISK_BAND * size + _ORIENT_TINY:
        return gap < 0.0
    from fractions import Fraction
    ax, ay, bx, by, cx, cy, r = map(Fraction, (*a, *b, *c, r))
    return _disk_gap((ax, ay), (bx, by), (cx, cy), r)[0] < 0


def segment_circle_collides(segment: Segment, center: Sequence[float],
                            radius: float) -> bool:
    """True iff the segment enters the open disk (tangency is free), decided exactly."""
    disk = Circle(center, radius)
    a, b = _plain_segment(segment)
    return _meets_disk(a, b, disk.center, disk.radius)


def segment_polygon_collides(segment: Segment,
                             vertices: Sequence[Sequence[float]]) -> bool:
    """True iff some point of the segment lies strictly inside the polygon.

    Touching a corner or running along an edge is free; decided exactly.
    """
    vertices = _plain_vertices(vertices)
    a, b = _plain_segment(segment)
    return _segment_enters(a, b, vertices)


def point_free(p: Sequence[float], env: "Environment") -> bool:
    """True iff p lies inside the workspace bounds, outside every
    obstacle's interior and off every seam: `edge_free` from p to p."""
    return edge_free(p, p, env)


def edge_free(a: Sequence[float], b: Sequence[float], env: "Environment") -> bool:
    """True iff segment (a, b) stays in bounds and no point of it is blocked.

    The far endpoint b is a point of the segment, so it must be free too,
    as the tree planner needs for its candidate node. Obstacles whose
    closed box (see `CollisionField`) misses the segment's box are
    skipped. Each remaining disk gets `_meets_disk`; a segment on a bound
    line is checked against the seams there; each remaining polygon gets
    the exact test of `segment_polygon_collides`, without re-validating
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
    for box_x_lo, box_x_hi, box_y_lo, box_y_hi, c, r in field.disks:
        if x_hi < box_x_lo or x_lo > box_x_hi or y_hi < box_y_lo or y_lo > box_y_hi:
            continue
        if _meets_disk(a, b, c, r):
            return False
    if ax == bx or ay == by:  # only such a segment can run along a bound line
        for axis, value, lo, hi in field.seams:
            if a[axis] == value == b[axis] and (y_lo, x_lo)[axis] < hi and (y_hi, x_hi)[axis] > lo:
                return False
    for box_x_lo, box_x_hi, box_y_lo, box_y_hi, vertices in field.polygons:
        if x_hi < box_x_lo or x_lo > box_x_hi or y_hi < box_y_lo or y_lo > box_y_hi:
            continue
        if _segment_enters(a, b, vertices):
            return False
    return True


def audit_path(path: Sequence[Sequence[float]], env: "Environment") -> bool:
    """True iff `path` has at least two waypoints and every segment is `edge_free`."""
    return len(path) >= 2 and all(edge_free(a, b, env) for a, b in zip(path, path[1:]))


def _seams(bounds: Bounds, outlines) -> tuple:
    """(axis, value, lo, hi) per seam: the edge lies on the bound line where
    coordinate `axis` equals `value`, and spans (lo, hi) along the other axis."""
    seams = []
    for vs in outlines:
        # The lowest, then leftmost, vertex is convex, so its turn gives the
        # polygon's orientation: positive when counterclockwise.
        k = min(range(len(vs)), key=lambda i: (vs[i].y, vs[i].x))
        ccw = _orient(vs[k - 1], vs[k], vs[(k + 1) % len(vs)]) > 0
        for v, w in zip(vs, vs[1:] + vs[:1]):
            for axis, value, inward in ((0, bounds.x_min, 1.0), (0, bounds.x_max, -1.0),
                                        (1, bounds.y_min, 1.0), (1, bounds.y_max, -1.0)):
                # The interior lies left of the edge when counterclockwise.
                left = (v.y - w.y, w.x - v.x)[axis]
                if v[axis] == value == w[axis] and (left * inward > 0) == ccw:
                    seams.append((axis, value, min(v[1 - axis], w[1 - axis]),
                                  max(v[1 - axis], w[1 - axis])))
    return tuple(seams)


class CollisionField:
    """Every obstacle of one environment, laid out for the collision tests.

    Read it as `Environment.collision_field`, built on first use and
    cached. `free` tests many points, each by its `clearance` cell or else
    the scalar `edge_free`; `blocked_lengths` measures many segments at once
    by its `kernel`. Both keep one rule: strict interior tests, inclusive
    bounds, blocked seams. `clearance`, the `Clearance` grid of lower bounds
    on the distance to the obstacles that RRT* reads to skip edge checks,
    and `kernel`, the batch `Kernel`, load their modules on first use.

    For the scalar `edge_free`, in obstacle order: `disks` holds an
    (x_lo, x_hi, y_lo, y_hi, (cx, cy), r) tuple of plain floats per circle,
    `polygons` an (x_lo, x_hi, y_lo, y_hi, vertices) tuple per polygon.
    `seams` holds an (axis, value, lo, hi) tuple per seam: the polygon
    edge on the bound line where coordinate `axis` is `value`, from lo to
    hi along the other axis. `obstacle_free` says the field has no disk and
    no polygon, so no seam: only the bounds block, and a PSO run skips the
    kernel.

    Each box is the obstacle's closed bounding box, a disk's rounded
    outward. Every test is exact, so a segment whose box misses it cannot
    meet the obstacle: `edge_free` skips the obstacle, and
    `blocked_lengths` leaves out the polygons for such a segment.
    """

    def __init__(self, env: "Environment"):
        self.bounds = env.bounds
        circles = [(o.center.x, o.center.y, o.radius)
                   for o in env.obstacles if isinstance(o, Circle)]
        outlines = [o.vertices for o in env.obstacles if isinstance(o, Polygon)]
        lo, hi = -math.inf, math.inf
        self.disks = tuple((math.nextafter(cx - r, lo), math.nextafter(cx + r, hi),
                            math.nextafter(cy - r, lo), math.nextafter(cy + r, hi), (cx, cy), r)
                           for cx, cy, r in circles)
        self.polygons = tuple((min(v.x for v in vs), max(v.x for v in vs),
                               min(v.y for v in vs), max(v.y for v in vs), vs)
                              for vs in outlines)
        self.seams = _seams(self.bounds, outlines)
        self.obstacle_free = not (circles or outlines)

    @cached_property
    def clearance(self) -> Clearance:
        """The field's `Clearance` grid, built on first use."""
        from .clearance import Clearance  # loaded with the first grid
        return Clearance.build(self.bounds, [
            *((cx, cx, cy, cy, r) for *_, (cx, cy), r in self.disks),
            *((*polygon[:4], 0.0) for polygon in self.polygons)])

    @cached_property
    def kernel(self) -> Kernel:
        """The field's batch `Kernel`, built on first use."""
        from .kernel import Kernel  # loaded with the first kernel
        return Kernel(self)

    def free(self, points: np.ndarray) -> np.ndarray:
        """points: (N, 2) array -> boolean (N,) mask of free points. A point
        in the bounds whose `clearance` cell bound is positive is free; the
        others are decided by `edge_free` on the segment from the point to itself."""
        # The field stands in for its environment: `edge_free` reads only
        # these two attributes, and the stand-in dies with the call.
        env = SimpleNamespace(bounds=self.bounds, collision_field=self)
        xs, ys = _columns(points)
        free = self.clearance.at_points(xs, ys) > 0.0
        rest = np.flatnonzero(~free)
        for k, p in zip(rest.tolist(), zip(xs[rest].tolist(), ys[rest].tolist())):
            free[k] = edge_free(p, p, env)
        return free

    def blocked_lengths(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """(N, 2) start and end points -> (N,) exact blocked length per segment:
        the measure of the union of the open intervals of t in [0, 1] where
        a + t(b - a) is out of bounds, inside an obstacle or on a seam, times
        the segment's `np.hypot` length; exactly 0.0 if it meets nothing."""
        ax, ay = _columns(starts).copy()
        ex, ey = _columns(ends)
        if len(ax) != len(ex):
            raise ValueError(f"starts and ends must hold as many points: {len(ax)} != {len(ex)}")
        with np.errstate(invalid="ignore", over="ignore"):
            return self.kernel._blocked_measure(ax, ay, ex, ey) * np.hypot(ex - ax, ey - ay)


def _columns(points) -> np.ndarray:
    """(N, 2) points -> their (2, N) float64 x and y columns; an empty input
    is no points, and any other shape a ValueError."""
    xy = np.asarray(points, dtype=np.float64)
    if xy.size and (xy.ndim != 2 or xy.shape[1] != 2):
        raise ValueError(f"points must be an (N, 2) array, got shape {xy.shape}")
    return xy.reshape(-1, 2).T
