"""Geometry primitives: distances, intersection tests, free-space predicates."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathbench.environment import Environment
from pathbench.errors import InvalidObstacleError, InvalidPathError
from pathbench.geometry import (Bounds, Circle, CollisionField, Point2,
                                Polygon, dist, edge_free, path_length,
                                point_free, point_in_polygon,
                                point_segment_distance,
                                segment_circle_collides,
                                segment_polygon_collides, segments_intersect)
from pathbench.pso import path_violation

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

# Concave L: a 4x4 square with the top-right 3x3 corner cut away.
L_SHAPE = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0)]


def test_dist_examples():
    assert dist((0, 0), (3, 4)) == 5.0
    assert dist((7, -2), (7, -2)) == 0.0
    # sqrt(27^2 + 45^2) = sqrt(2754)
    assert dist((12, -35), (-15, 10)) == pytest.approx(52.4785, abs=1e-3)


def test_dist_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.uniform(-50, 50, size=(2, 2))
        assert dist(a, b) == dist(b, a)
        assert dist(a, b) >= 0.0


def test_path_length_examples():
    assert path_length([(0, 0), (3, 4)]) == 5.0
    assert path_length([(0, 0), (3, 4), (3, 4)]) == 5.0  # zero-length tail
    assert path_length([(0, 0), (4, 0), (4, 3)]) == 7.0


def test_path_length_rejects_short_paths():
    with pytest.raises(InvalidPathError):
        path_length([(0, 0)])
    with pytest.raises(InvalidPathError):
        path_length([])


def test_path_length_triangle_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.uniform(-20, 20, size=(rng.integers(2, 8), 2))
        assert path_length(pts) >= dist(pts[0], pts[-1]) - 1e-12


def test_point_segment_distance():
    assert point_segment_distance((0, 5), (-3, 0), (3, 0)) == 5.0
    # Projection falls past b; the closest point is the endpoint (4, 0).
    assert point_segment_distance((7, 3), (0, 0), (4, 0)) == pytest.approx(math.hypot(3, 3))
    assert point_segment_distance((5, 1), (0, 0), (10, 0)) == 1.0
    # Zero-length segment behaves like a point.
    assert point_segment_distance((1, 1), (2, 2), (2, 2)) == pytest.approx(math.sqrt(2))


def test_segments_intersect():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))  # shared endpoint
    assert segments_intersect((0, 0), (4, 0), (2, 0), (6, 0))  # collinear overlap
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))  # collinear gap
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))  # parallel
    assert segments_intersect((0, 0), (4, 0), (2, -1), (2, 3))


def test_point_in_polygon_square():
    assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)
    assert not point_in_polygon((2.0, 2.0), UNIT_SQUARE)
    assert not point_in_polygon((-0.5, 0.5), UNIT_SQUARE)


def test_point_in_polygon_concave():
    assert point_in_polygon((0.5, 3.0), L_SHAPE)  # vertical arm
    assert point_in_polygon((2.0, 0.5), L_SHAPE)  # horizontal arm
    assert not point_in_polygon((2.0, 2.0), L_SHAPE)  # inside the notch
    assert not point_in_polygon((5.0, 0.5), L_SHAPE)


def test_segment_circle_collides():
    assert segment_circle_collides(((0, 0), (10, 0)), (5, 1), 2.0)
    assert not segment_circle_collides(((0, 0), (10, 0)), (5, 5), 2.0)
    # Closest point is the endpoint (10, 0), distance 2 < 3.
    assert segment_circle_collides(((0, 0), (10, 0)), (12, 0), 3.0)


def test_segment_circle_tangency_is_free():
    # Perpendicular distance is exactly the radius.
    assert not segment_circle_collides(((0, 0), (10, 0)), (5, 2), 2.0)


def test_segment_circle_rejects_bad_radius():
    with pytest.raises(InvalidObstacleError):
        segment_circle_collides(((0, 0), (1, 0)), (0, 0), 0.0)
    with pytest.raises(InvalidObstacleError):
        segment_circle_collides(((0, 0), (1, 0)), (0, 0), -2.0)


def test_segment_polygon_collides():
    assert segment_polygon_collides(((-1, 0.5), (2, 0.5)), UNIT_SQUARE)
    assert not segment_polygon_collides(((-1, 2), (2, 2)), UNIT_SQUARE)
    # Fully interior segment: no edge crossing, both endpoints inside.
    assert segment_polygon_collides(((0.25, 0.25), (0.75, 0.75)), UNIT_SQUARE)


def test_segment_polygon_rejects_degenerate():
    with pytest.raises(InvalidObstacleError):
        segment_polygon_collides(((0, 0), (1, 1)), [(0, 0), (1, 0)])
    with pytest.raises(InvalidObstacleError):
        segment_polygon_collides(((0, 0), (1, 1)), [(0, 0), (0, 0), (1, 0), (1, 1)])


def test_polygon_validation():
    with pytest.raises(InvalidObstacleError):
        Polygon(((0, 0), (1, 0)))
    with pytest.raises(InvalidObstacleError):
        Polygon(((0, 0), (0, 0), (1, 0), (1, 1)))
    with pytest.raises(InvalidObstacleError):  # bowtie
        Polygon(((0, 0), (2, 2), (2, 0), (0, 2)))
    with pytest.raises(InvalidObstacleError):
        Polygon(((0, 0), (1, math.nan), (1, 1)))
    Polygon(tuple(Point2(*v) for v in L_SHAPE))  # concave but simple


def test_circle_validation():
    with pytest.raises(InvalidObstacleError):
        Circle(Point2(0, 0), 0.0)
    with pytest.raises(InvalidObstacleError):
        Circle(Point2(0, 0), math.inf)
    with pytest.raises(InvalidObstacleError):
        Circle(Point2(math.nan, 0), 1.0)


def test_bounds_are_inclusive():
    b = Bounds(-40.0, 40.0, -40.0, 20.0)
    assert b.contains((-40, -40))
    assert b.contains((40, 20))
    assert not b.contains((40.0001, 0))
    assert b.width == 80.0 and b.height == 60.0


@pytest.fixture
def small_env():
    return Environment(Bounds(-10, 10, -10, 10),
                       (Circle(Point2(0, 0), 2.0),
                        Polygon(tuple(Point2(x + 4, y + 4) for x, y in UNIT_SQUARE))))


def test_point_free(small_env):
    assert point_free((5, -5), small_env)
    assert not point_free((0, 0), small_env)  # circle center
    assert not point_free((4.5, 4.5), small_env)  # inside the square
    assert not point_free((11, 0), small_env)  # out of bounds
    assert point_free((10, 10), small_env)  # corner of the workspace
    # The circle rim itself is free (strict interior test).
    assert point_free((2.0, 0.0), small_env)


def test_edge_free(small_env):
    assert not edge_free((-5, 0), (5, 0), small_env)  # through the circle
    assert edge_free((-5, 5), (-5, -5), small_env)
    assert not edge_free((0, 0), (5, 5), small_env)  # starts inside
    assert not edge_free((-5, 0), (12, 0), small_env)  # endpoint out of bounds
    # Grazing the circle at exactly the tangent distance is free.
    assert edge_free((-5, 2), (5, 2), Environment(Bounds(-10, 10, -10, 10),
                                                  (Circle(Point2(0, 0), 2.0),)))


def test_edge_free_checks_far_endpoint(small_env):
    # The segment itself stops short of the disk but lands inside the square.
    assert not edge_free((4.5, 8), (4.5, 4.5), small_env)


def reference_point_free(p, env):
    """Oracle: the scalar point test, every obstacle tested."""
    if not env.bounds.contains(p):
        return False
    for obs in env.obstacles:
        if isinstance(obs, Circle):
            dx, dy = p[0] - obs.center.x, p[1] - obs.center.y
            if dx * dx + dy * dy < obs.radius * obs.radius:
                return False
        elif point_in_polygon(p, obs.vertices):
            return False
    return True


def test_collision_field_matches_scalar(small_env):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-12, 12, size=(500, 2))
    want = np.array([reference_point_free(p, small_env) for p in pts])
    got = CollisionField(small_env).free(pts)
    assert np.array_equal(want, got)


def test_collision_field_many_random_envs():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n_obs = rng.integers(1, 5)
        obstacles = []
        for _ in range(n_obs):
            if rng.random() < 0.5:
                obstacles.append(Circle(Point2(*rng.uniform(-8, 8, 2)),
                                        float(rng.uniform(0.5, 3))))
            else:
                cx, cy = rng.uniform(-6, 6, 2)
                obstacles.append(Polygon((Point2(cx, cy), Point2(cx + 3, cy),
                                          Point2(cx + 3, cy + 1), Point2(cx + 1, cy + 1),
                                          Point2(cx + 1, cy + 3), Point2(cx, cy + 3))))
        env = Environment(Bounds(-10, 10, -10, 10), tuple(obstacles))
        pts = rng.uniform(-11, 11, size=(300, 2))
        want = np.array([reference_point_free(p, env) for p in pts])
        assert np.array_equal(CollisionField(env).free(pts), want)


def test_translation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b, c = rng.uniform(-10, 10, size=(3, 2))
        r = float(rng.uniform(0.2, 4))
        off = rng.uniform(-30, 30, size=2)
        before = segment_circle_collides((tuple(a), tuple(b)), tuple(c), r)
        after = segment_circle_collides((tuple(a + off), tuple(b + off)), tuple(c + off), r)
        assert before == after


# --- exact blocked length ---------------------------------------------------

# Fixed examples keep the suite reproducible from run to run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
WIDE = Bounds(-12.0, 12.0, -12.0, 12.0)

coords = st.floats(-14.0, 14.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)
angles = st.floats(0.0, 2.0 * math.pi)
disks = st.builds(lambda c, r: Circle(Point2(*c), r),
                  st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
                  st.floats(0.2, 4.0))


@st.composite
def polygons(draw):
    """Star-shaped about its center, so always simple; often concave."""
    cx = draw(st.floats(-7.0, 7.0))
    cy = draw(st.floats(-7.0, 7.0))
    radii = draw(st.lists(st.floats(0.5, 3.5), min_size=3, max_size=7))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    n = len(radii)
    return Polygon(tuple(
        Point2(cx + r * math.cos(turn + 2.0 * math.pi * k / n),
               cy + r * math.sin(turn + 2.0 * math.pi * k / n))
        for k, r in enumerate(radii)))


def _blocked(env, a, b):
    return float(CollisionField(env).blocked_lengths(np.array([a]), np.array([b]))[0])


@PROPERTY
@given(a=points, b=points, obstacles=st.lists(disks | polygons(), max_size=4))
def test_blocked_length_matches_dense_sampling(a, b, obstacles):
    env = Environment(WIDE, tuple(obstacles))
    a, b = np.array(a), np.array(b)
    n = 20_000
    ts = (np.arange(n) + 0.5) / n
    length = float(np.hypot(*(b - a)))
    dense = float((~CollisionField(env).free(a + ts[:, None] * (b - a))).mean()) * length
    # Each boundary crossing (2 per disk, 1 per polygon edge, 1 per bound
    # line) can shift the sampled sum by at most one sample pitch.
    crossings = 4 + sum(2 if isinstance(o, Circle) else len(o.vertices)
                        for o in obstacles)
    assert abs(_blocked(env, a, b) - dense) <= crossings * length / n + 1e-9


@PROPERTY
@given(a=points, b=points, disk=disks)
def test_blocked_length_is_zero_when_clear_of_a_disk(a, b, disk):
    if not segment_circle_collides((a, b), disk.center, disk.radius):
        assert _blocked(Environment(Bounds(-20, 20, -20, 20), (disk,)), a, b) == 0.0


@PROPERTY
@given(a=points, b=points, polygon=polygons())
def test_blocked_length_is_zero_when_clear_of_a_polygon(a, b, polygon):
    if not segment_polygon_collides((a, b), polygon.vertices):
        assert _blocked(Environment(Bounds(-20, 20, -20, 20), (polygon,)), a, b) == 0.0


def test_overlapping_disks_count_once():
    # The disks overlap on x in (-1, 2); their union covers x in (-2, 3).
    pair = Environment(WIDE, (Circle(Point2(0, 0), 2.0), Circle(Point2(1, 0), 2.0)))
    assert _blocked(pair, (-5, 0), (5, 0)) == pytest.approx(5.0, abs=1e-12)
    twice = Environment(WIDE, (Circle(Point2(0, 0), 2.0), Circle(Point2(0, 0), 2.0)))
    assert _blocked(twice, (-5, 0), (5, 0)) == pytest.approx(4.0, abs=1e-12)


def test_blocked_length_counts_out_of_bounds():
    assert _blocked(Environment(WIDE), (10, 0), (15, 0)) == pytest.approx(3.0)


@PROPERTY
@given(disk=disks, th=angles, rel=st.floats(-1e-13, 1e-13),
       s1=st.floats(-6.0, 6.0), s2=st.floats(-6.0, 6.0), symmetric=st.booleans())
def test_tangent_rows_block_next_to_nothing(disk, th, rel, s1, s2, symmetric):
    # A line within 1e-13 r of the rim meets the disk on a chord of at
    # most 2 r sqrt(2e-13), about 9e-7 r. Symmetric rows put the midpoint
    # of the segment on the tangent point.
    (cx, cy), r = disk.center, disk.radius
    px, py = cx + r * (1.0 + rel) * math.cos(th), cy + r * (1.0 + rel) * math.sin(th)
    s2 = -s1 if symmetric else s2
    a = (px - s1 * math.sin(th), py + s1 * math.cos(th))
    b = (px - s2 * math.sin(th), py + s2 * math.cos(th))
    assert _blocked(Environment(Bounds(-20, 20, -20, 20), (disk,)), a, b) <= 1e-5 * r


def test_non_finite_rows_raise_no_floating_point_warnings():
    env = Environment(WIDE, (Circle(Point2(0, 0), 1.0),))
    starts = np.array([[-5.0, 0.0], [np.inf, 0.0], [np.nan, 1.0], [-np.inf, np.inf], [np.inf, 0.0]])
    ends = np.array([[5.0, 0.0], [0.0, 0.0], [0.0, 0.0], [np.inf, -np.inf], [np.inf, 0.0]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = reference_blocked_lengths(env, starts, ends)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = CollisionField(env).blocked_lengths(starts, ends)
        violation = path_violation([(-5.0, 0.0), (5.0, 0.0), (np.inf, 0.0)], env)
    np.testing.assert_array_equal(got, want)
    assert got[0] == pytest.approx(2.0)
    assert violation == np.inf


def test_path_violation_sees_a_shallow_chord():
    # A sampled penalty stepped over this 0.0894-long chord of the unit
    # disk and reported the path clean.
    env = Environment(WIDE, (Circle(Point2(0, 0), 1.0),))
    chord = 2.0 * math.sqrt(1.0 - 0.999 ** 2)
    assert path_violation([(-5, 0.999), (5, 0.999)], env) == pytest.approx(chord)
    assert chord == pytest.approx(0.0894, abs=1e-4)


# --- row skipping against the full pass -------------------------------------

def cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def reference_blocked_lengths(env, starts, ends):
    """Oracle: the kernel before it skipped rows; every row is cut and classified."""
    field = CollisionField(env)
    circles = [o for o in env.obstacles if isinstance(o, Circle)]
    circle_xy = np.array([[c.center.x, c.center.y] for c in circles],
                         dtype=np.float64).reshape(len(circles), 2)
    circle_r = np.array([c.radius for c in circles], dtype=np.float64)
    polygons = [np.asarray(o.vertices, dtype=np.float64)
                for o in env.obstacles if isinstance(o, Polygon)]
    a = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(ends, dtype=np.float64).reshape(-1, 2) - a
    b = env.bounds
    cuts = [np.zeros((len(a), 1)), np.ones((len(a), 1))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cuts.append((np.array([[b.x_min, b.x_max]]) - a[:, :1]) / d[:, :1])
        cuts.append((np.array([[b.y_min, b.y_max]]) - a[:, 1:]) / d[:, 1:])
        if circle_r.size:
            f = a[:, None, :] - circle_xy[None, :, :]
            dd = (d * d).sum(axis=1)[:, None]
            half_b = (f * d[:, None, :]).sum(axis=2)
            root = np.sqrt(half_b * half_b
                           - dd * ((f * f).sum(axis=2) - circle_r ** 2))
            cuts += [(-half_b - root) / dd, (-half_b + root) / dd]
        for verts in polygons:
            e = (np.roll(verts, -1, axis=0) - verts)[None, :, :]
            w = verts[None, :, :] - a[:, None, :]
            den = cross(d[:, None, :], e)
            s = cross(w, d[:, None, :]) / den
            cuts.append(np.where((s >= 0.0) & (s <= 1.0), cross(w, e) / den, np.nan))
    t = np.concatenate(cuts, axis=1)
    t = np.sort(np.clip(np.nan_to_num(t, nan=1.0), 0.0, 1.0), axis=1)
    piece = np.diff(t, axis=1)
    mid = a[:, None, :] + (t[:, :-1] + 0.5 * piece)[:, :, None] * d[:, None, :]
    keep = piece > 0.0
    blocked = np.zeros(piece.shape, dtype=bool)
    blocked[keep] = ~field.free(mid[keep])
    return (piece * blocked).sum(axis=1) * np.hypot(d[:, 0], d[:, 1])


def reference_union_lengths(env, starts, ends):
    """Oracle: the disk union on plain floats, row by row.

    A row in bounds, clear of every polygon's widened box and with a
    squared length of at least 1e-100 is blocked on the union of its
    disks' open root intervals, clipped to [0, 1]: sorted, then merged
    while an interval starts at or before the furthest end so far. Every
    other row comes from `reference_blocked_lengths`, which must find
    nothing of a union row blocked by the bounds and polygons alone.
    """
    field = CollisionField(env)
    circles = [(o.center.x, o.center.y, o.radius) for o in env.obstacles if isinstance(o, Circle)]
    starts, ends = np.reshape(starts, (-1, 2)), np.reshape(ends, (-1, 2))
    out = np.zeros(len(starts))
    cut = []
    for i, ((ax, ay), (ex, ey)) in enumerate(zip(starts.tolist(), ends.tolist())):
        dx, dy = ex - ax, ey - ay
        dd = dx * dx + dy * dy
        x_lo, x_hi, y_lo, y_hi = min(ax, ex), max(ax, ex), min(ay, ey), max(ay, ey)
        if (not (env.bounds.contains((ax, ay)) and env.bounds.contains((ex, ey)))
                or dd < 1e-100
                or any(x_lo <= p[1] and x_hi >= p[0] and y_lo <= p[3] and y_hi >= p[2]
                       for p in field.polygons)):
            cut.append(i)
            continue
        intervals = []
        for cx, cy, r in circles:
            fx, fy = ax - cx, ay - cy
            half_b = fx * dx + fy * dy
            disc = half_b * half_b - dd * (fx * fx + fy * fy - r * r)
            if disc >= 0.0:
                lo = max((-half_b - math.sqrt(disc)) / dd, 0.0)
                hi = min((-half_b + math.sqrt(disc)) / dd, 1.0)
                if lo < hi:
                    intervals.append((lo, hi))
        runs = []
        for lo, hi in sorted(intervals):
            if runs and lo <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], hi)
            else:
                runs.append([lo, hi])
        covered = 0.0
        for lo, hi in runs:
            covered += hi - lo
        out[i] = covered * float(np.hypot(dx, dy))
    out[cut] = reference_blocked_lengths(env, starts[cut], ends[cut])
    union = np.setdiff1d(np.arange(len(starts)), cut)
    polygons_only = Environment(env.bounds, tuple(o for o in env.obstacles
                                                  if isinstance(o, Polygon)))
    assert not reference_blocked_lengths(polygons_only, starts[union], ends[union]).any()
    return out


def reference_edge_free(a, b, env):
    """Oracle: edge_free before the disk table, one pass for b, one for the segment."""
    if not (env.bounds.contains(a) and env.bounds.contains(b)):
        return False
    for obs in env.obstacles:
        if isinstance(obs, Circle):
            dx, dy = b[0] - obs.center.x, b[1] - obs.center.y
            if dx * dx + dy * dy < obs.radius * obs.radius:
                return False
        elif point_in_polygon(b, obs.vertices):
            return False
    for obs in env.obstacles:
        if isinstance(obs, Circle):
            if point_segment_distance(obs.center, a, b) < obs.radius:
                return False
        elif segment_polygon_collides((a, b), obs.vertices):
            return False
    return True


SEGMENT_KINDS = ("random", "tangent", "rim", "zero", "tiny", "outside")


@st.composite
def segment_batches(draw, env):
    """A shuffled batch of clear, hitting, grazing and degenerate segments.

    Tangent rows sit within 1e-13 (relative to the radius) of a disk's
    rim, on either side; rim rows start or end on a rim. Fields without
    disks aim those rows at a phantom unit disk.
    """
    rims = [o for o in env.obstacles if isinstance(o, Circle)] or [Circle(Point2(0, 0), 1.0)]
    rows = []
    for kind in draw(st.lists(st.sampled_from(SEGMENT_KINDS), min_size=1, max_size=24)):
        disk = draw(st.sampled_from(rims))
        (cx, cy), r = disk.center, disk.radius
        if kind == "random":
            a, b = draw(points), draw(points)
        elif kind == "tangent":
            th = draw(angles)
            rr = r * (1.0 + draw(st.floats(-1e-13, 1e-13)))
            px, py = cx + rr * math.cos(th), cy + rr * math.sin(th)
            s1 = draw(st.floats(-6.0, 6.0))
            # Symmetric rows put the only piece midpoint on the tangent point.
            s2 = -s1 if draw(st.booleans()) else draw(st.floats(-6.0, 6.0))
            a = (px - s1 * math.sin(th), py + s1 * math.cos(th))
            b = (px - s2 * math.sin(th), py + s2 * math.cos(th))
        elif kind == "rim":
            th = draw(angles)
            a, b = (cx + r * math.cos(th), cy + r * math.sin(th)), draw(points)
            if draw(st.booleans()):
                a, b = b, a
        elif kind == "zero":
            a = b = draw(points)
        elif kind == "tiny":
            th = draw(angles)
            a = (cx + r * math.cos(th), cy + r * math.sin(th))
            step = st.floats(-1e-9, 1e-9)
            b = (a[0] + draw(step), a[1] + draw(step))
        else:
            a = (draw(st.floats(12.5, 30.0)) * draw(st.sampled_from((-1, 1))), draw(coords))
            b = draw(points)
        rows.append((a, b))
    return np.array([a for a, _ in rows]), np.array([b for _, b in rows])


@st.composite
def fields(draw, kind):
    if kind == "disks":
        obstacles = draw(st.lists(disks, min_size=1, max_size=5))
    elif kind == "polygons":
        obstacles = draw(st.lists(polygons(), min_size=1, max_size=3))
    elif kind == "mixed":
        obstacles = draw(st.lists(disks, min_size=1, max_size=3)) + draw(
            st.lists(polygons(), min_size=1, max_size=2))
    else:
        obstacles = []
    return Environment(WIDE, tuple(obstacles))


FIELD_KINDS = ("disks", "polygons", "mixed", "empty")


@pytest.mark.parametrize("kind", FIELD_KINDS)
@PROPERTY
@given(data=st.data())
def test_row_skip_and_disk_table_match_the_oracles(kind, data):
    env = data.draw(fields(kind))
    starts, ends = data.draw(segment_batches(env))
    want = reference_union_lengths(env, starts, ends)
    assert CollisionField(env).blocked_lengths(starts, ends).tolist() == want.tolist()
    for a, b in zip(starts.tolist(), ends.tolist()):
        assert edge_free(a, b, env) == reference_edge_free(a, b, env)


@pytest.mark.parametrize("disk, a, b, want", [
    # Tangent up to rounding: the discriminant comes out negative. The
    # cut pass classified the only piece midpoint, the tangent point, as
    # inside and blocked all 4.3995 units of the row; the union of the
    # (empty) root intervals blocks nothing.
    (Circle(Point2(0.1418594964030806, 5.405564355911224), 0.7478065283346083),
     (0.49838956270877044, 7.701438949529752), (-1.5400582402416354, 3.802658692759802),
     0.0),
    # Inside a disk and so short that its squared length underflows to
    # zero: the roots see nothing, the cut pass blocks the row.
    (Circle(Point2(0.3, 0.0), 1.0), (0.0, 0.0), (1e-170, 0.0), 1e-170),
], ids=["tangent-midpoint-rounds-inside", "underflowing-length"])
def test_rows_that_must_take_the_exact_pass(disk, a, b, want):
    env = Environment(WIDE, (disk,))
    a, b = np.array([a]), np.array([b])
    reference = reference_union_lengths(env, a, b)
    assert reference[0] == pytest.approx(want, rel=1e-12)
    assert CollisionField(env).blocked_lengths(a, b).tolist() == reference.tolist()


class CountingField(CollisionField):
    """Records how many points each `free` call classifies."""

    def __init__(self, env):
        super().__init__(env)
        self.calls = []

    def free(self, points):
        self.calls.append(len(points))
        return super().free(points)


def test_clear_rows_skip_the_exact_pass():
    # Disk-only rows in bounds never reach `free`: clear, blocked, or
    # grazing a rim from either side.
    env = Environment(WIDE, (Circle(Point2(0, 0), 1.0), Circle(Point2(5, 5), 1.0)))
    starts = np.array([[-10.0, -10.0], [-10.0, 10.0], [-5.0, 0.0], [-5.0, 4.5],
                       [-5.0, 1.0 + 1e-12], [-5.0, 1.0 - 1e-12], [-5.0, 1.0]])
    ends = np.array([[-10.0, 10.0], [10.0, 10.0], [5.0, 0.0], [10.0, 4.5],
                     [5.0, 1.0 + 1e-12], [5.0, 1.0 - 1e-12], [5.0, 1.0]])
    field = CountingField(env)
    got = field.blocked_lengths(starts, ends)
    assert field.calls == []
    assert got.tolist() == reference_union_lengths(env, starts, ends).tolist()
    assert [got[i] for i in (0, 1, 4, 6)] == [0.0] * 4
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(2.0 * math.sqrt(0.75))
    assert 0.0 < got[5] < 1e-5
    # A row that leaves the bounds takes the cut pass: its two pieces
    # either side of x = 12 are classified.
    assert field.blocked_lengths(np.array([[10.0, 0.0]]),
                                 np.array([[15.0, 0.0]])).tolist() == [pytest.approx(3.0)]
    assert field.calls == [2]


# --- obstacle boxes against the full walks ----------------------------------

def test_free_matches_point_free_across_point_blocks():
    # 40 concave 20-gons, 800 edges: free classifies the points in
    # blocks of 20, and the last block is a partial one.
    polygons = tuple(
        Polygon(tuple(Point2(cx + (1.2 if k % 2 else 0.6) * math.cos(math.pi * k / 10),
                             cy + (1.2 if k % 2 else 0.6) * math.sin(math.pi * k / 10))
                      for k in range(20)))
        for cx in np.arange(-10.5, 11.0, 3.0) for cy in np.arange(-10.0, 11.0, 5.0))
    env = Environment(WIDE, polygons)
    pts = np.random.default_rng(3).uniform(-12.5, 12.5, size=(1010, 2))
    want = [reference_point_free(p, env) for p in pts.tolist()]
    assert 0 < want.count(False) < len(want)
    assert CollisionField(env).free(pts).tolist() == want


def _thousand_disks(rng):
    disks = tuple(Circle(Point2(*c), r) for c, r in zip(rng.uniform(-38.0, 38.0, (1000, 2)).tolist(),
                                                         rng.uniform(0.3, 1.5, 1000).tolist()))
    return Environment(Bounds(-40.0, 40.0, -40.0, 40.0), disks)


def test_free_runs_the_disk_pass_in_bounded_point_blocks():
    # One (points x disks) array of doubles would take 24 MB here; a
    # 10,000-disk PSO field asked for 24.6 GiB.
    rng = np.random.default_rng(5)
    env = _thousand_disks(rng)
    pts = rng.uniform(-41.0, 41.0, size=(3000, 2))
    field = CollisionField(env)
    tracemalloc.start()
    try:
        got = field.free(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = [point_free(p, env) for p in pts.tolist()]
    assert 0 < want.count(False) < len(want)
    assert got.tolist() == want
    assert peak < 1 << 20


def test_disk_union_runs_in_bounded_pair_blocks():
    # One (disks x rows) array of doubles would take 2.4 MB here, one PSO
    # batch; a 10,000-disk field took 370 MB with such arrays.
    rng = np.random.default_rng(6)
    env = _thousand_disks(rng)
    starts = rng.uniform(-40.0, 40.0, size=(300, 2))
    ends = rng.uniform(-40.0, 40.0, size=(300, 2))
    ends[:150] = np.clip(starts[:150] + rng.uniform(-4.0, 4.0, (150, 2)), -40.0, 40.0)
    field = CollisionField(env)
    tracemalloc.start()
    try:
        got = field.blocked_lengths(starts, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = reference_union_lengths(env, starts, ends)
    assert 0 < np.count_nonzero(want) < len(want)
    assert got.tobytes() == want.tobytes()
    assert peak < 2 << 20


@st.composite
def pso_batches(draw, kind):
    """A field of 12 to 40 disks, polygons too when mixed, and 300 in-bounds rows.

    The shapes the planners' fitness batches have (50 particles, 6
    segments each): half the rows are PSO-length steps, half span the map.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 40))
    obstacles = [Circle(Point2(*c), r) for c, r in zip(rng.uniform(-10.0, 10.0, (n, 2)).tolist(),
                                                       rng.uniform(0.5, 3.0, n).tolist())]
    if kind == "mixed":
        obstacles += draw(st.lists(polygons(), min_size=1, max_size=3))
    starts = rng.uniform(-12.0, 12.0, (300, 2))
    ends = rng.uniform(-12.0, 12.0, (300, 2))
    ends[:150] = np.clip(starts[:150] + rng.uniform(-4.0, 4.0, (150, 2)), -12.0, 12.0)
    return Environment(WIDE, tuple(obstacles)), starts, ends


@pytest.mark.parametrize("kind", ("disks", "mixed"))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pso_sized_batches_match_the_oracle(kind, data):
    env, starts, ends = data.draw(pso_batches(kind))
    want = reference_union_lengths(env, starts, ends)
    assert np.count_nonzero(want)
    assert CollisionField(env).blocked_lengths(starts, ends).tobytes() == want.tobytes()


def _box(obs):
    if isinstance(obs, Circle):
        (cx, cy), r = obs.center, obs.radius
        return cx - r, cx + r, cy - r, cy + r
    xs = [v.x for v in obs.vertices]
    ys = [v.y for v in obs.vertices]
    return min(xs), max(xs), min(ys), max(ys)


BOX_KINDS = ("tangent", "corner", "point", "random")


@st.composite
def box_edge_batches(draw, env):
    """A batch of segments whose boxes sit on an obstacle's box edge.

    Each box edge is moved by up to 1e-13 relative to max(1, |edge|), on
    either side. Tangent rows run along a box edge (for a disk, an
    axis-aligned tangent); corner rows span an outside quarter at a box
    corner, so their box meets the obstacle's only there; point rows are
    zero-length, on a box edge.
    """
    def near(v):
        return v + draw(st.floats(-1e-13, 1e-13)) * max(1.0, abs(v))

    rows = []
    for kind in draw(st.lists(st.sampled_from(BOX_KINDS), min_size=1, max_size=16)):
        x0, x1, y0, y1 = _box(draw(st.sampled_from(env.obstacles)))
        side = draw(st.integers(0, 3))
        if kind == "tangent":
            u, v = draw(coords), draw(coords)
            if side < 2:
                x = near((x0, x1)[side])
                a, b = (x, u), (x, v)
            else:
                y = near((y0, y1)[side - 2])
                a, b = (u, y), (v, y)
        elif kind == "corner":
            sx, sy = (-1.0, -1.0, 1.0, 1.0)[side], (-1.0, 1.0, -1.0, 1.0)[side]
            x, y = near(x0 if sx < 0 else x1), near(y0 if sy < 0 else y1)
            a = (x + sx * draw(st.floats(0.0, 6.0)), y)
            b = (x, y + sy * draw(st.floats(0.0, 6.0)))
        elif kind == "point":
            if side < 2:
                a = (near((x0, x1)[side]), draw(st.floats(y0, y1)))
            else:
                a = (draw(st.floats(x0, x1)), near((y0, y1)[side - 2]))
            b = a
        else:
            a, b = draw(points), draw(points)
        if draw(st.booleans()):
            a, b = b, a
        rows.append((a, b))
    return np.array([a for a, _ in rows]), np.array([b for _, b in rows])


@pytest.mark.parametrize("kind", ("disks", "polygons", "mixed"))
@PROPERTY
@given(data=st.data())
def test_box_skips_match_the_oracles_at_box_edges(kind, data):
    env = data.draw(fields(kind))
    starts, ends = data.draw(box_edge_batches(env))
    want = reference_union_lengths(env, starts, ends)
    assert CollisionField(env).blocked_lengths(starts, ends).tolist() == want.tolist()
    for a, b in zip(starts.tolist(), ends.tolist()):
        assert edge_free(a, b, env) == reference_edge_free(a, b, env)
        assert point_free(a, env) == reference_point_free(a, env)
        assert point_free(b, env) == reference_point_free(b, env)
