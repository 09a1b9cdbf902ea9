"""Geometry primitives: distances, intersection tests, free-space predicates."""

import math

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


def test_collision_field_matches_scalar(small_env):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-12, 12, size=(500, 2))
    want = np.array([point_free(p, small_env) for p in pts])
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
        want = np.array([point_free(p, env) for p in pts])
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


def test_path_violation_sees_a_shallow_chord():
    # A sampled penalty stepped over this 0.0894-long chord of the unit
    # disk and reported the path clean.
    env = Environment(WIDE, (Circle(Point2(0, 0), 1.0),))
    chord = 2.0 * math.sqrt(1.0 - 0.999 ** 2)
    assert path_violation([(-5, 0.999), (5, 0.999)], env) == pytest.approx(chord)
    assert chord == pytest.approx(0.0894, abs=1e-4)
