"""Geometry primitives: distances, intersection tests, free-space predicates."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from pathbench import geometry
from pathbench.benchmark import FIELD_QUERY, RandomEnvFactory, grid_oracle, run_trials
from pathbench.environment import (Environment, Query, environment_from_dict,
                                   generate_random_env, irregular_preset)
from pathbench.errors import (FormatError, InvalidObstacleError, InvalidPathError,
                              InvalidQueryError)
from pathbench.geometry import (Bounds, Circle, CollisionField, Point2,
                                Polygon, dist, edge_free, path_length,
                                point_free, point_in_polygon,
                                segment_circle_collides,
                                segment_polygon_collides, segments_intersect)
from pathbench.pso import PsoParams, decode, fitness, path_violation, update_inertia
from pathbench.rrtstar import RrtParams
from kernel_corpus import (FIELD_KINDS, L_SHAPE, WIDE, blocked_length, clearance_violations,
                           collides, corpus, exact_disk_blocks, reference_edge_free,
                           reference_union_lengths, scaled, union_measure)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


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


def test_segments_intersect():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))  # shared endpoint
    assert segments_intersect((0, 0), (4, 0), (2, 0), (6, 0))  # collinear overlap
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))  # collinear gap
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))  # parallel
    assert segments_intersect((0, 0), (4, 0), (2, -1), (2, 3))
    # A T-junction at each of the four endpoints in turn.
    assert segments_intersect((1, 0), (1, 1), (0, 0), (2, 0))  # p1 on q
    assert segments_intersect((1, 1), (1, 0), (0, 0), (2, 0))  # p2 on q
    assert segments_intersect((0, 0), (2, 0), (1, 0), (1, 1))  # q1 on p
    assert segments_intersect((0, 0), (2, 0), (1, 1), (1, 0))  # q2 on p
    # Nearly collinear and apart (disjoint x ranges): float orientation
    # signs are rounding noise here and reported a proper crossing.
    for p1, p2, q1, q2 in [
        ((-2.5125887752940983, -3.071417468871665), (0.25160771459281905, -1.0506279119208863),
         (0.2714771832441373, -1.0361021664105203), (0.7293458123641411, -0.7013733772067815)),
        ((-0.9420765866408374, -1.9232810605137138), (1.6775603414417288, -0.008173011343000747),
         (1.6775610964922325, -0.008172459356852624), (2.8379971755849382, 0.8401742912156369)),
        ((-1.2428003681729436, -2.1431277608008155), (1.0520398306961423, -0.4654651468325839),
         (1.0520876098066732, -0.46543021750395097), (1.3486609634005622, -0.24861772316606867)),
    ]:
        assert not segments_intersect(p1, p2, q1, q2)
        assert not segments_intersect(q1, q2, p1, p2)


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


#: What the one number rule refuses wherever a number or an [x, y] pair is
#: taken. A three-coordinate point stands for a whole point or number, each
#: other value for one number or one coordinate of a point.
BAD_VALUES = [True, "1", None, math.nan, math.inf, 10**400, (1.0, 2.0, 3.0)]
BAD_IDS = ["bool", "str", "none", "nan", "inf", "huge-int", "three-coordinates"]


#: What the rule refuses where a container is taken, by kind: no container
#: at all, the wrong number of points, and entries that are not obstacles.
BAD_CONTAINERS = {
    "segment": [(5, "non-iterable"), (((0.0, 0.0),), "one-point"),
                (((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), "three-point")],
    "vertices": [(5, "non-iterable"), (((0.0, 0.0),), "one-point")],
    "obstacles": [(5, "non-iterable"), ([None], "none"), ([{"kind": "circle"}], "document"),
                  (["ab"], "str")],
}


def _fill(kind, value):
    """`value` for a slot of `kind`: "point" puts a number in the x of a point."""
    return (value, 0.5) if kind == "point" and not isinstance(value, tuple) else value


def _bad_values(kind):
    """(bad value, id) pairs for a slot of `kind`."""
    if kind in BAD_CONTAINERS:
        return BAD_CONTAINERS[kind]
    return [(_fill(kind, bad), bad_id) for bad, bad_id in zip(BAD_VALUES, BAD_IDS)]


def _good_value(kind):
    """A value a slot of `kind` takes."""
    return {"integer": 1, "vertices": ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)),
            "obstacles": [Circle((5.0, 5.0), 1.0)]}.get(kind, _fill(kind, 1.0))


def _bad_cases(slots):
    """(call with a bad value, error) per slot and bad value, from (name,
    call, error, kind) slots."""
    return [pytest.param(lambda call=call, value=value: call(value), error,
                         id=f"{name}-{bad_id}")
            for name, call, error, kind in slots for value, bad_id in _bad_values(kind)]


SEGMENT_SLOTS = [
    ("circle-end", lambda v: segment_circle_collides((v, (5.0, 0.0)), (0.0, 0.0), 1.0),
     InvalidPathError, "point"),
    ("circle-centre", lambda v: segment_circle_collides(((0.0, 0.0), (1.0, 0.0)), v, 1.0),
     InvalidObstacleError, "point"),
    ("circle-radius", lambda v: segment_circle_collides(((0.0, 0.0), (1.0, 0.0)), (0.0, 0.0), v),
     InvalidObstacleError, "real"),
    ("polygon-end", lambda v: segment_polygon_collides(((0.5, 0.5), v), UNIT_SQUARE),
     InvalidPathError, "point"),
    ("polygon-vertex", lambda v: segment_polygon_collides(((0.0, 0.0), (1.0, 0.0)),
                                                          [(0.0, 0.0), (2.0, 0.0), v]),
     InvalidObstacleError, "point"),
    ("circle-segment", lambda v: segment_circle_collides(v, (0.0, 0.0), 1.0),
     InvalidPathError, "segment"),
    ("polygon-segment", lambda v: segment_polygon_collides(v, UNIT_SQUARE),
     InvalidPathError, "segment"),
    ("polygon-vertices", lambda v: segment_polygon_collides(((0.0, 0.0), (1.0, 0.0)), v),
     InvalidObstacleError, "vertices"),
]


@pytest.mark.parametrize("check, error", [
    # The infinite rows run through the disk's centre and across the square.
    pytest.param(lambda: segment_circle_collides(((-math.inf, 0.0), (math.inf, 0.0)),
                                                 (0.0, 0.0), 1.0),
                 InvalidPathError, id="circle-infinite-ends"),
    pytest.param(lambda: segment_polygon_collides(((-math.inf, 1.0), (math.inf, 1.0)),
                                                  [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]),
                 InvalidPathError, id="polygon-infinite-ends"),
    pytest.param(lambda: segment_circle_collides(((math.nan, 0.0), (5.0, 0.0)), (0.0, 0.0), 1.0),
                 InvalidPathError, id="circle-nan-end"),
    pytest.param(lambda: segment_polygon_collides(((0.5, 0.5), (0.5, math.nan)), UNIT_SQUARE),
                 InvalidPathError, id="polygon-nan-end"),
    pytest.param(lambda: segment_circle_collides(((0.0, 0.0), (1.0, 0.0)), (math.inf, 0.0), 1.0),
                 InvalidObstacleError, id="circle-infinite-centre"),
    pytest.param(lambda: segment_polygon_collides(((0.0, 0.0), (1.0, 0.0)),
                                                  [(0, 0), (1, 0), (1, math.nan)]),
                 InvalidObstacleError, id="polygon-nan-vertex"),
] + _bad_cases(SEGMENT_SLOTS))
def test_segment_predicates_reject_non_finite_input(check, error):
    with pytest.raises(error):
        check()


def _document(centre=(5.0, 5.0), radius=1.0, vertex=(2.0, 2.0), start=(1.0, 1.0), x_min=0.0):
    return {"bounds": [x_min, 10.0, 0.0, 10.0],
            "obstacles": [{"kind": "circle", "center": list(centre), "radius": radius},
                          {"kind": "polygon", "vertices": [list(vertex), [3.0, 2.0], [3.0, 3.0]]}],
            "query": {"start": list(start), "target": [9.0, 9.0]}}


_BOX = Environment(Bounds(0.0, 10.0, 0.0, 10.0))
_ACROSS = Query((1.0, 1.0), (9.0, 9.0))


def _trials(**kw):
    return run_trials(_BOX, _ACROSS, "rrtstar", RrtParams(iterations_num=5),
                      **{"n_trials": 1, "base_seed": 0, **kw})


#: Every other entry point that takes a number from its caller: (name, call
#: with the value in one slot, the entry point's error, the slot's kind).
ENTRY_SLOTS = [
    ("circle-centre", lambda v: Circle(v, 1.0), InvalidObstacleError, "point"),
    ("circle-radius", lambda v: Circle((0.0, 0.0), v), InvalidObstacleError, "real"),
    ("polygon-vertex", lambda v: Polygon(((0.0, 0.0), (2.0, 0.0), v)), InvalidObstacleError,
     "point"),
    ("polygon-vertices", Polygon, InvalidObstacleError, "vertices"),
    ("query-start", lambda v: Query(v, (2.0, 2.0)), InvalidQueryError, "point"),
    ("query-target", lambda v: Query((2.0, 2.0), v), InvalidQueryError, "point"),
    ("document-centre", lambda v: environment_from_dict(_document(centre=v)), FormatError,
     "point"),
    ("document-radius", lambda v: environment_from_dict(_document(radius=v)), FormatError,
     "real"),
    ("document-vertex", lambda v: environment_from_dict(_document(vertex=v)), FormatError,
     "point"),
    ("document-query", lambda v: environment_from_dict(_document(start=v)), FormatError,
     "point"),
    ("document-bounds", lambda v: environment_from_dict(_document(x_min=v)), FormatError,
     "real"),
    ("environment-bounds", lambda v: Environment((v, 10.0, 0.0, 10.0)), FormatError, "real"),
    ("environment-obstacles", lambda v: Environment(_BOX.bounds, v), InvalidObstacleError,
     "obstacles"),
    ("rrt-step-size", lambda v: RrtParams(step_size=v), ValueError, "real"),
    ("rrt-iterations", lambda v: RrtParams(iterations_num=v), ValueError, "integer"),
    ("pso-c1", lambda v: PsoParams(c1=v), ValueError, "real"),
    ("pso-population", lambda v: PsoParams(population=v), ValueError, "integer"),
    ("pso-decode", lambda v: decode((v, 5.0), _ACROSS), ValueError, "real"),
    ("pso-fitness-waypoint", lambda v: fitness((5.0, v), _ACROSS, _BOX, 1.0), ValueError,
     "real"),
    ("pso-fitness-penalty", lambda v: fitness((5.0, 5.0), _ACROSS, _BOX, v), ValueError, "real"),
    ("pso-inertia-budget", lambda v: update_inertia(0, v, 0.9, 0.4, False, None), ValueError,
     "integer"),
    ("random-seed", lambda v: generate_random_env(v, n_obstacles=1), FormatError, "integer"),
    ("random-count", lambda v: generate_random_env(0, n_obstacles=v), FormatError, "integer"),
    ("random-bounds", lambda v: generate_random_env(0, 1, bounds=(v, 40.0, -40.0, 20.0)),
     FormatError, "real"),
    ("random-radius", lambda v: generate_random_env(0, 1, radius_range=(v, 6.0)), FormatError,
     "real"),
    ("random-clearance", lambda v: generate_random_env(0, 1, clearance=v), FormatError, "real"),
    ("grid-oracle-resolution", lambda v: grid_oracle(_BOX, _ACROSS, v), ValueError, "real"),
    ("run-trials-count", lambda v: _trials(n_trials=v), ValueError, "integer"),
    ("run-trials-seed", lambda v: _trials(base_seed=v), ValueError, "integer"),
    ("run-trials-jobs", lambda v: _trials(jobs=v), ValueError, "integer"),
]


@pytest.mark.parametrize("name, call, error, kind, bad", [
    pytest.param(*slot, value, id=f"{slot[0]}-{bad_id}")
    for slot in ENTRY_SLOTS for value, bad_id in _bad_values(slot[3])])
def test_every_entry_point_keeps_the_one_number_rule(name, call, error, kind, bad):
    # The slot takes a good value, so the bad one is refused by the rule.
    call(_good_value(kind))
    with pytest.raises(error) as refused:
        call(bad)
    assert refused.type is error, f"{name} raised {refused.type.__name__}: {refused.value}"


#: Every real number with a lower bound, kept by `check_real`'s `above` or
#: `at_least`: (name, call with the value in that slot, the entry point's
#: error, whether the bound is inclusive, the message's start).
BOUNDED_SLOTS = [
    ("circle-radius", lambda v: Circle((0.0, 0.0), v), InvalidObstacleError, False,
     "circle radius must be > 0"),
    ("document-radius", lambda v: environment_from_dict(_document(radius=v)), FormatError, False,
     "obstacle 0: circle radius must be > 0"),
    ("grid-oracle-resolution", lambda v: grid_oracle(_BOX, _ACROSS, v), ValueError, False,
     "resolution must be > 0"),
    ("random-clearance", lambda v: generate_random_env(0, 1, clearance=v), FormatError, True,
     "clearance must be >= 0"),
    ("rrt-step-size", lambda v: RrtParams(step_size=v), ValueError, False,
     "step_size must be > 0"),
    ("rrt-min-threshold", lambda v: RrtParams(min_threshold=v), ValueError, False,
     "min_threshold must be > 0"),
    ("pso-v-max", lambda v: PsoParams(v_max=v), ValueError, False, "v_max must be > 0"),
    ("pso-penalty-lambda", lambda v: PsoParams(penalty_lambda=v), ValueError, True,
     "penalty_lambda must be >= 0"),
    ("pso-stop-epsilon", lambda v: PsoParams(stop_epsilon=v), ValueError, True,
     "stop_epsilon must be >= 0"),
]


@pytest.mark.parametrize("name, call, error, inclusive, message", BOUNDED_SLOTS,
                         ids=[slot[0] for slot in BOUNDED_SLOTS])
def test_every_lower_bound_refuses_its_boundary(name, call, error, inclusive, message):
    boundary = -1e-300 if inclusive else 0.0
    with pytest.raises(error) as refused:
        call(boundary)
    assert refused.type is error
    assert str(refused.value) == f"{message}, got {boundary!r}"
    if inclusive:
        call(0.0)
        call(-0.0)
    with pytest.raises(error, match="must be a finite number"):
        call(math.nan)


def test_a_bound_error_comes_before_a_later_fields_type_error():
    with pytest.raises(ValueError, match="^v_max must be > 0, got 0.0$"):
        PsoParams(v_max=0, penalty_lambda="x")


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


@pytest.mark.parametrize("vertices", [
    ((0, 0), (2, 0), (1, 0)),                  # zero area, the second edge runs back
    ((0.1, 0.1), (0.7, 0.7), (0.3, 0.3)),      # the same along a slanted line
    ((0, 0), (4, 0), (4, 2), (4, 1)),          # a spike back down the right edge
])
def test_polygon_rejects_edges_that_fold_back(vertices):
    with pytest.raises(InvalidObstacleError):
        Polygon(vertices)


def test_polygon_accepts_a_vertex_the_outline_runs_straight_through():
    triangle = Polygon(((0, 0), (2, 0), (4, 0), (4, 2)))
    env = Environment(Bounds(-10, 10, -10, 10), (triangle,))
    assert not point_free((3.0, 0.5), env) and point_free((2.0, 0.0), env)
    assert edge_free((0.0, 0.0), (4.0, 0.0), env)


def test_circle_validation():
    with pytest.raises(InvalidObstacleError):
        Circle(Point2(0, 0), 0.0)
    with pytest.raises(InvalidObstacleError):
        Circle(Point2(0, 0), math.inf)
    with pytest.raises(InvalidObstacleError):
        Circle(Point2(math.nan, 0), 1.0)


def test_obstacles_and_queries_store_plain_floats():
    c = Circle(Point2(np.float64(1.0), np.float64(2.0)), np.float64(0.5))
    p = Polygon(tuple((np.float64(x), np.float64(y)) for x, y in UNIT_SQUARE))
    q = Query(np.array([1.0, 2.0]), (np.float64(3.0), 4))
    values = [*c.center, c.radius, *(v for xy in p.vertices for v in xy), *q.start, *q.target]
    assert {type(v) for v in values} == {float}
    assert (c.center, c.radius, q.start, q.target) == ((1.0, 2.0), 0.5, (1.0, 2.0), (3.0, 4.0))
    assert p.vertices == tuple(UNIT_SQUARE)


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
    pts = np.random.default_rng(3).uniform(-12, 12, size=(500, 2)).tolist()
    want = [reference_edge_free(p, p, small_env) for p in pts]
    assert CollisionField(small_env).free(pts).tolist() == want


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

#: A disk and a row tangent to it up to rounding.
TANGENT_DISK = Circle(Point2(0.1418594964030806, 5.405564355911224), 0.7478065283346083)
TANGENT_ROW = ((0.49838956270877044, 7.701438949529752), (-1.5400582402416354, 3.802658692759802))


#: The rows, by map kind, that the dense test drew before the corpus.
DENSE = {"disks": 65, "polygons": 48, "mixed": 94, "empty": 93}


def test_blocked_length_matches_dense_sampling():
    # The first random rows of each map kind, as many as `DENSE` says, each
    # against 20,000 samples of `free`. Each boundary crossing (2 per disk,
    # 1 per polygon edge, 1 per bound line) can shift the sampled sum by at
    # most one sample pitch.
    n = 20_000
    ts = (np.arange(n) + 0.5) / n
    for kind, drawn in DENSE.items():
        for field, row in [(f, r) for f in corpus(kind) for r in f.rows("segment/random")][:drawn]:
            env, a, b = field.env, field.starts[row], field.ends[row]
            crossings = 4 + sum(2 if isinstance(o, Circle) else len(o.vertices)
                                for o in env.obstacles)
            length = float(np.hypot(*(b - a)))
            dense = float((~env.collision_field.free(a + ts[:, None] * (b - a))).mean()) * length
            got = blocked_length(env, a, b)
            assert abs(got - dense) <= crossings * length / n + 1e-9, field.where(row)


def test_overlapping_disks_count_once():
    # The disks overlap on x in (-1, 2); their union covers x in (-2, 3).
    pair = Environment(WIDE, (Circle(Point2(0, 0), 2.0), Circle(Point2(1, 0), 2.0)))
    assert blocked_length(pair, (-5, 0), (5, 0)) == pytest.approx(5.0, abs=1e-12)
    twice = Environment(WIDE, (Circle(Point2(0, 0), 2.0), Circle(Point2(0, 0), 2.0)))
    assert blocked_length(twice, (-5, 0), (5, 0)) == pytest.approx(4.0, abs=1e-12)


def test_blocked_length_counts_out_of_bounds():
    assert blocked_length(Environment(WIDE), (10, 0), (15, 0)) == pytest.approx(3.0)
    # The bounds are inclusive: a row along a bound line is in bounds
    # until it passes the corner.
    assert blocked_length(Environment(WIDE), (12, 0), (12, 5)) == 0.0
    assert blocked_length(Environment(WIDE), (-5, -12), (0, -12)) == 0.0
    assert blocked_length(Environment(WIDE), (12, 0), (12, -20)) == 8.0
    assert blocked_length(Environment(WIDE), (13, 0), (13, 5)) == 5.0


def test_non_finite_rows_raise_no_floating_point_warnings():
    # The last row's ends are finite, its length is not.
    env = Environment(WIDE, (Circle(Point2(0, 0), 1.0),))
    starts = np.array([[-5.0, 0.0], [np.inf, 0.0], [np.nan, 1.0], [-np.inf, np.inf], [np.inf, 0.0],
                       [1e308, 0.0]])
    ends = np.array([[5.0, 0.0], [0.0, 0.0], [0.0, 0.0], [np.inf, -np.inf], [np.inf, 0.0],
                     [-1e308, 0.0]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = reference_union_lengths(env, starts, ends)
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


def test_an_overflowing_orientation_keeps_its_sign():
    # The polygon pass's orientation against this triangle's far vertices
    # overflows to a numpy inf, whose sign `_orient_array` once took by
    # subtracting numpy bools: a TypeError. The part of the row above
    # y = -1, 2/3 of it, is inside.
    far = Polygon((Point2(-1.7e308, -1.0), Point2(1.7e308, -1.0), Point2(0.0, 1.7e308)))
    env = Environment(Bounds(-10, 10, -10, 10), (far,))
    a, b = (-5.0, -3.0), (5.0, 3.0)
    want = 2.0 / 3.0 * math.hypot(10.0, 6.0)
    assert not edge_free(a, b, env)
    blocked = CollisionField(env).blocked_lengths(np.array([a]), np.array([b]))[0]
    assert 0.0 < blocked == pytest.approx(want, rel=1e-12)
    assert fitness((0.0, 0.0), Query(Point2(*a), Point2(*b)), env, 1.0) == pytest.approx(
        math.hypot(10.0, 6.0) + want, rel=1e-12)


# --- the kernel against its oracles -----------------------------------------

@pytest.mark.parametrize("obstacles, a, b, want", [
    # Tangent up to rounding: the discriminant comes out negative, but the
    # row meets the disk, so it keeps the sliver of 2^-53 of its length. A
    # cut pass classified the only piece midpoint, the tangent point, as
    # inside and blocked all 4.3995 units of the row.
    ((TANGENT_DISK,), *TANGENT_ROW, 4.884445966809718e-16),
    # The same row next to a triangle about 1.3 units away, whose box
    # meets the row's box: the cut pass blocked 4.399517807207114 here.
    ((TANGENT_DISK, Polygon(((-1.5, 7.0), (-1.2, 7.0), (-1.2, 7.5)))), *TANGENT_ROW,
     4.884445966809718e-16),
    # Inside a disk and so short that its squared length underflows to
    # zero: the roots see nothing, the exact test blocks the row.
    ((Circle(Point2(0.3, 0.0), 1.0),), (0.0, 0.0), (1e-170, 0.0), 1e-170),
], ids=["tangent-midpoint-rounds-inside", "tangent-next-to-a-polygon-box",
        "underflowing-length"])
def test_tangent_and_underflowing_rows_match_the_oracle(obstacles, a, b, want):
    env = Environment(WIDE, obstacles)
    field = CollisionField(env)
    x_lo, x_hi, y_lo, y_hi = min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])
    assert all(x_lo <= p[1] and x_hi >= p[0] and y_lo <= p[3] and y_hi >= p[2]
               for p in field.polygons)
    assert exact_disk_blocks(a, b, obstacles[0].center, obstacles[0].radius)
    a, b = np.array([a]), np.array([b])
    reference = reference_union_lengths(env, a, b)
    assert reference[0] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert field.blocked_lengths(a, b).tolist() == reference.tolist()


def test_the_oracle_cuts_at_a_vertex_on_the_row_exactly():
    # The row runs through the vertex (1, 0) of a unit hexagon, exactly
    # halfway. The float crossings of the two edges that meet there are
    # t = 0.5 and one ulp above it, and the piece between them, whose
    # midpoint is on the outline, was lost: the blocked length read
    # 0.9999999999999998.
    hexagon = Polygon(tuple((math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                            for k in range(6)))
    env = Environment(WIDE, (hexagon,))
    a, b = np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]])
    assert reference_union_lengths(env, a, b).tolist() == [1.0]
    assert CollisionField(env).blocked_lengths(a, b).tolist() == [1.0]


def test_rows_to_just_past_a_bound_are_blocked():
    # The cut t_out = (12 - a) / d rounds to 1.0 for many such rows, which
    # then read 0.0 although their end is out of bounds.
    rng = np.random.default_rng(1)
    env = Environment(WIDE)
    starts = rng.uniform(-12.0, 12.0, (20_000, 2))
    ends = np.column_stack((np.full(20_000, math.nextafter(12.0, 13.0)),
                            rng.uniform(-12.0, 12.0, 20_000)))
    blocked = CollisionField(env).blocked_lengths(starts, ends)
    assert (blocked > 0.0).all()
    assert not any(edge_free(a, b, env) for a, b in zip(starts.tolist(), ends.tolist()))
    some = slice(0, 200)
    assert blocked[some].tolist() == reference_union_lengths(env, starts[some], ends[some]).tolist()


# --- the kernel against its oracles, on the corpus --------------------------

def _match_the_oracles(field, rows):
    """`blocked_lengths` and `edge_free` on the rows; their ends as lists."""
    env, starts, ends = field.env, field.starts[rows].tolist(), field.ends[rows].tolist()
    got = env.collision_field.blocked_lengths(field.starts[rows], field.ends[rows])
    field.check(rows, got, field.union[rows])
    field.check(rows, [edge_free(a, b, env) for a, b in zip(starts, ends)], field.edge_free[rows])
    return starts, ends


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_blocked_lengths_and_edge_free_match_the_oracles(kind):
    for field in corpus(kind):
        _match_the_oracles(field, field.rows("segment"))


@pytest.mark.parametrize("kind", ("disks", "polygons", "mixed"))
def test_box_skips_match_the_oracles_at_box_edges(kind):
    # Rows within 1e-13 of an obstacle's box edge.
    for field in corpus(kind):
        rows = field.rows("box")
        starts, ends = _match_the_oracles(field, rows)
        field.check(rows, [point_free(a, field.env) for a in starts], field.point_free[rows, 0])
        field.check(rows, [point_free(b, field.env) for b in ends], field.point_free[rows, 1])


def test_collision_field_many_random_envs():
    # `free` at both ends of every row of every field.
    for field in [f for kind in FIELD_KINDS for f in corpus(kind)]:
        free = field.env.collision_field.free(np.vstack((field.starts, field.ends)))
        field.check(np.tile(np.arange(len(field.kinds)), 2), free, field.point_free.T.ravel())


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_edge_free_iff_blocked_length_is_zero(kind):
    # Rows inside the bounds, of positive length: tangent, from the rim,
    # 1e-9 long from the rim, and any. Each is free where no obstacle's own
    # segment test says that it collides.
    for field in corpus(kind):
        env, rows = field.env, field.rows("segment")
        blocked = env.collision_field.blocked_lengths(field.starts[rows], field.ends[rows])
        for row, length in zip(rows.tolist(), blocked.tolist()):
            a, b = field.starts[row].tolist(), field.ends[row].tolist()
            if a != b and env.bounds.contains(a) and env.bounds.contains(b):
                clear = not any(collides(a, b, o) for o in env.obstacles)
                assert edge_free(a, b, env) == clear == (length == 0.0), field.where(row)


def test_blocked_length_is_zero_when_clear_of_a_disk():
    # The random row of each one-disk field.
    for field in corpus("tangent"):
        (row,), (disk,) = field.rows("segment/random"), field.env.obstacles
        a, b = field.starts[row].tolist(), field.ends[row].tolist()
        if not segment_circle_collides((a, b), disk.center, disk.radius):
            assert blocked_length(field.env, a, b) == 0.0, field.where(row)


def test_tangent_rows_block_next_to_nothing():
    # A line within 1e-13 r of the rim meets the disk on a chord of at most
    # 2 r sqrt(2e-13), about 9e-7 r.
    for field in corpus("tangent"):
        rows = field.rows("segment/tangent", "segment/offset")
        blocked = field.env.collision_field.blocked_lengths(field.starts[rows], field.ends[rows])
        field.check(rows, blocked <= 1e-5 * field.env.obstacles[0].radius, True)


@pytest.mark.parametrize("kind", ("disks", "polygons", "mixed"))
def test_a_row_reads_the_same_in_any_sub_batch(kind):
    # PSO sends only some of its rows. A tangent row 1e-16 to 1e-6 of the
    # radius deep sits where the disk pass hands over from the rounded
    # roots to `_meets_disk`, and a rounding band taken over the block
    # would be wider with the corner-to-corner row, or a nan or infinite
    # one, than without it.
    for field in corpus(kind):
        measure, keep = field.env.collision_field.blocked_lengths, field.keep
        whole = measure(field.starts, field.ends)
        field.check(np.flatnonzero(keep), measure(field.starts[keep], field.ends[keep]),
                    whole[keep], same_bytes=True)


@pytest.mark.parametrize("kind", (*FIELD_KINDS, "irregular-a"))
def test_a_bound_row_measures_the_same_alone_as_in_its_batch(kind):
    # A row's measure does not depend on its batch: it gets the same doubles
    # in the batch, with a nan row added to it, and alone, and a row with a
    # nan or infinite coordinate is blocked whole.
    for field in corpus(kind):
        rows = field.rows("bound")
        cols = field.columns(rows)
        measure = field.env.collision_field._blocked_measure
        got = measure(*cols)
        forced = measure(*np.column_stack((cols, np.full(4, math.nan))))
        assert forced[-1] == 1.0, f"{kind} field {field.index}: the nan row"
        field.check(rows, forced[:-1], got, same_bytes=True)
        field.check(rows, [measure(*cols[:, i:i + 1])[0] for i in range(len(rows))], got,
                    same_bytes=True)
        finite = np.isfinite(cols).all(axis=0)
        field.check(rows[~finite], got[~finite], 1.0)
        inside = finite & (np.abs(cols) <= 12.0).all(axis=0)
        field.check(rows[inside], measure(*cols[:, inside]), got[inside], same_bytes=True)


@pytest.mark.parametrize("kind", ("disks", "mixed"))
def test_pso_sized_batches_match_the_oracle(kind):
    # 12 to 40 disks, polygons too when mixed, and the shapes the planners'
    # fitness batches have (50 particles, 6 segments each): half the rows
    # are PSO-length steps, half span the map.
    for field in corpus("pso-" + kind):
        assert np.count_nonzero(field.union), f"pso-{kind} field {field.index}"
        got = field.env.collision_field.blocked_lengths(field.starts, field.ends)
        field.check(np.arange(len(got)), got, field.union, same_bytes=True)


#: The rows the property strategies that this corpus replaced drew, per
#: map kind and row kind, summed over their tests (300 examples each; 100
#: for the bound rows, 80 for the obstacle stage and the column entry, 40
#: for the PSO-sized batches), with the rows of the random tests folded in
#: later: 300 random rows for each clear-of-an-obstacle test, 20,000
#: offset and 300 tangent rows (the disk's random rows too on one-disk
#: fields), and the 3,500 points of the two collision-field tests. Each
#: folded test drew at most 300 fields. The obstacle stage and the column
#: entry drew their "disks" rows on 12-disk fields and their "empty" ones
#: in DEFAULT_BOUNDS.
DRAWN_KINDS = ("fields", *(f"segment/{k}" for k in (
    "outside", "random", "rim", "tangent", "tangent-band", "tiny", "zero")),
    *(f"box/{k}" for k in ("corner", "point", "random", "tangent")),
    *(f"bound/{k}" for k in ("inside", "line", "non-finite", "outside", "zero", "axis")),
    "pso/step", "pso/span", "segment/rim-end", "segment/rim-point", "segment/underflow",
    *(f"graze/{k}" for k in ("vertex", "through-vertex", "along-edge", "outline")), "points",
    "segment/offset")
DRAWN = {
    "disks": (314, 823, 987, 796, 475, 270, 828, 914, 383, 505, 383, 439, 113, 38, 174, 81, 54,
              61, 0, 0, 64, 69, 102),
    "polygons": (329, 491, 1053, 575, 239, 390, 646, 620, 323, 317, 370, 383, 124, 151, 92, 96,
                 *[0] * 7, 58, 96, 67, 79),
    "mixed": (321, 737, 1220, 782, 426, 299, 779, 849, 300, 373, 275, 439, 178, 175, 134, 131,
              *[0] * 11, 3500),
    "empty": (300, 296, 376, 369, 280, 0, 283, 279, 0, 0, 0, 0, 108, 89, 159, 210, 123, 94),
    "tangent": (300, 0, 300, 0, 300, *[0] * 23, 20000),
    "pso-disks": (40, *[0] * 17, 6000, 6000),
    "pso-mixed": (40, *[0] * 17, 6000, 6000),
    "irregular-a": (30, *[0] * 11, 54, 0, 57, 30, 178, 81),
    "inexact": (100, *[0] * 11, 101, 0, 0, 0, 153, 273),
}


@pytest.mark.parametrize("kind", DRAWN)
def test_the_corpus_holds_at_least_the_rows_the_strategies_drew(kind):
    fields = corpus(kind)
    have = Counter(row for field in fields for row in field.kinds)
    have["fields"], have["points"] = len(fields), 2 * sum(len(f.kinds) for f in fields)
    # An underflow row grazes something only next to a rim through the origin.
    have["segment/underflow"] = sum(len(f.rows("segment/underflow")) for f in fields if any(
        isinstance(o, Circle) and math.hypot(*o.center) == o.radius for o in f.env.obstacles))
    # The one-disk tests read every row of the "tangent" fields as in bounds.
    assert kind != "tangent" or all(f.env.bounds.contains(p) for f in fields
                                    for p in np.vstack((f.starts, f.ends)).tolist())
    short = {k: (have[k], n) for k, n in zip(DRAWN_KINDS, DRAWN[kind]) if have[k] < n}
    assert not short, f"{kind}: (rows, drawn) {short}"


@pytest.mark.parametrize("k", (-300, 300, 500))
@pytest.mark.parametrize("kind", ("disks", "mixed"))
def test_blocked_measures_are_equivariant_under_power_of_two_scaling(kind, k):
    # Far from unit scale the disk pass's degree-4 products overflow or
    # turn subnormal unless each row is rescaled; a power of two leaves
    # every root t as it is.
    # A row whose squared length underflows is blocked whole where it meets
    # a disk; scaled up, it is not, so those rows stay out.
    for field in corpus(kind):
        rows = np.flatnonzero([row != "segment/underflow" for row in field.kinds])
        cols = field.columns(rows)
        want = field.env.collision_field._blocked_measure(*cols)
        got = scaled(field.env, k).collision_field._blocked_measure(*np.ldexp(cols, k))
        field.check(rows, got, want, same_bytes=True)


@pytest.mark.parametrize("s", (1e77, 1e100, 4.7e153, 1e-80, 1e-150))
def test_a_chord_keeps_its_length_far_from_unit_scale(s):
    # The row y = s / 10 across the map meets the disk of radius s / 5 at
    # the origin on a chord of 2 sqrt(0.03) s. Its degree-4 products
    # overflow from s = 1e77 and lose bits to subnormals from s = 1e-80.
    env = Environment(Bounds(-s, s, -s, s), (Circle(Point2(0.0, 0.0), s / 5),))
    got = env.collision_field.blocked_lengths([(-s, s / 10)], [(s, s / 10)])
    assert got[0] == pytest.approx(2.0 * math.sqrt(0.03) * s, rel=1e-12, abs=0.0)


def test_a_far_field_keeps_the_chords_of_a_unit_disk_and_a_huge_one():
    # One scale for the whole map would shrink the unit disk's chord of
    # 2 sqrt(0.75), on the row y = 0.5, to a sliver.
    s = 1e100
    env = Environment(Bounds(-s, s, -s, s), (Circle(Point2(0.0, 0.0), 1.0),
                                             Circle(Point2(s / 2, s / 2), s / 10)))
    got = env.collision_field.blocked_lengths([(-2.0, 0.5), (0.3 * s, 0.55 * s)],
                                              [(2.0, 0.5), (0.7 * s, 0.55 * s)])
    assert got[0] == pytest.approx(2.0 * math.sqrt(0.75), rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(2.0 * math.sqrt(0.0075) * s, rel=1e-12, abs=0.0)


def interval_sets(rng, repeats):
    """(n, rows, spans, part ends): 1-16 intervals on n rows, at most one a
    row unless `repeats`, in 1-3 parts. Ends come from a few shared values
    and anywhere in [0, 1], so intervals overlap, touch and nest."""
    n = int(rng.integers(1, 9))
    size = int(rng.integers(1, 17 if repeats else n + 1))
    rows = rng.integers(0, n, size) if repeats else rng.permutation(n)[:size]
    spans = np.zeros((size, 2))
    while (same := spans[:, 0] == spans[:, 1]).any():
        shared = rng.choice((0.0, 0.25, 0.5, 1.0), (size, 2))
        spans[same] = np.where(rng.random((size, 2)) < 0.5, shared, rng.random((size, 2)))[same]
    cuts = sorted({*rng.integers(1, size + 1, rng.integers(3)).tolist(), size})
    return n, rows.tolist(), np.sort(spans).tolist(), cuts


def test_the_one_interval_union_equals_the_sweep():
    # Where no row holds two intervals, each row's measure is its hi - lo.
    # A copy of the first interval leaves every union as it was but makes
    # its row hold two, which takes the sweep. A single row and a single
    # interval; touching intervals in two rows and in one, across parts;
    # nested ones; then 300 drawn sets, half of them with repeated rows.
    rng = np.random.default_rng(43)
    drawn = [interval_sets(rng, repeats) for repeats in (False, True) * 150]
    for n, rows, ends, cuts in [(1, [0], [[0.0, 1.0]], [1]),
                                (2, [1, 0], [[0.0, 0.25], [0.25, 0.5]], [2]),
                                (1, [0, 0], [[0.0, 0.5], [0.5, 1.0]], [1, 2]),
                                (3, [2, 2, 2], [[0.0, 1.0], [0.25, 0.5], [0.5, 1.0]], [3]), *drawn]:
        parts = [(np.array(rows[i:j], dtype=np.intp), *np.array(ends[i:j]).T)
                 for i, j in zip([0, *cuts], cuts)]
        spans = [[] for _ in range(n)]
        for row, lo, hi in parts:
            for r, a, b in zip(row.tolist(), lo.tolist(), hi.tolist()):
                spans[r].append((a, b))
        got = geometry._union_measure(parts, n)
        assert got.tobytes() == np.array([union_measure(s) for s in spans]).tobytes()
        row, lo, hi = parts[0]
        swept = geometry._union_measure(parts + [(row[:1], lo[:1], hi[:1])], n)
        assert swept.tobytes() == got.tobytes()


def test_blocked_lengths_never_calls_free(monkeypatch):
    # Disk rows clear, blocked, or grazing a rim from either side; a row
    # too short for the disk roots; a row that leaves the bounds; rows
    # across a polygon. None of them is classified by `free`.
    env = Environment(WIDE, (Circle(Point2(0, 0), 1.0), Circle(Point2(5, 5), 1.0),
                             Polygon(tuple(Point2(x - 5.0, y - 8.0) for x, y in L_SHAPE))))
    starts = np.array([[-10.0, -10.0], [-10.0, 10.0], [-5.0, 0.0], [-5.0, 4.5],
                       [-5.0, 1.0 + 1e-12], [-5.0, 1.0 - 1e-12], [-5.0, 1.0],
                       [0.0, 0.0], [10.0, 0.0], [-10.0, -7.5], [-4.5, -10.0]])
    ends = np.array([[-10.0, 10.0], [10.0, 10.0], [5.0, 0.0], [10.0, 4.5],
                     [5.0, 1.0 + 1e-12], [5.0, 1.0 - 1e-12], [5.0, 1.0],
                     [1e-170, 0.0], [15.0, 0.0], [10.0, -7.5], [-4.5, 0.0]])
    monkeypatch.setattr(CollisionField, "free", lambda *args: pytest.fail("free was called"))
    got = CollisionField(env).blocked_lengths(starts, ends)
    assert got.tolist() == reference_union_lengths(env, starts, ends).tolist()
    assert [got[i] for i in (0, 1, 4, 6)] == [0.0] * 4
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(2.0 * math.sqrt(0.75))
    assert 0.0 < got[5] < 1e-5
    assert got[7] == 1e-170
    # Out of bounds beyond x = 12.
    assert got[8] == pytest.approx(3.0)
    # The L's foot, 4 units long, and its post and foot, 4 units again.
    assert got[9] == pytest.approx(4.0)
    assert got[10] == pytest.approx(4.0)


# --- the clearance grid ------------------------------------------------------

def _certified(env, points, turns=8):
    """(p, q) per segment the clearance grid certifies: from each point p
    with a finite positive bound c, to a q in the bounds with hypot(q - p) < c,
    as RRT*'s step compares them, about c long and aimed at each obstacle
    (a disk's centre, a polygon's vertices and the nearest point of its box)
    and in `turns` other directions."""
    at = env.collision_field.clearance.at
    found = []
    for px, py in points:
        c = at(px, py)
        if not 0.0 < c < math.inf:
            continue
        aims = [(math.cos(k * math.tau / turns), math.sin(k * math.tau / turns))
                for k in range(turns)]
        for o in env.obstacles:
            if isinstance(o, Circle):
                aims.append((o.center.x - px, o.center.y - py))
            else:
                xs, ys = [v.x for v in o.vertices], [v.y for v in o.vertices]
                aims += [(x - px, y - py) for x, y in zip(xs, ys)]
                aims.append((min(max(px, min(xs)), max(xs)) - px,
                             min(max(py, min(ys)), max(ys)) - py))
        for ux, uy in aims:
            n = math.hypot(ux, uy)
            if not 0.0 < n < math.inf:
                continue
            ux, uy, length, shrink = ux / n, uy / n, c, 2.0 ** -52
            while True:
                q = (px + ux * length, py + uy * length)
                if math.hypot(q[0] - px, q[1] - py) < c:
                    break
                length, shrink = length - c * shrink, shrink * 4.0
            if env.bounds.contains(q):
                found.append(((px, py), q))
    return found


def _corners(env, points):
    """Each point moved onto the nearest corner of a clearance cell, where a
    lookup may round into either cell."""
    grid = env.collision_field.clearance
    b, side = env.bounds, 1.0 / grid.scale
    return [(b.x_min + round((x - b.x_min) * grid.scale) * side,
             b.y_min + round((y - b.y_min) * grid.scale) * side)
            for x, y in points if math.isfinite(x) and math.isfinite(y)]


def _assert_certified_free(env, points):
    """The certified segments from the points and their cells' corners, each
    asserted free."""
    segments = _certified(env, [*points, *_corners(env, points)])
    assert [s for s in segments if not edge_free(*s, env)] == []
    return segments


def _mapped(p, k, dx):
    """p times 2^k, then moved by dx along both axes."""
    return math.ldexp(p[0], k) + dx, math.ldexp(p[1], k) + dx


def _mapped_env(env, k, dx):
    """env with every point `_mapped` and every radius times 2^k."""
    b = env.bounds
    (x_min, y_min), (x_max, y_max) = (_mapped(p, k, dx) for p in ((b.x_min, b.y_min),
                                                                    (b.x_max, b.y_max)))
    return Environment(Bounds(x_min, x_max, y_min, y_max), tuple(
        Circle(_mapped(o.center, k, dx), math.ldexp(o.radius, k)) if isinstance(o, Circle)
        else Polygon(tuple(_mapped(v, k, dx) for v in o.vertices)) for o in env.obstacles))


@pytest.mark.parametrize("kind", [*FIELD_KINDS, "tangent", "irregular-a", "inexact"])
def test_no_segment_shorter_than_its_clearance_is_blocked_on_the_corpus(kind):
    # From both ends of every row of every third field: rows aimed at rims,
    # box edges and bound lines, and their cells' corners. With no obstacle,
    # every point in the bounds is clear without limit.
    certified = 0
    for field in corpus(kind)[::3]:
        points = np.vstack((field.starts, field.ends)).tolist()
        if field.env.obstacles:
            certified += len(_assert_certified_free(field.env, points))
        else:
            inside = [p for p in points if field.env.bounds.contains(p)]
            assert {field.env.collision_field.clearance.at(*p) for p in inside} == {math.inf}
    assert kind == "empty" or certified > 1000


def test_no_segment_shorter_than_its_clearance_is_blocked_at_irregular_seams():
    # Points on and beside x = -40 and x = 40, where walls meet the bounds
    # and their outline is a seam, and segments along those lines.
    env = irregular_preset("irregular-a")[0]
    ys = np.linspace(-40.0, 20.0, 601).tolist()
    points = [(x, y) for x in (-40.0, -39.9, 39.9, 40.0) for y in ys]
    segments = _assert_certified_free(env, points)
    assert sum(a[0] == b[0] in (-40.0, 40.0) for a, b in segments) > 100


def test_no_segment_shorter_than_its_clearance_is_blocked_by_near_tangent_disks():
    # A disk whose rim lies 1e-15 to 1e-6 of a cell's side beyond a cell's
    # edge, and points on that edge and within a few ulps of it, aimed at the
    # disk: each certified segment ends within the margins of the rim.
    rng = np.random.default_rng(11)
    tight = 0
    for _ in range(150):
        x_min, y_min = rng.uniform(-30.0, -10.0, 2).tolist()
        x_max, y_max = rng.uniform(10.0, 30.0, 2).tolist()
        side = max(x_max - x_min, y_max - y_min) / 48
        i, j = rng.integers(2, 20, 2).tolist()
        edge, y = x_min + i * side, y_min + (j + rng.random()) * side
        r = rng.uniform(0.1, 3.0) * side
        disk = Circle((edge + side * 10.0 ** rng.uniform(-15.0, -6.0) + r, y), r)
        env = Environment(Bounds(x_min, x_max, y_min, y_max), (disk,))
        points = [(float(x), y) for x in edge + np.arange(-3, 4) * np.spacing(edge)]
        ends = [q for _, q in _assert_certified_free(env, points)]
        tight += any(dist(q, disk.center) - r < 1e-6 * side for q in ends)
    assert tight > 10


@pytest.mark.parametrize("k, dx", [(0, 1e12), (-200, 0.0), (500, 0.0)],
                         ids=["moved 1e12", "scaled 2^-200", "scaled 2^500"])
def test_no_segment_shorter_than_its_clearance_is_blocked_far_from_unit_scale(k, dx):
    # The first disk and mixed fields, moved far from the origin or scaled.
    certified = 0
    for field in corpus("disks")[:60] + corpus("mixed")[:60]:
        points = [_mapped(p, k, dx) for p in np.vstack((field.starts, field.ends)).tolist()
                  if field.env.bounds.contains(p)]
        certified += len(_assert_certified_free(_mapped_env(field.env, k, dx), points))
    assert certified > 1000


def _one_cell_thin():
    """1e154 by 1e-200, both ways round, with a disk in the middle: the short
    side's cell count rounds to 0 before it is raised to one row (or column)."""
    return [Environment(b, (Circle((b.x_max / 2, b.y_max / 2), 1e152),))
            for b in (Bounds(0.0, 1e154, 0.0, 1e-200), Bounds(0.0, 1e-200, 0.0, 1e154))]


def test_no_segment_shorter_than_its_clearance_is_blocked_on_bounds_one_cell_thin():
    for env in _one_cell_thin():
        b = env.bounds
        assert len(env.collision_field.clearance.cells) == 2 * 49
        u = np.linspace(0.0, 1.0, 97).tolist()
        points = [(b.x_max * s, b.y_max * t) for s in u for t in (0.0, 0.5, 1.0)]
        assert len(_assert_certified_free(env, points)) > 100


def test_clearance_is_zero_off_the_bounds():
    env = irregular_preset("irregular-a")[0]
    at = env.collision_field.clearance.at
    off = [(-40.5, 0.0), (0.0, 20.5), (math.nan, 0.0), (0.0, math.inf)]
    assert [at(*p) for p in off] == [0.0] * 4
    assert at(0.0, 19.0) > 0.0


@pytest.mark.parametrize("kind", [*FIELD_KINDS, "tangent", "pso-disks", "pso-mixed",
                                  "irregular-a", "inexact"])
def test_every_clearance_bound_holds_exactly_on_the_corpus(kind):
    # Every 30th field, and each distinct map of irregular-a and inexact: on
    # each, the positive cells next to a zero one and 20 others, in rationals.
    fields = corpus(kind)[:4] if kind in ("irregular-a", "inexact") else corpus(kind)[::30]
    for field in fields:
        assert clearance_violations(field.env, sample=20, seed=field.index) == [], field.index


def test_every_clearance_bound_holds_exactly_far_from_unit_scale():
    # The maps of the tests above: moved by 1e12, scaled by 2^-200 and by
    # 2^500, and one cell thin.
    maps = [_mapped_env(field.env, k, dx) for k, dx in ((0, 1e12), (-200, 0.0), (500, 0.0))
            for field in corpus("disks")[:60:30] + corpus("mixed")[:60:30]]
    for i, env in enumerate(maps + _one_cell_thin()):
        assert clearance_violations(env, sample=20, seed=i) == [], env.bounds


# --- obstacle boxes against the full walks ----------------------------------

def _forty_stars():
    """40 concave 20-gons, 800 edges."""
    return Environment(WIDE, tuple(
        Polygon(tuple(Point2(cx + (1.2 if k % 2 else 0.6) * math.cos(math.pi * k / 10),
                             cy + (1.2 if k % 2 else 0.6) * math.sin(math.pi * k / 10))
                      for k in range(20)))
        for cx in np.arange(-10.5, 11.0, 3.0) for cy in np.arange(-10.0, 11.0, 5.0)))


def test_free_matches_the_point_oracle_on_forty_concave_polygons():
    # 1,010 points on 40 concave polygons, against the scalar reference.
    env = _forty_stars()
    pts = np.random.default_rng(3).uniform(-12.5, 12.5, size=(1010, 2))
    want = [reference_edge_free(p, p, env) for p in pts.tolist()]
    assert 0 < want.count(False) < len(want)
    assert CollisionField(env).free(pts).tolist() == want


def _thousand_disks(rng):
    disks = tuple(Circle(Point2(*c), r) for c, r in zip(rng.uniform(-38.0, 38.0, (1000, 2)).tolist(),
                                                         rng.uniform(0.3, 1.5, 1000).tolist()))
    return Environment(Bounds(-40.0, 40.0, -40.0, 40.0), disks)


def _traced(call):
    """call()'s result, and the peak of the memory tracemalloc saw it take."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_free_holds_no_array_of_points_by_disks():
    # One (points x disks) array of doubles would take 24 MB here; a
    # 10,000-disk PSO field asked for 24.6 GiB. `free` checks one point at
    # a time, so it holds no such array.
    rng = np.random.default_rng(5)
    env = _thousand_disks(rng)
    pts = rng.uniform(-41.0, 41.0, size=(3000, 2))
    field = CollisionField(env)
    got, peak = _traced(lambda: field.free(pts))
    want = [point_free(p, env) for p in pts.tolist()]
    assert 0 < want.count(False) < len(want)
    assert got.tolist() == want
    assert peak < 1 << 20


def _pso_batch_peak(env, rng, span):
    """The peak memory of one PSO-sized batch on env: 300 rows across the
    map, half of them PSO-length steps, which match the oracle."""
    starts = rng.uniform(-span, span, size=(300, 2))
    ends = rng.uniform(-span, span, size=(300, 2))
    ends[:150] = np.clip(starts[:150] + rng.uniform(-4.0, 4.0, (150, 2)), -span, span)
    field = CollisionField(env)
    got, peak = _traced(lambda: field.blocked_lengths(starts, ends))
    want = reference_union_lengths(env, starts, ends)
    assert 0 < np.count_nonzero(want) < len(want)
    assert got.tobytes() == want.tobytes()
    return peak


def test_disk_union_runs_in_bounded_pair_blocks():
    # One (disks x rows) array of doubles would take 2.4 MB here, one PSO
    # batch; a 10,000-disk field took 370 MB with such arrays.
    rng = np.random.default_rng(6)
    assert _pso_batch_peak(_thousand_disks(rng), rng, 40.0) < 2 << 20


def test_polygon_pass_runs_in_bounded_pair_blocks():
    # Cutting every row at every edge at once took 11.3 MiB here.
    assert _pso_batch_peak(_forty_stars(), np.random.default_rng(7), 12.0) < 2 << 20


@pytest.mark.parametrize("end", (0, 1), ids=("start", "end"))
@pytest.mark.parametrize("wild", (math.nan, math.inf, 1e150))
def test_one_wild_row_leaves_the_other_rows_disk_bands(monkeypatch, wild, end):
    # A rounding band taken over the block made every row's band nan or
    # huge here: 11,988 to 12,000 `_meets_disk` calls, 100 times slower.
    env = RandomEnvFactory(query=FIELD_QUERY)(1000)
    b = env.bounds
    rng = np.random.default_rng(8)
    starts = rng.uniform((b.x_min, b.y_min), (b.x_max, b.y_max), (1000, 2))
    ends = np.clip(starts + rng.uniform(-4.0, 4.0, (1000, 2)),
                   (b.x_min, b.y_min), (b.x_max, b.y_max))
    calls = []
    meets_disk = geometry._meets_disk

    def counting(a, b, c, r):
        calls.append((tuple(map(float, a)), tuple(map(float, b))))
        return meets_disk(a, b, c, r)

    monkeypatch.setattr(geometry, "_meets_disk", counting)
    field = CollisionField(env)
    clean = field.blocked_lengths(starts, ends)
    assert calls == []
    (starts, ends)[end][500] = (wild, 0.0)
    got = field.blocked_lengths(starts, ends)
    assert len(calls) <= len(env.obstacles)
    assert set(calls) <= {(tuple(starts[500].tolist()), tuple(ends[500].tolist()))}
    others = np.arange(1000) != 500
    assert got[others].tobytes() == clean[others].tobytes()


def test_blocked_lengths_needs_one_end_per_start():
    field = CollisionField(Environment(WIDE))
    for starts, ends in (([(0.0, 0.0), (1.0, 1.0)], [(2.0, 2.0)]),
                         ([(0.0, 0.0)], [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])):
        with pytest.raises(ValueError, match="as many points"):
            field.blocked_lengths(starts, ends)


def test_both_kernels_read_only_n_by_2_points():
    # Both read their input through reshape(-1, 2), so a (2, 3) array
    # was taken for three points.
    field = CollisionField(Environment(WIDE))
    bad = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        field.blocked_lengths(bad, bad)
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        field.free(bad)
    assert field.free([]).shape == field.blocked_lengths([], np.empty((0, 2))).shape == (0,)
