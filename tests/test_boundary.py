"""One boundary rule: open interiors, free outlines and rims, blocked seams.

Every collision kernel is checked against the Fraction oracle of
`kernel_corpus`, which shares no code with the package. For a polygon: a
point's side by an exact crossing count, a segment's inside pieces by
cutting it at every exact edge crossing and vertex on it and testing each
piece's exact midpoint. For a disk: the exact squared distance from the
center to the segment's nearest point.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from pathbench.benchmark import TABLE1_CASES, audit_path
from pathbench.environment import Environment, irregular_preset
from pathbench.errors import InvalidObstacleError
from pathbench.geometry import (Bounds, Circle, Polygon, edge_free, point_free, point_in_polygon,
                                segment_polygon_collides)
from pathbench.pso import PsoParams, plan_pso
from kernel_corpus import (DISK_GRAZES, L_SHAPE, WIDE, blocked_length, collides, corpus,
                           exact_blocks, exact_hits, exact_measure, exact_seams, exact_side)

# --- the boundary table -------------------------------------------------------

SQUARE = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
# Its left edge is slanted, between vertices no float line passes through exactly.
PENTAGON = ((-1.3, 0.2), (1.5, -0.4), (2.1, 2.0), (0.6, 3.9), (-0.7, 3.3))
# Its edge from (-0.6, -1.1) to (1.4, -1.3) has a midpoint no float holds.
TRIANGLE = ((1.4, -1.3), (-1.8, -1.4), (-0.6, -1.1))
# Walls that meet the bounds: seams along y = 12 and y = -12 over x in (-2, 2).
TOP_WALL = ((-2.0, 10.0), (2.0, 10.0), (2.0, 12.0), (-2.0, 12.0))
BOTTOM_WALL = ((-2.0, -12.0), (2.0, -12.0), (2.0, -10.0), (-2.0, -10.0))

BOUNDARY_ROWS = [
    # (polygon, a, b, blocked length)
    (SQUARE, (-1.0, 1.0), (1.0, -1.0), 0.0),     # touches the corner (0, 0) from outside
    (SQUARE, (0.0, 0.0), (2.0, 0.0), 0.0),       # along the bottom edge
    (SQUARE, (2.0, 0.0), (2.0, 2.0), 0.0),       # along the right edge
    (SQUARE, (2.0, 2.0), (0.0, 2.0), 0.0),       # along the top edge
    (SQUARE, (0.0, 2.0), (0.0, 0.0), 0.0),       # along the left edge
    (SQUARE, (-1.0, 0.0), (3.0, 0.0), 0.0),      # along the bottom edge and past it
    (SQUARE, (1.0, -1.0), (1.0, 0.0), 0.0),      # ends on the bottom edge
    (SQUARE, (1.0, 3.0), (1.0, 2.0), 0.0),       # ends on the top edge
    (SQUARE, (0.0, 0.0), (2.0, 2.0), 2.0 * math.sqrt(2.0)),  # the diagonal, corner to corner
    (SQUARE, (-1.0, -1.0), (1.0, 1.0), math.sqrt(2.0)),      # through a corner, into the square
    (SQUARE, (1.0, 1.0), (1.0, 1.0), 0.0),       # a point inside: blocked, of length 0
    (L_SHAPE, (2.0, 2.0), (1.0, 1.0), 0.0),      # touches the reflex vertex from the notch
    (L_SHAPE, (2.0, 2.0), (0.5, 0.5), math.sqrt(0.5)),       # passes through it
    (L_SHAPE, (4.0, 1.0), (1.0, 4.0), 0.0),      # across the notch, vertex to vertex
    (L_SHAPE, (1.0, 1.0), (0.0, 0.0), math.sqrt(2.0)),       # reflex vertex to corner, inside
    (PENTAGON, (-1.3, 0.2), (-0.7, 3.3), 0.0),   # along the slanted edge
    (PENTAGON, (-0.7, 3.3), (-1.3, 0.2), 0.0),
    (PENTAGON, (-1.3, 0.2), (0.6, 3.9), 4.159326868617084),  # vertex to vertex, inside
    (TRIANGLE, (-0.6, -1.1), (1.4, -1.3), 0.0),  # along that edge
    (TOP_WALL, (-3.0, 12.0), (3.0, 12.0), 4.0),  # along the bound line, over the whole seam
    (TOP_WALL, (0.0, 12.0), (3.0, 12.0), 2.0),   # over part of it
    (TOP_WALL, (2.0, 12.0), (5.0, 12.0), 0.0),   # beside it, from its end
    (TOP_WALL, (3.0, 12.0), (-3.0, 12.0), 4.0),  # over it, reversed
    (TOP_WALL, (-2.0, 12.0), (2.0, 12.0), 4.0),  # exactly on it
    (BOTTOM_WALL, (-3.0, -12.0), (3.0, -12.0), 4.0),
    (BOTTOM_WALL, (-3.0, -12.0), (1.0, -12.0), 3.0),
    (BOTTOM_WALL, (-5.0, -12.0), (-2.0, -12.0), 0.0),
    (BOTTOM_WALL, (3.0, -12.0), (-3.0, -12.0), 4.0),
    (BOTTOM_WALL, (2.0, -12.0), (-2.0, -12.0), 4.0),
]


@pytest.mark.parametrize("vertices, a, b, length", BOUNDARY_ROWS)
def test_every_kernel_keeps_one_boundary_rule(vertices, a, b, length):
    env = Environment(WIDE, (Polygon(vertices),))
    blocked = blocked_length(env, a, b)
    hits = exact_blocks(a, b, vertices)
    assert segment_polygon_collides((a, b), vertices) == hits
    # The outline is free, except where it lies on a bound line.
    hits = hits or _on_a_seam(a, b, exact_seams(vertices, WIDE))
    assert edge_free(a, b, env) == (not hits)
    assert blocked == pytest.approx(length, rel=1e-12, abs=0.0)
    if a != b:
        assert (blocked > 0.0) == hits


@pytest.mark.parametrize("vertices", [SQUARE, L_SHAPE, PENTAGON])
def test_outline_points_are_free(vertices):
    # Rows from each vertex to the midpoint of its edge, against the oracle.
    env, vs = Environment(WIDE, (Polygon(vertices),)), np.array(vertices)
    check_rows(env, vs, (vs + np.roll(vs, -1, axis=0)) / 2.0, str)
    assert env.collision_field.free(vs).all()


# --- seams --------------------------------------------------------------------

@pytest.fixture(scope="module")
def maze():
    return irregular_preset("irregular-a")[0]


def test_the_maze_has_four_seams(maze):
    seams = [(0, -40.0, -22.0, -19.0), (0, -40.0, -5.0, -2.0),
             (0, 40.0, -22.0, -19.0), (0, 40.0, -5.0, -2.0)]
    assert sorted(maze.collision_field.seams) == seams
    # The same walls listed clockwise.
    clockwise = Environment(maze.bounds, tuple(Polygon(o.vertices[::-1]) for o in maze.obstacles))
    assert sorted(clockwise.collision_field.seams) == seams


@pytest.mark.parametrize("x", [-40.0, 40.0])
@pytest.mark.parametrize("y_lo, y_hi", [(-22.0, -19.0), (-5.0, -2.0)])
def test_a_wall_that_meets_the_bounds_leaves_no_gap(maze, x, y_lo, y_hi):
    # Along the bound line, across the seam where the wall meets it.
    a, b = (x, y_lo - 3.0), (x, y_hi + 3.0)
    assert not edge_free(a, b, maze)
    assert blocked_length(maze, a, b) == 3.0
    # Up to the wall's corner, and along the open stretch beyond it.
    assert edge_free(a, (x, y_lo), maze)
    assert blocked_length(maze, a, (x, y_lo)) == 0.0
    assert edge_free((x, y_hi), b, maze)
    assert blocked_length(maze, (x, y_hi), b) == 0.0
    # Inside the seam the points are blocked; its ends, the corners, are free.
    assert not point_free((x, (y_lo + y_hi) / 2.0), maze)
    assert point_free((x, y_lo), maze) and point_free((x, y_hi), maze)
    assert maze.collision_field.free([(x, y_lo), (x, y_lo + 1.0), (x, y_hi)]).tolist() == [
        True, False, True]
    # A segment that ends inside the seam, from in bounds, enters the wall.
    inward = math.copysign(1.0, -x)
    end = (x, y_lo + 1.0)
    assert not edge_free((x + inward, y_lo + 1.0), end, maze)
    assert blocked_length(maze, (x + inward, y_lo + 1.0), end) == 1.0


def test_a_polygon_outside_the_bounds_makes_no_seam():
    # The square lies outside the bounds and touches x = 40 with its left
    # edge: the environment keeps it (the closed touch test), but its
    # interior is on the outer side, so the bound line stays open.
    square = Polygon(((40.0, -10.0), (50.0, -10.0), (50.0, -5.0), (40.0, -5.0)))
    env = Environment(Bounds(-40.0, 40.0, -40.0, 20.0), (square,))
    assert env.obstacles == (square,)
    assert env.collision_field.seams == ()
    assert edge_free((40.0, -12.0), (40.0, -3.0), env)
    assert blocked_length(env, (40.0, -12.0), (40.0, -3.0)) == 0.0
    assert point_free((40.0, -7.0), env)


def _on_a_seam(a, b, seams):
    return any(a[axis] == value == b[axis]
               and min(a[1 - axis], b[1 - axis]) < hi and max(a[1 - axis], b[1 - axis]) > lo
               for axis, value, lo, hi in seams)


def test_pso_no_longer_slips_through_a_seam(maze):
    # Open outlines without seams let this run through the wall where it
    # meets x = 40; under the half-open ray cast it ended infeasible.
    result = plan_pso(maze, TABLE1_CASES[0], PsoParams(rng_seed=4))
    assert result.feasible and audit_path(result.path, maze)
    assert result.length == pytest.approx(53.93868463202851, rel=1e-12)
    seams = maze.collision_field.seams
    assert not any(_on_a_seam(a, b, seams) for a, b in zip(result.path, result.path[1:]))


def _maze_rows(maze, rng):
    """(starts, ends) of 3,200 rows, 800 of each kind, that reach every
    branch of the batch polygon walk; only some rows through a vertex
    leave the maze's bounds."""
    vertices = np.array([v for o in maze.obstacles for v in o.vertices])
    edges = np.array([(u, w) for o in maze.obstacles
                      for u, w in zip(o.vertices, o.vertices[1:] + o.vertices[:1])])
    lo, hi = np.array([-40, -40]), np.array([41, 21])  # the bounds, as lattice ranges

    def lattice(n):
        return rng.integers(lo, hi, size=(n, 2))

    def anywhere(n):
        return np.where(rng.random((n, 1)) < 0.5, lattice(n), rng.uniform(lo, hi - 1, size=(n, 2)))

    rows = []
    # Integer ends: through a vertex by a small lattice step (so a or b may
    # lie on it), along a vertex's row or column (so along edges), or anywhere.
    v, d = vertices[rng.integers(len(vertices), size=300)], rng.integers(-3, 4, size=(300, 2))
    rows.append((v + rng.integers(-6, 1, size=(300, 1)) * d,
                 v + rng.integers(0, 7, size=(300, 1)) * d))
    v, axis = vertices[rng.integers(len(vertices), size=300)], rng.integers(2, size=300)
    n = np.arange(300)
    a, b = v.copy(), v.copy()
    a[n, 1 - axis], b[n, 1 - axis] = lattice(300)[n, 1 - axis], lattice(300)[n, 1 - axis]
    rows += [(a, b), (lattice(200), lattice(200))]
    # Along x = -40 or 40, through the four seams.
    x = rng.choice([-40.0, 40.0], size=(800, 1))
    y = np.where(rng.random((800, 2)) < 0.5, rng.integers(-26, 4, size=(800, 2)),
                 rng.uniform(-26.0, 3.0, size=(800, 2)))
    rows.append((np.hstack((x, y[:, :1])), np.hstack((x, y[:, 1:]))))
    # From a vertex, or from a point along an edge (often a quarter point).
    e = edges[rng.integers(len(edges), size=400)]
    s = np.where(rng.random((400, 1)) < 0.5, rng.integers(0, 5, size=(400, 1)) / 4.0,
                 rng.random((400, 1)))
    starts = np.vstack((vertices[rng.integers(len(vertices), size=400)],
                        e[:, 0] + s * (e[:, 1] - e[:, 0])))
    rows += [(starts, anywhere(800)), (rng.uniform(lo, hi - 1, size=(800, 2)),
                                       rng.uniform(lo, hi - 1, size=(800, 2)))]
    return (np.vstack([a for a, _ in rows]).astype(np.float64),
            np.vstack([b for _, b in rows]).astype(np.float64))


# The batch polygon pass on the maze, pinned bit for bit: a sha256 of the
# blocked lengths of `_maze_rows` at seed 35.
MAZE_ROWS_SHA256 = "f5a7124a65dc5d680fef882aa860dbbb07907ceacef93a446c92dfe89cb00910"


def test_the_maze_polygon_pass_is_pinned(maze):
    starts, ends = _maze_rows(maze, np.random.default_rng(35))
    blocked = maze.collision_field.blocked_lengths(starts, ends)
    assert hashlib.sha256(blocked.tobytes()).hexdigest() == MAZE_ROWS_SHA256


# --- grazes against the oracle ------------------------------------------------

def check_rows(env, starts, ends, where):
    """Every kernel against the Fraction oracle on each row, obstacle by
    obstacle, naming a failing row i by where(i). A row's measure is within
    1e-9 of the exact one if it meets no disk."""
    blocked = env.collision_field.blocked_lengths(starts, ends).tolist()
    free = env.collision_field.free(np.hstack((starts, ends)).reshape(-1, 2)).reshape(-1, 2)
    for i, (length, ends_free) in enumerate(zip(blocked, free.tolist())):
        a, b = tuple(starts[i].tolist()), tuple(ends[i].tolist())
        hits = exact_hits(a, b, env.obstacles)
        assert [collides(a, b, o) for o in env.obstacles] == hits, where(i)
        inside = env.bounds.contains(a) and env.bounds.contains(b)
        assert edge_free(a, b, env) == (inside and not any(hits)), where(i)
        sides = [env.bounds.contains(p) and not any(exact_hits(p, p, env.obstacles))
                 for p in (a, b)]
        assert [point_free(a, env), point_free(b, env)] == ends_free == sides, where(i)
        met = [o for o, hit in zip(env.obstacles, hits) if hit]
        if a == b or not inside:
            continue
        assert (length > 0.0) == bool(met), where(i)
        if not any(isinstance(o, Circle) for o in met):
            want = exact_measure(a, b, [o.vertices for o in met])
            assert abs(length - want) <= 1e-9 * max(1.0, math.dist(a, b)), where(i)


def test_grazes_match_the_fraction_oracle():
    # The graze rows of the polygon and mixed fields.
    for field in corpus("polygons") + corpus("mixed"):
        rows = field.rows("graze")
        check_rows(field.env, field.starts[rows], field.ends[rows], lambda i: field.where(rows[i]))


def test_disk_grazes_match_the_fraction_oracle():
    # The segment rows that graze a rim, on the disk and mixed fields.
    for field in corpus("disks") + corpus("mixed"):
        rows = field.rows(*DISK_GRAZES)
        check_rows(field.env, field.starts[rows], field.ends[rows], lambda i: field.where(rows[i]))


def test_twenty_thousand_tangent_rows_match_the_oracle():
    # 68 rows tangent to the disk up to 1e-13 of its radius on each of 300
    # one-disk fields, 67 of them at one of `TANGENT_OFFSETS`: 20,400 rows.
    for field in corpus("tangent"):
        rows = field.rows("segment/tangent", "segment/offset")
        check_rows(field.env, field.starts[rows], field.ends[rows], lambda i: field.where(rows[i]))


# --- a lattice sweep against the oracle ---------------------------------------

def _lattice_polygon(rng, size):
    """A random simple polygon on the size x size lattice, as lattice points:
    distinct points in angular order about their mean, until `Polygon`
    accepts them (vertices inside an edge included)."""
    while True:
        ks = list({(rng.randint(0, size), rng.randint(0, size)) for _ in range(rng.randint(3, 8))})
        cx, cy = sum(k[0] for k in ks) / len(ks), sum(k[1] for k in ks) / len(ks)
        ks.sort(key=lambda k: math.atan2(k[1] - cy, k[0] - cx))
        try:
            Polygon(ks)
            return ks
        except InvalidObstacleError:
            pass


def test_three_thousand_lattice_segments_match_the_oracle():
    # 150 random lattice polygons, each scaled and moved off the origin, and
    # 20 segments each whose ends lie on a vertex, on a lattice point along
    # an edge, or on a lattice or random point around the polygon; one in
    # ten has length 0.
    rng, size = random.Random(5), 6
    for _ in range(150):
        ks = _lattice_polygon(rng, size)
        ox, oy = rng.choice((12.9, 1e6, -1e6)), rng.choice((12.9, 1e6, -1e6))
        scale = rng.choice((1.0, 0.25, 0.1))

        def point(k):
            return (ox + scale * k[0], oy + scale * k[1])

        vertices = tuple(map(point, ks))
        along = [(u[0] + j * (v[0] - u[0]) // g, u[1] + j * (v[1] - u[1]) // g)
                 for u, v in zip(ks, ks[1:] + ks[:1])
                 for g in [math.gcd(v[0] - u[0], v[1] - u[1])] for j in range(g)]

        def end():
            kind = rng.randrange(4)
            if kind == 0:
                return point(rng.choice(ks))
            if kind == 1:
                return point(rng.choice(along))
            if kind == 2:
                return point((rng.randint(-1, size + 1), rng.randint(-1, size + 1)))
            return point((rng.uniform(-1.0, size + 1.0), rng.uniform(-1.0, size + 1.0)))

        rows = [(a, a if rng.random() < 0.1 else end()) for a in (end() for _ in range(20))]
        lo, hi = point((-2, -2)), point((size + 2, size + 2))
        env = Environment(Bounds(lo[0], hi[0], lo[1], hi[1]), (Polygon(vertices),))
        check_rows(env, np.array([a for a, _ in rows]), np.array([b for _, b in rows]),
                   lambda i: f"{vertices}: {rows[i]}")
        assert all(point_in_polygon(a, vertices) == (exact_side(a, vertices) > 0) for a, _ in rows)
