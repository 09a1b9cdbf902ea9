"""One boundary rule: open interiors, free outlines and rims, blocked seams.

Every collision kernel is checked against a Fraction oracle that shares no
code with the package. For a polygon: a point's side by an exact crossing
count, a segment's inside pieces by cutting it at every exact edge
crossing and vertex on it and testing each piece's exact midpoint. For a
disk: the exact squared distance from the center to the segment's
nearest point.
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathbench.benchmark import TABLE1_CASES, audit_path
from pathbench.environment import Environment, irregular_preset
from pathbench.errors import InvalidObstacleError
from pathbench.geometry import (Bounds, Circle, Polygon, edge_free, point_free, point_in_polygon,
                                segment_circle_collides, segment_polygon_collides)
from pathbench.pso import PsoParams, plan_pso

# --- the oracle ---------------------------------------------------------------


def _cross(ux, uy, vx, vy):
    return ux * vy - uy * vx


def exact_side(p, vertices):
    """1 strictly inside, 0 on the outline, -1 outside, on Fractions."""
    px, py = Fraction(p[0]), Fraction(p[1])
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]
    edges = list(zip(vs, vs[1:] + vs[:1]))
    for (x0, y0), (x1, y1) in edges:
        if (_cross(x1 - x0, y1 - y0, px - x0, py - y0) == 0
                and min(x0, x1) <= px <= max(x0, x1) and min(y0, y1) <= py <= max(y0, y1)):
            return 0
    inside = False
    for (x0, y0), (x1, y1) in edges:
        if (y0 > py) != (y1 > py) and px < x0 + (py - y0) * (x1 - x0) / (y1 - y0):
            inside = not inside
    return 1 if inside else -1


def exact_inside_pieces(a, b, vertices):
    """[(t0, t1)]: the Fraction pieces of a + t(b - a), t in [0, 1], strictly inside."""
    ax, ay, bx, by = map(Fraction, (a[0], a[1], b[0], b[1]))
    dx, dy = bx - ax, by - ay
    if dx == 0 and dy == 0:
        return []
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]
    cuts = {Fraction(0), Fraction(1)}
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        ux, uy = x1 - x0, y1 - y0
        den = _cross(dx, dy, ux, uy)
        if den != 0:
            t = _cross(x0 - ax, y0 - ay, ux, uy) / den
            s = _cross(x0 - ax, y0 - ay, dx, dy) / den
            if 0 <= s <= 1 and 0 < t < 1:
                cuts.add(t)
        if _cross(dx, dy, x0 - ax, y0 - ay) == 0:
            t = ((x0 - ax) * dx + (y0 - ay) * dy) / (dx * dx + dy * dy)
            if 0 < t < 1:
                cuts.add(t)
    cuts = sorted(cuts)
    return [(t0, t1) for t0, t1 in zip(cuts, cuts[1:])
            if exact_side((ax + (t0 + t1) / 2 * dx, ay + (t0 + t1) / 2 * dy), vertices) > 0]


def exact_blocks(a, b, vertices):
    """True iff some point of the closed segment lies strictly inside."""
    if a[0] == b[0] and a[1] == b[1]:
        return exact_side(a, vertices) > 0
    return bool(exact_inside_pieces(a, b, vertices))


def exact_measure(a, b, outlines):
    """The measure of the union of the inside pieces over the polygons, times
    the segment's `math.hypot` length."""
    pieces = sorted(p for vs in outlines for p in exact_inside_pieces(a, b, vs))
    total, end = Fraction(0), Fraction(0)
    for t0, t1 in pieces:
        t0 = max(t0, end)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return float(total) * math.hypot(b[0] - a[0], b[1] - a[1])


def exact_disk_blocks(a, b, center, radius):
    """True iff some point of the closed segment lies strictly inside the
    disk: the nearest point's squared distance to the center, on Fractions."""
    ax, ay, bx, by, cx, cy = map(Fraction, (a[0], a[1], b[0], b[1], center[0], center[1]))
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    t = 0 if length2 == 0 else min(max(((cx - ax) * dx + (cy - ay) * dy) / length2, 0), 1)
    px, py = ax + t * dx - cx, ay + t * dy - cy
    return px * px + py * py < Fraction(radius) ** 2


def exact_seams(vertices, bounds):
    """(axis, value, lo, hi) per edge on a bound line, for a polygon inside the bounds."""
    edges = zip(vertices, vertices[1:] + vertices[:1])
    return [(axis, v[axis], min(v[1 - axis], w[1 - axis]), max(v[1 - axis], w[1 - axis]))
            for v, w in edges
            for axis, lines in ((0, (bounds.x_min, bounds.x_max)), (1, (bounds.y_min, bounds.y_max)))
            if v[axis] == w[axis] in lines]


def _blocked(env, a, b):
    return float(env.collision_field.blocked_lengths(np.array([a]), np.array([b]))[0])


# --- the boundary table -------------------------------------------------------

WIDE = Bounds(-10.0, 10.0, -10.0, 10.0)
SQUARE = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
# Concave L: a 4x4 square with the top-right 3x3 corner cut away; (1, 1) is reflex.
L_SHAPE = ((0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0))
# Its left edge is slanted, between vertices no float line passes through exactly.
PENTAGON = ((-1.3, 0.2), (1.5, -0.4), (2.1, 2.0), (0.6, 3.9), (-0.7, 3.3))
# Its edge from (-0.6, -1.1) to (1.4, -1.3) has a midpoint no float holds.
TRIANGLE = ((1.4, -1.3), (-1.8, -1.4), (-0.6, -1.1))
# Walls that meet the bounds: seams along y = 10 and y = -10 over x in (-2, 2).
TOP_WALL = ((-2.0, 8.0), (2.0, 8.0), (2.0, 10.0), (-2.0, 10.0))
BOTTOM_WALL = ((-2.0, -10.0), (2.0, -10.0), (2.0, -8.0), (-2.0, -8.0))

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
    (TOP_WALL, (-3.0, 10.0), (3.0, 10.0), 4.0),  # along the bound line, over the whole seam
    (TOP_WALL, (0.0, 10.0), (3.0, 10.0), 2.0),   # over part of it
    (TOP_WALL, (2.0, 10.0), (5.0, 10.0), 0.0),   # beside it, from its end
    (TOP_WALL, (3.0, 10.0), (-3.0, 10.0), 4.0),  # over it, reversed
    (TOP_WALL, (-2.0, 10.0), (2.0, 10.0), 4.0),  # exactly on it
    (BOTTOM_WALL, (-3.0, -10.0), (3.0, -10.0), 4.0),
    (BOTTOM_WALL, (-3.0, -10.0), (1.0, -10.0), 3.0),
    (BOTTOM_WALL, (-5.0, -10.0), (-2.0, -10.0), 0.0),
    (BOTTOM_WALL, (3.0, -10.0), (-3.0, -10.0), 4.0),
    (BOTTOM_WALL, (2.0, -10.0), (-2.0, -10.0), 4.0),
]


@pytest.mark.parametrize("vertices, a, b, length", BOUNDARY_ROWS)
def test_every_kernel_keeps_one_boundary_rule(vertices, a, b, length):
    env = Environment(WIDE, (Polygon(vertices),))
    blocked = _blocked(env, a, b)
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
    env = Environment(WIDE, (Polygon(vertices),))
    vs = np.array(vertices)
    points = np.concatenate([vs, (vs + np.roll(vs, -1, axis=0)) / 2.0])
    for p in points.tolist():
        if exact_side(p, vertices) == 0:
            assert point_free(p, env)
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
    assert _blocked(maze, a, b) == 3.0
    # Up to the wall's corner, and along the open stretch beyond it.
    assert edge_free(a, (x, y_lo), maze)
    assert _blocked(maze, a, (x, y_lo)) == 0.0
    assert edge_free((x, y_hi), b, maze)
    assert _blocked(maze, (x, y_hi), b) == 0.0
    # Inside the seam the points are blocked; its ends, the corners, are free.
    assert not point_free((x, (y_lo + y_hi) / 2.0), maze)
    assert point_free((x, y_lo), maze) and point_free((x, y_hi), maze)
    assert maze.collision_field.free([(x, y_lo), (x, y_lo + 1.0), (x, y_hi)]).tolist() == [
        True, False, True]
    # A segment that ends inside the seam, from in bounds, enters the wall.
    inward = math.copysign(1.0, -x)
    end = (x, y_lo + 1.0)
    assert not edge_free((x + inward, y_lo + 1.0), end, maze)
    assert _blocked(maze, (x + inward, y_lo + 1.0), end) == 1.0


def test_a_polygon_outside_the_bounds_makes_no_seam():
    # The square lies outside the bounds and touches x = 40 with its left
    # edge: the environment keeps it (the closed touch test), but its
    # interior is on the outer side, so the bound line stays open.
    square = Polygon(((40.0, -10.0), (50.0, -10.0), (50.0, -5.0), (40.0, -5.0)))
    env = Environment(Bounds(-40.0, 40.0, -40.0, 20.0), (square,))
    assert env.obstacles == (square,)
    assert env.collision_field.seams == ()
    assert edge_free((40.0, -12.0), (40.0, -3.0), env)
    assert _blocked(env, (40.0, -12.0), (40.0, -3.0)) == 0.0
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

def _star():
    """A concave 10-gon: slanted edges, five reflex vertices."""
    turns = [0.1 + math.pi * k / 5 for k in range(10)]
    return tuple((0.3 + r * math.cos(th), -0.7 + r * math.sin(th))
                 for th, r in zip(turns, [2.3, 1.0] * 5))


GRAZE_POLYGONS = (SQUARE, L_SHAPE, PENTAGON, _star())
GRAZE_KINDS = ("vertex-vertex", "through-vertex", "along-edge", "outline-outline")


@st.composite
def grazes(draw):
    """(polygon, a, b): a segment from vertex to vertex, through a vertex,
    along an edge or from outline to outline, each end moved by up to
    1e-13 (often not at all)."""
    vertices = draw(st.sampled_from(GRAZE_POLYGONS))
    n = len(vertices)
    kind = draw(st.sampled_from(GRAZE_KINDS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    params = st.floats(-0.5, 1.5)

    def on_edge(k, u):
        (x0, y0), (x1, y1) = vertices[k], vertices[(k + 1) % n]
        return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))

    if kind == "vertex-vertex":
        a, b = vertices[i], vertices[j]
    elif kind == "through-vertex":
        th = draw(st.floats(0.0, 2.0 * math.pi))
        s1, s2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        (vx, vy), (c, s) = vertices[i], (math.cos(th), math.sin(th))
        a, b = (vx - s1 * c, vy - s1 * s), (vx + s2 * c, vy + s2 * s)
    elif kind == "along-edge":
        a, b = on_edge(i, draw(params)), on_edge(i, draw(params))
    else:
        a, b = on_edge(i, draw(st.floats(0.0, 1.0))), on_edge(j, draw(st.floats(0.0, 1.0)))
    jitter = st.sampled_from([0.0]) | st.floats(-1e-13, 1e-13)
    a = (a[0] + draw(jitter), a[1] + draw(jitter))
    b = (b[0] + draw(jitter), b[1] + draw(jitter))
    return vertices, a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graze=grazes())
def test_grazes_match_the_fraction_oracle(graze):
    vertices, a, b = graze
    env = Environment(WIDE, (Polygon(vertices),))
    hits = exact_blocks(a, b, vertices)
    assert segment_polygon_collides((a, b), vertices) == hits
    assert edge_free(a, b, env) == (not hits)
    sides = [exact_side(p, vertices) <= 0 for p in (a, b)]
    assert [point_free(a, env), point_free(b, env)] == sides
    assert env.collision_field.free([a, b]).tolist() == sides
    if a != b:
        blocked, length = _blocked(env, a, b), math.hypot(b[0] - a[0], b[1] - a[1])
        assert (blocked > 0.0) == hits
        assert abs(blocked - exact_measure(a, b, [vertices])) <= 1e-9 * max(1.0, length)


# --- disk grazes against the oracle -------------------------------------------

GRAZE_DISKS = (Circle((0.0, 0.0), 1.0), Circle((0.1418594964030806, 5.405564355911224),
                                              0.7478065283346083),
               Circle((-3.3, 2.7), 2.9), Circle((1e-3, -7.1), 0.37))
DISK_KINDS = ("tangent", "rim-end", "zero", "underflow")


@st.composite
def disk_grazes(draw):
    """(disk, a, b): a row tangent to the rim, a row with an end on the rim,
    a row of length 0 on the rim, each end often moved by up to 1e-13 times
    the radius; or a row so short that its squared length underflows,
    within 1e-160 of a rim through the origin."""
    kind = draw(st.sampled_from(DISK_KINDS))
    if kind == "underflow":
        r, axis = draw(st.floats(0.5, 4.0)), draw(st.integers(0, 1))
        sign = draw(st.sampled_from((-1, 1)))
        disk = Circle((sign * r, 0.0) if axis == 0 else (0.0, sign * r), r)
        a = (draw(st.floats(-1e-160, 1e-160)), draw(st.floats(-1e-160, 1e-160)))
        step = st.floats(1e-170, 1e-161) | st.floats(-1e-161, -1e-170)
        return disk, a, (a[0] + draw(step), a[1] + draw(step))
    disk = draw(st.sampled_from(GRAZE_DISKS))
    (cx, cy), r = disk.center, disk.radius
    th = draw(st.floats(0.0, 2.0 * math.pi))
    c, s = math.cos(th), math.sin(th)
    jitter = st.sampled_from([0.0]) | st.floats(-1e-13, 1e-13)
    rim = cx + r * (1.0 + draw(jitter)) * c, cy + r * (1.0 + draw(jitter)) * s
    if kind == "tangent":
        s1 = draw(st.floats(-3.0, 3.0))
        s2 = -s1 if draw(st.booleans()) else draw(st.floats(-3.0, 3.0))
        a, b = (rim[0] - s1 * s, rim[1] + s1 * c), (rim[0] - s2 * s, rim[1] + s2 * c)
    elif kind == "rim-end":
        # Out, in, along the tangent, or any way.
        turn = draw(st.sampled_from([0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi])
                    | st.floats(0.0, 2.0 * math.pi))
        length = draw(st.floats(0.0, 3.0))
        a, b = rim, (rim[0] + length * math.cos(th + turn), rim[1] + length * math.sin(th + turn))
    else:
        a = b = rim
    return (disk, b, a) if draw(st.booleans()) else (disk, a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graze=disk_grazes())
def test_disk_grazes_match_the_fraction_oracle(graze):
    disk, a, b = graze
    env = Environment(WIDE, (disk,))
    hits = exact_disk_blocks(a, b, disk.center, disk.radius)
    assert segment_circle_collides((a, b), disk.center, disk.radius) == hits
    assert edge_free(a, b, env) == (not hits)
    inside = [exact_disk_blocks(p, p, disk.center, disk.radius) for p in (a, b)]
    assert [point_free(a, env), point_free(b, env)] == [not v for v in inside]
    assert env.collision_field.free([a, b]).tolist() == [not v for v in inside]
    if a != b:
        assert (_blocked(env, a, b) > 0.0) == hits


def test_twenty_thousand_tangent_rows_match_the_oracle():
    # Rows tangent to a random disk up to r times one of seven offsets,
    # 100 rows per disk, all inside the bounds.
    random.seed(3)
    offsets = (0.0, 1e-16, -1e-16, 1e-15, -1e-15, 1e-13, -1e-13)
    disagree = {"edge_free": 0, "segment_circle_collides": 0, "blocked_lengths": 0,
                "edge_free against blocked_lengths": 0}
    for _ in range(200):
        disk = Circle((random.uniform(-20.0, 20.0), random.uniform(-20.0, 20.0)),
                      random.uniform(0.5, 6.0))
        env = Environment(Bounds(-40.0, 40.0, -40.0, 40.0), (disk,))
        (cx, cy), r = disk.center, disk.radius
        rows = []
        for _ in range(100):
            th, eps = random.uniform(0.0, 2.0 * math.pi), random.choice(offsets)
            c, s = math.cos(th), math.sin(th)
            px, py = cx + r * (1.0 + eps) * c, cy + r * (1.0 + eps) * s
            s1, s2 = random.uniform(-8.0, 8.0), random.uniform(-8.0, 8.0)
            rows.append(((px - s1 * s, py + s1 * c), (px - s2 * s, py + s2 * c)))
        blocked = env.collision_field.blocked_lengths(np.array([a for a, _ in rows]),
                                                      np.array([b for _, b in rows]))
        for (a, b), length in zip(rows, blocked.tolist()):
            hits = exact_disk_blocks(a, b, disk.center, r)
            free = edge_free(a, b, env)
            disagree["edge_free"] += free == hits
            collides = segment_circle_collides((a, b), disk.center, r)
            disagree["segment_circle_collides"] += collides != hits
            disagree["blocked_lengths"] += (length > 0.0) != hits
            disagree["edge_free against blocked_lengths"] += free != (length == 0.0)
    assert disagree == dict.fromkeys(disagree, 0)


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
    disagree = dict.fromkeys(("segment_polygon_collides", "edge_free", "point_in_polygon",
                              "point_free", "CollisionField.free", "blocked_lengths"), 0)
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
        starts = np.array([a for a, _ in rows])
        blocked = env.collision_field.blocked_lengths(starts, np.array([b for _, b in rows]))
        free = env.collision_field.free(starts)
        for (a, b), length, a_free in zip(rows, blocked.tolist(), free.tolist()):
            hits, inside = exact_blocks(a, b, vertices), exact_side(a, vertices) > 0
            disagree["segment_polygon_collides"] += segment_polygon_collides((a, b), vertices) != hits
            disagree["edge_free"] += edge_free(a, b, env) == hits
            disagree["point_in_polygon"] += point_in_polygon(a, vertices) != inside
            disagree["point_free"] += point_free(a, env) == inside
            disagree["CollisionField.free"] += a_free == inside
            disagree["blocked_lengths"] += a != b and (length > 0.0) != hits
    assert disagree == dict.fromkeys(disagree, 0)
