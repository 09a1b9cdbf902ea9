"""The collision kernel's seeded corpus, and every oracle its tests read.

`corpus(kind)` holds the fields of one map kind: an environment and a
shuffled batch of rows on it, drawn once per session with
`numpy.random.default_rng`. A field computes its oracle answers once, when
first asked. The map kinds are "disks" (1-5 disks), "polygons" (1-3
star-shaped polygons), "mixed" (1-3 disks, 1-2 polygons), "empty", all in
WIDE, and "tangent" (one disk, in ONE_DISK, which holds all of its rows),
where one field with disks in two has a rim through the origin; "pso-disks"
and "pso-mixed" (12-40 disks, and 1-3 polygons) with 300 in-bounds rows, a
PSO fitness batch; "irregular-a"; and "inexact", bounds whose sides are
not exact, with or without a disk.
`ROWS` names the row kinds, family/kind, and how many of each a field holds.

The Fraction oracle (`exact_*`) is exact and shares no code with the
package. The float references (`reference_*`, `union_measure`) follow the
kernel's rounding, defer to it near a rim or a polygon piece too thin for
its cuts, and ask the package's `segment_polygon_collides` about polygons;
so graze rows and `DISK_GRAZES` rows are checked against the Fraction oracle.
`EMPTY` and `_pinned_case` are the maps the planners' tests share.
"""

import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pathbench.benchmark import FIELD_QUERY
from pathbench.environment import Environment, generate_random_env, irregular_preset
from pathbench.geometry import (_ORIENT_BAND, Bounds, Circle, Polygon, point_in_polygon,
                                segment_circle_collides, segment_polygon_collides)

WIDE = Bounds(-12.0, 12.0, -12.0, 12.0)
EMPTY = Environment(Bounds(-40.0, 40.0, -40.0, 20.0), ())
#: The one-disk fields' bounds: their disks sit within 8 of the origin, with
#: radii up to 4, and their rows reach 6 along the tangent, so within 16.
ONE_DISK = Bounds(-20.0, 20.0, -20.0, 20.0)
# Concave L: a 4x4 square with the top-right 3x3 corner cut away; (1, 1) is reflex.
L_SHAPE = ((0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (0.0, 4.0))
FIELD_KINDS = ("disks", "polygons", "mixed", "empty")
INEXACT = (Bounds(1e150, 1.5e150, -3e150, -1e150), Bounds(0.1, 0.7, -0.3, 0.2))

#: Segment rows: random; tangent to a rim within 1e-13 of the radius (half
#: of them moved out by one of `TANGENT_OFFSETS` times it; all of them, for
#: offset rows), or 1e-16 to 1e-6 deep (band); from a rim; from a rim out,
#: in, along the tangent or any way; a point on a rim; of zero length; 1e-9
#: long from a rim; so short that the squared length underflows, within
#: 1e-160 of the origin; from outside the bounds; and corner to corner.
#: (Offset rows lie on the one-disk fields only.) Each rim point is moved by up
#: to 1e-13 of the radius in each coordinate, or not at all. Box rows sit
#: within 1e-13 of an obstacle's box edge: along it, across a corner, a
#: point on it, or random. Bound rows lie inside the bounds, end on or run
#: along a bound line, leave them, hold a nan or an infinity, have zero
#: length or run parallel to an axis.
SEGMENT = {"segment/random": 4, "segment/tangent": 2, "segment/tangent-band": 2,
           "segment/rim": 3, "segment/rim-end": 1, "segment/rim-point": 1, "segment/zero": 3,
           "segment/tiny": 3, "segment/underflow": 1, "segment/outside": 3, "segment/diagonal": 1}
TANGENT_OFFSETS = (0.0, 1e-16, -1e-16, 1e-15, -1e-15, 1e-13, -1e-13)
BOX = {"box/tangent": 2, "box/corner": 2, "box/point": 2, "box/random": 2}
BOUND = {"bound/inside": 1, "bound/line": 1, "bound/outside": 1, "bound/non-finite": 1,
         "bound/zero": 1, "bound/axis": 1}
#: Graze rows, on polygon outlines: from vertex to vertex, through a
#: vertex, along an edge, from outline to outline; each end moved by up to
#: 1e-13, or not at all. The Fraction oracle checks them, and the segment
#: rows that graze a rim.
GRAZE = {"graze/vertex": 1, "graze/through-vertex": 1, "graze/along-edge": 1, "graze/outline": 1}
DISK_GRAZES = ("segment/tangent", "segment/rim-end", "segment/rim-point", "segment/underflow")
#: (fields, rows per field) by map kind.
ROWS = {"disks": (330, {**SEGMENT, **BOX, **BOUND}),
        "polygons": (330, {**SEGMENT, **BOX, **BOUND, **GRAZE}),
        "mixed": (330, {**SEGMENT, **BOX, **BOUND, **GRAZE}),
        "empty": (330, {**SEGMENT, **BOUND}),
        "tangent": (300, {"segment/tangent": 1, "segment/offset": 67, "segment/random": 1}),
        "pso-disks": (40, {"pso/step": 150, "pso/span": 150}),
        "pso-mixed": (40, {"pso/step": 150, "pso/span": 150}),
        "irregular-a": (40, {"bound/inside": 2, "bound/line": 2, "bound/outside": 1,
                             "bound/non-finite": 2, "bound/zero": 5, "bound/axis": 3}),
        "inexact": (100, {"bound/inside": 2, "bound/line": 1, "bound/zero": 2, "bound/axis": 3})}


def blocked_length(env, a, b):
    """The kernel's blocked length of the one row from a to b."""
    return float(env.collision_field.blocked_lengths(np.array([a]), np.array([b]))[0])


def collides(a, b, obstacle):
    """The package's own test of the segment against one obstacle."""
    if isinstance(obstacle, Circle):
        return segment_circle_collides((a, b), obstacle.center, obstacle.radius)
    return segment_polygon_collides((a, b), obstacle.vertices)


# --- the Fraction oracle --------------------------------------------------------

def _cross(ux, uy, vx, vy):
    return ux * vy - uy * vx


def _lattice(*values):
    """The values, floats or Fractions, times their least common denominator:
    integers, on which every sign below and every ratio is exact."""
    qs = [Fraction(v) for v in values]
    scale = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (scale // q.denominator) for q in qs]


def exact_side(p, vertices):
    """1 strictly inside, 0 on the outline, -1 outside, decided exactly."""
    px, py, *cs = _lattice(p[0], p[1], *(c for v in vertices for c in v))
    vs = list(zip(cs[::2], cs[1::2]))
    edges = list(zip(vs, vs[1:] + vs[:1]))
    for (x0, y0), (x1, y1) in edges:
        if (min(x0, x1) <= px <= max(x0, x1) and min(y0, y1) <= py <= max(y0, y1)
                and _cross(x1 - x0, y1 - y0, px - x0, py - y0) == 0):
            return 0
    inside = False
    for (x0, y0), (x1, y1) in edges:
        # The edge crosses the ray from p to the right, not dividing by y1 - y0.
        if (y0 > py) != (y1 > py) and (y1 - y0) * _cross(x1 - x0, y1 - y0, px - x0, py - y0) > 0:
            inside = not inside
    return 1 if inside else -1


@functools.cache
def exact_inside_pieces(a, b, vertices):
    """((t0, t1), ...): the Fraction pieces of a + t(b - a), t in [0, 1],
    strictly inside; cached, as a row's check asks twice, so a and b are tuples."""
    ax, ay, bx, by, *cs = _lattice(*a, *b, *(c for v in vertices for c in v))
    dx, dy = bx - ax, by - ay
    if dx == 0 and dy == 0:
        return ()
    vs = list(zip(cs[::2], cs[1::2]))
    (x_lo, x_hi), (y_lo, y_hi) = sorted((ax, bx)), sorted((ay, by))
    cuts = {Fraction(0), Fraction(1)}
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        if max(x0, x1) < x_lo or min(x0, x1) > x_hi or max(y0, y1) < y_lo or min(y0, y1) > y_hi:
            continue  # the edge, its first vertex too, is apart from the segment
        ux, uy = x1 - x0, y1 - y0
        den = _cross(dx, dy, ux, uy)
        if den != 0:
            t = Fraction(_cross(x0 - ax, y0 - ay, ux, uy), den)
            s = Fraction(_cross(x0 - ax, y0 - ay, dx, dy), den)
            if 0 <= s <= 1 and 0 < t < 1:
                cuts.add(t)
        if _cross(dx, dy, x0 - ax, y0 - ay) == 0:
            t = Fraction((x0 - ax) * dx + (y0 - ay) * dy, dx * dx + dy * dy)
            if 0 < t < 1:
                cuts.add(t)
    cuts = sorted(cuts)
    return tuple((t0, t1) for t0, t1 in zip(cuts, cuts[1:])
                 if exact_side((ax + (t0 + t1) / 2 * dx, ay + (t0 + t1) / 2 * dy), vs) > 0)


def exact_blocks(a, b, vertices):
    """True iff some point of the closed segment lies strictly inside."""
    if a[0] == b[0] and a[1] == b[1]:
        return exact_side(a, vertices) > 0
    return bool(exact_inside_pieces(a, b, vertices))


def exact_disk_blocks(a, b, center, radius):
    """True iff some point of the closed segment lies strictly inside the
    disk: the nearest point's squared distance to the center, exactly."""
    ax, ay, bx, by, cx, cy, r = _lattice(*a, *b, *center, radius)
    dx, dy = bx - ax, by - ay
    # The nearest point is a + t (b - a), t = num / den clipped to [0, 1].
    den = dx * dx + dy * dy or 1
    num = min(max((cx - ax) * dx + (cy - ay) * dy, 0), den)
    px, py = den * (ax - cx) + num * dx, den * (ay - cy) + num * dy
    return px * px + py * py < (den * r) ** 2


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


def exact_seams(vertices, bounds):
    """(axis, value, lo, hi) per edge on a bound line, for a polygon inside the bounds."""
    edges = zip(vertices, vertices[1:] + vertices[:1])
    return [(axis, v[axis], min(v[1 - axis], w[1 - axis]), max(v[1 - axis], w[1 - axis]))
            for v, w in edges
            for axis, lines in ((0, bounds[:2]), (1, bounds[2:]))
            if v[axis] == w[axis] in lines]


def exact_hits(a, b, obstacles):
    """Per obstacle, whether the closed segment meets its interior:
    `exact_blocks`, or for a disk `reference_disk_blocks`, which leaves each
    segment near the rim to `exact_disk_blocks`."""
    return [reference_disk_blocks(a, b, o.center, o.radius) if isinstance(o, Circle)
            else exact_blocks(a, b, o.vertices) for o in obstacles]


# --- the clearance grid, exactly -------------------------------------------------

def _ordinal(x):
    """The float x's place among all floats in order, as an int; ±0.0 share 0."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def _float(n):
    return struct.unpack("<d", struct.pack("<q", n if n >= 0 else -n | -2 ** 63))[0]


def cell_spans(lo, hi, scale):
    """[(i, first, last), ...]: each index i that `Clearance.at`'s
    int((x - lo) * scale) takes on the floats x in [lo, hi], with the least
    and greatest such x. The index does not fall as x grows, so bisection
    over the floats in order finds where each span ends."""
    def index(n):
        return int((_float(n) - lo) * scale)

    spans, start, end = [], _ordinal(lo), _ordinal(hi)
    while start <= end:
        i, low, high = index(start), start, end
        while low < high:
            mid = (low + high + 1) // 2
            low, high = (mid, high) if index(mid) == i else (low, mid - 1)
        spans.append((i, _float(start), _float(low)))
        start = low + 1
    return spans


def clearance_violations(env, sample=None, seed=0):
    """The cells of env's clearance grid that break its promise, as
    (column, row, bound): a positive bound above the exact distance from the
    box of coordinates that `Clearance.at` maps to the cell to some
    obstacle, its closed disk or a polygon's closed box; and a cell that the
    lookup cannot reach in its row. All in rationals, so what is left to
    the grid's margin argument is only a rounded `math.hypot` length
    compared with a bound.

    sample=None checks every positive cell. Otherwise the positive cells
    next to a zero one, which hug the obstacles, and `sample` others drawn
    with `default_rng(seed)`.
    """
    grid, b = env.collision_field.clearance, env.bounds
    xs, ys = cell_spans(b.x_min, b.x_max, grid.scale), cell_spans(b.y_min, b.y_max, grid.scale)
    bound = {(ix, iy): grid.cells[iy * grid.stride + ix] for ix, *_ in xs for iy, *_ in ys}
    last = xs[-1][0]
    wrapped = [(last, iy, bound[last, iy]) for iy, *_ in ys] if last >= grid.stride else []
    positive = [c for c, v in bound.items() if v > 0.0]
    if sample is not None:
        near = {c for c in positive
                if any(bound.get((c[0] + i, c[1] + j), 1.0) == 0.0
                       for i in (-1, 0, 1) for j in (-1, 0, 1))}
        rest = sorted(set(positive) - near)
        picked = np.random.default_rng(seed).permutation(len(rest))[:sample]
        positive = sorted(near) + [rest[k] for k in picked]
    # Per obstacle, its closed box and how far it reaches beyond: a disk is
    # its centre and radius.
    boxes = []
    for o in env.obstacles:
        if isinstance(o, Circle):
            (cx, cy), r = map(Fraction, o.center), Fraction(o.radius)
            boxes.append((cx, cx, cy, cy, r))
        else:
            vx, vy = ([Fraction(v[k]) for v in o.vertices] for k in (0, 1))
            boxes.append((min(vx), max(vx), min(vy), max(vy), Fraction(0)))
    if not boxes:  # every bound may be +inf
        return wrapped

    def gaps2(spans, k):
        # The squared gap along one axis from each span to each obstacle's box.
        return {i: [max(box[k] - Fraction(hi), Fraction(lo) - box[k + 1], 0) ** 2
                    for box in boxes] for i, lo, hi in spans}

    gx2, gy2 = gaps2(xs, 0), gaps2(ys, 2)
    return wrapped + [
        (ix, iy, bound[ix, iy]) for ix, iy in positive
        if not math.isfinite(bound[ix, iy]) or any(
            (Fraction(bound[ix, iy]) + box[4]) ** 2 > gx + gy
            for box, gx, gy in zip(boxes, gx2[ix], gy2[iy]))]


# --- the float references -------------------------------------------------------

def reference_disk_blocks(a, b, center, r):
    """Oracle: True iff the closed segment enters the open disk. The float
    nearest-point distance decides where it clears the radius by 1e-9 of
    the squares involved, far above its rounding; the Fraction oracle
    decides inside that band."""
    fx, fy, dx, dy = a[0] - center[0], a[1] - center[1], b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    t = 0.0 if dd == 0.0 else min(max(-(fx * dx + fy * dy) / dd, 0.0), 1.0)
    px, py = fx + t * dx, fy + t * dy
    gap = px * px + py * py - r * r
    if abs(gap) > 1e-9 * (fx * fx + fy * fy + dd + r * r):
        return gap < 0.0
    return exact_disk_blocks(a, b, center, r)


def reference_edge_free(a, b, env):
    """Oracle: every obstacle tested; from a point to itself, the point test."""
    if not (env.bounds.contains(a) and env.bounds.contains(b)):
        return False
    for obs in env.obstacles:
        if isinstance(obs, Circle):
            if reference_disk_blocks(a, b, obs.center, obs.radius):
                return False
        elif (point_in_polygon(a, obs.vertices) if a == b
              else segment_polygon_collides((a, b), obs.vertices)):
            return False
    return True


def on_line(a, b, p):
    """Whether p lies on the line through a and b: exact, in rationals
    where the float cross product is within rounding of 0."""
    left, right = (b[0] - a[0]) * (p[1] - a[1]), (b[1] - a[1]) * (p[0] - a[0])
    if abs(left - right) > 1e-12 * (abs(left) + abs(right)):
        return False
    (ax, ay), (bx, by), (px, py) = (map(Fraction, q) for q in (a, b, p))
    return (bx - ax) * (py - ay) == (by - ay) * (px - ax)


def grazing(left, right):
    """Whether left - right may have lost all but 40 bits to rounding."""
    return _ORIENT_BAND * (abs(left) + abs(right)) > 2.0 ** -40 * abs(left - right)


def exact_cut(a, b, source):
    """(t, s) in rationals for a cut of the row from a to b: where it passes
    the vertex (v,), s = 0, or where its line crosses the edge (v, w), s of
    the way along the edge; None if they are parallel."""
    (ax, ay), (bx, by), *v = ([Fraction(c) for c in p] for p in (a, b, *source))
    dx, dy, (vx, vy) = bx - ax, by - ay, v[0]
    if len(v) == 1:
        return ((vx - ax) / dx if dx else (vy - ay) / dy), 0
    ux, uy = v[1][0] - vx, v[1][1] - vy
    den = dx * uy - dy * ux
    return (((vx - ax) * uy - (vy - ay) * ux) / den, ((vx - ax) * dy - (vy - ay) * dx) / den
            ) if den else None


def reference_union_lengths(env, starts, ends):
    """Oracle: every row's union of blocked intervals on plain floats.

    For a + t(b - a), t in [0, 1]: the slab clip keeps [t_in, t_out] in
    bounds, and a row with nothing in bounds or a non-finite b - a is
    blocked whole; an end out of bounds keeps at least 2^-53 of t
    outside; each disk `reference_disk_blocks` says the row meets
    adds its open root interval clipped to [0, 1], or where the rounded
    roots give nothing (0.5, 0.5 + 2^-53), or [0, 1] for a row whose
    squared length rounds to 0; and the row is cut at every polygon
    vertex on its line, at (v - a) / (b - a) in a coordinate the row
    moves in, and where every other polygon edge crosses it (at its exact
    t rounded once where either difference of the float t is `grazing`,
    as in the kernel; within 2^-30 of an end of the edge or of the row,
    only if the exact cut is on both, its t clipped to [0, 1]). Each piece
    whose midpoint `point_in_polygon` puts inside a polygon is blocked;
    for a piece under 2^-30 wide, whose cuts may have rounded past their
    true places, `exact_side` decides at the exact midpoint of its two
    exact cuts, and a piece that rounded to nothing keeps one ulp. The
    intervals are sorted, merged while one starts at or before the
    furthest end so far, and the runs' lengths added in order onto 0.0.
    """
    x_min, x_max, y_min, y_max = env.bounds
    circles = [(o.center.x, o.center.y, o.radius) for o in env.obstacles if isinstance(o, Circle)]
    outlines = [o.vertices for o in env.obstacles if isinstance(o, Polygon)]
    out = []
    for (ax, ay), (ex, ey) in zip(np.reshape(starts, (-1, 2)).tolist(),
                                  np.reshape(ends, (-1, 2)).tolist()):
        dx, dy = ex - ax, ey - ay
        length = float(np.hypot(dx, dy))
        if not (math.isfinite(dx) and math.isfinite(dy)):
            out.append(length)
            continue
        t_in, t_out = 0.0, 1.0
        for lo, hi, a, d in ((x_min, x_max, ax, dx), (y_min, y_max, ay, dy)):
            if d != 0.0:
                lo, hi = (lo - a) / d, (hi - a) / d
                t_in, t_out = max(t_in, min(lo, hi)), min(t_out, max(lo, hi))
            elif not lo <= a <= hi:
                t_in = math.inf
        if not t_in < t_out:
            out.append(length)
            continue
        # An end out of bounds keeps at least a sliver, however its cut rounds.
        if not env.bounds.contains((ax, ay)):
            t_in = max(t_in, 2.0 ** -53)
        if not env.bounds.contains((ex, ey)):
            t_out = min(t_out, 1.0 - 2.0 ** -53)
        intervals = [(0.0, t_in)] if t_in > 0.0 else []
        if t_out < 1.0:
            intervals.append((t_out, 1.0))
        dd = dx * dx + dy * dy
        for cx, cy, r in circles:
            fx, fy = ax - cx, ay - cy
            half_b = fx * dx + fy * dy
            disc = half_b * half_b - dd * (fx * fx + fy * fy - r * r)
            lo = hi = 0.0
            if disc > 0.0 and dd > 0.0:
                lo = max((-half_b - math.sqrt(disc)) / dd, 0.0)
                hi = min((-half_b + math.sqrt(disc)) / dd, 1.0)
            if reference_disk_blocks((ax, ay), (ex, ey), (cx, cy), r):
                sliver = (0.5, 0.5 + 2.0 ** -53) if dd > 0.0 else (0.0, 1.0)
                intervals.append((lo, hi) if lo < hi else sliver)
        cuts, moves = [(0.0, None), (1.0, None)], dx != 0.0 or dy != 0.0
        for vs in outlines:
            for (vx, vy), (nx, ny) in zip(vs, vs[1:] + vs[:1]):
                ux, uy, wx, wy = nx - vx, ny - vy, vx - ax, vy - ay
                den = dx * uy - dy * ux
                if moves and on_line((ax, ay), (ex, ey), (vx, vy)):
                    s, t, source = 0.0, (wx / dx if dx != 0.0 else wy / dy), ((vx, vy),)
                elif den != 0.0 and not (moves and on_line((ax, ay), (ex, ey), (nx, ny))):
                    s, t = (wx * dy - wy * dx) / den, (wx * uy - wy * ux) / den
                    source = ((vx, vy), (nx, ny))
                    if grazing(wx * uy, wy * ux) or grazing(dx * uy, dy * ux):
                        t = float(exact_cut((ax, ay), (ex, ey), source)[0])
                else:
                    continue
                if min(abs(s), abs(s - 1.0), abs(t), abs(t - 1.0)) < 2.0 ** -30:
                    # Within rounding of an end of the edge or of the row,
                    # the exact cut decides; its t is clipped to [0, 1].
                    exact = exact_cut((ax, ay), (ex, ey), source)
                    if exact is None or not (0 < exact[0] < 1 and 0 <= exact[1] <= 1):
                        continue
                    s, t = 0.0, min(max(t, 0.0), 1.0)
                if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
                    cuts.append((t, source))
        cuts.sort(key=lambda cut: cut[0])
        for (lo, lo_at), (hi, hi_at) in zip(cuts, cuts[1:]):
            if hi - lo >= 2.0 ** -30:
                u = lo + 0.5 * (hi - lo)
                inside = any(point_in_polygon((ax + u * dx, ay + u * dy), vs) for vs in outlines)
            else:
                u = sum(Fraction(t) if at is None else exact_cut((ax, ay), (ex, ey), at)[0]
                        for t, at in ((lo, lo_at), (hi, hi_at))) / 2
                mid = (Fraction(ax) + u * (Fraction(ex) - Fraction(ax)),
                       Fraction(ay) + u * (Fraction(ey) - Fraction(ay)))
                inside = any(exact_side(mid, vs) > 0 for vs in outlines)
                if inside and lo == hi:
                    lo = min(lo, math.nextafter(1.0, 0.0))
                    hi = math.nextafter(lo, 1.0)
            if inside and hi > lo:
                intervals.append((lo, hi))
        out.append(union_measure(intervals) * length)
    return np.array(out)


def union_measure(intervals):
    """Oracle: the measure of a union of (lo, hi) intervals, merged in order
    of their starts (touching ones too), each run's length added onto 0.0
    in turn."""
    total, run = 0.0, None
    for lo, hi in sorted(intervals):
        if run and lo <= run[1]:
            run[1] = max(run[1], hi)
            continue
        if run:
            total += run[1] - run[0]
        run = [lo, hi]
    return total + (run[1] - run[0]) if run else total


# --- the corpus -----------------------------------------------------------------

#: The row kinds that lie inside the bounds.
INSIDE = ("segment/diagonal", "bound/inside", "bound/line", "bound/zero", "bound/axis", "pso")


@dataclass(eq=False)
class Field:
    """One environment and its rows, with the oracle answers."""

    kind: str
    index: int
    env: Environment
    starts: np.ndarray
    ends: np.ndarray
    kinds: tuple  # "family/kind" per row
    keep: np.ndarray  # a random half of the rows

    def rows(self, *kinds):
        """The rows whose family or "family/kind" is one of these."""
        return np.flatnonzero([k in kinds or k.split("/")[0] in kinds for k in self.kinds])

    def columns(self, rows):
        """The rows' ax, ay, ex and ey, each a contiguous float64 array."""
        return np.vstack((self.starts[rows].T, self.ends[rows].T))

    def where(self, row):
        return (f"{self.kind} field {self.index} row {row} ({self.kinds[row]}): "
                f"{tuple(self.starts[row].tolist())} -> {tuple(self.ends[row].tolist())}")

    def check(self, rows, got, want, same_bytes=False):
        """Assert got == want row by row, as floats or as their bytes."""
        got = np.asarray(got, dtype=np.float64)
        want = np.broadcast_to(np.asarray(want, dtype=np.float64), got.shape)
        bad = (got.view(np.int64) != want.view(np.int64)) if same_bytes else (got != want)
        for j in np.flatnonzero(bad)[:1]:
            raise AssertionError(f"{self.where(rows[j])}: got {got[j]!r}, want {want[j]!r}")

    @functools.cached_property
    def union(self):
        """`reference_union_lengths` of the segment, box and PSO rows; nan,
        which matches nothing, for the rows no test measures against it."""
        rows, out = self.rows("segment", "box", "pso"), np.full(len(self.kinds), np.nan)
        out[rows] = reference_union_lengths(self.env, self.starts[rows], self.ends[rows])
        return out

    @functools.cached_property
    def edge_free(self):
        return np.array([reference_edge_free(a, b, self.env)
                         for a, b in zip(self.starts.tolist(), self.ends.tolist())])

    @functools.cached_property
    def point_free(self):
        """Whether the start and the end of each row are free."""
        return np.array([[reference_edge_free(p, p, self.env) for p in row]
                         for row in zip(self.starts.tolist(), self.ends.tolist())])


def _values(rng, lo, hi, size):
    """Uniform in [lo, hi]; one in eight an end, the middle, zero or an
    integer, as a property test would draw them."""
    v = rng.uniform(lo, hi, size)
    nice = np.choose(rng.integers(6, size=size), (lo, hi, (lo + hi) / 2, 0.0, -0.0, np.round(v)))
    return np.clip(np.where(rng.random(size) < 0.125, nice, v), lo, hi)


def _polygon(rng):
    """Star-shaped about its centre, so always simple; often concave."""
    (cx, cy), n = _values(rng, -7.0, 7.0, 2), int(rng.integers(3, 8))
    radii = _values(rng, 0.5, 3.5, n) if rng.random() < 0.75 else np.full(n, 2.0)
    turn = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 2.0 * np.pi)
    th = turn + 2.0 * np.pi * np.arange(n) / n
    return Polygon(tuple(zip((cx + radii * np.cos(th)).tolist(),
                             (cy + radii * np.sin(th)).tolist())))


#: The (fewest, most) disks and polygons of a field, by map kind.
OBSTACLES = {"disks": ((1, 5), (0, 0)), "polygons": ((0, 0), (1, 3)), "mixed": ((1, 3), (1, 2)),
             "empty": ((0, 0), (0, 0)), "tangent": ((1, 1), (0, 0)),
             "pso-disks": ((12, 40), (0, 0)), "pso-mixed": ((12, 40), (1, 3))}


def _environment(rng, kind, index):
    if kind == "irregular-a":
        return irregular_preset("irregular-a")[0]
    if kind == "inexact":
        b = INEXACT[index % 2]
        disk = Circle(((b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2), b.width / 4)
        return Environment(b, (disk,) if index % 4 >= 2 else ())
    (fewest, most), (fewest_polygons, most_polygons) = OBSTACLES[kind]
    n = int(rng.integers(fewest, most + 1))
    if kind.startswith("pso-"):
        centres, radii = rng.uniform(-10.0, 10.0, (n, 2)), rng.uniform(0.5, 3.0, n)
    else:
        centres, radii = _values(rng, -8.0, 8.0, (n, 2)), _values(rng, 0.2, 4.0, n)
        if n and rng.random() < 0.5:  # a rim through the origin, for the underflow rows
            centres[0] = 0.0
            centres[0, rng.integers(2)] = radii[0] * rng.choice((-1.0, 1.0))
    polygons = [_polygon(rng) for _ in range(rng.integers(fewest_polygons, most_polygons + 1))]
    return Environment(ONE_DISK if kind == "tangent" else WIDE,
                       (*map(Circle, centres.tolist(), radii.tolist()), *polygons))


def _segment_rows(rng, kind, n, env):
    """n rows aimed at disks' rims; a field without disks aims them at a
    phantom unit disk at the origin."""
    disks = [(*o.center, o.radius) for o in env.obstacles if isinstance(o, Circle)]
    cx, cy, r = np.array(disks or [(0.0, 0.0, 1.0)])[rng.integers(max(1, len(disks)), size=n)].T
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    out, centre = np.column_stack((np.cos(th), np.sin(th))), np.column_stack((cx, cy))
    jitter = np.where(rng.random((n, 2)) < 0.5, 0.0, rng.uniform(-1e-13, 1e-13, (n, 2)))
    rim, point = centre + r[:, None] * (1.0 + jitter) * out, _values(rng, -14.0, 14.0, (n, 2))
    if kind in ("tangent", "offset", "tangent-band"):
        depth = (rng.choice(TANGENT_OFFSETS, n) if kind == "offset"
                 else np.where(rng.random(n) < 0.5, rng.choice(TANGENT_OFFSETS, n),
                               rng.uniform(-1e-13, 1e-13, n)) if kind == "tangent"
                 else np.copysign(10.0 ** rng.uniform(-16.0, -6.0, n), rng.random(n) - 0.5))
        p, along = centre + (r * (1.0 + depth))[:, None] * out, out[:, ::-1] * (-1.0, 1.0)
        # Symmetric rows put the only piece midpoint on the tangent point.
        s1 = rng.uniform(-6.0, 6.0, n)
        s2 = np.where(rng.random(n) < 0.5, -s1, rng.uniform(-6.0, 6.0, n))
        return p + s1[:, None] * along, p + s2[:, None] * along
    if kind == "rim-end":  # out, in, along the tangent, or any way
        th += np.where(rng.random(n) < 0.5, rng.choice((0.0, np.pi, np.pi / 2, -np.pi / 2), n),
                       rng.uniform(0.0, 2.0 * np.pi, n))
        point = rim + rng.uniform(0.0, 3.0, (n, 1)) * np.column_stack((np.cos(th), np.sin(th)))
    if kind in ("rim", "rim-end"):
        first = rng.random((n, 1)) < 0.5
        return np.where(first, rim, point), np.where(first, point, rim)
    if kind == "rim-point":
        return rim, rim
    if kind == "underflow":
        a, step = rng.uniform(-1e-160, 1e-160, (n, 2)), 10.0 ** rng.uniform(-170.0, -161.0, (n, 2))
        return a, a + np.copysign(step, rng.random((n, 2)) - 0.5)
    if kind == "tiny":
        return rim, rim + rng.uniform(-1e-9, 1e-9, (n, 2))
    if kind == "zero":
        return point, point
    if kind == "diagonal":
        return np.full((n, 2), -12.0), np.full((n, 2), 12.0)
    if kind == "outside":
        point[:, 0] = np.copysign(rng.uniform(12.5, 30.0, n), rng.random(n) - 0.5)
    return point, _values(rng, -14.0, 14.0, (n, 2))


def _box_rows(rng, kind, n, env):
    """n rows whose box sits on an obstacle's box edge, each edge moved by up
    to 1e-13 relative to max(1, |edge|) either way (not at all one time in
    four). Tangent rows run along one; corner rows span an outside quarter
    at a box corner, so their box meets the obstacle's only there; point
    rows are zero-length, on one."""
    field = env.collision_field
    boxes = [(x - r, x + r, y - r, y + r) for *_, (x, y), r in field.disks]
    boxes += [p[:4] for p in field.polygons]
    box = np.array(boxes)[rng.integers(len(boxes), size=n)]
    moved = box + np.where(rng.random((n, 4)) < 0.25, 0.0,
                           rng.uniform(-1e-13, 1e-13, (n, 4))) * np.maximum(1.0, np.abs(box))
    side, row = rng.integers(4, size=n), np.arange(n)
    on_y = (side >= 2)[:, None]  # the edge box[side] lies on a line of y, else of x
    edge = moved[row, side]
    if kind == "corner":
        x, y = moved[row, np.where(side < 2, 0, 1)], moved[row, np.where(side % 2, 3, 2)]
        sx, sy = np.where(side < 2, -1.0, 1.0), np.where(side % 2, 1.0, -1.0)
        a = np.column_stack((x + sx * rng.uniform(0.0, 6.0, n), y))
        b = np.column_stack((x, y + sy * rng.uniform(0.0, 6.0, n)))
    elif kind == "random":
        a, b = _values(rng, -14.0, 14.0, (2, n, 2))
    else:
        # Along the edge: any coordinates, or on the box for a point.
        lo, hi = box[row, np.where(on_y[:, 0], 0, 2)], box[row, np.where(on_y[:, 0], 1, 3)]
        u, v = (_values(rng, -14.0, 14.0, (2, n)) if kind == "tangent"
                else np.repeat(_values(rng, lo, hi, n)[None], 2, axis=0))
        a, b = (np.where(on_y, np.column_stack((w, edge)), np.column_stack((edge, w)))
                for w in (u, v))
    first = rng.random((n, 1)) < 0.5
    return np.where(first, a, b), np.where(first, b, a)


def _bound_rows(rng, kind, n, env):
    """n rows inside the bounds, with an end on a bound line (both, half the
    time), with one out of them, with a nan or infinite coordinate, of zero
    length, or parallel to an axis."""
    b = env.bounds
    lo, hi = np.array((b.x_min, b.y_min) * 2), np.array((b.x_max, b.y_max) * 2)
    cols = _values(rng, lo, hi, (n, 4))  # ax, ay, ex, ey
    k, row = rng.integers(4, size=n), np.arange(n)
    if kind == "line":
        cols[row, k] = np.where(rng.random(n) < 0.5, lo[k], hi[k])
        both = rng.random(n) < 0.5
        cols[row[both], k[both] ^ 2] = cols[row[both], k[both]]
    elif kind == "outside":
        past = rng.uniform(0.0, 0.75 * (hi - lo)[k])
        cols[row, k] = np.where(rng.random(n) < 0.5, hi[k] + past, lo[k] - past)
    elif kind == "non-finite":
        cols[row, k] = np.array((np.nan, np.inf, -np.inf))[rng.integers(3, size=n)]
    elif kind == "zero":
        cols[:, 2:] = cols[:, :2]
    elif kind == "axis":
        cols[row, k ^ 2] = cols[row, k]
    return cols[:, :2], cols[:, 2:]


def _pso_rows(rng, kind, n, env):
    """n rows inside WIDE: PSO-length steps, or rows across the map."""
    starts, ends = rng.uniform(-12.0, 12.0, (2, n, 2))
    if kind == "step":
        ends = np.clip(starts + rng.uniform(-4.0, 4.0, (n, 2)), -12.0, 12.0)
    return starts, ends


def _graze_rows(rng, kind, n, env):
    """n rows of one `GRAZE` kind, on the outlines of env's polygons."""
    edges = np.array([(v, w) for o in env.obstacles if isinstance(o, Polygon)
                      for v, w in zip(o.vertices, o.vertices[1:] + o.vertices[:1])])
    e, f = edges[rng.integers(len(edges), size=(2, n))]
    if kind == "vertex":
        a, b = e[:, 0], f[:, 0]
    elif kind == "through-vertex":
        th, s = rng.uniform(0.0, 2.0 * np.pi, n), rng.uniform(0.0, 3.0, (2, n, 1))
        out = np.column_stack((np.cos(th), np.sin(th)))
        a, b = e[:, 0] - s[0] * out, e[:, 0] + s[1] * out
    else:  # u of the way along one edge, or along two
        f, u = (e, _values(rng, -0.5, 1.5, (2, n, 1))) if kind == "along-edge" else (
            f, _values(rng, 0.0, 1.0, (2, n, 1)))
        a, b = e[:, 0] + u[0] * (e[:, 1] - e[:, 0]), f[:, 0] + u[1] * (f[:, 1] - f[:, 0])
    return tuple(p + np.where(rng.random((n, 2)) < 0.5, 0.0, rng.uniform(-1e-13, 1e-13, (n, 2)))
                 for p in (a, b))


def _field(rng, kind, index):
    env, counts = _environment(rng, kind, index), ROWS[kind][1]
    draw = {"segment": _segment_rows, "box": _box_rows, "bound": _bound_rows, "pso": _pso_rows,
            "graze": _graze_rows}
    parts = [draw[k.split("/")[0]](rng, k.split("/")[1], n, env) for k, n in counts.items()]
    kinds = [k for k, n in counts.items() for _ in range(n)]
    order = rng.permutation(len(kinds))
    starts, ends = (np.concatenate(side)[order] for side in zip(*parts))
    starts.setflags(write=False)  # every test shares them
    ends.setflags(write=False)
    return Field(kind, index, env, starts, ends, tuple(kinds[i] for i in order),
                 rng.random(len(kinds)) < 0.5)


def scaled(env, k):
    """env with every number multiplied by 2^k."""
    def point(p):
        return math.ldexp(p[0], k), math.ldexp(p[1], k)

    return Environment(Bounds(*(math.ldexp(v, k) for v in env.bounds)), tuple(
        Circle(point(o.center), math.ldexp(o.radius, k)) if isinstance(o, Circle)
        else Polygon(tuple(map(point, o.vertices))) for o in env.obstacles))


@functools.cache
def corpus(kind):
    """The fields of one map kind, each drawn from the kind's own seed."""
    rng = np.random.default_rng(list(ROWS).index(kind))
    return tuple(_field(rng, kind, i) for i in range(ROWS[kind][0]))


def _pinned_case(name):
    """The environment and query of a pinned run: field 1000 or a preset."""
    if name == "field-1000":
        return generate_random_env(1000, query=FIELD_QUERY), FIELD_QUERY
    return irregular_preset(name)
