"""The batch collision kernel, loaded with the first `CollisionField.kernel`."""

from __future__ import annotations

import math

import numpy as np

from .geometry import _DISK_BAND, _ORIENT_BAND, _ORIENT_TINY, _meets_disk, _orient, _orient_exact


class Kernel:
    """A `CollisionField`'s obstacles as arrays, and the batch measure over them.

    Beside the field's `bounds`, `disks`, `polygons` and `seams`: `disk_x`,
    `disk_y` and `disk_r2`, each a column with one row per circle;
    `vertex_xy` per polygon vertex, all polygons in one array, with
    `vertex_next` and `vertex_prev` (the row of the vertex after and before
    it in its polygon) and `vertex_polygon` (its polygon); `polygon_boxes`
    as x_lo, x_hi, y_lo, y_hi rows. `CollisionField.blocked_lengths` and
    `fitness` enter at `_blocked_measure`, a `PsoRun` at `_obstacle_measure`.

    `rescale_rows` says whether the disk pass rescales each row, decided
    from the field's scale G, the larger of the bounds' longer side and
    the largest radius. For a row inside the bounds |d| = |b - a| <= sqrt(2) G,
    |f| = |a - c| <= |d| + r <= (1 + sqrt(2)) G (the disk meets the bounds)
    and r <= G, so every product the pass forms, such as dd (|f|^2 + r^2)
    and half_b^2, is below 16 G^4: finite while G <= 2^254. A row and a
    disk at the field's scale round their discriminant by about
    2^-46 G^4, and that must stay far above the band's floor of
    `_ORIENT_TINY` (about 2^-997) and the subnormals; at G = 2^-200 it is
    2^-846, which leaves room for rows 2^-75 of the field's scale. So
    fields with G in [2^-200, 2^250] run the pass as it is, and others
    scale each row's d, f and r by the power of two that brings its
    larger |dx|, |dy| into [0.5, 1). A power of two leaves every root t
    as it is, so blocked measures are equivariant under scaling the map
    and its rows by a power of two, save on a row whose squared length
    underflows (|b - a| below about 1.6e-162): at unit scale it is blocked
    whole where it meets a disk, while scaled by 2^k it can measure less.
    """

    def __init__(self, field):
        self.bounds, self.disks = field.bounds, field.disks
        self.polygons, self.seams = field.polygons, field.seams
        disks = np.array([(*c, r) for *_, c, r in self.disks], dtype=np.float64).reshape(-1, 3)
        self.disk_x, self.disk_y = disks[:, :1].copy(), disks[:, 1:2].copy()
        self.disk_r2 = disks[:, 2:] ** 2
        scale = max(self.bounds.width, self.bounds.height, *disks[:, 2].tolist())
        self.rescale_rows = not 2.0 ** -200 <= scale <= 2.0 ** 250
        outlines = [polygon[4] for polygon in self.polygons]
        self.vertex_xy = np.array([xy for vs in outlines for xy in vs],
                                  dtype=np.float64).reshape(-1, 2)
        counts = np.array([len(vs) for vs in outlines], dtype=np.intp)
        last = np.cumsum(counts) - 1
        starts = last - counts + 1
        self.vertex_polygon = np.repeat(np.arange(len(outlines)), counts)
        row = np.arange(len(self.vertex_xy))
        self.vertex_next, self.vertex_prev = row + 1, row - 1
        self.vertex_next[last] = starts
        self.vertex_prev[starts] = last
        self.polygon_boxes = np.array([p[:4] for p in self.polygons],
                                      dtype=np.float64).reshape(-1, 4)

    def _blocked_measure(self, ax, ay, ex, ey) -> np.ndarray:
        """Each row's measure of blocked t in [0, 1] for the segments from
        (ax, ay) to (ex, ey), given as float64 columns, unchecked: the
        bounds, then `_obstacle_measure` for the rest.

        * Bounds: [0, t_in) and (t_out, 1] around the part the slab method
          (Liang & Barsky) keeps; all of [0, 1] if that is empty or b - a
          is not finite. An end out of bounds keeps at least a sliver of
          2^-53 there. A row inside the bounds gets nothing: each of its
          cuts rounds to <= 0 or >= 1, as the bound lines lie beyond its ends.
        """
        b = self.bounds
        # Rows with nan or infinite endpoints are ordinary input here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx, dy = ex - ax, ey - ay
            t_in, t_out = 0.0, 1.0
            for lo, hi, p, q in ((b.x_min, b.x_max, ax, dx), (b.y_min, b.y_max, ay, dy)):
                # Parallel to the slab, the cuts are infinite, or nan on its
                # side lines, which fmax and fmin skip: no constraint.
                lo, hi = (lo - p) / q, (hi - p) / q
                t_in = np.fmax(t_in, np.minimum(lo, hi))
                t_out = np.fmin(t_out, np.maximum(lo, hi))
            whole = ~(np.isfinite(dx) & np.isfinite(dy) & (t_in < t_out))
            t_in[whole] = t_out[whole] = 1.0
            # An end out of bounds keeps at least a sliver, however its cut rounds.
            a_out, e_out = (~((x >= b.x_min) & (x <= b.x_max) & (y >= b.y_min) & (y <= b.y_max))
                            for x, y in ((ax, ay), (ex, ey)))
            t_in = np.maximum(t_in, a_out * 2.0 ** -53)
            t_out = np.minimum(t_out, 1.0 - e_out * 2.0 ** -53)
        head, tail = np.flatnonzero(t_in > 0.0), np.flatnonzero(t_out < 1.0)
        outside = [(head, np.zeros(len(head)), t_in[head]),
                   (tail, t_out[tail], np.ones(len(tail)))]
        return self._obstacle_measure(ax, ay, ex, ey, outside)

    def _obstacle_measure(self, ax, ay, ex, ey, outside=()) -> np.ndarray:
        """The obstacle stage of `_blocked_measure`, which passes its bound
        intervals as `outside`; a caller whose rows all lie inside the
        bounds, as a `PsoRun`'s clipped swarm does, may enter here. Each
        row's measure of the union of `outside` and:

        * Disks: each disk's open root interval, clipped to [0, 1]. A
          (segment, disk) pair whose answer the rounded roots may get
          wrong gets `_meets_disk`: one that meets keeps an interval, at
          least a sliver of 2^-53 at t = 0.5 (all of [0, 1] if the squared
          length rounds to 0), and one that misses is dropped.
        * Polygons, for segments of positive, finite length whose box
          meets a polygon's box: each polygon's open intervals, from exact
          orientation signs; see `_polygon_intervals`. Each cut's t is
          rounded once, so a piece between two crossings within rounding
          of each other may move by that rounding; one that rounds to
          nothing keeps one ulp.
        * Seams, for segments along a bound line: their overlap with each
          open seam.

        The disk and polygon passes work in blocks of about 2^14 (segment,
        obstacle) pairs and keep only what meets.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx, dy = ex - ax, ey - ay
            intervals = list(outside)
            if self.disks:
                intervals += self._disk_intervals(ax, ay, ex, ey, dx, dy)
            if self.polygons:
                x_lo, x_hi = np.minimum(ax, ex), np.maximum(ax, ex)
                y_lo, y_hi = np.minimum(ay, ey), np.maximum(ay, ey)
                boxes = self.polygon_boxes
                near = ((x_lo[:, None] <= boxes[:, 1]) & (x_hi[:, None] >= boxes[:, 0])
                        & (y_lo[:, None] <= boxes[:, 3]) & (y_hi[:, None] >= boxes[:, 2]))
                near = (near.any(axis=1) & np.isfinite(dx) & np.isfinite(dy)
                        & ((dx != 0.0) | (dy != 0.0)))
                intervals += self._polygon_intervals(np.flatnonzero(near), ax, ay, ex, ey)
            if self.seams:
                intervals += self._seam_intervals(ax, ay, ex, ey, dx, dy)
            return _union_measure(intervals, len(ax))

    def _disk_intervals(self, ax, ay, ex, ey, dx, dy):
        """[(row, lo, hi)]: the non-empty disk root intervals of the rows."""
        found = []
        step = max(1, (1 << 14) // len(self.disks))
        for k in range(0, len(ax), step):
            # |a + t d - c|^2 = r^2 has the roots (-half_b -+ sqrt(disc)) / dd,
            # on (disks, rows) arrays. In place, in the written-out formula's
            # order (so the same doubles): fx becomes dd (|a - c|^2 - r^2).
            dx_r, dy_r = dx[k:k + step], dy[k:k + step]
            fx, fy = ax[k:k + step] - self.disk_x, ay[k:k + step] - self.disk_y
            r2, r2_max = self.disk_r2, self.disk_r2.max()
            if self.rescale_rows:
                # Exact: each row's numbers times the power of two 2^e.
                e = -np.frexp(np.maximum(np.abs(dx_r), np.abs(dy_r)))[1]
                dx_r, dy_r, fx, fy = (np.ldexp(v, e) for v in (dx_r, dy_r, fx, fy))
                r2, r2_max = np.ldexp(r2, 2 * e), np.ldexp(r2_max, 2 * e)
            dd = dx_r * dx_r + dy_r * dy_r
            half_b = fx * dx_r
            half_b += fy * dy_r
            fx *= fx
            fy *= fy
            fx += fy
            # Every term of disc is at most dd (|a - c|^2 + r^2) (half_b^2 by
            # Cauchy-Schwarz), so rounding moves disc by less than the row's
            # `band`. Per row, so one huge or nan row cannot widen the others'.
            band = _DISK_BAND * dd * (fx.max(axis=0) + r2_max) + _ORIENT_TINY
            fx -= r2
            fx *= dd
            disc = half_b * half_b
            disc -= fx
            # Only a discriminant above -band (or nan) can give an interval.
            hit = np.flatnonzero(~(disc <= -band))
            i = hit % len(dx_r)
            half_b, root, dd = half_b.take(hit), np.sqrt(disc.take(hit)), dd[i]
            t0 = np.maximum((-half_b - root) / dd, 0.0)
            t1 = np.minimum((-half_b + root) / dd, 1.0)
            meet = t0 < t1
            # Each root is off by less than about sqrt(band) / dd, so meet can only
            # be wrong where |t1 - t0| dd < 2 sqrt(band); the test allows twice that.
            sure = np.abs(t1 - t0) * dd > 4.0 * np.sqrt(band[i])
            if not sure.all():
                for u in np.flatnonzero(~sure):
                    row, j = k + i[u], hit[u] // len(dx_r)
                    if not (math.isfinite(dx[row]) and math.isfinite(dy[row])):
                        continue  # the bounds block this row whole
                    meet[u] = _meets_disk((ax[row], ay[row]), (ex[row], ey[row]),
                                          *self.disks[j][4:])
                    if meet[u] and not t0[u] < t1[u]:  # a sliver, or all of a row with dd 0
                        t0[u], t1[u] = (0.5, 0.5 + 2.0 ** -53) if dd[u] else (0.0, 1.0)
            found.append((k + i[meet], t0[meet], t1[meet]))
        return found

    def _polygon_intervals(self, rows, ax, ay, ex, ey):
        """[(row, lo, hi)]: each row's open intervals strictly inside each polygon,
        by the walk of `_segment_enters`, which states its rule, on every row at
        once in blocks of about 2^14 (row, vertex) pairs: the vertex sides, then
        the swaps ahead of a, at edge crossings and at vertices on the row's line,
        and whether a lies along an edge, then the swaps within the row in order.
        A piece along an edge is outline."""
        vx, vy = self.vertex_xy.T
        nxt, prv, n_poly = self.vertex_next, self.vertex_prev, len(self.polygons)
        found = []
        step = max(1, (1 << 14) // len(vx))
        for k in range(0, len(rows), step):
            r = rows[k:k + step]
            groups = len(r) * n_poly
            a_x, a_y, e_x, e_y = ax[r], ay[r], ex[r], ey[r]
            side = _orient_array(a_x[:, None], a_y[:, None], e_x[:, None], e_y[:, None], vx, vy)
            above, zero = side > 0.0, side == 0.0
            on_line = zero.any()
            swap = above != above[:, nxt]
            if on_line:
                swap &= ~(zero | zero[:, nxt])
            # Edge j crosses the line. Taken from its end below to its end
            # above, a lies left of it iff the crossing is ahead of a, and b
            # lies right of it iff the crossing is before b.
            i, j = np.nonzero(swap)
            n, down = nxt[j], above[i, j]
            o_a = _orient_array(vx[j], vy[j], vx[n], vy[n], a_x[i], a_y[i])
            o_b = _orient_array(vx[j], vy[j], vx[n], vy[n], e_x[i], e_y[i])
            ahead = (o_a != 0.0) & ((o_a > 0.0) != down)
            within = ahead & (o_b != 0.0) & ((o_b > 0.0) == down)
            cross = i * n_poly + self.vertex_polygon[j]
            i, j, n = i[within], j[within], n[within]
            t = _crossing_t(a_x[i], a_y[i], e_x[i], e_y[i], vx[j], vy[j], vx[n], vy[n])
            events = [(cross[within], np.clip(t, 0.0, 1.0), np.ones(len(t), dtype=np.intp),
                       np.zeros(len(t), dtype=bool))]
            state = np.bincount(cross[ahead], minlength=groups)
            start_outline = np.zeros(groups, dtype=bool)
            if on_line:
                # Vertex m lies on the line. Order along the row by one coordinate
                # the row moves in, as a forward position: exact, as every point
                # compared lies on the line.
                i, m = np.nonzero(zero)
                n, p = nxt[m], prv[m]
                use_x = e_x[i] != a_x[i]
                sign = np.sign(np.where(use_x, e_x[i] - a_x[i], e_y[i] - a_y[i]))
                f_a, f_b, f_m, f_n, f_p = sign * np.where(
                    use_x, np.stack((a_x[i], e_x[i], vx[m], vx[n], vx[p])),
                    np.stack((a_y[i], e_y[i], vy[m], vy[n], vy[p])))
                s_n, s_p = side[i, n], side[i, p]
                flip = (s_p > 0.0) != (s_n > 0.0)
                vertex = i * n_poly + self.vertex_polygon[m]
                state += np.bincount(vertex[flip & (f_m > f_a)], minlength=groups)
                along = (s_n == 0.0) & (np.minimum(f_m, f_n) <= f_a) & (f_a < np.maximum(f_m, f_n))
                start_outline = np.bincount(vertex[along], minlength=groups) > 0
                outline = ((s_n == 0.0) & (f_n > f_m)) | ((s_p == 0.0) & (f_p > f_m))
                within = (f_a < f_m) & (f_m < f_b)
                events.append((vertex[within], ((f_m - f_a) / (f_b - f_a))[within], flip[within],
                               outline[within]))
            group, t, flips, outline = (np.concatenate(e) for e in zip(*events))
            # A group with no event within its row keeps its start state.
            busy = np.zeros(groups, dtype=bool)
            busy[group] = True
            whole = np.flatnonzero(~busy & (state % 2 == 1) & ~start_outline)
            found.append((r[whole // n_poly], np.zeros(len(whole)), np.ones(len(whole))))
            # The others get a start event, carrying the state at a, and an end.
            busy = np.flatnonzero(busy)
            group = np.concatenate((busy, group, busy))
            t = np.concatenate((np.zeros(len(busy)), t, np.ones(len(busy))))
            flips = np.concatenate((state[busy], flips, np.zeros(len(busy), dtype=np.intp)))
            outline = np.concatenate((start_outline[busy], outline, np.ones(len(busy), dtype=bool)))
            order = np.lexsort((t, group))
            group, t, flips, outline = group[order], t[order], flips[order], outline[order]
            # Each group's first event is its start; the count of flips since
            # then gives the state after each event.
            count = np.cumsum(flips)
            first = np.concatenate(([True], group[1:] != group[:-1]))
            count -= np.maximum.accumulate(np.where(first, count - flips, 0))
            keep = np.flatnonzero((group[1:] == group[:-1]) & (count[:-1] % 2 == 1)
                                  & ~outline[:-1])
            lo, hi = t[keep], t[keep + 1]
            # Two crossings within rounding of each other can round to one t;
            # the piece between them is inside, so it keeps one ulp.
            sliver = lo == hi
            lo[sliver] = np.minimum(lo[sliver], np.nextafter(1.0, 0.0))
            hi[sliver] = np.nextafter(lo[sliver], 1.0)
            found.append((r[group[keep] // n_poly], lo, hi))
        return found

    def _seam_intervals(self, ax, ay, ex, ey, dx, dy):
        """[(row, lo, hi)]: the rows along a bound line, over each open seam there."""
        found = []
        # Rows along a line of each axis: x constant (0), y constant (1).
        along = {axis: np.flatnonzero((ax == ex) & (dy != 0.0)) if axis == 0
                 else np.flatnonzero((ay == ey) & (dx != 0.0))
                 for axis in {s[0] for s in self.seams}}
        for axis, value, lo, hi in self.seams:
            rows = along[axis]
            if len(rows):
                on, a, d = (ax, ay, dy) if axis == 0 else (ay, ax, dx)
                rows = rows[on[rows] == value]
                t0, t1 = (lo - a[rows]) / d[rows], (hi - a[rows]) / d[rows]
                t0, t1 = np.maximum(np.minimum(t0, t1), 0.0), np.minimum(np.maximum(t0, t1), 1.0)
                meet = t0 < t1
                found.append((rows[meet], t0[meet], t1[meet]))
        return found


def _orient_array(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """`_orient` elementwise over broadcast arrays: the float determinant,
    with each entry inside the rounding band, or nan from overflowing
    products, replaced by `_orient`'s exact sign."""
    ux, uy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    left, right = ux * wy, uy * wx
    det = left - right
    unsure = ~(np.abs(det) > _ORIENT_BAND * (np.abs(left) + np.abs(right)) + _ORIENT_TINY)
    if unsure.any():
        p = np.broadcast_arrays(ax, ay, bx, by, cx, cy)
        for i in zip(*np.nonzero(unsure)):
            exact = _orient((p[0][i], p[1][i]), (p[2][i], p[3][i]), (p[4][i], p[5][i]))
            det[i] = int(exact > 0) - int(exact < 0)  # numpy bools do not subtract
    return det


def _crossing_t(ax, ay, bx, by, vx, vy, wx, wy):
    """t where each line a + t(b - a) meets the line through v and w, elementwise.

    A grazing crossing is ill-conditioned: where the rounding bound of the
    numerator or the denominator (`_ORIENT_BAND`) exceeds 2^-40 of it, or t
    overflows, t is recomputed from the exact orientations of a and b
    against the edge."""
    dx, dy, ux, uy = bx - ax, by - ay, wx - vx, wy - vy
    num_l, num_r, den_l, den_r = (vx - ax) * uy, (vy - ay) * ux, dx * uy, dy * ux
    num, den = num_l - num_r, den_l - den_r
    t = num / den
    rough = ((_ORIENT_BAND * (np.abs(num_l) + np.abs(num_r)) > 2.0 ** -40 * np.abs(num))
             | (_ORIENT_BAND * (np.abs(den_l) + np.abs(den_r)) > 2.0 ** -40 * np.abs(den))
             | ~np.isfinite(t))
    for k in np.flatnonzero(rough):
        v, w = (vx[k], vy[k]), (wx[k], wy[k])
        o_a, o_b = _orient_exact(v, w, (ax[k], ay[k])), _orient_exact(v, w, (bx[k], by[k]))
        t[k] = o_a / (o_a - o_b)
    return t


def _union_measure(intervals, n):
    """The measure of each of n rows' union of open intervals, from (row,
    lo, hi) array triples with 0 <= lo < hi <= 1. When no row holds two
    intervals, each row's measure is its hi - lo, which bincount adds onto
    0.0 as the sweep below would."""
    parts = [part for part in intervals if len(part[0])]
    if not parts:
        return np.zeros(n)
    row, lo, hi = parts[0] if len(parts) == 1 else (np.concatenate(a) for a in zip(*parts))
    if np.bincount(row, minlength=n).max() == 1:
        return np.bincount(row, minlength=n, weights=hi - lo)
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
    return np.bincount(event_row[run_end], minlength=n,
                       weights=event_t[run_end] - event_t[run_start])
