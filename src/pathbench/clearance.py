"""The clearance grid: a lower bound per cell on the distance to the obstacles.

`CollisionField.clearance` builds one per environment on first use, and
this module loads with the first. A segment from an in-bounds point that is
shorter than the bound of the point's cell meets no obstacle, so RRT*'s
growth loop skips each edge check that such a bound answers: a safety
certificate in the sense of Bialkowski, Otte, Karaman & Frazzoli
("Efficient collision checking in sampling-based motion planning via safety
certificates", IJRR 2016). `CollisionField.free` clears points by it too.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

from .geometry import Bounds

#: Cells along the longer side of the bounds.
CELLS = 48
#: The grid's margins, relative to the magnitudes whose rounding they
#: cover: thousands of times that rounding (see `Clearance`).
MARGIN = 2.0 ** -40


class Clearance:
    """Lower bounds on the distance from each cell of the bounds to every
    blocked point of the obstacles.

    The cells are squares of side 1 / `scale` from (x_min, y_min), at most
    `CELLS` to a side, the last ones reaching to the far bounds. `cells`
    holds their bounds row by row, `stride` to a row; each row, and the
    list, ends with a copy of its last cell or row, for a point on a far
    bound. A disk counts by its distance to the closed disk, a polygon by
    the distance to its closed box, which holds its seams, and no obstacle
    as +inf. A segment from an in-bounds point p shorter than `at(p)` lies
    in the ball of that radius around p, so it meets nothing, and it is
    free when its other end lies in the convex bounds too.

    The margins scale with the bounds' largest magnitude M, not only with
    their width. `at` rounds a point into a cell within about 2^-48 M, and
    each cell is widened by `MARGIN` M; each bound is cut by `MARGIN` times
    M plus the obstacle's largest numbers, far above the rounding of its
    gaps (by `np.hypot`, which does not overflow at the widest bounds the
    input rules allow) and of a `math.hypot` length compared with it. A
    nan, an overflow or a bound <= 0 reads 0.0: not clear.
    """

    __slots__ = ("bounds", "scale", "stride", "cells")

    def __init__(self, bounds: Bounds, scale: float, stride: int, cells: Sequence[float]):
        self.bounds, self.scale, self.stride, self.cells = bounds, scale, stride, cells

    def at(self, x: float, y: float) -> float:
        """The bound of the cell holding (x, y) if that lies in the bounds, else 0.0."""
        x_min, x_max, y_min, y_max = self.bounds
        if not (x_min <= x <= x_max and y_min <= y <= y_max):
            return 0.0
        scale = self.scale
        return self.cells[int((y - y_min) * scale) * self.stride + int((x - x_min) * scale)]

    def at_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """`at` of each point of two float64 columns, in one array pass
        (`astype` truncates toward 0, as `int` does)."""
        x_min, x_max, y_min, y_max = self.bounds
        bound = np.zeros(len(xs))
        inside = np.flatnonzero((xs >= x_min) & (xs <= x_max) & (ys >= y_min) & (ys <= y_max))
        cols = ((xs[inside] - x_min) * self.scale).astype(np.intp)
        rows = ((ys[inside] - y_min) * self.scale).astype(np.intp)
        bound[inside] = np.asarray(self.cells)[rows * self.stride + cols]
        return bound

    @classmethod
    def build(cls, b: Bounds, obstacles: Sequence[tuple]) -> "Clearance":
        """The grid over bounds b of obstacles given as (x_lo, x_hi, y_lo,
        y_hi, reach): a closed box and the distance that the obstacle reaches
        beyond it, a disk's radius around its centre. Built one obstacle at a
        time, so its memory does not grow with their number."""
        mag = max(map(abs, b))
        side = max(b.width, b.height) / CELLS
        scale = 1.0 / side

        def axis(lo, hi):
            # Each cell's edges along one axis, widened by the lookup's margin.
            edges = lo + side * np.arange(min(CELLS, max(1, math.ceil((hi - lo) * scale))) + 1)
            edges[-1] = max(edges[-1], hi)
            return edges[:-1] - MARGIN * mag, edges[1:] + MARGIN * mag

        x_lo, x_hi = axis(b.x_min, b.x_max)
        y_lo, y_hi = axis(b.y_min, b.y_max)
        bound = np.full((len(y_lo), len(x_lo)), np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for box_x_lo, box_x_hi, box_y_lo, box_y_hi, reach in obstacles:
                gap_x = np.maximum(np.maximum(box_x_lo - x_hi, x_lo - box_x_hi), 0.0)
                gap_y = np.maximum(np.maximum(box_y_lo - y_hi, y_lo - box_y_hi), 0.0)
                gap = np.hypot(gap_x, gap_y[:, None])
                size = mag + max(map(abs, (box_x_lo, box_x_hi, box_y_lo, box_y_hi))) + reach
                gap -= reach + MARGIN * size
                np.minimum(bound, gap, out=bound)
        if obstacles:  # an infinite bound is an overflow
            bound[bound == np.inf] = 0.0
        bound = np.pad(np.where(bound > 0.0, bound, 0.0), ((0, 1), (0, 1)), mode="edge")
        return cls(b, scale, bound.shape[1], array("d", bound.tobytes()))
