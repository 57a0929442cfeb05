"""Toroidal 2D world geometry: wrap-around and the cell-list join."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# A cell is this much wider than half the range, so rounding in
# ``x * n / side`` cannot put an in-range point three cells away.
_CELL_MARGIN = 1.0 + 1e-9

# (centre, point, |dx|, |dy|), one row per in-range pair.
Pairs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cells_per_axis(side: float, radius: float, cap: int) -> int:
    """Cells along one axis: each strictly wider than half of ``radius``, at most ``cap``.

    An in-range point is then at most two cells from its centre's.  Fewer
    than 5 cells become 1, so a centre's 5x5 block of neighbouring cells
    never holds a cell twice.
    """
    reach = 0.5 * radius * _CELL_MARGIN
    n = side / reach if reach > 0 else math.inf
    n = cap if not n < cap else int(n)
    return n if n >= 5 else 1


def _cell_of(v: np.ndarray, side: float, n: int) -> np.ndarray:
    return np.minimum((v * (n / side)).astype(np.int64), n - 1)


def _runs(firsts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``firsts[k], ..., firsts[k] + lens[k] - 1`` for each k, one run after another."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(firsts - (ends - lens), lens)


@dataclass(frozen=True, slots=True)
class ToroidalWorld:
    """Rectangular world with wrap-around on both axes."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"world sides must be positive, got {self.width} x {self.height}")

    def wrap(self, x: float, y: float) -> tuple[float, float]:
        """Map a point back into [0, width) x [0, height)."""
        wx = x % self.width
        wy = y % self.height
        # Float modulo of a tiny negative can land exactly on the extent.
        if wx == self.width:
            wx = 0.0
        if wy == self.height:
            wy = 0.0
        return wx, wy

    def join(
        self,
        cxs: np.ndarray,
        cys: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        radius: float,
        budget: float = math.inf,
    ) -> Iterator[Pairs]:
        """Every (centre, point) pair within ``radius`` on the torus, by cell list.

        Points and centres are wrapped positions.  The points are binned into
        cells strictly wider than half of ``radius`` (Allen & Tildesley's cell
        list), and each centre is tested against the points of its 5x5 block
        of cells, with wrap: about 0.7 times the candidates of a 3x3 block of
        cells wider than ``radius``.  Each test is the elementwise expression
        a scan of all points would use, so every boundary decision and every
        offset is the same as that scan's; the boundary is inclusive.

        Yields chunks (centre index, point index, |dx|, |dy|), grouped by
        centre, centres ascending; the chunks cover consecutive centres in
        order.  The order of one centre's points is unspecified: it follows
        the cell layout and ``np.argsort(cells)``, which is not stable.  A
        chunk's centres have at most ``budget`` candidates (points in their
        blocks) between them, unless a single centre has more.  A chunk's
        candidates are gathered inside the chunk, so no array is sized by
        the number of centres times the cells of a block.
        """
        if len(cxs) == 0:
            return
        # More cells than points buy nothing, and a tiny range would ask for
        # a huge grid.
        cap = max(math.isqrt(len(xs)), 1)
        nx = _cells_per_axis(self.width, radius, cap)
        ny = _cells_per_axis(self.height, radius, cap)
        cells = _cell_of(xs, self.width, nx) * ny + _cell_of(ys, self.height, ny)
        counts = np.bincount(cells, minlength=nx * ny)
        firsts = np.cumsum(counts) - counts
        # Cells out to ``kx`` and ``ky`` away along each axis are in a block.
        kx, ky = (2 if nx > 1 else 0), (2 if ny > 1 else 0)
        # ``points`` holds each column of cells, wrapped ``ky`` cells further
        # at both ends, one column after another: the ``2 * ky + 1`` cells of
        # a block's column are one run of it, from ``bounds[top]`` up to
        # ``bounds[top + 2 * ky + 1]``.
        tall = ny + 2 * ky
        padded = (np.arange(nx)[:, None] * ny + np.arange(-ky, ny + ky) % ny).ravel()
        points = np.argsort(cells)[_runs(firsts[padded], counts[padded])]
        bounds = np.zeros(len(padded) + 1, np.int64)
        np.cumsum(counts[padded], out=bounds[1:])
        # Every centre's candidates, from each cell's block total.
        tops = np.arange(nx)[:, None] * tall + np.arange(ny)
        columns = bounds[tops + 2 * ky + 1] - bounds[tops]
        steps = np.arange(-kx, kx + 1)
        block_totals = columns[(np.arange(nx)[:, None] + steps) % nx].sum(axis=1)
        ccx = _cell_of(cxs, self.width, nx)
        ccy = _cell_of(cys, self.height, ny)
        candidates = block_totals[ccx, ccy]
        reached = np.cumsum(candidates)

        r2 = radius * radius
        start = 0
        while start < len(cxs):
            before = reached[start - 1] if start else 0
            stop = max(int(np.searchsorted(reached, before + budget, side="right")), start + 1)
            # The candidates: for each centre, the run of ``points`` that
            # each column of its block holds, one run after another.
            top = (((ccx[start:stop, None] + steps) % nx) * tall + ccy[start:stop, None]).ravel()
            pt = points[_runs(bounds[top], bounds[top + 2 * ky + 1] - bounds[top])]
            ctr = np.repeat(np.arange(start, stop), candidates[start:stop])
            dx = np.abs(xs[pt] - cxs[ctr])
            np.minimum(dx, self.width - dx, out=dx)
            dy = np.abs(ys[pt] - cys[ctr])
            np.minimum(dy, self.height - dy, out=dy)
            hit = np.flatnonzero(dx * dx + dy * dy <= r2)
            yield ctr[hit], pt[hit], dx[hit], dy[hit]
            start = stop
