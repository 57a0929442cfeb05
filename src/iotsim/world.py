"""Toroidal 2D world geometry and the disc query."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def disc(
        self, xs: np.ndarray, ys: np.ndarray, cx: float, cy: float, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Points of wrapped (xs, ys) within ``radius`` of (cx, cy) on the torus.

        Returns their indices in ascending order and, for each, the shortest
        per-axis offsets |dx| and |dy|.  The boundary is inclusive: a point
        at exactly ``radius`` is in range.
        """
        dx = np.abs(xs - cx)
        np.minimum(dx, self.width - dx, out=dx)
        dy = np.abs(ys - cy)
        np.minimum(dy, self.height - dy, out=dy)
        hits = np.nonzero(dx * dx + dy * dy <= radius * radius)[0]
        return hits, dx[hits], dy[hits]
