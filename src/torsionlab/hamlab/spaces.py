"""The phase space of every hamlab suite: the euclidean plane R^2.

Coordinates are x1, y1 (the expression grammar also reads x, y), the
symplectic form is omega = dx1 ^ dy1 and the metric is the euclidean
one, so both are constant and act on tangent vectors alone.  Point and
vector batches are numpy arrays of shape (..., 2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import UnboundedDomain

Box = Sequence[tuple[float, float]]


class EuclideanSpace:
    """R^2 with coordinates x1, y1 and omega = dx1 ^ dy1."""

    dim = 2
    coord_names = ("x1", "y1")

    def omega(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The pairing omega(a, b), pointwise over the batch."""
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    def metric_norm2(self, a: np.ndarray) -> np.ndarray:
        """Squared euclidean norm, pointwise over the batch."""
        return a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]

    def param_box(self, box: Box | None) -> list[tuple[float, float]]:
        """The caller's bounding box for extrema scans, checked."""
        if box is None:
            raise UnboundedDomain(
                "euclidean coordinates need an explicit bounding box")
        box = [tuple(map(float, pair)) for pair in box]
        if len(box) != self.dim:
            raise ValueError(f"box needs {self.dim} coordinate ranges")
        return box

    def __repr__(self):
        return "EuclideanSpace()"


def euclidean_plane() -> EuclideanSpace:
    """R^2 with coordinates x1, y1."""
    return EuclideanSpace()
