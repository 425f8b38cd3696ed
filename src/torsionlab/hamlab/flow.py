"""Hamiltonian flows and the gauge transformations between Floer pictures.

Flows integrate dx/dt = X_H(t, x) on the plane with fixed-step classical
Runge-Kutta, vectorized over point batches: each stage runs on the two
coordinate columns through one call of the compiled gradient.  Gauge
transformations move whole paths and strips through flow compositions:

    first argument:   l(t) = phi^t (phi^1)^{-1} (l'(t))
    second argument:  l(t) = phi^(1-t) (phi^1)^{-1} (l'(t))

Each gauge_plus costs two sweeps over [0, 1] regardless of how many
points ride along: one backward sweep applying (phi^1)^{-1} to every
sample at once, then one forward sweep that drops each time slice off at
its own extraction time.  A sweep stacks its columns once into a single
batch sorted by extraction time.  Between consecutive times the backward
sweep advances the prefix of columns already started and the forward
sweep the suffix not yet extracted, writing back in place; each column
comes back as its slice of the batch.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import StepFailure


def _rk4_segment(H, points: np.ndarray, t0: float, t1: float,
                 max_step: float) -> np.ndarray:
    """Integrate the batch from t0 to t1 (either direction).

    The stages run on the coordinate columns x, y with the partials
    (a, b) = (dH/dx1, dH/dy1): X_H = (b, -a), so each stage adds h*b to
    x and subtracts h*a from y, which rounds as adding h*(-a) would.
    """
    span = t1 - t0
    if span == 0.0 or points.size == 0:
        return points
    steps = max(1, math.ceil(abs(span) / max_step))
    h = span / steps
    t = t0
    x = points[:, 0].copy()
    y = points[:, 1].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            a1, b1 = H.partials(t, x, y)
            a2, b2 = H.partials(t + h / 2, x + (h / 2) * b1,
                                y - (h / 2) * a1)
            a3, b3 = H.partials(t + h / 2, x + (h / 2) * b2,
                                y - (h / 2) * a2)
            a4, b4 = H.partials(t + h, x + h * b3, y - h * a3)
            x = x + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
            y = y - (h / 6) * (a1 + 2 * a2 + 2 * a3 + a4)
            t += h
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise StepFailure(f"flow blew up near t = {t:.6g}")
    return np.stack([x, y], axis=-1)


def flow(H, t: float, point, max_step: float = 1e-3, t0: float = 0.0
         ) -> np.ndarray:
    """phi_H^t applied to a point or a batch of points (from time t0)."""
    arr = np.asarray(point, dtype=float)
    batch = arr.reshape(-1, H.space.dim)
    out = _rk4_segment(H, batch, float(t0), float(t), max_step)
    return out.reshape(arr.shape)


def _sorted_batch(columns: Sequence[np.ndarray], times: Sequence[float],
                  descending: bool):
    """The columns stacked into one batch ordered by time (ties keep
    their input order), the input index at each rank, the row offsets of
    each rank in the batch, and the sorted times."""
    sign = -1.0 if descending else 1.0
    order = sorted(range(len(columns)), key=lambda i: sign * float(times[i]))
    blocks = [np.asarray(columns[i], dtype=float) for i in order]
    offsets = np.cumsum([0] + [block.shape[0] for block in blocks])
    return (np.concatenate(blocks), order, offsets.tolist(),
            [float(times[i]) for i in order])


def transport_to_zero(H, columns: Sequence[np.ndarray],
                      times: Sequence[float], max_step: float = 1e-3
                      ) -> list[np.ndarray]:
    """Carry column i from its own start time times[i] back to time 0.

    One descending sweep over a batch sorted by start time: each
    segment advances the prefix of columns already started.
    """
    if not columns:
        return []
    batch, order, offsets, starts = _sorted_batch(columns, times, True)
    current = starts[0]
    for rank, target in enumerate(starts):
        if target < current:
            stop = offsets[rank]
            batch[:stop] = _rk4_segment(H, batch[:stop], current, target,
                                        max_step)
            current = target
    if current != 0.0:
        batch = _rk4_segment(H, batch, current, 0.0, max_step)
    result: list[np.ndarray] = [None] * len(columns)
    for rank, i in enumerate(order):
        result[i] = batch[offsets[rank]:offsets[rank + 1]]
    return result


def transport_from_zero(H, columns: Sequence[np.ndarray],
                        times: Sequence[float], max_step: float = 1e-3
                        ) -> list[np.ndarray]:
    """Carry all columns forward from time 0, extracting column i at
    times[i].

    One ascending sweep over a batch sorted by extraction time: each
    segment advances the suffix of columns not yet extracted, so a
    column's rows are final once the sweep passes its time.
    """
    if not columns:
        return []
    batch, order, offsets, targets = _sorted_batch(columns, times, False)
    result: list[np.ndarray] = [None] * len(columns)
    current = 0.0
    for rank, i in enumerate(order):
        target = targets[rank]
        if target > current:
            start = offsets[rank]
            batch[start:] = _rk4_segment(H, batch[start:], current, target,
                                         max_step)
            current = target
        result[i] = batch[offsets[rank]:offsets[rank + 1]]
    return result


def gauge_plus(H, which: str, points: np.ndarray, t_nodes=None,
               max_step: float = 1e-3) -> np.ndarray:
    """Transform a path (nt, dim) or strip grid (ns, nt, dim) sampled on
    t_nodes (uniform on [0, 1] when omitted)."""
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    arr = np.asarray(points, dtype=float)
    path = arr.ndim == 2
    grid = arr[None, :, :] if path else arr
    nt = grid.shape[1]
    t_nodes = (np.linspace(0.0, 1.0, nt) if t_nodes is None
               else np.asarray(t_nodes, dtype=float))
    columns = [grid[:, j, :] for j in range(nt)]
    at_zero = transport_to_zero(H, columns, [1.0] * nt, max_step)
    moved = transport_from_zero(
        H, at_zero, t_nodes if which == "first" else 1.0 - t_nodes, max_step)
    out = np.stack(moved, axis=1)
    return out[0] if path else out
