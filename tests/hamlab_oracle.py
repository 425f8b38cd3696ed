"""The per-point RK4 stage and the per-node Hofer scan, kept as oracles.

``torsionlab.hamlab.flow`` runs each RK4 stage on the two coordinate
columns through one call of the compiled gradient, and
``torsionlab.hamlab.fields.hofer_norms`` scans the windows of many time
nodes in one evaluation.  This module keeps the loops those replaced:
every stage goes through ``vector_field`` on a batch of shape (n, 2),
and every time node and sign gets its own scan and refinement.  The
arithmetic is the same, so the property tests require equal bits.
"""

import math

import numpy as np

from torsionlab.errors import StepFailure
from torsionlab.hamlab.fields import HoferNorms


def rk4_segment(H, points: np.ndarray, t0: float, t1: float,
                max_step: float) -> np.ndarray:
    """Integrate the batch from t0 to t1 (either direction)."""
    span = t1 - t0
    if span == 0.0 or points.size == 0:
        return points
    steps = max(1, math.ceil(abs(span) / max_step))
    h = span / steps
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = H.vector_field(t, points)
            k2 = H.vector_field(t + h / 2, points + (h / 2) * k1)
            k3 = H.vector_field(t + h / 2, points + (h / 2) * k2)
            k4 = H.vector_field(t + h, points + h * k3)
            points = points + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            if not np.all(np.isfinite(points)):
                raise StepFailure(f"flow blew up near t = {t:.6g}")
    return points


def _scan(H, box, per_axis: int, t: float, sign: float
          ) -> tuple[float, np.ndarray]:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = sign * H.value(t, points)
    best = int(np.argmax(values))
    return float(values[best]), points[best]


def _extremum(H, box, per_axis: int, rounds: int, t: float, sign: float
              ) -> float:
    outer = list(box)
    current = list(box)
    best_value, best_point = _scan(H, current, per_axis, t, sign)
    for _ in range(rounds):
        next_box = []
        for i, (lo, hi) in enumerate(current):
            width = (hi - lo) / (per_axis - 1)
            center = best_point[i]
            next_box.append((max(outer[i][0], center - 1.5 * width),
                             min(outer[i][1], center + 1.5 * width)))
        current = next_box
        value, point = _scan(H, current, per_axis, t, sign)
        if value > best_value:
            best_value, best_point = value, point
    return sign * best_value


def hofer_norms(H, box, resolution: int = 33, time_nodes: int = 65,
                refine_rounds: int = 3) -> HoferNorms:
    """E-, E+ and the Hofer norm, one scan per time node and sign."""
    pbox = H.space.param_box(box)
    per_axis = max(5, min(int(resolution), 200))
    t_nodes = np.linspace(0.0, 1.0, int(time_nodes))
    maxima = np.empty_like(t_nodes)
    minima = np.empty_like(t_nodes)
    for j, t in enumerate(t_nodes):
        maxima[j] = _extremum(H, pbox, per_axis, refine_rounds, float(t),
                              1.0)
        minima[j] = _extremum(H, pbox, per_axis, refine_rounds, float(t),
                              -1.0)
    e_plus = float(np.trapezoid(maxima, t_nodes))
    e_minus = float(np.trapezoid(-minima, t_nodes))
    return HoferNorms(e_minus=e_minus, e_plus=e_plus,
                      norm=e_minus + e_plus)
