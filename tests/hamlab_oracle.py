"""The flattened field evaluation, the per-point RK4 stage and the
per-node Hofer scan, kept as oracles.

``HamiltonianField.value`` and ``partials`` hand the coordinate columns
and the time straight to the compiled callables and let numpy broadcast
them; ``torsionlab.hamlab.flow`` runs each RK4 stage on the two
coordinate columns through one ``partials`` call, and
``torsionlab.hamlab.fields.hofer_norms`` scans the windows of many time
nodes in one evaluation.  This module keeps the paths those replaced:
``value`` and ``vector_field`` flatten the point rows and spread the
time over them, every RK4 stage goes through ``vector_field`` on a batch
of shape (n, 2), and every time node and sign gets its own scan and
refinement.  The arithmetic is the same, so the property tests require
equal bits.
"""

import math

import numpy as np

from torsionlab.errors import StepFailure
from torsionlab.hamlab.fields import HoferNorms


def _arguments(H, t, points: np.ndarray):
    """The point rows flattened to (m, 2), and the compiled callables'
    arguments: the time spread over the rows when it is not a scalar,
    the two coordinate columns and the coefficient values."""
    flat = points.reshape(-1, 2)
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim:
        t_arr = np.broadcast_to(t_arr, points.shape[:-1]).reshape(-1)
    return flat, (t_arr, flat[:, 0], flat[:, 1], *H._coefficient_values())


def value(H, t, points) -> np.ndarray:
    """H(t, points); t is a scalar, one value per point row, or anything
    that broadcasts across the leading point axes."""
    points = np.asarray(points, dtype=float)
    flat, args = _arguments(H, t, points)
    out = np.asarray(H._value(*args), dtype=float)
    if out.shape != flat.shape[:1]:
        out = np.broadcast_to(out, flat.shape[:1])
    return out.reshape(points.shape[:-1])


def gradient(H, t, points) -> np.ndarray:
    """(dH/dx1, dH/dy1) at the points, in a trailing axis of length 2."""
    points = np.asarray(points, dtype=float)
    flat, args = _arguments(H, t, points)
    out = np.empty(flat.shape)
    for i, part in enumerate(H._gradient(*args)):
        out[:, i] = part
    return out.reshape(points.shape)


def vector_field(H, t, points) -> np.ndarray:
    """X_H = (dH/dy1, -dH/dx1), from dH = omega(X_H, .)."""
    grad = gradient(H, t, points)
    field = np.empty_like(grad)
    field[..., 0] = grad[..., 1]
    field[..., 1] = -grad[..., 0]
    return field


def energy_functional(strip, H, rho=None) -> tuple[float, float]:
    """The elongated and geometric energies of a strip, X_H from
    ``vector_field`` on the whole (tau, t) grid."""
    from torsionlab.hamlab.strips import integrate_grid

    du_dtau, du_dt = strip.partials()
    field = vector_field(H, strip.t, strip.points)
    weights = np.ones_like(strip.tau) if rho is None else rho(strip.tau)
    V = du_dt - weights[:, None, None] * field
    density = 0.5 * (strip.space.metric_norm2(du_dtau)
                     + strip.space.metric_norm2(V))
    return (integrate_grid(strip, density),
            integrate_grid(strip, strip.space.omega(du_dtau, V)))


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
            k1 = vector_field(H, t, points)
            k2 = vector_field(H, t + h / 2, points + (h / 2) * k1)
            k3 = vector_field(H, t + h / 2, points + (h / 2) * k2)
            k4 = vector_field(H, t + h, points + h * k3)
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
