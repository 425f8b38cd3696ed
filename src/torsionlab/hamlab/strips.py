"""Sampled strip maps and the functionals evaluated on them.

A strip map is a rectangular grid of points of the plane indexed by
(tau, t).  Axis 0 runs along tau (the strip coordinate), axis 1 along
t in [0, 1].  All functionals use second-order stencils: np.gradient
with edge_order=2 for partials and trapezoid rules for the integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import EuclideanSpace


@dataclass(frozen=True)
class StripMap:
    space: EuclideanSpace
    tau: np.ndarray
    t: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        t = np.asarray(self.t, dtype=float)
        points = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "points", points)
        if points.shape != (tau.size, t.size, self.space.dim):
            raise ValueError("points must have shape (len(tau), len(t), dim)")
        if tau.size < 3 or t.size < 3:
            raise ValueError("need at least 3 samples along each axis")

    @property
    def base_edge(self) -> np.ndarray:
        return self.points[0]

    @property
    def top_edge(self) -> np.ndarray:
        return self.points[-1]

    def partials(self) -> tuple[np.ndarray, np.ndarray]:
        """(du/dtau, du/dt), computed on first use and kept read-only
        on the strip, which is never changed after construction."""
        cached = self.__dict__.get("_partials")
        if cached is None:
            du_dtau = np.gradient(self.points, self.tau, axis=0,
                                  edge_order=2)
            du_dt = np.gradient(self.points, self.t, axis=1, edge_order=2)
            du_dtau.flags.writeable = du_dt.flags.writeable = False
            cached = (du_dtau, du_dt)
            object.__setattr__(self, "_partials", cached)
        return cached


def integrate_grid(strip: StripMap, values: np.ndarray) -> float:
    """Double trapezoid of a scalar grid over (tau, t)."""
    return float(np.trapezoid(np.trapezoid(values, strip.t, axis=1),
                              strip.tau, axis=0))


def line_integral(strip: StripMap, values: np.ndarray) -> float:
    return float(np.trapezoid(values, strip.t))


def pullback_area(strip: StripMap) -> float:
    """Integral of the pulled-back symplectic form over the grid."""
    du_dtau, du_dt = strip.partials()
    integrand = strip.space.omega(du_dtau, du_dt)
    return integrate_grid(strip, integrand)


def energy_functional(strip: StripMap, H, rho=None) -> tuple[float, float]:
    """Elongated energy and geometric energy of a strip.

    Returns (E, geomE) where, writing V = du/dt - rho(tau) X_H(t, u),

        E     = 1/2 integral of |du/dtau|^2 + |V|^2
        geomE = integral of omega(du/dtau, V)

    rho=None means the constant profile 1.
    """
    du_dtau, du_dt = strip.partials()
    # X_H = (dH/dy1, -dH/dx1), from dH = omega(X_H, .); t broadcasts
    # along the columns and a constant partial over the whole grid
    dx, dy = H.partials(strip.t, strip.points[..., 0], strip.points[..., 1])
    weights = 1.0 if rho is None else rho(strip.tau)[:, None]
    V = np.stack([du_dt[..., 0] - weights * dy,
                  du_dt[..., 1] - weights * -dx], axis=-1)
    density = 0.5 * (strip.space.metric_norm2(du_dtau)
                     + strip.space.metric_norm2(V))
    energy = integrate_grid(strip, density)
    geometric = integrate_grid(strip, strip.space.omega(du_dtau, V))
    return energy, geometric
