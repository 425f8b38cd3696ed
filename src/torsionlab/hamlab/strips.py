"""Sampled strip maps and the functionals evaluated on them.

A strip map is a rectangular grid of points of the plane indexed by
(tau, t).  Axis 0 runs along tau (the strip coordinate), axis 1 along
t in [0, 1].  All functionals use second-order stencils: np.gradient
with edge_order=2 for partials and trapezoid rules for the integrals.

The integrals come from one pass over blocks of tau-rows: the rows'
t-trapezoids, then one tau-trapezoid.  numpy sums each row of a block
alike whatever the number of rows, so this is the whole-grid double
trapezoid to the bit.  du/dtau is taken over the whole strip, since
np.gradient picks its uniform or non-uniform stencil from the spacings
it is given, and a block's own tau spacings may be equal where the
strip's are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import EuclideanSpace

# Samples in one block of whole tau-rows (at least one row); of 2^12 to
# 2^16, 2^14 ran the energy suite fastest.
BLOCK_POINTS = 2 ** 14


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


def line_integral(strip: StripMap, values: np.ndarray) -> float:
    return float(np.trapezoid(values, strip.t))


def integrals(strip: StripMap, H=None, rho=None) -> dict:
    """The integrals of one pass over the strip, by name: "area" of
    omega(du/dtau, du/dt); given H, "energy" and "geometric" as in
    ``energy_functional``, "rho_term" of rho'(tau) H, and as "base" and
    "top" rho times the line integral of H along each tau edge.
    rho=None means the constant profile 1.
    """
    tau, t, points, space = strip.tau, strip.t, strip.points, strip.space
    weights, slopes = ((np.ones_like(tau), np.zeros_like(tau))
                       if rho is None else (rho(tau), rho.slope(tau)))
    du_dtau = np.gradient(points, tau, axis=0, edge_order=2)
    sums, rows = {}, {}
    step = max(1, BLOCK_POINTS // t.size)
    for start in range(0, tau.size, step):
        block = slice(start, start + step)
        u, u_tau = points[block], du_dtau[block]
        u_t = np.gradient(u, t, axis=1, edge_order=2)
        density = {"area": space.omega(u_tau, u_t)}
        if H is not None:
            # X_H = (dH/dy1, -dH/dx1), from dH = omega(X_H, .)
            dx, dy = H.partials(t, u[..., 0], u[..., 1])
            w = weights[block, None]
            V = np.stack([u_t[..., 0] - w * dy, u_t[..., 1] - w * -dx],
                         axis=-1)
            density["energy"] = 0.5 * (space.metric_norm2(u_tau)
                                       + space.metric_norm2(V))
            density["geometric"] = space.omega(u_tau, V)
            h = H.value(t, u)
            if start == 0:
                sums["base"] = weights[0] * line_integral(strip, h[0])
            density["rho_term"] = slopes[block, None] * h
        for name, values in density.items():
            rows.setdefault(name, []).append(np.trapezoid(values, t, axis=1))
    if H is not None:
        sums["top"] = weights[-1] * line_integral(strip, h[-1])
    for name, parts in rows.items():
        sums[name] = float(np.trapezoid(np.concatenate(parts), tau))
    return sums


def pullback_area(strip: StripMap) -> float:
    """Integral of the pulled-back symplectic form over the grid."""
    return integrals(strip)["area"]


def energy_functional(strip: StripMap, H, rho=None) -> tuple[float, float]:
    """Elongated energy and geometric energy of a strip.

    Returns (E, geomE) where, writing V = du/dt - rho(tau) X_H(t, u),

        E     = 1/2 integral of |du/dtau|^2 + |V|^2
        geomE = integral of omega(du/dtau, V)

    rho=None means the constant profile 1.
    """
    sums = integrals(strip, H, rho)
    return sums["energy"], sums["geometric"]
