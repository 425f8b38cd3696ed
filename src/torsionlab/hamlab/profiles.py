"""Elongation profiles switching the Hamiltonian term on and off.

All profiles are C^2 piecewise quintics (smoothstep 6x^5 - 15x^4 + 10x^3
on each transition interval) with analytic derivatives:

    rho_plus:   0 for tau <= 0, 1 for tau >= 1, nondecreasing;
    rho_k(K):   for K >= 1, rho_plus shifted in from the left, the
                mirrored descent on the right, and a plateau of value 1
                on |tau| <= K - 1; for 0 <= K < 1 the interpolation
                K * rho_1, which vanishes identically at K = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_d(x: np.ndarray) -> np.ndarray:
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    return np.where(inside, 30.0 * x * x * (x - 1.0) * (x - 1.0), 0.0)


@dataclass(frozen=True)
class ElongationProfile:
    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    K: float | None = None

    def __call__(self, tau):
        return self.value(np.asarray(tau, dtype=float))

    def slope(self, tau):
        return self.derivative(np.asarray(tau, dtype=float))


def rho_plus() -> ElongationProfile:
    return ElongationProfile("rho_plus", _smoothstep, _smoothstep_d)


def rho_k(K: float) -> ElongationProfile:
    """Compactly supported profile: 0 for |tau| >= K, 1 for |tau| <= K-1."""
    K = float(K)
    if K < 0:
        raise ValueError("K must be nonnegative")
    if K >= 1:
        def value(tau):
            return np.where(tau <= 0, _smoothstep(tau + K),
                            _smoothstep(K - tau))

        def derivative(tau):
            return np.where(tau <= 0, _smoothstep_d(tau + K),
                            -_smoothstep_d(K - tau))
    else:
        def value(tau):
            return K * np.where(tau <= 0, _smoothstep(tau + 1),
                                _smoothstep(1 - tau))

        def derivative(tau):
            return K * np.where(tau <= 0, _smoothstep_d(tau + 1),
                                -_smoothstep_d(1 - tau))
    return ElongationProfile("rho_K", value, derivative, K=K)
