"""Strip maps, areas and energies."""

import numpy as np
import pytest

from torsionlab.hamlab import (HamiltonianField, StripMap, energy_functional,
                               euclidean_plane, pullback_area)

from strip_grid import strip_from_function

SPACE = euclidean_plane()


def bilinear_strip(A, B, ns=41, nt=41):
    tau = np.linspace(0.0, 1.0, ns)
    t = np.linspace(0.0, 1.0, nt)
    return strip_from_function(
        lambda s, u: np.stack([A * s, B * u], axis=-1), tau, t)


def test_shape_validation():
    tau = np.linspace(0, 1, 5)
    t = np.linspace(0, 1, 7)
    with pytest.raises(ValueError):
        StripMap(SPACE, tau, t, np.zeros((5, 7, 3)))
    with pytest.raises(ValueError):
        StripMap(SPACE, tau[:2], t, np.zeros((2, 7, 2)))


def test_constant_strip_has_zero_area():
    tau = np.linspace(-1, 1, 9)
    t = np.linspace(0, 1, 9)
    strip = strip_from_function(
        lambda s, u: np.stack([np.ones_like(s), np.zeros_like(u)],
                              axis=-1), tau, t)
    assert pullback_area(strip) == 0.0


def test_bilinear_area():
    strip = bilinear_strip(0.7, 0.5)
    assert pullback_area(strip) == pytest.approx(0.35, abs=1e-12)


def test_edges_are_the_extreme_rows():
    strip = bilinear_strip(1.0, 1.0, ns=5, nt=5)
    assert np.allclose(strip.base_edge[:, 0], 0.0)
    assert np.allclose(strip.top_edge[:, 0], 1.0)


def test_holomorphic_strip_energy_equals_area():
    """For a holomorphic map the energy and the area coincide."""
    tau = np.linspace(-1.0, 1.0, 201)
    t = np.linspace(0.0, 1.0, 101)

    def fn(s, u):
        z = 0.2 * np.exp(s + 1j * u)
        return np.stack([z.real, z.imag], axis=-1)

    strip = strip_from_function(fn, tau, t)
    H = HamiltonianField(SPACE, "0")
    energy, geometric = energy_functional(strip, H, None)
    area = pullback_area(strip)
    exact = 0.04 * (np.e**2 - np.e**-2) / 2
    assert geometric == pytest.approx(area, abs=1e-12)
    assert energy - geometric == pytest.approx(0.0, abs=1e-9)
    assert area == pytest.approx(exact, abs=1e-4)


def test_energy_profile_weighting():
    # rho = None means the constant profile 1
    strip = bilinear_strip(0.5, 0.5)
    H = HamiltonianField(SPACE, "x1")
    e_none, g_none = energy_functional(strip, H, None)
    assert np.isfinite(e_none) and np.isfinite(g_none)
    assert e_none >= g_none - 1e-12
