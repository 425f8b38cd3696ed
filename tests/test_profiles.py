"""Elongation profile shapes and derivatives."""

import numpy as np
import pytest

from torsionlab.hamlab import rho_k, rho_plus


def test_rho_plus_endpoints():
    rho = rho_plus()
    tau = np.array([-3.0, 0.0, 0.5, 1.0, 4.0])
    vals = rho(tau)
    assert vals[0] == 0.0
    assert vals[1] == 0.0
    assert vals[2] == pytest.approx(0.5)
    assert vals[3] == 1.0
    assert vals[4] == 1.0


def test_rho_plus_slope_is_nonnegative_and_peaks_midway():
    rho = rho_plus()
    tau = np.linspace(-1.0, 2.0, 301)
    slopes = rho.slope(tau)
    assert np.all(slopes >= 0.0)
    assert rho.slope(np.array([0.5]))[0] == pytest.approx(1.875)
    assert rho.slope(np.array([-0.2, 1.2])) == pytest.approx([0.0, 0.0])


def test_rho_k_plateau_and_support():
    rho = rho_k(2.0)
    tau = np.array([-3.0, -2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0, 2.5])
    vals = rho(tau)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert np.all(vals[2:7] == 1.0)
    assert vals[7] == 0.0 and vals[8] == 0.0


def test_rho_k_is_even():
    rho = rho_k(3.5)
    tau = np.linspace(0.0, 5.0, 101)
    assert np.allclose(rho(tau), rho(-tau))
    assert np.allclose(rho.slope(tau), -rho.slope(-tau))


def test_rho_k_one_touches_one_only_at_origin():
    rho = rho_k(1.0)
    assert rho(np.array([0.0]))[0] == 1.0
    assert rho(np.array([0.25]))[0] < 1.0
    assert rho(np.array([-0.25]))[0] < 1.0


def test_rho_k_small_scales_linearly():
    # below width one the family interpolates down to the zero profile
    small, unit = rho_k(0.25), rho_k(1.0)
    tau = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(small(tau), 0.25 * unit(tau))
    assert np.allclose(small.slope(tau), 0.25 * unit.slope(tau))
    zero = rho_k(0.0)
    assert np.all(zero(tau) == 0.0)
    assert np.all(zero.slope(tau) == 0.0)


def test_rho_k_rejects_negative_width():
    with pytest.raises(ValueError):
        rho_k(-0.1)


@pytest.mark.parametrize("make", [rho_plus,
                                  lambda: rho_k(2.0), lambda: rho_k(0.5)])
def test_slope_matches_finite_differences(make):
    """Central differences of the profile reproduce its slope field."""
    rho = make()
    rng = np.random.default_rng(7)
    tau = rng.uniform(-3.0, 3.0, size=200)
    h = 1e-5
    approx = (rho(tau + h) - rho(tau - h)) / (2 * h)
    assert np.abs(approx - rho.slope(tau)).max() < 1e-5


def test_profiles_accept_scalars():
    rho = rho_plus()
    assert float(rho(0.5)) == pytest.approx(0.5)
    assert float(rho.slope(0.5)) == pytest.approx(1.875)
