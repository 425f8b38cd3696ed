"""Identity verifiers and randomized suites."""

import numpy as np
import pytest
import sympy

from torsionlab.hamlab import (DifferenceHamiltonian, HamiltonianField,
                               euclidean_plane, flow, rho_k, rho_plus,
                               run_suite, verify_actiondiff,
                               verify_energy_identity)
from torsionlab.hamlab.verify import (suite_actiondiff, suite_energy,
                                      suite_hat)

from strip_grid import strip_from_function

SPACE = euclidean_plane()


def bump_strip(lo=-3.0, hi=3.0, ns=301, nt=101, amp=0.05):
    """Compactly supported wiggle around a base point."""
    tau = np.linspace(lo, hi, ns)
    t = np.linspace(0.0, 1.0, nt)
    rp = rho_plus()

    def fn(s, u):
        e = rp(s + 2.0) * (1.0 - rp(s - 1.0))
        return np.stack([0.1 + amp * e * (1 + u),
                         -0.2 + amp * e * u**2], axis=-1)

    return strip_from_function(fn, tau, t)


def test_energy_identity_without_hamiltonian_term():
    strip = bump_strip()
    H = HamiltonianField(SPACE, "0")
    report = verify_energy_identity(strip, H, rho_plus())
    assert report["passed"]
    assert report["discrepancy"] < 1e-12


def test_energy_identity_constant_hamiltonian():
    # boundary and slope terms must cancel against each other
    strip = bump_strip(ns=601)
    H = HamiltonianField(SPACE, "1")
    report = verify_energy_identity(strip, H, rho_plus(), tol=1e-6)
    assert report["passed"]


@pytest.mark.parametrize("profile", [rho_plus(), rho_k(2.0)])
def test_energy_identity_random_quadratic(profile):
    rng = np.random.default_rng(31)
    c = [float(v) for v in rng.uniform(-0.3, 0.3, size=5)]
    H = HamiltonianField(
        SPACE, f"{c[0]!r}*x1**2 + {c[1]!r}*x1*y1 + {c[2]!r}*y1**2"
               f" + {c[3]!r}*x1 + {c[4]!r}*y1")
    strip = bump_strip(ns=601, nt=201)
    report = verify_energy_identity(strip, H, profile, tol=1e-6)
    assert report["passed"]
    assert report["energy_slack"] >= -1e-10


@pytest.mark.parametrize("which,expected", [("first", 0.40),
                                            ("second", 0.30)])
def test_actiondiff_linear_hand_value(which, expected):
    """H = 0.3 x + 0.2 y on the bilinear strip has closed-form sides."""
    A, B = 0.7, 0.5
    s = np.linspace(0.0, 1.0, 9)
    t = np.linspace(0.0, 1.0, 101)
    strip = strip_from_function(
        lambda a, b: np.stack([A * a, B * b], axis=-1), s, t)
    H = HamiltonianField(SPACE, "3/10*x1 + 1/5*y1")
    report = verify_actiondiff(H, strip, which=which, tol=1e-9)
    assert report["passed"]
    assert report["lhs"] == pytest.approx(expected, abs=1e-9)
    assert report["rhs"] == pytest.approx(expected, abs=1e-9)


def test_actiondiff_quadratic_passes():
    s = np.linspace(0.0, 1.0, 9)
    t = np.linspace(0.0, 1.0, 257)
    strip = strip_from_function(
        lambda a, b: np.stack([0.3 * a + 0.1 * b,
                               0.2 * b + 0.2 * a * b], axis=-1), s, t)
    H = HamiltonianField(SPACE, "x1**2/5 + x1*y1/10 + y1**2/5")
    report = verify_actiondiff(H, strip, which="first", tol=1e-6)
    assert report["passed"]


def test_difference_hamiltonian_degenerate_pairs():
    H0 = HamiltonianField(SPACE, "x1**2 + y1/2")
    H1 = HamiltonianField(SPACE, "x1*y1 - y1**2/3")
    zero = HamiltonianField(SPACE, "0")
    pts = np.array([[0.3, -0.2], [1.0, 0.5]])

    diff = DifferenceHamiltonian(H0, zero)
    assert np.allclose(diff.value(0.3, pts), H0.value(0.3, pts))

    diff = DifferenceHamiltonian(zero, H1)
    assert np.allclose(diff.value(0.3, pts), -H1.value(0.7, pts))


def test_difference_hamiltonian_transport_geometry():
    # for the standard rotation the comparison map is rotation by t
    H1 = HamiltonianField(SPACE, "(x1**2 + y1**2)/2")
    H0 = HamiltonianField(SPACE, "0")
    diff = DifferenceHamiltonian(H0, H1)
    out = diff.psi(0.5, np.array([1.0, 0.0]))
    assert np.allclose(out, [np.cos(0.5), -np.sin(0.5)], atol=1e-9)
    assert np.allclose(diff.psi(1.0, np.array([[1.0, 0.0]])),
                       flow(H1, 1.0, np.array([[1.0, 0.0]])), atol=1e-9)


def test_psi_images_match_pointwise_transport():
    H0 = HamiltonianField(SPACE, "x1/3")
    H1 = HamiltonianField(SPACE, "x1**2/2 - y1**2/4")
    diff = DifferenceHamiltonian(H0, H1)
    grid = np.array([[0.1, 0.2], [-0.4, 0.6], [1.0, -1.0]])
    nodes = np.linspace(0.0, 1.0, 9)
    images = diff.psi_images(nodes, grid)
    for j in (0, 4, 8):
        assert np.allclose(images[j], diff.psi(nodes[j], grid), atol=1e-10)


def test_suite_smoke_runs():
    report = suite_energy(seed=3, cases=2)
    assert report["passed"]
    report = suite_actiondiff(seed=3, cases=2)
    assert report["passed"]
    report = suite_hat(seed=3, cases=3)
    assert report["passed"]


def test_run_suite_dispatch():
    report = run_suite("hofer", seed=1)
    assert report["suite"] == "hofer"
    assert report["passed"]
    assert report["resolution"] is None
    with pytest.raises(ValueError):
        run_suite("nonsense")


@pytest.mark.parametrize("suite", ["hat", "hofer"])
def test_run_suite_rejects_a_resolution_the_suite_cannot_use(suite):
    with pytest.raises(ValueError, match=f"suite '{suite}' takes no "
                                         "resolution"):
        run_suite(suite, resolution=0.5)


def test_run_suite_accepts_its_coarsest_resolution():
    assert run_suite("energy", resolution=1 / 8)["resolution"] == 1 / 8


@pytest.mark.parametrize("suite,families", [(suite_hat, 2),
                                            (suite_energy, 1)])
def test_suites_compile_each_family_once(monkeypatch, suite, families):
    """A suite compiles its random families once per call, not per case:
    two lambdify calls (value and fused gradient) per family, the time
    reversal of hat's family included."""
    calls = []
    original = sympy.lambdify

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sympy, "lambdify", counting)
    report = suite(seed=5, cases=4)
    assert report["passed"]
    assert len(calls) <= 2 * families
