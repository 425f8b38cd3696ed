"""Numerical verification of action, energy, and norm identities.

Every verifier returns a report dict and never raises on a failed
check; the boolean "passed" field carries the verdict.  The suites
drive randomized families of cases from a seed and are what the CLI
exposes.

Discretization notes.  All identities checked here hold for arbitrary
smooth strips, so the random families only need smoothness, not any
boundary or decay condition.  The double-trapezoid area term enters
both sides of the energy identity with identical stencil values, so
the reported discrepancy measures only the profile-dependent terms and
converges at second order.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from .fields import HamiltonianField, hofer_norms
from .flow import flow, gauge_plus, transport_to_zero
from .profiles import rho_k, rho_plus
from .spaces import euclidean_plane
from .strips import StripMap, integrals, line_integral, pullback_area


def verify_energy_identity(strip: StripMap, H, rho, tol: float = 1e-6
                           ) -> dict:
    """Check geometric energy against area plus profile boundary terms.

    The identity: for any smooth strip u and profile rho,

        geomE = area + rho(hi) L(hi) - rho(lo) L(lo) - I(rho' H)

    with L the Hamiltonian line integral along a tau edge and I the
    double integral over the strip.
    """
    sums = integrals(strip, H, rho)
    rhs = sums["area"] + sums["top"] - sums["base"] - sums["rho_term"]
    discrepancy = abs(sums["geometric"] - rhs)
    return {
        "identity": "energy",
        "lhs": sums["geometric"],
        "rhs": rhs,
        "discrepancy": discrepancy,
        "passed": bool(discrepancy <= tol),
        "tol": tol,
        "energy": sums["energy"],
        "energy_slack": sums["energy"] - sums["geometric"],
        "area": sums["area"],
        "rho_term": sums["rho_term"],
    }


def verify_actiondiff(H, strip: StripMap, which: str = "first",
                      tol: float = 1e-6, max_step: float = 1e-3) -> dict:
    """Check that the gauge transformation trades area for action.

    With w the transformed strip and G the Hamiltonian used in the
    line integrals (H itself for the first argument, its time reversal
    for the second):

        area(w) + L_G(top of w) = area(w') + L_G(base of w)
    """
    moved = gauge_plus(H, which, strip.points, t_nodes=strip.t,
                       max_step=max_step)
    gauged = StripMap(strip.space, strip.tau, strip.t, moved)
    G = H if which == "first" else H.time_reversed()
    lhs = pullback_area(gauged) + line_integral(
        strip, G.value(strip.t, gauged.top_edge))
    rhs = pullback_area(strip) + line_integral(
        strip, G.value(strip.t, gauged.base_edge))
    discrepancy = abs(lhs - rhs)
    return {
        "identity": "actiondiff",
        "which": which,
        "lhs": lhs,
        "rhs": rhs,
        "discrepancy": discrepancy,
        "passed": bool(discrepancy <= tol),
        "tol": tol,
    }


class DifferenceHamiltonian:
    """The Hamiltonian generating one flow followed by another's inverse.

    value(t, x) = -H1(1-t, x) + H0(t, psi_t(x)) where psi_t composes
    the time-1 flow of H1 with the inverse of its time-(1-t) flow.
    psi_t is evaluated by integrating the time-reversed field of H1
    from t down to 0.
    """

    def __init__(self, h0, h1, max_step: float = 1e-3):
        self.space = h0.space
        self.h0 = h0
        self.h1 = h1
        self.max_step = max_step
        self._reversed = h1.time_reversed()

    def psi(self, t: float, points) -> np.ndarray:
        return flow(self._reversed, 0.0, points, self.max_step, t0=t)

    def psi_images(self, t_nodes, points) -> list[np.ndarray]:
        """psi_t(points) for every node, in one staggered sweep."""
        base = np.asarray(points, dtype=float).reshape(-1, self.space.dim)
        columns = [base] * len(t_nodes)
        return transport_to_zero(self._reversed, columns,
                                 [float(t) for t in t_nodes], self.max_step)

    def value(self, t, points) -> np.ndarray:
        """The value at points; t is a scalar or, as for a field, one
        value per point row.  Each distinct time costs one psi sweep."""
        points = np.asarray(points, dtype=float)
        times = np.asarray(t, dtype=float)
        if times.ndim == 0:
            t = float(t)
            return (-self.h1.value(1.0 - t, points)
                    + self.h0.value(t, self.psi(t, points)))
        times = np.broadcast_to(times, points.shape[:-1])
        out = np.empty(times.shape)
        for tj in np.unique(times):
            rows = times == tj
            out[rows] = self.value(float(tj), points[rows])
        return out


_QUADRATIC = "c0*x1**2 + c1*x1*y1 + c2*y1**2 + c3*x1 + c4*y1"
_COEFFICIENTS = ("c0", "c1", "c2", "c3", "c4", "c5", "c6")


def _quadratic_family(space, with_time: bool = False) -> HamiltonianField:
    """Quadratic Hamiltonians with coefficients c0..c4, plus the time
    terms c5*t*x1 + c6*t*y1 when asked; drawn by _draw."""
    if with_time:
        return HamiltonianField(space, _QUADRATIC + " + c5*t*x1 + c6*t*y1",
                                _COEFFICIENTS)
    return HamiltonianField(space, _QUADRATIC, _COEFFICIENTS[:5])


def _linear_family(space) -> HamiltonianField:
    return HamiltonianField(space, "c0*x1 + c1*y1", _COEFFICIENTS[:2])


def _draw(rng, family: HamiltonianField, scale: float, size: int = 7
          ) -> HamiltonianField:
    """A member of the family with coefficients uniform in
    [-scale, scale].  It consumes ``size`` draws whatever the family
    uses, so a seed selects the same cases: quadratic draws take 7,
    time terms or not, and linear ones 2."""
    c = rng.uniform(-scale, scale, size=size)
    return family.bind(c[:len(family.coefficients)])


def _envelope(tau: np.ndarray) -> np.ndarray:
    # rises on [-4.5, -0.5], falls on [0.5, 4.5]; zero outside.  The
    # transitions overlap the shoulders of both stock profiles so the
    # leading second-order quadrature term does not cancel.
    rp = rho_plus()
    return rp((tau + 4.5) / 4.0) * (1.0 - rp((tau - 0.5) / 4.0))


def _bump_points(p0, coef, tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    env = _envelope(tau)[:, None]
    tt = t[None, :]
    points = np.empty((tau.size, t.size, len(p0)))
    for c in range(len(p0)):
        points[..., c] = p0[c] + env * (coef[c, 0] + coef[c, 1] * tt
                                        + coef[c, 2] * tt ** 2)
    return points


def suite_energy(seed: int = 0, resolution: float = 1 / 256,
                 tol: float = 1e-6, cases: int = 50) -> dict:
    """Energy identity on random compactly supported strips.

    Runs every case at three nested grid spacings; reports the worst
    finest-grid discrepancy and the pooled convergence order.
    """
    rng = np.random.default_rng(seed)
    space = euclidean_plane()
    spacings = [resolution * 4, resolution * 2, resolution]
    ratios: list[float] = []
    worst = 0.0
    quadratic = _quadratic_family(space)
    for index in range(cases):
        H = _draw(rng, quadratic, 0.25)
        rho = rho_plus() if index % 2 == 0 else rho_k(2.0)
        p0 = rng.uniform(-0.25, 0.25, size=2)
        coef = rng.uniform(-0.03, 0.03, size=(2, 3))
        errors = []
        for h in spacings:
            tau = np.linspace(-5.0, 5.0, int(round(10.0 / h)) + 1)
            t = np.linspace(0.0, 1.0, int(round(1.0 / h)) + 1)
            strip = StripMap(space, tau, t, _bump_points(p0, coef, tau, t))
            report = verify_energy_identity(strip, H, rho, tol)
            errors.append(report["discrepancy"])
        worst = max(worst, errors[-1])
        for coarse, fine in zip(errors, errors[1:]):
            if fine >= 1e-13 and coarse >= 1e-13:
                ratios.append(math.log2(coarse / fine))
    order = statistics.median(ratios) if ratios else None
    passed = worst <= tol and (order is None or abs(order - 2.0) <= 0.3)
    return {
        "suite": "energy",
        "cases": cases,
        "max_discrepancy": worst,
        "convergence_order": order,
        "passed": bool(passed),
        "seed": seed,
        "resolution": resolution,
        "tol": tol,
    }


def suite_actiondiff(seed: int = 0, resolution: float = 1 / 512,
                     tol: float = 1e-6, cases: int = 20) -> dict:
    """Gauge/action identity on ruled analytic strips.

    Strips are affine in the s coordinate, so the s direction is
    integrated exactly and the t grid controls the error.  Hamiltonians
    alternate between linear and quadratic; the transform argument
    alternates between first and second.
    """
    rng = np.random.default_rng(seed)
    space = euclidean_plane()
    nt = int(round(1.0 / resolution)) + 1
    s = np.linspace(0.0, 1.0, 9)
    t = np.linspace(0.0, 1.0, nt)
    worst = 0.0
    linear = _linear_family(space)
    quadratic = _quadratic_family(space)
    for index in range(cases):
        H = (_draw(rng, linear, 0.4, 2) if index % 2 == 0
             else _draw(rng, quadratic, 0.25))
        alpha = rng.uniform(-0.4, 0.4, size=(2, 3))
        beta = rng.uniform(-0.3, 0.3, size=(2, 3))
        tt = t[None, :]
        ss = s[:, None]
        comps = []
        for c in range(2):
            a = alpha[c, 0] + alpha[c, 1] * tt + alpha[c, 2] * tt ** 2
            b = beta[c, 0] + beta[c, 1] * tt + beta[c, 2] * tt ** 2
            comps.append(a + ss * b)
        strip = StripMap(space, s, t, np.stack(comps, axis=-1))
        which = "first" if index % 4 < 2 else "second"
        report = verify_actiondiff(H, strip, which=which, tol=tol)
        worst = max(worst, report["discrepancy"])
    return {
        "suite": "actiondiff",
        "cases": cases,
        "max_discrepancy": worst,
        "convergence_order": None,
        "passed": bool(worst <= tol),
        "seed": seed,
        "resolution": resolution,
        "tol": tol,
    }


def suite_hat(seed: int = 0, tol: float = 1e-8, cases: int = 50) -> dict:
    """Hofer-part inequalities for the difference Hamiltonian.

    For each random pair the negative and positive parts of the
    difference Hamiltonian are compared against the cross sums of the
    parts of the inputs.  All extrema are taken over a shared finite
    sample (the base grid united with its transported images), which
    makes the inequalities exact up to float rounding.
    """
    rng = np.random.default_rng(seed)
    space = euclidean_plane()
    side = np.linspace(-2.0, 2.0, 15)
    gx, gy = np.meshgrid(side, side, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    t_nodes = np.linspace(0.0, 1.0, 25)
    worst = 0.0
    quadratic = _quadratic_family(space, with_time=True)
    for _ in range(cases):
        h0 = _draw(rng, quadratic, 0.5)
        h1 = _draw(rng, quadratic, 0.5)
        diff = DifferenceHamiltonian(h0, h1, max_step=2e-3)
        images = diff.psi_images(t_nodes, grid)
        hat_min = np.empty_like(t_nodes)
        hat_max = np.empty_like(t_nodes)
        h0_min = np.empty_like(t_nodes)
        h0_max = np.empty_like(t_nodes)
        h1r_min = np.empty_like(t_nodes)
        h1r_max = np.empty_like(t_nodes)
        for j, tj in enumerate(t_nodes):
            h1_vals = h1.value(1.0 - tj, grid)
            hat_vals = -h1_vals + h0.value(tj, images[j])
            hat_min[j] = hat_vals.min()
            hat_max[j] = hat_vals.max()
            pooled = h0.value(tj, np.concatenate([grid, images[j]]))
            h0_min[j] = pooled.min()
            h0_max[j] = pooled.max()
            h1r_min[j] = h1_vals.min()
            h1r_max[j] = h1_vals.max()
        e_minus_hat = np.trapezoid(-hat_min, t_nodes)
        e_plus_hat = np.trapezoid(hat_max, t_nodes)
        e_minus_h0 = np.trapezoid(-h0_min, t_nodes)
        e_plus_h0 = np.trapezoid(h0_max, t_nodes)
        e_minus_h1 = np.trapezoid(-h1r_min, t_nodes)
        e_plus_h1 = np.trapezoid(h1r_max, t_nodes)
        violation = max(e_minus_hat - (e_minus_h0 + e_plus_h1),
                        e_plus_hat - (e_plus_h0 + e_minus_h1), 0.0)
        worst = max(worst, violation)
    return {
        "suite": "hat",
        "cases": cases,
        "max_discrepancy": worst,
        "convergence_order": None,
        "passed": bool(worst <= tol),
        "seed": seed,
        "resolution": None,
        "tol": tol,
    }


def suite_hofer(seed: int = 0, tol: float = 1e-6) -> dict:
    """Hofer norm sanity checks against closed-form values."""
    rng = np.random.default_rng(seed)
    space = euclidean_plane()
    unit_box = [(-1.0, 1.0), (-1.0, 1.0)]
    pi_box = [(-math.pi, math.pi), (-math.pi, math.pi)]
    checks: list[float] = []

    c = rng.uniform(-2.0, 2.0)
    norms = hofer_norms(HamiltonianField(space, f"{c!r}"), box=unit_box)
    checks.append(max(abs(norms.e_minus + c), abs(norms.e_plus - c),
                      abs(norms.norm)))

    wave = HamiltonianField(space, "sin(x1)")
    norms = hofer_norms(wave, box=pi_box)
    checks.append(max(abs(norms.e_minus - 1.0), abs(norms.e_plus - 1.0),
                      abs(norms.norm - 2.0)))

    a = rng.uniform(0.5, 3.0)
    norms = hofer_norms(HamiltonianField(space, f"{a!r}*sin(x1)"),
                        box=pi_box)
    checks.append(abs(norms.norm - 2.0 * a))

    norms = hofer_norms(HamiltonianField(space, "t*sin(x1)"), box=pi_box)
    checks.append(max(abs(norms.e_minus - 0.5), abs(norms.e_plus - 0.5),
                      abs(norms.norm - 1.0)))

    norms = hofer_norms(HamiltonianField(space, "t**2 - 1/3"), box=unit_box)
    checks.append(abs(norms.norm))

    worst = max(checks)
    return {
        "suite": "hofer",
        "cases": len(checks),
        "max_discrepancy": worst,
        "convergence_order": None,
        "passed": bool(worst <= tol),
        "seed": seed,
        "resolution": None,
        "tol": tol,
    }


# The most samples a suite's finest grid may hold.  The energy suite
# peaks at about 64 bytes per sample, so this bounds it near 135 MB.
MAX_GRID_POINTS = 2 ** 21

# each suite, and for a suite on a grid the largest resolution that
# leaves 3 samples on [0, 1] at its coarsest spacing, and the samples
# of its finest grid at a resolution
_SUITES = {
    "energy": (suite_energy, 1 / 8,
               lambda h: (10.0 / h + 1) * (1.0 / h + 1)),
    "actiondiff": (suite_actiondiff, 1 / 2, lambda h: 9 * (1.0 / h + 1)),
    "hat": (suite_hat, None, None),
    "hofer": (suite_hofer, None, None),
}


def run_suite(name: str, seed: int = 0, resolution: float = None,
              tol: float = None) -> dict:
    """Dispatch a named verification suite; settings left as None take
    the suite's defaults.  A resolution for a suite that has no grid is
    an error, and so is one outside (0, coarsest] or whose finest grid
    would exceed MAX_GRID_POINTS; both are checked before any grid
    exists."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         + ", ".join(sorted(_SUITES)))
    fn, coarsest, samples = _SUITES[name]
    settings = {"seed": seed}
    if resolution is not None:
        if coarsest is None:
            raise ValueError(f"suite {name!r} takes no resolution")
        if not (math.isfinite(resolution) and 0 < resolution <= coarsest
                and samples(resolution) <= MAX_GRID_POINTS):
            raise ValueError(
                f"suite {name!r} needs a resolution in (0, {coarsest:g}] "
                f"whose finest grid holds at most {MAX_GRID_POINTS} "
                f"samples; got {resolution:g}")
        settings["resolution"] = resolution
    if tol is not None:
        settings["tol"] = tol
    return fn(**settings)
