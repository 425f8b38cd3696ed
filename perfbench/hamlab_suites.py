"""Workload ``hamlab-suites``: the numerical verification suites in process.

One round runs eight operations, with case counts cut so that one takes
0.3-3.5 s (the defaults take 10-15 s per suite).  Every call but
energy's draws fresh suite seeds and closed-form cases from the
benchmark's seed and its own call count, so repeated rounds do not find
sympy's caches warm with their expressions:

- ``energy``: ``suite_energy`` on 16 strips (strip quadrature);
- ``actiondiff``: ``suite_actiondiff`` on 2 strips (RK4 transport),
  followed by ``verify_actiondiff`` on a linear Hamiltonian, in both
  transform arguments, whose sides have a closed form;
- ``hat``, four times: ``suite_hat`` on 3 pairs (sympy compilation);
- ``hofer``, twice: ``suite_hofer``, followed by ``hofer_norms`` of
  (p + q t) sin(x1), whose norms have a closed form.

Two short ``hofer`` operations below and ``energy`` and ``actiondiff``
above put the round's median in the middle of the four ``hat``
operations, so ``op_p50_ms`` is a median of like operations.

Each suite must return its own ``passed`` verdict; the energy suite's
verdict includes its convergence-order gate 2 +- 0.3, rechecked here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

from harness import Op

IMPORTS = "torsionlab.hamlab"
MIN_ROUNDS = 1
SETUP_REPEATS = 3
KINDS = ("energy", "actiondiff", "hat", "hofer")
# The first energy suite in a process runs about a third slower than the
# next: its strip grids are the first allocations large enough for
# glibc's malloc to serve by mmap, until freeing them raises the mmap
# threshold.  The warm-up runs it once so that every timed round sees
# the same allocator state.
WARM_UP = ("hofer", "energy")
# suite_energy's odd cases (profile rho_k(2)) agree to rounding at every
# spacing and give no convergence ratio, so only half its cases feed the
# order gate; at 4 cases the gate fails on about 8% of seeds, at 16 on
# about 0.04%.
CASES = {"energy": 16, "actiondiff": 2, "hat": 3}
LINEAR_NODES = 129          # t samples of the closed-form strip
# The linear flow is a translation, which RK4 integrates exactly at any
# step, so the closed-form cases can take long steps.
LINEAR_STEP = 1 / 64
CLOSED_FORM_TOL = 1e-9


# -- closed form of the linear action difference ---------------------------
#
# For H = a x + b y the flow is the translation by v = (b, -a), so the
# gauge transform moves the strip w'(s, t) = A(t) + s B(t) to
# w = w' + c(t) v with c(t) = t - 1 (first argument) or -t (second).
# A and B are quadratic in t, so every integrand below is a polynomial
# of degree at most 3 in t, linear in s.  The program's second-order
# stencils differentiate such polynomials exactly, and the trapezoid
# rule in s is exact; in t, Euler-Maclaurin gives the trapezoid value of
# a cubic f on [0, 1] with step h exactly as
#     integral(f) + h^2/12 (f'(1) - f'(0)).

def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_add(*polys):
    out = [F(0)] * max(len(p) for p in polys)
    for p in polys:
        for i, x in enumerate(p):
            out[i] += x
    return out


def _scale(p, c):
    return [c * x for x in p]


def _deriv(p):
    return [i * x for i, x in enumerate(p)][1:] or [F(0)]


def _trapezoid(p, h):
    integral = sum(x / (i + 1) for i, x in enumerate(p))
    d = _deriv(p)
    slope = sum(d) - d[0]          # f'(1) - f'(0)
    return integral + h * h / 12 * slope


def _cross(u, v):
    """omega(u, v) = u_x v_y - u_y v_x for polynomial vectors."""
    return _poly_add(_poly_mul(u[0], v[1]), _scale(_poly_mul(u[1], v[0]), -1))


def linear_actiondiff_sides(a, b, alpha, beta, which, nodes):
    """The program's (lhs, rhs) for H = a x + b y on the strip with
    coefficient rows alpha (A) and beta (B), on ``nodes`` t samples."""
    h = F(1, nodes - 1)
    v = ([b], [-a])
    c = [F(-1), F(1)] if which == "first" else [F(0), F(-1)]
    A = [list(alpha[0]), list(alpha[1])]
    B = [list(beta[0]), list(beta[1])]
    # the line integrals use G = H (first) or G = -H (second)
    g = 1 if which == "first" else -1

    def H(point):
        return _poly_add(_scale(point[0], a), _scale(point[1], b))

    def area(shift):
        # integral over s of omega(B, A' + s B' + c' v)
        dt = [_poly_add(_deriv(A[i]), _scale(v[i], shift))
              for i in range(2)]
        f = _poly_add(_cross(B, dt), _scale(_cross(B, [_deriv(B[0]),
                                                       _deriv(B[1])]), F(1, 2)))
        return _trapezoid(f, h)

    c_slope = _deriv(c)[0]
    top = [_poly_add(A[i], B[i], _poly_mul(c, v[i])) for i in range(2)]
    base = [_poly_add(A[i], _poly_mul(c, v[i])) for i in range(2)]
    lhs = area(c_slope) + g * _trapezoid(H(top), h)
    rhs = area(F(0)) + g * _trapezoid(H(base), h)
    return lhs, rhs


def prepare(seed: int) -> list[Op]:
    import numpy as np
    from torsionlab import hamlab
    from torsionlab.hamlab import strips

    space = hamlab.euclidean_plane()
    pi_box = [(-math.pi, math.pi), (-math.pi, math.pi)]
    calls = {kind: 0 for kind in KINDS}

    def fresh(kind) -> random.Random:
        # each call draws new inputs, so no round finds sympy's caches
        # warm with its expressions; the r-th call is the same in every
        # run with this seed
        calls[kind] += 1
        return random.Random(f"{seed}/{kind}/{calls[kind]}")

    def suite(kind, rng):
        fn = getattr(hamlab, f"suite_{kind}")
        suite_seed = rng.randrange(2 ** 31)
        if kind in CASES:
            return fn(seed=suite_seed, cases=CASES[kind])
        return fn(seed=suite_seed)

    def passed(result, kind):
        ok = result["passed"] is True
        if kind in CASES:
            ok = ok and result["cases"] == CASES[kind]
        if kind == "energy":
            order = result["convergence_order"]
            ok = ok and order is not None and abs(order - 2.0) <= 0.3
        return ok and result["max_discrepancy"] <= result["tol"]

    def actiondiff():
        rng = fresh("actiondiff")
        result = suite("actiondiff", rng)

        # a linear Hamiltonian and a ruled strip with dyadic
        # coefficients, so the float inputs are exact
        def dyadic(scale):
            return F(rng.randint(-16, 16), 16) * scale
        a, b = dyadic(F(1, 2)), dyadic(F(1, 2))
        alpha = [[dyadic(F(1, 2)) for _ in range(3)] for _ in range(2)]
        beta = [[dyadic(F(1, 4)) for _ in range(3)] for _ in range(2)]
        s = np.linspace(0.0, 1.0, 9)
        t = np.linspace(0.0, 1.0, LINEAR_NODES)
        comps = []
        for c in range(2):
            A = sum(float(alpha[c][i]) * t[None, :] ** i for i in range(3))
            B = sum(float(beta[c][i]) * t[None, :] ** i for i in range(3))
            comps.append(A + s[:, None] * B)
        strip = strips.StripMap(space, s, t, np.stack(comps, axis=-1))
        linear = hamlab.HamiltonianField(space, f"{a}*x1 + {b}*y1")
        reports = {which: hamlab.verify_actiondiff(
            linear, strip, which=which, max_step=LINEAR_STEP)
            for which in ("first", "second")}
        return result, reports, (a, b, alpha, beta)

    def actiondiff_ok(output):
        result, reports, linear_case = output
        ok = passed(result, "actiondiff")
        for which, report in reports.items():
            lhs, rhs = linear_actiondiff_sides(*linear_case, which,
                                               LINEAR_NODES)
            ok = (ok and report["passed"] is True
                  and abs(report["lhs"] - float(lhs)) <= CLOSED_FORM_TOL
                  and abs(report["rhs"] - float(rhs)) <= CLOSED_FORM_TOL)
        return ok

    def hofer():
        rng = fresh("hofer")
        result = suite("hofer", rng)
        # (p + q t) sin(x1) with p > |q|: E- = E+ = p + q/2
        p = F(rng.randint(4, 12), 4)
        q = F(rng.randint(-12, 12), 16)
        wave = hamlab.HamiltonianField(space, f"({p} + {q}*t)*sin(x1)")
        return result, hamlab.hofer_norms(wave, box=pi_box), float(p + q / 2)

    def hofer_ok(output):
        result, norms, half_norm = output
        return (passed(result, "hofer")
                and abs(norms.e_plus - half_norm) <= CLOSED_FORM_TOL
                and abs(norms.e_minus - half_norm) <= CLOSED_FORM_TOL
                and abs(norms.norm - 2 * half_norm) <= CLOSED_FORM_TOL)

    # energy keeps one suite seed per run: each fresh seed is another draw
    # against its order gate, and its compilations are a small part of
    # its time
    energy = Op("energy", "suite_energy",
                lambda: suite("energy", random.Random(f"{seed}/energy")),
                lambda r: passed(r, "energy"))
    hat = Op("hat", "suite_hat", lambda: suite("hat", fresh("hat")),
             lambda r: passed(r, "hat"))
    hofer_op = Op("hofer", "suite_hofer + closed-form norms", hofer,
                  hofer_ok)
    return [hofer_op, hat, hat, energy, hofer_op, hat, hat,
            Op("actiondiff", "suite_actiondiff + linear closed form",
               actiondiff, actiondiff_ok)]
