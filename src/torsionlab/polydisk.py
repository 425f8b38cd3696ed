"""Displacement-energy lower bounds for polydisks via toric fibers.

Three embedding modes, each pairing a polydisk-like domain with an ambient
toric model and a distinguished product-torus fiber:

  mode "1.4": D(1, S, ..., S) inside the cylinder D^2(1+eps) x C^(n-1),
      compactified to S^2(1+eps') x S^2(lambda)^(n-1) with fiber
      L((1+eps')/2, S, ..., S);
  mode "1.5": D^2(1)^(n-k) x B^2k(kS) inside D^2(1+eps)^(n-k) x C^k,
      compactified to S^2(1+eps')^(n-k) x CP^k(lambda) with the same
      fiber shape;
  mode "1.3": the split torus S^1(S) x equator inside C x S^2(1) itself.

The reported bound is the torsion threshold of the fiber, which bounds
the displacement energy of everything containing the torus.  Each mode
carries hypotheses (strict inequalities among eps, eps', lambda, S); the
hypothesis on S alone may be relaxed with allow_extrapolation, in which
case the report is marked extrapolated rather than certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConstraintViolated
from .rationals import Level, format_level
from .toric import MomentModel, model_from_factors, torsion_threshold_at

MODES = ("1.4", "1.5", "1.3")


@dataclass(frozen=True)
class PolydiskSpec:
    """Parameters of one embedding mode.

    Omitted entries get the standard choices: eps = 1/4, eps' = 1/2,
    lambda just above its lower bound, k = n - 1 in mode 1.4.
    """

    mode: str
    S: Fraction
    n: int = 2
    k: int | None = None
    eps: Fraction | None = None
    eps_prime: Fraction | None = None
    lam: Fraction | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConstraintViolated(
                "mode", f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "S", Fraction(self.S))
        object.__setattr__(self, "n", int(self.n))
        if self.mode == "1.3":
            object.__setattr__(self, "k", None)
            object.__setattr__(self, "eps", None)
            object.__setattr__(self, "eps_prime", None)
            object.__setattr__(self, "lam", None)
            return
        k = self.k
        if self.mode == "1.4":
            k = self.n - 1 if k is None else int(k)
        elif k is None:
            raise ConstraintViolated("k", "mode 1.5 needs an explicit k")
        object.__setattr__(self, "k", int(k))
        eps = Fraction(1, 4) if self.eps is None else Fraction(self.eps)
        eps_prime = (Fraction(1, 2) if self.eps_prime is None
                     else Fraction(self.eps_prime))
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps_prime", eps_prime)
        if self.lam is None:
            factor = 2 if self.mode == "1.4" else self.k + 1
            object.__setattr__(self, "lam", factor * self.S + 1)
        else:
            object.__setattr__(self, "lam", Fraction(self.lam))


def constraint_table(spec: PolydiskSpec) -> list[dict]:
    """All hypotheses with pass flags; the S hypothesis is marked
    relaxable (the only one allow_extrapolation may waive)."""
    rows: list[tuple[str, bool, bool]] = []
    if spec.mode == "1.3":
        rows.append(("n == 2", spec.n == 2, False))
        rows.append(("S > 0", spec.S > 0, False))
        rows.append(("S > 1/2", spec.S > Fraction(1, 2), True))
    else:
        rows.append(("n >= 2", spec.n >= 2, False))
        if spec.mode == "1.4":
            rows.append(("k == n - 1", spec.k == spec.n - 1, False))
        else:
            rows.append(("1 <= k < n", 1 <= spec.k < spec.n, False))
        rows.append(("S > 0", spec.S > 0, False))
        rows.append(("0 < eps", spec.eps > 0, False))
        rows.append(("eps < eps'", spec.eps < spec.eps_prime, False))
        rows.append(("eps' < 1", spec.eps_prime < 1, False))
        if spec.mode == "1.4":
            rows.append(("lambda > 2*S", spec.lam > 2 * spec.S, False))
        else:
            rows.append((f"lambda > {spec.k + 1}*S",
                         spec.lam > (spec.k + 1) * spec.S, False))
        rows.append(("S > 1", spec.S > 1, True))
    return [{"name": name, "ok": ok, "relaxable": relaxable}
            for name, ok, relaxable in rows]


def check_constraints(spec: PolydiskSpec,
                      allow_extrapolation: bool = False) -> list[dict]:
    table = constraint_table(spec)
    for row in table:
        if row["ok"] or (allow_extrapolation and row["relaxable"]):
            continue
        raise ConstraintViolated(row["name"],
                                 f"mode {spec.mode} requires {row['name']}")
    return table


def build_ambient(spec: PolydiskSpec, allow_extrapolation: bool = False
                  ) -> tuple[MomentModel, dict, tuple[Fraction, ...],
                             list[str]]:
    """Ambient model, its ``{"product": [...]}`` factor list, fiber
    point, and the containment bookkeeping."""
    check_constraints(spec, allow_extrapolation)
    S = spec.S
    if spec.mode == "1.3":
        factors = [{"cylinder": True}, {"sphere": "1"}]
        fiber = (S, Fraction(1, 2))
        facts = [
            f"the torus is S^1({S}) x equator inside C x S^2(1)",
        ]
    elif spec.mode == "1.4":
        half = (1 + spec.eps_prime) / 2
        factors = ([{"sphere": str(1 + spec.eps_prime)}]
                   + [{"sphere": str(spec.lam)}] * (spec.n - 1))
        fiber = (half,) + (S,) * (spec.n - 1)
        facts = [
            f"the fiber torus lies on the boundary of "
            f"D(1, {S}, ..., {S}): (1+eps')/2 = {half} < 1",
            f"D(1, {S}, ..., {S}) lies in D^2(1+{spec.eps}) x C^{spec.n - 1}",
            f"that cylinder compactifies into the model: "
            f"eps = {spec.eps} < eps' = {spec.eps_prime} and "
            f"lambda = {spec.lam} > {2 * S}",
        ]
    else:
        half = (1 + spec.eps_prime) / 2
        factors = ([{"sphere": str(1 + spec.eps_prime)}] * (spec.n - spec.k)
                   + [{"cp": {"k": spec.k, "lambda": str(spec.lam)}}])
        fiber = (half,) * (spec.n - spec.k) + (S,) * spec.k
        facts = [
            f"the fiber torus lies in D^2(1)^{spec.n - spec.k} x the closed "
            f"ball B^{2 * spec.k}({spec.k * S}): (1+eps')/2 = {half} < 1 and "
            f"the simplex coordinates sum to {spec.k * S}",
            f"that product lies in D^2(1+{spec.eps})^{spec.n - spec.k} "
            f"x C^{spec.k}",
            f"the model contains it: eps = {spec.eps} < eps' = "
            f"{spec.eps_prime} and lambda = {spec.lam} > {(spec.k + 1) * S} "
            f"keeps the remaining facet area above {S}",
        ]
    return model_from_factors(factors), {"product": factors}, fiber, facts


def _claim(spec: PolydiskSpec, bound: Level) -> str:
    value = format_level(bound)
    S = spec.S
    if spec.mode == "1.3":
        return (f"the split torus S^1({S}) x equator in C x S^2(1) cannot "
                f"be displaced by Hofer norm below {value}")
    if spec.mode == "1.4":
        return (f"the polydisk D(1, {S}, ..., {S}) (n = {spec.n}) inside "
                f"D^2(1+{spec.eps}) x C^{spec.n - 1} has displacement "
                f"energy at least {value}")
    return (f"the product D^2(1)^{spec.n - spec.k} x B^{2 * spec.k}"
            f"({spec.k * S}) inside D^2(1+{spec.eps})^{spec.n - spec.k} "
            f"x C^{spec.k} has displacement energy at least {value}")


def polydisk_bound(spec: PolydiskSpec, allow_extrapolation: bool = False,
                   trunc=None) -> dict:
    """Full report: computed threshold, certification status, constraint
    table, containment facts, and the ambient data.  The threshold is
    exact; ``trunc`` is ignored, and ``perfbench/exact_core.py`` still
    passes it."""
    model, listing, fiber, facts = build_ambient(spec, allow_extrapolation)
    table = constraint_table(spec)
    bound = torsion_threshold_at(model, fiber)
    certified = all(row["ok"] for row in table)
    return {
        "mode": spec.mode,
        "n": spec.n,
        "k": spec.k,
        "S": str(spec.S),
        "eps": None if spec.eps is None else str(spec.eps),
        "eps_prime": None if spec.eps_prime is None else str(spec.eps_prime),
        "lambda": None if spec.lam is None else str(spec.lam),
        "bound": format_level(bound),
        "certified": certified,
        "status": "certified" if certified else "extrapolated",
        "claim": _claim(spec, bound),
        "constraints": [{"name": row["name"], "ok": row["ok"]}
                        for row in table],
        "containments": facts,
        "model": listing,
        "fiber": [str(x) for x in fiber],
    }
