"""Workload ``exact-core``: warm in-process calls into the exact layers.

One round interleaves 57 operations of five kinds, in a fixed make-up
so that every seed does about the same work:

- ``snf``: Smith normal forms of 12 dense matrices in fixed shapes,
  eight from the A06 palette up to 6 x 6 and four with 3-4 term entries
  up to 4 x 4, at truncation levels 4, 6 and 8;
- ``series``: 24 inversions of 1 - b*T(a) to 48 terms;
- ``fiber``: ``floer_cohomology`` at the S2^n reference fibers for
  n = 3..7 and at seeded fibers of CP^k x S2 (k = 1, 2, 3) and S2^3,
  each with an explicit truncation;
- ``polydisk``: ``polydisk_bound`` in modes 1.4, 1.5 and 1.3;
- ``optimize``: ``optimize_threshold`` on three compact models whose
  grid holds the central fiber, plus ``CP2(3)`` at resolution 4, whose
  grid cannot reach its central fiber (1, 1): the one known failure.

The seed picks matrix entries, the order of the series, fiber points
and polydisk parameters; the oracles in ``oracles.py`` give every
expected answer during set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import oracles
from harness import Op

IMPORTS = "torsionlab"
MIN_ROUNDS = 1
SETUP_REPEATS = 7          # each takes 0.3 s, so the median needs more
KINDS = ("snf", "series", "fiber", "polydisk", "optimize")
WARM_UP = KINDS

A06_PALETTE = ([], [], [(1, 0)], [(-1, 0)], [(2, 0)], [(F(1, 2), 0)],
               [(1, F(1, 2))], [(1, 1)], [(3, F(3, 2))], [(1, 0), (1, 1)],
               [(1, F(1, 2)), (-1, F(3, 2))], [(-2, 1), (1, 2)])
TRUNCS = (4, 6, 8)
SNF_SHAPES = (("a06", 6, 6), ("a06", 6, 5), ("a06", 5, 4), ("a06", 4, 4),
              ("a06", 4, 3), ("a06", 3, 3), ("a06", 2, 4), ("a06", 3, 2),
              ("long", 4, 4), ("long", 4, 3), ("long", 3, 3), ("long", 3, 4))
SERIES_TERMS = 48
COEFFS = (1, -1, 2, -2, F(1, 2), 3)
AREAS = (F(1), F(3, 2), F(2), F(5, 2), F(3), F(4))

# Reference fibers of S2^n, n = 3..7, the same for every seed: n = 3 is
# the A01 fiber, n = 4 the A05 equator, and n = 5..7 generic points.
# Their normal forms cost the most in a round, and a seeded fiber of
# S2^7 costs between 2 and 3 s depending on the draw, so fixing them
# keeps a round's work the same from seed to seed.
_REF_AREAS = (F(1), F(3, 2), F(2), F(5, 2), F(3), F(4), F(2))
_REF_SHARES = (F(1, 3), F(1, 4), F(2, 5), F(1, 6), F(3, 4), F(1, 3), F(2, 3))
REFERENCE_FIBERS = [
    ([("sphere", F(3, 2)), ("sphere", F(5)), ("sphere", F(5))],
     (F(3, 4), F(2), F(2))),
    ([("sphere", F(1))] * 4, (F(1, 2),) * 4),
] + [
    ([("sphere", a) for a in _REF_AREAS[:n]],
     tuple(a * q for a, q in zip(_REF_AREAS[:n], _REF_SHARES[:n])))
    for n in (5, 6, 7)
]


def _entry(rng: random.Random, palette: str):
    if palette == "a06":
        return list(rng.choice(A06_PALETTE))
    if rng.random() < 0.15:
        return []
    exponents = rng.sample(range(13), rng.randint(3, 4))
    return [(rng.choice(COEFFS), F(e, 4)) for e in sorted(exponents)]


def _matrices(rng: random.Random):
    """12 matrices in fixed shapes: eight from the A06 palette up to
    6 x 6 and four with longer entries up to 4 x 4, at truncation levels
    4, 6 and 8 in turn."""
    out = []
    for index, (palette, rows, cols) in enumerate(SNF_SHAPES):
        entries = [[_entry(rng, palette) for _ in range(cols)]
                   for _ in range(rows)]
        out.append((palette, entries, TRUNCS[index % len(TRUNCS)]))
    return out


def _sphere_point(rng: random.Random, area, equator: bool):
    if equator:
        return area / 2
    q = rng.choice((3, 4, 5, 6))
    j = rng.choice([j for j in range(1, q) if 2 * j != q])
    return area * F(j, q)


def _simplex_point(rng: random.Random, k: int, size):
    q = rng.choice((k + 2, k + 3, 2 * k + 3))
    while True:
        js = [rng.randint(1, q - 1) for _ in range(k)]
        if sum(js) < q:
            return [size * F(j, q) for j in js]


def _fibers(rng: random.Random):
    """(factors, fiber, trunc): the reference fibers, then seeded fibers
    of CP^k x S2 for k = 1, 2, 3 and of S2^3 with one equator factor."""
    out = list(REFERENCE_FIBERS)
    for k, equator in ((1, False), (2, False), (3, True)):
        size = rng.choice((F(2), F(3), F(4)))
        area = rng.choice(AREAS)
        factors = [("cp", k, size), ("sphere", area)]
        fiber = _simplex_point(rng, k, size) + [
            _sphere_point(rng, area, equator)]
        out.append((factors, tuple(fiber)))
    factors = [("sphere", rng.choice(AREAS)) for _ in range(3)]
    at_equator = rng.randrange(3)
    out.append((factors, tuple(_sphere_point(rng, f[1], i == at_equator)
                               for i, f in enumerate(factors))))
    # twice the largest surviving valuation: every answer is exact
    return [(factors, fiber,
             2 * max([v for v in oracles.covector_valuations(factors, fiber)
                      if v != oracles.INF] or [F(1)]))
            for factors, fiber in out]


def _polydisk_specs(rng: random.Random):
    """(mode, n, k, S, eps, eps', lambda) satisfying every hypothesis."""
    out = []
    for mode, n, k in (("1.4", 2, 1), ("1.4", 3, 2), ("1.4", 4, 3),
                       ("1.5", 3, 1), ("1.5", 3, 2), ("1.5", 4, 2),
                       ("1.3", 2, None), ("1.3", 2, None)):
        q = rng.choice((2, 3, 4))
        if mode == "1.3":
            out.append((mode, n, None, F(1, 2) + F(rng.randint(1, 2 * q), q),
                        None, None, None))
            continue
        S = 1 + F(rng.randint(1, 2 * q), q)
        eps_prime = rng.choice((F(1, 2), F(2, 3), F(3, 4)))
        eps = eps_prime * F(rng.randint(1, 3), 4)
        factor = 2 if mode == "1.4" else k + 1
        lam = factor * S + rng.choice((F(1, 3), F(1), F(2)))
        out.append((mode, n, k, S, eps, eps_prime, lam))
    return out


# Compact optimizer models with resolutions whose grids hold the central
# fiber, the same for every seed: where the search meets that fiber, and
# so its cost, moves by a factor of two with seeded areas.
OPTIMIZER_MODELS = [
    ([("sphere", F(2)), ("sphere", F(3))], 6),
    ([("sphere", F(1)), ("sphere", F(5, 2)), ("sphere", F(2))], 4),
    ([("cp", 2, F(3)), ("sphere", F(2))], 6),
]
# CP2(3) at resolution 4: grid coordinates 3j/4 and refinement steps of
# 3/(4*2^r) never reach the central fiber (1, 1), so the search reports
# 3/4 where the optimum is inf.  A known fault, counted as failed.
FAULTY_OPTIMIZER_MODEL = ([("cp", 2, F(3))], 4)

# Inversions of 1 - b*T(a): the pairs (a, b) are fixed and only their
# order is seeded, since one inversion's cost varies 2.5-fold with a and
# with the size of b^j, and these operations set op_p50_ms.
SERIES_UNITS = tuple((a, b)
                     for a in (F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1), F(3, 2))
                     for b in (1, -1, 2, F(1, 2)))


# -- operations -------------------------------------------------------------

def prepare(seed: int) -> list[Op]:
    from torsionlab import novikov, polydisk, toric, valmat

    rng = random.Random(seed)
    kinds: dict[str, list[Op]] = {kind: [] for kind in KINDS}

    def build(factors):
        return toric.product(*(
            toric.sphere_factor(f[1]) if f[0] == "sphere"
            else toric.projective_factor(f[1], f[2]) for f in factors))

    # snf: oracle pivots from determinantal divisors
    for palette, entries, trunc in _matrices(rng):
        texts = [[oracles.terms_to_text(t) for t in row] for row in entries]
        matrix = valmat.NovikovMatrix(texts, trunc=trunc)
        expected = oracles.pivots_from_divisors(
            oracles.determinantal_divisors(entries, trunc))

        def check(form, expected=expected, trunc=trunc):
            got = list(form.pivot_valuations)
            return (got[:len(expected)] == expected
                    and all(v < trunc for v in got)
                    and got == sorted(got))
        kinds["snf"].append(Op(
            "snf", f"{palette} {matrix.rows}x{matrix.cols} mod T^{trunc}",
            lambda m=matrix: valmat.smith_normal_form(m), check))

    # series: 1 / (1 - b T(a)) below a finite level
    for a, b in rng.sample(SERIES_UNITS, len(SERIES_UNITS)):
        trunc = a * (SERIES_TERMS - F(1, 2))
        unit = novikov.from_text(oracles.terms_to_text([(1, 0), (-b, a)]),
                                 trunc)
        expected = oracles.terms_to_text(oracles.geometric_inverse(a, b, trunc))
        kinds["series"].append(Op(
            "series", f"1/(1 - {b}*T({a})) mod T^{trunc}",
            lambda x=unit: novikov.invert(x),
            lambda y, e=expected: novikov.to_text(y) == e))

    # fiber: closed-form Floer answer from the moment data
    for factors, fiber, trunc in _fibers(rng):
        model = build(factors)
        expected = oracles.floer_answer(factors, fiber, trunc)
        kinds["fiber"].append(Op(
            "fiber", f"{oracles.inline_model(factors)} at {fiber}",
            lambda m=model, p=fiber, t=trunc: toric.floer_cohomology(m, p, t),
            lambda d, e=expected: (d.betti, tuple(d.torsion)) == e))

    # polydisk: the bound equals S whenever certified
    for mode, n, k, S, eps, eps_prime, lam in _polydisk_specs(rng):
        spec = polydisk.PolydiskSpec(mode=mode, S=S, n=n, k=k, eps=eps,
                                     eps_prime=eps_prime, lam=lam)
        if not oracles.polydisk_certified(mode, n, k, S, eps, eps_prime, lam):
            raise AssertionError(f"uncertified polydisk input {spec}")
        factors, point = oracles.polydisk_factors(mode, n, k, S, eps_prime,
                                                  lam)
        trunc = 2 * max([S] + [f[-1] for f in factors if f[0] != "cylinder"])
        _, torsion = oracles.floer_answer(factors, point, trunc)
        if max(torsion) != S:
            raise AssertionError(f"oracle disagrees with S for {spec}")
        kinds["polydisk"].append(Op(
            "polydisk", f"mode {mode} n={n} k={k} S={S}",
            lambda s=spec, t=trunc: polydisk.polydisk_bound(s, trunc=t),
            lambda r, S=S: (r["bound"] == str(S) and r["certified"] is True)))

    # optimize: the central fiber is free, so the optimum is inf
    models = OPTIMIZER_MODELS + [FAULTY_OPTIMIZER_MODEL]
    for index, (factors, resolution) in enumerate(models):
        model = build(factors)
        trunc = 2 * sum(f[-1] for f in factors)
        if oracles.floer_answer(factors, oracles.central_fiber(factors),
                                trunc)[1]:
            raise AssertionError(f"{factors} has no free central fiber")

        def check(search, factors=factors, trunc=trunc):
            if search.value != oracles.INF or not search.non_displaceable:
                return False
            return oracles.floer_answer(factors, search.fiber, trunc)[1] == ()
        kinds["optimize"].append(Op(
            "optimize", f"{oracles.inline_model(factors)} res {resolution}",
            lambda m=model, r=resolution, t=trunc:
                toric.optimize_threshold(m, resolution=r, trunc=t),
            check, known_fault=index == len(models) - 1))

    # interleave the kinds: one of each in turn while any remain
    ops: list[Op] = []
    queues = [list(kinds[kind]) for kind in KINDS]
    while any(queues):
        for queue in queues:
            if queue:
                ops.append(queue.pop(0))
    return ops
