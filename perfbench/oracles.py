"""Exact oracles for the benchmark, written apart from torsionlab.

Everything here uses plain ``Fraction`` and integer arithmetic and never
imports torsionlab, so a fault in the program cannot hide in its own
check.  The oracles are:

- covector valuations of products of spheres, projective spaces and
  cylinders, read off the moment data, and the closed-form Floer answer
  they give (free rank 2^n and threshold inf when every component
  vanishes below the truncation; otherwise free rank 0 and 2^(n-1)
  torsion exponents, each the smallest component valuation);
- the polydisk bound, which equals S in every certified case;
- Smith normal form pivot valuations as successive differences of the
  determinantal divisors (smallest valuations of k x k minors);
- the inverse of 1 - b*T(a) at a finite truncation as a geometric
  series;
- the central fiber of a compact model, where every component vanishes.

``self_check`` tests the oracles on hand values before any run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

INF = math.inf

# -- moment data ----------------------------------------------------------
#
# A factor is ("sphere", area), ("cp", k, size) or ("cylinder",).  Its
# coordinates in the product are consecutive, and each coordinate carries
# one covector component.  A component is a signed sum of T^area terms,
# kept as a sorted tuple of (exponent, coefficient) pairs with zero sums
# removed.


def _binomial_terms(pairs) -> tuple[tuple[Fraction, int], ...]:
    merged: dict[Fraction, int] = {}
    for exponent, coeff in pairs:
        merged[exponent] = merged.get(exponent, 0) + coeff
    return tuple(sorted((e, c) for e, c in merged.items() if c != 0))


def factor_dim(factor) -> int:
    return factor[1] if factor[0] == "cp" else 1


def covector_terms(factors, fiber) -> list[tuple[tuple[Fraction, int], ...]]:
    """Covector components w_i = sum_j T^(area_j) normal_j[i], from the
    facet distances of each factor at the fiber point."""
    fiber = [Fraction(x) for x in fiber]
    components = []
    pos = 0
    for factor in factors:
        kind = factor[0]
        if kind == "sphere":
            area = Fraction(factor[1])
            u = fiber[pos]
            if not 0 < u < area:
                raise ValueError(f"fiber {u} outside sphere of area {area}")
            components.append(_binomial_terms([(u, 1), (area - u, -1)]))
        elif kind == "cp":
            k, size = factor[1], Fraction(factor[2])
            coords = fiber[pos:pos + k]
            rest = size - sum(coords)
            if any(c <= 0 for c in coords) or rest <= 0:
                raise ValueError(f"fiber {coords} outside CP{k}({size})")
            for c in coords:
                components.append(_binomial_terms([(c, 1), (rest, -1)]))
        elif kind == "cylinder":
            u = fiber[pos]
            if u <= 0:
                raise ValueError(f"fiber {u} outside the cylinder")
            components.append(((u, 1),))
        else:
            raise ValueError(f"unknown factor {factor!r}")
        pos += factor_dim(factor)
    if pos != len(fiber):
        raise ValueError("fiber dimension disagrees with the factors")
    return components


def covector_valuations(factors, fiber, trunc=INF) -> list:
    """Valuation of each component below ``trunc``; inf when it vanishes
    there."""
    out = []
    for terms in covector_terms(factors, fiber):
        low = terms[0][0] if terms else INF
        out.append(low if low < trunc else INF)
    return out


def floer_answer(factors, fiber, trunc=INF) -> tuple[int, tuple]:
    """Closed-form (free rank, torsion exponents) of the fiber."""
    valuations = covector_valuations(factors, fiber, trunc)
    n = len(valuations)
    smallest = min(valuations)
    if smallest == INF:
        return 2 ** n, ()
    return 0, (smallest,) * 2 ** (n - 1)


def threshold_of(betti: int, torsion) -> Fraction | float:
    if betti > 0:
        return INF
    return max(torsion) if torsion else Fraction(0)


def central_fiber(factors) -> tuple[Fraction, ...]:
    """The fiber of a compact model where every component vanishes:
    the equator of each sphere and the barycenter of each simplex."""
    point: list[Fraction] = []
    for factor in factors:
        if factor[0] == "sphere":
            point.append(Fraction(factor[1]) / 2)
        elif factor[0] == "cp":
            k, size = factor[1], Fraction(factor[2])
            point.extend([size / (k + 1)] * k)
        else:
            raise ValueError("a cylinder factor has no central fiber")
    return tuple(point)


def inline_model(factors) -> str:
    """The CLI's inline factor syntax for a factor list."""
    parts = []
    for factor in factors:
        if factor[0] == "sphere":
            parts.append(f"sphere:{factor[1]}")
        elif factor[0] == "cp":
            parts.append(f"cp:{factor[1]}:{factor[2]}")
        else:
            parts.append("cylinder")
    return "x".join(parts)


# -- polydisk modes -------------------------------------------------------

def polydisk_certified(mode: str, n: int, k, S, eps, eps_prime, lam) -> bool:
    """The hypotheses of each embedding mode, restated."""
    S = Fraction(S)
    if mode == "1.3":
        return n == 2 and S > Fraction(1, 2)
    if mode == "1.4" and k != n - 1:
        return False
    if mode == "1.5" and not 1 <= k < n:
        return False
    factor = 2 if mode == "1.4" else k + 1
    return (n >= 2 and 0 < eps < eps_prime < 1 and lam > factor * S
            and S > 1)


def polydisk_factors(mode: str, n: int, k, S, eps_prime, lam):
    """Ambient factors and fiber of each mode, from the moment data."""
    S = Fraction(S)
    if mode == "1.3":
        return [("cylinder",), ("sphere", Fraction(1))], (S, Fraction(1, 2))
    half = (1 + Fraction(eps_prime)) / 2
    if mode == "1.4":
        factors = ([("sphere", 1 + Fraction(eps_prime))]
                   + [("sphere", Fraction(lam))] * (n - 1))
        return factors, (half,) + (S,) * (n - 1)
    factors = ([("sphere", 1 + Fraction(eps_prime))] * (n - k)
               + [("cp", k, Fraction(lam))])
    return factors, (half,) * (n - k) + (S,) * k


# -- Novikov-style polynomials -------------------------------------------
#
# A polynomial is a dict {exponent: coefficient}.  For the determinantal
# divisors a matrix is first brought to integer exponents and integer
# coefficients by common denominators; scaling every entry by one
# nonzero constant multiplies each k x k minor by its k-th power and so
# leaves every valuation unchanged.


def poly_mul(p: dict, q: dict, trunc) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = ea + eb
            if e < trunc:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def poly_valuation(p: dict):
    return min(p) if p else INF


def terms_to_text(terms) -> str:
    """Render [(coeff, exponent)] in the program's text grammar."""
    pieces = []
    for coeff, exponent in sorted(terms, key=lambda t: t[1]):
        coeff, exponent = Fraction(coeff), Fraction(exponent)
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        body = "" if exponent == 0 else f"T({exponent})"
        if magnitude != 1 or not body:
            body = f"{magnitude}*{body}" if body else str(magnitude)
        sign = "-" if coeff < 0 else "+"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces) if pieces else "0"


def _integral_matrix(entries, trunc):
    """Entries as integer polynomials below trunc * scale, and that scale."""
    denominators = [1]
    for row in entries:
        for terms in row:
            for coeff, exponent in terms:
                denominators.append(Fraction(exponent).denominator)
    scale = math.lcm(*denominators, Fraction(trunc).denominator)
    coeff_den = math.lcm(1, *(Fraction(c).denominator for row in entries
                              for terms in row for c, _ in terms))
    level = Fraction(trunc) * scale
    grid = []
    for row in entries:
        out_row = []
        for terms in row:
            poly: dict = {}
            for coeff, exponent in terms:
                e = Fraction(exponent) * scale
                if e < level:
                    c = Fraction(coeff) * coeff_den
                    poly[int(e)] = poly.get(int(e), 0) + int(c)
            out_row.append({e: c for e, c in poly.items() if c})
        grid.append(out_row)
    return grid, scale, int(level)


def determinantal_divisors(entries, trunc) -> list:
    """d_k = smallest valuation of a k x k minor, for k = 1..min(shape),
    computed below ``trunc`` (inf when every k x k minor vanishes there).

    ``entries`` is a grid of term lists [(coeff, exponent), ...].
    """
    grid, scale, level = _integral_matrix(entries, trunc)
    rows, cols = len(grid), len(grid[0])
    memo: dict = {}

    def det(row_set: tuple, col_set: tuple) -> dict:
        if not row_set:
            return {0: 1}
        key = (row_set, col_set)
        if key in memo:
            return memo[key]
        first, rest = row_set[0], row_set[1:]
        total: dict = {}
        for index, col in enumerate(col_set):
            entry = grid[first][col]
            if not entry:
                continue
            minor = det(rest, col_set[:index] + col_set[index + 1:])
            if not minor:
                continue
            total = poly_add(total, poly_mul(entry, minor, level),
                             -1 if index % 2 else 1)
        memo[key] = total
        return total

    divisors = []
    for k in range(1, min(rows, cols) + 1):
        best = INF
        for row_set in combinations(range(rows), k):
            for col_set in combinations(range(cols), k):
                best = min(best, poly_valuation(det(row_set, col_set)))
        divisors.append(best if best == INF else Fraction(best, scale))
    return divisors


def pivots_from_divisors(divisors) -> list[Fraction]:
    """The pivot valuations the divisors decide: d_k - d_(k-1) for each
    k whose divisor lies below the truncation."""
    pivots = []
    previous = Fraction(0)
    for value in divisors:
        if value == INF:
            break
        pivots.append(value - previous)
        previous = value
    return pivots


def geometric_inverse(a, b, trunc) -> list[tuple[Fraction, Fraction]]:
    """Terms (coeff, exponent) of 1 / (1 - b*T(a)) below ``trunc``."""
    a, b = Fraction(a), Fraction(b)
    out = []
    j = 0
    while j * a < trunc:
        out.append((b ** j, j * a))
        j += 1
    return out


# -- hand values ------------------------------------------------------------

def self_check() -> None:
    """Raise AssertionError unless the oracles reproduce hand values."""
    a01 = [("sphere", Fraction(3, 2)), ("sphere", Fraction(5)),
           ("sphere", Fraction(5))]
    fiber = (Fraction(3, 4), Fraction(2), Fraction(2))
    betti, torsion = floer_answer(a01, fiber)
    if (betti, torsion) != (0, (2, 2, 2, 2)) or threshold_of(betti, torsion) != 2:
        raise AssertionError(f"A01 oracle gave {betti}, {torsion}")

    # A03: mode 1.5, n = 3, k = 2, S = 2, lambda = 10, eps' = 1/2
    factors, point = polydisk_factors("1.5", 3, 2, 2, Fraction(1, 2), 10)
    simplex = list(point[1:])
    areas = sorted(simplex + [Fraction(10) - sum(simplex)])
    if areas != [2, 2, 6] or floer_answer(factors, point)[1][0] != 2:
        raise AssertionError(f"A03 oracle gave areas {areas}")

    for n in range(1, 5):
        equator = [("sphere", Fraction(1))] * n
        if floer_answer(equator, (Fraction(1, 2),) * n) != (2 ** n, ()):
            raise AssertionError(f"A05 oracle failed at n = {n}")

    # A04: cylinder x sphere at (3/4, 1/2): threshold 3/4
    betti, torsion = floer_answer([("cylinder",), ("sphere", 1)],
                                  (Fraction(3, 4), Fraction(1, 2)))
    if threshold_of(betti, torsion) != Fraction(3, 4):
        raise AssertionError("A04 oracle failed")

    # diag(1, T(1/2), T(2)) hidden by a unimodular mix: pivots 0, 1/2, 2
    one, half, two = [(1, 0)], [(1, Fraction(1, 2))], [(1, 2)]
    mixed = [[one, one, []],
             [[], half, half],
             [[], [], two]]
    pivots = pivots_from_divisors(determinantal_divisors(mixed, 6))
    if pivots != [0, Fraction(1, 2), 2]:
        raise AssertionError(f"divisor oracle gave {pivots}")
    # T(1) - T(1) cancels: a 2 x 2 minor of valuation >= trunc is dropped
    cancel = [[[(1, 1)], [(1, 1)]], [[(1, 1)], [(1, 1)]]]
    if pivots_from_divisors(determinantal_divisors(cancel, 4)) != [1]:
        raise AssertionError("divisor oracle missed a cancellation")

    series = geometric_inverse(Fraction(1, 2), 1, 2)
    if series != [(1, 0), (1, Fraction(1, 2)), (1, 1), (1, Fraction(3, 2))]:
        raise AssertionError(f"series oracle gave {series}")
    if terms_to_text([(-2, 1), (1, 0), (Fraction(1, 2), Fraction(3, 2))]) \
            != "1 - 2*T(1) + 1/2*T(3/2)":
        raise AssertionError("text rendering changed")
    if central_fiber([("cp", 2, 3), ("sphere", 2)]) != (1, 1, 1):
        raise AssertionError("central fiber oracle failed")
    if floer_answer([("cp", 2, 3)], (1, 1)) != (4, ()):
        raise AssertionError("CP2 central fiber should be free")
