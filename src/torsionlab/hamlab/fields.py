"""Closed-form Hamiltonians on the plane and their Hofer norms.

Expressions are written in the time symbol t and the coordinates x1, y1
(or their aliases x, y) using +, -, *, /, ** and the functions sin, cos,
exp, sqrt; pi is available as a constant.

A field compiles its value and one fused gradient, returning every
partial at once, when it is built.  It may also name coefficient symbols
that stay free, such as c0 in "c0*x1**2"; it is then a family of
Hamiltonians, compiled once with the coefficients as extra arguments,
and bind(values) gives a member that shares the compiled callables.  A
family compiles its time reversal once for all its members.

Hofer norms follow the convention

    E-(H) = integral of -min_x H(t, x) over t in [0, 1]
    E+(H) = integral of  max_x H(t, x)
    |H|   = E-(H) + E+(H),

so the norm of any constant vanishes while E-+/E+ themselves may be
negative for one-signed Hamiltonians.  Extrema are located by dense
grid scans with window refinement over a bounding box the caller gives,
the windows of many time nodes in one evaluation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import sympy

from .spaces import Box, EuclideanSpace

_FUNCTIONS = {
    "sin": sympy.sin,
    "cos": sympy.cos,
    "exp": sympy.exp,
    "sqrt": sympy.sqrt,
    "pi": sympy.pi,
}

T_SYMBOL = sympy.Symbol("t", real=True)


def _parse(space: EuclideanSpace, expression,
           coefficients: tuple[str, ...]) -> sympy.Expr:
    symbols = {name: sympy.Symbol(name, real=True)
               for name in space.coord_names}
    local = dict(_FUNCTIONS)
    local.update(symbols)
    local["t"] = T_SYMBOL
    local["x"] = symbols["x1"]
    local["y"] = symbols["y1"]
    clash = [name for name in coefficients
             if name in local or not name.isidentifier()]
    if clash or len(set(coefficients)) < len(coefficients):
        raise ValueError(
            f"coefficient names {list(coefficients)} must be distinct "
            "identifiers other than t, the coordinates and the functions")
    params = {name: sympy.Symbol(name, real=True) for name in coefficients}
    local.update(params)
    expr = sympy.sympify(expression, locals=local)
    allowed = set(symbols.values()) | set(params.values()) | {T_SYMBOL}
    stray = expr.free_symbols - allowed
    if stray:
        raise ValueError(
            f"unknown symbols {sorted(map(str, stray))}; coordinates are "
            f"{list(space.coord_names)} plus t")
    return expr


class HamiltonianField:
    """Scalar Hamiltonian H(t, x) with exact symbolic derivatives.

    ``coefficients`` names symbols of the expression that stay free: the
    field is then a family, compiled once with the coefficients as extra
    arguments, and ``bind`` gives its members without compiling again.
    """

    def __init__(self, space: EuclideanSpace, expression,
                 coefficients: Sequence[str] = ()):
        self.space = space
        self.coefficients = tuple(coefficients)
        self.expr = _parse(space, expression, self.coefficients)
        coords = [sympy.Symbol(name, real=True)
                  for name in space.coord_names]
        args = [T_SYMBOL, *coords,
                *(sympy.Symbol(name, real=True)
                  for name in self.coefficients)]
        self._value = sympy.lambdify(args, self.expr, modules="numpy")
        # one callable returning every partial, constants included
        self._gradient = sympy.lambdify(
            args, [sympy.diff(self.expr, c) for c in coords],
            modules="numpy")
        self._bound = None if self.coefficients else ()
        # the compiled time reversal, shared by every bound member
        self._reversal: dict = {}

    def bind(self, values) -> "HamiltonianField":
        """The member of this family with the given coefficient values;
        it shares the compiled callables."""
        values = tuple(float(v) for v in values)
        if len(values) != len(self.coefficients):
            raise ValueError(f"expected {len(self.coefficients)} values "
                             f"for {list(self.coefficients)}")
        member = copy.copy(self)
        member._bound = values
        return member

    def _coefficient_values(self) -> tuple:
        if self._bound is None:
            raise ValueError(f"bind values to {list(self.coefficients)} "
                             "before evaluating the family")
        return self._bound

    def value(self, t, points) -> np.ndarray:
        """H(t, points); t is a scalar or anything that broadcasts
        across the point rows (one time per row, a per-column grid)."""
        points = np.asarray(points, dtype=float)
        out = np.asarray(self._value(np.asarray(t, dtype=float),
                                     points[..., 0], points[..., 1],
                                     *self._coefficient_values()),
                         dtype=float)
        if out.shape != points.shape[:-1]:
            out = np.broadcast_to(out, points.shape[:-1])
        return out

    def partials(self, t, x: np.ndarray, y: np.ndarray):
        """(dH/dx1, dH/dy1) at the points with coordinate columns x, y,
        from one call of the compiled gradient; t broadcasts against x
        and y as in ``value``, and a partial that does not vary over the
        points comes back as a 0-d array."""
        dx, dy = self._gradient(np.asarray(t, dtype=float), x, y,
                                *self._coefficient_values())
        return np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)

    def time_reversed(self) -> "HamiltonianField":
        """The Hamiltonian -H(1-t, x) generating the reversed path.

        A family compiles its reversal once; a bound member gets the
        reversed member with the same coefficient values.
        """
        family = self._reversal.get("family")
        if family is None:
            reversed_expr = -self.expr.subs(T_SYMBOL, 1 - T_SYMBOL)
            family = HamiltonianField(self.space, reversed_expr,
                                      self.coefficients)
            self._reversal["family"] = family
        if self._bound is None:
            return family
        return family.bind(self._bound)

    def __repr__(self):
        values = "".join(f"; {name}={value!r}" for name, value
                         in zip(self.coefficients, self._bound or ()))
        return f"HamiltonianField({self.expr}{values})"


@dataclass(frozen=True)
class HoferNorms:
    e_minus: float
    e_plus: float
    norm: float


# the most points one evaluation of a Hofer scan takes: a call scans the
# windows of as many time nodes as fit
SCAN_POINTS = 2 ** 16


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(lo[k], hi[k], num) for every index k at once, to the
    bit.  numpy divides the ramp before scaling it when any step is
    zero, so rows with a zero step get a call of their own."""
    flat = (hi - lo) / (num - 1) == 0
    if not flat.any():
        return np.linspace(lo, hi, num, axis=-1)
    out = np.empty(lo.shape + (num,))
    for rows in (flat, ~flat):
        out[rows] = np.linspace(lo[rows], hi[rows], num, axis=-1)
    return out


def _scan(H, t: np.ndarray, lo: np.ndarray, hi: np.ndarray, per_axis: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """The per_axis x per_axis grid of each window [lo[j], hi[j]], one
    row of points per window, and the values of H at time t[j] on row
    j."""
    axes = _linspace_rows(lo, hi, per_axis)
    grid = np.broadcast_arrays(axes[:, 0, :, None], axes[:, 1, None, :])
    points = np.stack(grid, axis=-1).reshape(len(t), -1, 2)
    return points, H.value(t[:, None], points)


def _best(points: np.ndarray, values: np.ndarray, sign: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """The best of sign * values in each row, and the point where it is
    attained."""
    values = sign * values
    best = np.argmax(values, axis=1)
    rows = np.arange(len(values))
    return values[rows, best], points[rows, best]


def _extremum(H, t: np.ndarray, outer_lo: np.ndarray, outer_hi: np.ndarray,
              box_scan: tuple[np.ndarray, np.ndarray], per_axis: int,
              rounds: int, sign: float) -> np.ndarray:
    """max (sign 1) or min (sign -1) of H at each time t[j]: the scan of
    the box, which the caller makes once for both signs, then rounds of
    scans of a window around the best point."""
    lo, hi = outer_lo, outer_hi
    best_value, best_point = _best(*box_scan, sign)
    for _ in range(rounds):
        width = (hi - lo) / (per_axis - 1)
        below = best_point - 1.5 * width
        above = best_point + 1.5 * width
        lo = np.where(below > outer_lo, below, outer_lo)
        hi = np.where(above < outer_hi, above, outer_hi)
        value, point = _best(*_scan(H, t, lo, hi, per_axis), sign)
        better = value > best_value
        best_value = np.where(better, value, best_value)
        best_point = np.where(better[:, None], point, best_point)
    return sign * best_value


def hofer_norms(H, box: Box | None = None, resolution: int = 33,
                time_nodes: int = 65, refine_rounds: int = 3) -> HoferNorms:
    """E-, E+, and the Hofer norm of a Hamiltonian.

    Spatial extrema per time node come from a refined grid scan; each
    evaluation scans the windows of as many time nodes as SCAN_POINTS
    allows, and the maximum and the minimum share the scan of the box.
    The time integral is a uniform trapezoid over [0, 1].  The returned
    norm is e_minus + e_plus by definition.
    """
    pbox = np.array(H.space.param_box(box))
    # at most 200 x 200 = 40,000 points per scan
    per_axis = max(5, min(int(resolution), 200))
    t_nodes = np.linspace(0.0, 1.0, int(time_nodes))
    maxima = np.empty_like(t_nodes)
    minima = np.empty_like(t_nodes)
    chunk = max(1, SCAN_POINTS // per_axis ** 2)
    for start in range(0, len(t_nodes), chunk):
        part = slice(start, start + chunk)
        t = t_nodes[part]
        lo = np.broadcast_to(pbox[:, 0], (len(t), 2))
        hi = np.broadcast_to(pbox[:, 1], (len(t), 2))
        box_scan = _scan(H, t, lo, hi, per_axis)
        for sign, extrema in ((1.0, maxima), (-1.0, minima)):
            extrema[part] = _extremum(H, t, lo, hi, box_scan, per_axis,
                                      refine_rounds, sign)
    e_plus = float(np.trapezoid(maxima, t_nodes))
    e_minus = float(np.trapezoid(-minima, t_nodes))
    return HoferNorms(e_minus=e_minus, e_plus=e_plus,
                      norm=e_minus + e_plus)
