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
grid scans with window refinement over a bounding box the caller gives.
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

    def _arguments(self, t, points: np.ndarray):
        if self._bound is None:
            raise ValueError(f"bind values to {list(self.coefficients)} "
                             "before evaluating the family")
        flat = points.reshape(-1, self.space.dim)
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim:
            # one time per point row, or anything broadcastable across
            # the leading point axes (e.g. a per-column time grid)
            t_arr = np.broadcast_to(t_arr, points.shape[:-1]).reshape(-1)
        return flat, (t_arr, *(flat[:, i] for i in range(self.space.dim)),
                      *self._bound)

    def value(self, t, points) -> np.ndarray:
        """H(t, points); t is a scalar or one value per point row."""
        points = np.asarray(points, dtype=float)
        flat, args = self._arguments(t, points)
        out = np.asarray(self._value(*args), dtype=float)
        if out.shape != flat.shape[:1]:
            out = np.broadcast_to(out, flat.shape[:1])
        return out.reshape(points.shape[:-1])

    def gradient(self, t, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        flat, args = self._arguments(t, points)
        out = np.empty(flat.shape)
        for i, part in enumerate(self._gradient(*args)):
            out[:, i] = part
        return out.reshape(points.shape)

    def vector_field(self, t, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.space.vector_field_from_gradient(
            self.gradient(t, points))

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


def _scan(H, box, per_axis: int, t: float, sign: float
          ) -> tuple[float, np.ndarray]:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = sign * H.value(t, points)
    best = int(np.argmax(values))
    return float(values[best]), points[best]


def _extremum(H, box, per_axis: int, rounds: int, t: float, sign: float
              ) -> float:
    outer = list(box)
    current = list(box)
    best_value, best_point = _scan(H, current, per_axis, t, sign)
    for _ in range(rounds):
        next_box = []
        for i, (lo, hi) in enumerate(current):
            width = (hi - lo) / (per_axis - 1)
            center = best_point[i]
            next_box.append((max(outer[i][0], center - 1.5 * width),
                             min(outer[i][1], center + 1.5 * width)))
        current = next_box
        value, point = _scan(H, current, per_axis, t, sign)
        if value > best_value:
            best_value, best_point = value, point
    return sign * best_value


def hofer_norms(H, box: Box | None = None, resolution: int = 33,
                time_nodes: int = 65, refine_rounds: int = 3) -> HoferNorms:
    """E-, E+, and the Hofer norm of a Hamiltonian.

    Spatial extrema per time node come from a refined grid scan;
    the time integral is a uniform trapezoid over [0, 1].  The returned
    norm is e_minus + e_plus by definition.
    """
    pbox = H.space.param_box(box)
    # at most 200 x 200 = 40,000 points per scan
    per_axis = max(5, min(int(resolution), 200))
    t_nodes = np.linspace(0.0, 1.0, int(time_nodes))
    maxima = np.empty_like(t_nodes)
    minima = np.empty_like(t_nodes)
    for j, t in enumerate(t_nodes):
        maxima[j] = _extremum(H, pbox, per_axis, refine_rounds, float(t),
                              1.0)
        minima[j] = _extremum(H, pbox, per_axis, refine_rounds, float(t),
                              -1.0)
    e_plus = float(np.trapezoid(maxima, t_nodes))
    e_minus = float(np.trapezoid(-minima, t_nodes))
    return HoferNorms(e_minus=e_minus, e_plus=e_plus,
                      norm=e_minus + e_plus)
