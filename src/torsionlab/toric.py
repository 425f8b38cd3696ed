"""Torus fibers of toric models: disk potentials and torsion thresholds.

A moment model is a rational polytope given by facet inequalities
<normal, u> >= offset with primitive integer normals.  Product models for
spheres, projective spaces, and the open cylinder factor are built from
named constructors.  A fiber over an interior point u carries one
holomorphic disk class per facet, with boundary class the facet normal
and symplectic area the facet distance

    area_j(u) = <normal_j, u> - offset_j > 0.

The Floer differential of the fiber at the trivial bounding datum is
interior contraction on the exterior algebra of the boundary lattice by
the covector

    w_i = sum_j T^(area_j(u)) * (normal_j)_i,

one summand per disk class, all with coefficient +1: opposite facets of a
sphere factor contribute opposite boundary classes, which is exactly how
the two hemisphere disks cancel or survive.

The cohomology of that Koszul complex has a closed form.  The bounded
Novikov subring is a valuation ring, so the component of w of smallest
valuation v divides all the others, and a unimodular change of basis of
the lattice takes w to (T^v * unit, 0, ..., 0).  The complex then splits
as K(T^v) (x) Lambda(n - 1): the one-variable complex contributes a
single summand (bounded subring)/T^v, and the exterior algebra on the
remaining n - 1 directions repeats it 2^(n-1) times.  When w vanishes
below the truncation every differential is zero and the cohomology is
free of rank 2^n.  The torsion threshold, v or +inf, is a lower bound
for the displacement energy of the fiber.

Since w is a finite sum, v needs no ring arithmetic: group the facets by
area and sum the normals in each group; v is the smallest area whose
summed normal is nonzero.  A truncation level ``trunc`` gives the answer
as seen below that level; omitting it gives the exact answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyInterior, FiberOnBoundary
from .novikov import NovikovElement
from .rationals import INFINITE, Level, as_level, is_infinite
from .valmat import ModuleDecomposition


@dataclass(frozen=True)
class Facet:
    """Half-space <normal, u> >= offset.

    kind "closed" marks facets of a compact factor; "open" marks the
    single facet of a cylinder factor, whose opposite side runs off to
    infinity.  Both kinds bound one disk class; the kind only matters
    for boundedness bookkeeping.
    """

    normal: tuple[int, ...]
    offset: Fraction
    kind: str = "closed"

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(int(c) for c in self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if self.kind not in ("closed", "open"):
            raise ValueError(f"facet kind must be closed or open, got {self.kind!r}")
        if not self.normal or math.gcd(*(abs(c) for c in self.normal)) != 1:
            raise ValueError(f"facet normal {self.normal} is not primitive")


@dataclass(frozen=True)
class MomentModel:
    """Rational polytope with named factor structure for reporting."""

    dim: int
    facets: tuple[Facet, ...]
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        for facet in self.facets:
            if len(facet.normal) != self.dim:
                raise ValueError("facet dimension mismatch")

    def slacks(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.dim:
            raise ValueError(f"point has dimension {len(point)}, model {self.dim}")
        return tuple(
            sum(n * x for n, x in zip(facet.normal, point)) - facet.offset
            for facet in self.facets)

    def is_interior(self, point: Sequence[Fraction]) -> bool:
        return all(s > 0 for s in self.slacks(point))


def sphere_factor(area) -> MomentModel:
    """Sphere of total area a: interval [0, a], hemisphere areas u, a-u."""
    area = Fraction(area)
    if area <= 0:
        raise ValueError("sphere area must be positive")
    return MomentModel(
        dim=1,
        facets=(Facet((1,), Fraction(0)), Facet((-1,), -area)),
        description=f"S2({area})",
    )


def projective_factor(k: int, size) -> MomentModel:
    """Projective k-space scaled to line class size: the simplex
    {u_i >= 0, sum u_i <= size}."""
    size = Fraction(size)
    k = int(k)
    if k < 1 or size <= 0:
        raise ValueError("projective factor needs k >= 1 and positive size")
    unit = [0] * k
    facets = []
    for i in range(k):
        normal = unit.copy()
        normal[i] = 1
        facets.append(Facet(tuple(normal), Fraction(0)))
    facets.append(Facet((-1,) * k, -size))
    return MomentModel(dim=k, facets=tuple(facets),
                       description=f"CP{k}({size})")


def cylinder_factor() -> MomentModel:
    """Open complex-line factor: half line u >= 0, a single facet whose
    circle of radius-squared u bounds one disk of area u."""
    return MomentModel(dim=1, facets=(Facet((1,), Fraction(0), "open"),),
                       description="C")


def product(*models: MomentModel) -> MomentModel:
    """Product model: facet normals padded into the joint coordinates."""
    total_dim = sum(m.dim for m in models)
    facets = []
    offset_dim = 0
    for model in models:
        for facet in model.facets:
            normal = (0,) * offset_dim + facet.normal \
                + (0,) * (total_dim - offset_dim - model.dim)
            facets.append(Facet(normal, facet.offset, facet.kind))
        offset_dim += model.dim
    description = " x ".join(m.description or "?" for m in models)
    return MomentModel(dim=total_dim, facets=tuple(facets),
                       description=description)


def facet_areas(model: MomentModel, fiber: Sequence) -> tuple[Fraction, ...]:
    """Exact facet distances; positive on the interior.

    Raises FiberOnBoundary when any distance fails to be positive.
    """
    slacks = model.slacks(fiber)
    for index, value in enumerate(slacks):
        if value <= 0:
            raise FiberOnBoundary(
                f"facet {index} has nonpositive area {value} at {tuple(fiber)}")
    return slacks


def _area_normals(model: MomentModel, fiber: Sequence
                  ) -> dict[Fraction, list[int]]:
    """Each facet area at the fiber, mapped to the summed normals of the
    facets with that area: the coefficient of T^area in every covector
    component."""
    table: dict[Fraction, list[int]] = {}
    for facet, area in zip(model.facets, facet_areas(model, fiber)):
        summed = table.setdefault(area, [0] * model.dim)
        for i, c in enumerate(facet.normal):
            summed[i] += c
    return table


def potential(model: MomentModel, fiber: Sequence) -> NovikovElement:
    """Sum of T^area over the disk classes (an exact element)."""
    return NovikovElement((1, area) for area in facet_areas(model, fiber))


def boundary_covector(model: MomentModel, fiber: Sequence,
                      trunc: Level | None = None
                      ) -> tuple[NovikovElement, ...]:
    """The contraction covector w with w_i = sum_j T^(area_j) normal_j[i],
    below ``trunc`` (exact when omitted).

    Components cancel exactly when facet areas balance, e.g. over the
    equator of a sphere factor.
    """
    table = _area_normals(model, fiber)
    level = INFINITE if trunc is None else as_level(trunc)
    return tuple(
        NovikovElement(((normal[i], area) for area, normal in table.items()
                        if normal[i]), level)
        for i in range(model.dim))


def floer_cohomology(model: MomentModel, fiber: Sequence,
                     trunc: Level | None = None) -> ModuleDecomposition:
    """Aggregate decomposition over all degrees, in closed form.

    With v the smallest valuation among the covector components, the
    cohomology is free of rank 2^n when v is infinite (w vanishes below
    the truncation) and otherwise 2^(n-1) torsion summands of exponent
    v: a unimodular change of basis takes w to (T^v * unit, 0, ..., 0),
    and the Koszul complex becomes K(T^v) (x) Lambda(n - 1).
    """
    value = torsion_threshold_at(model, fiber, trunc)
    if is_infinite(value):
        return ModuleDecomposition(betti=2 ** model.dim, torsion=())
    return ModuleDecomposition(betti=0,
                               torsion=(value,) * 2 ** (model.dim - 1))


def torsion_threshold_at(model: MomentModel, fiber: Sequence,
                         trunc: Level | None = None) -> Level:
    """Torsion threshold of the fiber's cohomology: the smallest facet
    area below ``trunc`` whose summed normal is nonzero (the smallest
    covector valuation), +inf when there is none."""
    level = INFINITE if trunc is None else as_level(trunc)
    return min((area for area, normal in _area_normals(model, fiber).items()
                if area < level and any(normal)), default=INFINITE)


# -- optimization over the fiber location --------------------------------

def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]
                  ) -> list[Fraction] | None:
    """Exact Gaussian elimination; None for singular systems."""
    n = len(rows)
    work = [row[:] + [value] for row, value in zip(rows, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [value / pivot for value in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[col])]
    return [work[r][n] for r in range(n)]


def _vertices(model: MomentModel) -> list[tuple[Fraction, ...]]:
    points = set()
    facets = model.facets
    for subset in itertools.combinations(range(len(facets)), model.dim):
        rows = [list(map(Fraction, facets[i].normal)) for i in subset]
        rhs = [facets[i].offset for i in subset]
        solution = _solve_square(rows, rhs)
        if solution is None:
            continue
        if all(s >= 0 for s in model.slacks(solution)):
            points.add(tuple(solution))
    return sorted(points)


def _blocks(model: MomentModel) -> list[tuple[list[int], MomentModel]]:
    """The polytope as a product of blocks: two coordinates share a
    block when some facet normal is nonzero in both.  Each block comes
    with its coordinates and the model of its facets restricted to them;
    the blocks of a ``product`` are its factors."""
    label = list(range(model.dim))
    for facet in model.facets:
        joined = {label[i] for i, c in enumerate(facet.normal) if c}
        label = [min(joined) if b in joined else b for b in label]
    blocks = []
    for root in sorted(set(label)):
        coords = [i for i, b in enumerate(label) if b == root]
        facets = [Facet(tuple(f.normal[i] for i in coords), f.offset, f.kind)
                  for f in model.facets if any(f.normal[i] for i in coords)]
        blocks.append((coords, MomentModel(len(coords), facets)))
    return blocks


def coordinate_intervals(model: MomentModel, cap=None
                         ) -> list[tuple[Fraction, Fraction]]:
    """Exact per-coordinate bounds of the polytope.

    Each coordinate's bounds are read off the vertices of its block (see
    ``_blocks``), since the vertices of a product are the products of
    its blocks' vertices.  Directions in which the polytope recedes
    along a coordinate axis (every normal component of one sign, as for
    cylinder factors) are capped by the required ``cap`` argument.
    """
    intervals: list = [None] * model.dim
    for coords, block in _blocks(model):
        vertices = _vertices(block)
        if not vertices:
            raise EmptyInterior("the polytope has no vertices")
        for position, i in enumerate(coords):
            values = [v[position] for v in vertices]
            intervals[i] = (min(values), max(values))
    for i, (lo, hi) in enumerate(intervals):
        if all(f.normal[i] >= 0 for f in model.facets):
            if cap is None:
                raise ValueError(
                    f"coordinate {i} is unbounded above; pass a cap")
            hi = max(hi, Fraction(cap))
        if all(f.normal[i] <= 0 for f in model.facets):
            if cap is None:
                raise ValueError(
                    f"coordinate {i} is unbounded below; pass a cap")
            lo = min(lo, -Fraction(cap))
        intervals[i] = (lo, hi)
    return intervals


@dataclass(frozen=True)
class ThresholdSearch:
    """Best fiber found by grid search plus coordinate refinement."""

    fiber: tuple[Fraction, ...]
    value: Level
    resolution: int
    non_displaceable: bool


def optimize_threshold(model: MomentModel, resolution: int = 8,
                       cap=None, refine_rounds: int = 2,
                       trunc: Level | None = None) -> ThresholdSearch:
    """Maximize the torsion threshold over interior grid fibers.

    The grid subdivides each coordinate interval into ``resolution``
    parts (nested grids, so doubling the resolution never lowers the
    result).  A fiber of threshold +inf (vanishing covector) short-circuits
    the search.  Refinement rounds run coordinate descent on
    successively halved windows around the incumbent.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    intervals = coordinate_intervals(model, cap)

    def evaluate(point) -> Level:
        return torsion_threshold_at(model, point, trunc)

    best_point = None
    best_value = None
    axes = [
        [lo + (hi - lo) * Fraction(j, resolution)
         for j in range(1, resolution)]
        for lo, hi in intervals
    ]
    for candidate in itertools.product(*axes):
        if not model.is_interior(candidate):
            continue
        value = evaluate(candidate)
        if is_infinite(value):
            return ThresholdSearch(fiber=tuple(candidate), value=INFINITE,
                                   resolution=resolution,
                                   non_displaceable=True)
        if best_value is None or value > best_value:
            best_point, best_value = tuple(candidate), value
    if best_point is None:
        raise EmptyInterior(
            f"no interior grid point at resolution {resolution}")

    for round_index in range(1, refine_rounds + 1):
        for axis in range(model.dim):
            lo, hi = intervals[axis]
            window = (hi - lo) / (resolution * 2 ** round_index)
            for step in range(-resolution, resolution + 1):
                moved = list(best_point)
                moved[axis] = best_point[axis] + window * step
                if not (lo < moved[axis] < hi) or not model.is_interior(moved):
                    continue
                value = evaluate(moved)
                if value > best_value:
                    best_point, best_value = tuple(moved), value
    return ThresholdSearch(fiber=best_point, value=best_value,
                           resolution=resolution,
                           non_displaceable=is_infinite(best_value))


# -- JSON codec -----------------------------------------------------------

def model_to_json(model: MomentModel) -> dict:
    return {
        "dim": model.dim,
        "facets": [
            {"normal": list(f.normal), "offset": str(f.offset),
             "kind": f.kind}
            for f in model.facets
        ],
        "description": model.description,
    }


def model_from_json(data: dict) -> MomentModel:
    facets = tuple(
        Facet(tuple(entry["normal"]), Fraction(entry["offset"]),
              entry.get("kind", "closed"))
        for entry in data["facets"])
    return MomentModel(dim=int(data["dim"]), facets=facets,
                       description=data.get("description", ""))


_FACTOR_KEYS = ("sphere", "cp", "cylinder")


def model_from_factors(spec: Iterable[dict]) -> MomentModel:
    """Shorthand: [{"sphere": "3/2"}, {"cp": {"k": 2, "lambda": "10"}},
    {"cylinder": true}] builds the product in order."""
    factors = []
    for entry in spec:
        keys = [key for key in _FACTOR_KEYS if key in entry]
        if len(keys) != 1:
            raise ValueError(f"factor {entry!r} must name exactly one of "
                             f"{_FACTOR_KEYS}")
        key = keys[0]
        if key == "sphere":
            factors.append(sphere_factor(Fraction(entry["sphere"])))
        elif key == "cp":
            blob = entry["cp"]
            factors.append(projective_factor(int(blob["k"]),
                                             Fraction(blob["lambda"])))
        else:
            factors.append(cylinder_factor())
    if not factors:
        raise ValueError("empty factor list")
    return product(*factors)
