"""Torus fibers of toric models: disk potentials and torsion thresholds.

A moment model is a product of factors.  Each factor is a rational
polytope in its own coordinates, given by facet inequalities
<normal, u> >= offset with primitive integer normals; the product's
coordinates and facets are the factors' in order.  Spheres, projective
spaces and the open cylinder are named one-factor models, and a
facet-JSON model is a single general factor.

A fiber over an interior point u carries one holomorphic disk class per
facet, with boundary class the facet normal and symplectic area the
facet distance

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
every differential is zero and the cohomology is free of rank 2^n.  The
torsion threshold, v or +inf, is a lower bound for the displacement
energy of the fiber.

Since w is a finite sum, v needs no ring arithmetic: group the facets by
area and sum the normals in each group; v is the smallest area whose
summed normal is nonzero.  Every answer here is therefore exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import EmptyInterior, FiberOnBoundary
from .novikov import NovikovElement
from .rationals import INFINITE, Level, is_infinite, rational
from .valmat import ModuleDecomposition, _fields, _is_count


@dataclass(frozen=True)
class Facet:
    """Half-space <normal, u> >= offset."""

    normal: tuple[int, ...]
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(int(c) for c in self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if not self.normal or math.gcd(*(abs(c) for c in self.normal)) != 1:
            raise ValueError(f"facet normal {self.normal} is not primitive")


@dataclass(frozen=True)
class Factor:
    """Rational polytope in its own coordinates."""

    dim: int
    facets: tuple[Facet, ...]

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        for facet in self.facets:
            if len(facet.normal) != self.dim:
                raise ValueError("facet dimension mismatch")

    def slacks(self, point: Sequence[Fraction]) -> list[Fraction]:
        return [sum(n * x for n, x in zip(facet.normal, point) if n)
                - facet.offset for facet in self.facets]


@dataclass(frozen=True)
class MomentModel:
    """Product of factors, named for reporting."""

    factors: tuple[Factor, ...]
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self) -> int:
        return sum(factor.dim for factor in self.factors)

    def _placed(self) -> Iterator[tuple[int, Factor]]:
        """Each factor with the product coordinate of its first axis."""
        start = 0
        for factor in self.factors:
            yield start, factor
            start += factor.dim

    def slacks(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.dim:
            raise ValueError(f"point has dimension {len(point)}, model {self.dim}")
        return tuple(
            slack for start, factor in self._placed()
            for slack in factor.slacks(point[start:start + factor.dim]))

    def is_interior(self, point: Sequence[Fraction]) -> bool:
        return all(s > 0 for s in self.slacks(point))


def sphere_factor(area) -> MomentModel:
    """Sphere of total area a: interval [0, a], hemisphere areas u, a-u."""
    area = Fraction(area)
    if area <= 0:
        raise ValueError("sphere area must be positive")
    return MomentModel((Factor(1, (Facet((1,), 0), Facet((-1,), -area))),),
                       f"S2({area})")


def projective_factor(k: int, size) -> MomentModel:
    """Projective k-space scaled to line class size: the simplex
    {u_i >= 0, sum u_i <= size}."""
    size = Fraction(size)
    k = int(k)
    if k < 1 or size <= 0:
        raise ValueError("projective factor needs k >= 1 and positive size")
    facets = [Facet(tuple(int(i == j) for j in range(k)), 0) for i in range(k)]
    facets.append(Facet((-1,) * k, -size))
    return MomentModel((Factor(k, facets),), f"CP{k}({size})")


def cylinder_factor() -> MomentModel:
    """Open complex-line factor: half line u >= 0, a single facet whose
    circle of radius-squared u bounds one disk of area u; the polytope
    recedes to infinity on the other side."""
    return MomentModel((Factor(1, (Facet((1,), 0),)),), "C")


def product(*models: MomentModel) -> MomentModel:
    """Product model: the factors of each model, in order."""
    return MomentModel(
        tuple(factor for model in models for factor in model.factors),
        " x ".join(m.description or "?" for m in models))


def facet_areas(model: MomentModel, fiber: Sequence) -> tuple[Fraction, ...]:
    """Exact facet distances; positive on the interior.

    Raises FiberOnBoundary when any distance fails to be positive.
    """
    slacks = model.slacks(fiber)
    for index, value in enumerate(slacks):
        if value <= 0:
            raise FiberOnBoundary(
                f"facet {index} has nonpositive area {value} at "
                f"({', '.join(str(Fraction(x)) for x in fiber)})")
    return slacks


def _area_normals(model: MomentModel, fiber: Sequence
                  ) -> dict[Fraction, dict[int, int]]:
    """Each facet area at the fiber, mapped to the summed normal of the
    facets with that area, by product coordinate: the coefficient of
    T^area in every covector component."""
    placed = ((start, facet) for start, factor in model._placed()
              for facet in factor.facets)
    table: dict[Fraction, dict[int, int]] = {}
    for (start, facet), area in zip(placed, facet_areas(model, fiber)):
        summed = table.setdefault(area, {})
        for i, c in enumerate(facet.normal, start):
            if c:
                summed[i] = summed.get(i, 0) + c
    return table


def potential(model: MomentModel, fiber: Sequence) -> NovikovElement:
    """Sum of T^area over the disk classes (an exact element)."""
    return NovikovElement((1, area) for area in facet_areas(model, fiber))


def boundary_covector(model: MomentModel, fiber: Sequence
                      ) -> tuple[NovikovElement, ...]:
    """The contraction covector w with w_i = sum_j T^(area_j) normal_j[i],
    as exact elements.

    Components cancel exactly when facet areas balance, e.g. over the
    equator of a sphere factor.
    """
    terms: list[list] = [[] for _ in range(model.dim)]
    for area, normal in _area_normals(model, fiber).items():
        for i, c in normal.items():
            if c:
                terms[i].append((c, area))
    return tuple(NovikovElement(component) for component in terms)


def floer_cohomology(model: MomentModel, fiber: Sequence,
                     trunc=None) -> ModuleDecomposition:
    """Aggregate decomposition over all degrees, in closed form.

    With v the smallest valuation among the covector components, the
    cohomology is free of rank 2^n when v is infinite (w vanishes) and
    otherwise 2^(n-1) torsion summands of exponent v: a unimodular
    change of basis takes w to (T^v * unit, 0, ..., 0), and the Koszul
    complex becomes K(T^v) (x) Lambda(n - 1).  ``trunc`` is ignored,
    since the answer is exact; ``perfbench/exact_core.py`` still passes
    it.
    """
    value = torsion_threshold_at(model, fiber)
    if is_infinite(value):
        return ModuleDecomposition(betti=2 ** model.dim, torsion=())
    return ModuleDecomposition(betti=0,
                               torsion=(value,) * 2 ** (model.dim - 1))


def torsion_threshold_at(model: MomentModel, fiber: Sequence) -> Level:
    """Torsion threshold of the fiber's cohomology: the smallest facet
    area whose summed normal is nonzero (the smallest covector
    valuation), +inf when there is none."""
    return min((area for area, normal in _area_normals(model, fiber).items()
                if any(normal.values())), default=INFINITE)


# -- optimization over the fiber location --------------------------------

def _solve(rows: list[list[Fraction]], rhs: list[Fraction]
           ) -> list[Fraction] | None:
    """Exact Gaussian elimination: the solution the rows fix, None when
    they leave it undetermined.  Rows beyond the first independent ones
    are not checked."""
    n = len(rows[0])
    work = [row[:] + [value] for row, value in zip(rows, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, len(work))
                          if work[r][col]), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        if pivot != 1:
            work[col] = [value / pivot if value else value
                         for value in work[col]]
        for r in range(len(work)):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b if b else a
                           for a, b in zip(work[r], work[col])]
    return [work[r][n] for r in range(n)]


def _points(planes: list[tuple[list[Fraction], Fraction]], dim: int
            ) -> Iterator[tuple[Fraction, ...]]:
    """Each distinct point that ``dim`` of the hyperplanes <row, u> = rhs
    fix, in the order of the subsets that first fix it."""
    seen = set()
    for subset in itertools.combinations(planes, dim):
        solution = _solve([row for row, _ in subset],
                          [rhs for _, rhs in subset])
        if solution is not None and tuple(solution) not in seen:
            seen.add(tuple(solution))
            yield tuple(solution)


def _blocks(factor: Factor) -> list[tuple[list[int], Factor]]:
    """The factor as a product of blocks: two coordinates share a block
    when some facet normal is nonzero in both.  Each block comes with
    its coordinates and its facets restricted to them."""
    label = list(range(factor.dim))
    for facet in factor.facets:
        joined = {label[i] for i, c in enumerate(facet.normal) if c}
        label = [min(joined) if b in joined else b for b in label]
    blocks = []
    for root in sorted(set(label)):
        coords = [i for i, b in enumerate(label) if b == root]
        facets = [Facet(tuple(f.normal[i] for i in coords), f.offset)
                  for f in factor.facets if any(f.normal[i] for i in coords)]
        blocks.append((coords, Factor(len(coords), facets)))
    return blocks


def _model_blocks(model: MomentModel) -> list[tuple[list[int], Factor]]:
    """The blocks of every factor, each with its product coordinates."""
    return [([start + i for i in coords], block)
            for start, factor in model._placed()
            for coords, block in _blocks(factor)]


def _rays(block: Factor) -> list[list[Fraction]]:
    """The extreme rays of the block's recession cone {r : <n_j, r> >= 0},
    each scaled to <s, r> = 1 for s the sum of its normals.  With the
    normals of full rank, every nonzero r in the cone has <s, r> > 0, so
    the rays are the vertices of that slice: <s, r> = 1 and d - 1 of the
    planes <n_j, r> = 0.  There are none when s = 0, where the block is
    compact, and then no system is solved."""
    total = [sum(column) for column in zip(*(f.normal for f in block.facets))]
    if not any(total):
        return []
    total = list(map(Fraction, total))
    normals = [list(map(Fraction, f.normal)) for f in block.facets]
    rhs = [Fraction(1)] + [Fraction(0)] * (block.dim - 1)
    rays = (_solve([total, *subset], rhs)
            for subset in itertools.combinations(normals, block.dim - 1))
    return [r for r in rays if r is not None and all(
        sum(c * x for c, x in zip(row, r)) >= 0 for row in normals)]


def _intervals(coords: list[int], block: Factor, cap
               ) -> list[tuple[Fraction, Fraction]]:
    """Exact bounds of each coordinate of ``block``, read off its
    vertices; ``coords`` are their product coordinates.  A coordinate in
    which some ray of the block (see ``_rays``) points, as for cylinder
    factors, is capped on that side by the required ``cap``."""
    planes = [(list(map(Fraction, f.normal)), f.offset)
              for f in block.facets]
    vertices = [point for point in _points(planes, block.dim)
                if all(s >= 0 for s in block.slacks(point))]
    if not vertices:
        raise EmptyInterior("the polytope has no vertices")
    rays = _rays(block)
    intervals = []
    for position, i in enumerate(coords):
        values = [v[position] for v in vertices]
        lo, hi = min(values), max(values)
        if any(r[position] > 0 for r in rays):
            if cap is None:
                raise ValueError(f"coordinate {i} is unbounded above; "
                                 "pass a cap")
            hi = max(hi, Fraction(cap))
        if any(r[position] < 0 for r in rays):
            if cap is None:
                raise ValueError(f"coordinate {i} is unbounded below; "
                                 "pass a cap")
            lo = min(lo, -Fraction(cap))
        intervals.append((lo, hi))
    return intervals


# A level of a block of m facets in d coordinates has C(m, d + 1)
# candidate vertices, C(m + 2d, d + 1) if it recedes; past this, refused.
CANDIDATE_BUDGET = 20_000


def _check_budget(coords: list[int], block: Factor, box) -> None:
    m, d = len(block.facets), block.dim
    count = math.comb(m + 2 * len(box), d + 1)
    if count > CANDIDATE_BUDGET:
        raise ValueError(
            f"the block over coordinates {coords} has m = {m} facets in "
            f"d = {d} dimensions, so a level has at least "
            f"C(m{' + 2d' * bool(box)}, d + 1) = {count} candidate "
            f"vertices, over the budget of {CANDIDATE_BUDGET}")


@dataclass(frozen=True)
class ThresholdSearch:
    """Best fiber: each block at the last of its max-min levels."""

    fiber: tuple[Fraction, ...]
    value: Level
    non_displaceable: bool


def _levels(block: Factor, box: list[tuple[Fraction, Fraction]]
            ) -> tuple[Fraction, ...] | None:
    """The least optimal vertex of the last of FOOO's max-min levels
    (arXiv:0802.1703) of ``block`` in the closed ``box``, empty for a
    compact block; None when no point is strictly inside.  Level k takes
    the largest t with a_j >= t on the active facets, a_j >= lambda_i on
    those fixed at an earlier level i, and the box: lambda_k, at vertices
    of those planes d + 1 at a time.  I_k, the active facets of area
    lambda_k at every optimal vertex, are fixed when their normals sum to
    zero (their areas then have a constant sum); otherwise the threshold
    is lambda_k.  With every facet fixed it is +inf (see README)."""
    dim = block.dim + 1
    normals = [list(map(Fraction, f.normal)) for f in block.facets]
    bounds = [([Fraction(int(j == i)) for j in range(dim)], side)
              for i, sides in enumerate(box) for side in sides]
    fixed: list[Fraction | None] = [None] * len(normals)
    minus_one, zero = Fraction(-1), Fraction(0)
    while True:
        planes = [(row + [minus_one], f.offset) if level is None
                  else (row + [zero], f.offset + level)
                  for row, f, level in zip(normals, block.facets, fixed)]
        best, tops = None, []
        for *point, t in _points(planes + bounds, dim):
            areas = block.slacks(point)
            if all(a >= (t if level is None else level)
                   for a, level in zip(areas, fixed)) and all(
                    lo <= x <= hi for x, (lo, hi) in zip(point, box)):
                if best is None or t > best:
                    best, tops = t, []
                if t == best:
                    tops.append((point, areas))
        if best is None or best <= 0:
            return None
        tight = [j for j, level in enumerate(fixed) if level is None
                 and all(areas[j] == best for _, areas in tops)]
        for j in tight:
            fixed[j] = best
        if any(map(sum, zip(*(block.facets[j].normal for j in tight)))) \
                or all(level is not None for level in fixed):
            return tuple(min(point for point, _ in tops))


def optimize_threshold(model: MomentModel, cap=None, trunc=None,
                       resolution=None) -> ThresholdSearch:
    """Maximize the torsion threshold over interior fibers, exactly.

    Blocks (see ``_blocks``) have disjoint coordinates, so each takes its
    own max-min levels (see ``_levels``); one that recedes (see
    ``_rays``) is held to its closed box (see ``_intervals``), so ``cap``
    is an inclusive bound.  Blocks meet ``CANDIDATE_BUDGET`` before any
    system is solved and again once a box is known, and an empty
    interior is refused after every box.  ``trunc`` and ``resolution``
    are ignored; ``perfbench/exact_core.py`` still passes them.
    """
    blocks = _model_blocks(model)
    for coords, block in blocks:
        _check_budget(coords, block, [])
    placed, empty = {}, []
    for coords, block in blocks:
        box = _intervals(coords, block, cap) if _rays(block) else []
        _check_budget(coords, block, box)
        point = _levels(block, box)
        if point is None:  # _intervals refuses a block with no vertices
            empty.append(box or _intervals(coords, block, cap))
        placed.update(zip(coords, point or ()))
    if empty:
        box = " x ".join(f"[{lo}, {hi}]" for lo, hi in empty[0])
        raise EmptyInterior(f"the polytope has no interior point in {box}")
    fiber = tuple(placed[i] for i in range(model.dim))
    value = torsion_threshold_at(model, fiber)
    return ThresholdSearch(fiber=fiber, value=value,
                           non_displaceable=is_infinite(value))


# -- JSON codec -----------------------------------------------------------

def _read(where: str, build):
    """``build()``, or a ValueError naming ``where`` when the values it
    reads are malformed."""
    try:
        return build()
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _rational_field(blob: dict, key: str, where: str) -> Fraction:
    """``blob[key]`` as an exact rational: an integer or a 'p/q' string,
    not a float or a bool.  Otherwise a ValueError names the field."""
    try:
        return rational(blob[key])
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValueError(f"{where} field {key!r} needs a rational p/q; "
                         f"got {blob[key]!r}") from None


def model_from_json(data: dict) -> MomentModel:
    """A model file: the factor list ``{"product": [...]}`` (see
    ``model_from_factors``), or one general factor ``{"dim", "facets",
    "description"?}`` whose facets ``{"normal", "offset"}`` keep the
    file's order.  A missing or malformed field raises ValueError
    naming it."""
    if isinstance(data, dict) and "product" in data:
        if not isinstance(data["product"], list):
            raise ValueError("model JSON field 'product' must be a list; "
                             f"got {type(data['product']).__name__}")
        return model_from_factors(data["product"])
    _fields(data, "model JSON", ("dim", "facets"))
    if not _is_count(data["dim"]):
        raise ValueError("model JSON field 'dim' must be a non-negative "
                         f"integer; got {data['dim']!r}")
    if not isinstance(data["facets"], list):
        raise ValueError("model JSON field 'facets' must be a list; got "
                         f"{type(data['facets']).__name__}")
    facets = []
    for index, entry in enumerate(data["facets"]):
        where = f"model JSON facet {index}"
        _fields(entry, where, ("normal", "offset"))
        normal = entry["normal"]
        if not (isinstance(normal, list) and all(
                isinstance(c, int) and not isinstance(c, bool)
                for c in normal)):
            raise ValueError(f"{where} field 'normal' must be a list of "
                             f"integers; got {normal!r}")
        offset = _rational_field(entry, "offset", where)
        facets.append(_read(where, lambda: Facet(tuple(normal), offset)))
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ValueError("model JSON field 'description' must be a string; "
                         f"got {description!r}")
    return MomentModel((Factor(data["dim"], facets),), description)


_FACTOR_KEYS = ("sphere", "cp", "cylinder")


def model_from_factors(spec: Iterable[dict]) -> MomentModel:
    """Shorthand: [{"sphere": "3/2"}, {"cp": {"k": 2, "lambda": "10"}},
    {"cylinder": true}] builds the product in order."""
    factors = []
    for index, entry in enumerate(spec):
        where = f"model JSON factor {index}"
        keys = [key for key in _FACTOR_KEYS
                if isinstance(entry, dict) and key in entry]
        if len(keys) != 1:
            raise ValueError(f"{where} must be an object naming exactly one "
                             f"of {', '.join(_FACTOR_KEYS)}; got {entry!r}")
        key = keys[0]
        if key == "sphere":
            area = _rational_field(entry, "sphere", where)
            factors.append(_read(where, lambda: sphere_factor(area)))
        elif key == "cp":
            blob = entry["cp"]
            _fields(blob, f"{where} 'cp'", ("k", "lambda"))
            if isinstance(blob["k"], bool) or not isinstance(blob["k"], int):
                raise ValueError(f"{where} 'cp' field 'k' must be an "
                                 f"integer; got {blob['k']!r}")
            size = _rational_field(blob, "lambda", f"{where} 'cp'")
            factors.append(_read(where, lambda: projective_factor(
                blob["k"], size)))
        else:
            if entry["cylinder"] is not True:
                raise ValueError(f"{where} 'cylinder' must be true; got "
                                 f"{entry['cylinder']!r}")
            factors.append(cylinder_factor())
    if not factors:
        raise ValueError("empty factor list")
    return product(*factors)
