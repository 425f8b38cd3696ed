"""Two threshold searches kept as test oracles.

``toric.optimize_threshold`` takes each block through FOOO's max-min
levels: the largest least area over the block (and its box, when it
recedes), then, while the facets tight at that level have normals that
sum to zero, the next level with those facets held there.

``grid_search`` is the search that preceded it: one grid over the
product of every coordinate interval of the model plus coordinate
refinement across all of them.  The optimizer's answer may never fall
below it.

``vertex_search`` is an exact answer reached another way, through
(u, t) with t a lower bound on the threshold.  A fiber u has threshold
at least t > 0 when every facet of area below t lies in a group of
equal areas whose normals sum to zero.  On a zero-sum subset G of the
facets the areas sum to -sum_G c_j whatever u is, so they can all be
equal only at the level s_G = -sum_G c_j / |G|.  For a fixed choice of
such groups, the best t is a linear program in (u, t): a_j(u) = s_G on
the grouped facets, a_j(u) >= t on the others, and the closed box.  Its
optimum is a vertex of the hyperplanes a_j(u) = t, a_j(u) = s_G and
the box faces, d + 1 of them at a time, which the search enumerates.
A zero-sum subset that holds a smaller one is the union of two, and
their areas can all be equal only where both levels are, so only the
minimal zero-sum subsets give hyperplanes.
"""

import itertools
from fractions import Fraction

from torsionlab.errors import EmptyInterior
from torsionlab.rationals import is_infinite
from torsionlab.toric import (ThresholdSearch, _intervals, _model_blocks,
                              torsion_threshold_at)


def coordinate_intervals(model, cap=None):
    """Exact per-coordinate bounds of the polytope, block by block (see
    ``toric._blocks`` and ``toric._intervals``)."""
    intervals = {}
    for coords, block in _model_blocks(model):
        intervals.update(zip(coords, _intervals(coords, block, cap)))
    return [intervals[i] for i in range(model.dim)]


def grid_search(model, resolution=8, cap=None,
                refine_rounds=2) -> ThresholdSearch:
    """The best interior grid fiber, refined by coordinate descent on
    successively halved windows; a fiber of threshold +inf ends the
    search."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    intervals = coordinate_intervals(model, cap)

    def evaluate(point):
        return torsion_threshold_at(model, point)

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
            return ThresholdSearch(fiber=tuple(candidate), value=value,
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
                           non_displaceable=is_infinite(best_value))


def _eliminate(rows):
    """The solution of the square augmented system ``rows`` by forward
    elimination and back substitution, None when it is singular."""
    rows = [list(row) for row in rows]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if rows[r][col]:
                ratio = rows[r][col] / rows[col][col]
                rows[r] = [a - ratio * b if b else a
                           for a, b in zip(rows[r], rows[col])]
    solution = [Fraction(0)] * n
    for r in reversed(range(n)):
        rest = sum(rows[r][c] * solution[c] for c in range(r + 1, n))
        solution[r] = (rows[r][n] - rest) / rows[r][r]
    return solution


def vertex_search(model, cap=None) -> ThresholdSearch:
    """The first interior fiber of largest threshold among the vertices
    in (u, t) of the hyperplanes a_j(u) = t, a_j(u) = s_G and the box
    faces (see the module docstring), over the model as one polytope; a
    fiber of threshold +inf ends the search."""
    intervals = coordinate_intervals(model, cap)
    dim = model.dim
    facets = []
    start = 0
    for factor in model.factors:
        for facet in factor.facets:
            normal = [Fraction(0)] * dim
            normal[start:start + factor.dim] = map(Fraction, facet.normal)
            facets.append((normal, facet.offset))
        start += factor.dim
    # each hyperplane as the coefficients of (u, t) and the right side
    planes = {(*normal, Fraction(-1), offset) for normal, offset in facets}
    groups = []
    for size in range(2, len(facets) + 1):
        for group in itertools.combinations(range(len(facets)), size):
            if any(set(smaller) <= set(group) for smaller in groups) or any(
                    map(sum, zip(*(facets[j][0] for j in group)))):
                continue
            groups.append(group)
            level = -sum(facets[j][1] for j in group) / size
            if level > 0:
                planes.update((*facets[j][0], Fraction(0),
                               facets[j][1] + level) for j in group)
    for i, (lo, hi) in enumerate(intervals):
        axis = tuple(Fraction(int(j == i)) for j in range(dim + 1))
        planes.update({(*axis, lo), (*axis, hi)})
    best_point = best_value = None
    for subset in itertools.combinations(sorted(planes), dim + 1):
        solution = _eliminate(subset)
        if solution is None:
            continue
        point = tuple(solution[:dim])
        if not all(lo <= x <= hi for x, (lo, hi) in zip(point, intervals)) \
                or not model.is_interior(point):
            continue
        value = torsion_threshold_at(model, point)
        if best_value is None or value > best_value:
            best_point, best_value = point, value
            if is_infinite(value):
                break
    if best_point is None:
        raise EmptyInterior("no interior vertex")
    return ThresholdSearch(fiber=best_point, value=best_value,
                           non_displaceable=is_infinite(best_value))
