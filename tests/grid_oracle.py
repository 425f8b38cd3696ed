"""Grid-only threshold search, kept as a test oracle.

``toric.optimize_threshold`` fixes every balanced block at its balanced
point and searches each other block on its own, so its cost is a sum
over blocks.  This is the search it replaced: one grid over the product
of every coordinate interval of the model plus coordinate refinement
across all of them.  The optimizer's answer may never fall below it.
"""

import itertools
from fractions import Fraction

from torsionlab.errors import EmptyInterior
from torsionlab.rationals import INFINITE, is_infinite
from torsionlab.toric import (ThresholdSearch, coordinate_intervals,
                              torsion_threshold_at)


def grid_search(model, resolution=8, cap=None, refine_rounds=2,
                trunc=None) -> ThresholdSearch:
    """The best interior grid fiber, refined by coordinate descent on
    successively halved windows; a fiber of threshold +inf ends the
    search."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    intervals = coordinate_intervals(model, cap)

    def evaluate(point):
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
