"""Koszul contraction complex of a toric fiber, kept as a test oracle.

``toric.floer_cohomology`` answers in closed form.  This module builds
the whole rank-2^n complex of interior contraction by the covector of
``toric.boundary_covector`` so that ``valmat.decompose`` can check that
closed form from the general normal-form machinery.
"""

import itertools
import math

from torsionlab.novikov import NovikovElement
from torsionlab.rationals import as_level
from torsionlab.toric import boundary_covector, facet_areas
from torsionlab.valmat import ChainComplex, NovikovMatrix


def contraction_matrix(covector, degree, trunc) -> NovikovMatrix:
    """Matrix of interior contraction from exterior degree d to d - 1."""
    n = len(covector)
    sources = list(itertools.combinations(range(n), degree))
    targets = list(itertools.combinations(range(n), degree - 1))
    index = {subset: row for row, subset in enumerate(targets)}
    zero = NovikovElement.zero()
    grid = [[zero] * len(sources) for _ in targets]
    for col, subset in enumerate(sources):
        for position, i in enumerate(subset):
            rest = subset[:position] + subset[position + 1:]
            entry = -covector[i] if position % 2 else covector[i]
            row = index[rest]
            grid[row][col] = grid[row][col] + entry
    return NovikovMatrix(grid, trunc, shape=(len(targets), len(sources)))


def koszul_complex(model, fiber, trunc=None) -> ChainComplex:
    """The contraction complex in all exterior degrees.

    Cochain degree k holds exterior degree n - k, so the contraction,
    which lowers exterior degree, raises cochain degree.  Without
    ``trunc`` the complex is taken below twice the largest facet area.
    That level decides the answer, since the threshold is a facet area
    or inf, and a finite level lets the normal form end where an exact
    one would need an infinite series.
    """
    level = 2 * max(facet_areas(model, fiber)) if trunc is None \
        else as_level(trunc)
    covector = boundary_covector(model, fiber)
    n = model.dim
    ranks = [math.comb(n, n - k) for k in range(n + 1)]
    differentials = [contraction_matrix(covector, n - k, level)
                     for k in range(n)]
    return ChainComplex(ranks, differentials)
