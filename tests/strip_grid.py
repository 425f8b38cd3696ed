"""Strips sampled from a closed-form map, for tests."""

import numpy as np

from torsionlab.hamlab import StripMap, euclidean_plane


def strip_from_function(fn, tau, t) -> StripMap:
    """The strip on the plane with points fn(tau, t); fn maps the
    broadcast (tau, t) grids to an array (len(tau), len(t), 2)."""
    tau = np.asarray(tau, dtype=float)
    t = np.asarray(t, dtype=float)
    grid_tau, grid_t = np.meshgrid(tau, t, indexing="ij")
    return StripMap(euclidean_plane(), tau, t,
                    np.asarray(fn(grid_tau, grid_t), float))
