"""Flow integration and gauge transformations."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torsionlab.errors import StepFailure
from torsionlab.hamlab import (HamiltonianField, euclidean_plane, flow,
                               gauge_plus)
from torsionlab.hamlab.flow import transport_from_zero, transport_to_zero

# the package exports the function flow under the module's name
flow_module = importlib.import_module("torsionlab.hamlab.flow")


def rotation_field():
    return HamiltonianField(euclidean_plane(), "(x1**2 + y1**2)/2")


def test_zero_time_is_identity():
    H = rotation_field()
    p = np.array([0.3, -0.7])
    assert np.array_equal(flow(H, 0.0, p), p)


def test_constant_hamiltonian_does_not_move_points():
    H = HamiltonianField(euclidean_plane(), "42")
    p = np.array([1.0, 2.0])
    assert np.allclose(flow(H, 1.0, p), p)


def test_quadratic_rotates_clockwise():
    H = rotation_field()
    t = 0.7
    out = flow(H, t, np.array([1.0, 0.0]))
    assert np.allclose(out, [np.cos(t), -np.sin(t)], atol=1e-9)


def test_linear_hamiltonian_translates():
    # H = a x + b y moves points along (b, -a)
    H = HamiltonianField(euclidean_plane(), "3*x1 + 2*y1")
    out = flow(H, 0.5, np.array([0.0, 0.0]))
    assert np.allclose(out, [1.0, -1.5], atol=1e-12)


def test_flow_accepts_batches():
    H = rotation_field()
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    out = flow(H, np.pi / 2, pts)
    assert out.shape == (3, 2)
    assert np.allclose(out, [[0, -1], [1, 0], [0, -2]], atol=1e-8)


def test_flow_preserves_triangle_area():
    rng = np.random.default_rng(23)
    c = [float(v) for v in rng.uniform(-0.8, 0.8, size=3)]
    H = HamiltonianField(
        euclidean_plane(),
        f"{c[0]!r}*x1**2 + {c[1]!r}*x1*y1 + {c[2]!r}*y1**2")
    tri = rng.uniform(-1.0, 1.0, size=(3, 2))

    def shoelace(pts):
        a, b, c = pts
        return 0.5 * ((b[0] - a[0]) * (c[1] - a[1])
                      - (b[1] - a[1]) * (c[0] - a[0]))

    moved = flow(H, 1.0, tri)
    assert shoelace(moved) == pytest.approx(shoelace(tri), abs=1e-10)


def test_step_refinement_gains_fourth_order():
    H = rotation_field()
    exact = np.array([np.cos(1.0), -np.sin(1.0)])
    p = np.array([1.0, 0.0])
    coarse = np.abs(flow(H, 1.0, p, max_step=0.02) - exact).max()
    fine = np.abs(flow(H, 1.0, p, max_step=0.01) - exact).max()
    assert 8.0 < coarse / fine < 32.0


def test_blowup_raises_step_failure():
    # dx/dt = x^2 along the x axis: finite-time escape
    H = HamiltonianField(euclidean_plane(), "x1**2*y1")
    with pytest.raises(StepFailure):
        flow(H, 1.0, np.array([2.0, 0.0]))


def test_gauge_of_zero_hamiltonian_is_identity():
    H = HamiltonianField(euclidean_plane(), "0")
    t = np.linspace(0.0, 1.0, 33)
    path = np.stack([t, t**2], axis=-1)
    assert np.allclose(gauge_plus(H, "first", path, t_nodes=t), path)
    assert np.allclose(gauge_plus(H, "second", path, t_nodes=t), path)


def test_gauge_refuses_an_unknown_argument_before_any_sweep():
    H = rotation_field()
    with mock.patch.object(flow_module, "transport_to_zero") as sweep:
        with pytest.raises(ValueError, match="'first' or 'second'"):
            gauge_plus(H, "third", np.zeros((3, 2)))
    sweep.assert_not_called()


def test_gauge_endpoint_fixing():
    H = rotation_field()
    t = np.linspace(0.0, 1.0, 65)
    path = np.stack([0.2 + 0.5 * t, 0.1 * t], axis=-1)
    first = gauge_plus(H, "first", path, t_nodes=t)
    assert np.allclose(first[-1], path[-1], atol=1e-9)
    second = gauge_plus(H, "second", path, t_nodes=t)
    assert np.allclose(second[0], path[0], atol=1e-9)


def test_gauge_spiral_closed_form():
    """Under the standard rotation the diagonal path becomes a spiral."""
    H = rotation_field()
    t = np.linspace(0.0, 1.0, 101)
    path = np.stack([t, np.zeros_like(t)], axis=-1)
    moved = gauge_plus(H, "first", path, t_nodes=t)
    expect = np.stack([t * np.cos(t - 1.0), -t * np.sin(t - 1.0)], axis=-1)
    assert np.abs(moved - expect).max() < 1e-9


def gauge_minus(H, which, path, t_nodes):
    """Inverse of gauge_plus on a path: carry each point from its
    extraction time back to 0, then forward to time 1."""
    columns = [point[None, :] for point in path]
    times = t_nodes if which == "first" else 1.0 - t_nodes
    at_zero = transport_to_zero(H, columns, times)
    return np.concatenate(transport_from_zero(H, at_zero,
                                              [1.0] * len(columns)))


@pytest.mark.parametrize("which", ["first", "second"])
def test_gauge_roundtrip(which):
    rng = np.random.default_rng(5)
    c = [float(v) for v in rng.uniform(-0.5, 0.5, size=5)]
    H = HamiltonianField(
        euclidean_plane(),
        f"{c[0]!r}*x1**2 + {c[1]!r}*x1*y1 + {c[2]!r}*y1**2"
        f" + {c[3]!r}*x1 + {c[4]!r}*y1")
    t = np.linspace(0.0, 1.0, 101)
    path = np.stack([0.3 * np.cos(2 * t), 0.4 * t - 0.2], axis=-1)
    there = gauge_plus(H, which, path, t_nodes=t)
    back = gauge_minus(H, which, there, t)
    assert np.abs(back - path).max() < 1e-8


def test_gauge_strip_rows_match_paths():
    """Gauging a strip grid treats every tau row like a standalone path."""
    H = rotation_field()
    t = np.linspace(0.0, 1.0, 21)
    rows = [np.stack([t + s, t * s], axis=-1) for s in (0.0, 0.5, 1.0)]
    grid = np.stack(rows, axis=0)
    moved = gauge_plus(H, "first", grid, t_nodes=t)
    assert moved.shape == grid.shape
    for row, original in zip(moved, rows):
        alone = gauge_plus(H, "first", original, t_nodes=t)
        assert np.allclose(row, alone, atol=1e-13)


# -- the staggered sweeps against one flow per column ----------------------

LINEAR = HamiltonianField(euclidean_plane(), "3/4*x1 - 1/2*y1")
ROTATION = rotation_field()


@st.composite
def sweep_columns(draw):
    """Columns of 0-3 points with times in [0, 1]: ties, the ends and
    empty columns included, and sometimes no columns at all."""
    times = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                  st.floats(0.0, 1.0, allow_nan=False)),
        max_size=6))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    columns = [rng.uniform(-1.0, 1.0, size=(draw(st.integers(0, 3)), 2))
               for _ in times]
    return columns, times


@pytest.mark.parametrize("H,tol", [(LINEAR, 1e-12), (ROTATION, 1e-9)],
                         ids=["linear", "rotation"])
@given(case=sweep_columns())
def test_sweeps_match_one_flow_per_column(H, tol, case):
    # RK4 is exact for the linear field in any step partition, so there
    # the sweeps must agree with single flows to rounding
    columns, times = case
    to_zero = transport_to_zero(H, columns, times, max_step=1 / 64)
    from_zero = transport_from_zero(H, columns, times, max_step=1 / 64)
    assert len(to_zero) == len(from_zero) == len(columns)
    for column, t, back, forth in zip(columns, times, to_zero, from_zero):
        assert back.shape == forth.shape == column.shape
        assert np.allclose(back, flow(H, 0.0, column, max_step=1 / 64, t0=t),
                           rtol=0.0, atol=tol)
        assert np.allclose(forth, flow(H, t, column, max_step=1 / 64),
                           rtol=0.0, atol=tol)
