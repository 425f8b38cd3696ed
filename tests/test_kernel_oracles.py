"""Field evaluation, the column RK4 stage and the batched Hofer scan
against their oracles.

``hamlab_oracle`` keeps the flattened ``value``/``vector_field`` path
that ``HamiltonianField.value``, ``partials`` and
``strips.energy_functional`` replaced, and the per-point RK4 loop and
the per-node Hofer scan that ``flow._rk4_segment`` and
``fields.hofer_norms`` replaced.  Both sides do the same float
operations in the same order, so every property here requires equal
bits, not closeness.
"""

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamlab_oracle as oracle
from torsionlab.hamlab import (DifferenceHamiltonian, HamiltonianField,
                               StripMap, energy_functional, euclidean_plane,
                               fields, rho_k, rho_plus)
from torsionlab.hamlab.flow import transport_from_zero, transport_to_zero

# the package exports the function flow under the module's name
flow = importlib.import_module("torsionlab.hamlab.flow")

PLANE = euclidean_plane()
QUADRATIC = HamiltonianField(
    PLANE, "c0*x1**2 + c1*x1*y1 + c2*y1**2 + c3*x1 + c4*y1"
           " + c5*t*x1 + c6*t*y1", [f"c{i}" for i in range(7)])
LINEAR = HamiltonianField(PLANE, "c0*x1 + c1*y1", ["c0", "c1"])
FIELDS = {
    "quadratic": QUADRATIC.bind([0.3, -0.45, 0.2, 0.1, -0.7, 0.6, -0.25]),
    "linear": LINEAR.bind([0.75, -0.5]),
    "wave": HamiltonianField(PLANE, "sin(x1)*cos(y1) + t*x1**2"),
    "damped": HamiltonianField(
        PLANE, "exp(-x1**2/2)*cos(y1) - t*sin(x1 + y1) + cos(t)*y1"),
    "constant gradient": HamiltonianField(PLANE, "3/4*x1 - 1/2*y1 + 1/3"),
    "constant": HamiltonianField(PLANE, "42"),
}
NAMES = sorted(FIELDS)


def same(a, b) -> bool:
    """Equal shapes and equal bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def bits(norms) -> list[str]:
    return [x.hex() for x in (norms.e_minus, norms.e_plus, norms.norm)]


def batch(seed: int, rows: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.5, 1.5, size=(rows, 2))


times = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                  st.floats(0.0, 1.0, allow_nan=False))
steps = st.sampled_from([1e-3, 1 / 64, 0.07, 0.5])


# -- evaluation on broadcast times ----------------------------------------

PROFILES = {"none": None, "rho_plus": rho_plus(), "rho_k(2)": rho_k(2.0),
            "rho_k(1/2)": rho_k(0.5)}


@st.composite
def grids(draw):
    """A (tau, t) grid of 3-6 by 3-7 samples with uneven spacings, t in
    [0, 1] with both ends, and points in [-1.5, 1.5]^2."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    ns, nt = draw(st.integers(3, 6)), draw(st.integers(3, 7))
    tau = -1.0 + np.cumsum(rng.uniform(0.1, 0.6, size=ns))
    steps = np.cumsum(rng.uniform(0.1, 1.0, size=nt - 1))
    t = np.concatenate([[0.0], steps / steps[-1]])
    return tau, t, rng.uniform(-1.5, 1.5, size=(ns, nt, 2))


@settings(max_examples=60)
@given(name=st.sampled_from(NAMES), grid=grids(),
       profile=st.sampled_from(sorted(PROFILES)))
def test_energy_functional_matches_the_flattened_vector_field(name, grid,
                                                              profile):
    H, rho = FIELDS[name], PROFILES[profile]
    strip = StripMap(PLANE, *grid)
    got = energy_functional(strip, H, rho)
    expected = oracle.energy_functional(strip, H, rho)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


@settings(max_examples=60)
@given(name=st.sampled_from(NAMES), grid=grids(),
       shape=st.sampled_from(["scalar", "column", "row", "grid"]))
def test_value_on_time_grids_matches_the_flattened_rows(name, grid, shape):
    # one time for all, one per column, one per row, one per point
    tau, t, points = grid
    rows = ((tau - tau[0]) / (tau[-1] - tau[0]))[:, None]
    times = {"scalar": float(t[1]), "column": t, "row": rows,
             "grid": rows * t}[shape]
    H = FIELDS[name]
    assert same(H.value(times, points), oracle.value(H, times, points))


# -- RK4 on coordinate columns ---------------------------------------------

@settings(max_examples=60)
@given(name=st.sampled_from(NAMES), t0=times, t1=times, max_step=steps,
       rows=st.integers(0, 7), seed=st.integers(0, 2 ** 16))
def test_column_stages_match_the_point_loop(name, t0, t1, max_step, rows,
                                            seed):
    # forward and backward spans, empty batches and zero spans
    H = FIELDS[name]
    points = batch(seed, rows)
    assert same(flow._rk4_segment(H, points, t0, t1, max_step),
                oracle.rk4_segment(H, points, t0, t1, max_step))
    assert same(flow.flow(H, t1, points, max_step=max_step, t0=t0),
                oracle.rk4_segment(H, points, t0, t1, max_step))


@st.composite
def sweep_columns(draw):
    """Columns of 0-3 points with times in [0, 1], ties and the ends
    included, and sometimes no columns at all."""
    column_times = draw(st.lists(times, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    columns = [rng.uniform(-1.0, 1.0, size=(draw(st.integers(0, 3)), 2))
               for _ in column_times]
    return columns, column_times


@settings(max_examples=40)
@given(name=st.sampled_from(NAMES), case=sweep_columns(), max_step=steps)
def test_sweeps_match_the_point_loop(name, case, max_step):
    H = FIELDS[name]
    columns, column_times = case
    new = (transport_to_zero(H, columns, column_times, max_step),
           transport_from_zero(H, columns, column_times, max_step))
    with mock.patch.object(flow, "_rk4_segment", oracle.rk4_segment):
        old = (transport_to_zero(H, columns, column_times, max_step),
               transport_from_zero(H, columns, column_times, max_step))
    for got, expected in zip(new, old):
        assert len(got) == len(expected) == len(columns)
        assert all(same(a, b) for a, b in zip(got, expected))


def test_flow_of_an_unbound_family_names_its_coefficients():
    with pytest.raises(ValueError, match=r"bind values to \['c0', 'c1'\] "
                                         "before evaluating the family"):
        flow.flow(LINEAR, 0.5, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="before evaluating the family"):
        LINEAR.partials(0.0, np.zeros(1), np.zeros(1))


# -- batched Hofer scans ----------------------------------------------------

@st.composite
def bounds(draw):
    """Row bounds, some of width zero and some too narrow for a nonzero
    step."""
    rows = draw(st.integers(0, 6))
    lo = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=rows,
                                max_size=rows)))
    widths = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 4.0)),
        min_size=rows, max_size=rows)))
    return lo, lo + widths


@given(rows=bounds(), num=st.integers(2, 9))
def test_linspace_rows_match_one_linspace_per_row(rows, num):
    lo, hi = rows
    got = fields._linspace_rows(lo, hi, num)
    assert got.shape == lo.shape + (num,)
    for k in range(len(lo)):
        assert same(got[k], np.linspace(lo[k], hi[k], num))


BOXES = [[(-2.0, 2.0), (-1.5, 2.5)],
         [(-math.pi, math.pi), (-math.pi, math.pi)],
         [(0.25, 0.25), (-1.0, 1.0)],          # one axis of width zero
         [(1.0, 1.0 + 2 ** -50), (-1.0, 1.0)]]  # windows that collapse


@settings(max_examples=30)
@given(name=st.sampled_from(NAMES), box=st.sampled_from(BOXES),
       resolution=st.integers(3, 24), time_nodes=st.integers(0, 12),
       refine_rounds=st.integers(0, 8),
       cap=st.sampled_from([1, 50, 300, 2 ** 16]))
def test_batched_scans_match_one_scan_per_node(name, box, resolution,
                                               time_nodes, refine_rounds,
                                               cap):
    # a cap below one window's grid still scans one node per call
    H = FIELDS[name]
    expected = oracle.hofer_norms(H, box, resolution, time_nodes,
                                  refine_rounds)
    with mock.patch.object(fields, "SCAN_POINTS", cap):
        got = fields.hofer_norms(H, box, resolution, time_nodes,
                                 refine_rounds)
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("name", ["wave", "damped"])
def test_default_scans_split_by_the_cap_match(name):
    # 65 nodes of 33 x 33 points are more than SCAN_POINTS: two calls
    H = FIELDS[name]
    assert 65 * 33 ** 2 > fields.SCAN_POINTS
    box = BOXES[0]
    assert bits(fields.hofer_norms(H, box)) \
        == bits(oracle.hofer_norms(H, box))


def test_scans_of_a_difference_hamiltonian_match_one_scan_per_node():
    # its value takes one time per point row by one psi sweep per time
    diff = DifferenceHamiltonian(FIELDS["quadratic"], FIELDS["wave"],
                                 max_step=1 / 32)
    args = (BOXES[0], 5, 4, 1)
    assert bits(fields.hofer_norms(diff, *args)) \
        == bits(oracle.hofer_norms(diff, *args))


def test_scans_evaluate_in_batches():
    calls = []
    H = FIELDS["wave"]
    original = type(H).value

    def counted(self, t, points):
        calls.append(np.asarray(points).shape)
        return original(self, t, points)

    with mock.patch.object(type(H), "value", counted):
        fields.hofer_norms(H, BOXES[0])
    # 2 chunks x (1 box scan shared by both signs + 2 signs x 3
    # refinements)
    assert len(calls) == 14
    assert max(math.prod(shape[:-1]) for shape in calls) \
        <= fields.SCAN_POINTS
