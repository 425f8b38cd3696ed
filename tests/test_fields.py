"""Hamiltonian fields and Hofer norms."""

import math

import numpy as np
import pytest

from torsionlab.errors import UnboundedDomain
from torsionlab.hamlab import (HamiltonianField, StripMap, energy_functional,
                               euclidean_plane, hofer_norms)

BOX = [(-1.0, 1.0), (-1.0, 1.0)]
PI_BOX = [(-math.pi, math.pi), (-math.pi, math.pi)]


def test_short_coordinate_aliases():
    H = HamiltonianField(euclidean_plane(), "x + 2*y")
    assert H.value(0.0, np.array([1.0, 2.0])) == pytest.approx(5.0)


def test_stray_symbols_are_rejected():
    with pytest.raises(ValueError):
        HamiltonianField(euclidean_plane(), "x1 + q")


def test_partials():
    H = HamiltonianField(euclidean_plane(), "x1**2*y1")
    dx, dy = H.partials(0.0, np.array([1.0, -1.0]), np.array([2.0, 3.0]))
    assert dx == pytest.approx([4.0, -6.0])
    assert dy == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("expression, geometric", [("x1", 1.0),
                                                   ("y1", 0.0)])
def test_energy_functional_turns_the_gradient_a_quarter_turn(expression,
                                                             geometric):
    # X_H = (H_y, -H_x); on u(tau, t) = (tau, 0) over the unit square
    # V = -X_H, so geomE = integral of omega((1, 0), V) = H_x
    tau = np.linspace(0.0, 1.0, 5)
    t = np.linspace(0.0, 1.0, 3)
    points = np.stack(np.broadcast_arrays(tau[:, None], 0.0 * t), axis=-1)
    strip = StripMap(euclidean_plane(), tau, t, points)
    H = HamiltonianField(euclidean_plane(), expression)
    energy, geometric_energy = energy_functional(strip, H)
    assert energy == pytest.approx(1.0)
    assert geometric_energy == pytest.approx(geometric)


def test_value_broadcasts_time_along_grids():
    H = HamiltonianField(euclidean_plane(), "t*x1")
    pts = np.ones((4, 3, 2))
    t = np.array([0.0, 0.5, 1.0])
    vals = H.value(t, pts)
    assert vals.shape == (4, 3)
    assert np.allclose(vals, t[None, :])


def test_time_reversed_field():
    H = HamiltonianField(euclidean_plane(), "t*x1")
    rev = H.time_reversed()
    p = np.array([2.0, 0.0])
    # -H(1-t, x)
    assert rev.value(0.25, p) == pytest.approx(-1.5)


def test_hofer_norm_of_a_constant():
    H = HamiltonianField(euclidean_plane(), "3/2")
    norms = hofer_norms(H, box=BOX)
    assert norms.e_minus == pytest.approx(-1.5)
    assert norms.e_plus == pytest.approx(1.5)
    assert norms.norm == pytest.approx(0.0, abs=1e-12)


def test_hofer_norm_of_a_wave():
    H = HamiltonianField(euclidean_plane(), "sin(x1)")
    norms = hofer_norms(H, box=PI_BOX)
    assert norms.e_minus == pytest.approx(1.0, abs=1e-6)
    assert norms.e_plus == pytest.approx(1.0, abs=1e-6)
    assert norms.norm == pytest.approx(2.0, abs=1e-6)


def test_hofer_norm_time_ramp_halves():
    H = HamiltonianField(euclidean_plane(), "t*sin(x1)")
    norms = hofer_norms(H, box=PI_BOX)
    assert norms.e_minus == pytest.approx(0.5, abs=1e-6)
    assert norms.e_plus == pytest.approx(0.5, abs=1e-6)


def test_hofer_norm_needs_a_box_on_open_spaces():
    H = HamiltonianField(euclidean_plane(), "x1**2")
    with pytest.raises(UnboundedDomain):
        hofer_norms(H)


def test_random_quadratics_have_nonnegative_norm():
    rng = np.random.default_rng(11)
    space = euclidean_plane()
    for _ in range(5):
        c = [float(v) for v in rng.uniform(-1.0, 1.0, size=3)]
        H = HamiltonianField(
            space, f"{c[0]!r}*x1**2 + {c[1]!r}*x1*y1 + {c[2]!r}*y1**2")
        norms = hofer_norms(H, box=BOX, resolution=17, time_nodes=9)
        assert norms.norm >= 0.0
        assert norms.norm == pytest.approx(norms.e_minus + norms.e_plus)


# -- coefficient families ---------------------------------------------------

FAMILY = ("c0*x1**2 + c1*x1*y1 + c2*y1**2 + c3*x1 + c4*y1"
          " + c5*t*x1 + c6*t*y1")
NAMES = ("c0", "c1", "c2", "c3", "c4", "c5", "c6")


def test_bound_family_matches_literal_field():
    space = euclidean_plane()
    family = HamiltonianField(space, FAMILY, NAMES)
    rng = np.random.default_rng(17)
    for _ in range(5):
        c = [float(v) for v in rng.uniform(-1.0, 1.0, size=7)]
        literal = HamiltonianField(
            space, f"{c[0]!r}*x1**2 + {c[1]!r}*x1*y1 + {c[2]!r}*y1**2"
                   f" + {c[3]!r}*x1 + {c[4]!r}*y1"
                   f" + {c[5]!r}*t*x1 + {c[6]!r}*t*y1")
        member = family.bind(c)
        points = rng.uniform(-2.0, 2.0, size=(40, 2))
        times = rng.uniform(0.0, 1.0, size=40)
        for t in (float(times[0]), times):
            assert np.allclose(member.value(t, points),
                               literal.value(t, points),
                               rtol=0.0, atol=1e-12)
            assert np.allclose(
                member.partials(t, points[:, 0], points[:, 1]),
                literal.partials(t, points[:, 0], points[:, 1]),
                rtol=0.0, atol=1e-12)
            assert np.allclose(member.time_reversed().value(t, points),
                               literal.time_reversed().value(t, points),
                               rtol=0.0, atol=1e-12)


def test_members_share_the_compiled_family():
    family = HamiltonianField(euclidean_plane(), "c0*x1 + c1*y1",
                              ("c0", "c1"))
    one, two = family.bind([1.0, 2.0]), family.bind([3.0, -1.0])
    assert one._value is two._value is family._value
    assert one.time_reversed()._value is two.time_reversed()._value
    p = np.array([1.0, 1.0])
    assert one.value(0.0, p) == pytest.approx(3.0)
    assert two.value(0.0, p) == pytest.approx(2.0)
    assert one.partials(0.5, p[0], p[1]) == (1.0, 2.0)


def test_constant_partials_broadcast_in_the_energy_functional():
    # both partials come back 0-d; V = -X_H = (0, 2) on every sample
    H = HamiltonianField(euclidean_plane(), "2*x1 + c0", ("c0",)).bind([5])
    dx, dy = H.partials(0.3, np.zeros((4, 3)), np.zeros((4, 3)))
    assert (dx.shape, dy.shape) == ((), ())
    strip = StripMap(euclidean_plane(), np.linspace(0.0, 1.0, 4),
                     np.linspace(0.0, 1.0, 3), np.zeros((4, 3, 2)))
    energy, geometric = energy_functional(strip, H)
    assert energy == pytest.approx(2.0)
    assert geometric == 0.0


def test_family_must_be_bound_before_evaluation():
    family = HamiltonianField(euclidean_plane(), "c0*x1", ("c0",))
    with pytest.raises(ValueError):
        family.value(0.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        family.bind([1.0, 2.0])


@pytest.mark.parametrize("names", [("x1",), ("t",), ("sin",), ("c0", "c0"),
                                   ("x",)])
def test_coefficient_names_may_not_clash(names):
    with pytest.raises(ValueError):
        HamiltonianField(euclidean_plane(), "x1", names)
