"""Polydisk embedding bookkeeping and displacement bounds."""

from fractions import Fraction as F

import pytest

from torsionlab.errors import ConstraintViolated
from torsionlab.polydisk import PolydiskSpec, build_ambient, polydisk_bound
from torsionlab.toric import facet_areas, model_from_json


def test_defaults_mode_14():
    spec = PolydiskSpec(mode="1.4", S=2, n=3)
    assert spec.eps == F(1, 4)
    assert spec.eps_prime == F(1, 2)
    assert spec.lam == F(5)
    assert spec.k == 2


def test_defaults_mode_15():
    spec = PolydiskSpec(mode="1.5", S=2, n=3, k=2)
    assert spec.lam == F(7)


def test_mode_13_ignores_ambient_knobs():
    spec = PolydiskSpec(mode="1.3", S=F(3, 4))
    assert spec.eps is None and spec.lam is None and spec.k is None


def test_build_ambient_mode_14():
    model, listing, fiber, facts = build_ambient(
        PolydiskSpec(mode="1.4", S=2, n=3))
    assert model.description == "S2(3/2) x S2(5) x S2(5)"
    assert listing == {"product": [{"sphere": "3/2"}, {"sphere": "5"},
                                   {"sphere": "5"}]}
    assert fiber == (F(3, 4), F(2), F(2))
    assert facts


def test_build_ambient_mode_15():
    model, _, fiber, _ = build_ambient(
        PolydiskSpec(mode="1.5", S=2, n=3, k=2, lam=10))
    assert model.description == "S2(3/2) x CP2(10)"
    assert fiber == (F(3, 4), F(2), F(2))
    assert facet_areas(model, fiber) == (F(3, 4), F(3, 4), F(2), F(2), F(6))


def test_build_ambient_mode_13():
    model, _, fiber, _ = build_ambient(PolydiskSpec(mode="1.3", S=F(3, 4)))
    assert model.description == "C x S2(1)"
    assert fiber == (F(3, 4), F(1, 2))


def test_bound_mode_14():
    report = polydisk_bound(PolydiskSpec(mode="1.4", S=2, n=3))
    assert report["bound"] == "2"
    assert report["certified"] is True
    assert report["status"] == "certified"
    assert all(row["ok"] for row in report["constraints"])


def test_bound_ignores_a_level():
    # below the level 1 every area of this fiber is hidden, and a
    # truncated bound read inf, certified
    spec = PolydiskSpec(mode="1.4", S=2, n=3)
    report = polydisk_bound(spec, trunc=1)
    assert report == polydisk_bound(spec)
    assert report["bound"] == "2" and report["certified"] is True


def test_bound_mode_15():
    report = polydisk_bound(PolydiskSpec(mode="1.5", S=2, n=3, k=2, lam=10))
    assert report["bound"] == "2"
    assert report["certified"] is True


def test_bound_mode_13():
    report = polydisk_bound(PolydiskSpec(mode="1.3", S=F(3, 4)))
    assert report["bound"] == "3/4"
    assert report["certified"] is True


def test_bound_independent_of_ambient_knobs():
    for eps_prime in (F(1, 4), F(1, 2), F(3, 4)):
        for lam in (F(5), F(10)):
            report = polydisk_bound(PolydiskSpec(
                mode="1.4", S=2, n=3, eps=F(1, 8),
                eps_prime=eps_prime, lam=lam))
            assert report["bound"] == "2"


def test_bound_scales_linearly_in_S():
    small = polydisk_bound(PolydiskSpec(mode="1.4", S=2, n=3))
    large = polydisk_bound(PolydiskSpec(mode="1.4", S=4, n=3))
    assert F(large["bound"]) == 2 * F(small["bound"])


@pytest.mark.parametrize("kwargs,name", [
    (dict(mode="1.4", S=2, n=1), "n >= 2"),
    (dict(mode="1.4", S=2, n=3, eps=0), "0 < eps"),
    (dict(mode="1.4", S=2, n=3, eps=F(1, 2), eps_prime=F(1, 4)),
     "eps < eps'"),
    (dict(mode="1.4", S=2, n=3, eps_prime=1), "eps' < 1"),
    (dict(mode="1.4", S=2, n=3, lam=4), "lambda > 2*S"),
    (dict(mode="1.4", S=F(1, 2), n=3), "S > 1"),
    (dict(mode="1.5", S=2, n=3, k=3), "1 <= k < n"),
    (dict(mode="1.5", S=2, n=3, k=2, lam=6), "lambda > 3*S"),
    (dict(mode="1.3", S=F(1, 3)), "S > 1/2"),
])
def test_violated_constraint_is_named(kwargs, name):
    with pytest.raises(ConstraintViolated) as info:
        polydisk_bound(PolydiskSpec(**kwargs))
    assert info.value.name == name


def test_extrapolation_relaxes_only_the_S_hypothesis():
    report = polydisk_bound(PolydiskSpec(mode="1.3", S=F(2, 5)),
                            allow_extrapolation=True)
    assert report["bound"] == "2/5"
    assert report["certified"] is False
    assert report["status"] == "extrapolated"
    # other hypotheses stay hard even with extrapolation enabled
    with pytest.raises(ConstraintViolated) as info:
        polydisk_bound(PolydiskSpec(mode="1.4", S=F(1, 2), n=3, lam=F(1, 2)),
                       allow_extrapolation=True)
    assert info.value.name == "lambda > 2*S"


def test_extrapolated_sphere_mode():
    report = polydisk_bound(PolydiskSpec(mode="1.4", S=F(4, 5), n=2),
                            allow_extrapolation=True)
    assert report["bound"] == "4/5"
    assert report["status"] == "extrapolated"


def test_report_shape():
    report = polydisk_bound(PolydiskSpec(mode="1.5", S=2, n=3, k=2, lam=10))
    for key in ("mode", "bound", "certified", "claim", "constraints",
                "containments", "model", "fiber"):
        assert key in report
    assert report["fiber"] == ["3/4", "2", "2"]
    assert report["model"] == {
        "product": [{"sphere": "3/2"}, {"cp": {"k": 2, "lambda": "10"}}]}
    model = build_ambient(PolydiskSpec(mode="1.5", S=2, n=3, k=2, lam=10))[0]
    assert model_from_json(report["model"]) == model
    assert "2" in report["claim"]


def test_mode_15_requires_k():
    with pytest.raises(ConstraintViolated) as info:
        PolydiskSpec(mode="1.5", S=2, n=3)
    assert info.value.name == "k"


def test_unknown_mode_rejected():
    with pytest.raises(ConstraintViolated):
        PolydiskSpec(mode="1.6", S=2, n=3)


@pytest.mark.parametrize("mode, k", [("1.4", 39), ("1.5", 20)])
def test_bound_at_forty_factors(mode, k):
    # the threshold comes from the covector, never from 2^40 summands
    data = polydisk_bound(PolydiskSpec(mode=mode, S=F(2), n=40, k=k))
    assert data["bound"] == data["S"] == "2"
