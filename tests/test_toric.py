"""Toric fiber models: disk enumeration, contraction complexes, thresholds."""

import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from grid_oracle import coordinate_intervals, grid_search, vertex_search
from koszul import koszul_complex
from torsionlab import toric
from torsionlab.errors import EmptyInterior, FiberOnBoundary
from torsionlab.novikov import NovikovElement, from_text, to_text
from torsionlab.rationals import is_infinite
from torsionlab.toric import (
    Facet,
    Factor,
    MomentModel,
    boundary_covector,
    cylinder_factor,
    facet_areas,
    floer_cohomology,
    model_from_factors,
    model_from_json,
    optimize_threshold,
    potential,
    product,
    projective_factor,
    sphere_factor,
    torsion_threshold_at,
)
from torsionlab.valmat import ModuleDecomposition, decompose, torsion_threshold


def dense(model: MomentModel) -> MomentModel:
    """The model as one general factor, each facet normal padded with
    zeros into the product coordinates: how ``product`` built a model
    before models kept their factors."""
    total_dim = model.dim
    facets = []
    offset_dim = 0
    for factor in model.factors:
        for facet in factor.facets:
            normal = (0,) * offset_dim + facet.normal \
                + (0,) * (total_dim - offset_dim - factor.dim)
            facets.append(Facet(normal, facet.offset))
        offset_dim += factor.dim
    return MomentModel((Factor(total_dim, facets),), model.description)


def translated(model: MomentModel, shift) -> MomentModel:
    factors = []
    start = 0
    for factor in model.factors:
        part = shift[start:start + factor.dim]
        factors.append(Factor(factor.dim, tuple(
            Facet(f.normal,
                  f.offset + sum(c * s for c, s in zip(f.normal, part)))
            for f in factor.facets)))
        start += factor.dim
    return MomentModel(factors, model.description)


def random_model(rng: random.Random):
    """Small random product model with a strictly interior fiber."""
    factors = []
    fiber = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("sphere", "sphere", "cp", "cylinder"))
        if kind == "sphere":
            area = F(rng.randint(1, 8), rng.randint(1, 3))
            factors.append(sphere_factor(area))
            fiber.append(area * F(rng.randint(1, 7), 8))
        elif kind == "cp":
            k = rng.randint(1, 2)
            size = F(rng.randint(k + 1, 8))
            factors.append(projective_factor(k, size))
            coords = [F(rng.randint(1, 3), 4) for _ in range(k)]
            assert sum(coords) < size
            fiber.extend(coords)
        else:
            factors.append(cylinder_factor())
            fiber.append(F(rng.randint(1, 9), 4))
    return product(*factors), fiber


# -- constructors ---------------------------------------------------------

def test_sphere_factor_facets():
    model = sphere_factor(F(3, 2))
    assert model.dim == 1
    (factor,) = model.factors
    assert [(f.normal, f.offset) for f in factor.facets] == \
        [((1,), F(0)), ((-1,), F(-3, 2))]


def test_projective_factor_facets():
    model = projective_factor(2, 10)
    assert model.dim == 2
    (factor,) = model.factors
    assert [(f.normal, f.offset) for f in factor.facets] == \
        [((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), F(-10))]


def test_cylinder_factor_is_single_open_facet():
    model = cylinder_factor()
    assert model.factors == (Factor(1, (Facet((1,), 0),)),)
    assert model.description == "C"


def test_product_concatenates_factors():
    sphere, plane = sphere_factor(1), projective_factor(2, 5)
    model = product(sphere, plane)
    assert model.dim == 3
    assert model.factors == sphere.factors + plane.factors
    assert [f.normal for factor in model.factors for f in factor.facets] \
        == [(1,), (-1,), (1, 0), (0, 1), (-1, -1)]
    assert model.description == "S2(1) x CP2(5)"


def test_nonprimitive_normal_rejected():
    with pytest.raises(ValueError):
        Facet((2, 4), F(1))


def test_invalid_constructor_arguments():
    with pytest.raises(ValueError):
        sphere_factor(0)
    with pytest.raises(ValueError):
        projective_factor(0, 3)


# -- areas, potential -----------------------------------------------------

def test_facet_areas_equator():
    assert facet_areas(sphere_factor(1), [F(1, 2)]) == (F(1, 2), F(1, 2))


def test_facet_areas_off_center_sphere():
    assert facet_areas(sphere_factor(5), [F(2)]) == (F(2), F(3))


def test_facet_areas_projective_space():
    assert facet_areas(projective_factor(2, 10), [F(2), F(2)]) == \
        (F(2), F(2), F(6))


def test_facet_areas_boundary_rejected():
    with pytest.raises(FiberOnBoundary):
        facet_areas(sphere_factor(1), [F(0)])
    with pytest.raises(FiberOnBoundary):
        facet_areas(sphere_factor(1), [F(2)])


def test_potential_merges_equal_areas():
    assert potential(sphere_factor(1), [F(1, 2)]) == from_text("2*T(1/2)")


def test_potential_off_center():
    assert potential(sphere_factor(5), [F(2)]) == from_text("T(2) + T(3)")
    assert potential(cylinder_factor(), [F(3, 4)]) == from_text("T(3/4)")


# -- covector and complex -------------------------------------------------

def test_covector_cancels_at_equator():
    (w,) = boundary_covector(sphere_factor(1), [F(1, 2)])
    assert w.is_zero()


def test_covector_reference_configuration():
    model = product(sphere_factor(F(3, 2)), sphere_factor(5), sphere_factor(5))
    w = boundary_covector(model, [F(3, 4), F(2), F(2)])
    assert w[0].is_zero()
    assert w[1] == w[2] == from_text("T(2) - T(3)")


def test_covector_cylinder_times_sphere():
    w = boundary_covector(product(cylinder_factor(), sphere_factor(1)),
                          [F(3, 4), F(1, 2)])
    assert w[0] == from_text("T(3/4)")
    assert w[1].is_zero()


def test_floer_model_ranks_are_binomial():
    model = product(sphere_factor(1), sphere_factor(2), sphere_factor(3))
    complex_ = koszul_complex(model, [F(1, 4), F(1, 2), F(1)])
    assert complex_.ranks == (1, 3, 3, 1)


def test_contraction_squares_to_zero():
    rng = random.Random(20260816)
    for _ in range(25):
        model, fiber = random_model(rng)
        complex_ = koszul_complex(model, fiber)
        complex_.validate()
        for lower, upper in zip(complex_.differentials,
                                complex_.differentials[1:]):
            if min(upper.shape) == 0 or min(lower.shape) == 0:
                continue
            # entries of the composition vanish identically, not merely
            # below the truncation level: contraction squares to zero
            assert all(entry.is_zero() for row in (upper * lower).entries
                       for entry in row)


@st.composite
def snapped_fibers(draw):
    """A product of at most three spheres, CP^1 or CP^2 and cylinders,
    with each factor's fiber coordinates at its centre (sphere equator,
    simplex barycentre) or at a free interior point, and a level for
    the Koszul oracle: none (its default, above every facet area), at or
    below the smallest facet area, or free."""
    factors = []
    fiber = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("sphere", "cp", "cylinder")))
        centred = draw(st.booleans())
        if kind == "sphere":
            area = F(draw(st.integers(1, 8)), draw(st.integers(1, 3)))
            factors.append(sphere_factor(area))
            share = F(1, 2) if centred else F(draw(st.integers(1, 7)), 8)
            fiber.append(area * share)
        elif kind == "cp":
            k = draw(st.integers(1, 2))
            size = F(draw(st.integers(1, 8)), draw(st.integers(1, 2)))
            factors.append(projective_factor(k, size))
            weights = [1] * (k + 1) if centred else \
                draw(st.lists(st.integers(1, 4), min_size=k + 1,
                              max_size=k + 1))
            fiber.extend(size * F(w, sum(weights)) for w in weights[:k])
        else:
            factors.append(cylinder_factor())
            fiber.append(F(draw(st.integers(1, 9)), 4))
    model = product(*factors)
    smallest = min(facet_areas(model, fiber))
    level = draw(st.sampled_from((
        None,
        smallest * F(draw(st.integers(1, 4)), 4),
        F(draw(st.integers(1, 24)), 4),
    )))
    return model, fiber, level


@settings(max_examples=150)
@given(snapped_fibers())
def test_closed_form_matches_koszul_normal_form(case):
    model, fiber, level = case
    exact = floer_cohomology(model, fiber)
    threshold = torsion_threshold_at(model, fiber)
    assert threshold == torsion_threshold(exact)
    koszul = decompose(koszul_complex(model, fiber, level))
    if level is None or level > threshold:
        assert koszul == exact
    else:
        # the areas below the level cancel, so the truncated complex
        # hides the threshold and reads free
        assert koszul == ModuleDecomposition(betti=2 ** model.dim,
                                             torsion=())


# general facet blocks for the products below, each with points inside it
GENERAL_BLOCKS = (
    # a pentagon
    (((1, 0), 0), ((0, 1), 0), ((-1, 0), -3), ((0, -1), -2), ((-1, -1), -4)),
    # a triangle with a sheared facet, all three coordinates coupled
    (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, 0), -2),
     ((0, -1, -1), -3), ((-1, 0, -2), -5)),
    # a simplex in (u0, u2) next to an interval in u1
    (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, 0, -1), -2),
     ((0, -1, 0), -1)),
)


@st.composite
def products_with_fibers(draw):
    """A product of spheres, CP^1, CP^2, cylinders and one general facet
    block, in a drawn order, with a fiber that is interior or, now and
    then, on a facet or outside; and a cap (none or finite)."""
    kinds = draw(st.lists(st.sampled_from(("sphere", "cp", "cylinder")),
                          min_size=0, max_size=3))
    kinds.insert(draw(st.integers(0, len(kinds))), "general")
    factors = []
    fiber = []
    for kind in kinds:
        if kind == "sphere":
            area = F(draw(st.integers(1, 8)), draw(st.integers(1, 3)))
            factors.append(sphere_factor(area))
            fiber.append(area * F(draw(st.integers(0, 8)), 8))
        elif kind == "cp":
            k = draw(st.integers(1, 2))
            size = F(draw(st.integers(1, 8)), draw(st.integers(1, 2)))
            factors.append(projective_factor(k, size))
            weights = draw(st.lists(st.integers(0, 4), min_size=k + 1,
                                    max_size=k + 1).filter(any))
            fiber.extend(size * F(w, sum(weights)) for w in weights[:k])
        elif kind == "cylinder":
            factors.append(cylinder_factor())
            fiber.append(F(draw(st.integers(0, 9)), 4))
        else:
            block = draw(st.sampled_from(GENERAL_BLOCKS))
            dim = len(block[0][0])
            factors.append(facet_model(dim, block))
            fiber.extend(F(draw(st.integers(0, 8)), 4) for _ in range(dim))
    cap = draw(st.sampled_from((None, F(7, 2))))
    return product(*factors), fiber, cap


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except (FiberOnBoundary, EmptyInterior, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(products_with_fibers())
def test_factors_answer_like_their_dense_padding(case):
    model, fiber, cap = case
    padded = dense(model)
    assert padded.dim == model.dim and len(padded.factors) == 1
    for answer in (
            lambda m: facet_areas(m, fiber),
            lambda m: [to_text(w) for w in boundary_covector(m, fiber)],
            lambda m: torsion_threshold_at(m, fiber),
            lambda m: floer_cohomology(m, fiber),
            lambda m: m.is_interior(fiber),
            lambda m: coordinate_intervals(m, cap)):
        assert outcome(lambda: answer(model)) == \
            outcome(lambda: answer(padded))


# -- cohomology decompositions --------------------------------------------

def test_cohomology_of_equator_product_is_free():
    model = product(sphere_factor(1), sphere_factor(1))
    dec = floer_cohomology(model, [F(1, 2), F(1, 2)])
    assert dec.betti == 4
    assert dec.torsion == ()
    assert is_infinite(torsion_threshold_at(model, [F(1, 2), F(1, 2)]))


def test_cohomology_reference_configuration():
    model = product(sphere_factor(F(3, 2)), sphere_factor(5), sphere_factor(5))
    dec = floer_cohomology(model, [F(3, 4), F(2), F(2)])
    assert dec.betti == 0
    assert dec.torsion == (F(2), F(2), F(2), F(2))
    assert torsion_threshold_at(model, [F(3, 4), F(2), F(2)]) == F(2)


def test_cohomology_projective_configuration():
    model = product(sphere_factor(F(3, 2)), projective_factor(2, 10))
    dec = floer_cohomology(model, [F(3, 4), F(2), F(2)])
    assert dec.betti == 0
    assert dec.torsion == (F(2), F(2), F(2), F(2))


def test_floer_cohomology_ignores_a_level():
    # below the level 1 the areas 3/4 cancel and 2 is hidden, so a
    # truncated answer read free; the answer is exact at any level
    model = product(sphere_factor(F(3, 2)), sphere_factor(5), sphere_factor(5))
    fiber = [F(3, 4), F(2), F(2)]
    assert floer_cohomology(model, fiber, 1) == floer_cohomology(model, fiber)
    assert floer_cohomology(model, fiber, 1).torsion == (F(2),) * 4


def test_cohomology_cylinder_times_sphere():
    model = product(cylinder_factor(), sphere_factor(1))
    dec = floer_cohomology(model, [F(3, 4), F(1, 2)])
    assert dec.betti == 0
    assert dec.torsion == (F(3, 4), F(3, 4))
    assert torsion_threshold_at(model, [F(3, 4), F(1, 2)]) == F(3, 4)


def test_single_sphere_threshold_formula():
    rng = random.Random(7)
    for _ in range(30):
        area = F(rng.randint(1, 9), rng.randint(1, 3))
        s = area * F(rng.randint(1, 15), 16)
        model = sphere_factor(area)
        value = torsion_threshold_at(model, [s])
        if s == area / 2:
            assert is_infinite(value)
        else:
            assert value == min(s, area - s)


def test_free_rank_positive_iff_covector_vanishes():
    rng = random.Random(99)
    for _ in range(25):
        model, fiber = random_model(rng)
        w = boundary_covector(model, fiber)
        dec = floer_cohomology(model, fiber)
        if all(c.is_zero() for c in w):
            assert dec.betti == 2 ** model.dim
            assert dec.torsion == ()
        else:
            assert dec.betti == 0


@settings(max_examples=150)
@given(snapped_fibers())
def test_threshold_dominates_minimum_covector_valuation(case):
    # equality: the threshold is the smallest valuation of the covector,
    # inf when every component vanishes
    model, fiber, _ = case
    w = boundary_covector(model, fiber)
    assert torsion_threshold_at(model, fiber) == \
        min(c.valuation() for c in w)


def test_threshold_translation_invariance():
    rng = random.Random(5150)
    for _ in range(10):
        model, fiber = random_model(rng)
        shift = [F(rng.randint(-8, 8), 4) for _ in range(model.dim)]
        moved = translated(model, shift)
        here = torsion_threshold_at(model, fiber)
        there = torsion_threshold_at(
            moved, [x + s for x, s in zip(fiber, shift)])
        assert here == there


def test_threshold_factor_permutation_invariance():
    first = sphere_factor(F(3, 2))
    second = projective_factor(2, 7)
    fiber_a = [F(1, 4), F(1), F(2)]
    dec_ab = floer_cohomology(product(first, second), fiber_a)
    dec_ba = floer_cohomology(product(second, first),
                              [F(1), F(2), F(1, 4)])
    assert dec_ab.betti == dec_ba.betti
    assert dec_ab.torsion == dec_ba.torsion


# -- optimization ---------------------------------------------------------

def test_intervals_of_product_polytope():
    model = product(sphere_factor(F(3, 2)), projective_factor(2, 10))
    assert coordinate_intervals(model) == [
        (F(0), F(3, 2)), (F(0), F(10)), (F(0), F(10))]


def test_intervals_of_cylinder_need_cap():
    model = product(cylinder_factor(), sphere_factor(1))
    with pytest.raises(ValueError):
        coordinate_intervals(model)
    assert coordinate_intervals(model, cap=4) == [
        (F(0), F(4)), (F(0), F(1))]


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return F(1)
    return sum((-1) ** j * rows[0][j]
               * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def brute_force_intervals(model, cap=None):
    """Per-coordinate bounds from the vertices of the whole polytope:
    every choice of ``dim`` facets with independent normals, solved by
    Cramer's rule and kept when no facet is violated; a side in which a
    ray points is widened to the cap.  The rays are the cofactor vectors
    of ``dim - 1`` independent normals, with either sign, that no facet
    normal meets negatively.  None when there is no vertex."""
    model = dense(model)
    (factor,) = model.factors
    n = model.dim
    vertices = []
    for subset in itertools.combinations(factor.facets, n):
        rows = [[F(c) for c in f.normal] for f in subset]
        det = _det(rows)
        if det == 0:
            continue
        point = [_det([row[:i] + [f.offset] + row[i + 1:]
                       for row, f in zip(rows, subset)]) / det
                 for i in range(n)]
        if all(s >= 0 for s in model.slacks(point)):
            vertices.append(point)
    if not vertices:
        return None
    rays = []
    for subset in itertools.combinations(factor.facets, n - 1):
        rows = [[F(c) for c in f.normal] for f in subset]
        kernel = [(-1) ** i * _det([row[:i] + row[i + 1:] for row in rows])
                  for i in range(n)]
        rays += [ray for ray in (kernel, [-x for x in kernel])
                 if any(ray) and all(sum(c * x for c, x in zip(f.normal, ray))
                                     >= 0 for f in factor.facets)]
    intervals = []
    for i in range(n):
        lo = min(v[i] for v in vertices)
        hi = max(v[i] for v in vertices)
        if any(ray[i] > 0 for ray in rays):
            hi = max(hi, F(cap))
        if any(ray[i] < 0 for ray in rays):
            lo = min(lo, -F(cap))
        intervals.append((lo, hi))
    return intervals


def facet_model(dim, facets):
    return MomentModel((Factor(dim, [Facet(n, F(o)) for n, o in facets]),))


INTERVAL_MODELS = {
    "s2-x-cp2": (product(sphere_factor(F(3, 2)), projective_factor(2, 10)),
                 None),
    "cp1-x-cp2-x-s2": (product(projective_factor(1, 2),
                               projective_factor(2, 3), sphere_factor(1)),
                       None),
    "cp3-x-s2": (product(projective_factor(3, F(5, 2)),
                         sphere_factor(F(1, 2))), None),
    "cylinder-x-s2-x-cylinder": (product(cylinder_factor(), sphere_factor(1),
                                         cylinder_factor()), 4),
    # a pentagon in (u0, u1) and an interval in u2
    "pentagon-x-interval": (facet_model(3, [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, 0, 0), -3), ((0, -1, 0), -2),
        ((-1, -1, 0), -4), ((0, 0, 1), 1), ((0, 0, -1), -3)]), None),
    # one facet joins u0 and u2, so the blocks are {0, 2} and {1}
    "simplex-in-u0-u2-x-interval": (facet_model(3, [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, 0, -1), -2),
        ((0, -1, 0), -1)]), None),
    # a triangle with a sheared facet, all three coordinates in one block
    "coupled-3d": (facet_model(3, [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, 0), -2),
        ((0, -1, -1), -3), ((-1, 0, -2), -5)]), None),
    # the second block is empty: u1 >= 2 and u1 <= 1
    "empty-block": (facet_model(2, [
        ((1, 0), 0), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -1)]), None),
    # 0 <= u0 - u1 <= 1 and u0 + u1 >= 0 recede along (1, 1), though each
    # column of normals has both signs
    "diagonal-strip": (facet_model(2, [
        ((1, -1), 0), ((-1, 1), -1), ((1, 1), 0)]), 3),
}


@pytest.mark.parametrize("name", INTERVAL_MODELS)
def test_intervals_match_brute_force_over_the_whole_polytope(name):
    model, cap = INTERVAL_MODELS[name]
    expected = brute_force_intervals(model, cap)
    if expected is None:
        with pytest.raises(EmptyInterior):
            coordinate_intervals(model, cap)
    else:
        assert coordinate_intervals(model, cap) == expected


def test_vertices_are_enumerated_one_factor_at_a_time(monkeypatch):
    # S2(1)^10 is ten blocks of two facets, so two systems each; one
    # enumeration over the whole polytope solves C(20, 10) = 184,756
    calls = []
    solve = toric._solve

    def counted(rows, rhs):
        calls.append(len(rows))
        if len(calls) > 1000:
            raise AssertionError("more than 1,000 systems solved")
        return solve(rows, rhs)
    monkeypatch.setattr(toric, "_solve", counted)
    model = product(*[sphere_factor(1)] * 10)
    assert coordinate_intervals(model) == [(F(0), F(1))] * 10
    assert calls == [1] * 20


def test_optimize_equator_short_circuit():
    result = optimize_threshold(sphere_factor(1))
    assert result.fiber == (F(1, 2),)
    assert is_infinite(result.value)
    assert result.non_displaceable


def test_optimize_product_equators():
    result = optimize_threshold(product(sphere_factor(1), sphere_factor(1)))
    assert result.fiber == (F(1, 2), F(1, 2))
    assert is_infinite(result.value)


def test_optimize_monotone_under_grid_refinement():
    # nested grids never lower the grid's answer, and the exact answer
    # is at least that of the finest grid
    rng = random.Random(31337)
    for _ in range(6):
        model, _ = random_model(rng)
        cap = F(3)
        coarse = grid_search(model, resolution=3, cap=cap, refine_rounds=0)
        fine = grid_search(model, resolution=6, cap=cap, refine_rounds=0)
        assert optimize_threshold(model, cap=cap).value >= fine.value \
            >= coarse.value


def test_optimize_cylinder_pushes_to_cap():
    # the cap is an inclusive bound, and the fiber at the cap is interior
    result = optimize_threshold(cylinder_factor(), cap=2)
    assert result.fiber == (F(2),)
    assert result.value == F(2)


def test_optimize_empty_box():
    # the half line u >= 5 capped at 1 leaves the box [5, 5], on the
    # boundary
    with pytest.raises(EmptyInterior, match=r"no interior point in \[5, 5\]"):
        optimize_threshold(facet_model(1, [((1,), 5)]), cap=1)


def test_optimize_ignores_a_resolution():
    # callers written for the grid search still pass one
    model = product(facet_model(2, [((1, 0), 0), ((0, 1), 0),
                                    ((-1, -1), -3), ((1, 1), 1)]),
                    cylinder_factor())
    assert optimize_threshold(model, cap=2, resolution=3) == \
        optimize_threshold(model, cap=2)


def test_optimize_ignores_a_level():
    # every circle in C is displaceable: a truncated answer at level 1
    # read inf at the fiber 3
    plain = optimize_threshold(cylinder_factor(), cap=3)
    assert optimize_threshold(cylinder_factor(), cap=3, trunc=1) == plain
    assert (plain.fiber, plain.value) == ((F(3),), F(3))
    assert not plain.non_displaceable


def test_optimize_shifted_hexagon_reaches_two_at_its_centre():
    # the grid search answered 4/3 at resolution 3 and 8/5 at resolution
    # 5, refined or not; a resolution is now ignored
    hexagon = facet_model(2, [((1, 0), -2), ((0, 1), -2), ((-1, -1), -2),
                              ((-1, 0), -2), ((0, -1), -2),
                              ((1, 1), F(-5, 2))])
    model = product(sphere_factor(1), hexagon)
    for resolution in (None, 3, 5):
        result = optimize_threshold(model, resolution=resolution)
        assert result.fiber == (F(1, 2), F(0), F(0))
        assert result.value == F(2)


def test_optimize_blown_up_cp2_reaches_one_where_all_areas_meet():
    # CP2(3) blown up by u1 + u2 >= 1: every facet has area 1 at (1, 1),
    # off every grid of the search that answered 15/16 at its defaults
    # and 39/40 at resolution 40
    model = facet_model(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3),
                            ((1, 1), 1)])
    result = optimize_threshold(model)
    assert result.fiber == (F(1), F(1))
    assert result.value == F(1)


def test_optimize_3d_block_of_eight_facets_answers_in_two_seconds():
    # C(8, 4) = 70 candidate vertices a level
    cube = facet_model(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                           ((-1, 0, 0), -3), ((0, -1, 0), -3),
                           ((0, 0, -1), -3), ((-1, -1, -1), -7),
                           ((1, 1, 1), 1)])
    started = time.perf_counter()
    result = optimize_threshold(cube)
    assert time.perf_counter() - started < 2
    # at (3/2, 3/2, 3/2) the facets of area 3/2 cancel in pairs; the
    # vertex oracle gives 5/2 too, in 3.4 s
    assert result.value == F(5, 2)


def test_optimize_stops_at_the_first_level_of_nonzero_sum(monkeypatch):
    # at level 1 the square's four facets and u0 + u1 >= 1 all have area
    # 1 on the segment (1, 1, u2), 1 <= u2 <= 6, and their normals sum to
    # (1, 1, 0): the threshold is 1 there, and no second level is solved
    # (one would move the fiber to u2 = 7/2)
    levels = []
    points = toric._points

    def counted(planes, dim):
        levels.append(len(planes))
        return points(planes, dim)
    monkeypatch.setattr(toric, "_points", counted)
    block = facet_model(3, [((1, 0, 0), 0), ((-1, 0, 0), -2), ((0, 1, 0), 0),
                            ((0, -1, 0), -2), ((1, 1, 0), 1), ((0, 0, 1), 0),
                            ((-1, 0, -1), -8)])
    result = optimize_threshold(block)
    assert (result.fiber, result.value) == ((F(1), F(1), F(1)), F(1))
    assert levels == [7]


def test_optimize_4d_block_of_ten_facets_answers_in_a_second():
    # a 4-cube with two corners cut: C(10, 5) = 252 candidate vertices a
    # level.  The vertex oracle gives 8/5 too, in 30 s.
    normals = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    block = facet_model(4, [(n, 0) for n in normals]
                        + [(tuple(-c for c in n), -3) for n in normals]
                        + [((-1, -1, -1, -1), -7), ((1, 1, 0, 0), 1)])
    started = time.perf_counter()
    result = optimize_threshold(block)
    assert time.perf_counter() - started < 1
    assert result.fiber == (F(7, 5),) * 4
    assert result.value == F(8, 5)


def test_optimize_refuses_a_block_over_budget_before_any_solve(monkeypatch):
    def no_solve(rows, rhs):
        raise AssertionError("a system was solved")
    monkeypatch.setattr(toric, "_solve", no_solve)
    # a 7-cube with six corners cut, after a cylinder: every block is
    # counted before the cylinder's box or either block's rays
    normals = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    cuts = [(1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 1, 1),
            (1, 0, 0, 0, 0, 0, 1)]
    block = facet_model(7, [(n, 0) for n in normals]
                        + [(tuple(-c for c in n), -3) for n in normals]
                        + [((-1,) * 7, -15)] + [(n, 1) for n in cuts])
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        optimize_threshold(product(cylinder_factor(), block), cap=1)
    assert time.perf_counter() - started < 0.1
    assert str(refused.value) == (
        "the block over coordinates [1, 2, 3, 4, 5, 6, 7] has m = 20 facets "
        "in d = 7 dimensions, so a level has at least C(m, d + 1) = 125970 "
        f"candidate vertices, over the budget of {toric.CANDIDATE_BUDGET}")


def test_optimize_refuses_a_receding_block_over_budget_before_a_level(
        monkeypatch):
    def no_level(block, box):
        raise AssertionError("a level was solved")
    monkeypatch.setattr(toric, "_levels", no_level)
    # C^6 blown up at the origin: C(7, 7) = 1 candidate without its box,
    # C(7 + 12, 7) = 50,388 with it
    normals = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    block = facet_model(6, [(n, 0) for n in normals] + [((1,) * 6, 1)])
    with pytest.raises(ValueError) as refused:
        optimize_threshold(block, cap=1)
    assert str(refused.value) == (
        "the block over coordinates [0, 1, 2, 3, 4, 5] has m = 7 facets in "
        "d = 6 dimensions, so a level has at least C(m + 2d, d + 1) = "
        f"50388 candidate vertices, over the budget of "
        f"{toric.CANDIDATE_BUDGET}")


# two-dimensional facet blocks for the optimizer property
OPTIMIZER_BLOCKS = (
    # normals summing to zero: CP^2's triangle and a hexagon
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)),
    # normals that do not: CP^2 blown up at a point, a pentagon, and C^2
    # blown up at the origin, which is unbounded
    ((1, 0), (0, 1), (-1, -1), (1, 1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)),
    ((1, 0), (1, 1), (0, 1)),
)


def facet_block(draw):
    """A two-dimensional block of ``OPTIMIZER_BLOCKS`` with every facet
    at one area s from a drawn point, each facet shifted now and then,
    and whether it is balanced by construction; s may be 0 or negative,
    which leaves a block whose normals sum to zero a point or empty."""
    normals = draw(st.sampled_from(OPTIMIZER_BLOCKS))
    point = [F(draw(st.integers(-4, 4)), 2) for _ in range(2)]
    area = F(draw(st.integers(-2, 4)), 2)
    shifts = [draw(st.sampled_from((0, 0, 0, F(1, 2), F(-1, 2))))
              for _ in normals]
    block = facet_model(2, [
        (normal, sum(c * x for c, x in zip(normal, point)) - area + shift)
        for normal, shift in zip(normals, shifts)])
    return block, area > 0 and not any(shifts) and not any(
        map(sum, zip(*normals)))


def search_settings(draw):
    """A resolution and refinement rounds of the grid oracle, and a cap."""
    resolution = draw(st.integers(1, 4))
    refine = draw(st.integers(0, 2))
    cap = draw(st.sampled_from((None, F(1), F(7, 2))))
    return resolution, refine, cap


@st.composite
def optimizer_cases(draw):
    """A product of spheres, CP^1, CP^2, cylinders and facet blocks of
    dimension at most 4, with a resolution, refinement rounds and a cap
    (see ``facet_block`` and ``search_settings``),
    and whether every factor is balanced by construction: its facets can
    all have one area s > 0, and their normals sum to zero."""
    factors, dim = [], 0
    balanced = True
    while not factors or (dim < 4 and draw(st.booleans())):
        kind = draw(st.sampled_from(("sphere", "cp", "cylinder", "facets",
                                     "facets")))
        if kind == "facets" and dim > 2:
            kind = "sphere"
        if kind == "sphere":
            area = F(draw(st.integers(1, 8)), draw(st.integers(1, 3)))
            factors.append(sphere_factor(area))
            dim += 1
        elif kind == "cp":
            k = draw(st.integers(1, min(2, 4 - dim)))
            size = F(draw(st.integers(1, 8)), draw(st.integers(1, 2)))
            factors.append(projective_factor(k, size))
            dim += k
        elif kind == "cylinder":
            factors.append(cylinder_factor())
            dim += 1
            balanced = False
        else:
            block, block_balanced = facet_block(draw)
            factors.append(block)
            dim += 2
            balanced &= block_balanced
    return (product(*factors), *search_settings(draw), balanced)


@settings(max_examples=300)
@given(optimizer_cases())
def test_optimizer_never_below_the_grid_and_true_at_its_fiber(case):
    model, resolution, refine, cap, balanced = case
    expected = outcome(lambda: grid_search(
        model, resolution=resolution, cap=cap, refine_rounds=refine))
    found = outcome(lambda: optimize_threshold(model, cap=cap))
    grid_missed = isinstance(expected, tuple) and \
        expected[1].startswith("no interior grid point")
    if isinstance(found, tuple) and found[0] is EmptyInterior and grid_missed:
        # the polytope meets its box in no interior point, so no grid can
        return
    if isinstance(found, tuple) or (isinstance(expected, tuple)
                                    and not grid_missed):
        # every other refusal stays as it was
        assert found == expected
        return
    if not grid_missed:
        assert found.value >= expected.value
    # a product of balanced blocks has a free fiber (FOOO, arXiv:0802.1703)
    assert is_infinite(found.value) or not balanced
    assert model.is_interior(found.fiber)
    assert found.value == torsion_threshold_at(model, found.fiber)
    assert found.non_displaceable == is_infinite(found.value)
    if found.non_displaceable:
        assert decompose(koszul_complex(model, found.fiber)) == \
            ModuleDecomposition(betti=2 ** model.dim, torsion=())


# three-dimensional facet blocks whose normals do not sum to zero: CP^3
# blown up at a point, the simplex with one facet normal doubled in its
# last coordinate, a triangle times an interval with a sheared top, and
# C^3 blown up at the origin, which is unbounded
OPTIMIZER_BLOCKS_3D = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)),
    ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, -1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
)


@st.composite
def unbalanced_blocks(draw):
    """A block of ``OPTIMIZER_BLOCKS`` or ``OPTIMIZER_BLOCKS_3D`` with
    every facet at one area s > 0 from a drawn point, each facet shifted
    now and then, so that the blocks whose normals sum to zero are
    unbalanced too unless no facet moved; with a cap."""
    normals = draw(st.sampled_from(OPTIMIZER_BLOCKS + OPTIMIZER_BLOCKS_3D))
    dim = len(normals[0])
    point = [F(draw(st.integers(-4, 4)), 2) for _ in range(dim)]
    area = F(draw(st.integers(1, 4)), 2)
    block = facet_model(dim, [
        (normal, sum(c * x for c, x in zip(normal, point)) - area
         + draw(st.sampled_from((0, 0, F(1, 2), F(-1, 2)))))
        for normal in normals])
    cap = draw(st.sampled_from((None, F(1), F(7, 2))))
    return block, cap


@settings(max_examples=80)
@given(unbalanced_blocks())
def test_optimizer_equals_the_vertex_oracle_on_unbalanced_blocks(case):
    block, cap = case
    expected = outcome(lambda: vertex_search(block, cap=cap))
    found = outcome(lambda: optimize_threshold(block, cap=cap))
    if isinstance(expected, tuple) or isinstance(found, tuple):
        # both refuse: the same missing cap, or no interior point
        assert isinstance(expected, tuple) and isinstance(found, tuple)
        assert expected[0] is found[0]
        assert expected[0] is EmptyInterior or expected == found
        return
    assert found.value == expected.value
    assert found.value == torsion_threshold_at(block, found.fiber)


@st.composite
def factor_lists(draw):
    """Two to four factors, each a sphere, CP^1, CP^2, a cylinder or a
    facet block (see ``facet_block``), with a cap."""
    factors = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(("sphere", "cp", "cylinder", "facets")))
        if kind == "sphere":
            factors.append(sphere_factor(
                F(draw(st.integers(1, 8)), draw(st.integers(1, 3)))))
        elif kind == "cp":
            factors.append(projective_factor(
                draw(st.integers(1, 2)),
                F(draw(st.integers(1, 8)), draw(st.integers(1, 2)))))
        elif kind == "cylinder":
            factors.append(cylinder_factor())
        else:
            factors.append(facet_block(draw)[0])
    _, _, cap = search_settings(draw)
    return factors, cap


@settings(max_examples=150)
@given(factor_lists())
def test_optimizer_answers_a_product_from_its_factors_alone(case):
    # blocks have disjoint coordinates, so each is searched on its own
    factors, cap = case

    def search(model):
        return outcome(lambda: optimize_threshold(model, cap=cap))
    alone = [search(factor) for factor in factors]
    if any(isinstance(answer, tuple) for answer in alone):
        return
    found = search(product(*factors))
    assert found.fiber == tuple(x for answer in alone for x in answer.fiber)
    assert found.value == min(answer.value for answer in alone)


# -- serialization --------------------------------------------------------

def test_model_json_reads_factor_lists_and_facet_lists():
    listing = {"product": [{"sphere": "3/2"}, {"cylinder": True},
                           {"cp": {"k": 2, "lambda": "10"}}]}
    assert model_from_json(listing) == product(
        sphere_factor(F(3, 2)), cylinder_factor(), projective_factor(2, 10))
    facets = [((0, 1), 0), ((1, 0), 0), ((-1, -1), -2)]
    blob = {"dim": 2, "description": "triangle",
            "facets": [{"normal": list(n), "offset": str(o), "kind": "any"}
                       for n, o in facets]}
    model = model_from_json(blob)
    assert model == MomentModel(
        (Factor(2, [Facet(n, o) for n, o in facets]),), "triangle")


def test_model_from_factor_shorthand():
    model = model_from_factors([
        {"sphere": "3/2"}, {"sphere": "5"}, {"sphere": "5"}])
    assert model == product(sphere_factor(F(3, 2)), sphere_factor(5),
                            sphere_factor(5))
    mixed = model_from_factors([
        {"cp": {"k": 2, "lambda": "10"}}, {"cylinder": True}])
    assert mixed.dim == 3
    assert mixed.factors[-1:] == cylinder_factor().factors


def test_factor_shorthand_rejects_garbage():
    with pytest.raises(ValueError):
        model_from_factors([])
    with pytest.raises(ValueError):
        model_from_factors([{"sphere": "1", "cylinder": True}])
    with pytest.raises(ValueError):
        model_from_factors([{"torus": "1"}])
