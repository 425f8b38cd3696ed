"""Smith-type normal form and module decompositions.

Two independent oracles back these tests:

* recomposition: U * m * V must reproduce D by direct multiplication;
* minors: over a valuation ring the sum of the first k pivot valuations
  equals the smallest valuation among all k x k minors, computed here by
  brute-force Laplace expansion that never touches the pivoting code.
"""

import copy
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import novikov, valmat
from torsionlab.cli import run
from torsionlab.errors import NotAComplex, PrecisionExhausted
from torsionlab.novikov import NovikovElement, parse, to_text
from torsionlab.rationals import INFINITE
from torsionlab.valmat import (
    ChainComplex,
    ModuleDecomposition,
    NovikovMatrix,
    b_count,
    complex_from_json,
    decompose,
    intersection_bound,
    matrix_from_json,
    smith_normal_form,
    torsion_threshold,
)

F = Fraction


def matrix(rows, trunc=None):
    return NovikovMatrix(rows, trunc)


def with_entry(m, i, j, value):
    """Copy of ``m`` with entry (i, j) replaced."""
    grid = [list(row) for row in m.entries]
    grid[i][j] = parse(value)
    return NovikovMatrix(grid, m.trunc)


def determinant(entries):
    """Laplace expansion; independent of the normal-form code."""
    size = len(entries)
    if size == 0:
        return NovikovElement.one()
    if size == 1:
        return entries[0][0]
    total = NovikovElement.zero()
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def minor_valuation_profile(m, max_order=None):
    """Smallest valuation among k x k minors, for each k."""
    order = min(m.rows, m.cols) if max_order is None else max_order
    profile = []
    for k in range(1, order + 1):
        best = INFINITE
        for row_idx in itertools.combinations(range(m.rows), k):
            for col_idx in itertools.combinations(range(m.cols), k):
                sub = [[m.entry(i, j) for j in col_idx] for i in row_idx]
                best = min(best, determinant(sub).valuation())
        profile.append(best)
    return profile


# -- normal form mechanics ----------------------------------------------

def test_snf_reorders_monomial_diagonal():
    form = smith_normal_form(matrix([["T(2)", "0"], ["0", "T(1)"]]))
    assert [to_text(d) for d in form.diagonal.diagonal()] == ["T(1)", "T(2)"]
    assert form.pivot_valuations == (F(1), F(2))


def test_snf_single_off_diagonal_entry():
    form = smith_normal_form(matrix([["0", "T(1/2)"], ["0", "0"]]))
    assert [to_text(d) for d in form.diagonal.diagonal()] == ["T(1/2)", "0"]
    assert form.pivot_valuations == (F(1, 2),)


def test_snf_unit_pivot_cleans_everything():
    # frozen by hand: the unit entry absorbs both T's
    form = smith_normal_form(matrix([["T(1)", "1"], ["0", "T(1)"]]))
    assert [to_text(d) for d in form.diagonal.diagonal()] == ["1", "T(2)"]
    assert form.pivot_valuations == (F(0), F(2))


def test_snf_diagonal_valuations_non_decreasing():
    rng = random.Random(101)
    for _ in range(60):
        m = random_matrix(rng)
        form = smith_normal_form(m)
        values = list(form.pivot_valuations)
        assert values == sorted(values)
        # diagonal normalized: leading coefficient one
        for entry in form.diagonal.diagonal():
            if not entry.is_zero():
                coeff, _ = entry.leading_term()
                assert coeff == 1


PALETTE = ["0", "1", "T(1)", "1 - T(1)", "T(1/2)"]


def random_matrix(rng, max_size=4, trunc=F(4)):
    rows = rng.randrange(1, max_size + 1)
    cols = rng.randrange(1, max_size + 1)
    return matrix(
        [[rng.choice(PALETTE) for _ in range(cols)] for _ in range(rows)],
        trunc)


def test_snf_recomposition_oracle():
    rng = random.Random(2026)
    for _ in range(80):
        m = random_matrix(rng)
        form = smith_normal_form(m)
        recomposed = form.u * m * form.v
        assert (recomposed - form.diagonal).is_zero_below_truncation()


def test_snf_transforms_have_unit_determinant():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, max_size=3)
        form = smith_normal_form(m)
        for transform in (form.u, form.v):
            det = determinant([list(row) for row in transform.entries])
            assert det.valuation() == 0


def test_snf_matches_minor_valuations():
    rng = random.Random(77)
    for _ in range(40):
        m = random_matrix(rng, max_size=3)
        pivots = smith_normal_form(m).pivot_valuations
        profile = minor_valuation_profile(m)
        partial = F(0)
        for k, best in enumerate(profile):
            if k < len(pivots):
                partial += pivots[k]
                assert partial == best
            else:
                assert best >= m.trunc or best == INFINITE


def test_snf_torsion_invariant_under_unimodular_ops():
    rng = random.Random(4242)
    units = ["1", "-1", "1 - T(1)"]
    mixers = ["0", "1", "T(1)", "T(1/2)", "1 - T(1)"]
    for _ in range(30):
        m = random_matrix(rng)
        reference = smith_normal_form(m).pivot_valuations
        for _ in range(25):
            if rng.random() < 0.5 and m.rows > 1:
                i, j = rng.sample(range(m.rows), 2)
                op = with_entry(NovikovMatrix.identity(m.rows),
                                i, j, rng.choice(mixers))
                op = with_entry(op, i, i, rng.choice(units))
                m = op * m
            elif m.cols > 1:
                i, j = rng.sample(range(m.cols), 2)
                op = with_entry(NovikovMatrix.identity(m.cols),
                                i, j, rng.choice(mixers))
                op = with_entry(op, j, j, rng.choice(units))
                m = m * op
        assert smith_normal_form(m).pivot_valuations == reference


LONG_ENTRIES = ["0", "1 - 1/2*T(1/4) + T(2)", "2*T(1/2) - T(3/4) + 3*T(9/4)",
                "-1 + T(1/4) + 1/2*T(5/2)", "T(1/4) + 2*T(1) - T(11/4)"]


def long_matrix(rng, trunc):
    rows = rng.randrange(2, 5)
    cols = rng.randrange(2, 5)
    return matrix(
        [[rng.choice(LONG_ENTRIES) for _ in range(cols)] for _ in range(rows)],
        trunc)


def test_snf_pivots_and_diagonal_same_whether_transforms_read_or_not():
    rng = random.Random(31)
    for index in range(40):
        m = (random_matrix(rng, trunc=F(rng.choice((4, 6))))
             if index % 2 else long_matrix(rng, F(rng.choice((4, 8)))))
        untouched = smith_normal_form(m)
        read_first = smith_normal_form(m)
        for name in ("v", "u") if index % 3 else ("u", "v"):
            getattr(read_first, name)
        assert read_first.pivot_valuations == untouched.pivot_valuations
        assert read_first.diagonal == untouched.diagonal
        assert read_first == untouched
        # the two-sided elimination reproduces the same diagonal
        work, pivots, _, _ = valmat._eliminate(m)
        assert NovikovMatrix(work, m.trunc) == untouched.diagonal
        assert tuple(pivots) == untouched.pivot_valuations


def test_snf_lazy_transforms_recompose_long_entries():
    rng = random.Random(808)
    for _ in range(12):
        m = long_matrix(rng, F(rng.choice((4, 6, 8))))
        form = smith_normal_form(m)
        v = form.v              # read v before u
        recomposed = form.u * m * v
        assert (recomposed - form.diagonal).is_zero_below_truncation()


# negative exponents, mixed denominators, leading coefficients other than
# one, and units whose quotients are infinite series
FORWARD_ENTRIES = ["0", "1", "-2", "T(1)", "1 - T(1)", "T(-1)", "T(1/2)",
                   "1/2*T(1/3) - T(2)", "3*T(-1/2) + T(1)", "2/3 - 5*T(3/4)",
                   "1 + T(1/4) + 1/2*T(5/2)", "-T(1/2) + 7/5*T(9/4)"]
FORWARD_LEVELS = [None, INFINITE, F(1), F(5, 2), F(4), F(6)]


@st.composite
def forward_cases(draw):
    """A 1-6 x 1-6 grid of entry texts, some rows zero or repeated, and
    a level: absent, infinite or finite."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(FORWARD_ENTRIES), min_size=cols,
                   max_size=cols)
    grid = [draw(row) for _ in range(rows)]
    for i in range(rows):
        how = draw(st.sampled_from(("keep", "keep", "keep", "zero", "copy")))
        if how == "zero":
            grid[i] = ["0"] * cols
        elif how == "copy":
            grid[i] = list(grid[draw(st.integers(0, rows - 1))])
    return grid, draw(st.sampled_from(FORWARD_LEVELS))


def texts(m):
    return [[to_text(value) for value in row] for row in m.entries]


@settings(max_examples=150)
@given(forward_cases())
def test_forward_pass_matches_two_sided_elimination(case):
    # the two-sided elimination that u and v come from is the oracle
    m = matrix(*case)
    try:
        work, pivots, _, _ = valmat._eliminate(m)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            smith_normal_form(m)
        return
    form = smith_normal_form(m)
    oracle = NovikovMatrix(work, m.trunc)
    assert form.pivot_valuations == tuple(pivots)
    assert form.rank == len(pivots)
    assert texts(form.diagonal) == texts(oracle)
    assert form.diagonal.trunc == oracle.trunc


def test_matrix_entries_share_one_denominator_and_elimination_never_rescales(
        monkeypatch):
    m = matrix([["T(1/3) + T(1/2)", "1", "T(2/5)"],
                ["2", "T(1/5) - 3*T(3/4)", "0"],
                ["T(1/2)", "0", "1 + T(7/12)"]], F(7, 2))
    assert len({value._den for row in m.entries for value in row}) == 1
    # every operand of the elimination is already over that denominator
    rescales = []
    original = novikov._aligned
    monkeypatch.setattr(novikov, "_aligned",
                        lambda x, y: rescales.append(1) or original(x, y))
    form = smith_normal_form(m)
    assert (form.u * m * form.v - form.diagonal).is_zero_below_truncation()
    rescales.clear()
    smith_normal_form(m).u
    assert rescales == []


def counting_eliminations(monkeypatch):
    """The list that records, in order, each forward and each two-sided
    elimination run."""
    calls = []
    for name, label in (("_forward", "forward"), ("_eliminate", "two-sided")):
        def counted(m, _original=getattr(valmat, name), _label=label):
            calls.append(_label)
            return _original(m)
        monkeypatch.setattr(valmat, name, counted)
    return calls


def test_snf_reading_pivots_runs_one_elimination(monkeypatch):
    calls = counting_eliminations(monkeypatch)
    m = matrix([["T(1)", "1 - T(1)", "0"], ["T(1/2)", "T(2)", "1"]], F(6))
    for first, second in (("u", "v"), ("v", "u")):
        calls.clear()
        form = smith_normal_form(m)
        assert form.pivot_valuations == (F(0), F(0))
        assert form.rank == 2
        assert len(form.diagonal.diagonal()) == 2
        assert form.diagonal is form.diagonal
        assert calls == ["forward"]
        transform = getattr(form, first)
        assert calls == ["forward", "two-sided"]
        assert getattr(form, second) is not None
        assert getattr(form, first) is transform
        assert calls == ["forward", "two-sided"]


def test_snf_command_runs_one_elimination(monkeypatch, tmp_path, capsys):
    calls = counting_eliminations(monkeypatch)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["T(1/2) + T(1)", "2"],
                                           ["0", "T(2)"]]}))
    assert run(["snf", "--matrix", str(path)]) == 0
    assert "pivot_valuations: 0, 5/2 (exact)" in capsys.readouterr().out
    assert calls == ["forward"]


def test_snf_needs_finite_trunc_for_series_quotients():
    # clearing against the 1 - T pivot needs the geometric series
    with pytest.raises(PrecisionExhausted):
        smith_normal_form(matrix([["1 - T(1)", "0"], ["T(2)", "T(3)"]],
                                 trunc=INFINITE))


# -- complexes and decompositions ----------------------------------------

def rank_one_complex(entry, trunc=None):
    return ChainComplex([1, 1], [matrix([[entry]], trunc)])


def test_decompose_multiplication_by_power():
    decomposition = decompose(rank_one_complex("T(3/2)"))
    assert decomposition == ModuleDecomposition(betti=0, torsion=(F(3, 2),))


def test_decompose_zero_differentials():
    cx = ChainComplex([1, 2, 1], [NovikovMatrix.zeros(2, 1),
                                  NovikovMatrix.zeros(1, 2)])
    middle = decompose(cx, degree=1)
    assert middle == ModuleDecomposition(betti=2, torsion=())
    total = decompose(cx)
    assert total.betti == 4


def test_decompose_unit_differential_kills_everything():
    cx = rank_one_complex("1")
    assert decompose(cx) == ModuleDecomposition(betti=0, torsion=())


def test_decompose_rejects_non_complex():
    bad = ChainComplex([1, 1, 1],
                       [matrix([["T(1)"]]), matrix([["T(1)"]])])
    with pytest.raises(NotAComplex):
        decompose(bad)


def test_decompose_accepts_truncated_complex():
    ok = ChainComplex([1, 1, 1],
                      [matrix([["T(1)"]], trunc=2),
                       NovikovMatrix.zeros(1, 1, trunc=2)])
    decomposition = decompose(ok, degree=1)
    assert decomposition.betti == 0
    assert decomposition.torsion == (F(1),)


def test_decompose_flags_rank_overlap_as_precision_problem():
    # T * T vanishes below level 2, yet both differentials have rank one
    # on a rank-one module: no exact complex truncates to this, and only
    # a higher level could reveal it
    ambiguous = ChainComplex([1, 1, 1],
                             [matrix([["T(1)"]], trunc=2),
                              matrix([["T(1)"]], trunc=2)])
    with pytest.raises(PrecisionExhausted):
        decompose(ambiguous, degree=1)


def test_decompose_two_by_two_mixed():
    # d = [[T, 0], [0, 1]]: one unit pivot, one torsion exponent 1
    cx = ChainComplex([2, 2], [matrix([["T(1)", "0"], ["0", "1"]])])
    total = decompose(cx)
    assert total == ModuleDecomposition(betti=0, torsion=(F(1),))


def test_decompose_degree_out_of_range():
    with pytest.raises(ValueError):
        decompose(rank_one_complex("T(1)"), degree=2)


# -- derived quantities ---------------------------------------------------

def test_b_count_counts_at_or_above():
    decomposition = ModuleDecomposition(betti=0, torsion=(F(2), F(2), F(1, 2)))
    assert b_count(decomposition, F(2)) == 2
    assert b_count(decomposition, F(1)) == 2
    assert b_count(decomposition, F(1, 2)) == 3
    assert b_count(decomposition, F(5, 2)) == 0
    with pytest.raises(ValueError):
        b_count(decomposition, 0)


def test_intersection_bound_examples():
    assert intersection_bound(
        ModuleDecomposition(betti=0, torsion=(F(2), F(2))), F(1)) == 4
    assert intersection_bound(
        ModuleDecomposition(betti=0, torsion=(F(1),)), F(2)) == 0
    assert intersection_bound(
        ModuleDecomposition(betti=3, torsion=()), F(1)) == 3


def test_intersection_bound_monotone_in_norm():
    rng = random.Random(6)
    for _ in range(100):
        torsion = tuple(sorted(
            (F(rng.randrange(1, 40), rng.randrange(1, 7))
             for _ in range(rng.randrange(5))), reverse=True))
        decomposition = ModuleDecomposition(betti=rng.randrange(3),
                                            torsion=torsion)
        levels = sorted(F(rng.randrange(1, 40), rng.randrange(1, 7))
                        for _ in range(6))
        bounds = [intersection_bound(decomposition, level)
                  for level in levels]
        assert bounds == sorted(bounds, reverse=True)


def test_torsion_threshold_cases():
    assert torsion_threshold(
        ModuleDecomposition(betti=2, torsion=(F(1),))) == INFINITE
    assert torsion_threshold(
        ModuleDecomposition(betti=0, torsion=(F(2), F(1, 2)))) == F(2)
    assert torsion_threshold(
        ModuleDecomposition(betti=0, torsion=())) == 0


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_matrices_and_normal_forms_copy_and_pickle(how):
    trip = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda value: pickle.loads(pickle.dumps(value))}[how]
    for m in (matrix([["1", "T(1)"]]),
              matrix([["T(1/2)", "1 + T(1)"], ["T(2/3)", "T(1/3)"]], 4)):
        again = trip(m)
        assert again == m and hash(again) == hash(m)
        assert again.trunc == m.trunc and again.shape == m.shape
        with pytest.raises(AttributeError, match="immutable"):
            again.trunc = 0
        form = trip(smith_normal_form(m))
        assert form.diagonal == smith_normal_form(m).diagonal
        # u and v are computed after the trip, from the carried source
        assert form.u * m * form.v == form.diagonal
    cx = ChainComplex([1, 2], [matrix([["T(1)"], ["T(2)"]], trunc=8)])
    again = trip(cx)
    assert again.ranks == cx.ranks
    assert again.differentials == cx.differentials


# -- JSON ------------------------------------------------------------------

def test_complex_json_round_trip():
    data = {
        "ranks": [1, 2, 1],
        "differentials": [
            {"rows": 2, "cols": 1, "entries": [["T(1)"], ["T(2)"]]},
            {"rows": 1, "cols": 2, "entries": [["T(2)", "-T(1)"]]},
        ],
        "trunc": "8",
    }
    cx = ChainComplex([1, 2, 1], [matrix([["T(1)"], ["T(2)"]], trunc=8),
                                  matrix([["T(2)", "-T(1)"]], trunc=8)])
    again = complex_from_json(data)
    assert again.ranks == cx.ranks
    assert again.differentials == cx.differentials


def test_matrix_json_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 1, "entries": [["1"]]})
