"""End-to-end checks of the command line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import torsionlab
from torsionlab import toric
from torsionlab.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({
        "rows": 2, "cols": 2,
        "entries": [["T(1/2) + T(1)", "2"], ["0", "T(2)"]],
    }))
    return str(path)


@pytest.fixture
def complex_file(tmp_path):
    # H^1 of this complex is T-torsion of exponent 1 in two spots.
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "ranks": [2, 2],
        "differentials": [
            {"rows": 2, "cols": 2,
             "entries": [["T(1)", "0"], ["0", "T(1)"]]},
        ],
        "trunc": "4",
    }))
    return str(path)


def test_torsion_inline_model(capsys):
    code, out, err = invoke(
        capsys, "torsion",
        "--model", "sphere:3/2xsphere:5xsphere:5", "--fiber", "3/4,2,2")
    assert code == 0
    assert "torsion: 2, 2, 2, 2 (exact)" in out
    assert "threshold: 2 (= 2, exact)" in out
    assert "non_displaceable: no" in out
    assert "elapsed:" in err and "elapsed:" not in out


def test_torsion_json_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "product": [{"sphere": "3/2"}, {"sphere": "5"}, {"sphere": "5"}],
    }))
    code, out, _ = invoke(capsys, "torsion", "--model", str(path),
                          "--fiber", "3/4,2,2")
    assert code == 0
    assert "threshold: 2 (= 2, exact)" in out


def test_torsion_cylinder_component_vanishes(capsys):
    code, out, _ = invoke(capsys, "torsion", "--model", "cylinderxsphere:1",
                          "--fiber", "3/4,1/2")
    assert code == 0
    assert "covector: T(3/4), 0" in out
    assert "threshold: 3/4" in out


def test_json_output_carries_provenance(capsys):
    code, out, _ = invoke(
        capsys, "--json", "torsion",
        "--model", "sphere:1xsphere:1", "--fiber", "1/2,1/2")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "torsion"
    assert data["threshold"] == {"fraction": "inf", "decimal": None,
                                 "provenance": "exact"}
    assert data["betti"] == 4
    assert data["non_displaceable"] is True
    for area in data["facet_areas"]:
        assert area["provenance"] == "exact"


def test_stdout_byte_identical_across_runs(capsys):
    argv = ("--json", "polydisk", "--mode", "1.5", "--n", "3", "--k", "2",
            "--S", "2", "--lambda", "10")
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_deterministic_for_fixed_seed(capsys):
    argv = ("verify", "--suite", "hofer", "--seed", "7")
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    assert out1 == out2
    assert "passed: yes" in out1


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("TORSIONLAB_SEED", "13")
    code, out, _ = invoke(capsys, "verify", "--suite", "hofer")
    assert code == 0
    assert "seed: 13" in out


def test_polydisk_bound_and_claim(capsys):
    code, out, _ = invoke(capsys, "polydisk", "--mode", "1.4",
                          "--n", "3", "--S", "2")
    assert code == 0
    assert "bound: 2 (= 2, exact)" in out
    assert "certified: yes" in out
    assert "displacement energy at least 2" in out


def test_polydisk_constraint_violation_exits_2(capsys):
    code, out, err = invoke(capsys, "polydisk", "--mode", "1.4",
                            "--n", "3", "--S", "1/2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_polydisk_extrapolation_is_uncertified(capsys):
    code, out, _ = invoke(capsys, "polydisk", "--mode", "1.4", "--n", "3",
                          "--S", "1/2", "--extrapolate")
    assert code == 0
    assert "certified: no" in out


def test_snf_reports_pivots(capsys, matrix_file):
    code, out, _ = invoke(capsys, "snf", "--matrix", matrix_file)
    assert code == 0
    assert "rank: 2" in out
    assert "pivot_valuations: 0, 5/2 (exact)" in out


def test_decompose_with_hofer_norm(capsys, complex_file):
    code, out, _ = invoke(capsys, "decompose", "--complex", complex_file,
                          "--hofer", "1/2")
    assert code == 0
    assert "torsion: 1, 1 (exact)" in out
    assert "threshold: 1 (= 1, exact)" in out
    assert "surviving_torsion: 2" in out
    assert "intersection_bound: 4" in out


def test_decompose_precision_exhausted_exits_3(capsys, tmp_path):
    # Truncation hides the composition, so a negative rank shows up.
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({
        "ranks": [1, 1, 1],
        "differentials": [
            {"rows": 1, "cols": 1, "entries": [["T(1)"]]},
            {"rows": 1, "cols": 1, "entries": [["T(1)"]]},
        ],
        "trunc": "2",
    }))
    code, out, err = invoke(capsys, "decompose", "--complex", str(path))
    assert code == 3
    assert out == ""
    assert "precision exhausted" in err


def test_bad_fiber_exits_2(capsys):
    code, _, err = invoke(capsys, "torsion", "--model", "sphere:1",
                          "--fiber", "1/2,1/2")
    assert code == 2
    assert "error:" in err


def test_boundary_fiber_exits_2(capsys):
    code, _, err = invoke(capsys, "torsion", "--model", "sphere:1",
                          "--fiber", "0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("model, fiber, message", [
    ("cylinder", "0", "facet 0 has nonpositive area 0 at (0)"),
    ("sphere:1xsphere:1", "1,1/2", "facet 1 has nonpositive area 0 at "
                                   "(1, 1/2)"),
], ids=["cylinder", "sphere-pair"])
def test_boundary_fiber_message_prints_rationals(capsys, model, fiber,
                                                 message):
    code, out, err = invoke(capsys, "torsion", "--model", model,
                            "--fiber", fiber)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_inline_factor_exits_2(capsys):
    code, _, err = invoke(capsys, "torsion", "--model", "torus:1",
                          "--fiber", "1/2")
    assert code == 2
    assert "cannot read factor" in err


def test_snf_rejects_e_term_while_reading_matrix(capsys, tmp_path):
    path = tmp_path / "e_term.json"
    path.write_text(json.dumps({
        "rows": 1, "cols": 2, "entries": [["1 + e(1)", "1"]],
    }))
    code, out, err = invoke(capsys, "snf", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert ("cannot parse Novikov term 'e(1)'; terms are COEFF*T(p/q)"
            in err)


def test_snf_rejects_zero_denominator_while_reading_matrix(capsys,
                                                           tmp_path):
    path = tmp_path / "zero_denominator.json"
    path.write_text(json.dumps({
        "rows": 1, "cols": 1, "entries": [["1/0"]],
    }))
    code, out, err = invoke(capsys, "snf", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert ("cannot parse Novikov term '1/0': zero denominator; terms are "
            "COEFF*T(p/q)" in err)


@pytest.mark.parametrize("entry, message", [
    ("1 +", "matrix JSON row 0 column 1: dangling sign or empty term in "
            "'1 +'"),
    (True, "matrix JSON row 0 column 1: cannot interpret True as a Novikov "
           "element"),
], ids=["dangling-sign", "json-boolean"])
def test_snf_rejects_a_malformed_entry_while_reading_matrix(
        capsys, tmp_path, entry, message):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({
        "rows": 1, "cols": 2, "entries": [["1", entry]],
    }))
    code, out, err = invoke(capsys, "snf", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_RANKS = "complex JSON field 'ranks' must be a list of non-negative integers"
_ONE_DIFFERENTIAL = [{"rows": 1, "cols": 1, "entries": [["T(1)"]]}]


@pytest.mark.parametrize("command, data, message", [
    ("snf", {"rows": 1, "cols": 1}, "matrix JSON has no 'entries' field"),
    ("snf", [["1"]], "matrix JSON must be an object with fields rows, "
                     "cols, entries; got list"),
    ("snf", {"rows": 1, "cols": 1, "entries": [["1"]], "trunc": "abc"},
     "matrix JSON field 'trunc' is not a level (p/q or inf): 'abc'"),
    ("decompose", {"ranks": [1, 1],
                   "differentials": [{"rows": 1, "cols": 1}]},
     "complex JSON differential 0 has no 'entries' field"),
    ("decompose", {"ranks": [1],
                   "differentials": [{"rows": 0, "cols": 1,
                                      "entries": []}]},
     "need exactly one differential per adjacent pair of degrees"),
    ("decompose", {"ranks": [1.5, 1], "differentials": _ONE_DIFFERENTIAL},
     f"{_RANKS}; got [1.5, 1]"),
    ("decompose", {"ranks": ["1", True], "differentials": _ONE_DIFFERENTIAL},
     f"{_RANKS}; got ['1', True]"),
    ("decompose", {"ranks": [-1, 1], "differentials": _ONE_DIFFERENTIAL},
     f"{_RANKS}; got [-1, 1]"),
    ("torsion", {"dim": -1, "facets": []},
     "model JSON field 'dim' must be a non-negative integer; got -1"),
    ("torsion", {"dim": True, "facets": []},
     "model JSON field 'dim' must be a non-negative integer; got True"),
    ("torsion", {"dim": 1}, "model JSON has no 'facets' field"),
    ("torsion", [{"normal": [1], "offset": "0"}],
     "model JSON must be an object with fields dim, facets; got list"),
    ("torsion", {"dim": 1, "facets": [{"normal": [1]}]},
     "model JSON facet 0 has no 'offset' field"),
    ("torsion", {"product": [1]}, "model JSON factor 0 must be an object "
                                  "naming exactly one of sphere, cp, "
                                  "cylinder; got 1"),
    ("torsion", {"product": [{"cp": {"k": "a", "lambda": "3"}}]},
     "model JSON factor 0 'cp' field 'k' must be an integer; got 'a'"),
    ("torsion", {"dim": 1, "facets": [{"normal": [-1], "offset": "-1"},
                                      {"normal": [1.5], "offset": "0"}]},
     "model JSON facet 1 field 'normal' must be a list of integers; "
     "got [1.5]"),
    ("torsion", {"dim": 1, "facets": [{"normal": [True], "offset": "0"},
                                      {"normal": [-1], "offset": "-1"}]},
     "model JSON facet 0 field 'normal' must be a list of integers; "
     "got [True]"),
    ("torsion", {"dim": 2, "facets": [{"normal": "12", "offset": "0"}]},
     "model JSON facet 0 field 'normal' must be a list of integers; "
     "got '12'"),
    ("torsion", {"product": [{"sphere": "1"}, {"cylinder": False}]},
     "model JSON factor 1 'cylinder' must be true; got False"),
    ("torsion", {"product": [{"cylinder": 1}]},
     "model JSON factor 0 'cylinder' must be true; got 1"),
    ("decompose", {"ranks": [1, 1], "differentials": _ONE_DIFFERENTIAL,
                   "trunc": "0"},
     "complex JSON field 'trunc' needs a level above 0; got '0'"),
    ("decompose", {"ranks": [1, 1],
                   "differentials": [dict(_ONE_DIFFERENTIAL[0],
                                          trunc="0")]},
     "complex JSON differential 0 field 'trunc' needs a level above 0; "
     "got '0'"),
    ("snf", {"rows": 1, "cols": 1, "entries": [["T(1)"]], "trunc": "-1"},
     "matrix JSON field 'trunc' needs a level above 0; got '-1'"),
    # a JSON true is not the level 1, which would hide T(2)
    ("snf", {"rows": 1, "cols": 1, "entries": [["T(2)"]], "trunc": True},
     "matrix JSON field 'trunc' is not a level (p/q or inf): True"),
    ("decompose", {"ranks": [1, 1], "differentials": _ONE_DIFFERENTIAL,
                   "trunc": True},
     "complex JSON field 'trunc' is not a level (p/q or inf): True"),
    ("snf", {"rows": 1, "cols": 1, "entries": 5},
     "matrix JSON field 'entries' must be a list of rows; got 5"),
    ("snf", {"rows": 1, "cols": 1, "entries": ["T(1)"]},
     "matrix JSON field 'entries' must be a list of rows; got ['T(1)']"),
    ("decompose", {"ranks": [1, 1], "differentials": 5},
     "complex JSON field 'differentials' must be a list; got 5"),
    ("snf", {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", 5.5]]},
     "matrix JSON row 1 column 1: cannot interpret 5.5 as a Novikov "
     "element"),
    ("snf", {"rows": 1, "cols": 2, "entries": [["e(1)", "1"]]},
     "matrix JSON row 0 column 0: cannot parse Novikov term 'e(1)'; "
     "terms are COEFF*T(p/q)"),
    ("decompose", {"ranks": [1, 2], "differentials": [
        {"rows": 2, "cols": 1, "entries": [["T(1)"], ["e(1)"]]}]},
     "complex JSON differential 0 row 1 column 0: cannot parse Novikov "
     "term 'e(1)'; terms are COEFF*T(p/q)"),
    ("torsion", {"dim": 1, "description": 5,
                 "facets": [{"normal": [1], "offset": "0"},
                            {"normal": [-1], "offset": "-1"}]},
     "model JSON field 'description' must be a string; got 5"),
    # a zero row or column count once stood for the zero map between the
    # ranks, whatever the entries; a JSON true once read as the count 1
    ("decompose", {"ranks": [2, 2], "differentials": [
        {"rows": 0, "cols": 5, "entries": "junk"}]},
     "complex JSON differential 0 field 'entries' must be a list of rows; "
     "got 'junk'"),
    ("decompose", {"ranks": [2, 2], "differentials": [
        {"rows": 0, "cols": 5, "entries": []}]},
     "complex JSON differential 0 is 0 x 5; the ranks need 2 x 2"),
    ("snf", {"rows": True, "cols": True, "entries": [["T(1)"]]},
     "matrix JSON fields 'rows' and 'cols' must be non-negative integers; "
     "got True and True"),
], ids=["no-entries", "top-level-array", "bad-trunc",
        "differential-without-entries", "extra-differential",
        "fractional-rank", "string-and-bool-ranks", "negative-rank",
        "negative-dim", "bool-dim", "no-facets", "model-top-level-array",
        "facet-without-offset", "factor-not-an-object", "cp-k-not-an-int",
        "fractional-normal", "bool-normal", "string-normal",
        "cylinder-false", "cylinder-one", "complex-trunc-zero",
        "differential-trunc-zero", "matrix-trunc-negative",
        "matrix-trunc-true", "complex-trunc-true", "entries-not-a-list",
        "rows-not-lists", "differentials-not-a-list", "entry-float",
        "entry-unknown-term", "differential-entry", "description-not-a-string",
        "zero-rows-junk-entries", "differential-shape-against-ranks",
        "bool-rows-and-cols"])
def test_malformed_json_names_the_field_and_exits_2(capsys, tmp_path,
                                                    command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {"snf": ["--matrix", str(path)],
            "decompose": ["--complex", str(path)],
            "torsion": ["--model", str(path), "--fiber", "1/2"]}[command]
    code, out, err = invoke(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["torsion", "--model", "cp:a:3", "--fiber", "1,1"],
     "--model factor 'cp:a:3' needs an integer k; got 'a'"),
    (["snf", "--matrix", "MATRIX", "--trunc", "abc"],
     "--trunc needs a level p/q or inf; got 'abc'"),
    (["polydisk", "--mode", "1.4", "--S", "1/0"],
     "--S needs a rational p/q; got '1/0'"),
    (["optimize", "--model", "cylinder", "--cap", ""],
     "--cap needs a rational p/q; got ''"),
    (["torsion", "--model", "sphere:1", "--fiber", "1/2a"],
     "--fiber needs a rational p/q; got '1/2a'"),
], ids=["inline-cp-k", "trunc", "S-zero-denominator", "empty-cap", "fiber"])
def test_malformed_flag_value_names_the_flag_and_exits_2(
        capsys, matrix_file, argv, message):
    argv = [matrix_file if a == "MATRIX" else a for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--model", "cylinder", "--cap", "0"],
     "--cap needs a rational above 0; got '0'"),
    (["torsion", "--model", "sphere:1", "--fiber", "1/2,1/2"],
     "--fiber has 2 coordinates; the model has dimension 1"),
    (["verify", "--suite", "hofer", "--seed", "-1"],
     "--seed needs an integer of at least 0; got -1"),
    (["verify", "--suite", "hofer", "--tol", "-1"],
     "--tol needs a finite number above 0; got -1"),
    (["verify", "--suite", "hofer", "--tol", "nan"],
     "--tol needs a finite number above 0; got nan"),
    # refused before the complex file is opened
    (["decompose", "--complex", "no-such-complex.json", "--hofer", "0"],
     "--hofer needs a rational above 0; got '0'"),
    (["decompose", "--complex", "no-such-complex.json", "--hofer=-1/2"],
     "--hofer needs a rational above 0; got '-1/2'"),
], ids=["optimize-cap-0", "torsion-fiber-dimension", "verify-seed-negative",
        "verify-tol-negative", "verify-tol-nan", "decompose-hofer-0",
        "decompose-hofer-negative"])
def test_out_of_range_flag_names_the_flag_and_exits_2(capsys, monkeypatch,
                                                      argv, message):
    if argv[0] == "verify":
        import torsionlab.hamlab

        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran")
        monkeypatch.setattr(torsionlab.hamlab, "run_suite", no_suite)
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--model", "cylinder", "--cap", "-1/3"],
     "--cap needs a rational above 0; got '-1/3'"),
    (["snf", "--matrix", "MATRIX", "--trunc", "-1/2"],
     "--trunc needs a level above 0; got '-1/2'"),
    (["polydisk", "--mode", "1.4", "--S", "-1/2"],
     "S > 0: mode 1.4 requires S > 0"),
], ids=["optimize-cap", "snf-trunc", "polydisk-S"])
def test_negative_rational_given_apart_reaches_the_flag_check(
        capsys, matrix_file, argv, message):
    # argparse takes a separate -1/3 for an option name
    argv = [matrix_file if a == "MATRIX" else a for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, value", [("--resolution", "8"),
                                         ("--refine", "2")],
                         ids=["resolution", "refine"])
def test_removed_search_flags_exit_2(capsys, flag, value):
    # the optimizer is exact, so it takes no grid settings
    with pytest.raises(SystemExit) as refused:
        run(["optimize", "--model", "sphere:1", flag, value])
    captured = capsys.readouterr()
    assert refused.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("argv", [
    ["torsion", "--model", "sphere:1", "--fiber", "1/3"],
    ["optimize", "--model", "sphere:1xsphere:1"],
    ["polydisk", "--mode", "1.4", "--n", "3", "--S", "2"],
    ["snf", "--matrix", "MATRIX"],
    ["decompose", "--complex", "COMPLEX"],
], ids=["torsion", "optimize", "polydisk", "snf", "decompose"])
@pytest.mark.parametrize("level", ["0", "-1", "-1/2"])
def test_truncation_at_or_below_zero_exits_2(capsys, matrix_file,
                                             complex_file, argv, level):
    # a level at or below 0 hides every entry, so the answer would claim
    # to be free; the toric commands answer exactly and take no level
    files = {"MATRIX": matrix_file, "COMPLEX": complex_file}
    argv = [files.get(a, a) for a in argv] + [f"--trunc={level}"]
    if argv[0] in ("snf", "decompose"):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"error: --trunc needs a level above 0; got {level!r}\n")
        return
    with pytest.raises(SystemExit) as refused:
        run(argv)
    captured = capsys.readouterr()
    assert (refused.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --trunc={level}" in captured.err


@pytest.mark.parametrize("argv, lines", [
    (["torsion", "--model", "sphere:3/2xsphere:5xsphere:5",
      "--fiber", "3/4,2,2"],
     ["threshold: 2 (= 2, exact)", "non_displaceable: no"]),
    (["polydisk", "--mode", "1.4", "--n", "3", "--S", "2"],
     ["bound: 2 (= 2, exact)", "status: certified"]),
    (["optimize", "--model", "cylinder", "--cap", "3"],
     ["fiber: 3 (exact)", "value: 3 (= 3, exact)", "non_displaceable: no"]),
    (["optimize", "--model", "cylinderxsphere:1", "--cap", "3"],
     ["fiber: 3, 1/2 (exact)", "value: 3 (= 3, exact)",
      "non_displaceable: no"]),
], ids=["torsion", "polydisk", "optimize-cylinder", "optimize-cylinder-sphere"])
@pytest.mark.parametrize("level", ["1", "1/4"])
def test_toric_answers_are_exact_and_take_no_level(capsys, argv, lines,
                                                   level):
    # at these levels a truncated answer printed inf, "at least inf" or
    # non_displaceable: yes; the true answers are finite
    with pytest.raises(SystemExit) as refused:
        run([*argv, "--trunc", level])
    captured = capsys.readouterr()
    assert (refused.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --trunc {level}" in captured.err
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert set(lines) <= set(out.splitlines())
    assert "trunc" not in out


def test_missing_matrix_file_exits_2(capsys):
    code, _, err = invoke(capsys, "snf", "--matrix", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_failed_suite_exits_2(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "actiondiff",
                          "--resolution", "0.25", "--tol", "1e-15")
    assert code == 2
    assert "passed: no" in out


@pytest.mark.parametrize("suite", ["hat", "hofer"])
def test_resolution_for_a_suite_without_a_grid_exits_2(capsys, suite):
    code, out, err = invoke(capsys, "verify", "--suite", suite,
                            "--resolution", "0.5")
    assert code == 2
    assert out == ""
    assert f"error: suite '{suite}' takes no resolution" in err


@pytest.mark.parametrize("suite,value", [
    ("energy", "0"), ("energy", "-0.25"), ("energy", "1"),
    ("energy", "1e-6"), ("actiondiff", "1e-6"), ("actiondiff", "nan")])
def test_resolution_out_of_range_exits_2_before_any_grid(
        capsys, monkeypatch, suite, value):
    import numpy
    import torsionlab.hamlab  # noqa: F401  (imported before the patch)

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(numpy, "linspace", no_grid)
    code, out, err = invoke(capsys, "verify", "--suite", suite,
                            "--resolution", value)
    assert code == 2
    assert out == ""
    assert f"error: suite '{suite}' needs a resolution in (0, " in err
    assert "samples; got" in err


def test_optimize_equator_is_nondisplaceable(capsys):
    code, out, _ = invoke(capsys, "optimize", "--model", "sphere:1xsphere:1")
    assert code == 0
    assert "fiber: 1/2, 1/2 (exact)" in out
    assert "value: inf (exact)" in out
    assert "non_displaceable: yes" in out


def test_optimize_sphere_product_at_resolution_40_answers_fast(
        capsys, monkeypatch):
    # a grid at resolution 40 held 39^4 = 2,313,441 fibers of S2(1)^4;
    # every sphere is fixed at its equator instead, so one fiber is
    # evaluated
    calls = []
    evaluate = toric.torsion_threshold_at

    def counted(*args):
        calls.append(args)
        if len(calls) > 1000:
            raise AssertionError("more than 1,000 fibers evaluated")
        return evaluate(*args)
    monkeypatch.setattr(toric, "torsion_threshold_at", counted)
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "optimize", "--model",
                          "x".join(["sphere:1"] * 4))
    assert time.perf_counter() - started < 1
    assert code == 0
    assert "fiber: 1/2, 1/2, 1/2, 1/2 (exact)" in out
    assert "value: inf (exact)" in out


def test_optimize_cylinder_pair_answers_like_one_cylinder(capsys):
    # each cylinder is searched alone, and the inclusive cap is an
    # interior fiber of C
    code, out, _ = invoke(capsys, "optimize", "--model", "cylinder",
                          "--cap", "3")
    assert code == 0 and "fiber: 3 (exact)" in out
    code, out, _ = invoke(capsys, "optimize", "--model",
                          "cylinderxcylinder", "--cap", "3")
    assert code == 0
    assert "fiber: 3, 3 (exact)" in out
    assert "value: 3 (= 3, exact)" in out


def test_optimize_twelve_cylinders_cost_a_sum_over_blocks(capsys,
                                                          monkeypatch):
    # each cylinder is one level over the planes u = t, u = 0 and u = cap,
    # and only the fiber that the twelve points make up is evaluated
    bound = 1
    calls = []
    evaluate = toric.torsion_threshold_at

    def counted(*args):
        calls.append(args)
        if len(calls) > bound:
            raise AssertionError(f"more than {bound} fibers evaluated")
        return evaluate(*args)
    monkeypatch.setattr(toric, "torsion_threshold_at", counted)
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "optimize", "--model",
                          "x".join(["cylinder"] * 12), "--cap", "3")
    assert time.perf_counter() - started < 1
    assert code == 0
    assert "fiber: " + ", ".join(["3"] * 12) + " (exact)" in out
    assert "value: 3 (= 3, exact)" in out


def _write_model(tmp_path, dim, facets):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": dim, "facets": [
        {"normal": list(normal), "offset": str(offset)}
        for normal, offset in facets]}))
    return str(path)


# the strip 0 <= u0 - u1 <= 1, u0 + u1 >= 0, which recedes along (1, 1)
STRIP = [((1, -1), 0), ((-1, 1), -1), ((1, 1), 0)]


def test_optimize_strip_needs_a_cap_though_no_column_has_one_sign(
        capsys, tmp_path):
    # every column of normals has both signs, yet (1, 1) is a ray
    code, out, err = invoke(capsys, "optimize", "--model",
                            _write_model(tmp_path, 2, STRIP))
    assert code == 2 and out == ""
    assert err == "error: coordinate 0 is unbounded above; pass a cap\n"


def test_optimize_capped_strip_climbs_to_the_cap_on_its_second_level(
        capsys, tmp_path):
    # level 1 holds u0 - u1 = 1/2, where the two strip facets have area
    # 1/2 and cancel; level 2 pushes u0 + u1 to the cap
    model = _write_model(tmp_path, 2, STRIP)
    code, out, _ = invoke(capsys, "optimize", "--model", model, "--cap", "3")
    assert code == 0
    assert "fiber: 3, 5/2 (exact)" in out
    assert "value: 11/2 (= 5.5, exact)" in out
    code, out, _ = invoke(capsys, "torsion", "--model", model,
                          "--fiber", "3,5/2")
    assert code == 0 and "threshold: 11/2" in out


@pytest.mark.parametrize("d, value, coordinate", [
    (5, "7/3", "2/3"), (8, "23/9", "4/9")])
def test_optimize_blown_up_projective_space_answers_in_a_second(
        capsys, tmp_path, d, value, coordinate):
    # CP^d(4) blown up by sum u_i >= 1: d + 2 facets, one level of
    # C(d + 2, d + 1) candidates
    facets = [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
    facets += [((-1,) * d, -4), ((1,) * d, 1)]
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "optimize", "--model",
                          _write_model(tmp_path, d, facets))
    assert time.perf_counter() - started < 1
    assert code == 0
    assert f"fiber: {', '.join([coordinate] * d)} (exact)" in out
    assert f"value: {value} " in out


def run_in_process(*argv):
    """Exit code, stdout and stderr of one ``run`` call; ``capsys`` is
    set up once per test, not once per ``hypothesis`` example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report_line(out, key):
    """The text after ``key: `` on its line of a text report."""
    (line,) = [line for line in out.splitlines()
               if line.startswith(key + ": ")]
    return line[len(key) + 2:]


@st.composite
def toric_invocations(draw):
    """``optimize`` or ``torsion`` on an inline model of one to five
    factors (sphere and CP^k sizes from -1 to 8 over 1 to 3, k from 0 to
    3), with ``--cap`` absent, 0 or positive, a cap of -1/3 given apart
    now and then, and once in a while one of the removed flags
    ``--resolution``, ``--refine`` and ``--trunc``; a ``torsion`` fiber
    has the model's dimension or one more, with coordinates on a grid of
    1/4."""
    def size(least=-1):
        # a size of 0 or below is drawn about once in 13 sizes
        numerator = draw(st.sampled_from((*tuple(range(1, 9)) * 3, 0, -1)))
        return f"{max(numerator, least)}/{draw(st.integers(1, 3))}"
    tokens, dim = [], 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("sphere", "cp", "cylinder")))
        if kind == "sphere":
            tokens.append(f"sphere:{size()}")
            dim += 1
        elif kind == "cp":
            k = draw(st.sampled_from((1, 2, 3, 1, 2, 3, 0)))
            tokens.append(f"cp:{k}:{size()}")
            dim += k
        else:
            tokens.append("cylinder")
            dim += 1
    model = "x".join(tokens)
    # the toric answers are exact, so a level is refused one time in 20
    trunc = draw(st.sampled_from(([],) * 19 + (["--trunc", size(1)],)))
    if draw(st.sampled_from(("optimize", "torsion"))) == "optimize":
        cap = draw(st.sampled_from((["--cap", size(1)], [],
                                    ["--cap", "0"], ["--cap", "-1/3"])))
        removed = draw(st.sampled_from(([],) * 8 + (["--resolution", "8"],
                                                    ["--refine", "2"])))
        return ["optimize", "--model", model, *cap, *removed, *trunc]
    fiber = ",".join(f"{draw(st.sampled_from((*range(1, 13), 0)))}/4"
                     for _ in range(dim + draw(st.sampled_from((0, 0, 1)))))
    return ["torsion", "--model", model, "--fiber", fiber or "0", *trunc]


@settings(max_examples=100)
@given(toric_invocations())
def test_toric_commands_answer_or_refuse_and_optimize_agrees_with_torsion(
        argv):
    code, out, err = run_in_process(*argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert code == 0 or out == ""
    if {"--resolution", "--refine", "--trunc"} & set(argv):
        assert code == 2 and "unrecognized arguments" in err
    if "-1/3" in argv:
        # refused by the model's reader or by the cap's own check
        assert code == 2 and "expected one argument" not in err
    if argv[0] == "optimize" and code == 0:
        fiber = _report_line(out, "fiber").removesuffix(" (exact)")
        code, checked, _ = run_in_process(
            "torsion", "--model", argv[2], "--fiber", fiber.replace(" ", ""))
        assert code == 0
        assert _report_line(checked, "threshold") == \
            _report_line(out, "value")


# well-formed entries, a unit whose quotients are infinite series among
# them, and malformed ones
ENTRY_TEXTS = ("0", "1", "-2", "1/2", "T(1)", "T(1/2) - T(3/2)", "1 - T(1)",
               "3*T(-1/2)")
BAD_ENTRIES = (5.5, True, None, "e(1)", "1 +", [1])
NUMBERS = ("1", "2", "3/2", "5", "1/3") * 3 + ("0", "-1", "abc")


def _matrix_data(draw, rows, cols):
    """A matrix object of the given shape, an entry malformed about one
    time in 14, and now and then a malformed shape, entry list or
    level."""
    entries = [[draw(st.sampled_from(ENTRY_TEXTS * 12 + BAD_ENTRIES))
                for _ in range(cols)] for _ in range(rows)]
    data = {"rows": rows, "cols": cols, "entries": entries}
    fault = draw(st.sampled_from((None,) * 12 + ("rows", "entries", "row")))
    if fault == "rows":
        data["rows"] = rows + 1
    elif fault == "entries":
        data["entries"] = 5
    elif fault == "row" and rows:
        entries[0] = "1"
    level = draw(st.sampled_from((None,) * 6 + ("3", "inf", "0", True,
                                                "abc")))
    if level is not None:
        data["trunc"] = level
    return data


# a pentagon and a triangle times an interval, facets as (normal, offset)
FACET_POLYTOPES = (
    (((1, 0), "0"), ((0, 1), "0"), ((-1, 0), "-3"), ((0, -1), "-2"),
     ((-1, -1), "-4")),
    (((1, 0, 0), "0"), ((0, 1, 0), "0"), ((-1, -1, 0), "-2"),
     ((0, 0, 1), "0"), ((0, 0, -1), "-1")),
)


def _model_data(draw):
    """A factor list, a facet file of ``FACET_POLYTOPES`` or a facet file
    of up to five drawn facets in up to three coordinates; a malformed
    description now and then."""
    kind = draw(st.sampled_from(("factors", "polytope", "drawn")))
    if kind == "factors":
        factors = draw(st.lists(st.sampled_from((
            {"sphere": "1"}, {"sphere": "3/2"}, {"cp": {"k": 2, "lambda": "3"}},
            {"cylinder": True}, {"sphere": "0"}, {"cp": {"k": "a"}})),
            min_size=1, max_size=3))
        dim = sum(2 if "cp" in f else 1 for f in factors)
        return {"product": factors}, dim
    if kind == "polytope":
        facets = draw(st.sampled_from(FACET_POLYTOPES))
        dim = len(facets[0][0])
    else:
        dim = draw(st.integers(0, 3))
        facets = [([draw(st.integers(-1, 1)) for _ in range(dim)],
                   draw(st.sampled_from(("0", "-1", "-2", "1/2", "-5/2"))))
                  for _ in range(draw(st.integers(0, 5)))]
    data = {"dim": dim, "facets": [{"normal": list(normal), "offset": offset}
                                   for normal, offset in facets]}
    description = draw(st.sampled_from((None, None, "block", 5)))
    if description is not None:
        data["description"] = description
    return data, dim


@st.composite
def file_invocations(draw):
    """``polydisk`` with drawn flags, ``snf`` on a matrix file,
    ``decompose`` on a complex file and ``torsion`` or ``optimize`` on a
    model file (see ``_matrix_data`` and ``_model_data``), each flag now
    and then malformed; a toric command passes the removed ``--trunc``
    one time in 20.  Returns the arguments, with ``@name`` standing for
    the file ``name``, and the files."""
    command = draw(st.sampled_from(("polydisk", "snf", "decompose",
                                    "torsion", "optimize")))
    files = {}
    if command in ("snf", "decompose"):
        level = draw(st.sampled_from(([],) * 6 + (
            ["--trunc", "3"], ["--trunc", "inf"], ["--trunc", "0"],
            ["--trunc", "abc"])))
    else:
        level = draw(st.sampled_from(([],) * 19 + (["--trunc", "3"],)))
    if command == "polydisk":
        mode = draw(st.sampled_from(("1.4", "1.5", "1.3") * 5 + ("2",)))
        n = draw(st.sampled_from((2, 2, 3, 4, 0)))
        argv = ["polydisk", "--mode", mode, "--n", str(n),
                "--S", draw(st.sampled_from(("2", "5/2", "3/2") * 4
                                            + NUMBERS))]
        if mode == "1.5" or draw(st.integers(0, 9)) == 0:
            argv += ["--k", str(draw(st.integers(0, n + 1)))]
        for flag in ("--eps", "--eps2", "--lambda"):
            if draw(st.integers(0, 3)) == 0:
                argv += [flag, draw(st.sampled_from(NUMBERS))]
        if draw(st.booleans()):
            argv.append("--extrapolate")
        return argv + level, files
    if command == "snf":
        files["input.json"] = _matrix_data(
            draw, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        return ["snf", "--matrix", "@input.json", *level], files
    if command == "decompose":
        ranks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        data = {"ranks": ranks, "differentials": [
            _matrix_data(draw, after, before)
            for before, after in zip(ranks, ranks[1:])]}
        fault = draw(st.sampled_from((None,) * 10 + (
            "differentials", "ranks", "trunc")))
        if fault == "differentials":
            data["differentials"] = 5
        elif fault == "ranks":
            data["ranks"] = [1.5, True]
        elif fault == "trunc":
            data["trunc"] = True
        files["input.json"] = data
        argv = ["decompose", "--complex", "@input.json"]
        if draw(st.booleans()):
            argv += ["--hofer", draw(st.sampled_from(NUMBERS))]
        return argv + level, files
    files["model.json"], dim = _model_data(draw)
    if command == "optimize":
        cap = draw(st.sampled_from(([], ["--cap", "2"], ["--cap", "7/2"])))
        return ["optimize", "--model", "@model.json", *cap, *level], files
    fiber = ",".join(draw(st.sampled_from(("1/4", "1/2", "3/4", "1", "3/2",
                                           "0")))
                     for _ in range(dim))
    return ["torsion", "--model", "@model.json", "--fiber", fiber or "0",
            *level], files


@settings(max_examples=150)
@given(file_invocations())
def test_file_commands_answer_or_refuse(tmp_path_factory, case):
    argv, files = case
    directory = tmp_path_factory.mktemp("files")
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data))
    argv = [str(directory / a[1:]) if a.startswith("@") else a
            for a in argv]
    code, out, err = run_in_process(*argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == "" and err
    else:
        assert out.startswith(f"command: {argv[0]}\n")
    if argv[0] in ("torsion", "optimize", "polydisk") and "--trunc" in argv:
        assert code == 2 and "unrecognized arguments: --trunc" in err


def test_torsion_at_infinite_truncation_answers(capsys):
    # the normal form of this fiber's complex would need an infinite
    # series; the closed form answers exactly, at no finite level
    code, out, _ = invoke(capsys, "torsion",
                          "--model", "sphere:1xsphere:3/2",
                          "--fiber", "1/3,1/2")
    assert code == 0
    assert "torsion: 1/3, 1/3 (exact)" in out
    assert "threshold: 1/3 (= 0.333333, exact)" in out


_EXACT_COMMANDS = """
import json, sys
from torsionlab.cli import run
matrix, complex_ = sys.argv[1:3]
codes = [
    run(["torsion", "--model", "sphere:3/2xsphere:5xsphere:5",
         "--fiber", "3/4,2,2"]),
    run(["polydisk", "--mode", "1.5", "--n", "3", "--k", "2", "--S", "2"]),
    run(["snf", "--matrix", matrix]),
    run(["decompose", "--complex", complex_, "--hofer", "1/2"]),
]
loaded = sorted(name for name in ("sympy", "numpy") if name in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_exact_subcommands_load_no_numerics(matrix_file, complex_file):
    src = os.path.dirname(os.path.dirname(torsionlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _EXACT_COMMANDS, matrix_file, complex_file],
        capture_output=True, text=True, env=env, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}


def test_polydisk_time_and_report_grow_linearly_in_n(capsys):
    # every factor is printed once, as an entry of the factor list
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "polydisk", "--mode", "1.4",
                          "--n", "1000", "--S", "2")
    elapsed = time.perf_counter() - started
    assert code == 0 and "bound: 2 (= 2, exact)" in out
    assert elapsed < 1.0
    assert len(out.encode()) < 100_000


def test_torsion_at_the_equator_of_600_spheres_answers_in_a_second(capsys):
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "torsion",
                          "--model", "x".join(["sphere:1"] * 600),
                          "--fiber", ",".join(["1/2"] * 600))
    elapsed = time.perf_counter() - started
    assert code == 0 and "threshold: inf (exact)" in out
    assert elapsed < 1.0
