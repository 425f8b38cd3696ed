"""Reports of the exact subcommands stay byte-identical.

The expected files were written by ``golden_reports.py`` from the code
before the Novikov ring's trusted construction and in-place division, so
this test checks that those changes leave every report as it was: exit
code and stdout, text and ``--json``, on a fixed set of matrices and
complexes (a 4 x 4 matrix of 3-4 term entries at truncation 8, series
quotients, negative exponents, Koszul complexes of toric fibers).  The two
``mixed-denominators`` cases, whose entries mix T(1/3), T(2/5) and T(1/2)
at truncation 7/2, were written from the code before exponents became
integers over a per-element denominator, and pin that change the same way.
The ``torsion``, ``polydisk`` and ``optimize`` cases (reference fibers,
equators, a cylinder, a CP^2 centre, the three polydisk modes and an
extrapolation, three optimizer models) were written from the code that
still read the toric answers off truncated Novikov elements, before they
came from one table of facet areas and summed normals.  The ``torsion``
reports have since lost their ``trunc`` line, as the toric commands
took a truncation level no more; nothing else in them moved.  The three wide-coefficient cases
(a 4 x 4 matrix whose entries have coefficients over 3, 5, 7 and 12 with
numerators up to 10^4 at truncation 6, the normal form of
``1 - 1/3*T(1/2)`` at truncation 12, whose quotients carry 3^k, and a
Koszul complex with non-unit coefficients) were written from the code
whose coefficients were still Fractions, before they became integers
over one denominator per element.  The four model-file cases (``torsion``
on a facet file whose blocks interleave, which pins the facet-area
order; ``torsion`` and ``optimize --cap 3`` on a factor-list file of
CP^2, a sphere and a cylinder; ``optimize`` on the pentagon x interval
facet file) were written from the code whose products still padded
every facet normal into the joint coordinates, before a model became a
tuple of factors.  That change re-pinned the four ``polydisk`` cases,
whose ``model`` field now prints the ``{"product": [...]}`` factor
list; nothing else in them moved.
``python tests/golden_reports.py --check`` runs the same comparison
without pytest and writes nothing.
"""

import json
import os

import pytest

from golden_reports import cases, expected_path, render

CASES = cases()


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case, as_json):
    with open(expected_path(case, as_json), encoding="utf-8") as handle:
        expected = handle.read()
    assert render(case, as_json) == expected


def test_check_mode_names_differing_files_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    import golden_reports

    case = CASES[0]
    (tmp_path / "cases.json").write_text(json.dumps([case]))
    for as_json in (False, True):
        with open(expected_path(case, as_json), encoding="utf-8") as handle:
            text = handle.read()
        name = os.path.basename(expected_path(case, as_json))
        (tmp_path / name).write_text(text + "x" if as_json else text)
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    monkeypatch.setattr(golden_reports, "GOLDEN", str(tmp_path))
    assert golden_reports.main(["--check"]) == 1
    assert capsys.readouterr().out == f"{case['name']}.json.txt\n"
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before
