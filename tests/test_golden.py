"""Reports of ``snf`` and ``decompose`` stay byte-identical.

The expected files were written by ``golden_reports.py`` from the code
before the Novikov ring's trusted construction and in-place division, so
this test checks that those changes leave every report as it was: exit
code and stdout, text and ``--json``, on a fixed set of matrices and
complexes (a 4 x 4 matrix of 3-4 term entries at truncation 8, series
quotients, negative exponents, Koszul complexes of toric fibers).
"""

import pytest

from golden_reports import cases, expected_path, render

CASES = cases()


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case, as_json):
    with open(expected_path(case, as_json), encoding="utf-8") as handle:
        expected = handle.read()
    assert render(case, as_json) == expected
