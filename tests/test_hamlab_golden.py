"""hamlab suite reports stay identical to the last bit.

``golden/hamlab.json`` was written by ``golden_reports.py``: its four
suite reports from the code before hamlab was cut down to the plane (the
phase-space interface, the sphere and product spaces and the unused
verifiers removed), its flow, gauge and Hofer-norm outputs from the
code before RK4 ran on coordinate columns and Hofer scans on batches of
time nodes, its strip energies and second-argument action difference on
the timed fields from the code before a field lost its gradient and
vector-field methods.  So this test checks that those changes left every
value as it was.
``python tests/golden_reports.py --check`` runs the same comparison
without pytest and writes nothing.
"""

from golden_reports import HAMLAB, render_hamlab


def test_hamlab_reports_match_golden():
    with open(HAMLAB, encoding="utf-8") as handle:
        expected = handle.read()
    assert render_hamlab() == expected
