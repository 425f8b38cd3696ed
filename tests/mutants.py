"""Source mutations that the tests must kill.

Each entry of ``MUTANTS`` names a file under ``src/``, a text that occurs
in it exactly once, the text that replaces it, and the tests that must
fail once it is replaced.  Run

    python tests/mutants.py --check

from anywhere: each mutant is applied to a fresh temporary copy of
``src/``, and its tests run in a pytest subprocess that imports the
package from that copy.  It names every mutant that survives (its tests
all pass) or that cannot be checked (its text is missing or its tests do
not run), and exits 1 if any does, 0 otherwise.  It writes nothing
outside a temporary directory.  ``tests/test_mutants.py`` checks in
tier-1 that every listed text and test still exists.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]    # pytest node ids, relative to the root


FORWARD_PROPERTY = ("tests/test_valmat.py::"
                    "test_forward_pass_matches_two_sided_elimination")
RENDERER_PROPERTY = ("tests/test_novikov.py::"
                     "test_to_text_matches_the_fraction_renderer")
OPTIMIZER_PROPERTY = ("tests/test_toric.py::"
                      "test_optimizer_never_below_the_grid_and_true_at_its_fiber")
ORACLE_PROPERTY = ("tests/test_toric.py::"
                   "test_optimizer_equals_the_vertex_oracle_on_unbalanced_blocks")
PRODUCT_PROPERTY = ("tests/test_toric.py::"
                    "test_optimizer_answers_a_product_from_its_factors_alone")
CYLINDER_PAIR = ("tests/test_cli.py::"
                 "test_optimize_cylinder_pair_answers_like_one_cylinder")
CAPPED_STRIP = ("tests/test_cli.py::test_optimize_capped_strip_"
                "climbs_to_the_cap_on_its_second_level")
BLOWN_UP_CP2 = ("tests/test_toric.py::"
                "test_optimize_blown_up_cp2_reaches_one_where_all_areas_meet")
EMPTY_BOX = "tests/test_toric.py::test_optimize_empty_box"
FIRST_LEVEL_STOP = ("tests/test_toric.py::"
                    "test_optimize_stops_at_the_first_level_of_nonzero_sum")
RECEDING_BUDGET = ("tests/test_toric.py::test_optimize_refuses_a_"
                   "receding_block_over_budget_before_a_level")
MALFORMED_JSON = ("tests/test_cli.py::"
                  "test_malformed_json_names_the_field_and_exits_2")

MUTANTS = (
    Mutant("forward pass skips the pivot-row division at infinite level",
           "torsionlab/valmat.py",
           "        if exact:\n            for j in support:\n"
           "                divide_exact(pivot_row[j], pivot)\n",
           "", (FORWARD_PROPERTY,)),
    Mutant("forward pass starts its row operations at the pivot row",
           "torsionlab/valmat.py",
           "for i in range(k + 1, rows):", "for i in range(k, rows):",
           (FORWARD_PROPERTY,)),
    Mutant("diagonal keeps the pivots' leading coefficients",
           "torsionlab/valmat.py",
           "grid[k][k], = _over_leading_coefficient((pivot,), pivot)",
           "grid[k][k] = pivot", (FORWARD_PROPERTY,)),
    Mutant("text keeps coefficients that share a factor with the scale",
           "torsionlab/novikov.py",
           "g = math.gcd(magnitude, scale)", "g = 1", (RENDERER_PROPERTY,)),
    Mutant("text takes a numerator of 1 for a unit coefficient",
           "torsionlab/novikov.py",
           "if magnitude != scale:", "if magnitude != 1:",
           (RENDERER_PROPERTY,)),
    Mutant("tight set read off one optimal vertex, not all of them",
           "torsionlab/toric.py",
           "and all(areas[j] == best for _, areas in tops)]",
           "and all(areas[j] == best for _, areas in tops[:1])]",
           (CAPPED_STRIP,)),
    Mutant("later levels without the planes of the fixed facets",
           "torsionlab/toric.py",
           "_points(planes + bounds, dim)",
           "_points([plane for plane, level in zip(planes, fixed)"
           " if level is None] + bounds, dim)",
           (CAPPED_STRIP, PRODUCT_PROPERTY)),
    Mutant("later levels without the fixed facets' floors",
           "torsionlab/toric.py",
           "all(a >= (t if level is None else level)",
           "all(a >= (t if level is None else 0)", (CAPPED_STRIP,)),
    Mutant("levels never stop at a tight set of nonzero sum",
           "torsionlab/toric.py",
           "if any(map(sum, zip(*(block.facets[j].normal for j in tight))))"
           " \\", "if False \\", (FIRST_LEVEL_STOP, ORACLE_PROPERTY)),
    Mutant("first level without the lambda_1 > 0 check",
           "torsionlab/toric.py",
           "if best is None or best <= 0:", "if best is None:",
           (EMPTY_BOX, OPTIMIZER_PROPERTY)),
    Mutant("levels without the box faces",
           "torsionlab/toric.py",
           "_points(planes + bounds, dim)", "_points(planes, dim)",
           (CYLINDER_PAIR,)),
    Mutant("rays kept without the cone check",
           "torsionlab/toric.py",
           "return [r for r in rays if r is not None and all(",
           "return [r for r in rays if r is not None or all(",
           (BLOWN_UP_CP2,)),
    Mutant("a receding block counted without its box faces",
           "torsionlab/toric.py",
           "count = math.comb(m + 2 * len(box), d + 1)",
           "count = math.comb(m, d + 1)", (RECEDING_BUDGET,)),
    Mutant("a JSON true read as the level 1",
           "torsionlab/valmat.py",
           "        if isinstance(value, bool):", "        if False:",
           (MALFORMED_JSON,)),
    Mutant("matrix entries not checked to be a list of rows",
           "torsionlab/valmat.py",
           "    if not (isinstance(entries, list)\n"
           "            and all(isinstance(row, list) for row in entries)):\n",
           "    if False:\n", (MALFORMED_JSON,)),
    Mutant("a bad entry not named by its row and column",
           "torsionlab/valmat.py",
           'raise ValueError(f"{where} row {i} column {j}: {exc}") from None',
           "raise", (MALFORMED_JSON,)),
    Mutant("complex differentials not checked to be a list",
           "torsionlab/valmat.py",
           "    if not isinstance(blobs, list):\n", "    if False:\n",
           (MALFORMED_JSON,)),
    Mutant("matrix rows and cols not checked to be counts",
           "torsionlab/valmat.py",
           "    if not (_is_count(data[\"rows\"])"
           " and _is_count(data[\"cols\"])):\n",
           "    if False:\n", (MALFORMED_JSON,)),
    Mutant("a differential's shape not checked against the ranks",
           "torsionlab/valmat.py",
           "        if matrix.shape != (ranks[index + 1], ranks[index]):\n",
           "        if False:\n", (MALFORMED_JSON,)),
    Mutant("a differential read as the zero map between the ranks",
           "torsionlab/valmat.py",
           "matrix = matrix_from_json(blob, level, where)",
           "matrix = NovikovMatrix.zeros(ranks[index + 1], ranks[index])",
           (MALFORMED_JSON,)),
    Mutant("a model description not checked to be a string",
           "torsionlab/toric.py",
           "    if not isinstance(description, str):\n", "    if False:\n",
           (MALFORMED_JSON,)),
)


def stale(mutant: Mutant) -> list[str]:
    """What no longer matches the source and tests: an ``old`` text
    that does not occur exactly once, or a test function that is gone."""
    problems = []
    with open(os.path.join(SRC, mutant.path), encoding="utf-8") as handle:
        count = handle.read().count(mutant.old)
    if count != 1:
        problems.append(f"its text occurs {count} times in {mutant.path}")
    for test in mutant.tests:
        path, _, function = test.partition("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            if f"def {function}(" not in handle.read():
                problems.append(f"{test} is gone")
    return problems


def run_tests(mutant: Mutant, directory: str) -> int:
    """The pytest exit code of the mutant's tests against a copy of
    ``src/`` in ``directory`` with the mutation applied."""
    copy = os.path.join(directory, "src")
    shutil.copytree(SRC, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = os.path.join(copy, mutant.path)
    with open(target, encoding="utf-8") as handle:
        text = handle.read()
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text.replace(mutant.old, mutant.new, 1))
    # the ini option puts the copy ahead of the checkout's src/
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={copy}", *mutant.tests],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    return done.returncode


def check() -> int:
    """Run every mutant; return how many survive or cannot be checked."""
    bad = 0
    for mutant in MUTANTS:
        problems = stale(mutant)
        if not problems:
            with tempfile.TemporaryDirectory() as directory:
                code = run_tests(mutant, directory)
            if code == 0:
                problems = ["survives: its tests pass"]
            elif code != 1:
                problems = [f"its tests did not run (pytest exit {code})"]
        if problems:
            bad += 1
            print(f"{mutant.name}: {'; '.join(problems)}")
        else:
            print(f"{mutant.name}: killed")
    print(f"{bad} of {len(MUTANTS)} mutants survive or cannot be checked")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="run every mutant against its tests")
    args = parser.parse_args(argv)
    if not args.check:
        parser.error("pass --check")
    return 1 if check() else 0


if __name__ == "__main__":
    sys.exit(main())
