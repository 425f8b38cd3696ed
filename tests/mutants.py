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
    Mutant("balanced point without the sum-zero check",
           "torsionlab/toric.py",
           "if not facets or any(map(sum, zip(*(f.normal for f in facets)))):",
           "if not facets:", (OPTIMIZER_PROPERTY,)),
    Mutant("balanced point without the s > 0 check",
           "torsionlab/toric.py",
           "if s <= 0 or any(area != s for area in block.slacks(point)):",
           "if any(area != s for area in block.slacks(point)):",
           (OPTIMIZER_PROPERTY,)),
    Mutant("only the first searched block is searched",
           "torsionlab/toric.py",
           "for (coords, block), box in zip(searched, boxes):",
           "for (coords, block), box in zip(searched[:1], boxes):",
           (CYLINDER_PAIR, PRODUCT_PROPERTY)),
    Mutant("vertex enumeration without the box faces",
           "torsionlab/toric.py",
           "        planes += [(axis, lo), (axis, hi)]\n", "",
           (CYLINDER_PAIR,)),
    Mutant("vertex enumeration in the open box",
           "torsionlab/toric.py",
           "if all(lo <= x <= hi for x, (lo, hi) in zip(point, intervals))",
           "if all(lo < x < hi for x, (lo, hi) in zip(point, intervals))",
           (CYLINDER_PAIR,)),
    Mutant("vertex enumeration without the last facet's ties",
           "torsionlab/toric.py",
           "for f, g in itertools.combinations(block.facets, 2)]",
           "for f, g in itertools.combinations(block.facets[:-1], 2)]",
           (ORACLE_PROPERTY,)),
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
