"""Golden reports of ``snf`` and ``decompose``: fixed inputs, pinned stdout.

``golden/cases.json`` lists each case: the subcommand, the matrix or
complex file contents, and any further arguments.  For each case the
expected stdout and exit code of the text report are kept in
``golden/<name>.txt`` and those of the ``--json`` report in
``golden/<name>.json.txt``; the first line of each file is the exit
code.  To rewrite them after an intended report change, run

    PYTHONPATH=src python tests/golden_reports.py

With ``--check`` it writes nothing: it renders every case, prints the
names of the expected files the reports differ from, and exits 1 if any
differ, 0 otherwise.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def cases() -> list[dict]:
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as handle:
        return json.load(handle)


def expected_path(case: dict, as_json: bool) -> str:
    suffix = ".json.txt" if as_json else ".txt"
    return os.path.join(GOLDEN, case["name"] + suffix)


def render(case: dict, as_json: bool) -> str:
    """Exit code and stdout of one in-process CLI run, as one string."""
    from torsionlab.cli import run

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case["input"], handle)
        flag = "--matrix" if case["command"] == "snf" else "--complex"
        argv = (["--json"] if as_json else []) + [
            case["command"], flag, path] + case["args"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    return f"{code}\n{out.getvalue()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the expected files; write nothing")
    check = parser.parse_args(argv).check
    differ = []
    for case in cases():
        for as_json in (False, True):
            path = expected_path(case, as_json)
            report = render(case, as_json)
            if not check:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(report)
                continue
            try:
                with open(path, encoding="utf-8") as handle:
                    expected = handle.read()
            except FileNotFoundError:
                expected = None
            if report != expected:
                differ.append(os.path.basename(path))
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
