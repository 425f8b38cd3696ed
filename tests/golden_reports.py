"""Golden reports of ``snf`` and ``decompose``: fixed inputs, pinned stdout.

``golden/cases.json`` lists each case: the subcommand, the matrix or
complex file contents, and any further arguments.  For each case the
expected stdout and exit code of the text report are kept in
``golden/<name>.txt`` and those of the ``--json`` report in
``golden/<name>.json.txt``; the first line of each file is the exit
code.  To rewrite them after an intended report change, run

    PYTHONPATH=src python tests/golden_reports.py
"""

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


def main() -> None:
    for case in cases():
        for as_json in (False, True):
            with open(expected_path(case, as_json), "w",
                      encoding="utf-8") as handle:
                handle.write(render(case, as_json))


if __name__ == "__main__":
    sys.exit(main())
