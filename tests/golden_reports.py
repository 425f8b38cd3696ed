"""Golden reports: CLI stdout of the exact subcommands, and hamlab reports.

``golden/cases.json`` lists each case: the subcommand, its arguments,
and optionally the contents of one JSON input file (the ``input`` key),
passed as ``--matrix`` to ``snf``, ``--complex`` to ``decompose`` and
``--model`` to ``torsion`` and ``optimize``.  A case without ``input``
has its whole command in its argument list.  For each
case the expected stdout and exit code of the text report are kept in
``golden/<name>.txt`` and those of the ``--json`` report in
``golden/<name>.json.txt``; the first line of each file is the exit
code.  ``golden/hamlab.json`` keeps the report dicts of four small
hamlab suite runs (see ``HAMLAB_RUNS``) and the outputs of five hamlab
kernels on fields with sin, cos, exp and time terms, which the suites
never reach (see ``hamlab_kernels``), every value as its ``repr``, so
floats are pinned to the last bit.  To rewrite them after an
intended report change, run

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
HAMLAB = os.path.join(GOLDEN, "hamlab.json")

INPUT_FLAGS = {"snf": "--matrix", "decompose": "--complex",
               "torsion": "--model", "optimize": "--model"}

# suite name and keyword arguments of each pinned hamlab run
HAMLAB_RUNS = (
    ("energy", {"seed": 0, "cases": 4}),
    ("actiondiff", {"seed": 0, "cases": 2}),
    ("hat", {"seed": 0, "cases": 3}),
    ("hofer", {"seed": 0}),
)


# non-polynomial fields of the pinned kernel runs
WAVE = "sin(x1)*cos(y1) + t*x1**2"
DAMPED = "exp(-x1**2/2)*cos(y1) - t*sin(x1 + y1)"


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
        argv = (["--json"] if as_json else []) + [case["command"]]
        if "input" in case:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(case["input"], handle)
            argv += [INPUT_FLAGS[case["command"]], path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + case["args"])
    return f"{code}\n{out.getvalue()}"


def hamlab_kernels() -> dict:
    """A flow, a gauge transform, Hofer norms, the strip energies and
    the second-argument action difference on ``WAVE`` and ``DAMPED``,
    each array as the ``repr`` of its list of floats."""
    import numpy as np
    from torsionlab import hamlab

    plane = hamlab.euclidean_plane()
    wave = hamlab.HamiltonianField(plane, WAVE)
    damped = hamlab.HamiltonianField(plane, DAMPED)
    side = np.linspace(-1.5, 1.5, 5)
    points = np.stack(np.meshgrid(side, side, indexing="ij"),
                      axis=-1).reshape(-1, 2)
    t = np.linspace(0.0, 1.0, 17)
    path = np.stack([0.8 * np.cos(3 * t), 0.5 * t - 0.3], axis=-1)
    box = [(-2.0, 2.0), (-1.5, 2.5)]
    tau = np.linspace(-1.0, 1.0, 9)
    grid = np.stack(np.broadcast_arrays(
        0.6 * np.cos(2 * tau[:, None] + 3 * t[None, :]),
        0.4 * np.sin(tau[:, None] * t[None, :]) + 0.2 * tau[:, None]),
        axis=-1)
    strip = hamlab.StripMap(plane, tau, t, grid)
    # a strip ruled in s, fine enough in t that the identity holds to 1e-3
    s = np.linspace(0.0, 1.0, 5)[:, None]
    t_ruled = np.linspace(0.0, 1.0, 33)
    tt = t_ruled[None, :]
    ruled = hamlab.StripMap(plane, s[:, 0], t_ruled, np.stack(
        np.broadcast_arrays(0.8 * np.cos(3 * tt) + s * 0.3 * np.sin(2 * tt),
                            0.5 * tt - 0.3 + s * (0.2 + 0.1 * tt ** 2)),
        axis=-1))
    return {
        "flow": {
            "wave": repr(hamlab.flow(wave, 0.75, points).tolist()),
            "damped_backward": repr(hamlab.flow(damped, 0.1, points,
                                               t0=0.9).tolist()),
        },
        "gauge_plus": {
            which: repr(hamlab.gauge_plus(damped, which, path, t_nodes=t,
                                          max_step=1 / 128).tolist())
            for which in ("first", "second")
        },
        "hofer_norms": {
            "wave": repr(hamlab.hofer_norms(wave, box=box)),
            "damped": repr(hamlab.hofer_norms(damped, box=box,
                                              resolution=21,
                                              time_nodes=33,
                                              refine_rounds=5)),
        },
        "energy_functional": {
            "wave": repr(hamlab.energy_functional(strip, wave,
                                                  hamlab.rho_plus())),
            "damped": repr(hamlab.energy_functional(strip, damped,
                                                    hamlab.rho_k(2.0))),
        },
        "actiondiff_second": {
            key: repr(value) for key, value in hamlab.verify_actiondiff(
                damped, ruled, which="second", tol=1e-3).items()
        },
    }


def render_hamlab() -> str:
    """The pinned hamlab reports as the text of ``golden/hamlab.json``."""
    from torsionlab.hamlab import verify

    reports = {}
    for suite, kwargs in HAMLAB_RUNS:
        report = getattr(verify, "suite_" + suite)(**kwargs)
        reports[suite] = {key: repr(value) for key, value in report.items()}
    reports.update(hamlab_kernels())
    return json.dumps(reports, indent=1) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the expected files; write nothing")
    check = parser.parse_args(argv).check
    differ = []
    rendered = [(expected_path(case, as_json), render(case, as_json))
                for case in cases() for as_json in (False, True)]
    rendered.append((HAMLAB, render_hamlab()))
    for path, report in rendered:
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
