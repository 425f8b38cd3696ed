"""Workload ``cli-exact``: cold ``python -m torsionlab.cli`` processes.

One operation is one process, run to its end before the next starts.
A round runs eight exact subcommands, each in text and in ``--json``
form (16 processes):

- ``torsion`` on the A01 fiber, on the S2(1)^4 equator and on a seeded
  fiber of S2(1)^n, n <= 4;
- ``polydisk`` in modes 1.4, 1.5 and 1.3 with seeded parameters that
  satisfy every hypothesis;
- ``snf`` on a seeded 3 x 3 matrix and ``decompose --hofer`` on a
  seeded Koszul complex, both JSON files written during set-up.

Each computation takes milliseconds, so the wall time is start-up and
import.  Every report is parsed, checked against the oracles, and
compared byte for byte with the same invocation's first report.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations

import oracles
from harness import Op, child_env

IMPORTS = "torsionlab.cli"
MIN_ROUNDS = 2              # repeats are compared byte for byte
SETUP_REPEATS = 3
WARM_UP = ("torsion",)     # one process; every operation starts alike
WORKDIR = os.path.join("perfbench", "out")


def invoke(argv) -> tuple[int, str]:
    done = subprocess.run([sys.executable, "-m", "torsionlab.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout


# -- report parsing ---------------------------------------------------------

def in_process(argv) -> tuple[float, int, str]:
    """``torsionlab.cli.run`` in this process, warm: (seconds, exit code,
    stdout).  The CLI prints its own handler time on stderr only to the
    millisecond, too coarse for a median of a few-millisecond handler."""
    import contextlib
    import io
    from torsionlab import cli

    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return time.perf_counter() - started, code, out.getvalue()


def _text_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        if line.startswith(" ") or ":" not in line:
            continue
        key, _, value = line.partition(":")
        fields[key] = value.strip()
    return fields


def _text_number(value: str):
    """'2 (= 2, exact)' or 'inf (exact)' -> the exact value."""
    head = value.split(" ", 1)[0]
    return oracles.INF if head == "inf" else F(head)


def _text_list(value: str) -> list:
    body = value[:-len("(exact)")].strip() if value.endswith("(exact)") \
        else value
    return [F(v.strip()) for v in body.split(",") if v.strip()]


def _json_number(entry: dict):
    return oracles.INF if entry["fraction"] == "inf" else F(entry["fraction"])


def parse_report(stdout: str, as_json: bool) -> dict:
    """The fields the oracles decide, from either rendering."""
    if as_json:
        data = json.loads(stdout)
        out = {}
        for key in ("betti", "rank", "certified", "surviving_torsion",
                    "intersection_bound"):
            if key in data:
                out[key] = data[key]
        for key in ("threshold", "bound"):
            if key in data:
                out[key] = _json_number(data[key])
        for key in ("torsion", "pivot_valuations"):
            if key in data:
                out[key] = [_json_number(v) for v in data[key]]
        return out
    fields = _text_fields(stdout)
    out = {}
    for key in ("betti", "rank", "surviving_torsion", "intersection_bound"):
        if key in fields:
            out[key] = int(fields[key])
    if "certified" in fields:
        out["certified"] = fields["certified"] == "yes"
    for key in ("threshold", "bound"):
        if key in fields:
            out[key] = _text_number(fields[key])
    for key in ("torsion", "pivot_valuations"):
        if key in fields:
            out[key] = _text_list(fields[key])
    return out


# -- inputs -----------------------------------------------------------------

def _koszul_complex(components, trunc) -> dict:
    """The contraction complex of a covector given as term lists, in the
    program's complex JSON: degree k holds exterior degree n - k."""
    n = len(components)
    ranks = [len(list(combinations(range(n), n - k))) for k in range(n + 1)]
    differentials = []
    for k in range(n):
        sources = list(combinations(range(n), n - k))
        targets = list(combinations(range(n), n - k - 1))
        grid = [["0"] * len(sources) for _ in targets]
        for col, subset in enumerate(sources):
            for position, i in enumerate(subset):
                rest = subset[:position] + subset[position + 1:]
                sign = -1 if position % 2 else 1
                grid[targets.index(rest)][col] = oracles.terms_to_text(
                    [(sign * c, e) for e, c in components[i]])
        differentials.append({"rows": len(targets), "cols": len(sources),
                              "entries": grid})
    return {"ranks": ranks, "differentials": differentials,
            "trunc": str(trunc)}


def _a06_matrix(rng: random.Random, rows: int, cols: int):
    from exact_core import A06_PALETTE
    return [[list(rng.choice(A06_PALETTE)) for _ in range(cols)]
            for _ in range(rows)]


def prepare(seed: int) -> list[Op]:
    rng = random.Random(seed)
    os.makedirs(WORKDIR, exist_ok=True)
    tag = f"{os.getpid()}-{seed}"
    ops: list[Op] = []

    def add(kind, argv, expected, pivot_prefix=None):
        for as_json in (False, True):
            full = (["--json"] if as_json else []) + argv
            first: list[str] = []

            def check(output, as_json=as_json, first=first):
                code, stdout = output
                if code != 0:
                    return False
                if not first:
                    first.append(stdout)
                elif stdout != first[0]:
                    return False
                report = parse_report(stdout, as_json)
                if pivot_prefix is not None:
                    got = report.get("pivot_valuations", [])
                    if got[:len(pivot_prefix)] != pivot_prefix:
                        return False
                return all(report.get(k) == v for k, v in expected.items())
            ops.append(Op(kind, " ".join(full),
                          lambda full=full: invoke(full), check,
                          argv=tuple(full)))

    def torsion_case(factors, fiber):
        betti, torsion = oracles.floer_answer(factors, fiber)
        add("torsion", ["torsion", "--model", oracles.inline_model(factors),
                        "--fiber", ",".join(str(c) for c in fiber)],
            {"betti": betti, "torsion": sorted(torsion, reverse=True),
             "threshold": oracles.threshold_of(betti, torsion)})

    # torsion: A01, the S2(1)^4 equator, and a seeded S2(1)^n fiber
    torsion_case([("sphere", F(3, 2)), ("sphere", F(5)), ("sphere", F(5))],
                 (F(3, 4), F(2), F(2)))
    torsion_case([("sphere", F(1))] * 4, (F(1, 2),) * 4)
    n = rng.randint(2, 4)
    torsion_case([("sphere", F(1))] * n,
                 tuple(F(rng.randint(1, 7), 8) for _ in range(n)))

    # polydisk: the bound is S in every certified case
    for mode in ("1.4", "1.5", "1.3"):
        if mode == "1.3":
            S = F(1, 2) + F(rng.randint(1, 6), 4)
            argv = ["polydisk", "--mode", mode, "--S", str(S)]
        else:
            n = rng.randint(2, 4) if mode == "1.4" else rng.randint(3, 4)
            k = n - 1 if mode == "1.4" else rng.randint(1, n - 1)
            S = 1 + F(rng.randint(1, 6), 4)
            eps_prime = rng.choice((F(1, 2), F(3, 4)))
            eps = eps_prime / 2
            lam = (2 if mode == "1.4" else k + 1) * S + 1
            if not oracles.polydisk_certified(mode, n, k, S, eps, eps_prime,
                                              lam):
                raise AssertionError("uncertified polydisk input")
            argv = ["polydisk", "--mode", mode, "--n", str(n), "--S", str(S),
                    "--eps", str(eps), "--eps2", str(eps_prime),
                    "--lambda", str(lam)]
            if mode == "1.5":
                argv += ["--k", str(k)]
        add("polydisk", argv, {"bound": S, "certified": True})

    # snf on a seeded 3 x 3 matrix from the A06 palette
    trunc = rng.choice((4, 6))
    entries = _a06_matrix(rng, 3, 3)
    pivots = oracles.pivots_from_divisors(
        oracles.determinantal_divisors(entries, trunc))
    path = os.path.join(WORKDIR, f"matrix-{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"rows": 3, "cols": 3, "trunc": str(trunc),
                   "entries": [[oracles.terms_to_text(t) for t in row]
                               for row in entries]}, handle)
    # the divisors decide the pivots below the truncation; a later pivot
    # may still fall below it, so only that prefix is compared
    add("snf", ["snf", "--matrix", path], {}, pivot_prefix=pivots)

    # decompose --hofer on the Koszul complex of a seeded sphere fiber
    n = rng.randint(2, 3)
    factors = [("sphere", F(rng.randint(2, 6), 2)) for _ in range(n)]
    fiber = tuple(f[1] * F(rng.randint(1, 3), 4) for f in factors)
    components = oracles.covector_terms(factors, fiber)
    trunc = 2 * max(f[1] for f in factors)
    betti, torsion = oracles.floer_answer(factors, fiber, trunc)
    hofer = F(rng.randint(1, 8), 4)
    surviving = sum(1 for v in torsion if v >= hofer)
    path = os.path.join(WORKDIR, f"complex-{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_koszul_complex(components, trunc), handle)
    add("decompose", ["decompose", "--complex", path, "--hofer", str(hofer)],
        {"betti": betti, "torsion": sorted(torsion, reverse=True),
         "threshold": oracles.threshold_of(betti, torsion),
         "surviving_torsion": surviving,
         "intersection_bound": betti + 2 * surviving})
    return ops


def clean_up() -> None:
    """Remove the input files this process wrote."""
    if not os.path.isdir(WORKDIR):
        return
    suffix = f"{os.getpid()}-"
    for name in os.listdir(WORKDIR):
        if (name.startswith(("matrix-", "complex-"))
                and name.split("-", 1)[1].startswith(suffix)):
            os.remove(os.path.join(WORKDIR, name))
