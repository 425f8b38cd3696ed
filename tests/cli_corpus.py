"""A seeded corpus of CLI invocations, malformed ones included.

``corpus(seed, count)`` draws ``torsion``, ``optimize`` and ``polydisk``
invocations over inline, factor-list JSON and facet JSON models (fibers
inside, on the boundary of and outside the polytope; one time in twenty
the removed ``--trunc``, which exits 2; ``optimize`` also on unbalanced
2-D and 3-D facet blocks and on a 4-D block over the optimizer's
candidate budget, and now and then with the removed ``--resolution`` or
``--refine``, which exit 2; polydisk n up to 12), and ``snf`` and
``decompose`` invocations on seeded matrix and complex JSON files
(A06-palette, long and negative-exponent entries, zero and repeated
rows, Koszul complexes of two elements; malformed entries, shapes,
entry lists, differential lists, levels, ranks and compositions; series
pivots that exhaust precision at infinite truncation; ``--trunc``
absent, ``inf``, p/q or malformed, and ``decompose --hofer``).  The same
seed gives the same invocations.  Run

    python tests/cli_corpus.py --compare OLD_SRC NEW_SRC [--seed N] [--count N]

to run the corpus against the package under each source directory (one
worker process each, every invocation in process) and list each
invocation whose exit code, stdout or stderr, less the ``elapsed:``
line, differs; it exits 1 when any does.  It writes nothing outside a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction as F

# facet polytopes: (name, dim, facets, interior points, boundary points)
POLYTOPES = (
    ("pentagon", 2,
     [((1, 0), 0), ((0, 1), 0), ((-1, 0), -3), ((0, -1), -2),
      ((-1, -1), -4)],
     ["1,1", "3/2,1", "1/2,3/2", "2,1/2"], ["0,1", "3,1/2"]),
    ("simplex-in-u0-u2-x-interval", 3,
     [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, 0, -1), -2),
      ((0, -1, 0), -1)],
     ["1/3,1/2,1", "1/2,1/2,1/2", "1/4,1/3,1"], ["0,1/2,1", "1,1/2,1"]),
    ("square", 2,
     [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)],
     ["1,1", "1/2,1"], ["2,1"]),
    ("strip", 2,
     [((1, 0), 0), ((0, 1), 0), ((0, -1), -1)],
     ["1,1/2", "5/2,1/3"], ["1,0"]),
)

# facet normals of optimizer blocks that do not sum to zero: CP^2 blown
# up at a point, a pentagon, C^2 blown up at the origin (unbounded), CP^3
# blown up at a point, and the simplex with one normal doubled in its
# last coordinate
UNBALANCED = (
    ((1, 0), (0, 1), (-1, -1), (1, 1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)),
    ((1, 0), (1, 1), (0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)),
)

# a 4-cube with two corners cut: C(C(10,2) + 8, 4) = 292,825 candidate
# vertices, over the optimizer's budget
OVER_BUDGET = {"dim": 4, "facets": [
    {"normal": [int(i == j) * sign for j in range(4)], "offset": offset}
    for sign, offset in ((1, "0"), (-1, "-3")) for i in range(4)] + [
    {"normal": [-1, -1, -1, -1], "offset": "-7"},
    {"normal": [1, 1, 0, 0], "offset": "1"}]}

BAD_FACET_FILES = (
    {"dim": -1, "facets": []},
    {"dim": 1},
    [{"normal": [1], "offset": "0"}],
    {"dim": "a", "facets": []},
    {"dim": True, "facets": [{"normal": [1], "offset": "0"}]},
    {"dim": 1, "facets": {}},
    {"dim": 1, "facets": [1]},
    {"dim": 1, "facets": [{"normal": [1]}]},
    {"dim": 2, "facets": [{"normal": [1], "offset": "0"}]},
    {"dim": 1, "facets": [{"normal": [2], "offset": "0"}]},
    {"dim": 1, "facets": [{"normal": [1], "offset": "abc"}]},
    {"dim": 1, "facets": [{"normal": [1], "offset": "1/0"}]},
    {"dim": 1, "facets": [{"normal": [1], "offset": "0"}], "description": 5},
)

BAD_FACTOR_FILES = (
    {"product": [1]},
    {"product": []},
    {"product": 5},
    {"product": [{"cp": {"k": "a", "lambda": "3"}}]},
    {"product": [{"cp": {"k": 2}}]},
    {"product": [{"cp": 3}]},
    {"product": [{"sphere": "abc"}]},
    {"product": [{"sphere": "0"}]},
    {"product": [{"sphere": "1", "cylinder": True}]},
    {"product": [{"torus": "1"}]},
)

BAD_INLINE = ("cp:a:3", "sphere:1/0", "sphere:", "torus:1", "cp:2",
              "sphere:-1", "cp:0:3", "sphere:abc", "cp:2:x")

BAD_NUMBERS = ("abc", "1/0", "", "1.5.2")

# the A06 palette, long entries, negative exponents and a unit whose
# quotients are infinite series (exit 3 at infinite truncation)
ENTRIES = ("0", "0", "1", "-1", "2", "1/2", "T(1/2)", "T(1)", "3*T(3/2)",
           "1 + T(1)", "T(1/2) - T(3/2)", "-2*T(1) + T(2)",
           "1 - 1/2*T(1/4) + T(2)", "2*T(1/2) - T(3/4) + 3*T(9/4)",
           "T(-1/2) + 3*T(1)", "1/3*T(-1)", "1 - T(1)")

BAD_ENTRIES = ("T(", "abc", "T(1/0)", "2*T(1/2", None, 1.5, [1])

# (x, -x) pairs for Koszul complexes of two elements
SIGNED = (("T(1)", "-T(1)"), ("2", "-2"), ("1 + T(1)", "-1 - T(1)"),
          ("T(1/2) - T(3/2)", "-T(1/2) + T(3/2)"),
          ("1/3*T(-1)", "-1/3*T(-1)"), ("1 - T(1)", "-1 + T(1)"),
          ("0", "0"))

BAD_RANKS = (
    {"ranks": [1.5, 1], "differentials": [
        {"rows": 1, "cols": 1, "entries": [["T(1)"]]}]},
    {"ranks": ["1", True], "differentials": [
        {"rows": 1, "cols": 1, "entries": [["T(1)"]]}]},
    {"ranks": [-1, 1], "differentials": [
        {"rows": 1, "cols": 1, "entries": [["T(1)"]]}]},
)


@dataclass
class Invocation:
    """One command line; an argument ``@name`` stands for the JSON file
    ``files[name]``."""

    argv: list[str]
    files: dict = field(default_factory=dict)

    def resolved(self, directory: str) -> list[str]:
        return [os.path.join(directory, a[1:]) if a.startswith("@") else a
                for a in self.argv]

    def write(self, directory: str) -> None:
        for name, data in self.files.items():
            with open(os.path.join(directory, name), "w",
                      encoding="utf-8") as handle:
                json.dump(data, handle)

    def text(self) -> str:
        return " ".join(json.dumps(self.files[a[1:]]) if a.startswith("@")
                        else repr(a) if a == "" or " " in a else a
                        for a in self.argv)


def run_one(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr (less ``elapsed:``) of ``cli.run``
    in this process; any exception other than an argument-parser exit
    propagates."""
    from torsionlab.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    lines = err.getvalue().splitlines(keepends=True)
    return code, out.getvalue(), "".join(
        line for line in lines if not line.startswith("elapsed:"))


# -- drawing invocations --------------------------------------------------

def _factors(rng: random.Random, max_dim: int) -> list[tuple]:
    factors, dim = [], 0
    while not factors or (dim < max_dim and rng.random() < 0.6):
        kind = rng.choice(("sphere", "sphere", "cp", "cylinder"))
        if kind == "sphere":
            factors.append(("sphere", F(rng.randint(1, 8), rng.randint(1, 3))))
            dim += 1
        elif kind == "cp" and dim + 2 <= max_dim:
            k = rng.randint(1, 2)
            factors.append(("cp", k, F(rng.randint(1, 8), rng.randint(1, 2))))
            dim += k
        else:
            factors.append(("cylinder",))
            dim += 1
    return factors


def _factor_fiber(rng: random.Random, factor: tuple, where: str) -> list:
    """Coordinates of one factor: inside, on its boundary or outside."""
    if factor[0] == "sphere":
        area = factor[1]
        return [{"in": area * F(rng.randint(1, 7), 8), "on": F(0),
                 "out": area + 1}[where]]
    if factor[0] == "cylinder":
        return [{"in": F(rng.randint(1, 9), 4), "on": F(0),
                 "out": F(-1)}[where]]
    _, k, size = factor
    weights = [rng.randint(1, 4) for _ in range(k + 1)]
    if where == "on":
        weights[-1] = 0
    coords = [size * F(w, sum(weights)) for w in weights[:k]]
    if where == "out":
        coords[0] = size + 1
    return coords


def _fiber(rng: random.Random, factors: list[tuple]) -> str:
    roll = rng.random()
    where = "in" if roll < 0.75 else "on" if roll < 0.87 else "out"
    odd = rng.randrange(len(factors))
    coords = [c for i, factor in enumerate(factors)
              for c in _factor_fiber(rng, factor, where if i == odd else "in")]
    if rng.random() < 0.05:
        coords = coords[:-1] or coords * 2
    return ",".join(str(c) for c in coords)


def _inline(factors: list[tuple]) -> str:
    return "x".join(
        f"sphere:{f[1]}" if f[0] == "sphere" else
        f"cp:{f[1]}:{f[2]}" if f[0] == "cp" else "cylinder" for f in factors)


def _listing(factors: list[tuple]) -> dict:
    return {"product": [
        {"sphere": str(f[1])} if f[0] == "sphere" else
        {"cp": {"k": f[1], "lambda": str(f[2])}} if f[0] == "cp" else
        {"cylinder": True} for f in factors]}


def _facet_file(rng: random.Random, polytope: tuple) -> dict:
    _, dim, facets, _, _ = polytope
    kind = rng.choice((None, None, "closed", "open", "weird"))
    entries = []
    for normal, offset in facets:
        entry = {"normal": list(normal), "offset": str(offset)}
        if kind is not None:
            entry["kind"] = kind
        entries.append(entry)
    return {"dim": dim, "facets": entries}


def _model(rng: random.Random, index: int, max_dim: int
           ) -> tuple[str, dict, str, list | None]:
    """A --model value, the files it needs, a fiber for it, and its
    factors when it is a well-formed factor model."""
    roll = rng.random()
    name = f"model-{index}.json"
    if roll < 0.08:
        return rng.choice(BAD_INLINE), {}, "1/2", None
    if roll < 0.14:
        return f"@{name}", {name: rng.choice(BAD_FACTOR_FILES)}, "1/2", None
    if roll < 0.22:
        return f"@{name}", {name: rng.choice(BAD_FACET_FILES)}, "1/2", None
    if roll < 0.45:
        polytope = rng.choice(POLYTOPES)
        fiber = rng.choice(polytope[3] if rng.random() < 0.8 else polytope[4])
        return f"@{name}", {name: _facet_file(rng, polytope)}, fiber, None
    factors = _factors(rng, max_dim)
    fiber = _fiber(rng, factors)
    if roll < 0.7:
        return _inline(factors), {}, fiber, factors
    return f"@{name}", {name: _listing(factors)}, fiber, factors


def _trunc(rng: random.Random) -> list[str]:
    """The removed --trunc of the toric commands, one time in twenty."""
    if rng.random() < 0.05:
        return ["--trunc", rng.choice(("inf", "1", "5/2") + BAD_NUMBERS)]
    return []


def _torsion(rng: random.Random, index: int) -> Invocation:
    model, files, fiber, _ = _model(rng, index, max_dim=8)
    if rng.random() < 0.04:
        fiber = rng.choice(BAD_NUMBERS)
    return Invocation(["torsion", "--model", model, "--fiber", fiber]
                      + _trunc(rng), files)


def _unbalanced_file(rng: random.Random, normals: tuple) -> dict:
    """A facet file with ``normals``, every facet at one area from a
    drawn point and now and then shifted by 1/2."""
    dim = len(normals[0])
    point = [F(rng.randint(-4, 4), 2) for _ in range(dim)]
    area = F(rng.randint(1, 4), 2)
    return {"dim": dim, "facets": [
        {"normal": list(normal),
         "offset": str(sum(c * x for c, x in zip(normal, point)) - area
                       + rng.choice((0, 0, F(1, 2), F(-1, 2))))}
        for normal in normals]}


def _optimize(rng: random.Random, index: int) -> Invocation:
    """A model of ``_model``, an unbalanced facet block (one time in
    four) or the block over budget (one time in fifty); one time in
    twenty the removed ``--resolution`` or ``--refine``."""
    roll = rng.random()
    if roll < 0.27:
        name = f"model-{index}.json"
        model, files = f"@{name}", {name: OVER_BUDGET if roll < 0.02 else
                                     _unbalanced_file(rng,
                                                      rng.choice(UNBALANCED))}
    else:
        model, files, _, _ = _model(rng, index, max_dim=3)
    argv = ["optimize", "--model", model]
    if rng.random() < 0.05:
        argv += rng.choice((["--resolution", "8"], ["--refine", "2"]))
    roll = rng.random()
    if roll < 0.6:
        argv += ["--cap", str(F(rng.randint(1, 12), rng.randint(1, 2)))]
    elif roll < 0.68:
        argv += ["--cap", rng.choice(BAD_NUMBERS)]
    return Invocation(argv + _trunc(rng), files)


def _polydisk(rng: random.Random) -> Invocation:
    mode = rng.choice(("1.4", "1.5", "1.3"))
    n = rng.randint(1, 12)
    S = str(F(rng.randint(1, 12), rng.randint(1, 4)))
    if rng.random() < 0.06:
        S = rng.choice(BAD_NUMBERS)
    argv = ["polydisk", "--mode", mode, "--n", str(n), "--S", S]
    if mode == "1.5" or rng.random() < 0.1:
        argv += ["--k", str(rng.randint(1, n))]
    for flag, value in (("--eps", "1/8"), ("--eps2", "3/4"),
                        ("--lambda", str(F(rng.randint(1, 60), 2)))):
        roll = rng.random()
        if roll < 0.2:
            argv += [flag, value]
        elif roll < 0.24:
            argv += [flag, rng.choice(BAD_NUMBERS)]
    if rng.random() < 0.25:
        argv.append("--extrapolate")
    return Invocation(argv + _trunc(rng))


def _matrix(rng: random.Random) -> dict:
    """A matrix JSON of up to 4 x 4 entries, a row of zeros or a
    repeated row at times, one in ten malformed."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    grid = [[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        grid[rng.randrange(rows)] = (["0"] * cols if rng.random() < 0.5
                                     else list(grid[0]))
    data = {"rows": rows, "cols": cols, "entries": grid}
    roll = rng.random()
    if roll < 0.05:
        grid[rng.randrange(rows)][rng.randrange(cols)] = \
            rng.choice(BAD_ENTRIES)
    elif roll < 0.07:
        grid[-1].append("1")
    elif roll < 0.09:
        data["rows"] = rows + 1
    elif roll < 0.1:
        del data["entries"]
    elif roll < 0.11:
        data["entries"] = rng.choice((5, ["1"]))
    return data


def _complex(rng: random.Random) -> dict:
    """A one-differential complex, the Koszul complex of two elements
    (or, one time in ten, two differentials that do not compose to
    zero), or a complex with malformed ranks."""
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(BAD_RANKS)
    if roll < 0.5:
        d0 = _matrix(rng)
        return {"ranks": [d0.get("cols", 1), d0.get("rows", 1)],
                "differentials": [d0]}
    (x, minus_x), (y, minus_y) = rng.choice(SIGNED), rng.choice(SIGNED)
    first = y if rng.random() < 0.1 else minus_y
    return {"ranks": [1, 2, 1], "differentials": [
        {"rows": 2, "cols": 1, "entries": [[x], [y]]},
        {"rows": 1, "cols": 2, "entries": [[first, x]]}]}


def _exact_trunc(rng: random.Random) -> list[str]:
    """--trunc absent, inf, finite or malformed."""
    roll = rng.random()
    if roll < 0.3:
        return []
    if roll < 0.45:
        return ["--trunc", "inf"]
    if roll < 0.85:
        return ["--trunc", rng.choice(("1/2", "1", "3", "4", "6", "25/4"))]
    return ["--trunc", rng.choice(BAD_NUMBERS + ("0", "-1"))]


def _exact(rng: random.Random) -> Invocation:
    """snf on a seeded matrix JSON or decompose on a seeded complex
    JSON; a file's own level, when present, is finite, inf or 0."""
    if rng.random() < 0.5:
        name, data = "matrix.json", _matrix(rng)
        argv = ["snf", "--matrix", f"@{name}"]
    else:
        name, data = "complex.json", _complex(rng)
        argv = ["decompose", "--complex", f"@{name}"]
        if rng.random() < 0.3:
            argv += ["--hofer",
                     rng.choice(("1/2", "2", "0", "-1") + BAD_NUMBERS)]
    roll = rng.random()
    if roll < 0.2:
        data = dict(data, trunc=rng.choice(("3", "11/2", "inf", "0", True)))
    elif roll < 0.22 and "differentials" in data:
        data = dict(data, differentials=5)
    return Invocation(argv + _exact_trunc(rng), {name: data})


def corpus(seed: int = 0, count: int = 600) -> list[Invocation]:
    """``count`` invocations drawn from ``seed``."""
    rng = random.Random(seed)
    drawn = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.4:
            drawn.append(_torsion(rng, index))
        elif roll < 0.6:
            drawn.append(_optimize(rng, index))
        elif roll < 0.85:
            drawn.append(_polydisk(rng))
        else:
            drawn.append(_exact(rng))
    return drawn


# -- comparing two source trees -------------------------------------------

def _worker(directory: str, seed: int, count: int) -> None:
    results = []
    for invocation in corpus(seed, count):
        invocation.write(directory)
        try:
            results.append(run_one(invocation.resolved(directory)))
        except Exception as exc:  # an uncaught exception is a result too
            results.append((None, "", f"uncaught {type(exc).__name__}: "
                                      f"{exc}\n"))
    json.dump(results, sys.stdout)


def _results(src: str, directory: str, seed: int, count: int) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", directory,
         "--seed", str(seed), "--count", str(count)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _changed_keys(old: str, new: str) -> list[str]:
    """Report keys (text before the first ':') of the lines that differ."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    keys = {line.split(":")[0].strip() for line in
            set(old_lines).symmetric_difference(new_lines)}
    return sorted(keys)


def compare(old_src: str, new_src: str, seed: int, count: int) -> int:
    """Print every invocation whose result differs; return their count."""
    with tempfile.TemporaryDirectory() as directory:
        old = _results(old_src, directory, seed, count)
        new = _results(new_src, directory, seed, count)
    differ = 0
    for invocation, before, after in zip(corpus(seed, count), old, new):
        if before == after:
            continue
        differ += 1
        (code_a, out_a, err_a), (code_b, out_b, err_b) = before, after
        what = []
        if code_a != code_b:
            what.append(f"exit {code_a} -> {code_b}")
        if out_a != out_b:
            what.append("stdout " + ",".join(_changed_keys(out_a, out_b)))
        if err_a != err_b:
            what.append("stderr")
        print(f"{'; '.join(what)}: {invocation.text()}")
        if err_a != err_b:
            print(f"    old: {err_a.strip()}")
            print(f"    new: {err_b.strip()}")
    print(f"{differ} of {count} invocations differ (seed {seed})")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD_SRC", "NEW_SRC"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=600)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.seed, args.count)
        return 0
    if not args.compare:
        parser.error("pass --compare OLD_SRC NEW_SRC")
    return 1 if compare(*args.compare, args.seed, args.count) else 0


if __name__ == "__main__":
    sys.exit(main())
