"""Command line interface.

Subcommands wrap the library layers: torsion and optimize for toric
fibers, polydisk for displacement bounds, snf and decompose for raw
matrix work, verify for the numerical suites.  Reports render as plain
text or JSON (--json); every numeric value carries a provenance marker,
either exact or quadrature(tol).  Output on stdout is byte-identical
across runs with the same inputs and seed; timing goes to stderr.

Exit codes: 0 success, 2 violated constraints or malformed input,
3 exhausted precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

from .errors import PrecisionExhausted, TorsionLabError
from .novikov import to_text
from .polydisk import MODES, PolydiskSpec, polydisk_bound
from .rationals import as_level, format_level, is_infinite, rational
from .toric import (boundary_covector, cylinder_factor, facet_areas,
                    floer_cohomology, model_from_json,
                    optimize_threshold, potential, product,
                    projective_factor, sphere_factor)
from .valmat import (complex_from_json, decompose, b_count,
                     intersection_bound, matrix_from_json,
                     smith_normal_form, torsion_threshold)


def exact_number(value) -> dict:
    """An exact rational (or inf) with both renderings."""
    return {
        "fraction": format_level(value),
        "decimal": None if is_infinite(value) else float(value),
        "provenance": "exact",
    }


def measured(value, tol) -> dict:
    """A float produced by quadrature or sampling at the given tolerance."""
    return {
        "value": None if value is None else float(value),
        "provenance": f"quadrature({tol:g})",
    }


class Report:
    """Ordered key/value payload with text and JSON renderings."""

    def __init__(self, command: str):
        self.data: dict = {"command": command}

    def add(self, key: str, value) -> "Report":
        self.data[key] = value
        return self

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"

    def to_text(self) -> str:
        lines: list[str] = []
        for key, value in self.data.items():
            lines.extend(_text_lines(key, value))
        return "\n".join(lines) + "\n"


def _scalar(value) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if value is None:
        return "-"
    return str(value)


def _is_number_dict(value) -> bool:
    return isinstance(value, dict) and "provenance" in value


def _number_text(value: dict) -> str:
    if value["provenance"] == "exact":
        if value["decimal"] is None:
            return "inf (exact)"
        return f"{value['fraction']} (= {value['decimal']:g}, exact)"
    return f"{_scalar(value['value'])} ({value['provenance']})"


def _text_lines(key: str, value, indent: str = "") -> list[str]:
    if _is_number_dict(value):
        return [f"{indent}{key}: {_number_text(value)}"]
    if isinstance(value, dict):
        return [f"{indent}{key}: {json.dumps(value)}"]
    if isinstance(value, list):
        if all(_is_number_dict(v) for v in value) and value:
            body = ", ".join(v["fraction"] if v["provenance"] == "exact"
                             else _scalar(v["value"]) for v in value)
            return [f"{indent}{key}: {body} (exact)"]
        if all(isinstance(v, (str, int, float, bool)) for v in value):
            return [f"{indent}{key}: " + ", ".join(_scalar(v)
                                                   for v in value)]
        lines = [f"{indent}{key}:"]
        for item in value:
            if isinstance(item, dict):
                body = ", ".join(f"{k}={_scalar(v)}"
                                 for k, v in item.items())
            elif isinstance(item, list):
                body = ", ".join(_scalar(v) for v in item)
            else:
                body = _scalar(item)
            lines.append(f"{indent}  - {body}")
        return lines
    return [f"{indent}{key}: {_scalar(value)}"]


def _number(text, flag: str, level: bool = False):
    """The value of a rational flag, or of a level (p/q or inf) when
    ``level``; None when the flag is absent.  A malformed value raises
    ValueError naming the flag."""
    if text is None:
        return None
    try:
        return as_level(text) if level else rational(text)
    except (ValueError, ZeroDivisionError):
        kind = "a level p/q or inf" if level else "a rational p/q"
        raise ValueError(f"{flag} needs {kind}; got {text!r}") from None


def _parse_trunc(text):
    """The --trunc level, or None when absent.  A level at or below 0
    would hide every term and make each answer look free, so it is
    refused."""
    level = _number(text, "--trunc", level=True)
    if level is not None and level <= 0:
        raise ValueError(f"--trunc needs a level above 0; got {text!r}")
    return level


def _parse_fiber(text: str):
    coords = [_number(tok.strip(), "--fiber") for tok in text.split(",")
              if tok.strip()]
    if not coords:
        raise ValueError("the fiber needs at least one coordinate")
    return tuple(coords)


def _inline_model(text: str):
    factors = []
    for token in text.split("x"):
        parts = token.strip().split(":")
        where = f"--model factor {token.strip()!r}"
        if parts[0] == "sphere" and len(parts) == 2:
            factors.append(sphere_factor(_number(parts[1], where)))
        elif parts[0] == "cp" and len(parts) == 3:
            try:
                k = int(parts[1])
            except ValueError:
                raise ValueError(f"{where} needs an integer k; "
                                 f"got {parts[1]!r}") from None
            factors.append(projective_factor(k, _number(parts[2], where)))
        elif parts[0] == "cylinder" and len(parts) == 1:
            factors.append(cylinder_factor())
        else:
            raise ValueError(f"cannot read factor {token!r}; expected "
                             "sphere:AREA, cp:K:SIZE, or cylinder")
    return product(*factors)


def _load_model(text: str):
    if os.path.isfile(text):
        with open(text, encoding="utf-8") as handle:
            return model_from_json(json.load(handle))
    return _inline_model(text)


def _cmd_torsion(args) -> tuple[Report, int]:
    model = _load_model(args.model)
    fiber = _parse_fiber(args.fiber)
    if len(fiber) != model.dim:
        raise ValueError(f"--fiber has {len(fiber)} coordinates; the model "
                         f"has dimension {model.dim}")
    areas = facet_areas(model, fiber)
    covector = boundary_covector(model, fiber)
    decomposition = floer_cohomology(model, fiber)
    threshold = torsion_threshold(decomposition)
    report = Report("torsion")
    report.add("model", model.description)
    report.add("fiber", [str(c) for c in fiber])
    report.add("facet_areas", [exact_number(a) for a in areas])
    report.add("potential", to_text(potential(model, fiber)))
    report.add("covector", [to_text(w) for w in covector])
    report.add("betti", decomposition.betti)
    report.add("torsion", [exact_number(v) for v in decomposition.torsion])
    report.add("threshold", exact_number(threshold))
    report.add("non_displaceable", bool(is_infinite(threshold)))
    return report, 0


def _cmd_polydisk(args) -> tuple[Report, int]:
    spec = PolydiskSpec(
        mode=args.mode,
        S=_number(args.S, "--S"),
        n=args.n,
        k=args.k,
        eps=_number(args.eps, "--eps"),
        eps_prime=_number(args.eps2, "--eps2"),
        lam=_number(args.lam, "--lambda"),
    )
    data = polydisk_bound(spec, allow_extrapolation=args.extrapolate)
    report = Report("polydisk")
    for key in ("mode", "n", "k", "S", "eps", "eps_prime", "lambda"):
        report.add(key, data[key])
    report.add("bound", exact_number(as_level(data["bound"])))
    report.add("certified", data["certified"])
    report.add("status", data["status"])
    report.add("claim", data["claim"])
    report.add("constraints", data["constraints"])
    report.add("containments", data["containments"])
    report.add("fiber", data["fiber"])
    report.add("model", data["model"])
    return report, 0


def _cmd_snf(args) -> tuple[Report, int]:
    with open(args.matrix, encoding="utf-8") as handle:
        data = json.load(handle)
    matrix = matrix_from_json(data, trunc=_parse_trunc(args.trunc))
    form = smith_normal_form(matrix)
    report = Report("snf")
    report.add("rows", matrix.rows)
    report.add("cols", matrix.cols)
    report.add("rank", form.rank)
    report.add("pivot_valuations",
               [exact_number(v) for v in form.pivot_valuations])
    report.add("diagonal", [[to_text(e) for e in row]
                            for row in form.diagonal.entries])
    return report, 0


def _cmd_decompose(args) -> tuple[Report, int]:
    norm = _number(args.hofer, "--hofer")
    if norm is not None and norm <= 0:
        raise ValueError(f"--hofer needs a rational above 0; "
                         f"got {args.hofer!r}")
    with open(args.complex, encoding="utf-8") as handle:
        data = json.load(handle)
    complex_ = complex_from_json(data, trunc=_parse_trunc(args.trunc))
    decomposition = decompose(complex_)
    threshold = torsion_threshold(decomposition)
    report = Report("decompose")
    report.add("ranks", list(complex_.ranks))
    report.add("betti", decomposition.betti)
    report.add("torsion", [exact_number(v)
                           for v in decomposition.torsion])
    report.add("threshold", exact_number(threshold))
    if norm is not None:
        report.add("hofer_norm", str(norm))
        report.add("surviving_torsion", b_count(decomposition, norm))
        report.add("intersection_bound",
                   intersection_bound(decomposition, norm))
    return report, 0


def _cmd_optimize(args) -> tuple[Report, int]:
    model = _load_model(args.model)
    cap = _number(args.cap, "--cap")
    if cap is not None and cap <= 0:
        raise ValueError(f"--cap needs a rational above 0; got {args.cap!r}")
    search = optimize_threshold(model, cap=cap)
    report = Report("optimize")
    report.add("model", model.description)
    report.add("fiber", [exact_number(c) for c in search.fiber])
    report.add("value", exact_number(search.value))
    report.add("non_displaceable", search.non_displaceable)
    return report, 0


def _cmd_verify(args) -> tuple[Report, int]:
    if args.seed < 0:
        raise ValueError("--seed needs an integer of at least 0; "
                         f"got {args.seed}")
    if args.tol is not None and not (math.isfinite(args.tol)
                                     and args.tol > 0):
        raise ValueError("--tol needs a finite number above 0; "
                         f"got {args.tol:g}")
    # hamlab pulls in sympy and numpy; only this subcommand needs them
    from .hamlab import run_suite
    result = run_suite(args.suite, seed=args.seed,
                       resolution=args.resolution, tol=args.tol)
    report = Report("verify")
    report.add("suite", result["suite"])
    report.add("cases", result["cases"])
    report.add("max_discrepancy",
               measured(result["max_discrepancy"], result["tol"]))
    order = result["convergence_order"]
    report.add("convergence_order",
               None if order is None else measured(order, result["tol"]))
    report.add("passed", result["passed"])
    report.add("seed", result["seed"])
    report.add("resolution", result["resolution"])
    report.add("tol", result["tol"])
    return report, 0 if result["passed"] else 2


_HANDLERS = {
    "torsion": _cmd_torsion,
    "polydisk": _cmd_polydisk,
    "snf": _cmd_snf,
    "decompose": _cmd_decompose,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
}


def _default_seed() -> int:
    return int(os.environ.get("TORSIONLAB_SEED", "0"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Torsion thresholds, displacement bounds, and "
                    "numerical identity checks.")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torsion", help="Floer torsion data of a toric fiber")
    p.add_argument("--model", required=True,
                   help="JSON file or inline factors, e.g. "
                        "sphere:3/2xsphere:5xsphere:5")
    p.add_argument("--fiber", required=True,
                   help="comma separated rationals, e.g. 3/4,2,2")

    p = sub.add_parser("polydisk",
                       help="displacement energy bound for a polydisk")
    p.add_argument("--mode", required=True, choices=list(MODES))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int)
    p.add_argument("--S", required=True, help="half-width p/q")
    p.add_argument("--eps")
    p.add_argument("--eps2")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--extrapolate", action="store_true",
                   help="report an uncertified bound outside the "
                        "size hypothesis")

    p = sub.add_parser("snf", help="diagonalize a matrix over the "
                                   "bounded Novikov ring")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--trunc")

    p = sub.add_parser("decompose",
                       help="cohomology of a cochain complex")
    p.add_argument("--complex", required=True, help="complex JSON file")
    p.add_argument("--trunc")
    p.add_argument("--hofer",
                   help="also bound intersections under this Hofer norm")

    p = sub.add_parser("optimize",
                       help="maximize the torsion threshold over fibers")
    p.add_argument("--model", required=True)
    p.add_argument("--cap", help="inclusive cap p/q for unbounded directions")

    p = sub.add_parser("verify", help="run a numerical verification suite")
    p.add_argument("--suite", required=True,
                   choices=["energy", "actiondiff", "hofer", "hat"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    return parser


def run(argv=None) -> int:
    """Parse arguments, execute, print the report; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a separate value such as -1/3 for an option, since
    # only negative integers and decimals look like numbers to it
    for i in reversed(range(1, len(argv))):
        if argv[i - 1].startswith("--") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "verify":
        args.seed = _default_seed()
    started = time.perf_counter()
    try:
        report, code = _HANDLERS[args.command](args)
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except TorsionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
