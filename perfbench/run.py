"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload exact-core --seed 1 --seconds 22 --trace 0

Workloads: cli-exact, exact-core, hamlab-suites (see README.md).  With
``--trace 0`` it sets up, measures whole rounds for ``--seconds`` and
prints the end-to-end metrics.  With ``--trace 1`` it runs three rounds
of every workload (untraced, traced, untraced), a fixed amount of work
so that counts repeat exactly, and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object.  Every output is
checked against the oracles in oracles.py; the program is imported from
./src and nothing under it is changed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time

import oracles
from harness import (Tally, execute, import_probe, median_ms, peak_rss_mb,
                     run_round, run_timed, set_up, warm_up)

WORKLOADS = ("cli-exact", "exact-core", "hamlab-suites")
TRACE_DIR = os.path.join("perfbench", "out")


def _module(workload: str):
    return importlib.import_module(workload.replace("-", "_"))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    module = _module(workload)
    setup_tally = Tally()
    ops, setup_s = set_up(module, seed, setup_tally)
    times, phase, tally = run_timed(ops, seconds, module.MIN_ROUNDS)
    every = [t for kind in times.values() for t in kind]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(tally.attempted / phase, "1/s"),
        "op_p50_ms": _metric(median_ms(every), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(children=workload == "cli-exact"),
                               "MB"),
    }
    tally.wrong.extend(setup_tally.wrong)
    return {"tally": tally, "metrics": metrics}


def _traced_rounds(workload: str, seed: int, tracer_cls):
    """Three rounds on the same inputs after a warm-up: untraced (its
    per-kind times are reported), traced, and untraced again.  The
    overhead compares the last two, which see the same caches (sympy
    remembers the first round's expressions).  All three must give the
    same outputs.  Returns (tally, per-kind times, overhead %, tracer,
    the first round as (operation, wall seconds, output) triples)."""
    module = _module(workload)
    tally = Tally()
    warm = Tally()
    warm_up(module.prepare(seed), module.WARM_UP, warm)
    tally.wrong.extend(warm.wrong)
    first_ops = module.prepare(seed)
    first_out, traced_out, last_out = [], [], []
    walls = [execute(op, tally, first_out) for op in first_ops]
    times: dict = {}
    for op, wall in zip(first_ops, walls):
        times.setdefault(op.kind, []).append(wall)
    tracer = tracer_cls()
    tracer.install()
    try:
        traced = run_round(module.prepare(seed), tally, {}, traced_out,
                           tracer)
    finally:
        tracer.uninstall()
    plain = run_round(module.prepare(seed), tally, {}, last_out)
    if not first_out == traced_out == last_out:
        tally.wrong.append(f"{workload}: traced outputs differ")
    return (tally, times, 100.0 * (traced / plain - 1.0), tracer,
            list(zip(first_ops, walls, first_out)))


def per_layer(seed: int, label: str) -> dict:
    from tracer import Tracer
    import cli_exact

    # import everything first, so the tracer patches every namespace
    import torsionlab.cli  # noqa: F401
    import torsionlab.hamlab  # noqa: F401

    total = Tally()
    metrics: dict = {}
    summaries = {}
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"trace-{label}-{seed}.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    for workload in WORKLOADS:
        tally, times, overhead, tracer, first_round = _traced_rounds(
            workload, seed, Tracer)
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.wrong.extend(tally.wrong)
        tracer.write(trace_path, workload)
        summaries[workload] = (tracer, tracer.summary(), times, first_round)
        metrics[f"trace.overhead_pct.{workload}"] = _metric(overhead, "%")

    # cli: a fresh interpreter's import, and the processes' split
    probes = [import_probe("torsionlab.cli") for _ in range(3)]
    metrics["cli.import_ms"] = _metric(
        statistics.median(ms for ms, _ in probes), "ms")
    metrics["cli.modules_loaded"] = _metric(
        int(statistics.median(n for _, n in probes)), "count")
    handler, startup = [], []
    for op, wall, (_, stdout) in summaries["cli-exact"][3]:
        seconds, code, out = cli_exact.in_process(op.argv)
        if code != 0 or out != stdout:
            total.wrong.append(f"cli in process differs: {op.label}")
        handler.append(seconds)
        startup.append(wall - seconds)
    metrics["cli.handler_ms"] = _metric(median_ms(handler), "ms")
    metrics["cli.startup_ms"] = _metric(median_ms(startup), "ms")
    cli_exact.clean_up()

    tracer, summary, times, _ = summaries["exact-core"]

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    searches = get("toric.optimize", "calls")
    metrics.update({
        "novikov.mul_calls": _metric(tracer.counts["novikov.mul"], "count"),
        "novikov.addsub_calls": _metric(tracer.counts["novikov.addsub"],
                                        "count"),
        "novikov.div_calls": _metric(get("novikov.divide", "calls"), "count"),
        "novikov.div_ms": _metric(get("novikov.divide", "total_ms"), "ms"),
        "novikov.elements_built": _metric(tracer.counts["novikov.elements"],
                                          "count"),
        "valmat.snf_calls": _metric(get("valmat.snf", "calls"), "count"),
        "valmat.snf_ms": _metric(get("valmat.snf", "total_ms"), "ms"),
        "valmat.snf_cells": _metric(get("valmat.snf", "size"), "count"),
        "valmat.snf_pivots": _metric(tracer.pivots, "count"),
        "valmat.decompose_ms": _metric(get("valmat.decompose", "total_ms"),
                                       "ms"),
        "toric.floer_ms": _metric(get("toric.floer", "self_ms"), "ms"),
        "toric.koszul_cells": _metric(
            tracer.within("valmat.snf", "toric.floer")["size"], "count"),
        "toric.optimize_ms": _metric(get("toric.optimize", "total_ms"), "ms"),
        "toric.optimize_candidates": _metric(
            tracer.within("toric.threshold_at", "toric.optimize")["calls"]
            / max(searches, 1), "count"),
        "polydisk.bound_ms": _metric(get("polydisk.bound", "total_ms"), "ms"),
    })
    for kind, values in times.items():
        metrics[f"exact-core.op_ms.{kind}"] = _metric(median_ms(values), "ms")

    tracer, summary, times, _ = summaries["hamlab-suites"]
    metrics.update({
        "hamlab.fields.compile_calls": _metric(get("fields.compile", "calls"),
                                               "count"),
        "hamlab.fields.compile_ms": _metric(get("fields.compile", "total_ms"),
                                            "ms"),
        "hamlab.fields.eval_points": _metric(get("fields.eval", "size"),
                                             "count"),
        "hamlab.fields.eval_ms": _metric(get("fields.eval", "total_ms"), "ms"),
        "hamlab.flow.transport_ms": _metric(get("flow.transport", "self_ms"),
                                            "ms"),
        "hamlab.strips.quadrature_ms": _metric(
            get("strips.quadrature", "self_ms"), "ms"),
        "hamlab.fields.hofer_ms": _metric(get("fields.hofer", "total_ms"),
                                          "ms"),
    })
    for kind, values in times.items():
        metrics[f"hamlab-suites.op_ms.{kind}"] = _metric(median_ms(values),
                                                         "ms")
    return {"tally": total, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "torsionlab", "__init__.py")):
        print("error: run from the root of a torsionlab checkout "
              "(src/torsionlab is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    oracles.self_check()

    started = time.perf_counter()
    if args.trace:
        result = per_layer(args.seed, args.workload)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
        if args.workload == "cli-exact":
            _module("cli-exact").clean_up()
    tally = result["tally"]
    for line in tally.wrong:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} "
          f"failed, {time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps({"correct": tally.correct,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
