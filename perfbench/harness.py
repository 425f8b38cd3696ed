"""Operations, rounds and the timed loop shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable



@dataclass
class Op:
    """One operation: ``call`` runs it, ``check`` compares its output
    with an oracle.  ``known_fault`` marks the one operation expected to
    fail until the program's fault is mended; ``argv`` holds the CLI
    arguments of an operation that is one process."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: bool = False
    argv: tuple = ()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)   # failures not expected

    @property
    def correct(self) -> bool:
        return not self.wrong


def execute(op: Op, tally: Tally, outputs: list | None = None,
            tracer=None) -> float:
    """Run and check one operation; returns its wall time in seconds.
    Only ``op.call`` is timed; with a tracer it runs inside an ``op.<kind>``
    span.  ``outputs``, when given, collects the output."""
    started = time.perf_counter()
    try:
        if tracer is None:
            output = op.call()
        else:
            with tracer.span(f"op.{op.kind}"):
                output = op.call()
        error = None
    except Exception as exc:  # an operation that raises has failed
        output, error = None, exc
    elapsed = time.perf_counter() - started
    if outputs is not None:
        outputs.append(output)
    ok = error is None and bool(op.check(output))
    tally.attempted += 1
    if not ok:
        tally.failed += 1
        if not op.known_fault:
            tally.wrong.append(f"{op.kind} {op.label}: "
                               + (repr(error) if error else "wrong output"))
    return elapsed


def run_round(ops: list[Op], tally: Tally, times: dict,
              outputs: list | None = None, tracer=None) -> float:
    """Run every operation once, in order; returns the round's wall time."""
    started = time.perf_counter()
    for op in ops:
        times.setdefault(op.kind, []).append(
            execute(op, tally, outputs, tracer))
    return time.perf_counter() - started


def run_timed(ops: list[Op], seconds: float, min_rounds: int = 1):
    """Whole rounds until ``seconds`` have passed (at least
    ``min_rounds``).  Returns (per-kind times, phase seconds, tally)."""
    tally = Tally()
    times: dict = {}
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        run_round(ops, tally, times)
        rounds += 1
    return times, time.perf_counter() - started, tally


def warm_up(ops: list[Op], kinds, tally: Tally) -> None:
    """One untimed run of the first operation of each of ``kinds``."""
    seen = set()
    for op in ops:
        if op.kind in kinds and op.kind not in seen:
            seen.add(op.kind)
            execute(op, tally)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_probe(module: str) -> tuple[float, int]:
    """Import ``module`` in a fresh interpreter; returns the import's own
    time in ms and the size of sys.modules after it."""
    code = ("import sys, time\n"
            "started = time.perf_counter()\n"
            f"import {module}\n"
            "print(1000 * (time.perf_counter() - started), len(sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    ms, count = done.stdout.split()
    return float(ms), int(count)


def set_up(workload, seed: int, tally: Tally):
    """Set up ``workload.SETUP_REPEATS`` times: a fresh-interpreter import
    of the workload's modules, input generation with its oracle answers,
    and a warm-up.  Returns the last round of operations and the median
    set-up time in seconds."""
    durations = []
    ops = None
    for _ in range(workload.SETUP_REPEATS):
        started = time.perf_counter()
        import_probe(workload.IMPORTS)
        ops = workload.prepare(seed)
        warm_up(ops, workload.WARM_UP, tally)
        durations.append(time.perf_counter() - started)
    return ops, statistics.median(durations)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_ms(values) -> float:
    return 1000.0 * statistics.median(values)
