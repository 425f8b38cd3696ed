"""Spans and counters around torsionlab's public functions, from outside.

``Tracer.install`` replaces each target function with a wrapper in every
``torsionlab`` module namespace that holds it, and ``uninstall`` puts
the originals back.  Timed targets record a span (id, name, start, end,
parent id, size attribute) in memory; counted targets, the hot Novikov
ring operations, only bump a counter.  A target the program no longer
has is skipped, so the tracer survives refactors of the code it wraps.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name.  Dotted attributes are methods.
TIMED = {
    ("torsionlab.novikov", "divide_exact"): "novikov.divide",
    ("torsionlab.valmat", "smith_normal_form"): "valmat.snf",
    ("torsionlab.valmat", "decompose"): "valmat.decompose",
    ("torsionlab.toric", "floer_cohomology"): "toric.floer",
    ("torsionlab.toric", "torsion_threshold_at"): "toric.threshold_at",
    ("torsionlab.toric", "optimize_threshold"): "toric.optimize",
    ("torsionlab.polydisk", "polydisk_bound"): "polydisk.bound",
    ("torsionlab.hamlab.fields", "HamiltonianField.__init__"): "fields.compile",
    ("torsionlab.hamlab.fields", "HamiltonianField.time_reversed"): "fields.compile",
    ("torsionlab.hamlab.fields", "HamiltonianField.value"): "fields.eval",
    ("torsionlab.hamlab.fields", "HamiltonianField.gradient"): "fields.eval",
    ("torsionlab.hamlab.fields", "HamiltonianField.vector_field"): "fields.eval",
    ("torsionlab.hamlab.fields", "hofer_norms"): "fields.hofer",
    ("torsionlab.hamlab.flow", "transport_to_zero"): "flow.transport",
    ("torsionlab.hamlab.flow", "transport_from_zero"): "flow.transport",
    ("torsionlab.hamlab.strips", "energy_functional"): "strips.quadrature",
    ("torsionlab.hamlab.strips", "pullback_area"): "strips.quadrature",
    ("torsionlab.hamlab.strips", "integrate_grid"): "strips.quadrature",
    ("torsionlab.hamlab.strips", "line_integral"): "strips.quadrature",
}

COUNTED = {
    ("torsionlab.novikov", "NovikovElement.__mul__"): "novikov.mul",
    ("torsionlab.novikov", "NovikovElement.__rmul__"): "novikov.mul",
    ("torsionlab.novikov", "NovikovElement.__add__"): "novikov.addsub",
    ("torsionlab.novikov", "NovikovElement.__radd__"): "novikov.addsub",
    ("torsionlab.novikov", "NovikovElement.__sub__"): "novikov.addsub",
    ("torsionlab.novikov", "NovikovElement.__rsub__"): "novikov.addsub",
    ("torsionlab.novikov", "NovikovElement.__init__"): "novikov.elements",
}


def _size(name: str, args, kwargs) -> int:
    """The size attribute of a span: matrix cells for a normal form,
    evaluated points for a field evaluation, 0 otherwise."""
    if name == "valmat.snf":
        return args[0].rows * args[0].cols
    if name == "fields.eval":
        points = args[2] if len(args) > 2 else kwargs.get("points")
        size = getattr(points, "size", None)
        if size is None:
            return 0
        return size // args[0].space.dim
    return 0


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, size)
        self.counts: Counter = Counter()
        self.pivots = 0                # normal-form pivots found
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- recording --------------------------------------------------------

    def span(self, name: str, size: int = 0):
        return _Span(self, name, size)

    def _timed(self, name: str, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            size = _size(name, args, kwargs)
            if name == "valmat.snf":
                self.pivots += len(result.pivot_valuations)
            spans.append((span_id, name, start, end, parent, size))
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for (module_name, attr), name in table.items():
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = (owner.__dict__.get(method)
                                if owner is not None else None)
                    if original is None:
                        continue
                    setattr(owner, method, make(name, original))
                    self._patches.append((owner, method, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = make(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("torsionlab") or mod is None:
                        continue
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, total ms, self ms and size of the outermost
        spans.  A span nested directly in a span of the same name is
        merged into it; a merged span's self time is its duration minus
        the time of its children of other names."""
        by_id = {s[0]: s for s in self.spans}

        def merged(span_id: int) -> int:
            span = by_id[span_id]
            while span[4] in by_id and by_id[span[4]][1] == span[1]:
                span = by_id[span[4]]
            return span[0]

        covered: Counter = Counter()
        for span_id, name, start, end, parent, size in self.spans:
            if parent in by_id and by_id[parent][1] != name:
                covered[merged(parent)] += end - start
        out: dict = {}
        for span_id, name, start, end, parent, size in self.spans:
            if parent in by_id and by_id[parent][1] == name:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                          "self_ms": 0.0, "size": 0})
            duration = end - start
            entry["calls"] += 1
            entry["total_ms"] += 1000 * duration
            entry["self_ms"] += 1000 * (duration - covered[span_id])
            entry["size"] += size
        return out

    def within(self, inner: str, outer: str) -> dict:
        """Calls and size of ``inner`` spans that have an ``outer`` span
        among their ancestors."""
        by_id = {s[0]: s for s in self.spans}
        calls = size = 0
        for span in self.spans:
            if span[1] != inner:
                continue
            parent = span[4]
            while parent in by_id:
                if by_id[parent][1] == outer:
                    calls += 1
                    size += span[5]
                    break
                parent = by_id[parent][4]
        return {"calls": calls, "size": size}

    def write(self, path: str, label: str) -> None:
        """Append the counters, then one JSON list per span:
        [id, name, start, end, parent id (-1 for none), size]."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"phase": label,
                                     "counts": dict(self.counts),
                                     "pivots": self.pivots}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    """A span opened by the benchmark itself, around one operation."""

    def __init__(self, tracer: Tracer, name: str, size: int):
        self.tracer = tracer
        self.name = name
        self.size = size

    def __enter__(self):
        tracer = self.tracer
        self.id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append((self.id, self.name, self.start, end,
                                  self.parent, self.size))
        return False
