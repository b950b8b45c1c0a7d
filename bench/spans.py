"""Spans around the benchmark's own calls into each weilaff layer.

A span name is ``<layer>.<call>``, the layer being the weilaff module the
call enters.  Spans live in memory and are written out once, at the end of
a run; the library itself is not instrumented.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Untraced:
    """Stand-in used while timing: calls go straight through.  With
    ``replay`` set, the operations take the same stage-by-stage path as a
    traced pass, so that the two differ only by the spans."""

    op = None

    def __init__(self, replay=False):
        self.replay = replay

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()

    def count(self, key, n=1):
        pass


class Tracer:
    """Records ``[name, start, end, parent index, op id]`` per span, plus
    counters kept at the same boundaries."""

    replay = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            result = fn(*args)
        observe(self.counts, name, result)
        return result

    def count(self, key, n=1):
        self.counts[key] += n

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def records(self) -> list:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, rec)) for rec in self.spans]


def span_cost(batch=2000, batches=7) -> float:
    """Seconds one span costs a traced pass: the median over batches of
    recording a span around a call that does nothing."""
    noop = lambda: None  # noqa: E731
    costs = []
    for _ in range(batches):
        tracer = Tracer()
        start = perf_counter()
        for _ in range(batch):
            tracer.call("bench.probe", noop)
        costs.append((perf_counter() - start) / batch)
    return statistics.median(costs)


def _terms(value) -> int:
    if isinstance(value, (list, tuple)):
        return sum(_terms(v) for v in value)
    return len(value.coeffs)


def observe(counts: Counter, name: str, result) -> None:
    """Counters read off a layer call's result at the boundary."""
    if name == "weil.mul":
        counts["weil.products"] += 1
    if name.startswith("weil."):
        counts["weil.terms_out"] += _terms(result)
    elif name == "neighborhoods.search":
        counts["neighborhoods.witnesses"] += result is not None
    elif name.startswith("iaffine."):
        counts["iaffine.entries"] += len(result.entries)
