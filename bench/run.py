"""Benchmark for weilaff: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload trunc-kernel --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; weilaff is imported from ``src/`` there.
A run builds the workload's operation list from the seed, runs it once as
warm-up, then repeats whole passes until ``--seconds`` have been measured
(at least three).  Every operation's outcome is checked against the one its
construction guarantees.  Each operation counts once in ``attempted``, and
once in ``failed`` if any measured pass gave it a wrong outcome: outcomes
are exact, so both counts follow from the seed and the program, not from how
many passes the host's speed allowed.  The last line printed is one JSON
object:

* ``--trace 0``: the end-to-end metrics, timed with tracing off and scaled
  to a reference speed of the host (see ``end_to_end``);
* ``--trace 1``: the per-layer metrics.  Untraced and traced passes
  alternate on the same code path; the traced ones record a span around
  every call the benchmark makes into a layer.  The tracing overhead is the
  number of spans in a pass times the measured cost of one span.  Spans are
  written to ``.bench_out/`` when the run ends.

Only the standard library is used; the run is one process on one thread,
apart from short-lived interpreters that time ``import weilaff``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("weil", "polymap", "neighborhoods", "iaffine", "report", "dsl", "runner", "selftest", "cli")
SETUP_RUNS = 10  # launches before the passes, and as many after them
IMPORTTIME_RUNS = 3
MIN_PASSES = 3
CALIBRATE_EVERY = 5  # a calibration slot ahead of every fifth operation of a pass
# least time of `calibration` on a quiet 2-vCPU x86-64 VM under CPython 3.11
REFERENCE_CALIBRATION_S = 0.002
# median launch of a bare interpreter (no weilaff import) on the same VM
REFERENCE_BARE_LAUNCH_S = 0.05
# Seeds 1-10 were used while the benchmark was written; confirm a gain on this one too.
HELD_OUT_SEED = 104729


def fresh_interpreter(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)


def setup_seconds(setup, bare) -> None:
    """Launch-to-import times of fresh interpreters, each paired with the
    launch of a bare one that imports no weilaff.  CLOCK_MONOTONIC is one
    clock for every process, so the child's reading after the import
    returns can be compared with the parent's reading before the launch."""
    for _ in range(SETUP_RUNS):
        for imports, out in (("weilaff, time", setup), ("time", bare)):
            start = time.monotonic()
            proc = fresh_interpreter(["-c", f"import {imports}; print(repr(time.monotonic()))"])
            out.append(float(proc.stdout) - start)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*weilaff\.(\w+)$")


def import_ms() -> dict:
    """Median self import time of each library module, from ``-X importtime``.
    A module that ``import weilaff, weilaff.cli`` no longer loads reads 0."""
    samples = {m: [0.0] * IMPORTTIME_RUNS for m in MODULES}
    for run in range(IMPORTTIME_RUNS):
        proc = fresh_interpreter(["-X", "importtime", "-c", "import weilaff, weilaff.cli"])
        lines = [_IMPORTTIME.match(line) for line in proc.stderr.splitlines()]
        if not any(lines):
            raise RuntimeError("-X importtime printed no line for a weilaff module")
        for m in filter(None, lines):
            if m.group(2) in samples:
                samples[m.group(2)][run] = int(m.group(1)) / 1000
    return {m: statistics.median(v) for m, v in samples.items()}


def calibration():
    """Fixed work in the style of the kernel (a dict from monomial tuples to
    Fractions) that calls no weilaff code, so that its time follows the
    speed of the host and nothing else."""
    acc = {}
    for i in range(1, 400):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, 2) * Fraction(3, i % 4 + 1)
    return acc


def run_pass(ops, t, calibrations=None):
    """One pass over the operation list.  Latency covers the operation only;
    its outcome is checked afterwards, untimed.  Given a list, the pass also
    times `calibration` ahead of every CALIBRATE_EVERY-th operation into it."""
    latencies, errors = [], []
    for i, op in enumerate(ops):
        if calibrations is not None and i % CALIBRATE_EVERY == 0:
            start = perf_counter()
            calibration()
            calibrations.append(perf_counter() - start)
        t.op = i
        start = perf_counter()
        try:
            with t.span("bench.op"):
                outcome = op.run(t)
            err = None
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, not a stop
            err = f"uncaught {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - start)
        if err is None:
            err = op.check(outcome)
        errors.append(err)
    return latencies, errors


def tail_rank(n: int) -> float:
    """Highest percentile of an n-operation pass with ten samples beyond it."""
    return (n - 10) / n


def quantile(samples, q: float) -> float:
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Run:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.ops = []
        self.outcomes = []  # per operation, the set of outcomes its measured passes gave

    def build(self, wa, corpus):
        self.ops = workloads.WORKLOADS[self.workload](wa, self.args.seed, corpus, self.args.toy)

    def tally(self, errors):
        """Fold one measured pass's outcomes in."""
        if not self.outcomes:
            self.outcomes = [set() for _ in self.ops]
        for seen, err in zip(self.outcomes, errors):
            seen.add(err)

    def failures(self, malformed=None):
        """(operation, messages) of each operation that failed in some measured
        pass; only the malformed ones, or only the others, if asked."""
        return [(op, sorted(e for e in seen if e is not None))
                for op, seen in zip(self.ops, self.outcomes)
                if seen != {None} and malformed in (None, op.malformed)]

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return len(self.failures())

    def measure(self):
        """Warm-up pass, then measured passes until the time is used up."""
        run_pass(self.ops, spans.Untraced())
        passes, calibrations, used = [], [], 0.0
        while len(passes) < MIN_PASSES or used < self.args.seconds:
            calibrations.append([])
            lat, errors = run_pass(self.ops, spans.Untraced(), calibrations[-1])
            self.tally(errors)
            passes.append(lat)
            used += sum(lat)
        return passes, calibrations

    def measure_traced(self):
        run_pass(self.ops, spans.Untraced())
        plain, traced, tracers, used = [], [], [], 0.0
        while not traced or used < self.args.seconds:
            start = perf_counter()
            run_pass(self.ops, spans.Untraced(replay=True))
            plain.append(perf_counter() - start)
            tracer = spans.Tracer()
            start = perf_counter()
            _, errors = run_pass(self.ops, tracer)
            traced.append(perf_counter() - start)
            self.tally(errors)
            tracers.append(tracer)
            used += plain[-1] + traced[-1]
        return plain, traced, tracers


def least(samples_per_pass):
    """Each position's least sample over the passes."""
    return [min(col) for col in zip(*samples_per_pass)]


def end_to_end(run: Run, passes, calibrations, setup, bare):
    """The timings, at the host's reference speed.

    Each operation's latency is its least over the passes: other tenants of
    a shared host add time in bursts shorter than a pass, and only ever add
    it.  The host's speed also drifts by up to 2x over minutes, which no
    choice of sample escapes, so the timings are scaled by the calibration
    slots, taken the same way: least per slot over the passes, mean over the
    slots, against REFERENCE_CALIBRATION_S.  The scaling cancels the host;
    a change to weilaff leaves the calibration's time as it was.

    A process launch drifts less than that calibration, so ``setup_s`` is
    scaled by the median bare launch instead, against REFERENCE_BARE_LAUNCH_S."""
    n = len(run.ops)
    best = least(passes)
    slowdown = statistics.fmean(least(calibrations)) / REFERENCE_CALIBRATION_S
    q = tail_rank(n)
    raw_ops_per_s, raw_p50, raw_tail = n / sum(best), statistics.median(best), quantile(best, q)
    return {
        "setup_s": (statistics.median(setup) / statistics.median(bare) * REFERENCE_BARE_LAUNCH_S, "s"),
        "ops_per_s": (raw_ops_per_s * slowdown, "1/s"),
        "op_p50_ms": (raw_p50 / slowdown * 1e3, "ms"),
        "op_tail_ms": (raw_tail / slowdown * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "failed_frac": run.failed / run.attempted,
        "tail_percentile": round(100 * q, 2),
        "tail_samples": n,
        "passes": len(passes),
        "host_slowdown": slowdown,
        "unscaled_setup_s": statistics.median(setup),
        "bare_launch_s": statistics.median(bare),
        "unscaled_ops_per_s": raw_ops_per_s,
        "unscaled_op_p50_ms": raw_p50 * 1e3,
        "unscaled_op_tail_ms": raw_tail * 1e3,
        "pass_ops_per_s": [round(n / sum(lat), 3) for lat in passes],
    }


def per_layer(run: Run, plain, traced, tracers, imports):
    """The per-layer metrics, and the exact counts and timings printed beside them."""
    selfs = [tr.self_times() for tr in tracers]
    calls, c = tracers[0].calls(), tracers[0].counts
    if any(tr.calls() != calls or tr.counts != c for tr in tracers):
        raise RuntimeError("count metrics differ between traced passes of one run")

    def busy(*prefixes):
        return statistics.median(
            sum(v for k, v in s.items() if k.startswith(prefixes)) for s in selfs)

    def span_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    malformed = sum(op.malformed for op in run.ops)
    if not malformed:
        raise RuntimeError("the workload has no malformed scenario file")
    searches = calls["neighborhoods.search"]
    nspans = len(tracers[0].spans)
    metrics = {
        "weil.busy_s": (busy("weil."), "s"),
        "weil.calls": (span_calls("weil"), "count"),
        "weil.products": (c["weil.products"], "count"),
        "weil.terms_out": (c["weil.terms_out"], "count"),
        "polymap.busy_s": (busy("polymap."), "s"),
        "polymap.calls": (span_calls("polymap"), "count"),
        "neighborhoods.busy_s": (busy("neighborhoods."), "s"),
        "neighborhoods.model_s": (busy("neighborhoods.model"), "s"),
        "neighborhoods.search_s": (busy("neighborhoods.search"), "s"),
        "neighborhoods.searches": (searches, "count"),
        "iaffine.busy_s": (busy("iaffine."), "s"),
        "iaffine.calls": (span_calls("iaffine"), "count"),
        "dsl.parse_s": (busy("dsl.parse"), "s"),
        "dsl.bytes": (c["dsl.bytes"], "count"),
        "runner.build_env_s": (busy("runner.build_env"), "s"),
        "runner.run_s": (busy("runner.run"), "s"),
        "report.emit_s": (busy("report.emit"), "s"),
        "cli.busy_s": (busy("cli."), "s"),
        "cli.malformed_exit2_rate": (1 - len(run.failures(malformed=True)) / malformed, "ratio"),
        "bench.self_s": (busy("bench."), "s"),
        "trace.overhead_s": (nspans * spans.span_cost(), "s"),
    }
    for m in MODULES:
        metrics[f"{m}.import_ms"] = (imports[m], "ms")
    layers = {name.split(".")[0] for name in calls}
    extra = {
        # fixed by the construction of the inputs: any change is a correctness change
        "neighborhoods.witness_rate": c["neighborhoods.witnesses"] / searches,
        "iaffine.entries": c["iaffine.entries"],
        "spans_per_pass": nspans,
        "traced_minus_plain_s": statistics.median(t - p for t, p in zip(traced, plain)),
        "traced_passes": len(traced), "plain_pass_s": plain, "traced_pass_s": traced,
        "layer_self_s": {layer: busy(layer + ".") for layer in layers},
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help=f"input seed; {HELD_OUT_SEED} is held out for confirming gains")
    ap.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy-size operation lists (harness self-check)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weilaff" / "__init__.py").is_file():
        print(f"error: no weilaff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    fresh_interpreter(["-c", "import weilaff"])  # byte-compile once, untimed
    imports = import_ms() if args.trace else None
    sys.path.insert(0, str(ROOT / "src"))
    import weilaff
    import weilaff.cli  # noqa: F401 - the scenario operations call weilaff.cli.main

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    corpus_dir = Path(tempfile.mkdtemp(prefix=f"corpus-{args.workload}-", dir=out_dir))
    run = Run(args)
    try:
        run.build(weilaff, workloads.Corpus(weilaff, corpus_dir))
        if args.trace:
            plain, traced, tracers = run.measure_traced()
            metrics, extra = per_layer(run, plain, traced, tracers, imports)
            records = [dict(rec, **{"pass": i}) for i, tr in enumerate(tracers) for rec in tr.records()]
            with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": records}, fh)
        else:
            setup, bare = [], []
            setup_seconds(setup, bare)
            passes, calibrations = run.measure()
            setup_seconds(setup, bare)
            metrics, extra = end_to_end(run, passes, calibrations, setup, bare)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)

    report(args, run, metrics, extra)
    print(json.dumps({
        "correct": not run.failures(malformed=False),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, run, metrics, extra) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops/pass {len(run.ops)}  attempted {run.attempted}  failed {run.failed}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<30} {v:>14.6g} {u}")
    for k, v in extra.items():
        if not isinstance(v, dict):
            print(f"  {k:<30} {v if isinstance(v, list) else format(v, '>14.6g')}")
    if args.trace:
        layers = extra["layer_self_s"]
        total = sum(layers.values())
        print("  self-time share per layer (median traced pass):")
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {k:<14} {100 * v / total:6.2f}%")
    for op, messages in run.failures():
        print(f"  FAILED {op.label}: {'; '.join(messages)}")


if __name__ == "__main__":
    sys.exit(main())
