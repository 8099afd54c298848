"""Benchmark of isomean's framed means, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One caller runs a closed loop: each operation starts when the previous
one has returned.  The run is made of whole rounds (one operation of every
kind, see ``workloads.py``) and goes on until ``--seconds`` have passed and
the workload's minimum number of rounds is done.  Every result is then
checked against references computed apart from the library.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds with every layer wrapped (``tracer.py``) and prints the
per-layer metrics, plus the tracing overhead against the same rounds run
untraced in a separate interpreter.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


def _import_library():
    """Put the checkout's src/ first on the path and import isomean from it."""
    if not (SRC / "isomean" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no isomean package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import isomean

    if Path(isomean.__file__).resolve().parent != SRC / "isomean":
        raise SystemExit(f"perfbench: imported isomean from {isomean.__file__}, not from {SRC}")


def setup(workload: str, tracer=None):
    """Import, build the workload's fixed inputs and warm up: (workload, ctx, seconds)."""
    start = time.perf_counter()
    _import_library()
    if tracer is not None:
        tracer.install()
    import workloads

    wl = workloads.WORKLOADS[workload]
    ctx = wl.context()
    for kind, params in wl.warmup_ops():
        kind.call(ctx, *params)
    return wl, ctx, time.perf_counter() - start


class Recorder:
    """Runs operations and keeps what the checks and the metrics need."""

    def __init__(self, wl, ctx):
        self.wl, self.ctx = wl, ctx
        self.latencies: list[float] = []
        self.round_medians: list[float] = []
        self.batch_rates: list[float] = []
        self.round_seconds: list[float] = []
        self.kept: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.unexpected: set[str] = set()  # kinds that failed without an expected error

    def _failed(self, kind, error):
        self.failed += 1
        self.errors.setdefault(
            kind.name, "".join(traceback.format_exception_only(type(error), error)).strip()
        )

    def run_round(self, seed: int, r: int):
        ops = self.wl.round_ops(seed, r)
        clock = time.perf_counter
        done = 0
        untimed = 0.0
        first = len(self.latencies)
        begin = clock()
        for kind, params in ops:
            t0 = clock()
            try:
                result = kind.call(self.ctx, *params)
                error = None
            except Exception as exc:  # every failure is counted, none stops the run
                result, error = None, exc
            t1 = clock()
            self.attempted += 1
            if kind.expect is not None:
                # An operation whose right answer is an error is counted
                # but left out of every timing, so mending a fault there
                # moves no rate and no latency.
                untimed += t1 - t0
                if error is None:
                    self.kept.append((kind, params, f"returned {result!r}"))
                elif type(error).__name__ == kind.expect:
                    self.kept.append((kind, params, kind.expect))
                else:
                    self._failed(kind, error)
                continue
            if error is not None:
                self._failed(kind, error)
                self.unexpected.add(kind.name)
                continue
            done += 1
            self.latencies.append(t1 - t0)
            self.kept.append((kind, params, kind.keep(result)))
        elapsed = clock() - begin - untimed
        self.round_seconds.append(elapsed)
        self.batch_rates.append(done / elapsed)
        if len(self.latencies) > first:
            self.round_medians.append(statistics.median(self.latencies[first:]))

    def check(self) -> list[str]:
        problems = []
        for kind, params, kept in self.kept:
            problems += kind.check(self.ctx, params, kept)
        return problems


def _percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _child(args, *extra) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child {' '.join(extra)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(problems, rec) -> bool:
    """Print failures and failed checks; True when the run is correct.

    Only an operation whose right answer is an error may fail without
    making the run incorrect: it is the one kept fault (``div_x``)."""
    for name, message in sorted(rec.errors.items()):
        print(f"failed operation {name}: {message}", file=sys.stderr)
    problems = [f"{name} failed, and it has no expected error" for name in sorted(rec.unexpected)] + problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
    return not problems


def run_untraced(args):
    wl, ctx, _ = setup(args.workload)
    rec = Recorder(wl, ctx)
    # Set-up samples are spread over the run, between rounds, so that they
    # meet the same stretches of host speed as the operations.  The time
    # they take is added to the run.
    setups = []
    start = time.perf_counter()
    deadline = start + args.seconds
    peak_rss_mb = None
    r = 0
    while r < wl.min_rounds or time.perf_counter() < deadline or len(setups) < SETUP_SAMPLES:
        due = start + len(setups) * args.seconds / SETUP_SAMPLES
        if len(setups) < SETUP_SAMPLES and time.perf_counter() >= due:
            t0 = time.perf_counter()
            setups.append(_child(args, "--child", "setup")["setup_s"])
            deadline += time.perf_counter() - t0
            continue
        rec.run_round(args.seed, r)
        r += 1
        if r == wl.min_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = _report(rec.check(), rec)
    print(
        f"{wl.name} seed={args.seed}: {r} rounds, {len(rec.latencies)} timed operations,"
        f" tail percentile p{wl.tail_pct:.4g}, set-up samples {[round(s, 4) for s in setups]}"
    )
    metrics = {
        "ops_per_s": (statistics.median(rec.batch_rates), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(rec.round_medians), "ms"),
        "latency_tail_ms": (1e3 * _percentile(rec.latencies, wl.tail_pct), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return correct, rec, metrics


def run_traced(args):
    import tracer as tracing

    untraced = _child(args, "--child", "rounds")["round_seconds"]
    tr = tracing.Tracer()
    wl, ctx, _ = setup(args.workload, tracer=tr)
    tr.reset()
    rec = Recorder(wl, ctx)
    for r in range(wl.trace_rounds):
        rec.run_round(args.seed, r)
    # Read the layers before the checks, which call the library too.
    values = tr.metrics()
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{wl.name}-s{args.seed}.json.gz")
    correct = _report(rec.check(), rec)
    ratios = [t / u for t, u in zip(rec.round_seconds, untraced)]
    print(
        f"{wl.name} seed={args.seed}: {wl.trace_rounds} traced rounds,"
        f" {len(tr.span_start)} spans, untraced {sum(untraced):.3f} s,"
        f" traced {sum(rec.round_seconds):.3f} s"
    )
    metrics = {name: (values[name], unit) for name, unit in tracing.METRICS}
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    return correct, rec, metrics


def child(args):
    if args.child == "setup":
        *_, seconds = setup(args.workload)
        return {"setup_s": seconds}
    wl, ctx, _ = setup(args.workload)
    rec = Recorder(wl, ctx)
    for r in range(wl.trace_rounds):
        rec.run_round(args.seed, r)
    return {"round_seconds": rec.round_seconds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("proper_means", "improper_means", "verdicts", "bivariate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "rounds"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0
    correct, rec, metrics = (run_traced if args.trace else run_untraced)(args)
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
