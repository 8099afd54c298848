"""Paired rates of two checkouts of isomean, measured in one interpreter.

    python3 bench/interleave.py --workload NAME --seed N --rounds R BASE CHANGE

BASE and CHANGE are the roots of two checkouts.  Each side's library and
``perfbench/`` modules are imported into this one process under their own
module objects, and each side sets up its workload as ``perfbench/run.py``
does (context and warm-up).  The rounds then alternate: round r runs on
both sides with the same inputs, BASE first in even rounds and CHANGE first
in odd ones, and each round is timed by perfbench's own ``Recorder``.  A
swing of the host's speed between rounds then hits both sides alike, which
separate runs of ``perfbench/run.py`` cannot promise.

It prints each side's median rate (operations per second over a round, the
figure perfbench reports as ``ops_per_s``), the median and quartiles of the
per-round ratio CHANGE / BASE, and whether every result of each side passed
perfbench's checks.  The last line of standard output is one JSON object
with the same figures and the Python and NumPy versions and CPU count of
the run.  The exit status is 0 when both sides are correct and 1 when
either is not; the figures are printed either way.  ``perfbench/`` is only
read.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy

# The modules each side owns: its library and perfbench's own modules.
_PERFBENCH_MODULES = ("run", "workloads", "refs")


def _owned(name: str) -> bool:
    return name == "isomean" or name.startswith("isomean.") or name in _PERFBENCH_MODULES


@dataclass
class Side:
    root: Path
    modules: dict
    recorder: object

    def activate(self) -> None:
        """Bind this side's modules, for the imports its code makes at run time."""
        sys.modules.update(self.modules)


def load(root: Path, workload: str) -> Side:
    """Import `root`'s library and perfbench modules and set up `workload`."""
    for name in [n for n in sys.modules if _owned(n)]:
        del sys.modules[name]
    saved = list(sys.path)
    sys.path.insert(0, str(root / "perfbench"))
    try:
        run = importlib.import_module("run")
        if Path(run.__file__).resolve().parent != (root / "perfbench").resolve():
            raise SystemExit(f"interleave: imported {run.__file__}, not {root}'s perfbench")
        wl, ctx, _ = run.setup(workload)  # imports root's src/isomean, checks where from
        importlib.import_module("refs")  # workloads imports it lazily, for the checks
        recorder = run.Recorder(wl, ctx)
    finally:
        sys.path[:] = saved
    modules = {n: m for n, m in sys.modules.items() if _owned(n)}
    return Side(root, modules, recorder)


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def interleave(sides, seed: int, rounds: int) -> None:
    """Run `rounds` rounds on both sides, the first side first in even rounds."""
    for r in range(rounds):
        for side in sides if r % 2 == 0 else sides[::-1]:
            side.activate()
            side.recorder.run_round(seed, r)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("proper_means", "improper_means", "verdicts", "bivariate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=200)
    ap.add_argument("base", type=Path, help="root of the reference checkout")
    ap.add_argument("change", type=Path, help="root of the checkout compared with it")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    sides = [load(root.resolve(), args.workload) for root in (args.base, args.change)]
    interleave(sides, args.seed, args.rounds)
    rates = [side.recorder.batch_rates for side in sides]
    ratios = [c / b for b, c in zip(*rates)]
    q1, med, q3 = quartiles(ratios)
    correct = []
    for side in sides:
        side.activate()
        problems = side.recorder.check()
        correct.append(not problems and not side.recorder.unexpected)
    for label, side, rate, ok in zip(("base", "change"), sides, rates, correct):
        print(f"{label:6} {side.root}: median {statistics.median(rate):.1f} ops/s,"
              f" {'correct' if ok else 'NOT correct'}")
    print(f"{args.workload} seed={args.seed}, {args.rounds} rounds: change/base ratio"
          f" median {med:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "base_ops_per_s": statistics.median(rates[0]),
        "change_ops_per_s": statistics.median(rates[1]),
        "ratio_median": med,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "correct": correct,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }))
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
