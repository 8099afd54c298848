"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` untraced, one run at a time, ten times per set
on every workload of BENCHMARK.json, with a different seed every run (set
A seeds 1..10, set B seeds 101..110), alternating between the sets so that
slow drift of the host falls on both alike.  For every end-to-end metric
it prints each set's median and spread (the distance between the first
and third quartile, as a share of the median) and how far set B's median
lies from set A's, signed so that positive means worse, next to the
metric's bound from BENCHMARK.json.  The check passes when every spread
and every gap is within the bound and the share of failed operations is
the same in every run.  The table is written to perfbench/out/steady.json
as well.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEEDS = {"A": 1, "B": 101}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, first in SEEDS.items():
                result = run_once(wl, first + i, bench["run_seconds"])
                sets[name].append(result)
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"{wl} set {name} seed {first + i}: correct={result['correct']}"
                      f" attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        runs = sets["A"] + sets["B"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        rows = []
        print(f"\n{wl}: correct in every run: {correct}; failed shares seen: {sorted(shares)}")
        print("| metric | bound | median A | spread A | median B | spread B | B worse than A by |")
        print("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            row = {"metric": name, "bound": bound, "values_A": a, "values_B": b,
                   "median_A": statistics.median(a), "spread_A": spread(a),
                   "median_B": statistics.median(b), "spread_B": spread(b)}
            row["worse_by"] = sign * (row["median_B"] - row["median_A"]) / row["median_A"]
            row["within"] = max(row["spread_A"], row["spread_B"], abs(row["worse_by"])) <= bound
            ok &= row["within"]
            rows.append(row)
            print(f"| {name} | {bound} | {row['median_A']:.5g} | {row['spread_A']:.3f} | "
                  f"{row['median_B']:.5g} | {row['spread_B']:.3f} | {row['worse_by']:+.3f} |"
                  + ("" if row["within"] else " outside bound"))
        report[wl] = {"correct": correct, "failed_shares": sorted(shares), "rows": rows}
        print(flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
