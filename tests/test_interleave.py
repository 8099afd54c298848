"""Smoke test of bench/interleave.py: one checkout against itself."""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def test_interleave_runs_two_rounds_of_one_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "interleave.py"), "--workload", "proper_means",
         "--seed", "3", "--rounds", "2", str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["rounds"] == 2 and report["correct"] == [True, True]
    assert report["base_ops_per_s"] > 0 and report["change_ops_per_s"] > 0
    assert report["ratio_q1"] <= report["ratio_median"] <= report["ratio_q3"]
    assert report["python"] == platform.python_version()
    assert report["numpy"] == numpy.__version__
    assert report["cpus"] == os.cpu_count()
