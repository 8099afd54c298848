"""bench/interleave.py: a smoke test of one checkout against itself, and
its exit status when a side fails perfbench's checks."""
import importlib.util
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


class _Recorder:
    """A stand-in for perfbench's Recorder whose results fail `problems`."""

    def __init__(self, problems):
        self.problems = problems
        self.batch_rates = []
        self.unexpected = set()

    def run_round(self, seed, r):
        self.batch_rates.append(100.0 + r)

    def check(self):
        return list(self.problems)


def test_interleave_exits_1_and_still_reports_when_a_side_is_not_correct(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("interleave", ROOT / "bench" / "interleave.py")
    interleave = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "interleave", interleave)  # for its dataclass
    spec.loader.exec_module(interleave)
    problems = {"base": [], "change": ["a result is off"]}
    monkeypatch.setattr(
        interleave, "load",
        lambda root, workload: interleave.Side(root, {}, _Recorder(problems[root.name])),
    )
    argv = ["--workload", "proper_means", "--seed", "3", "--rounds", "2"]
    assert interleave.main(argv + ["base", "change"]) == 1
    out = capsys.readouterr().out
    assert "NOT correct" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] == [True, False]
    problems["change"] = []
    assert interleave.main(argv + ["base", "change"]) == 0
