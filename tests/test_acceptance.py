"""Acceptance gate: every packaged verification check must pass.

Each check re-derives a target value through an independent route (closed
form, dual quadrature, or frozen reference number) and compares at its own
stated tolerance.  One line is printed per check; run with ``-v -s`` to see
them all, or ``isomean verify`` for the same table outside pytest.
"""
import pytest

from isomean import verify
from isomean.verify import GROUPS, report, run_checks


@pytest.mark.parametrize("group", GROUPS)
def test_verification_group(group):
    results = run_checks(only=group)
    assert results, f"group {group} produced no checks"
    for c in results:
        print(c.line())
    failures = [c for c in results if not c.passed]
    assert not failures, "failing checks:\n" + "\n".join(c.line() for c in failures)


def test_full_report_summary():
    results = run_checks()
    rep = report(results)
    assert rep["total"] == len(results) >= 49
    assert rep["passed"] is True
    assert rep["failures"] == 0


def test_every_decided_verdict_is_checked_on_computed_means(monkeypatch):
    # Both comparison routines, over the comparisons the checks make: each
    # decided verdict carries the evidence of its check on computed means.
    verdicts = []

    def recording(name, inner):
        def call(*args):
            verdicts.append((name, inner(*args)))
            return verdicts[-1][1]

        return call

    for name in ("compare_function_means", "compare_number_means"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    assert all(c.passed for c in run_checks("comparison"))
    decided = [(name, v) for name, v in verdicts if v.decided]
    assert {name for name, _ in decided} == {"compare_function_means", "compare_number_means"}
    assert [(name, str(v)) for name, v in decided if "numeric" not in v.evidence] == []
