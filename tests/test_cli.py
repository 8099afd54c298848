"""End-to-end command-line behaviour via the real entry point.

Every test drives ``main(argv)`` directly so exit codes and stdout are the
same objects the installed ``isomean`` script produces.
"""
import csv
import io
import json
import math

import pytest

from isomean.bivariate import cauchy_mean_value
from isomean.cli import main
from isomean.funmean import class_V_mean, geometric_mean
from isomean.intervals import Interval


@pytest.fixture
def run(capsys):
    def _run(*argv):
        rc = main(list(argv))
        out = capsys.readouterr()
        return rc, out.out, out.err

    return _run


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------


def test_mean_json_round_trips_library_floats(run):
    rc, out, _ = run(
        "mean", "--class", "geometric", "--f", "sin(x)", "--a", "0", "--b", "pi",
        "--format", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    lib = geometric_mean("sin(x)", Interval(0.0, math.pi))
    assert rec["value"] == lib.value  # bit-for-bit through repr
    assert rec["err"] == lib.abs_error_estimate
    assert rec["class"] == "geometric"
    assert rec["a"] == 0.0 and rec["b"] == math.pi
    assert rec["value"] == pytest.approx(0.5, abs=1e-8)


def test_mean_plain_format(run):
    rc, out, _ = run(
        "mean", "--class", "elastic", "--f", "x", "--a", "1", "--b", "2",
        "--format", "plain",
    )
    assert rc == 0
    lines = dict(l.split(" = ", 1) for l in out.strip().splitlines())
    assert float(lines["value"]) == pytest.approx(1.0 / math.log(2.0), rel=1e-10)
    assert lines["class"] == "elastic"


def test_mean_constant_endpoint_expressions(run):
    rc, out, _ = run(
        "mean", "--class", "VI", "--f", "sin(x)", "--a", "0", "--b", "pi/2",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(2.0 / math.pi, rel=1e-10)


def test_mean_power_class(run):
    rc, out, _ = run(
        "mean", "--class", "power:3", "--f", "x", "--a", "1", "--b", "2",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx((15.0 / 4.0) ** (1 / 3), rel=1e-10)


def test_mean_bivariate_class_needs_no_function(run):
    rc, out, _ = run(
        "mean", "--class", "V", "--g", "x", "--h", "ln(y)", "--a", "2", "--b", "8",
        "--format", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == class_V_mean("x", "ln(y)", 2.0, 8.0).value


def test_mean_degenerate_window_is_closed_form(run):
    rc, out, _ = run(
        "mean", "--class", "I", "--f", "x^2+2", "--h", "y^3",
        "--a", "0.5", "--b", "0.5", "--format", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == 2.25
    assert rec["method"] == "closed-form"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_function_means(run):
    rc, out, _ = run(
        "compare", "--f", "tan(x)", "--g", "ln(x)", "--G", "x",
        "--a", "0.1", "--b", "1.5", "--format", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["verdict"] == "LT"
    assert rec["scenario"] == "ClassII"
    assert rec["left"] < rec["right"]
    assert rec["budget"] >= 1e-7


def test_compare_number_means(run):
    rc, out, _ = run(
        "compare", "--g", "sinh(y)", "--h", "cosh(y)", "--a", "0.2", "--b", "1.2",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["verdict"] == "LE"


def test_compare_undecided_is_exit_zero_by_default(run):
    rc, out, _ = run(
        "compare", "--f", "x",
        "--g", "cos(x)", "--h", "sin(y)", "--G", "sin(x)", "--H", "cos(y)",
        "--a", "0.3", "--b", "1.2", "--map-window", "0.05:1.55",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["verdict"] == "Undecided"


def test_compare_undecided_with_required_verdict_fails(run):
    rc, _, _ = run(
        "compare", "--f", "x",
        "--g", "cos(x)", "--h", "sin(y)", "--G", "sin(x)", "--H", "cos(y)",
        "--a", "0.3", "--b", "1.2", "--map-window", "0.05:1.55",
        "--require-verdict",
    )
    assert rc == 4


# ---------------------------------------------------------------------------
# stolarsky / cauchy
# ---------------------------------------------------------------------------


def test_stolarsky_csv_round_trip(run):
    rc, out, _ = run(
        "stolarsky", "--p", "2", "--q", "1", "--a", "1", "--b", "2",
        "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "a", "b", "branch", "value"]
    assert rows[1][4] == "general"
    assert float(rows[1][5]) == 14.0 / 9.0


def test_cauchy_report_fields(run):
    rc, out, _ = run(
        "cauchy", "--f", "ln(x)", "--g", "x", "--a", "2", "--b", "5",
        "--format", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == cauchy_mean_value("ln(x)", "x", 2.0, 5.0)
    assert rec["value"] == pytest.approx(3.0 / math.log(2.5), rel=1e-9)
    assert rec["secant"] == pytest.approx(math.log(2.5) / 3.0, rel=1e-12)
    assert rec["ratio_monotonicity"] == "StrictlyDecreasing"
    assert rec["inverse_strategy"] == "closed-form"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_equal_power_diagonal(run):
    rc, out, _ = run(
        "sweep", "--target", "stolarsky", "--sweep", "pq=1:3:3",
        "--a", "1", "--b", "2", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    values = [float(r[5]) for r in rows[1:]]
    assert values[0] == pytest.approx(1.5, rel=1e-12)
    assert values[1] == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert values[2] == pytest.approx(4.5 ** (1 / 3), rel=1e-12)
    assert all(r[4] == "equal" for r in rows[1:])


def test_sweep_gap_sign_change(run):
    rc, out, _ = run(
        "sweep", "--target", "sigma_ge", "--sweep", "r=2:2000:4:log",
        "--p", "3", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    gaps = [float(r[2]) for r in rows[1:]]
    assert gaps[0] < 0 and gaps[-1] > 0  # the ordering flips for large ratios


def test_sweep_mean_windows(run):
    rc, out, _ = run(
        "sweep", "--target", "mean", "--class", "geometric", "--f", "x",
        "--sweep", "b=2:4:2", "--a", "1", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    got = [float(r[4]) for r in rows[1:]]
    assert got[0] == pytest.approx(4.0 / math.e, rel=1e-10)
    assert got[1] == pytest.approx(math.exp((4 * math.log(4) - 3.0) / 3.0), rel=1e-10)


def test_sweep_mean_reads_the_class_table(run):
    rc, out, _ = run(
        "sweep", "--target", "mean", "--class", "IV", "--f", "exp(x)", "--g", "x^2",
        "--h", "ln(y)", "--sweep", "b=1:2:2", "--a", "0", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["class", "f", "a", "b", "value", "err", "method"]
    # exp of the mean of x under the weight 2x/b²: exp(2b/3)
    assert [float(r[4]) for r in rows[1:]] == pytest.approx(
        [math.exp(2.0 / 3.0), math.exp(4.0 / 3.0)], rel=1e-10
    )
    rc, out, _ = run(
        "sweep", "--target", "mean", "--class", "V", "--g", "x", "--h", "ln(y)",
        "--sweep", "b=8:8:1", "--a", "2", "--format", "csv",
    )
    assert rc == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[1] == "x"
    assert float(row[4]) == class_V_mean("x", "ln(y)", 2.0, 8.0).value


def test_sweep_is_deterministic(run):
    args = (
        "sweep", "--target", "sigma_ge", "--sweep", "r=1.5:90:7:log",
        "--sweep", "p=0.5:3:3", "--format", "csv",
    )
    rc1, out1, _ = run(*args)
    rc2, out2, _ = run(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + 7 * 3  # header + full grid


def test_empty_sweep_prints_only_the_header(run):
    rc, out, _ = run(
        "sweep", "--target", "stolarsky", "--sweep", "p=1:3:0", "--q", "1",
        "--a", "1", "--b", "2", "--format", "csv",
    )
    assert rc == 0
    assert out == "p,q,a,b,branch,value\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_group_json(run):
    rc, out, _ = run("verify", "--only", "geometric", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["total"] == len(rep["checks"]) > 0
    assert all(c["group"] == "geometric" for c in rep["checks"])


def test_verify_plain_lines(run):
    rc, out, _ = run("verify", "--only", "elastic")
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].startswith("PASSED:")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_syntax_error(run):
    rc, _, err = run("mean", "--class", "VI", "--f", "2x", "--a", "0", "--b", "1")
    assert rc == 2
    assert "syntax" in err


def test_exit_variable_endpoint(run):
    rc, _, _ = run("mean", "--class", "VI", "--f", "x", "--a", "x+1", "--b", "2")
    assert rc == 2


def test_exit_domain_error(run):
    # geometric mean of a sign-changing function has no bonded frame
    rc, _, err = run("mean", "--class", "geometric", "--f", "sin(x)", "--a", "0", "--b", "6")
    assert rc == 3


def test_exit_non_monotone_map(run):
    rc, _, _ = run("cauchy", "--f", "sin(x)", "--g", "x", "--a", "0.3", "--b", "4.5")
    assert rc == 3


def test_exit_divergent_integral(run, monkeypatch):
    monkeypatch.setenv("ISOMEAN_MAX_SUBDIV", "2")
    rc, _, err = run(
        "mean", "--class", "VI", "--f", "sin(50*x)/(1+x^2)", "--a", "0", "--b", "6"
    )
    assert rc == 5
    assert "diverge" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_non_integrable_blowup_is_divergent(run):
    rc, _, err = run("mean", "--class", "VI", "--f", "1/x", "--a", "0", "--b", "1", "--open-a")
    assert rc == 5
    assert "divergent" in err


def test_exit_subdivision_cap_binds_the_limit_route(run, monkeypatch):
    monkeypatch.setenv("ISOMEAN_MAX_SUBDIV", "2")
    rc, _, err = run(
        "mean", "--class", "elastic", "--f", "tan(x)",
        "--a", "0", "--b", "pi/2", "--open-a", "--open-b",
    )
    assert rc == 5
    assert "divergent" in err


def test_exit_hull_escape_is_a_failure_not_a_traceback(run):
    rc, _, err = run("mean", "--class", "elastic", "--f", "x", "--a", "0", "--b", "1.6621")
    assert rc == 1
    assert "escapes the value hull" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("mean", "--class", "VI", "--f", "x", "--a", "0", "--b", "1", "--format", "yaml"),
        ("verify", "--only", "nosuchgroup"),
        ("sweep", "--target", "sigma_ge", "--sweep", "zz=1:2:2", "--p", "3"),
        ("sweep", "--target", "sigma_ge", "--sweep", "r=1:2"),
        ("mean", "--class", "VI", "--f", "x", "--a", "0", "--b", "1", "--tol", "1e-30"),
    ],
)
def test_exit_usage_errors(run, argv):
    rc, _, _ = run(*argv)
    assert rc == 64


def test_tight_tolerance_rejects_rough_results(run):
    # elastic tan is only known to a few times 1e-8; demand better and fail
    rc, _, err = run(
        "mean", "--class", "elastic", "--f", "tan(x)",
        "--a", "0", "--b", "pi/2", "--open-a", "--open-b", "--tol", "1e-13",
    )
    assert rc == 3
    assert "tol" in err or "error" in err
