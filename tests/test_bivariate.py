"""Two-parameter means of two numbers: the power/log family, the secant
(Cauchy) construction, conversions between the two views, and the
geometric-vs-elastic gap machinery."""
import math

import numpy as np
import pytest
import scipy.integrate

from isomean import bivariate
from isomean._errors import DomainError, PreconditionError
from isomean.bivariate import (
    Antiderivative,
    exact_prefix_sums,
    QuasiStolarskyParams,
    cauchy_mean_report,
    cauchy_mean_value,
    cauchy_to_classV,
    classV_bivariate,
    classV_to_cauchy,
    compare_G_E,
    losonczi_necessary,
    losonczi_sufficient,
    quasi_stolarsky,
    s_function,
    s_second_root,
    sigma_GE,
    stolarsky_branch,
)
from isomean.frame import GeneratorMap, generator_map
from isomean.intervals import Interval

A, B = 1.3, 2.6


def Q(p, q, a=A, b=B):
    return quasi_stolarsky(QuasiStolarskyParams(p, q, a, b))


# ---------------------------------------------------------------------------
# branch dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,q,label",
    [
        (0.0, 0.0, "both-zero"),
        (2.0, 2.0, "equal"),
        (-1.5, -1.5, "equal"),
        (3.0, -3.0, "opposite"),
        (0.0, 2.0, "first-zero"),
        (2.0, 0.0, "second-zero"),
        (2.0, 1.0, "general"),
        (-1.0, 3.0, "general"),
    ],
)
def test_branch_labels(p, q, label):
    assert stolarsky_branch(p, q) == label


def test_parameter_validation():
    with pytest.raises(PreconditionError, match="positive"):
        QuasiStolarskyParams(1.0, 2.0, -1.0, 2.0)
    with pytest.raises(PreconditionError, match="positive"):
        QuasiStolarskyParams(1.0, 2.0, 1.0, 0.0)
    with pytest.raises(PreconditionError, match="finite"):
        QuasiStolarskyParams(float("nan"), 1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# closed forms, row by row
# ---------------------------------------------------------------------------


def test_both_powers_zero_is_the_geometric_mean():
    assert Q(0.0, 0.0) == pytest.approx(math.sqrt(A * B), rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, -1.0, -2.0])
def test_equal_powers_give_the_power_mean(p):
    want = ((A**p + B**p) / 2.0) ** (1.0 / p)
    assert Q(p, p) == pytest.approx(want, rel=1e-12)


def test_unit_opposite_powers_give_the_log_mean():
    want = (B - A) / math.log(B / A)
    assert Q(1.0, -1.0) == pytest.approx(want, rel=1e-12)


def test_first_power_zero():
    # base map log, value map square
    want = math.sqrt((B**2 - A**2) / (2.0 * math.log(B / A)))
    assert Q(0.0, 2.0) == pytest.approx(want, rel=1e-12)


def test_second_power_zero_is_the_identric_mean():
    want = math.exp((B * math.log(B) - A * math.log(A)) / (B - A) - 1.0)
    assert Q(1.0, 0.0) == pytest.approx(want, rel=1e-12)


def test_two_one_row():
    want = 2.0 * (A * A + A * B + B * B) / (3.0 * (A + B))
    assert Q(2.0, 1.0) == pytest.approx(want, rel=1e-12)
    # exact rational point
    assert Q(2.0, 1.0, 1.0, 2.0) == 14.0 / 9.0


def test_minus_one_three_row():
    want = (A * 0.5 * (A + B) * B) ** (1.0 / 3.0)
    assert Q(-1.0, 3.0) == pytest.approx(want, rel=1e-12)
    assert Q(-1.0, 3.0, 1.0, 2.0) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)


def test_continuity_across_the_equal_power_seam():
    base = Q(2.0, 2.0)
    assert Q(2.0, 2.0 + 1e-7) == pytest.approx(base, rel=1e-5)
    assert Q(2.0 - 1e-7, 2.0) == pytest.approx(base, rel=1e-5)


def test_degenerate_pair_returns_the_point():
    assert Q(2.0, 1.0, 3.0, 3.0) == pytest.approx(3.0, rel=1e-14)


def test_symmetry_in_the_two_arguments():
    assert Q(2.0, 0.5, 1.2, 4.1) == pytest.approx(Q(2.0, 0.5, 4.1, 1.2), rel=1e-12)


def test_grid_against_independent_quadrature():
    # hand-rolled route: invert h after integrating h(x) g'(x) with scipy
    def reference(p, q, a, b):
        gd = (lambda x: p * x ** (p - 1.0)) if p != 0.0 else (lambda x: 1.0 / x)
        gv = (lambda x: x**p) if p != 0.0 else math.log
        hv = (lambda x: x**q) if q != 0.0 else math.log
        hinv = (lambda u: u ** (1.0 / q)) if q != 0.0 else math.exp
        num, _ = scipy.integrate.quad(lambda x: hv(x) * gd(x), a, b)
        return hinv(num / (gv(b) - gv(a)))

    exps = [-2.0, -0.5, 0.0, 1.0, 2.5]
    for p in exps:
        for q in exps:
            if p == q:
                continue
            got = Q(p, q)
            assert got == pytest.approx(reference(p, q, A, B), rel=1e-9), (p, q)


# ---------------------------------------------------------------------------
# secant construction
# ---------------------------------------------------------------------------


def test_log_over_identity_is_the_log_mean():
    got = cauchy_mean_value("ln(x)", "x", 2.0, 5.0)
    assert got == pytest.approx(3.0 / math.log(2.5), rel=1e-9)


def test_cubic_over_square_matches_the_two_one_row():
    got = cauchy_mean_value("x^3", "x^2", 1.0, 2.0)
    assert got == pytest.approx(14.0 / 9.0, rel=1e-9)


def test_report_carries_the_diagnostics():
    rep = cauchy_mean_report("ln(x)", "x", 2.0, 5.0)
    assert rep.secant == pytest.approx(math.log(2.5) / 3.0, rel=1e-12)
    assert rep.ratio_monotonicity == "StrictlyDecreasing"
    assert isinstance(rep.inverse_strategy, str) and rep.inverse_strategy
    assert rep.value == pytest.approx(3.0 / math.log(2.5), rel=1e-9)


def test_degenerate_secant_window_is_rejected():
    # no secant through a single point
    with pytest.raises(PreconditionError, match="distinct endpoints"):
        cauchy_mean_value("ln(x)", "x", 4.0, 4.0)


# ---------------------------------------------------------------------------
# conversions between the secant and the integral views
# ---------------------------------------------------------------------------


def test_integral_view_to_secant_view():
    F, residual = classV_to_cauchy("ln(x)", "y", "x^2", Interval(1.0, 3.0))
    assert isinstance(F, Antiderivative)
    assert residual == pytest.approx(0.0, abs=1e-9)
    # F accumulates x^2 d(ln x) = x dx from the window base
    assert F(1.0) == 0.0
    assert F(2.0) == pytest.approx(1.5, rel=1e-9)
    assert F.derivative_at(2.0) == pytest.approx(2.0, rel=1e-7)
    xs = np.linspace(1.0, 3.0, 9)
    vals = [F(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # positive integrand


def test_integral_view_of_a_map_without_an_expression(monkeypatch):
    # the base map is an inverse with no closed form, so the integrand is an
    # array callable: it must be called on arrays, not once per point
    calls = []

    class Counting(bivariate.Antiderivative):
        def __init__(self, integrand, d, knots=129):
            def counted(xs):
                calls.append(np.size(xs))
                return integrand(xs)

            super().__init__(counted, d, knots)

    monkeypatch.setattr(bivariate, "Antiderivative", Counting)
    g = generator_map("x+exp(x)", Interval(0.0, 10.0)).inverse()
    assert g.expr is None
    F, residual = classV_to_cauchy(g, "y^2", None, Interval(3.0, 9.0))
    assert isinstance(F, Counting)
    assert 0 < len(calls) < 50
    assert residual <= 1e-9


@pytest.mark.parametrize("kind", ["random", "cancelling"])
def test_exact_prefix_sums_match_fsum_of_every_prefix(kind):
    rng = np.random.default_rng(7)
    xs = rng.standard_normal(300) * 10.0 ** rng.integers(-12, 12, 300)
    if kind == "cancelling":
        # large terms that cancel in pairs around small ones
        xs = np.ravel(np.column_stack((xs, rng.standard_normal(300) * 1e-9, -xs)))
    xs = xs.tolist()
    want = [math.fsum(xs[: i + 1]) for i in range(len(xs))]
    assert exact_prefix_sums(xs) == want


def test_antiderivative_vector_view_runs_the_scalar_arithmetic():
    F = Antiderivative("x*exp(-x)", Interval(0.5, 3.0, hi_open=True))
    xs = np.array([0.5, 0.7, 1.3, 1.3, 2.999, 0.4, 3.0, np.nan])
    got = F.many(xs)
    assert np.array_equal(got[:5], [F(x) for x in xs[:5]])
    assert np.isnan(got[5:]).all()
    with pytest.raises(DomainError, match="outside the antiderivative window"):
        F(3.0)
    # the grid's knots are where the stored prefix sums apply exactly
    assert F(F._knots[5]) == F._cum[5]


def test_secant_view_to_integral_view():
    m, residual = cauchy_to_classV("x^2", "x", Interval(1.0, 3.0))
    assert isinstance(m, GeneratorMap)
    assert residual < 1e-9


def test_round_trip_values_agree():
    # the secant mean of (f, g) equals the integral mean whose base map is g
    # and whose value map is the slope ratio f'/g'
    d = Interval(1.0, 3.0)
    direct = cauchy_mean_value("x^3", "x^2", d.lo, d.hi)
    assert direct == pytest.approx(13.0 / 6.0, rel=1e-12)
    via_integral = classV_bivariate(
        generator_map("x^2", Interval(0.05, 50.0)),
        generator_map("1.5*y", Interval(0.05, 80.0)),
        d.lo,
        d.hi,
    )
    assert direct == pytest.approx(via_integral, rel=1e-9)


# ---------------------------------------------------------------------------
# geometric-vs-elastic machinery
# ---------------------------------------------------------------------------


def test_shape_function_second_root():
    assert s_second_root(2.0) is None
    root = s_second_root(3.0)
    assert root == pytest.approx(0.2142142, abs=1e-6)
    assert abs(s_function(root, 3.0)) < 1e-10


def test_relative_gap_is_symmetric_under_ratio_inversion():
    for r, p in [(5.0, 2.0), (3.7, 0.5), (12.0, 3.0), (1.8, -1.0)]:
        assert sigma_GE(r, p) == pytest.approx(sigma_GE(1.0 / r, p), abs=1e-12)


def test_gap_sign_verdicts():
    v = compare_G_E(2.0, 8.0, 2.0)
    assert v.relation == "GT"
    assert v.evidence["s_root"] is None

    low = compare_G_E(2.0, 8.0, 3.0)
    assert low.relation == "LT"
    high = compare_G_E(3.0, 2500.0, 3.0)
    assert high.relation == "GT"
    # the flip happens at the shape function's second root
    assert low.evidence["s_root"] == pytest.approx(0.2142142, abs=1e-6)


def test_gap_verdict_window_validation():
    with pytest.raises(PreconditionError, match="0 < a < b"):
        compare_G_E(5.0, 5.0, 2.0)
    with pytest.raises(PreconditionError, match="0 < a < b"):
        compare_G_E(8.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# slope-balance screens
# ---------------------------------------------------------------------------


def test_sufficient_screen_orders_the_power_pair():
    v = losonczi_sufficient("x", "x", "y^2", "x", "y", Interval(1.0, 2.0), mesh=32, random_pairs=300)
    assert v.relation == "GE"
    assert v.justification == "secant-slope-sufficient"


def test_necessary_screen_reports_the_condition():
    v = losonczi_necessary("x", "x", "y", "x", "y^2", Interval(1.0, 2.0))
    assert v.justification == "slope-balance-necessary"
    assert v.evidence["condition_for_le"] == "holds strictly"
    rev = losonczi_necessary("x", "x", "y^2", "x", "y", Interval(1.0, 2.0))
    assert rev.evidence["condition_for_le"].startswith("fails")
