"""Two-parameter means of two numbers: the power/log family, the secant
(Cauchy) construction, conversions between the two views, and the
geometric-vs-elastic gap machinery."""
import math
import random

import mpmath
import numpy as np
import pytest
import scipy.integrate

from isomean import bivariate, frame
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
)
from isomean.frame import GeneratorMap, generator_map
from isomean.intervals import Interval

A, B = 1.3, 2.6


def Q(p, q, a=A, b=B):
    return quasi_stolarsky(QuasiStolarskyParams(p, q, a, b))


def test_parameter_validation():
    with pytest.raises(PreconditionError, match="positive"):
        QuasiStolarskyParams(1.0, 2.0, -1.0, 2.0)
    with pytest.raises(PreconditionError, match="positive"):
        QuasiStolarskyParams(1.0, 2.0, 1.0, 0.0)
    with pytest.raises(PreconditionError, match="finite"):
        QuasiStolarskyParams(float("nan"), 1.0, 1.0, 2.0)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
@pytest.mark.parametrize("field", range(4))
def test_every_parameter_must_be_finite(field, bad):
    args = [1.0, 2.0, 1.5, 3.0]
    args[field] = bad
    with pytest.raises(PreconditionError, match=f"^{'pqab'[field]} must be finite, got {bad}$"):
        QuasiStolarskyParams(*args)


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, 0.0), (-1.0, 2.0), (2.0, -0.5), (-0.0, 1.0)])
def test_arguments_must_be_positive(a, b):
    with pytest.raises(PreconditionError, match="^arguments must be positive$"):
        QuasiStolarskyParams(1.0, 2.0, a, b)


def test_parameters_come_back_as_floats():
    params = QuasiStolarskyParams(1, -2, 3, True)
    assert [(type(v), v) for v in (params.p, params.q, params.a, params.b)] == [
        (float, 1.0), (float, -2.0), (float, 3.0), (float, 1.0)
    ]
    # zero and negative exponents are valid
    assert QuasiStolarskyParams(0, -0.5, 1, 2).p == 0.0
    with pytest.raises(ValueError):
        QuasiStolarskyParams("one", 2.0, 1.0, 2.0)


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
# 60-digit oracle on and near the parameter lines
# ---------------------------------------------------------------------------


def _oracle(p, q, a, b):
    """Q_{p,q}(a, b) at 60 digits: the definition off the lines, their limits on them."""
    with mpmath.workdps(60):
        p, q, a, b = (mpmath.mpf(v) for v in (p, q, a, b))
        la, lb = mpmath.log(a), mpmath.log(b)

        def d(e):  # (b^e − a^e)/e, and its limit ln(b/a) at e = 0
            return (mpmath.exp(e * lb) - mpmath.exp(e * la)) / e if e else lb - la

        if q:
            return mpmath.exp(mpmath.log(d(p + q) / d(p)) / q)
        if p:  # q = 0: ln Q is the derivative of ln d(e) at e = p
            bp, ap = mpmath.exp(p * lb), mpmath.exp(p * la)
            return mpmath.exp((bp * lb - ap * la) / (bp - ap) - 1 / p)
        return mpmath.exp((la + lb) / 2)


def _oracle_corpus():
    rnd = random.Random(1)
    pairs = [
        (rnd.uniform(-5, 5) * 10.0 ** rnd.randint(-10, 0), rnd.uniform(-5, 5) * 10.0 ** rnd.randint(-10, 0))
        for _ in range(300)
    ]
    # within 1e-12, 1e-9 and 1e-6 of p = 0, q = 0, p = q and p + q = 0, and on them
    for p0, q0 in [(0.7, 1.3), (2.0, -1.5), (-3.0, 0.5)]:
        for d in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 0.0):
            pairs += [(d, q0), (p0, d), (p0, p0 + d), (p0, -p0 + d)]
    pairs += [(0.0, 0.0), (1e-9, 0.0), (0.0, 2e-9), (3e-9, 4.5e-9), (1e-12, -1e-12)]
    # large exponents; the last pair rounds p + q by 2.4e-14, which ln Q feels divided by q
    pairs += [
        (400.0, 5.0), (-400.0, 5.0), (5.0, 400.0), (60.0, -120.0), (150.0, 150.0),
        (1e4, 1.0), (1.0, 1e4), (1e6, -1e6), (268.69266875823155, -0.11691476123846625),
    ]
    return pairs


def test_quasi_stolarsky_against_the_60_digit_oracle():
    cases = [(p, q, a, b) for p, q in _oracle_corpus() for a, b in [(1.5, 7.0), (0.25, 0.75), (7.0, 1.5)]]
    # wide ratios
    for p, q in [(1.0, 2.0), (-1.0, 3.0), (0.0, 0.5), (2.0, 0.0), (1.5, -1.5), (3e-9, 4.5e-9)]:
        cases += [(p, q, 1e-3, 1e3), (p, q, 1e100, 1e-100)]
    bad = []
    for p, q, a, b in cases:
        got = Q(p, q, a, b)
        rel = float(abs(got / _oracle(p, q, a, b) - 1))
        if not (rel <= 1e-13 and min(a, b) <= got <= max(a, b)):
            bad.append((p, q, a, b, got, rel))
    assert not bad, f"{len(bad)} of {len(cases)} off; first {bad[:3]}"


@pytest.mark.parametrize(
    "p,q,on_line", [(7.17, -5.5e-318, (7.17, 0.0)), (1e-310, 1.0, (0.0, 1.0)), (-2.5e-320, 0.0, (0.0, 0.0))]
)
def test_subnormal_exponents_give_the_value_on_their_line(p, q, on_line):
    assert Q(p, q, 1.5, 7.0) == pytest.approx(Q(*on_line, 1.5, 7.0), rel=1e-15)


@pytest.mark.parametrize("p,q,a,b", [(400.0, 5.0, 1.5, 7.0), (1.0, 2.0, 1e-300, 1e300)])
def test_powers_beyond_the_float_range(p, q, a, b):
    got = Q(p, q, a, b)
    assert a < got < b
    assert got == pytest.approx(float(_oracle(p, q, a, b)), rel=1e-12)


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


def test_the_conversion_verifies_the_derivative_ratio_once(monkeypatch):
    monkeypatch.setattr(frame, "_memo", type(frame._memo)())
    builds = []
    original = frame._build_map

    def counting(e, d):
        builds.append(str(e))
        return original(e, d)

    monkeypatch.setattr(frame, "_build_map", counting)
    d = Interval(1.2, 2.3)
    m, residual = cauchy_to_classV("exp(x)", "x^2", d)
    # the base map x^2 and the ratio exp(x)/(2x), each once
    assert len(builds) == 2
    # the Cauchy side reads the same map: its value is cauchy_mean_value's
    want = cauchy_mean_value("exp(x)", "x^2", d.lo, d.hi)
    assert residual == abs(want - classV_bivariate(generator_map("x^2", d), m, d.lo, d.hi))


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
