"""Integral means of functions: named constructors, the general engine,
degeneracies, improper windows, and structural invariants."""
import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from isomean import funmean, quadrature

from isomean._errors import DivergentIntegralError, NotBondedError
from isomean.expr import evaluate
from isomean.frame import generator_map, make_frame
from isomean.funmean import (
    class_I_mean,
    class_II_mean,
    class_III_mean,
    class_IV_mean,
    class_V_mean,
    class_VI_mean,
    class_VII_mean,
    conjugation_classII,
    dvi_mean,
    dvi_mean_riemann_oracle,
    elastic_mean,
    geometric_mean,
    harmonic_mean,
    mean_problem,
    plain_mean,
    power_integral_mean,
)
from isomean.intervals import Interval
from isomean.parse import parse

HALF_PI = math.pi / 2.0


def assert_routed(r, ref, method):
    """The mean took the expected route and its estimate covers the error."""
    assert r.method == method
    assert abs(r.value - ref) <= r.abs_error_estimate


class TestNamedMeans:
    def test_plain_average_of_square(self):
        r = plain_mean("x^2", Interval(0.0, 2.0))
        assert r.value == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert r.method == "quadrature"

    # Integrable log blow-ups at the ends need no limit, open or closed: the
    # Kronrod nodes are interior, so these means take the direct route.
    def test_geometric_mean_of_sine_arch(self):
        r = geometric_mean("sin(x)", Interval(0.0, math.pi, lo_open=True, hi_open=True))
        assert r.value == pytest.approx(0.5, abs=1e-8)
        assert_routed(r, 0.5, "quadrature")
        assert_routed(geometric_mean("sin(x)", Interval(0.0, math.pi)), 0.5, "quadrature")

    def test_geometric_mean_of_tangent_quarter_period(self):
        r = geometric_mean("tan(x)", Interval(0.0, HALF_PI, lo_open=True, hi_open=True))
        assert r.value == pytest.approx(1.0, abs=1e-6)
        assert_routed(r, 1.0, "quadrature")

    def test_geometric_mean_of_circle_chords(self):
        r = geometric_mean("2*sqrt(1-x^2)", Interval(-1.0, 1.0, lo_open=True, hi_open=True))
        assert r.value == pytest.approx(4.0 / math.e, abs=1e-7)
        assert_routed(r, 4.0 / math.e, "quadrature")

    def test_geometric_mean_of_identity_near_zero(self):
        r = geometric_mean("x", Interval(0.0, 1.0, lo_open=True))
        assert r.value == pytest.approx(1.0 / math.e, abs=1e-9)
        assert_routed(r, 1.0 / math.e, "quadrature")
        assert_routed(geometric_mean("x", Interval(0.0, 1.0)), 1.0 / math.e, "quadrature")

    def test_integrable_algebraic_blowup_takes_the_direct_route(self):
        r = plain_mean("1/sqrt(x)", Interval(0.0, 1.0, lo_open=True))
        assert_routed(r, 2.0, "quadrature")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_integrable_blowup_is_divergent(self):
        with pytest.raises(DivergentIntegralError):
            plain_mean("1/x", Interval(0.0, 1.0, lo_open=True))

    def test_harmonic_mean_of_identity(self):
        r = harmonic_mean("x", Interval(1.0, 2.0))
        assert r.value == pytest.approx(1.0 / math.log(2.0), rel=1e-10)

    def test_elastic_mean_of_identity_is_the_log_mean(self):
        r = elastic_mean("x", Interval(1.0, 2.0))
        assert r.value == pytest.approx(1.0 / math.log(2.0), rel=1e-10)
        for a, b in ((0.5, 3.0), (2.0, 9.0)):
            got = elastic_mean("x", Interval(a, b)).value
            assert got == pytest.approx((b - a) / math.log(b / a), rel=1e-10)

    def test_elastic_mean_of_a_function_vanishing_at_zero(self):
        # the sampled hull starts at 1e-6 * 1.6621; the mean, f(0+) = 0, is
        # the limit of f at the open end
        r = elastic_mean("x", Interval(0.0, 1.6621))
        assert abs(r.value) <= r.abs_error_estimate

    def test_elastic_mean_of_tangent_quarter_period(self):
        # ln, the x-map, is undefined at 0: only this window needs the limit
        r = elastic_mean("tan(x)", Interval(0.0, HALF_PI, lo_open=True, hi_open=True))
        assert r.value == pytest.approx(2.0 / math.pi, abs=1e-5)
        assert_routed(r, 2.0 / math.pi, "quadrature+endpoint-limit")

    def test_power_integral_mean(self):
        r = power_integral_mean("x", Interval(1.0, 2.0), 3.0)
        assert r.value == pytest.approx((15.0 / 4.0) ** (1.0 / 3.0), rel=1e-12)
        quad = power_integral_mean("sin(x)", Interval(0.0, math.pi), 2.0)
        assert quad.value == pytest.approx(math.sqrt(0.5), rel=1e-10)


class TestClassConstructors:
    def test_identity_maps_reduce_to_the_plain_average(self):
        d = Interval(0.5, 2.0)
        want = plain_mean("exp(x)", d).value
        assert class_I_mean("exp(x)", d, "y").value == pytest.approx(want, rel=1e-12)
        assert class_II_mean("exp(x)", d, "x").value == pytest.approx(want, rel=1e-12)
        assert class_VI_mean("exp(x)", d).value == pytest.approx(want, rel=1e-12)

    def test_value_map_only(self):
        # cube-root mean of sin via a cubic value map
        d = Interval(0.2, 2.8)
        r = class_I_mean("sin(x)", d, "y^3")
        want = power_integral_mean("sin(x)", d, 3.0).value
        assert r.value == pytest.approx(want, rel=1e-10)

    def test_base_map_only_matches_weighted_average(self):
        # a base map g reweights the average by g'
        from isomean.compare import first_mvt_mean

        d = Interval(1.0, 2.0)
        r = class_II_mean("exp(x)", d, "x^2")
        want = first_mvt_mean("exp(x)", "2*x", d)
        assert r.value == pytest.approx(want.value, rel=1e-10)

    def test_same_map_on_both_axes(self):
        d = Interval(1.0, 2.0)
        r = class_III_mean("x", d, "x^2")
        # g = h = x^2 with f = id: sqrt of (integral of 2x^3) / (b^2 - a^2)
        want = math.sqrt(2.5)
        assert r.value == pytest.approx(want, rel=1e-10)

    def test_general_frame_with_closed_form(self):
        r = class_IV_mean("exp(x)", Interval(0.0, 1.0), "x^2", "ln(y)")
        assert r.value == pytest.approx(math.exp(2.0 / 3.0), rel=1e-10)

    def test_bivariate_log_value_map_is_the_identric_mean(self):
        r = class_V_mean("x", "ln(y)", 2.0, 8.0)
        want = math.exp((8.0 * math.log(8.0) - 2.0 * math.log(2.0)) / 6.0 - 1.0)
        assert r.value == pytest.approx(want, rel=1e-10)

    def test_bivariate_log_base_map_is_the_log_mean(self):
        r = class_V_mean("ln(x)", "y", 2.0, 5.0)
        assert r.value == pytest.approx(3.0 / math.log(2.5), rel=1e-10)

    def test_bivariate_value_map_built_on_the_window_itself(self):
        # the sampled hull of the identity must not overshoot b by an ulp
        a, b = 0.5512, 1.622
        r = class_V_mean("ln(x)", "x^2", a, b)
        want = math.sqrt((b * b - a * a) / (2.0 * math.log(b / a)))
        assert r.value == pytest.approx(want, rel=1e-12)

    def test_self_paired_map(self):
        r = class_VII_mean("x^2", Interval(0.0, 1.0))
        assert r.value == pytest.approx(4.0 / 9.0, rel=1e-8)
        r2 = class_VII_mean("x^3", Interval(0.0, 2.0))
        assert r2.value == pytest.approx(3.375, rel=1e-8)


class TestDegenerateWindows:
    POINT = Interval(1.5, 1.5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda d: plain_mean("x^2", d),
            lambda d: geometric_mean("x^2", d),
            lambda d: harmonic_mean("x^2", d),
            lambda d: elastic_mean("x^2", d),
            lambda d: power_integral_mean("x^2", d, 3.0),
            lambda d: class_I_mean("x^2", d, "y^2"),
            lambda d: class_II_mean("x^2", d, "x^3"),
            lambda d: class_III_mean("x^2", d, "x^2"),
            lambda d: class_IV_mean("x^2", d, "x^3", "ln(y)"),
            lambda d: class_VI_mean("x^2", d),
            lambda d: class_VII_mean("x^2", d),
        ],
    )
    def test_point_window_returns_the_point_value(self, make):
        r = make(self.POINT)
        assert r.value == pytest.approx(2.25, rel=1e-14)
        assert r.method == "closed-form"
        assert r.abs_error_estimate == 0.0

    def test_degenerate_bivariate_window(self):
        r = class_V_mean("x", "ln(y)", 3.0, 3.0)
        assert r.value == pytest.approx(3.0, rel=1e-14)


class TestEngine:
    def frame(self):
        return make_frame((("x", Interval(-0.5, 4.0)), ("ln(y)", Interval(0.05, 9.0))))

    def test_endpoint_order_is_irrelevant(self):
        fwd = dvi_mean(mean_problem("2+sin(x)", 0.0, 3.0, self.frame()))
        rev = dvi_mean(mean_problem("2+sin(x)", 3.0, 0.0, self.frame()))
        assert rev.value == fwd.value  # bit-for-bit: the window is sorted once

    def test_riemann_refinement_agrees(self):
        p = mean_problem("2+sin(x)", 0.0, 3.0, self.frame())
        fine = dvi_mean_riemann_oracle(p, 65536)
        assert dvi_mean(p).value == pytest.approx(fine, abs=1e-4)

    def test_riemann_oracle_inverts_an_odd_power_on_negative_values(self):
        d = Interval(-2.0, -1.0)
        fr = make_frame((generator_map("x^3", d), generator_map("y", Interval(0.5, 2.0))))
        p = mean_problem("2+sin(x)", -2.0, -1.0, fr)
        fine = dvi_mean_riemann_oracle(p, 4096)
        assert dvi_mean(p).value == pytest.approx(fine, abs=1e-6)

    def test_unbonded_problem_is_rejected(self):
        # 2+sin dips to 1.0 on [0, 3]; a value map living on [2.5, 9] misses it
        tight = make_frame((("x", Interval(-0.5, 4.0)), ("ln(y)", Interval(2.5, 9.0))))
        with pytest.raises(NotBondedError, match="escapes"):
            mean_problem("2+sin(x)", 0.0, 3.0, tight)

    def test_value_map_rescaling_is_invisible(self):
        d = Interval(0.5, 2.0)
        base = class_I_mean("exp(x)", d, "y^2").value
        # k*h + C generates the same mean
        hull = Interval(1.0, 8.0)
        fr = make_frame((("x", Interval(0.0, 3.0)), ("3*y^2+1", hull)))
        r = dvi_mean(mean_problem("exp(x)", 0.5, 2.0, fr))
        assert r.value == pytest.approx(base, rel=1e-11)

    def test_base_map_rescaling_is_invisible(self):
        d = Interval(1.0, 2.0)
        base = class_II_mean("exp(x)", d, "x^2").value
        fr = make_frame((("-2*x^2+5", Interval(0.5, 2.5)), ("y", Interval(1.0, 9.0))))
        r = dvi_mean(mean_problem("exp(x)", 1.0, 2.0, fr))
        assert r.value == pytest.approx(base, rel=1e-11)


class TestConjugation:
    def test_swapping_the_roles_of_two_increasing_maps(self):
        rep = conjugation_classII("x^2", "x^3", Interval(1.0, 2.0))
        assert rep.mean_f_by_g == pytest.approx(93.0 / 35.0, rel=1e-10)
        assert rep.mean_g_by_f == pytest.approx(62.0 / 15.0, rel=1e-10)
        assert abs(rep.product_residual) < 1e-9
        assert abs(rep.slope_residual) < 1e-9

    def test_residuals_vanish_for_exp_and_log_scale_pair(self):
        rep = conjugation_classII("exp(x)", "x^2", Interval(0.5, 1.5))
        assert abs(rep.product_residual) < 1e-9
        assert abs(rep.slope_residual) < 1e-9


# ---------------------------------------------------------------------------
# structural properties over a randomised pool
# ---------------------------------------------------------------------------

FUNCTIONS = ["2+sin(x)", "exp(x/2)", "1+x^2", "3/(1+x)"]
VALUE_MAPS = ["y", "y^2", "ln(y)", "sqrt(y)", "1/y"]


@given(
    st.sampled_from(FUNCTIONS),
    st.sampled_from(VALUE_MAPS),
    st.floats(0.1, 1.4),
    st.floats(0.2, 1.8),
)
def test_mean_lies_in_the_value_hull(fsrc, hsrc, lo, width):
    d = Interval(lo, lo + width)
    fr = make_frame((("x", Interval(0.0, 4.0)), (hsrc, Interval(0.05, 30.0))))
    r = dvi_mean(mean_problem(fsrc, d.lo, d.hi, fr))
    f = parse(fsrc)
    samples = [evaluate(f, d.lo + t * (d.hi - d.lo) / 16.0) for t in range(17)]
    assert min(samples) - 1e-6 <= r.value <= max(samples) + 1e-6


@given(st.sampled_from(FUNCTIONS), st.floats(0.1, 2.0))
def test_mean_of_constant_window_is_reached_in_the_limit(fsrc, lo):
    # shrinking windows converge to the function value at the centre
    eps = 1e-5
    r = dvi_mean(
        mean_problem(
            fsrc,
            lo,
            lo + eps,
            make_frame((("x", Interval(0.0, 4.0)), ("y", Interval(0.0, 30.0)))),
        )
    )
    f = parse(fsrc)
    assert r.value == pytest.approx(evaluate(f, lo + eps / 2.0), rel=1e-4)


# ---------------------------------------------------------------------------
# the endpoint limit against exact references
# ---------------------------------------------------------------------------

LIMIT = "quadrature+endpoint-limit"


QUARTER_PERIOD = Interval(0.0, HALF_PI, lo_open=True, hi_open=True)


def _elastic_tangent_ref(s):
    # ∫ s·tan(x)/x dx over [ε, π/2−ε] grows like (2s/π)·ln(1/ε), as does ln(b/a)
    with mpmath.workdps(30):
        return float(2 * mpmath.mpf(s) / mpmath.pi)


@pytest.mark.parametrize(
    "f, window, ref",
    [
        *[(f"{s}*tan(x)", QUARTER_PERIOD, _elastic_tangent_ref(s)) for s in (0.5, 1.0, 1.9)],
        # a function finite at 0 has the elastic mean f(0+) over (0, b]
        ("1+x", Interval(0.0, 2.0, lo_open=True), 1.0),
        ("exp(x)", Interval(0.0, 1.5, lo_open=True), 1.0),
        ("cos(x)", Interval(0.0, 1.0, lo_open=True), 1.0),
    ],
    ids=["tan-0.5", "tan-1", "tan-1.9", "1+x", "exp", "cos"],
)
def test_elastic_limit_means_are_within_their_estimates(f, window, ref):
    r = elastic_mean(f, window)
    assert_routed(r, ref, LIMIT)
    assert r.detail["stage"] in ("raw", "noise-floor", "extrapolated")


def test_log_weighted_average_of_identity_tends_to_zero():
    r = class_II_mean("x", Interval(0.0, 1.0, lo_open=True), "ln(x)")
    assert_routed(r, 0.0, LIMIT)


@pytest.mark.xfail(strict=True, reason="the best-pair extrapolant misses 1 by 5x its estimate")
def test_log_sinh_weighted_mean_tends_to_the_value_at_0():
    # g = ln(sinh x) → −∞ at 0, so the weight concentrates on f(0+) = 1;
    # the windows never settle, and the best pair of linear extrapolants
    # reads 1.0000065 with an estimate of 1.3e-6
    r = class_II_mean("1+x", Interval(0.0, 0.3, lo_open=True), "ln(sinh(x))")
    assert_routed(r, 1.0, LIMIT)


def test_elastic_tangent_settles_in_fewer_than_eleven_windows(monkeypatch):
    windows = []
    inner = funmean.endpoint_limit

    def counting(value_on, a, b):
        return inner(lambda ak, bk: windows.append(ak) or value_on(ak, bk), a, b)

    monkeypatch.setattr(funmean, "endpoint_limit", counting)
    r = elastic_mean("tan(x)", QUARTER_PERIOD)
    assert r.method == LIMIT and r.detail["stage"] == "extrapolated"
    assert len(windows) < 11
    assert abs(r.value - 2.0 / math.pi) <= r.abs_error_estimate <= 1e-9


@pytest.mark.parametrize(
    "mean",
    [
        lambda: elastic_mean("tan(x)", QUARTER_PERIOD),
        lambda: class_VII_mean("sin(x)/x", Interval(0.0, 2.0, lo_open=True)),
    ],
    ids=["elastic tan", "class VII sin(x)/x"],
)
def test_strip_built_windows_match_one_integrate_each(monkeypatch, mean):
    built = []
    inner = funmean.window_integrals

    def recording(fn, a, b, max_subdiv=None):
        built.append((fn, a, b, max_subdiv))
        return inner(fn, a, b, max_subdiv)

    monkeypatch.setattr(funmean, "window_integrals", recording)
    assert mean().method == LIMIT
    [(fn, a, b, budget)] = built
    integral_on = inner(fn, a, b, budget)
    # Only the first batch: deeper, within 1e-8 of tan's pole at π/2, the
    # rounding of the nodes' positions moves both integrals by more than
    # either estimate, and the means settle before they reach it.
    for ak, bk in quadrature._windows(a, b)[: quadrature._FIRST_BATCH]:
        value, err = integral_on(ak, bk)
        want, want_err = quadrature.integrate(fn, ak, bk, max_subdiv=budget)
        assert abs(value - want) <= err + want_err, (ak, bk)


def test_power_maps_stay_bounded_after_many_exponents():
    d = Interval(1.0, 2.0)
    for k in range(300):
        p = 1.0 + k / 64
        r = power_integral_mean("x", d, p)
        assert 1.0 <= r.value <= 2.0
    info = funmean._power_map.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize <= 128
