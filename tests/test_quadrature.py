"""Adaptive quadrature against closed forms and an independent integrator."""
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from isomean import quadrature
from isomean._errors import DivergentIntegralError, DomainError
from isomean.bivariate import Antiderivative
from isomean.funmean import plain_mean
from isomean.intervals import Interval
from isomean.quadrature import (
    _NODES,
    _WEIGHTS,
    endpoint_limit,
    integrate,
    integrate_many,
    is_improper_near,
    max_subdivisions,
    window_integrals,
)


def test_polynomials_are_exact_on_one_panel():
    for k in range(11):
        val, err = integrate(lambda x, k=k: np.asarray(x) ** k, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-14)
        assert err < 1e-12


def test_a_constant_integrates_to_rounding():
    # the Kronrod weights sum to 2 in float64
    val, _ = integrate(np.ones_like, 0.0, 1.0)
    assert abs(val - 1.0) <= 2.0 * np.spacing(1.0)
    anti = Antiderivative("x", Interval(0.0, 2.0))(2.0)
    assert abs(anti - 2.0) <= 2.0 * np.spacing(2.0)


@pytest.mark.parametrize("rule, degree", [("kronrod", 22), ("gauss", 13)])
def test_panel_rules_integrate_monomials_to_rounding(rule, degree):
    """QUADPACK's dqk15 rules are exact on x^k up to their degree."""
    weights = _WEIGHTS[:, 0] if rule == "kronrod" else _WEIGHTS[:, 0] - _WEIGHTS[:, 1]
    for k in range(degree + 1):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(weights * _NODES**k)
        assert abs(got - want) <= 4.0 * np.spacing(2.0 / (k + 1)), k


def test_oscillatory_integrand():
    val, err = integrate(lambda x: np.sin(20.0 * np.asarray(x)), 0.0, 3.0)
    want = (1.0 - math.cos(60.0)) / 20.0
    assert val == pytest.approx(want, abs=1e-13)
    assert abs(val - want) <= max(err, 1e-13)


def test_error_estimate_covers_rounding_when_the_integrand_cancels():
    # ln tan is odd about π/4: one panel's Kronrod and Gauss sums agree to
    # far below the rounding left in the value
    val, err = integrate(lambda x: np.log(np.tan(np.asarray(x))), 0.0, math.pi / 2)
    assert abs(val) <= err < 1e-13


def test_log_endpoint_singularity_converges():
    # integrable singularity: the sample nodes stay interior
    val, err = integrate(lambda x: np.log(np.asarray(x)), 0.0, 1.0)
    assert val == pytest.approx(-1.0, abs=5e-9)
    assert err < 1e-6


@pytest.mark.parametrize(
    "fn,a,b",
    [
        (lambda x: np.exp(-np.asarray(x) ** 2), 0.0, 4.0),
        (lambda x: np.sin(np.asarray(x)) / (1.0 + np.asarray(x) ** 2), 0.0, 6.0),
        (lambda x: np.sqrt(np.asarray(x)) * np.cos(3.0 * np.asarray(x)), 0.0, 2.0),
        (lambda x: 1.0 / (1.0 + np.asarray(x) ** 4), -1.0, 3.0),
    ],
)
def test_against_independent_integrator(fn, a, b):
    val, err = integrate(fn, a, b)
    want, werr = scipy.integrate.quad(lambda x: float(fn(np.array([x]))[0]), a, b)
    assert val == pytest.approx(want, abs=max(1e-10, 10.0 * (err + werr)))


def test_reversed_bounds_flip_the_sign():
    fwd, _ = integrate(lambda x: np.asarray(x) ** 2, 0.0, 2.0)
    rev, _ = integrate(lambda x: np.asarray(x) ** 2, 2.0, 0.0)
    assert rev == pytest.approx(-fwd, rel=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_integrable_singularity_is_caught():
    with pytest.raises(DomainError, match="not finite inside the panel"):
        integrate(lambda x: 1.0 / np.asarray(x), 0.0, 1.0)


def test_subdivision_cap_raises_divergence(monkeypatch):
    monkeypatch.setenv("ISOMEAN_MAX_SUBDIV", "2")
    with pytest.raises(DivergentIntegralError, match="may diverge"):
        integrate(
            lambda x: np.sin(50.0 * np.asarray(x)) / (1.0 + np.asarray(x) ** 2),
            0.0,
            6.0,
        )


def test_subdivision_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("ISOMEAN_MAX_SUBDIV", raising=False)
    assert max_subdivisions() == 1_000_000
    monkeypatch.setenv("ISOMEAN_MAX_SUBDIV", "17")
    assert max_subdivisions() == 17


def test_improper_screen_flags_power_blowups_only():
    assert is_improper_near(lambda x: 1.0 / np.sqrt(np.asarray(x)), 0.0, 1.0, "lo")
    assert is_improper_near(lambda x: 1.0 / np.asarray(x), 0.0, 1.0, "lo")
    assert is_improper_near(lambda x: 1.0 / np.sqrt(1.0 - np.asarray(x)), 0.0, 1.0, "hi")
    assert not is_improper_near(lambda x: np.sin(np.asarray(x)), 0.0, 1.0, "lo")
    assert not is_improper_near(lambda x: np.cos(np.asarray(x)), 0.0, 1.0, "hi")


def test_endpoint_limit_of_stable_window_statistic():
    # the windowed average of x^2 on [eps, 1-eps] tends to 1/3
    val, err, stage = endpoint_limit(
        lambda lo, hi: (hi**3 - lo**3) / (3.0 * (hi - lo)), 0.0, 1.0
    )
    assert val == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert err < 1e-6
    assert isinstance(stage, str) and stage


STAGES = {"raw", "noise-floor", "extrapolated"}


def window_model(L, c, d):
    """v = L + c·t + d·ε·t with t = 1/ln(b/a), a = ε: the shape of a framed
    mean over ln's diverging denominator, linear in t with an O(ε·t) rest."""

    def value_on(lo, hi):
        t = 1.0 / math.log(hi / lo)
        return L + c * t + d * lo * t

    return value_on


def counted(value_on, calls):
    def wrapped(lo, hi):
        calls.append((lo, hi))
        return value_on(lo, hi)

    return wrapped


@pytest.mark.parametrize("L, c, d", [(0.7, 1.3, 2.0), (0.0, 1.0, -5.0), (2.5, -3.0, 0.5)])
def test_endpoint_limit_stops_once_the_tableau_settles(L, c, d):
    calls = []
    val, err, stage = endpoint_limit(counted(window_model(L, c, d), calls), 0.0, 1.0)
    assert stage == "extrapolated"
    assert len(calls) <= 7
    assert abs(val - L) <= err < 1e-9 * max(1.0, abs(L))


def test_endpoint_limit_with_an_O_eps_rest_stays_honest():
    # v = L + c·t + d·ε: column 1 keeps a k·ε rest that a ratio of 10 only
    # shrinks tenfold per window, so the tableau settles late, but settles
    calls = []
    val, err, stage = endpoint_limit(
        counted(lambda lo, hi: 0.7 + 1.3 / math.log(hi / lo) + 2.0 * lo, calls), 0.0, 1.0
    )
    assert stage == "extrapolated"
    assert abs(val - 0.7) <= err < 1e-9


def test_endpoint_limit_of_a_divergent_sequence_raises():
    # v = 1/t = ln(b/a) grows without bound
    with pytest.raises(DivergentIntegralError):
        endpoint_limit(lambda lo, hi: math.log(hi / lo), 0.0, 1.0)


def test_endpoint_limit_restarts_the_tableau_after_a_skipped_window():
    calls = []
    model = window_model(0.7, 1.3, 2.0)

    def value_on(lo, hi):
        calls.append(lo)
        if len(calls) == 4:
            raise DomainError("a window that cannot be evaluated")
        return model(lo, hi)

    val, err, stage = endpoint_limit(value_on, 0.0, 1.0)
    # the windows after the skip rebuild both columns before accepting
    assert stage == "extrapolated" and len(calls) >= 4 + 4
    assert abs(val - 0.7) <= err


@pytest.mark.parametrize(
    "value_on, stage",
    [
        (window_model(0.7, 1.3, 2.0), "extrapolated"),
        (lambda lo, hi: 0.5 + 1e-12 * lo, "raw"),
        # values that alternate by 6e-8 never settle but sit under the
        # 1e-7 noise floor
        (lambda lo, hi: 0.5 + 3e-8 * (-1) ** round(-math.log10(lo)), "noise-floor"),
    ],
    ids=["extrapolated", "raw", "noise-floor"],
)
def test_endpoint_limit_reports_one_of_the_three_stages(value_on, stage):
    got = endpoint_limit(value_on, 0.0, 1.0)
    assert got[2] == stage and got[2] in STAGES


# ---------------------------------------------------------------------------
# the batched engine: many segments, one integrand call per round
# ---------------------------------------------------------------------------


def _counted(fn):
    """fn, and a [calls, points] record of how it was called."""
    seen = [0, 0]

    def counted(xs):
        seen[0] += 1
        seen[1] += np.size(xs)
        return fn(xs)

    return counted, seen


@pytest.fixture
def splits(monkeypatch):
    """The splits of every segment that quadrature refines, as each ends."""
    seen = []
    finish = quadrature._finish

    def recorded(heap, splits, *args):
        seen.append(splits)
        return finish(heap, splits, *args)

    monkeypatch.setattr(quadrature, "_finish", recorded)
    return seen


def _root_sin_inv(x):
    x = np.asarray(x)
    return np.sqrt(x) * np.sin(1.0 / x)


# (3, 3.5) meets its target on the first panel; the others need splits,
# one of them reversed; (1, 1) is empty.
_SEGMENTS = [(3.0, 3.5), (0.02, 0.5), (1.0, 1.0), (2.0, 0.5), (0.005, 0.05)]


def test_integrate_many_is_bit_identical_to_one_integrate_per_segment(splits):
    lo, hi = (np.array(ends) for ends in zip(*_SEGMENTS))
    values, errors = integrate_many(_root_sin_inv, lo, hi)
    points = []
    for i, (a, b) in enumerate(_SEGMENTS):
        fn, seen = _counted(_root_sin_inv)
        splits.clear()
        assert (values[i], errors[i]) == integrate(fn, a, b)
        points.append(seen[1])
        if i % 2:
            assert splits and splits[0] > 0, (a, b)
    assert points[0] == 15 and points[2] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_many_raises_on_a_non_finite_node_in_any_segment():
    # 0.5 is the middle node of the panel [0.4, 0.6]
    with pytest.raises(DomainError, match="not finite inside the panel"):
        integrate_many(lambda x: 1.0 / (np.asarray(x) - 0.5), [1.0, 0.4], [2.0, 0.6])


def test_integrate_many_budget_applies_per_segment(splits):
    def hard(x):
        x = np.asarray(x)
        return np.sin(50.0 * x) / (1.0 + x**2)

    want = integrate(hard, 0.0, 6.0)
    [need] = splits
    assert need > 2
    # each of three copies gets the splits one needs: a shared budget of
    # that size would leave two of them far from their target
    splits.clear()
    values, errors = integrate_many(hard, [0.0] * 3, [6.0] * 3, max_subdiv=need)
    assert splits == [need] * 3
    assert all((v, e) == want for v, e in zip(values, errors))
    with pytest.raises(DivergentIntegralError, match="all 2 subdivisions"):
        integrate_many(hard, [0.0, 0.0], [1.0, 6.0], max_subdiv=2)


def test_integrate_many_of_no_segments_calls_nothing():
    fn, seen = _counted(np.exp)
    values, errors = integrate_many(fn, [], [])
    assert values.shape == errors.shape == (0,) and seen == [0, 0]


def test_oscillatory_refinement_evaluates_many_splits_per_call(splits):
    fn, seen = _counted(lambda x: np.sin(1.0 / np.asarray(x)))
    integrate(fn, 1e-3, 1.0)
    assert seen[0] < splits[0]


def test_mean_of_sin_inverse_x_against_its_closed_form():
    # ∫_c^1 sin(1/x) dx = [Ci(u) − sin(u)/u] from u = 1 to 1/c
    c = 1e-3
    prim = lambda u: mpmath.ci(u) - mpmath.sin(u) / u
    with mpmath.workdps(30):
        want = float((prim(mpmath.mpf(1) / c) - prim(1)) / (1 - mpmath.mpf(c)))
    r = plain_mean("sin(1/x)", Interval(c, 1.0))
    assert abs(r.value - want) <= r.abs_error_estimate


# ---------------------------------------------------------------------------
# endpoint singularities: end panels are chained and their ε tails read
# ---------------------------------------------------------------------------


def _inv_sqrt(x):
    return 1.0 / np.sqrt(np.asarray(x))


@pytest.mark.parametrize(
    "fn, a, b, most_calls",
    [
        # one end panel halved a round took 58, 28 and 30 calls, and
        # chaining without ε tails 9, 6 and 6
        (_inv_sqrt, 0.0, 1.0, 2),
        (np.log, 0.0, 1.0, 2),
        (lambda x: np.log(np.sin(np.asarray(x))), 0.0, math.pi, 3),
        # smooth, but not within its target on the first panel
        (lambda x: np.exp(-np.asarray(x) ** 2), 0.0, 4.0, 2),
    ],
    ids=["x^-1/2", "ln x", "ln sin x, both ends", "exp(-x^2)"],
)
def test_an_endpoint_singularity_refines_many_levels_per_call(fn, a, b, most_calls):
    fn, seen = _counted(fn)
    integrate(fn, a, b)
    assert seen[0] <= most_calls


def test_a_chain_splits_as_often_as_single_bisections(splits):
    # The first round cuts [0, 1] at its midpoint and seven more times
    # toward each end: 15 splits, after which the ε tail of the pieces at 0
    # meets the target (57 splits when each round halved one end panel)
    integrate(_inv_sqrt, 0.0, 1.0)
    assert splits == [15]


def test_a_chain_never_overspends_the_budget(splits):
    for s in range(1, 13):
        fn, seen = _counted(_inv_sqrt)
        splits.clear()
        if s <= 5:
            # Too few halvings toward 0 for the ε table: the cap binds.
            with pytest.raises(DivergentIntegralError, match=f"all {s} subdivisions"):
                integrate(fn, 0.0, 1.0, max_subdiv=s)
        else:
            value, err = integrate(fn, 0.0, 1.0, max_subdiv=s)
            assert abs(value - 2.0) <= err, s
        assert splits == [s]
        # The first panel, then one round that cuts [0, 1] at s points,
        # the midpoint first and then toward 0, and evaluates s + 1 pieces.
        assert seen == [2, 15 * (2 + s)], s
    with pytest.raises(DivergentIntegralError):
        plain_mean("1/x", Interval(0.0, 1.0, lo_open=True))


def _power(alpha):
    return lambda x: x**alpha, lambda: 1 / (1 + mpmath.mpf(alpha))


# Integrands on (0, 1], singular or not smooth at 0, with their integrals
# over (0, 1] as 30-digit mpmath closed forms.  For the strong power
# blow-ups the end panel's Kronrod−Gauss difference misses most of its
# error; the ε tail of the chained pieces replaces it.
_ENDPOINT_CORPUS = {
    "x^-1/2": _power(-0.5),
    "x^-1/4": _power(-0.25),
    "x^1/2": _power(0.5),
    "ln x": (np.log, lambda: mpmath.mpf(-1)),
    "ln^2 x": (lambda x: np.log(x) ** 2, lambda: mpmath.mpf(2)),
    "x^-1/2 ln x": (lambda x: np.log(x) / np.sqrt(x), lambda: mpmath.mpf(-4)),
    "x^-0.75": _power(-0.75),
    "x^-0.9": _power(-0.9),
}


def _exact(ref):
    with mpmath.workdps(30):
        return ref()


@pytest.mark.parametrize("side", ["left end", "right end"])
@pytest.mark.parametrize("name", list(_ENDPOINT_CORPUS))
def test_endpoint_singularity_estimates_bound_the_error(name, side):
    f, ref = _ENDPOINT_CORPUS[name]
    if side == "left end":
        value, err = integrate(lambda x: f(np.asarray(x)), 0.0, 1.0)
    else:  # the mirror image on [−1, 0)
        value, err = integrate(lambda x: f(-np.asarray(x)), -1.0, 0.0)
    assert abs(value - _exact(ref)) <= err


def test_log_sine_singular_at_both_ends_against_its_closed_form():
    value, err = integrate(lambda x: np.log(np.sin(np.asarray(x))), 0.0, math.pi)
    assert abs(value - _exact(lambda: -mpmath.pi * mpmath.log(2))) <= err


@pytest.mark.parametrize(
    "right, left", [("x^-1/2", "ln x"), ("x^-1/4", "ln^2 x"), ("x^1/2", "x^-1/2 ln x")]
)
def test_chained_segments_in_one_call_match_one_integrate_each(right, left):
    # one corpus entry on (0, 1], another mirrored on [−1, 0), integrated
    # from 0 down to −1; [1, 2] meets its target on its first panel
    (fr, ref_r), (fl, ref_l) = _ENDPOINT_CORPUS[right], _ENDPOINT_CORPUS[left]

    def fn(x):
        x = np.asarray(x)
        return np.where(x > 0.0, fr(np.abs(x)), fl(np.abs(x)))

    lo, hi = [0.0, 0.0, 1.0], [1.0, -1.0, 2.0]
    values, errors = integrate_many(fn, lo, hi)
    for i, (a, b) in enumerate(zip(lo, hi)):
        assert (values[i], errors[i]) == integrate(fn, a, b)
    assert abs(values[0] - _exact(ref_r)) <= errors[0]
    assert abs(values[1] + _exact(ref_l)) <= errors[1]


def test_an_integrable_blow_up_at_a_nonzero_end_converges_directly():
    # halving toward 1 would go on until the nodes round onto 1.0; the ε
    # tail of the first chain meets the target long before
    r = plain_mean("1/sqrt(x-1)", Interval(1.0, 2.0, lo_open=True))
    assert r.method == "quadrature"
    assert abs(r.value - 2.0) <= r.abs_error_estimate


# ---------------------------------------------------------------------------
# an ε tail never certifies a divergence
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "f, window",
    [
        ("1/x", Interval(0.0, 1.0, lo_open=True)),
        ("-1/x", Interval(-1.0, 0.0, hi_open=True)),
        ("x^(-1.01)", Interval(0.0, 1.0, lo_open=True)),
        # pieces that shrink like 1/k: the integral grows like ln ln(1/x)
        ("-1/(x*ln(x/2))", Interval(0.0, 1.0, lo_open=True)),
    ],
    ids=["1/x left end", "1/x right end", "x^-1.01", "log log"],
)
def test_a_divergent_mean_raises(f, window):
    with pytest.raises(DivergentIntegralError):
        plain_mean(f, window)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "f, ref",
    [("x^(-0.99)", lambda: mpmath.mpf(100)), ("1/(x*ln(x/2)^2)", lambda: 1 / mpmath.log(2))],
    ids=["x^-0.99", "1/(x ln^2(x/2))"],
)
def test_a_slowly_convergent_mean_raises_or_meets_its_estimate(f, ref):
    try:
        r = plain_mean(f, Interval(0.0, 1.0, lo_open=True))
    except DivergentIntegralError:
        return
    assert abs(r.value - _exact(ref)) <= r.abs_error_estimate


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_divergent_mean_costs_no_more_integrand_calls(monkeypatch):
    # The chain at 0 reaches the subnormal floats in about 130 rounds, and
    # fair-share cuts must not add rounds on the way: chaining only the end
    # panels took 186 calls here, the direct route and the limit together.
    calls = []
    panels = quadrature._panels

    def counted(fn, a, b):
        calls.append(a.size)
        return panels(fn, a, b)

    monkeypatch.setattr(quadrature, "_panels", counted)
    with pytest.raises(DivergentIntegralError):
        plain_mean("1/x", Interval(0.0, 1.0, lo_open=True))
    assert len(calls) <= 186


# ---------------------------------------------------------------------------
# endpoint-limit windows from nested strips
# ---------------------------------------------------------------------------


def _beyond_1e9(x):
    """1 + x, and NaN up to 1e-9: the second batch's strips reach it."""
    x = np.asarray(x)
    return np.where(x > 1e-9, 1.0 + x, np.nan)


def test_windows_of_a_failing_batch_raise_and_the_others_remain():
    integral_on = window_integrals(_beyond_1e9, 0.0, 1.0)
    windows = quadrature._windows(0.0, 1.0)
    assert len(windows) == 11
    for i, (ak, bk) in enumerate(windows):
        if i < quadrature._FIRST_BATCH:
            value, err = integral_on(ak, bk)
            assert abs(value - ((bk - ak) + (bk * bk - ak * ak) / 2.0)) <= err + 4 * np.spacing(1.0)
        else:
            with pytest.raises(DomainError, match="not finite"):
                integral_on(ak, bk)


def test_endpoint_limit_skips_the_windows_of_a_failing_batch():
    integral_on = window_integrals(_beyond_1e9, 0.0, 1.0)
    asked, kept = [], []

    def value_on(lo, hi):
        asked.append(lo)
        integral_on(lo, hi)
        kept.append(lo)
        # alternates by 6e-8: settles only on the best pair of all windows
        return 0.5 + 3e-8 * (-1) ** round(-math.log10(lo))

    value, err, stage = endpoint_limit(value_on, 0.0, 1.0)
    assert (len(asked), len(kept)) == (11, quadrature._FIRST_BATCH)
    assert stage == "noise-floor" and abs(value - 0.5) <= err


def test_windows_are_evaluated_one_batch_at_a_time():
    fn, seen = _counted(_beyond_1e9)
    integral_on = window_integrals(fn, 0.0, 1.0)
    assert seen == [0, 0]
    # the mean of 1 + x on a centred window is 1.5: three windows settle
    value, _, stage = endpoint_limit(lambda lo, hi: integral_on(lo, hi)[0] / (hi - lo), 0.0, 1.0)
    assert stage == "raw" and value == pytest.approx(1.5, abs=1e-14)
    calls = seen[0]
    assert calls <= 3
    for ak, bk in quadrature._windows(0.0, 1.0)[: quadrature._FIRST_BATCH]:
        integral_on(ak, bk)
    assert seen[0] == calls
