"""Adaptive quadrature against closed forms and an independent integrator."""
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from isomean._errors import DivergentIntegralError, DomainError
from isomean.funmean import plain_mean
from isomean.intervals import Interval
from isomean.quadrature import (
    endpoint_limit,
    integrate,
    integrate_many,
    is_improper_near,
    max_subdivisions,
)


def test_polynomials_are_exact_on_one_panel():
    for k in range(11):
        val, err = integrate(lambda x, k=k: np.asarray(x) ** k, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-14)
        assert err < 1e-12


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


def _splits(points: int, segments: int = 1) -> int:
    """Splits behind a point count: 15 nodes per panel, two panels a split."""
    return (points // 15 - segments) // 2


def _root_sin_inv(x):
    x = np.asarray(x)
    return np.sqrt(x) * np.sin(1.0 / x)


# (3, 3.5) meets its target on the first panel; the others need splits,
# one of them reversed; (1, 1) is empty.
_SEGMENTS = [(3.0, 3.5), (0.02, 0.5), (1.0, 1.0), (2.0, 0.5), (0.005, 0.05)]


def test_integrate_many_is_bit_identical_to_one_integrate_per_segment():
    lo, hi = (np.array(ends) for ends in zip(*_SEGMENTS))
    values, errors = integrate_many(_root_sin_inv, lo, hi)
    points = []
    for i, (a, b) in enumerate(_SEGMENTS):
        fn, seen = _counted(_root_sin_inv)
        assert (values[i], errors[i]) == integrate(fn, a, b)
        points.append(seen[1])
    assert points[0] == 15 and points[2] == 0
    assert min(_splits(p) for p in points[1::2]) > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_many_raises_on_a_non_finite_node_in_any_segment():
    # 0.5 is the middle node of the panel [0.4, 0.6]
    with pytest.raises(DomainError, match="not finite inside the panel"):
        integrate_many(lambda x: 1.0 / (np.asarray(x) - 0.5), [1.0, 0.4], [2.0, 0.6])


def test_integrate_many_budget_applies_per_segment():
    def hard(x):
        x = np.asarray(x)
        return np.sin(50.0 * x) / (1.0 + x**2)

    fn, seen = _counted(hard)
    want = integrate(fn, 0.0, 6.0)
    need = _splits(seen[1])
    assert need > 2
    # each of three copies gets the splits one needs: a shared budget of
    # that size would leave two of them far from their target
    fn, seen = _counted(hard)
    values, errors = integrate_many(fn, [0.0] * 3, [6.0] * 3, max_subdiv=need)
    assert _splits(seen[1], 3) == 3 * need
    assert all((v, e) == want for v, e in zip(values, errors))
    with pytest.raises(DivergentIntegralError, match="all 2 subdivisions"):
        integrate_many(hard, [0.0, 0.0], [1.0, 6.0], max_subdiv=2)


def test_integrate_many_of_no_segments_calls_nothing():
    fn, seen = _counted(np.exp)
    values, errors = integrate_many(fn, [], [])
    assert values.shape == errors.shape == (0,) and seen == [0, 0]


def test_oscillatory_refinement_evaluates_many_splits_per_call():
    fn, seen = _counted(lambda x: np.sin(1.0 / np.asarray(x)))
    integrate(fn, 1e-3, 1.0)
    assert seen[0] < _splits(seen[1])


def test_mean_of_sin_inverse_x_against_its_closed_form():
    # ∫_c^1 sin(1/x) dx = [Ci(u) − sin(u)/u] from u = 1 to 1/c
    c = 1e-3
    prim = lambda u: mpmath.ci(u) - mpmath.sin(u) / u
    with mpmath.workdps(30):
        want = float((prim(mpmath.mpf(1) / c) - prim(1)) / (1 - mpmath.mpf(c)))
    r = plain_mean("sin(1/x)", Interval(c, 1.0))
    assert abs(r.value - want) <= r.abs_error_estimate
