"""Adaptive quadrature against closed forms and an independent integrator."""
import math

import numpy as np
import pytest
import scipy.integrate

from isomean._errors import DivergentIntegralError, DomainError
from isomean.quadrature import (
    endpoint_limit,
    integrate,
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
