"""Generator maps: inversion strategies, framing, bondedness checks."""
import math

import numpy as np
import pytest

from isomean import compare
from isomean._errors import DomainError, NonMonotoneError, InversionError
from isomean.frame import (
    GeneratorMap,
    check_bonded,
    estimate_range_hull,
    generator_map,
    invert_eval,
    invert_frame,
    make_frame,
)
from isomean.funmean import _log_map, class_I_mean
from isomean.invert import _real_root, residual_ok
from isomean.intervals import Interval
from isomean.parse import parse


def test_closed_form_inverse_for_library_shapes():
    g = generator_map("exp(x)", Interval(0.0, 1.0))
    assert g.inverse_strategy == "closed-form"
    assert invert_eval(g, math.e) == pytest.approx(1.0, abs=1e-14)
    assert invert_eval(g, 1.0) == pytest.approx(0.0, abs=1e-14)

    h = generator_map("ln(y)", Interval(0.5, 4.0))
    assert invert_eval(h, math.log(2.0)) == pytest.approx(2.0, rel=1e-14)


def test_bracketed_inverse_for_composite_shapes():
    g = generator_map("x+exp(x)", Interval(0.0, 1.0))
    assert g.inverse_strategy == "bracketed-numeric"
    for x in (0.1, 0.5, 0.9):
        u = x + math.exp(x)
        assert invert_eval(g, u) == pytest.approx(x, abs=1e-10)


@pytest.mark.parametrize(
    "source, lo, hi, u, want",
    [
        ("x^3", -2.0, 2.0, -1.0, -1.0),
        ("x^-3", -2.0, -0.5, -0.3, -(0.3 ** (-1.0 / 3.0))),
    ],
)
def test_odd_powers_invert_negative_values_in_closed_form(source, lo, hi, u, want):
    g = generator_map(source, Interval(lo, hi))
    assert g.inverse_strategy == "closed-form"
    assert invert_eval(g, u) == pytest.approx(want, rel=1e-14)
    # x^(1/3) is undefined for negative values, so the inverse map is numeric
    assert g.inverse().inverse_strategy == "bracketed-numeric"


def real_root_by_cases(u, c):
    """The real solution of x^c = u, case by case: NaN where there is none."""
    inv = 1.0 / c
    at_zero = 0.0 if c > 0 else np.nan
    below = -np.power(-u, inv) if c % 2 == 1 else np.nan
    return np.where(u > 0, np.power(u, inv), np.where(u == 0, at_zero, below))


@pytest.mark.parametrize("c", [3.0, -3.0, 2.0, 2.5])
def test_real_root_matches_the_case_by_case_formula(c):
    u = np.array([-2.0, -0.3, 0.0, 0.3, 2.0, np.nan])
    with np.errstate(all="ignore"):
        want = real_root_by_cases(u, c)
        got = _real_root(u, c)
    np.testing.assert_array_equal(got, want)


def test_image_matches_endpoint_values():
    g = generator_map("exp(x)", Interval(0.0, 1.0))
    assert g.image.lo == pytest.approx(1.0)
    assert g.image.hi == pytest.approx(math.e)

    dec = generator_map("3-x", Interval(0.0, 2.0))
    # decreasing maps still report an ordered image
    assert dec.image.lo == pytest.approx(1.0)
    assert dec.image.hi == pytest.approx(3.0)


@pytest.mark.parametrize(
    "source, domain, lo, hi",
    [
        # exp overflows from x = 1e3 on: the sequence stops there, so +inf
        ("exp(x)", Interval(0.0, math.inf), 1.0, math.inf),
        # ln's steps toward 0 do not shrink: the limit diverges
        ("ln(x)", Interval(0.0, 1.0, lo_open=True), -math.inf, 0.0),
        # 1/x settles: the limit is its value at the last point, 1e13
        ("1/x", Interval(1.0, math.inf), 1e-13, 1.0),
    ],
)
def test_image_takes_the_limit_at_open_ends(source, domain, lo, hi):
    g = generator_map(source, domain)
    assert (g.image.lo, g.image.hi) == (lo, hi)


def test_non_monotone_source_is_rejected():
    with pytest.raises(NonMonotoneError):
        generator_map("sin(x)", Interval(0.0, 3.0))


def test_degenerate_domain_is_rejected():
    with pytest.raises(Exception, match="non-degenerate"):
        generator_map("x", Interval(1.0, 1.0))


def test_inversion_outside_image_fails():
    g = generator_map("x^2", Interval(1.0, 2.0))
    with pytest.raises(InversionError):
        invert_eval(g, 100.0)


def test_frame_inversion_is_an_involution():
    fr = make_frame((("x^2", Interval(0.5, 2.0)), ("ln(y)", Interval(0.5, 8.0))))
    back = invert_frame(invert_frame(fr))
    for x in (0.6, 1.0, 1.9):
        assert back.g(x) == pytest.approx(fr.g(x), rel=1e-10)
    for y in (0.7, 2.0, 7.5):
        assert back.h(y) == pytest.approx(fr.h(y), rel=1e-10)


def test_inverted_frame_swaps_evaluation_direction():
    fr = make_frame((("x", Interval(0.0, 2.0)), ("exp(y)", Interval(0.0, 1.0))))
    inv = invert_frame(fr)
    # the inverted value map undoes the original one
    for y in (0.1, 0.5, 0.9):
        assert inv.h(fr.h(y)) == pytest.approx(y, abs=1e-10)


def test_estimate_range_hull_brackets_the_range():
    hull = estimate_range_hull(parse("sin(x)"), Interval(0.0, math.pi))
    assert hull.lo == pytest.approx(0.0, abs=1e-4)
    assert hull.hi == pytest.approx(1.0, abs=1e-4)
    assert hull.lo <= math.sin(1.0) <= hull.hi


def test_check_bonded_accepts_and_rejects():
    fr = make_frame((("x", Interval(0.0, 4.0)), ("ln(y)", Interval(0.1, 3.0))))
    ok = check_bonded(parse("sqrt(x)"), Interval(1.0, 4.0), fr)
    assert ok.bonded and ok.base_ok and ok.hull_ok

    # sqrt climbs to 3.16 > 3.0 on [1, 10]: the value hull escapes
    bad_frame = make_frame((("x", Interval(0.0, 12.0)), ("ln(y)", Interval(0.1, 3.0))))
    bad = check_bonded(parse("sqrt(x)"), Interval(1.0, 10.0), bad_frame)
    assert not bad.bonded
    assert not bad.hull_ok
    assert bad.message


def test_map_overflowing_inside_an_unbounded_domain_inverts():
    # exp overflows past x ≈ 710, far inside the domain
    g = generator_map("exp(x)+x^3+x", Interval(-math.inf, math.inf))
    us = np.array([-51.0, -30.0, 0.0, 1.0, 10.0, 100.0])
    scalar = np.array([g.invert(u) for u in us])
    vector = g.inverse().value_many(us)
    assert residual_ok(g.value_many(scalar), us).all()
    assert residual_ok(g.value_many(vector), us).all()
    np.testing.assert_allclose(vector, scalar, rtol=0, atol=1e-11)


def test_make_frame_accepts_prebuilt_maps():
    g = generator_map("x", Interval(0.0, 1.0))
    h = generator_map("y^2", Interval(0.0, 2.0))
    fr = make_frame((g, h))
    assert fr.g is g and fr.h is h


def _first_mvt_base_map(monkeypatch):
    """The Antiderivative-backed base map that first_mvt_mean builds."""
    seen = []
    original = compare.class_II_mean

    def spy(f, d, g):
        seen.append(g)
        return original(f, d, g)

    monkeypatch.setattr(compare, "class_II_mean", spy)
    compare.first_mvt_mean("x", "1+x^2", Interval(0.0, 2.0))
    return seen[0]


VECTOR_VIEW_MAPS = ("identity", "log", "power", "inverse", "first-mvt-base")


def _vector_view_case(name, monkeypatch):
    """A map of the named kind and sample points inside its domain."""
    inner = np.linspace(0.05, 0.95, 7)
    if name == "identity":
        return generator_map("x", Interval(0.0, 2.0)), 2.0 * inner
    if name == "log":
        return _log_map(), np.array([1e-3, 0.5, 1.0, 2.0, 1e3])
    if name == "power":
        return generator_map("x^2.5", Interval(0.5, 3.0)), 0.5 + 2.5 * inner
    if name == "inverse":
        inv = generator_map("x+exp(x)", Interval(0.0, 1.0)).inverse()
        return inv, inv.domain.lo + (inv.domain.hi - inv.domain.lo) * inner
    return _first_mvt_base_map(monkeypatch), 2.0 * inner


@pytest.mark.parametrize("name", VECTOR_VIEW_MAPS)
def test_vector_views_match_the_scalar_views(name, monkeypatch):
    m, xs = _vector_view_case(name, monkeypatch)
    want_v = np.array([m(x) for x in xs])
    want_d = np.array([m.derivative_at(x) for x in xs])
    np.testing.assert_array_max_ulp(m.value_many(xs), want_v, maxulp=2)
    np.testing.assert_array_max_ulp(m.derivative_many(xs), want_d, maxulp=2)


@pytest.mark.parametrize("name", VECTOR_VIEW_MAPS)
def test_vector_views_keep_the_input_shape(name, monkeypatch):
    m, xs = _vector_view_case(name, monkeypatch)
    grid = np.resize(xs, (2, 3))
    for many in (m.value_many, m.derivative_many):
        assert many(grid).shape == (2, 3)
        assert many(np.empty(0)).shape == (0,)


def test_constant_derivative_keeps_the_input_shape():
    m = generator_map("3*x+1", Interval(0.0, 1.0))
    grid = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    np.testing.assert_array_equal(m.derivative_many(grid), np.full((3, 2), 3.0))


@pytest.mark.parametrize(
    "src, domain",
    [
        ("tan(x)", Interval(1.0, 2.0)),
        ("tan(x)", Interval(1.0, 4.2)),
        ("1/x", Interval(-1.0, 1.0)),
    ],
    ids=["tan-one-pole", "tan-wide", "reciprocal"],
)
def test_pole_inside_the_domain_is_rejected(src, domain):
    with pytest.raises(DomainError, match="pole or jump"):
        generator_map(src, domain)


def test_pole_in_the_value_axis_window_is_rejected():
    # the value window of x on (0, 1] is padded past 0, where 1/x has a pole
    with pytest.raises(DomainError, match="pole or jump"):
        class_I_mean("x", Interval(0.0, 1.0, lo_open=True), "1/x")


@pytest.mark.parametrize(
    "src, domain",
    [
        ("x+exp(x)", Interval(0.0, 1.0)),
        ("-x-exp(x)", Interval(-1.0, 1.0)),
        ("x^3+x", Interval(-2.0, 3.0)),
        ("x+exp(x)", Interval(-math.inf, 2.0)),
        ("x^2.5", Interval(0.5, 3.0)),
        ("ln(x)", Interval(0.0, math.inf, lo_open=True)),
    ],
    ids=["bracketed", "decreasing", "odd-cubic", "half-line", "closed-form", "log"],
)
def test_inverse_vector_view_matches_the_scalar_view(src, domain, monkeypatch):
    g = generator_map(src, domain)
    inv = g.inverse()
    d = inv.domain
    inside = np.linspace(max(d.lo, -40.0), min(d.hi, 40.0), 17)[1:-1]
    outside = [u for u in (d.lo - 1.0, d.hi + 1.0, math.nan) if not math.isinf(u)]
    us = np.concatenate((inside, outside))
    want = np.array([inv._fval(u) for u in us])
    # inside the image the vector view makes no scalar inversion
    calls = []
    scalar_invert = GeneratorMap.invert
    monkeypatch.setattr(GeneratorMap, "invert", lambda m, u: calls.append(u) or scalar_invert(m, u))
    inv.value_many(inside)
    assert calls == []
    got = inv.value_many(us)
    # NaN exactly where the scalar view gives NaN: outside the image
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert not np.any(np.isnan(got[: len(inside)]))
    ok = ~np.isnan(want)
    # both views invert to the mixed 1e-12 residual tolerance of invert()
    tol = np.maximum(1e-12, 1e-12 * np.abs(us[ok]))
    assert np.all(np.abs(g.value_many(got[ok]) - us[ok]) <= tol)
    slope = np.abs(g.derivative_many(want[ok]))
    assert np.all(np.abs(got[ok] - want[ok]) * slope <= 2.0 * tol)
    dgot = inv.derivative_many(us)
    dwant = np.array([inv._dval(u) for u in us])
    np.testing.assert_array_equal(np.isnan(dgot), np.isnan(dwant))
    np.testing.assert_allclose(dgot[ok], dwant[ok], rtol=1e-9)
