"""Generator maps: inversion strategies, framing, bondedness checks."""
import dataclasses
import math
import pickle

import numpy as np
import pytest
import scipy.optimize

from isomean import classify, compare, frame, funmean, nummean
from isomean._errors import DomainError, NonMonotoneError, NotBondedError, InversionError, PreconditionError
from isomean.expr import const, differentiate, evaluate, mul, var
from isomean.frame import estimate_range_hull, generator_map, make_frame
from isomean.funmean import _log_map, class_I_mean, mean_problem
from isomean.invert import _real_root, apply_steps, invert_monotone, residual_ok, within
from isomean.intervals import Interval
from isomean.parse import parse


def test_closed_form_inverse_for_library_shapes():
    g = generator_map("exp(x)", Interval(0.0, 1.0))
    assert g.inverse_strategy == "closed-form"
    assert g.invert(math.e) == pytest.approx(1.0, abs=1e-14)
    assert g.invert(1.0) == pytest.approx(0.0, abs=1e-14)

    h = generator_map("ln(y)", Interval(0.5, 4.0))
    assert h.invert(math.log(2.0)) == pytest.approx(2.0, rel=1e-14)


def test_bracketed_inverse_for_composite_shapes():
    g = generator_map("x+exp(x)", Interval(0.0, 1.0))
    assert g.inverse_strategy == "bracketed-numeric"
    for x in (0.1, 0.5, 0.9):
        u = x + math.exp(x)
        assert g.invert(u) == pytest.approx(x, abs=1e-10)


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
    assert g.invert(u) == pytest.approx(want, rel=1e-14)
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


@pytest.mark.parametrize("source", ["sinh(x)", "cosh(x)", "exp(x)", "x^1.7"])
def test_closed_image_ends_are_the_maps_own_values(source):
    # The image is built from the map's array view, so each closed end is
    # bit for bit the map's one-point value there.
    rng = np.random.default_rng(7)
    e = parse(source)
    for _ in range(200):
        lo = float(rng.uniform(0.05, 4.0))
        hi = lo + float(rng.uniform(0.01, 4.0))
        g = generator_map(e, Interval(lo, hi))
        assert (g.image.lo, g.image.hi) == (g(lo), g(hi))


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: generator_map(np.exp, Interval(1.0, 2.0)),
        lambda: class_I_mean("x", Interval(1.0, 2.0), np.exp),
        lambda: funmean.class_II_mean("x", Interval(1.0, 2.0), np.exp),
        lambda: funmean.class_IV_mean("x", Interval(1.0, 2.0), np.exp, "y"),
    ],
    ids=["generator_map", "I", "II", "IV"],
)
def test_an_array_callable_map_is_a_precondition_error(build):
    # a map needs an expression to differentiate and invert
    with pytest.raises(PreconditionError, match="needs an expression"):
        build()


def test_degenerate_domain_is_rejected():
    with pytest.raises(Exception, match="non-degenerate"):
        generator_map("x", Interval(1.0, 1.0))


def test_inversion_outside_image_fails():
    g = generator_map("x^2", Interval(1.0, 2.0))
    with pytest.raises(InversionError):
        g.invert(100.0)


def test_frame_inversion_is_an_involution():
    fr = make_frame((("x^2", Interval(0.5, 2.0)), ("ln(y)", Interval(0.5, 8.0))))
    back = make_frame(tuple(dm.inverse().inverse() for dm in fr.dms))
    for x in (0.6, 1.0, 1.9):
        assert back.g(x) == pytest.approx(fr.g(x), rel=1e-10)
    for y in (0.7, 2.0, 7.5):
        assert back.h(y) == pytest.approx(fr.h(y), rel=1e-10)


def test_inverted_frame_swaps_evaluation_direction():
    fr = make_frame((("x", Interval(0.0, 2.0)), ("exp(y)", Interval(0.0, 1.0))))
    inv = make_frame(tuple(dm.inverse() for dm in fr.dms))
    # the inverted value map undoes the original one
    for y in (0.1, 0.5, 0.9):
        assert inv.h(fr.h(y)) == pytest.approx(y, abs=1e-10)


def test_estimate_range_hull_brackets_the_range():
    hull = estimate_range_hull(parse("sin(x)"), Interval(0.0, math.pi))
    assert hull.lo == pytest.approx(0.0, abs=1e-4)
    assert hull.hi == pytest.approx(1.0, abs=1e-4)
    assert hull.lo <= math.sin(1.0) <= hull.hi


def test_mean_problem_accepts_and_rejects_bonding():
    fr = make_frame((("x", Interval(0.0, 4.0)), ("ln(y)", Interval(0.1, 3.0))))
    ok = mean_problem(parse("sqrt(x)"), 1.0, 4.0, fr)
    assert ok.range_hull.lo == 1.0 and ok.range_hull.hi == 2.0

    # sqrt climbs to 3.16 > 3.0 on [1, 10]: the value hull escapes
    bad_frame = make_frame((("x", Interval(0.0, 12.0)), ("ln(y)", Interval(0.1, 3.0))))
    with pytest.raises(NotBondedError) as bad:
        mean_problem(parse("sqrt(x)"), 1.0, 10.0, bad_frame)
    assert "value hull" in str(bad.value)
    assert "evaluation interval" not in str(bad.value)


def test_map_overflowing_inside_an_unbounded_domain_inverts():
    # exp overflows past x ≈ 710, far inside the domain
    g = generator_map("exp(x)+x^3+x", Interval(-math.inf, math.inf))
    us = np.array([-51.0, -30.0, 0.0, 1.0, 10.0, 100.0])
    scalar = np.array([g.invert(u) for u in us])
    vector = g.inverse().value_many(us)
    assert residual_ok(g.value_many(scalar), us).all()
    assert residual_ok(g.value_many(vector), us).all()
    np.testing.assert_allclose(vector, scalar, rtol=0, atol=1e-11)


_HALF_LINE = Interval(0.0, math.inf, lo_open=True)


@pytest.mark.parametrize(
    "src, u",
    [
        # The ladder's top point, 1000, maps to +inf, so the secant start
        # falls on the bracket's low end; Newton steps from the overflow
        # side then shorten by about one unit each, and bisection must take
        # over.
        ("sinh(x)", 1e10),
        ("cosh(x)", 1e10),
        ("x+exp(x)", 1e3),
        ("x+exp(x)", 1e6),
        # Targets beyond the start box [0.001, 1000]: the ladder grows
        ("x^3+x", 1e15),  # along the infinite end,
        ("x+ln(x)", -50.0),  # tenfold toward the open 0,
        ("exp(x)-exp(x)/2", 1e300),  # and back from inf − inf at 1000.
    ],
)
def test_half_line_maps_invert_far_from_the_start_box(src, u):
    g = generator_map(src, _HALF_LINE)
    assert g.inverse_strategy == "bracketed-numeric"
    x = g.invert(u)
    assert residual_ok(g.value_many(np.array([x])), np.array([u])).all()


def test_iso_mean_under_a_half_line_map_overflowing_at_1000():
    g = generator_map("sinh(x)", _HALF_LINE)
    want = math.asinh(0.5 * (math.sinh(1.0) + math.sinh(30.0)))
    assert nummean.iso_mean((1.0, 30.0), g) == pytest.approx(want, rel=1e-14)


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
    if name == "inverse":
        # Its scalar views are one-point calls of its array views, so both
        # are checked against an independent reference instead.
        _check_inverse_views(m.inverse(), xs, (0.0, 1.0))
        return
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


def _check_inverse_views(g, us, bracket):
    """g's inverse map against scipy's brentq on g's `math` path.

    The reference solves evaluate(g.expr, x) = u over `bracket`, apart from
    the inversion engine.  Both views of the inverse (the array view and its
    one-point call) must be NaN, or raise, exactly outside g's image, meet
    the mixed 1e-12 residual tolerance of invert(), and give derivatives
    within rtol 1e-9 of 1/g′ at the reference.
    """
    inv = g.inverse()
    us = np.asarray(us, dtype=float)
    ok = np.array([g.image.contains(u) for u in us])
    ref = np.array([
        scipy.optimize.brentq(
            lambda x, u=u: evaluate(g.expr, x) - u, *bracket, xtol=1e-300, maxiter=500
        )
        for u in us[ok]
    ])
    dref = np.array([1.0 / evaluate(differentiate(g.expr), x) for x in ref])
    got, dgot = inv.value_many(us), inv.derivative_many(us)
    np.testing.assert_array_equal(np.isnan(got), ~ok)
    np.testing.assert_array_equal(np.isnan(dgot), ~ok)
    for u in us[~ok]:
        with pytest.raises(DomainError):
            inv(u)
    tol = np.maximum(1e-12, 1e-12 * np.abs(us[ok]))
    slope = np.abs(g.derivative_many(ref))
    for xs, ds in (
        (got[ok], dgot[ok]),
        (np.array([inv(u) for u in us[ok]]), np.array([inv.derivative_at(u) for u in us[ok]])),
    ):
        assert np.all(np.abs(g.value_many(xs) - us[ok]) <= tol)
        assert np.all(np.abs(xs - ref) * slope <= 2.0 * tol)
        np.testing.assert_allclose(ds, dref, rtol=1e-9)


@pytest.mark.parametrize(
    "src, domain, bracket",
    [
        ("x+exp(x)", Interval(0.0, 1.0), (0.0, 1.0)),
        ("-x-exp(x)", Interval(-1.0, 1.0), (-1.0, 1.0)),
        ("x^3+x", Interval(-2.0, 3.0), (-2.0, 3.0)),
        ("x+exp(x)", Interval(-math.inf, 2.0), (-50.0, 2.0)),
        ("x^2.5", Interval(0.5, 3.0), (0.5, 3.0)),
        ("ln(x)", Interval(0.0, math.inf, lo_open=True), (1e-20, 1e20)),
    ],
    ids=["bracketed", "decreasing", "odd-cubic", "half-line", "closed-form", "log"],
)
def test_inverse_vector_view_matches_the_scalar_view(src, domain, bracket):
    g = generator_map(src, domain)
    d = g.image
    inside = np.linspace(max(d.lo, -40.0), min(d.hi, 40.0), 17)[1:-1]
    outside = [u for u in (d.lo - 1.0, d.hi + 1.0, math.nan) if not math.isinf(u)]
    _check_inverse_views(g, np.concatenate((inside, outside)), bracket)


def test_one_point_inversion_stays_lean():
    # a numeric inversion on [0, 5] made about 26 map calls before the
    # engine took one array of targets
    g = generator_map("x+exp(x)", Interval(0.0, 5.0))
    calls = []

    def counted(view):
        return lambda xs: calls.append(np.size(xs)) or view(xs)

    g = dataclasses.replace(g, _fvec=counted(g._fvec), _dvec=counted(g._dvec))
    for x in (0.3, 1.2, 2.5, 4.9):
        calls.clear()
        assert g.invert(x + math.exp(x)) == pytest.approx(x, abs=1e-12)
        assert len(calls) <= 26


# -- the memo of verified builds --------------------------------------------


def test_same_expression_and_window_give_the_same_map():
    e = parse("x+exp(x)")
    d = Interval(0.0, 2.0)
    assert generator_map(e, d) is generator_map(e, d)
    assert generator_map("x+exp(x)", Interval(0.0, 2.0)) is generator_map(e, d)
    assert estimate_range_hull(e, d) is estimate_range_hull(e, d)
    # the sample count is part of the hull's key
    assert estimate_range_hull(e, d, 33) is not estimate_range_hull(e, d)


def test_signed_zero_windows_are_separate_builds():
    e = parse("x^3+x")
    plus, minus = Interval(0.0, 1.0), Interval(-0.0, 1.0)
    assert plus == minus
    assert generator_map(e, plus) is not generator_map(e, minus)
    assert math.copysign(1.0, generator_map(e, minus).domain.lo) == -1.0
    assert estimate_range_hull(e, plus) is not estimate_range_hull(e, minus)


def test_equal_but_distinct_trees_are_separate_builds():
    e = parse("x^2+1")
    twin = pickle.loads(pickle.dumps(e))
    assert twin == e and twin is not e
    d = Interval(0.5, 2.0)
    assert generator_map(twin, d) is not generator_map(e, d)
    assert generator_map(twin, d).expr is twin
    assert estimate_range_hull(twin, d) is not estimate_range_hull(e, d)


def test_a_failed_build_is_not_memoised(monkeypatch):
    calls = []
    original = frame.classify_monotonicity

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(frame, "classify_monotonicity", counting)
    e, d = parse("x^2"), Interval(-1.0, 1.0)
    for _ in range(3):
        with pytest.raises(NonMonotoneError):
            generator_map(e, d)
    assert len(calls) == 3


def test_callable_hulls_are_sampled_on_every_call():
    calls = []

    def f(xs):
        calls.append(np.size(xs))
        return np.sin(xs)

    d = Interval(0.0, 3.0)
    assert estimate_range_hull(f, d) == estimate_range_hull(f, d)
    assert len(calls) == 2


def test_the_memo_stays_bounded():
    e = parse("2*x+1")
    for k in range(10_000):
        estimate_range_hull(e, Interval(0.0, 1.0 + k / 1024))
    assert len(frame._memo) <= frame._MEMO_SIZE
    # the most recent builds are still there
    last = Interval(0.0, 1.0 + 9_999 / 1024)
    assert estimate_range_hull(e, last) is estimate_range_hull(e, last)


def test_a_tree_that_built_a_map_and_a_hull_still_pickles():
    e = parse("x^2")
    d = Interval(1.0, 2.0)
    generator_map(e, d).inverse().value_many(np.array([1.5, 2.5]))
    estimate_range_hull(e, d)
    assert pickle.loads(pickle.dumps(e)) == e


def test_the_hull_samples_the_ends_of_a_bounded_window_once():
    calls = []

    def counted(fn):
        def f(xs):
            calls.append(np.size(xs))
            return fn(xs)
        return f

    hull = estimate_range_hull(counted(np.sin), Interval(0.0, 3.0))
    assert calls == [257]
    assert hull.lo == 0.0
    # the grid only comes within 1e-6 of the closed end of a half-line
    calls.clear()
    hull = estimate_range_hull(counted(lambda xs: np.exp(-xs)), Interval(1.0, math.inf))
    assert calls == [257, 1]
    assert hull.hi == math.exp(-1.0)


def test_rebuilding_a_scenario_verifies_no_map_again(monkeypatch):
    # A lost memo shows here as classification work on the second build.
    monkeypatch.setattr(frame, "_memo", type(frame._memo)())
    counts = []
    original = classify.classify_monotonicity

    def counting(*args, **kwargs):
        counts[-1] += 1
        return original(*args, **kwargs)

    for mod in (classify, frame, compare, nummean, funmean):
        if getattr(mod, "classify_monotonicity", None) is original:
            monkeypatch.setattr(mod, "classify_monotonicity", counting)
    pos = Interval(0.0, math.inf, lo_open=True)
    w = Interval(0.3, 0.7)
    for _ in range(2):
        counts.append(0)
        s = compare.make_scenario(
            "exp(x)", w, (("x^2", pos), ("y^3", pos)), (("x", Interval(0.0, 3.0)), ("ln(y)", pos))
        )
        counts.append(0)
        assert compare.compare_function_means(s).relation == "GT"
    first_build, first_compare, second_build, second_compare = counts
    assert first_build > 0
    assert second_build == 0
    assert second_compare <= first_compare


# -- sub-windows of a verified window -------------------------------------------

_POS = Interval(0.0, math.inf, lo_open=True)

# (map, a verified window, a sub-window of it)
RESTRICTIONS = (
    ("ln(x)", _POS, Interval(0.0, 1.0, lo_open=True)),
    ("ln(x)", _POS, Interval(2.0, 3.0, hi_open=True)),
    ("x^2", _POS, Interval(0.5, 4.0)),
    ("x^2", _POS, Interval(0.0, 2.0, lo_open=True)),
    ("exp(-x)", Interval(-2.0, 6.0), Interval(0.0, 3.0, hi_open=True)),
    ("1/x", _POS, Interval(0.25, 8.0)),
    ("x+exp(x)", Interval(0.0, 5.0), Interval(1.0, 2.5)),
)


@pytest.fixture
def monotonicity_calls(monkeypatch):
    """A fresh memo, and the number of classify_monotonicity calls of the
    frame module so far."""
    monkeypatch.setattr(frame, "_memo", type(frame._memo)())
    calls = [0]
    original = frame.classify_monotonicity

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(frame, "classify_monotonicity", counting)
    return calls


@pytest.mark.parametrize("text, wide, d", RESTRICTIONS, ids=lambda v: str(v))
def test_a_restricted_map_equals_a_fresh_build(text, wide, d, monotonicity_calls):
    e = parse(text)
    generator_map(e, wide)
    assert monotonicity_calls == [1]
    restricted = generator_map(e, d)
    assert monotonicity_calls == [1]
    assert generator_map(e, d) is restricted
    fresh = frame._build_map(e, d)
    assert monotonicity_calls == [2]
    assert restricted == fresh
    for a, b in ((restricted.domain, fresh.domain), (restricted.image, fresh.image)):
        assert (a.lo_open, a.hi_open) == (b.lo_open, b.hi_open)
        assert _same_float(a.lo, b.lo) and _same_float(a.hi, b.hi)
    assert restricted.monotonicity == fresh.monotonicity
    assert restricted.inverse_strategy == fresh.inverse_strategy
    assert restricted._steps == fresh._steps
    xs = classify.sample_grid(d, 257)
    np.testing.assert_array_equal(restricted.value_many(xs), fresh.value_many(xs))
    np.testing.assert_array_equal(restricted.derivative_many(xs), fresh.derivative_many(xs))
    us = fresh.value_many(xs[1:-1:8])
    for u in us[np.isfinite(us)].tolist():
        assert _same_float(restricted.invert(u), fresh.invert(u)), u


def test_the_inversion_strategy_is_read_on_the_sub_window(monotonicity_calls):
    # x+exp(x) has no closed-form steps on any window; x^2.5 has them on both
    for text, strategy in (("x+exp(x)", "bracketed-numeric"), ("x^2.5", "closed-form")):
        e = parse(text)
        assert generator_map(e, Interval(0.0, 5.0)).inverse_strategy == strategy
        assert generator_map(e, Interval(1.0, 2.0)).inverse_strategy == strategy
    assert monotonicity_calls == [2]


def test_a_sub_window_query_verifies_nothing(monotonicity_calls):
    e = parse("exp(x)")
    generator_map(e, Interval(0.0, 4.0))
    for k in range(20):
        lo, hi = 0.1 * k, 2.0 + 0.1 * k
        g = generator_map(e, Interval(lo, hi, lo_open=k % 2 == 1))
        assert g.increasing and g.inverse_strategy == "closed-form"
        assert g.image.hi == evaluate(e, hi)
        if k % 2 == 0:
            assert g.image.lo == evaluate(e, lo)
    assert monotonicity_calls == [1]


def test_a_window_too_narrow_to_classify_is_restricted_once_a_wider_one_is_verified(
    monotonicity_calls,
):
    # Alone, 257 samples of 3x² on the tiny window read Unknown; once [-1, 1]
    # is verified, its sub-windows hold what it holds.
    e, tiny = parse("x^3"), Interval(-1e-6, 1e-6)
    with pytest.raises(NonMonotoneError, match="Unknown"):
        generator_map(e, tiny)
    generator_map(e, Interval(-1.0, 1.0))
    g = generator_map(e, tiny)
    assert g.increasing and g.domain == tiny
    assert (g.image.lo, g.image.hi) == (evaluate(e, -1e-6), evaluate(e, 1e-6))
    with pytest.raises(NonMonotoneError, match="Unknown"):
        frame._build_map(e, tiny)


def test_a_window_nothing_covers_is_still_verified(monotonicity_calls):
    recip, square = parse("1/x"), parse("x^2")
    generator_map(recip, _POS)
    generator_map(square, _POS)
    with pytest.raises(DomainError, match="pole or jump"):
        generator_map(recip, Interval(-1.0, 1.0))
    with pytest.raises(NonMonotoneError):
        generator_map(square, Interval(-1.0, 1.0))
    # failed builds are not kept among the verified windows
    for e in (recip, square):
        assert [g.domain for g in frame._memo[(frame._verified_map, id(e))][1]] == [_POS]
    # a degenerate window is built, and refused, as before
    with pytest.raises(PreconditionError):
        generator_map(square, Interval(1.0, 1.0))


def test_the_verified_windows_stay_bounded(monkeypatch):
    # The bound is bookkeeping, so builds are stubbed: a "verified" map here
    # is a bare GeneratorMap on the asked window.
    monkeypatch.setattr(frame, "_memo", type(frame._memo)())
    monkeypatch.setattr(frame, "_build_map", lambda e, d: frame.GeneratorMap(e, d, d, None, ""))

    def windows(e):
        return [g.domain for g in frame._memo[(frame._verified_map, id(e))][1]]

    e = parse("2*x+1")
    for k in range(10_000):
        generator_map(e, Interval(2.0 * k, 2.0 * k + 1.0))
    last = range(10_000 - frame._WINDOWS, 10_000)
    assert windows(e) == [Interval(2.0 * k, 2.0 * k + 1.0) for k in last]
    # a wider window replaces the windows it covers
    generator_map(e, Interval(19_990.0, 20_000.0))
    assert windows(e)[-1] == Interval(19_990.0, 20_000.0) and len(windows(e)) < frame._WINDOWS
    for k in range(10_000):
        generator_map(mul(const(k + 2.0), var()), Interval(0.0, 1.0))
    assert len(frame._memo) <= frame._MEMO_SIZE
    kept = [v[1] for k, v in frame._memo.items() if k[0] is frame._verified_map and len(k) == 2]
    assert kept and all(len(maps) <= frame._WINDOWS for maps in kept)


# -- the identity map by proof -------------------------------------------------

IDENTITY_WINDOWS = (
    Interval(0.0, 1.0),
    Interval(-3.0, 2.5),
    Interval(-5.0, -2.0),
    Interval(0.0, 1.0, lo_open=True),
    Interval(-1.0, 1.0, lo_open=True, hi_open=True),
    Interval(1e-3, 1e3, hi_open=True),
    Interval(0.0, math.inf, lo_open=True),
    Interval(2.0, math.inf),
    Interval(-math.inf, 0.0, hi_open=True),
    Interval(-math.inf, -1.0),
    Interval(-math.inf, math.inf),
    Interval(-0.0, 1.0),
    Interval(-1.0, -0.0),
    Interval(-0.0, 1.0, lo_open=True),
    Interval(-2.0, 0.0, hi_open=True),
)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("d", IDENTITY_WINDOWS, ids=str)
def test_the_identity_map_by_proof_equals_the_verified_build(d):
    proved, verified = frame.identity_map(d), frame._build_map(var(), d)
    assert proved == verified
    assert proved.expr is verified.expr
    for a, b in ((proved.domain, verified.domain), (proved.image, verified.image)):
        assert (a.lo_open, a.hi_open) == (b.lo_open, b.hi_open)
        assert _same_float(a.lo, b.lo) and _same_float(a.hi, b.hi)
    assert proved.monotonicity == verified.monotonicity
    assert proved.inverse_strategy == verified.inverse_strategy == "closed-form"
    assert proved._steps == verified._steps == ()
    xs = classify.sample_grid(d, 257)
    np.testing.assert_array_equal(proved.value_many(xs), verified.value_many(xs))
    np.testing.assert_array_equal(proved.derivative_many(xs), verified.derivative_many(xs))
    # the text "x" reaches the same memoised proof
    assert generator_map("x", d) is proved


def test_the_identity_map_samples_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the identity map was classified")

    monkeypatch.setattr(frame, "classify_monotonicity", refuse)
    monkeypatch.setattr(frame, "sample_grid", refuse)
    g = frame.identity_map(Interval(0.25, 0.75))
    assert (g.image.lo, g.image.hi) == (0.25, 0.75)


def test_the_identity_map_of_a_point_is_refused():
    with pytest.raises(PreconditionError):
        frame.identity_map(Interval(1.0, 1.0))
    with pytest.raises(PreconditionError):
        generator_map("x", Interval(-0.0, 0.0))


def test_a_value_map_beside_the_identity_is_still_verified():
    # the identity base map is proved; the 1/x value map still meets its pole
    with pytest.raises(DomainError, match="pole or jump"):
        class_I_mean("x", Interval(0.0, 1.0, lo_open=True), "1/x")


# -- one-point closed-form inversion -------------------------------------------

ONE_POINT_MAPS = (
    ("ln(x)", Interval(1.0, 10.0), True),
    ("exp(x)", Interval(-20.0, 2.0), True),
    ("2*x+1", Interval(0.0, 2.0), False),
    ("x^2.5", Interval(0.5, 5.0), False),
    ("x^3", Interval(-2.0, 2.0), False),
)


@pytest.mark.parametrize("text, d, rejects", ONE_POINT_MAPS, ids=[m[0] for m in ONE_POINT_MAPS])
def test_one_point_inversion_equals_the_array_engine_bit_for_bit(text, d, rejects):
    g = generator_map(text, d)
    assert g.inverse_strategy == "closed-form"
    lo, hi = g.image.lo, g.image.hi
    rng = np.random.default_rng(20231)
    # most targets inside the image, the rest within the slack past its ends
    inside = rng.uniform(lo, hi, 900)
    slack = lambda u: max(1e-9, 1e-9 * abs(u))
    past = np.concatenate([lo - rng.uniform(0.0, 1.0, 50) * slack(lo),
                           hi + rng.uniform(0.0, 1.0, 50) * slack(hi)])
    us = np.concatenate([inside, past, [lo, hi]])[:1000]
    c = apply_steps(g._steps, us)
    rejected = ~(within(g.domain, c) & residual_ok(g._fvec(c), us))
    assert bool(rejected.any()) == rejects
    # all targets in one call, so the rejected ones take the array loop
    for u, want in zip(us.tolist(), g._preimages(us).tolist()):
        if math.isnan(want):
            with pytest.raises(InversionError):
                g.invert(u)
        else:
            assert _same_float(g.invert(u), want), u


# -- one-point numeric inversion -----------------------------------------------

NUMERIC_MAPS = (
    ("x+exp(x)", Interval(0.0, 5.0)),
    ("x^3+x", Interval(0.0, 5.0)),
    ("sinh(x)", _HALF_LINE),
    ("cosh(x)", _HALF_LINE),
    ("x+ln(x)", _HALF_LINE),
    ("x^3+x", _HALF_LINE),
    ("exp(x)-exp(x)/2", _HALF_LINE),
    ("exp(x)+x^3+x", Interval(-math.inf, math.inf)),
    ("-x^3-x", Interval(-3.0, 2.0)),
    ("sin(x)", Interval(0.05, 1.55)),
    ("cos(x)", Interval(0.05, 1.55)),
)


@pytest.mark.parametrize("text, d", NUMERIC_MAPS, ids=[f"{m[0]} on {m[1]}" for m in NUMERIC_MAPS])
def test_one_numeric_target_equals_the_array_loop_bit_for_bit(text, d):
    # One target is solved in floats; many take the array loop.  Both must
    # give the same float, and NaN on the array side is an InversionError.
    g = generator_map(text, d)
    assert g.inverse_strategy == "bracketed-numeric"
    lo, hi = g.image.lo, g.image.hi
    rng = np.random.default_rng(20241)
    slack = lambda u: max(1e-9, 1e-9 * abs(u))
    # inside the image: uniform over its part within ±100, and magnitudes
    # up to 1e308 toward an infinite end
    parts = [rng.uniform(max(lo, -100.0), min(hi, 100.0), 240)]
    for end, is_open, sign in ((lo, g.image.lo_open, -1.0), (hi, g.image.hi_open, 1.0)):
        if math.isinf(end):
            parts.append(sign * 10.0 ** rng.uniform(2.0, 308.0, 60))
            continue
        # just inside the end, and at and past a closed end within the slack
        parts.append(end - sign * rng.uniform(0.0, 1.0, 30) * slack(end))
        if not is_open:
            parts.append(end + sign * rng.uniform(0.0, 1.0, 30) * slack(end))
            parts.append([end])
    us = np.concatenate(parts)
    many = g._preimages(us)
    assert not np.isnan(many[: len(parts[0])]).any()
    for u, want in zip(us.tolist(), many.tolist()):
        if math.isnan(want):
            with pytest.raises(InversionError):
                g.invert(u)
        else:
            assert _same_float(g.invert(u), want), u


def _quiet(f):
    def view(xs):
        with np.errstate(all="ignore"):
            return f(np.asarray(xs, dtype=float))
    return view


# (domain, map, derivative) where the array loop divides by zero or meets NaN
EDGE_VIEWS = {
    # g′ = 0: every Newton step is ±inf, so every step bisects
    "zero-derivative": (Interval(-1.0, 1.0), lambda x: x**3, lambda x: 0.0 * x),
    # a jump no target inside it meets: bisection down to the 8-ulp
    # collapse, or from 1e300 wide to the 200-step cap and its 1e-9 test
    "jump": (Interval(-1e300, 1e300), lambda x: np.where(x > 0, 5e-10, -5e-10), lambda x: 0.0 * x),
    # defined only near 0: a one-point ladder, whose bracket is flat
    "middle-only": (Interval(-1.0, 1.0), lambda x: np.where(np.abs(x) < 0.1, x**3 + x, np.nan),
                    lambda x: 3.0 * x**2 + 1.0),
    # NaN values inside the bracket
    "hole": (Interval(-1.0, 1.0), lambda x: np.where((x > 0.3) & (x < 0.31), np.nan, x**3 + x),
             lambda x: 3.0 * x**2 + 1.0),
    # integer steps: ladder values tie
    "floor": (Interval(-10.0, 10.0), np.floor, lambda x: 0.0 * x),
}


@pytest.mark.parametrize("increasing", (True, False))
@pytest.mark.parametrize("name", EDGE_VIEWS)
def test_one_target_follows_the_array_loop_where_it_divides_by_zero(name, increasing):
    d, f, df = EDGE_VIEWS[name]
    sign = 1.0 if increasing else -1.0
    fvec, dvec = _quiet(lambda x: sign * f(x)), _quiet(lambda x: sign * df(x))
    us = np.concatenate([np.linspace(-2.0, 2.0, 41), [1e-10, 5e-13, 0.3 + 1e-11]])
    for u in (sign * us).tolist():
        # two copies of one target take the array loop, on the same ladder
        one = invert_monotone(fvec, d, np.array([u]), increasing, dvec)[0]
        two = invert_monotone(fvec, d, np.array([u, u]), increasing, dvec)[0]
        assert _same_float(one, two) or (math.isnan(one) and math.isnan(two)), u
