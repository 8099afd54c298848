"""Quasi-arithmetic means of number tuples and their comparison verdicts."""
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import isomean.expr as expr_mod
from isomean import nummean
from isomean._errors import ComparisonContradiction, DomainError, WeightError
from isomean.classify import classify_convexity
from isomean.frame import generator_map
from isomean.intervals import Interval
from isomean.nummean import (
    WeightedTuple,
    compare_number_means,
    iso_mean,
    iso_weighted_mean,
)
from isomean.verdict import Verdict

POS = Interval(0.05, 50.0)


def log_map():
    return generator_map("ln(y)", POS)


def power_map(p):
    return generator_map(f"y^{p}" if p != 0 else "ln(y)", POS)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_log_map_gives_the_geometric_mean():
    assert iso_mean([2.0, 8.0], log_map()) == pytest.approx(4.0, rel=1e-12)
    assert iso_mean([1.0, 3.0, 9.0], log_map()) == pytest.approx(3.0, rel=1e-12)


def test_reciprocal_map_gives_the_harmonic_mean():
    g = generator_map("1/y", POS)
    assert iso_mean([2.0, 8.0], g) == pytest.approx(3.2, rel=1e-12)


def test_square_map_gives_the_quadratic_mean():
    g = power_map(2)
    assert iso_mean([1.0, 7.0], g) == pytest.approx(math.sqrt(25.0), rel=1e-12)


def test_identity_map_gives_the_arithmetic_mean():
    g = generator_map("y", POS)
    assert iso_mean([0.1, 0.2, 0.9], g) == pytest.approx(0.4, rel=1e-12)


def test_weighted_two_point_geometric():
    t = WeightedTuple((2.0, 8.0), (0.25, 0.75))
    want = 2.0**0.25 * 8.0**0.75
    assert iso_weighted_mean(t, log_map()) == pytest.approx(want, rel=1e-12)


def test_weights_must_be_normalised():
    with pytest.raises(WeightError, match="sum to"):
        WeightedTuple((2.0, 8.0), (1.0, 3.0))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_weighted_tuple_validation():
    with pytest.raises(WeightError, match="strictly positive"):
        WeightedTuple((1.0, 2.0), (0.5, -0.1))
    with pytest.raises(WeightError, match="strictly positive"):
        WeightedTuple((1.0, 2.0), (0.0, 0.0))
    with pytest.raises(WeightError, match="at least two"):
        WeightedTuple((1.0,), (0.5, 0.5))


# ---------------------------------------------------------------------------
# comparison verdicts
# ---------------------------------------------------------------------------

SIN_LOG_SWAP = 0.8603335890193797  # where the sin/log mean ordering flips


def test_an_entry_whose_value_overflows_is_a_domain_error():
    # sinh overflows past x ≈ 710, inside its half-line domain
    g = generator_map("sinh(x)", Interval(0.0, math.inf, lo_open=True))
    with pytest.raises(DomainError, match=r"map undefined at 800\.0$"):
        iso_mean((1.0, 800.0, 900.0), g)


def test_sine_vs_log_ordering_flips_at_the_known_point():
    below = Interval(0.1, SIN_LOG_SWAP - 1e-3)
    g_sin = generator_map("sin(y)", Interval(0.01, 1.5))
    g_log = generator_map("ln(y)", Interval(0.01, 1.5))
    v = compare_number_means(g_sin, g_log, below)
    assert v.relation == "GE"

    above = Interval(SIN_LOG_SWAP + 1e-3, 1.5)
    v2 = compare_number_means(g_sin, g_log, above)
    assert v2.relation == "LE"

    # spot-check the ordering numerically on the lower window
    xs = [0.15, 0.6]
    m_sin = iso_mean(xs, g_sin)
    m_log = iso_mean(xs, g_log)
    assert m_sin >= m_log - 1e-12


def test_sinh_vs_cosh_ordering():
    d = Interval(0.2, 1.2)
    g1 = generator_map("sinh(y)", Interval(0.01, 2.0))
    g2 = generator_map("cosh(y)", Interval(0.01, 2.0))
    v = compare_number_means(g1, g2, d)
    assert v.relation == "LE"
    xs = [0.3, 1.1]
    assert iso_mean(xs, g1) <= iso_mean(xs, g2) + 1e-12


def test_equivalent_maps_compare_equal():
    d = Interval(0.5, 2.0)
    g1 = generator_map("ln(y)", POS)
    g2 = generator_map("3*ln(y)+1", POS)  # same mean, rescaled generator
    v = compare_number_means(g1, g2, d)
    assert v.relation == "EQ"


def test_verdict_direction_and_agreement_api():
    d = Interval(0.2, 1.2)
    v = compare_number_means(
        generator_map("sinh(y)", Interval(0.01, 2.0)),
        generator_map("cosh(y)", Interval(0.01, 2.0)),
        d,
    )
    assert v.decided
    assert v.direction() == -1
    assert v.agrees_with_sign(-0.01, 1e-9)
    assert not v.agrees_with_sign(+0.01, 1e-9)


def assert_checked_on_two_point_means(numeric):
    assert list(numeric) == ["tuples", "skipped", "worst_margin"]
    assert (numeric["tuples"], numeric["skipped"]) == (408, 0)
    assert numeric["worst_margin"] >= 0.0


_POWER_DOMAIN = Interval(0.0, math.inf, lo_open=True)
_EXP_DOMAIN = Interval(-1.0, 5.0)


@pytest.mark.parametrize(
    "g, h, domain, relation",
    [
        ("x^3", "x^1.5", _POWER_DOMAIN, "GE"),
        ("x^1.5", "x^3", _POWER_DOMAIN, "LE"),
        ("exp(x)", "x", _EXP_DOMAIN, "GE"),
        ("x", "exp(x)", _EXP_DOMAIN, "LE"),
        ("2*x+1", "x", _POWER_DOMAIN, "EQ"),
    ],
)
def test_ratio_route_justification_and_evidence(g, h, domain, relation):
    v = compare_number_means(generator_map(g, domain), generator_map(h, domain), Interval(0.7, 1.9))
    assert (v.relation, v.justification) == (relation, "ratio-criterion")
    numeric = v.evidence.pop("numeric")
    assert v.evidence == {"window": "[0.7, 1.9]", "resolution": 257, "route": "ratio"}
    assert_checked_on_two_point_means(numeric)


# For g = x + x^22/22 against h = x on [0.01, 1], the derivative 21·x^20 of
# g'/h' stays below the 1e-12 sign floor on 78 of the 257 samples: the
# ratio reads Unknown and the shape of the conjugate g∘h⁻¹ decides.
_JENSEN_DOMAIN = Interval(0.0, 1.02)


@pytest.mark.parametrize(
    "g, h, relation, case",
    [
        ("x + x^22/22", "x", "GE", 1),
        ("x", "x + x^22/22", "LE", 2),
        ("x + x^22/22", "-x", "GE", 1),
        ("-x", "x + x^22/22", "LE", 3),
        ("-(x + x^22/22)", "x", "GE", 4),
        ("x", "-(x + x^22/22)", "LE", 2),
        ("-(x + x^22/22)", "-x", "GE", 4),
        ("-x", "-(x + x^22/22)", "LE", 3),
        ("x - x^22/44", "x", "LE", 2),
        ("x", "x - x^22/44", "GE", 1),
        ("x - x^22/44", "-x", "LE", 2),
        ("-x", "x - x^22/44", "GE", 4),
    ],
)
def test_jensen_route_cases(g, h, relation, case):
    gm, hm = generator_map(g, _JENSEN_DOMAIN), generator_map(h, _JENSEN_DOMAIN)
    v = compare_number_means(gm, hm, Interval(0.01, 1.0))
    assert (v.relation, v.justification) == (relation, f"jensen-criterion case {case}")
    assert list(v.evidence) == ["window", "resolution", "route", "conjugate_window", "numeric"]
    assert v.evidence["route"] == "jensen"
    assert_checked_on_two_point_means(v.evidence["numeric"])
    # The verdict speaks of every tuple in the window; test it on one.
    xs = [0.05, 0.5, 0.97]
    diff = iso_mean(xs, gm) - iso_mean(xs, hm)
    assert v.agrees_with_sign(diff, 1e-12)


def test_a_flipped_jensen_reading_contradicts_the_two_point_means(monkeypatch):
    reading = nummean._jensen_reading

    def flipped(*args):
        conv, rel, label = reading(*args)
        return conv, {"GE": "LE", "LE": "GE"}[rel], label

    monkeypatch.setattr(nummean, "_jensen_reading", flipped)
    gm, hm = generator_map("x + x^22/22", _JENSEN_DOMAIN), generator_map("x", _JENSEN_DOMAIN)
    with pytest.raises(ComparisonContradiction, match="jensen-criterion case 1"):
        compare_number_means(gm, hm, Interval(0.01, 1.0))


@pytest.mark.parametrize(
    "g, h, kind, flipped",
    [
        ("x^3", "x^1.5", "StrictlyIncreasing", "LE"),
        ("x^1.5", "x^3", "StrictlyDecreasing", "GE"),
        ("x^3", "x^1.5", "StrictlyIncreasing", "EQ"),
    ],
)
def test_a_flipped_ratio_relation_contradicts_the_two_point_means(monkeypatch, g, h, kind, flipped):
    monkeypatch.setitem(nummean._RATIO_RELATION, kind, flipped)
    gm, hm = generator_map(g, _POWER_DOMAIN), generator_map(h, _POWER_DOMAIN)
    with pytest.raises(ComparisonContradiction, match=f"criterion says {flipped}"):
        compare_number_means(gm, hm, Interval(0.7, 1.9))


@pytest.mark.parametrize("relation", ["GE", "LE", "GT", "LT", "EQ", "Undecided"])
def test_agreement_on_arrays_is_agreement_on_each_element(relation):
    v = Verdict(relation, "pinned")
    diffs = [-2.0, -0.5, 0.0, 0.5, 2.0, math.nan]
    got = v.agrees_with_sign(np.array(diffs), np.ones(len(diffs)))
    assert got.tolist() == [v.agrees_with_sign(x, 1.0) for x in diffs]


def test_degenerate_window_is_pinned():
    v = compare_number_means(generator_map("x", POS), generator_map("x^2", POS), Interval(1.0, 1.0))
    assert (v.relation, v.justification) == ("EQ", "degenerate-window")
    assert v.evidence == {"window": "[1.0, 1.0]"}


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

points = st.lists(st.floats(0.1, 40.0), min_size=2, max_size=6)


@given(points)
def test_mean_lies_between_extremes(xs):
    g = log_map()
    m = iso_mean(xs, g)
    assert min(xs) - 1e-9 <= m <= max(xs) + 1e-9


@given(points, st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
def test_mean_ignores_generator_rescaling(xs, k, c):
    base = generator_map("ln(y)", POS)
    scaled = generator_map(f"{k!r}*ln(y)+{c!r}", POS)
    assert iso_mean(xs, scaled) == pytest.approx(iso_mean(xs, base), rel=1e-9)


@given(points)
def test_mean_is_permutation_invariant(xs):
    g = power_map(2)
    assert iso_mean(list(reversed(xs)), g) == pytest.approx(iso_mean(xs, g), rel=1e-12)


@given(st.floats(0.2, 30.0))
def test_mean_of_constant_tuple_is_the_constant(x):
    assert iso_mean([x, x, x], log_map()) == pytest.approx(x, rel=1e-12)


# ---------------------------------------------------------------------------
# derived trees are built once per map pair
# ---------------------------------------------------------------------------


def test_comparing_the_same_maps_again_lowers_no_tree(monkeypatch):
    monkeypatch.setattr(nummean, "_derived", type(nummean._derived)())
    g, h = power_map(3), log_map()
    lowered = []
    original = expr_mod._lower

    def counting(root):
        lowered[-1] += 1
        return original(root)

    monkeypatch.setattr(expr_mod, "_lower", counting)
    d = Interval(0.1, 10.0)
    for _ in range(2):
        lowered.append(0)
        assert compare_number_means(g, h, d).relation == "GE"
    assert lowered[0] > 0
    assert lowered[1] == 0


def test_the_conjugate_tree_is_built_once_per_pair(monkeypatch):
    monkeypatch.setattr(nummean, "_derived", type(nummean._derived)())
    g, h = power_map(3), log_map()
    phi = nummean._conjugate_fn(g, h)
    assert nummean._conjugate_fn(g, h) is phi
    assert nummean._conjugate_fn(h, g) is not phi
    ratio = nummean._ratio_classifier(g, h)
    assert nummean._ratio_classifier(g, h) is ratio
    assert nummean._ratio_classifier(h, g) is not ratio
    w = Interval(-1.0, 2.0)
    assert classify_convexity(phi, w).kind == "StrictlyConvex"
    lowered, original = [], expr_mod._lower
    monkeypatch.setattr(expr_mod, "_lower", lambda root: lowered.append(root) or original(root))
    assert classify_convexity(nummean._conjugate_fn(g, h), w).kind == "StrictlyConvex"
    assert lowered == []


def test_the_derived_tree_memo_stays_bounded():
    h = log_map()
    d = Interval(0.1, 10.0)
    for k in range(40):
        compare_number_means(power_map(1 + k / 8), h, d)
        assert len(nummean._derived) <= 32
    assert len(nummean._derived) == nummean._DERIVED_SIZE == 32


def test_the_derived_tree_memo_holds_its_bound_under_threads():
    maps = [power_map(1 + k / 8) for k in range(24)]
    h = log_map()
    errors = []

    def work(offset):
        try:
            for k in range(200):
                g = maps[(k + offset) % len(maps)]
                nummean._ratio_classifier(*((g, h) if k % 2 == 0 else (h, g)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(nummean._derived) <= 32
    # every entry still maps its key to a tree of its own two maps
    for key, (held, tree) in list(nummean._derived.items()):
        assert key[1:3] == (id(held[0]), id(held[1]))
