"""Ordering verdicts between two framed function means.

Each decided verdict is cross-checked against the numeric mean values by
the library itself; these tests additionally pin the expected relations,
scenario labels, and closed forms, and exercise the honest ``Undecided``
answers plus the contradiction trap.
"""
import math

import pytest

import isomean.compare as compare_mod
import isomean.expr as expr_mod
from isomean import frame, nummean
from isomean._errors import ComparisonContradiction, PreconditionError
from isomean.compare import compare_function_means, first_mvt_mean, make_scenario
from isomean.frame import generator_map
from isomean.intervals import Interval
from isomean.verdict import Verdict

POS = Interval(0.0, math.inf, lo_open=True)


def scenario_of(f, window, left, right):
    return make_scenario(f, Interval(*window), left, right)


# ---------------------------------------------------------------------------
# scenario detection
# ---------------------------------------------------------------------------


class TestDetection:
    def test_identity_base_maps(self):
        s = scenario_of(
            "x^2",
            (1.0, 2.0),
            (("x", Interval(0.5, 2.5)), ("y^2", Interval(0.5, 7.0))),
            (("x", Interval(0.5, 2.5)), ("y", Interval(0.5, 7.0))),
        )
        assert s.scenario == "ClassI"

    def test_identity_value_maps(self):
        s = scenario_of(
            "x^2",
            (1.0, 2.0),
            (("x^2", Interval(0.5, 2.5)), ("y", Interval(0.5, 7.0))),
            (("x", Interval(0.5, 2.5)), ("y", Interval(0.5, 7.0))),
        )
        assert s.scenario == "ClassII"

    def test_each_side_pairs_its_own_map(self):
        s = scenario_of(
            "x",
            (0.5, 2.0),
            (generator_map("x^3", POS), generator_map("y^3", POS)),
            (generator_map("x^2", POS), generator_map("y^2", POS)),
        )
        assert s.scenario == "ClassIII-pair"

    def test_sides_exchange_their_maps(self):
        wide = Interval(0.05, 1.55)
        s = scenario_of(
            "pi/2-x",
            (0.3, 1.2),
            (generator_map("cos(x)", wide), generator_map("sin(y)", wide)),
            (generator_map("sin(x)", wide), generator_map("cos(y)", wide)),
        )
        assert s.scenario == "ExchangedDMs"

    def test_shared_base_map(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("y^2", POS)),
            (generator_map("x^2", POS), generator_map("y", Interval(0.0, 9.0))),
        )
        assert s.scenario == "SameIVDM"

    def test_shared_value_map(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("y^2", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y^2", POS)),
        )
        assert s.scenario == "SamePVDM"

    def test_identity_function_is_bivariate(self):
        s = scenario_of(
            "x",
            (1.0, 2.0),
            (generator_map("ln(x)", POS), generator_map("y", Interval(0.0, 4.0))),
            (generator_map("x^2", POS), generator_map("y^3", POS)),
        )
        assert s.scenario == "ClassV"

    def test_everything_different(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("ln(y)", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y", POS)),
        )
        assert s.scenario == "GeneralIV"

    def test_affine_rescales_do_not_change_detection(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("3*y^2+1", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y^2", POS)),
        )
        assert s.scenario == "SamePVDM"

    def test_window_must_sit_inside_the_function_domain(self):
        with pytest.raises(PreconditionError):
            make_scenario(
                "x",
                Interval(1.0, 1.0),  # degenerate windows carry no ordering
                (generator_map("x", Interval(0.0, 3.0)), generator_map("y", Interval(0.0, 3.0))),
                (generator_map("x^2", POS), generator_map("y^2", POS)),
            )


# ---------------------------------------------------------------------------
# decided orderings with closed forms
# ---------------------------------------------------------------------------


class TestWorkedExamples:
    def test_value_map_ratio_orders_quadratic_over_plain(self):
        s = scenario_of(
            "exp(x)",
            (0.0, 1.0),
            (("x", Interval(-0.5, 1.5)), ("y^2", Interval(0.5, 9.0))),
            (("x", Interval(-0.5, 1.5)), ("y", Interval(0.5, 9.0))),
        )
        v = compare_function_means(s)
        assert v.relation == "GE"
        left = v.evidence["numeric"]["left"]
        want = math.sqrt((math.e**2 - 1.0) / 2.0)  # quadratic mean of exp
        assert left == pytest.approx(want, rel=1e-9)

    def test_base_map_weighting_orders_quadratic_over_identity(self):
        a, b = 1.0, 2.0
        idv = generator_map("y", Interval(0.0, 3.0))
        s = scenario_of(
            "x",
            (a, b),
            (generator_map("x^2", POS), idv),
            (generator_map("x", Interval(0.0, 3.0)), idv),
        )
        v = compare_function_means(s)
        assert v.relation == "GT" and v.strict
        left = v.evidence["numeric"]["left"]
        assert left == pytest.approx(2 * (a * a + a * b + b * b) / (3 * (a + b)), rel=1e-9)
        assert v.evidence["numeric"]["right"] == pytest.approx(1.5, rel=1e-9)

    def test_log_weighting_undershoots_for_increasing_functions(self):
        idv = generator_map("y", Interval(0.0, 15.0))
        s = scenario_of(
            "tan(x)",
            (0.1, 1.5),
            (generator_map("ln(x)", POS), idv),
            (generator_map("x", Interval(0.0, 2.0)), idv),
        )
        v = compare_function_means(s)
        assert v.relation == "LT"
        assert s.scenario == "ClassII"

    def test_sine_weight_against_cosine_weight(self):
        idv = generator_map("y", Interval(0.0, 2.0))
        s = scenario_of(
            "x",
            (0.3, 1.2),
            (generator_map("sin(x)", Interval(0.0, 1.55)), idv),
            (generator_map("cos(x)", Interval(0.0, 1.55)), idv),
        )
        v = compare_function_means(s)
        assert v.relation == "LT"

    def test_paired_power_maps_order_by_exponent(self):
        s = scenario_of(
            "x",
            (1.0, 2.0),
            (generator_map("x^3", POS), generator_map("y^3", POS)),
            (generator_map("x^2", POS), generator_map("y^2", POS)),
        )
        v = compare_function_means(s)
        assert v.relation == "GT"
        assert v.evidence["numeric"]["left"] == pytest.approx(4.5 ** (1.0 / 3.0), rel=1e-9)
        assert v.evidence["numeric"]["right"] == pytest.approx(math.sqrt(2.5), rel=1e-9)

    def test_exchanged_trig_maps_under_a_reflection(self):
        a, b = 0.3, 1.2
        wide = Interval(0.05, 1.55)
        s = scenario_of(
            "pi/2-x",
            (a, b),
            (generator_map("cos(x)", wide), generator_map("sin(y)", wide)),
            (generator_map("sin(x)", wide), generator_map("cos(y)", wide)),
        )
        v = compare_function_means(s)
        assert v.relation == "LT"
        lv = v.evidence["numeric"]["left"]
        rv = v.evidence["numeric"]["right"]
        assert lv == pytest.approx(math.asin((math.cos(a) + math.cos(b)) / 2.0), abs=1e-9)
        assert rv == pytest.approx(math.acos((math.sin(a) + math.sin(b)) / 2.0), abs=1e-9)

    def test_general_frames_with_aligned_weight_and_value_growth(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("y^3", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y", Interval(0.0, 99.0))),
        )
        assert s.scenario == "GeneralIV"
        v = compare_function_means(s)
        assert v.relation == "GT"
        # left side in closed form: cube root of the x^2-weighted average
        # of exp(3x), i.e. of integral x*exp(3x) over [0.5, 1.5]
        anti = lambda x: math.exp(3.0 * x) * (x / 3.0 - 1.0 / 9.0)
        want = (anti(1.5) - anti(0.5)) ** (1.0 / 3.0)
        assert v.evidence["numeric"]["left"] == pytest.approx(want, rel=1e-9)

    def test_affine_base_maps_agree_exactly(self):
        idv = generator_map("y", Interval(0.0, 9.0))
        s = scenario_of(
            "x",
            (1.0, 2.0),
            (generator_map("2*x+1", Interval(0.0, 3.0)), idv),
            (generator_map("x", Interval(0.0, 3.0)), idv),
        )
        v = compare_function_means(s)
        assert v.relation == "EQ"
        assert v.direction() == 0

    def test_rescaled_value_maps_agree_exactly(self):
        base = generator_map("x", Interval(0.0, 3.0))
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (base, generator_map("3*ln(y)+2", POS)),
            (base, generator_map("ln(y)", POS)),
        )
        v = compare_function_means(s)
        assert v.relation == "EQ"
        diff = v.evidence["numeric"]["difference"]
        assert abs(diff) < 1e-10

    def test_constant_function_short_circuits_to_equality(self):
        s = scenario_of(
            "2+0*x",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("y^2", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("ln(y)", POS)),
        )
        v = compare_function_means(s)
        assert v.relation == "EQ"
        assert v.justification == "constant-function"


# ---------------------------------------------------------------------------
# honest refusals
# ---------------------------------------------------------------------------


class TestUndecided:
    def test_paired_maps_need_an_increasing_function(self):
        w = Interval(0.5, 2.0)
        cubic = (generator_map("x^3", POS), generator_map("y^3", POS))
        ident = (generator_map("x", Interval(0.0, 3.0)), generator_map("y", Interval(0.0, 3.0)))
        for left, right in ((cubic, ident), (ident, cubic)):
            s = make_scenario("1/x", w, left, right)
            assert s.scenario == "ClassIII-pair"
            v = compare_function_means(s)
            assert not v.decided
            with pytest.raises(ValueError, match="no direction"):
                v.direction()

    def test_exchanged_maps_need_a_decreasing_function(self):
        wide = Interval(0.05, 1.55)
        cs = (generator_map("cos(x)", wide), generator_map("sin(y)", wide))
        sc = (generator_map("sin(x)", wide), generator_map("cos(y)", wide))
        win = Interval(0.3, 1.2)
        for left, right in ((cs, sc), (sc, cs)):
            s = make_scenario("x", win, left, right)
            assert s.scenario == "ExchangedDMs"
            assert not compare_function_means(s).decided

    def test_general_frames_with_conflicting_growth(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("ln(y)", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y", POS)),
        )
        assert s.scenario == "GeneralIV"
        assert not compare_function_means(s).decided

    def test_undecided_still_reports_the_numbers(self):
        s = scenario_of(
            "exp(x)",
            (0.5, 1.5),
            (generator_map("x^2", POS), generator_map("ln(y)", POS)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y", POS)),
        )
        v = compare_function_means(s)
        numeric = v.evidence["numeric"]
        assert {"left", "right", "difference", "budget"} <= set(numeric)
        assert numeric["budget"] >= 1e-7


# ---------------------------------------------------------------------------
# the contradiction trap
# ---------------------------------------------------------------------------


def test_wrong_strict_verdict_trips_the_numeric_cross_check(monkeypatch):
    idv = generator_map("y", Interval(0.0, 3.0))
    s = scenario_of(
        "x",
        (1.0, 2.0),
        (generator_map("x^2", POS), idv),
        (generator_map("x", Interval(0.0, 3.0)), idv),
    )
    monkeypatch.setitem(
        compare_mod._HANDLERS, "ClassII", lambda _s: Verdict("LT", "forced-wrong", {})
    )
    with pytest.raises(ComparisonContradiction, match="contradicts"):
        compare_function_means(s)


def test_wrong_equality_verdict_also_trips(monkeypatch):
    idv = generator_map("y", Interval(0.0, 3.0))
    s = scenario_of(
        "x",
        (1.0, 2.0),
        (generator_map("x^2", POS), idv),
        (generator_map("x", Interval(0.0, 3.0)), idv),
    )
    monkeypatch.setitem(
        compare_mod._HANDLERS, "ClassII", lambda _s: Verdict("EQ", "forced-wrong", {})
    )
    with pytest.raises(ComparisonContradiction):
        compare_function_means(s)


# ---------------------------------------------------------------------------
# pinned justifications and evidence keys, one case per rule outcome
# ---------------------------------------------------------------------------

_WIDE = Interval(0.05, 1.55)
_ID_BASE = ("x", Interval(0.5, 2.5))
_ID_VALUE = ("y", Interval(0.5, 7.0))

# (f, window, left frame, right frame) → (scenario, relation, justification,
# evidence keys besides "numeric").  The first eight are the frames of
# TestDetection.
_PINNED = {
    "class-I": (
        ("x^2", (1.0, 2.0), (_ID_BASE, ("y^2", Interval(0.5, 7.0))), (_ID_BASE, _ID_VALUE)),
        ("ClassI", "GE", "value-map-ratio", ["value_ratio_monotonicity"]),
    ),
    "class-II": (
        ("x^2", (1.0, 2.0), (("x^2", Interval(0.5, 2.5)), _ID_VALUE), (_ID_BASE, _ID_VALUE)),
        ("ClassII", "GT", "base-map-ratio", ["base_ratio_monotonicity", "f_monotonicity"]),
    ),
    "class-III-pair": (
        ("x", (0.5, 2.0), (("x^3", POS), ("y^3", POS)), (("x^2", POS), ("y^2", POS))),
        ("ClassIII-pair", "GT", "paired-map-ratio",
         ["window_ratio_monotonicity", "hull_ratio_monotonicity", "f_monotonicity"]),
    ),
    "exchanged": (
        ("pi/2-x", (0.3, 1.2), (("cos(x)", _WIDE), ("sin(y)", _WIDE)),
         (("sin(x)", _WIDE), ("cos(y)", _WIDE))),
        ("ExchangedDMs", "LT", "exchanged-map-ratio",
         ["window_ratio_monotonicity", "hull_ratio_monotonicity", "f_monotonicity"]),
    ),
    "same-base": (
        ("exp(x)", (0.5, 1.5), (("x^2", POS), ("y^2", POS)),
         (("x^2", POS), ("y", Interval(0.0, 9.0)))),
        ("SameIVDM", "GE", "value-map-ratio", ["value_ratio_monotonicity"]),
    ),
    "same-value": (
        ("exp(x)", (0.5, 1.5), (("x^2", POS), ("y^2", POS)),
         (("x", Interval(0.0, 3.0)), ("y^2", POS))),
        ("SamePVDM", "GT", "base-map-ratio", ["base_ratio_monotonicity", "f_monotonicity"]),
    ),
    "class-V": (
        ("x", (1.0, 2.0), (("ln(x)", POS), ("y", Interval(0.0, 4.0))), (("x^2", POS), ("y^3", POS))),
        ("ClassV", "LT", "dual-ratio case 2",
         ["base_ratio_monotonicity", "value_ratio_monotonicity", "f_monotonicity"]),
    ),
    "general": (
        ("exp(x)", (0.5, 1.5), (("x^2", POS), ("ln(y)", POS)),
         (("x", Interval(0.0, 3.0)), ("y", POS))),
        ("GeneralIV", "Undecided", "no-criterion-applied",
         ["base_ratio_monotonicity", "value_ratio_monotonicity", "f_monotonicity"]),
    ),
    "class-II-decreasing-f": (
        ("5-x^2", (1.0, 2.0), (("x^2", Interval(0.5, 2.5)), _ID_VALUE), (_ID_BASE, _ID_VALUE)),
        ("ClassII", "LT", "base-map-ratio", ["base_ratio_monotonicity", "f_monotonicity"]),
    ),
    "same-value-non-monotone-f": (
        ("x*(2-x)", (0.5, 1.5), (("x^2", POS), ("y^2", POS)),
         (("x", Interval(0.0, 3.0)), ("y^2", POS))),
        ("SamePVDM", "Undecided", "no-criterion-applied",
         ["base_ratio_monotonicity", "f_monotonicity"]),
    ),
    "same-base-rescaled": (
        ("exp(x)", (0.5, 1.5), (("x^2", POS), ("ln(y)", POS)),
         (("2*x^2", POS), ("ln(y)+1", POS))),
        ("SameIVDM", "EQ", "value-map-ratio", ["value_ratio_monotonicity"]),
    ),
    "class-III-pair-rescaled": (
        ("x", (0.5, 2.0), (("x^2", POS), ("y^2", POS)), (("2*x^2+1", POS), ("3*y^2", POS))),
        ("ClassIII-pair", "EQ", "paired-map-ratio",
         ["window_ratio_monotonicity", "hull_ratio_monotonicity"]),
    ),
    "class-III-pair-decreasing-f": (
        ("1/x", (0.5, 2.0), (("x^3", POS), ("y^3", POS)), (("x^2", POS), ("y^2", POS))),
        ("ClassIII-pair", "Undecided", "no-criterion-applied",
         ["window_ratio_monotonicity", "hull_ratio_monotonicity", "f_monotonicity"]),
    ),
    "exchanged-increasing-f": (
        ("x", (0.3, 1.2), (("cos(x)", _WIDE), ("sin(y)", _WIDE)),
         (("sin(x)", _WIDE), ("cos(y)", _WIDE))),
        ("ExchangedDMs", "Undecided", "no-criterion-applied",
         ["window_ratio_monotonicity", "hull_ratio_monotonicity", "f_monotonicity"]),
    ),
    "general-aligned": (
        ("exp(x)", (0.5, 1.5), (("x^2", POS), ("y^3", POS)),
         (("x", Interval(0.0, 3.0)), ("y", Interval(0.0, 99.0)))),
        ("GeneralIV", "GT", "dual-ratio case 1",
         ["base_ratio_monotonicity", "value_ratio_monotonicity", "f_monotonicity"]),
    ),
    "general-decreasing-f": (
        ("exp(-x)", (0.5, 1.5), (("x", Interval(0.0, 3.0)), ("y^3", POS)),
         (("x^2", POS), ("y", Interval(0.0, 99.0)))),
        ("GeneralIV", "GT", "dual-ratio case 1",
         ["base_ratio_monotonicity", "value_ratio_monotonicity", "f_monotonicity"]),
    ),
    "general-decreasing-f-conflicting": (
        ("exp(-x)", (0.5, 1.5), (("x^2", POS), ("y^3", POS)),
         (("x", Interval(0.0, 3.0)), ("y", Interval(0.0, 99.0)))),
        ("GeneralIV", "Undecided", "no-criterion-applied",
         ["base_ratio_monotonicity", "value_ratio_monotonicity", "f_monotonicity"]),
    ),
    "class-V-aligned": (
        ("x", (1.0, 2.0), (("x^2", POS), ("y^3", POS)), (("ln(x)", POS), ("y", Interval(0.0, 4.0)))),
        ("ClassV", "GT", "dual-ratio case 1",
         ["base_ratio_monotonicity", "value_ratio_monotonicity", "f_monotonicity"]),
    ),
}


def _frame_of(pair):
    return tuple(generator_map(*m) for m in pair)


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_justification_and_evidence_keys_are_pinned(name):
    (f, window, left, right), (scenario, relation, why, keys) = _PINNED[name]
    s = scenario_of(f, window, _frame_of(left), _frame_of(right))
    assert s.scenario == scenario
    v = compare_function_means(s)
    assert (v.relation, v.justification) == (relation, why)
    assert list(v.evidence) == ["scenario"] + keys + ["numeric"]


@pytest.mark.parametrize(
    "scenario, why, keys",
    [
        ("GeneralIV", "dual-ratio constant", ["base_ratio_monotonicity", "value_ratio_monotonicity"]),
        ("ClassV", "dual-ratio constant", ["base_ratio_monotonicity", "value_ratio_monotonicity"]),
        ("ExchangedDMs", "exchanged-map-ratio", ["window_ratio_monotonicity", "hull_ratio_monotonicity"]),
    ],
)
def test_constant_ratios_give_equality_under_every_dual_label(scenario, why, keys):
    # Detection files rescaled frames under an earlier scenario, so these
    # labels are forced here to reach their equality branch.
    left = frame.make_frame(_frame_of((("x^2", POS), ("y^2", POS))))
    right = frame.make_frame(_frame_of((("2*x^2+1", POS), ("3*y^2", POS))))
    s = compare_mod.ComparisonScenario(compare_mod._coerce_f("x"), Interval(0.5, 2.0), left, right, scenario)
    v = compare_function_means(s)
    assert (v.relation, v.justification) == ("EQ", why)
    assert list(v.evidence) == ["scenario"] + keys + ["numeric"]


# ---------------------------------------------------------------------------
# the Jensen fallback: the ratio reads Unknown, the conjugate's shape decides
# ---------------------------------------------------------------------------

# For g = x + x^22/22 against h = x on [0.01, 1], the derivative 21·x^20 of
# g'/h' stays below the 1e-12 sign floor on 78 of the 257 samples, so the
# ratio classifies Unknown while the conjugate g∘h⁻¹ still reads Convex.
_JENSEN_DOMAIN = Interval(0.0, 1.02)
_JENSEN_WINDOW = Interval(0.01, 1.0)


def _jmap(source):
    return generator_map(source, _JENSEN_DOMAIN)


@pytest.mark.parametrize(
    "left, right, relation, case",
    [
        ("y + y^22/22", "y", "GE", 1),
        ("y", "y + y^22/22", "LE", 2),
        ("-y", "y + y^22/22", "LE", 3),
        ("-(y + y^22/22)", "y", "GE", 4),
        ("y", "y - y^22/44", "GE", 1),
        ("-y", "y - y^22/44", "GE", 4),
    ],
)
def test_value_map_jensen_cases(left, right, relation, case):
    s = make_scenario(
        "x", _JENSEN_WINDOW, (_jmap("x"), _jmap(left)), (_jmap("x"), _jmap(right))
    )
    assert s.scenario == "ClassI"
    v = compare_function_means(s)
    assert (v.relation, v.justification) == (relation, f"value-map-jensen case {case}")
    assert v.evidence["value_ratio_monotonicity"] == "Unknown"
    assert v.evidence["jensen_convexity"] == ("Convex" if case in (1, 3) else "Concave")


@pytest.mark.parametrize(
    "f, left, right, relation, case",
    [
        ("x", "x + x^22/22", "x", "GE", 1),
        ("x", "x", "x + x^22/22", "LE", 2),
        ("x", "-x", "x + x^22/22", "LE", 3),
        ("x", "-(x + x^22/22)", "-x", "GE", 4),
        ("2-x", "x + x^22/22", "x", "LE", 1),
        ("2-x", "x", "x + x^22/22", "GE", 2),
        ("2-x", "-x", "-(x + x^22/22)", "GE", 3),
        ("2-x", "-(x + x^22/22)", "x", "LE", 4),
    ],
)
def test_base_map_jensen_cases_in_both_directions_of_f(f, left, right, relation, case):
    idv = generator_map("y", Interval(-1.0, 3.0))
    s = make_scenario(f, _JENSEN_WINDOW, (_jmap(left), idv), (_jmap(right), idv))
    assert s.scenario == "ClassII"
    v = compare_function_means(s)
    assert (v.relation, v.justification) == (relation, f"base-map-jensen case {case}")
    assert v.evidence["base_ratio_monotonicity"] == "Unknown"
    assert v.evidence["f_monotonicity"] == ("StrictlyIncreasing" if f == "x" else "StrictlyDecreasing")


# ---------------------------------------------------------------------------
# soundness sweep: every decided verdict matches the numbers
# ---------------------------------------------------------------------------


def test_many_random_scenarios_stay_consistent():
    import itertools
    import random

    rng = random.Random(404)
    fs = ["x", "exp(x/2)", "1+x^2", "3-x", "1/x"]
    base_maps = ["x", "x^2", "2*x+1", "ln(x)"]
    value_maps = ["y", "y^2", "ln(y)", "sqrt(y)"]
    decided = 0
    for fsrc, gl, hl in itertools.product(fs, base_maps, value_maps):
        gr = rng.choice(base_maps)
        hr = rng.choice(value_maps)
        lo = rng.uniform(0.3, 0.8)
        hi = lo + rng.uniform(0.4, 1.2)
        s = make_scenario(
            fsrc,
            Interval(lo, hi),
            (generator_map(gl, POS), generator_map(hl, POS)),
            (generator_map(gr, POS), generator_map(hr, POS)),
        )
        v = compare_function_means(s)  # raises on any contradiction
        if v.decided:
            decided += 1
            numeric = v.evidence["numeric"]
            assert v.agrees_with_sign(numeric["difference"], numeric["budget"])
    assert decided > 10  # the criteria really do fire across the pool


# ---------------------------------------------------------------------------
# weighted averages through the mean-value theorem
# ---------------------------------------------------------------------------


class TestWeightedAverage:
    def test_uniform_weight(self):
        r = first_mvt_mean("x", "1", Interval(0.0, 1.0))
        assert r.value == pytest.approx(0.5, rel=1e-10)

    def test_linear_weight(self):
        r = first_mvt_mean("x", "x", Interval(0.0, 1.0))
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_sine_arch_height(self):
        r = first_mvt_mean("sin(x)", "1", Interval(0.0, math.pi))
        assert r.value == pytest.approx(2.0 / math.pi, rel=1e-10)

    def test_negative_weight_is_sign_stable(self):
        r = first_mvt_mean("x", "0-1", Interval(0.0, 1.0))
        assert r.value == pytest.approx(0.5, rel=1e-10)

    def test_sign_changing_weight_is_rejected(self):
        with pytest.raises(PreconditionError, match="changes sign"):
            first_mvt_mean("x", "x-1", Interval(0.0, 2.0))


# ---------------------------------------------------------------------------
# derived trees are built once per map pair
# ---------------------------------------------------------------------------


def test_a_rebuilt_scenario_lowers_no_tree_again(monkeypatch):
    # fresh memos, so the first round has ratio trees to build and lower
    monkeypatch.setattr(frame, "_memo", type(frame._memo)())
    monkeypatch.setattr(nummean, "_derived", type(nummean._derived)())
    lowered = []
    original = expr_mod._lower

    def counting(root):
        lowered[-1] += 1
        return original(root)

    monkeypatch.setattr(expr_mod, "_lower", counting)
    w = Interval(0.3, 0.7)
    for _ in range(2):
        lowered.append(0)
        s = make_scenario(
            "exp(x)", w, (("x^2", POS), ("y^3", POS)), (("x", Interval(0.0, 3.0)), ("ln(y)", POS))
        )
        assert s.scenario == "GeneralIV"
        assert compare_function_means(s).relation == "GT"
    assert lowered[0] > 0
    assert lowered[1] == 0


def test_the_derived_tree_memo_stays_bounded():
    w = Interval(1.0, 2.0)
    right = (("x", Interval(0.5, 2.5)), ("y", Interval(0.5, 10.0)))
    for k in range(40):
        s = make_scenario("x^2", w, (("x", Interval(0.5, 2.5)), (f"y^{2 + k / 8}", POS)), right)
        assert s.scenario == "ClassI"
        compare_function_means(s)
        assert len(nummean._derived) <= 32
    assert len(nummean._derived) == nummean._DERIVED_SIZE == 32
