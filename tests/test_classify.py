import numpy as np
import pytest

from isomean.classify import classify_convexity, classify_monotonicity, sample_grid
from isomean.intervals import Interval
from isomean.parse import parse


@pytest.mark.parametrize(
    "source,window,kind",
    [
        ("x^3", (-1.0, 1.0), "StrictlyIncreasing"),  # flat derivative at 0 is fine
        ("exp(x)", (0.0, 2.0), "StrictlyIncreasing"),
        ("3-x", (0.0, 2.0), "StrictlyDecreasing"),
        ("cos(x)", (0.0, 3.0), "StrictlyDecreasing"),
        ("2+0*x", (0.0, 1.0), "Constant"),
        ("x^2", (-1.0, 1.0), "NonMonotone"),
        ("sin(x)", (0.0, 3.0), "NonMonotone"),
    ],
)
def test_monotonicity_kinds(source, window, kind):
    m = classify_monotonicity(parse(source), Interval(*window))
    assert m.kind == kind


def test_non_monotone_witnesses_point_both_ways():
    m = classify_monotonicity(parse("x^2"), Interval(-1.0, 1.0))
    assert m.kind == "NonMonotone"
    assert len(m.witnesses) == 2
    (_, s1), (_, s2) = m.witnesses  # (location, local slope) pairs
    assert np.sign(s1) * np.sign(s2) == -1.0
    assert m.resolution >= 3


@pytest.mark.parametrize(
    "source,window,kind,convex,concave",
    [
        ("x^2", (0.0, 2.0), "StrictlyConvex", True, False),
        ("3*x+1", (0.0, 2.0), "Affine", True, True),
        ("sin(x)", (0.0, 3.0), "StrictlyConcave", False, True),
        ("ln(x)", (0.5, 3.0), "StrictlyConcave", False, True),
        ("x^3", (-1.0, 1.0), "Mixed", False, False),
    ],
)
def test_convexity_kinds(source, window, kind, convex, concave):
    c = classify_convexity(parse(source), Interval(*window))
    assert c.kind == kind
    assert c.is_convex is convex
    assert c.is_concave is concave


def test_sample_grid_spans_the_window():
    xs = sample_grid(Interval(0.0, 1.0), 5)
    assert xs.shape == (5,)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert np.all(np.diff(xs) > 0)
    # lo + (hi − lo) rounds to one ulp above hi here; the ends stay exact
    xs = sample_grid(Interval(0.5512, 1.622), 5)
    assert xs[0] == 0.5512 and xs[-1] == 1.622


def test_sample_grid_stays_interior_on_open_sides():
    xs = sample_grid(Interval(0.0, 1.0, lo_open=True, hi_open=True), 9)
    assert xs[0] > 0.0 and xs[-1] < 1.0
    assert np.all(np.diff(xs) > 0)
