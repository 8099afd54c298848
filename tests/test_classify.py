import math

import numpy as np
import pytest

from isomean.classify import _lobatto_nodes, classify_convexity, classify_monotonicity, sample_grid
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


def _grid_by_the_formula(d, n):
    """sample_grid as written before its nodes were cached."""
    j = np.arange(n)
    t = (1.0 - np.cos(np.pi * j / (n - 1))) / 2.0
    eps = 1e-6
    if d.bounded:
        tlo = eps if d.lo_open else 0.0
        thi = eps if d.hi_open else 0.0
        t = tlo + t * (1.0 - tlo - thi)
        xs = d.lo + t * (d.hi - d.lo)
        if not d.lo_open:
            xs[0] = d.lo
        if not d.hi_open:
            xs[-1] = d.hi
        return xs
    t = eps + t * (1.0 - 2 * eps)
    if math.isinf(d.lo) and math.isinf(d.hi):
        s = 2.0 * t - 1.0
        return s / (1.0 - s * s)
    if math.isinf(d.hi):
        return d.lo + t / (1.0 - t)
    return d.hi - (1.0 - t) / t


GRID_WINDOWS = (
    Interval(0.5512, 1.622),
    Interval(0.0, 1.0, lo_open=True, hi_open=True),
    Interval(-2.0, 3.0, hi_open=True),
    Interval(1.0, math.inf),
    Interval(-math.inf, -1.0, hi_open=True),
    Interval(-math.inf, math.inf),
)


@pytest.mark.parametrize("n", (257, 33))
@pytest.mark.parametrize("d", GRID_WINDOWS, ids=str)
def test_sample_grid_from_cached_nodes_equals_the_formula(d, n):
    got = sample_grid(d, n)
    want = _grid_by_the_formula(d, n)
    assert got.tobytes() == want.tobytes()
    # every call returns a fresh array its caller may write
    assert got.flags.writeable
    assert not np.shares_memory(got, sample_grid(d, n))


def test_cached_lobatto_nodes_are_read_only():
    t = _lobatto_nodes(33)
    assert _lobatto_nodes(33) is t
    with pytest.raises(ValueError):
        t[0] = 1.0
