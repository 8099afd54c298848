"""Criterion-dispatch comparison of two isomorphic means of one function.

Given one function f on one window and two frames, the engine detects which
structural scenario the frame pair falls into, applies that scenario's
ordering rule (classifying derivative ratios and, where admissible, the
convexity of a conjugate map), and then *always* recomputes both means
numerically.  A decided verdict that disagrees with the numbers beyond the
combined quadrature budget raises
:class:`~isomean._errors.ComparisonContradiction` — it is a hard failure,
never a warning.

Scenarios, detected from frame structure (sharpest first), and their rules:

=============  ================================================  ==============
scenario       detected when                                     rule
=============  ================================================  ==============
ClassI         both base maps are scale-shifts of the identity   value + Jensen
ClassII        both value maps are scale-shifts of the identity  base + Jensen
ClassIII-pair  each frame reuses one map on both axes            dual, f up
ExchangedDMs   the right frame is the left one, maps swapped     dual, f down
SameIVDM       shared base map, value maps differ                value
SamePVDM       shared value map, base maps differ                base
ClassV         f is the identity                                 dual
GeneralIV      anything else (a partial criterion exists)        dual
=============  ================================================  ==============

* **value**: |u'/w'| of the value maps across the hull.  Constant gives EQ,
  increasing GE, decreasing LE; justification ``value-map-ratio``.
* **base**: |g'/G'| of the base maps across the window.  Constant gives EQ;
  for strictly monotone f, GT when the ratio moves with f and LT against
  it; justification ``base-map-ratio``.
* **dual**: both ratios.  Both constant gives EQ; for strictly monotone f,
  GT when the base ratio moves with f and the value ratio increases, LT
  when the base ratio moves against f and the value ratio decreases.
  ClassIII-pair decides only for increasing f (``paired-map-ratio``) and
  ExchangedDMs only for decreasing f (``exchanged-map-ratio``, its value
  ratio read right over left); ClassV and GeneralIV answer
  ``dual-ratio constant``, ``dual-ratio case 1`` (GT), ``case 2`` (LT).
* **Jensen**, when the ratio does not classify: the shape of the conjugate
  left∘right⁻¹ over the right map's image of the hull (ClassI) or the
  window (ClassII).  Affine gives EQ (``affine``); convex gives GE for an
  increasing left map (``case 1``) and LE for a decreasing one
  (``case 3``); concave gives LE (``case 2``) and GE (``case 4``).  In
  ClassII decreasing f reverses the relation and a strictly convex or
  concave conjugate makes it strict.  Justifications
  ``value-map-jensen …`` and ``base-map-jensen …``.

Anything a rule leaves open is Undecided, ``no-criterion-applied``.
Scale-shifted maps generate identical means, which is why detection tests
for affine equivalence rather than structural equality, and why a constant
derivative ratio always yields EQ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ._errors import ComparisonContradiction, DomainError, InversionError, PreconditionError
from .bivariate import Antiderivative
from .classify import (
    CONSTANT,
    STRICTLY_CONCAVE,
    STRICTLY_CONVEX,
    STRICTLY_DECREASING,
    STRICTLY_INCREASING,
    MonotonicityClass,
    classify_monotonicity,
)
from .expr import as_vector_fn
from .frame import (
    BRACKETED_NUMERIC,
    Frame,
    GeneratorMap,
    estimate_range_hull,
    make_frame,
)
from .funmean import MeanProblem, MeanResult, _coerce_f, class_II_mean, dvi_mean
from .intervals import Interval
from .nummean import _RATIO_RELATION, _jensen_reading, _ratio_classifier
from .verdict import EQ, GE, GT, LE, LT, UNDECIDED, Verdict

SCENARIOS = (
    "ClassI",
    "ClassII",
    "SameIVDM",
    "SamePVDM",
    "GeneralIV",
    "ClassIII-pair",
    "ExchangedDMs",
    "ClassV",
)

# Detection declares two maps equivalent when one matches an affine image of
# the other to this relative residual on a 33-point probe.
_DETECT_RTOL = 1e-9
_DETECT_SAMPLES = 33


@dataclass(frozen=True)
class ComparisonScenario:
    """One comparison instance: f, its window, and the two frames.

    Building the scenario proves both means exist (both frames must bond
    with f over the window); the detected ``scenario`` string picks the
    criterion that :func:`compare_function_means` will dispatch to.  Use
    :func:`make_scenario` to get the scenario detected automatically.
    """

    f: object
    fdomain: Interval
    left: Frame
    right: Frame
    scenario: str

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise PreconditionError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if self.fdomain.degenerate or not self.fdomain.bounded:
            raise PreconditionError("comparison needs a bounded non-degenerate window")
        object.__setattr__(self, "f", _coerce_f(self.f))
        object.__setattr__(self, "_problem_left", MeanProblem(self.f, self.fdomain, self.left))
        object.__setattr__(self, "_problem_right", MeanProblem(self.f, self.fdomain, self.right))

    @property
    def hull(self) -> Interval:
        """Closed hull of f's values over the window (the interval I)."""
        return self._problem_left.range_hull


def _sample_values(m: GeneratorMap, xs: np.ndarray) -> Optional[np.ndarray]:
    try:
        ys = m.value_many(xs)
    except (DomainError, InversionError, ArithmeticError, ValueError, OverflowError):
        return None
    return ys if np.all(np.isfinite(ys)) else None


def _affine_image(ya: np.ndarray, yb: np.ndarray) -> bool:
    """Does ya ≈ k·yb + C hold, for the (k, C) fixed by two spread points?"""
    n = len(ya)
    i, j = n // 4, (3 * n) // 4
    den = yb[j] - yb[i]
    if not math.isfinite(den) or abs(den) <= 1e-12 * max(1.0, float(np.max(np.abs(yb)))):
        return False
    k = (ya[j] - ya[i]) / den
    c = ya[i] - k * yb[i]
    if not (math.isfinite(k) and math.isfinite(c)) or k == 0.0:
        return False
    resid = float(np.max(np.abs(ya - (k * yb + c))))
    return resid <= _DETECT_RTOL * max(1.0, float(np.max(np.abs(ya))))


def _v_equivalent(ma: GeneratorMap, mb: GeneratorMap, window: Interval) -> bool:
    """Are the two maps scale-shifts of each other across `window`?"""
    if window.degenerate:
        return False
    xs = np.linspace(window.lo, window.hi, _DETECT_SAMPLES)
    ya = _sample_values(ma, xs)
    yb = _sample_values(mb, xs)
    if ya is None or yb is None:
        return False
    return _affine_image(ya, yb)


def _identity_like(m: GeneratorMap, window: Interval) -> bool:
    if window.degenerate:
        return False
    xs = np.linspace(window.lo, window.hi, _DETECT_SAMPLES)
    ya = _sample_values(m, xs)
    return ya is not None and _affine_image(ya, xs)


def _is_identity_fn(f, window: Interval) -> bool:
    xs = np.linspace(window.lo, window.hi, _DETECT_SAMPLES)
    try:
        ys = as_vector_fn(f)(xs)
    except (DomainError, ArithmeticError, ValueError, OverflowError):
        return False
    if not np.all(np.isfinite(ys)):
        return False
    scale = max(1.0, float(np.max(np.abs(xs))))
    return float(np.max(np.abs(ys - xs))) <= 1e-12 * scale


def _detect(f, fdomain: Interval, hull: Interval, left: Frame, right: Frame) -> str:
    union = Interval(min(fdomain.lo, hull.lo), max(fdomain.hi, hull.hi))
    if _identity_like(left.g, fdomain) and _identity_like(right.g, fdomain):
        return "ClassI"
    if _identity_like(left.h, hull) and _identity_like(right.h, hull):
        return "ClassII"
    if _v_equivalent(left.g, left.h, union) and _v_equivalent(right.g, right.h, union):
        return "ClassIII-pair"
    if _v_equivalent(left.g, right.h, union) and _v_equivalent(left.h, right.g, union):
        return "ExchangedDMs"
    if _v_equivalent(left.g, right.g, fdomain):
        return "SameIVDM"
    if _v_equivalent(left.h, right.h, hull):
        return "SamePVDM"
    if _is_identity_fn(f, fdomain):
        return "ClassV"
    return "GeneralIV"


def make_scenario(f, fdomain: Interval, left, right) -> ComparisonScenario:
    """Build a :class:`ComparisonScenario`, detecting the scenario string.

    ``left`` and ``right`` may be :class:`~isomean.frame.Frame` objects or
    anything :func:`~isomean.frame.make_frame` accepts (pairs of maps or of
    ``(source, domain)`` tuples).
    """
    fe = _coerce_f(f)
    lf = left if isinstance(left, Frame) else make_frame(left)
    rf = right if isinstance(right, Frame) else make_frame(right)
    if fdomain.degenerate or not fdomain.bounded:
        raise PreconditionError("comparison needs a bounded non-degenerate window")
    hull = estimate_range_hull(fe, fdomain)
    scenario = _detect(fe, fdomain, hull, lf, rf)
    return ComparisonScenario(fe, fdomain, lf, rf, scenario)


# ---------------------------------------------------------------------------
# per-scenario criteria
# ---------------------------------------------------------------------------


def _ratio_class(num: GeneratorMap, den: GeneratorMap, window: Interval) -> MonotonicityClass:
    return classify_monotonicity(_ratio_classifier(num, den), window)


def _map_window(m: GeneratorMap, w: Interval) -> Optional[Interval]:
    """Image of a window's endpoints under a map, as a sorted interval."""
    try:
        ya, yb = m(w.lo), m(w.hi)
    except (DomainError, InversionError):
        return None
    if not (math.isfinite(ya) and math.isfinite(yb)) or ya == yb:
        return None
    return Interval(min(ya, yb), max(ya, yb))


def _undecided(ev: dict) -> Verdict:
    return Verdict(UNDECIDED, "no-criterion-applied", ev)


def _jensen(ev: dict, left: GeneratorMap, right: GeneratorMap, window: Interval, prefix: str,
            f_dir: int = 0) -> Verdict:
    """The Jensen fallback: the shape of left∘right⁻¹ over right's image of
    `window`.  Given f's direction (±1), decreasing f reverses the relation
    and a strictly convex or concave conjugate makes it strict."""
    jwin = _map_window(right, window)
    if jwin is None:
        return _undecided(ev)
    conv, rel, label = _jensen_reading(left, right, jwin)
    ev["jensen_convexity"] = conv.kind
    if rel is None:
        return _undecided(ev)
    if f_dir and rel != EQ:
        if f_dir < 0:
            rel = GE if rel == LE else LE
        if conv.kind in (STRICTLY_CONVEX, STRICTLY_CONCAVE):
            rel = GT if rel == GE else LT
    return Verdict(rel, f"{prefix}-jensen {label}", ev)


def _value_rule(s: ComparisonScenario, jensen: bool) -> Verdict:
    """ClassI and SameIVDM; f's monotonicity is never consulted."""
    ev = {"scenario": s.scenario}
    rc = _ratio_class(s.left.h, s.right.h, s.hull)
    ev["value_ratio_monotonicity"] = rc.kind
    rel = _RATIO_RELATION.get(rc.kind)
    if rel is not None:
        return Verdict(rel, "value-map-ratio", ev)
    if jensen:
        return _jensen(ev, s.left.h, s.right.h, s.hull, "value-map")
    return _undecided(ev)


def _base_rule(s: ComparisonScenario, jensen: bool) -> Verdict:
    """ClassII and SamePVDM; strict, because f must be strictly monotone."""
    ev = {"scenario": s.scenario}
    rc = _ratio_class(s.left.g, s.right.g, s.fdomain)
    ev["base_ratio_monotonicity"] = rc.kind
    if rc.kind == CONSTANT:
        return Verdict(EQ, "base-map-ratio", ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    if not mono_f.is_strictly_monotone:
        return _undecided(ev)
    if rc.is_strictly_monotone:
        return Verdict(GT if rc.direction == mono_f.direction else LT, "base-map-ratio", ev)
    if jensen:
        return _jensen(ev, s.left.g, s.right.g, s.fdomain, "base-map", mono_f.direction)
    return _undecided(ev)


def _dual_rule(s: ComparisonScenario, need: int, swap: bool, keys: tuple, names: tuple) -> Verdict:
    """The base ratio on the window and the value ratio on the hull.  f must
    have direction `need` (0: either); `swap` reads the value ratio right
    over left, `keys` prefix the evidence, `names` justify EQ, GT and LT."""
    ev = {"scenario": s.scenario}
    rcb = _ratio_class(s.left.g, s.right.g, s.fdomain)
    num, den = (s.right.h, s.left.h) if swap else (s.left.h, s.right.h)
    rcv = _ratio_class(num, den, s.hull)
    ev[f"{keys[0]}_ratio_monotonicity"] = rcb.kind
    ev[f"{keys[1]}_ratio_monotonicity"] = rcv.kind
    if rcb.kind == CONSTANT and rcv.kind == CONSTANT:
        return Verdict(EQ, names[0], ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    fdir = mono_f.direction
    vdir = -rcv.direction if swap else rcv.direction
    if fdir and need in (0, fdir):
        if rcb.direction == fdir and vdir > 0:
            return Verdict(GT, names[1], ev)
        if rcb.direction == -fdir and vdir < 0:
            return Verdict(LT, names[2], ev)
    return _undecided(ev)


_PAIRED = dict(swap=False, keys=("window", "hull"), names=("paired-map-ratio",) * 3)
_EXCHANGED = dict(swap=True, keys=("window", "hull"), names=("exchanged-map-ratio",) * 3)
_DUAL = dict(swap=False, keys=("base", "value"),
             names=("dual-ratio constant", "dual-ratio case 1", "dual-ratio case 2"))

# Scenario → rule (see the module docstring).
_HANDLERS = {
    "ClassI": partial(_value_rule, jensen=True),
    "SameIVDM": partial(_value_rule, jensen=False),
    "ClassII": partial(_base_rule, jensen=True),
    "SamePVDM": partial(_base_rule, jensen=False),
    "ClassIII-pair": partial(_dual_rule, need=1, **_PAIRED),
    "ExchangedDMs": partial(_dual_rule, need=-1, **_EXCHANGED),
    "ClassV": partial(_dual_rule, need=0, **_DUAL),
    "GeneralIV": partial(_dual_rule, need=0, **_DUAL),
}


def compare_function_means(s: ComparisonScenario) -> Verdict:
    """Verdict on left mean vs right mean, always numerically cross-checked.

    The relation refers to the two mean *values* (elements of the value
    hull), not to any transformed quantity.  Evidence carries the
    classification statuses consulted plus the numeric values of both
    sides; a decided verdict contradicting those numbers beyond the
    combined error budget raises ComparisonContradiction.
    """
    if s.hull.degenerate:
        inner = Verdict(EQ, "constant-function", {"scenario": s.scenario})
    else:
        inner = _HANDLERS[s.scenario](s)
    res_l = dvi_mean(s._problem_left)
    res_r = dvi_mean(s._problem_right)
    diff = res_l.value - res_r.value
    budget = max(1e-7, 10.0 * (res_l.abs_error_estimate + res_r.abs_error_estimate))
    if not inner.agrees_with_sign(diff, budget):
        raise ComparisonContradiction(
            f"{s.scenario} verdict {inner.relation} ({inner.justification}) contradicts the"
            f" numeric means: left={res_l.value!r}, right={res_r.value!r},"
            f" difference={diff!r}, budget={budget!r}"
        )
    evidence = dict(inner.evidence)
    evidence["numeric"] = {
        "left": res_l.value,
        "right": res_r.value,
        "difference": diff,
        "budget": budget,
    }
    return Verdict(inner.relation, inner.justification, evidence)


# ---------------------------------------------------------------------------
# weighted average via the mean-value theorem for integrals
# ---------------------------------------------------------------------------


def first_mvt_mean(f, weight, d: Interval) -> MeanResult:
    """Weighted average ``∫f·w / ∫w`` over d, as a function mean.

    The running integral of the weight serves as the base map, which turns
    the weighted average into a plain base-map-weighted mean of f (value
    map trivial).  The weight must keep one sign; a negative weight gives
    the same value as its absolute value, the signs cancelling.
    """
    fe = _coerce_f(f)
    we = _coerce_f(weight)
    if d.degenerate or not d.bounded:
        raise PreconditionError("the weighted mean needs a bounded non-degenerate window")
    whull = estimate_range_hull(we, d)
    if whull.lo < 0.0 < whull.hi:
        raise PreconditionError(f"the weight changes sign on {d} (range hull {whull})")
    running = Antiderivative(we, d)
    total = running(d.hi)
    if not math.isfinite(total) or total == 0.0:
        raise PreconditionError("the weight integrates to zero; no average exists")
    kind = STRICTLY_INCREASING if total > 0.0 else STRICTLY_DECREASING
    base_map = GeneratorMap(
        expr=None,
        domain=d,
        image=Interval(min(0.0, total), max(0.0, total)),
        monotonicity=MonotonicityClass(kind),
        inverse_strategy=BRACKETED_NUMERIC,
        _fvec=running.many,
        _dvec=running.derivative_many,
    )
    return class_II_mean(fe, d, base_map)
