"""Criterion-dispatch comparison of two isomorphic means of one function.

Given one function f on one window and two frames, the engine detects which
structural scenario the frame pair falls into, applies the sharpest ordering
criterion available for that scenario (classifying derivative ratios and,
where admissible, the convexity of a conjugate map), and then *always*
recomputes both means numerically.  A decided verdict that disagrees with
the numbers beyond the combined quadrature budget raises
:class:`~isomean._errors.ComparisonContradiction` — it is a hard failure,
never a warning.

Scenario vocabulary, detected from frame structure (sharpest first):

* ``ClassI``        — both base maps are scale-shifts of the identity,
* ``ClassII``       — both value maps are scale-shifts of the identity,
* ``ClassIII-pair`` — each frame reuses one map on both axes,
* ``ExchangedDMs``  — the right frame is the left one with its maps swapped,
* ``SameIVDM``      — shared base map, value maps differ,
* ``SamePVDM``      — shared value map, base maps differ,
* ``ClassV``        — f is the identity,
* ``GeneralIV``     — anything else (a partial criterion exists).

Scale-shifted maps generate identical means, which is why detection tests
for affine equivalence rather than structural equality, and why a constant
derivative ratio always yields EQ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import ComparisonContradiction, DomainError, InversionError, PreconditionError
from .bivariate import Antiderivative
from .classify import (
    AFFINE,
    CONSTANT,
    STRICTLY_CONCAVE,
    STRICTLY_CONVEX,
    STRICTLY_DECREASING,
    STRICTLY_INCREASING,
    MonotonicityClass,
    classify_convexity,
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
from .nummean import _conjugate_fn, _signed_ratio_classifier
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
    return classify_monotonicity(_signed_ratio_classifier(num, den, absolute=True), window)


def _map_window(m: GeneratorMap, w: Interval) -> Optional[Interval]:
    """Image of a window's endpoints under a map, as a sorted interval."""
    try:
        ya, yb = m(w.lo), m(w.hi)
    except (DomainError, InversionError):
        return None
    if not (math.isfinite(ya) and math.isfinite(yb)) or ya == yb:
        return None
    return Interval(min(ya, yb), max(ya, yb))


def _jensen_table(mdir: int, conv) -> tuple:
    """Relation and case number from (left-map direction, conjugate shape).

    The four decided combinations, for the canonical orientation: increasing
    map with a convex conjugate pushes the left mean up (case 1), concave
    pulls it down (case 2); a decreasing map swaps the two (cases 3 and 4).
    """
    if conv.is_convex and not conv.is_concave:
        return (GE, 1) if mdir > 0 else (LE, 3)
    if conv.is_concave and not conv.is_convex:
        return (LE, 2) if mdir > 0 else (GE, 4)
    return None, None


def _handle_value_maps(s: ComparisonScenario, with_jensen: bool) -> Verdict:
    """Shared criterion for ClassI and SameIVDM: only the value maps differ.

    The ratio rule reads |u'/w'| across the value hull; no strict version
    exists and f's monotonicity is never consulted.  The conjugate-shape
    fallback applies in class I only.
    """
    ev = {"scenario": s.scenario}
    rc = _ratio_class(s.left.h, s.right.h, s.hull)
    ev["value_ratio_monotonicity"] = rc.kind
    if rc.kind == CONSTANT:
        return Verdict(EQ, "value-map-ratio", ev)
    if rc.is_strictly_increasing:
        return Verdict(GE, "value-map-ratio", ev)
    if rc.is_strictly_decreasing:
        return Verdict(LE, "value-map-ratio", ev)
    if with_jensen:
        jwin = _map_window(s.right.h, s.hull)
        if jwin is not None:
            conv = classify_convexity(_conjugate_fn(s.left.h, s.right.h), jwin)
            ev["jensen_convexity"] = conv.kind
            if conv.kind == AFFINE:
                return Verdict(EQ, "value-map-jensen affine", ev)
            udir = 1 if s.left.h.increasing else -1
            rel, case = _jensen_table(udir, conv)
            if rel is not None:
                return Verdict(rel, f"value-map-jensen case {case}", ev)
    return Verdict(UNDECIDED, "no-criterion-applied", ev)


def _handle_class_I(s: ComparisonScenario) -> Verdict:
    return _handle_value_maps(s, with_jensen=True)


def _handle_same_base(s: ComparisonScenario) -> Verdict:
    return _handle_value_maps(s, with_jensen=False)


def _handle_class_II(s: ComparisonScenario) -> Verdict:
    """Only the base maps differ and the value maps are trivial.

    The ratio rule crosses |g'/G'| with f's direction; agreement pushes the
    left mean up.  When the ratio does not classify, the shape of the
    conjugate ``g∘G⁻¹`` over G's image decides, with every relation
    reversed under decreasing f.  Both decided paths are strict because f
    must be strictly monotone here.
    """
    ev = {"scenario": s.scenario}
    rc = _ratio_class(s.left.g, s.right.g, s.fdomain)
    ev["base_ratio_monotonicity"] = rc.kind
    if rc.kind == CONSTANT:
        return Verdict(EQ, "base-map-ratio", ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    if not mono_f.is_strictly_monotone:
        return Verdict(UNDECIDED, "no-criterion-applied", ev)
    if rc.is_strictly_monotone:
        rel = GT if rc.direction == mono_f.direction else LT
        return Verdict(rel, "base-map-ratio", ev)
    jwin = _map_window(s.right.g, s.fdomain)
    if jwin is not None:
        conv = classify_convexity(_conjugate_fn(s.left.g, s.right.g), jwin)
        ev["jensen_convexity"] = conv.kind
        if conv.kind == AFFINE:
            return Verdict(EQ, "base-map-jensen affine", ev)
        gdir = 1 if s.left.g.increasing else -1
        rel, case = _jensen_table(gdir, conv)
        if rel is not None:
            if mono_f.direction < 0:
                rel = GE if rel == LE else LE
            if conv.kind in (STRICTLY_CONVEX, STRICTLY_CONCAVE):
                rel = GT if rel == GE else LT
            return Verdict(rel, f"base-map-jensen case {case}", ev)
    return Verdict(UNDECIDED, "no-criterion-applied", ev)


def _handle_same_value(s: ComparisonScenario) -> Verdict:
    """Shared value map: the class-II ratio rule, without its fallback."""
    ev = {"scenario": s.scenario}
    rc = _ratio_class(s.left.g, s.right.g, s.fdomain)
    ev["base_ratio_monotonicity"] = rc.kind
    if rc.kind == CONSTANT:
        return Verdict(EQ, "base-map-ratio", ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    if not (mono_f.is_strictly_monotone and rc.is_strictly_monotone):
        return Verdict(UNDECIDED, "no-criterion-applied", ev)
    rel = GT if rc.direction == mono_f.direction else LT
    return Verdict(rel, "base-map-ratio", ev)


def _handle_class_III(s: ComparisonScenario) -> Verdict:
    """Each frame reuses one map; decided only for increasing f.

    The single ratio must classify the same way on the window and on the
    value hull; the two sub-cases with decreasing f are genuinely open, so
    they return Undecided rather than a guess.
    """
    ev = {"scenario": s.scenario}
    rcw = _ratio_class(s.left.g, s.right.g, s.fdomain)
    rch = _ratio_class(s.left.h, s.right.h, s.hull)
    ev["window_ratio_monotonicity"] = rcw.kind
    ev["hull_ratio_monotonicity"] = rch.kind
    if rcw.kind == CONSTANT and rch.kind == CONSTANT:
        return Verdict(EQ, "paired-map-ratio", ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    if not mono_f.is_strictly_increasing:
        return Verdict(UNDECIDED, "no-criterion-applied", ev)
    if rcw.is_strictly_increasing and rch.is_strictly_increasing:
        return Verdict(GT, "paired-map-ratio", ev)
    if rcw.is_strictly_decreasing and rch.is_strictly_decreasing:
        return Verdict(LT, "paired-map-ratio", ev)
    return Verdict(UNDECIDED, "no-criterion-applied", ev)


def _handle_exchanged(s: ComparisonScenario) -> Verdict:
    """Right frame swaps the left frame's maps; decided only for decreasing f.

    An increasing ratio favors the exchanged (right) mean.  The two
    sub-cases with increasing f are open and return Undecided.  Ratios are
    formed from whichever copy of each map is bonded to the window being
    classified, which is legitimate because scale-shifts do not move ratio
    monotonicity.
    """
    ev = {"scenario": s.scenario}
    rcw = _ratio_class(s.left.g, s.right.g, s.fdomain)
    rch = _ratio_class(s.right.h, s.left.h, s.hull)
    ev["window_ratio_monotonicity"] = rcw.kind
    ev["hull_ratio_monotonicity"] = rch.kind
    if rcw.kind == CONSTANT and rch.kind == CONSTANT:
        return Verdict(EQ, "exchanged-map-ratio", ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    if not mono_f.is_strictly_decreasing:
        return Verdict(UNDECIDED, "no-criterion-applied", ev)
    if rcw.is_strictly_increasing and rch.is_strictly_increasing:
        return Verdict(LT, "exchanged-map-ratio", ev)
    if rcw.is_strictly_decreasing and rch.is_strictly_decreasing:
        return Verdict(GT, "exchanged-map-ratio", ev)
    return Verdict(UNDECIDED, "no-criterion-applied", ev)


def _handle_general(s: ComparisonScenario) -> Verdict:
    """Partial criterion when nothing structural helps.

    Decides only when the base-map ratio agrees (case 1) or disagrees
    (case 2) with f's direction while the value-map ratio moves the
    matching way across the hull; everything else is Undecided.  For the
    identity f (the ClassV scenario) this reduces to: both ratios
    increasing gives GT, both decreasing gives LT.
    """
    ev = {"scenario": s.scenario}
    rcb = _ratio_class(s.left.g, s.right.g, s.fdomain)
    rch = _ratio_class(s.left.h, s.right.h, s.hull)
    ev["base_ratio_monotonicity"] = rcb.kind
    ev["value_ratio_monotonicity"] = rch.kind
    if rcb.kind == CONSTANT and rch.kind == CONSTANT:
        return Verdict(EQ, "dual-ratio constant", ev)
    mono_f = classify_monotonicity(s.f, s.fdomain)
    ev["f_monotonicity"] = mono_f.kind
    if not mono_f.is_strictly_monotone:
        return Verdict(UNDECIDED, "no-criterion-applied", ev)
    if rcb.is_strictly_monotone and rcb.direction == mono_f.direction and rch.is_strictly_increasing:
        return Verdict(GT, "dual-ratio case 1", ev)
    if rcb.is_strictly_monotone and rcb.direction == -mono_f.direction and rch.is_strictly_decreasing:
        return Verdict(LT, "dual-ratio case 2", ev)
    return Verdict(UNDECIDED, "no-criterion-applied", ev)


_HANDLERS = {
    "ClassI": _handle_class_I,
    "ClassII": _handle_class_II,
    "ClassIII-pair": _handle_class_III,
    "ExchangedDMs": _handle_exchanged,
    "SameIVDM": _handle_same_base,
    "SamePVDM": _handle_same_value,
    "ClassV": _handle_general,
    "GeneralIV": _handle_general,
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
