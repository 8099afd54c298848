"""Means of a function over an interval, organized by a two-map frame.

The central construction: given ``f`` on ``[a, b]``, an x-axis map ``g``
and a y-axis map ``h`` (both strictly monotone), the mean is

    M  =  h⁻¹( ∫ₐᵇ h(f(x)) g'(x) dx  /  (g(b) − g(a)) ).

Choosing the two maps recovers the classical menagerie — arithmetic,
geometric, harmonic, power-integral and elasticity-weighted means are all
one pair of maps away — and the general form supports systematic
comparison theorems (see :mod:`isomean.compare`).

Every mean is first evaluated directly: the Gauss–Kronrod nodes are
interior, so integrable blow-ups of ``f`` or of the maps at an endpoint
need no special treatment.  Only when direct evaluation cannot be carried
out (a map undefined exactly at the boundary, or a pullback that leaves the
y-map's image) is the mean evaluated on a sequence of shrunken intervals and
the limit taken; the result records which route produced it and a
defensible error estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

from ._errors import (
    DomainError,
    InversionError,
    IsomeanError,
    NotBondedError,
    PreconditionError,
)
from .expr import Expr, as_scalar_fn, as_vector_fn, const, powx, var
from .frame import (
    Frame,
    GeneratorMap,
    _limit_toward,
    check_bonded,
    estimate_range_hull,
    generator_map,
    identity_map,
    make_frame,
)
from .intervals import Interval, hull as hull_of
from .parse import parse
from .quadrature import endpoint_limit, integrate, max_subdivisions, window_integrals

# A callable f is an array callable: values at an array of points, NaN where
# f is undefined (see expr.as_vector_fn).
FnLike = Union[Expr, str, Callable[[np.ndarray], np.ndarray]]

#: Values beyond this magnitude mark the mean as a generalized (unbounded-f)
#: construction in the result detail.
_GENERALIZED_SPAN = 1e10

#: Per-window subdivision cap inside the shrunken-interval limit sequence.
#: Each window stays clear of the singularity, so convergence is quick when
#: the limit exists and failure is quick when it does not.
_LIMIT_SUBDIV = 20_000


def _coerce_f(f: FnLike):
    return parse(f) if isinstance(f, str) else f


def _covers_leniently(dom: Interval, part: Interval) -> bool:
    """Full containment, or containment of the open interior with the
    boundary merely touching."""
    if dom.covers(part):
        return True
    if part.degenerate:
        return False
    return dom.covers(Interval(part.lo, part.hi, lo_open=True, hi_open=True))


@dataclass(frozen=True)
class MeanProblem:
    """A function, its evaluation window, and the frame of axis maps.

    Construction validates that the frame covers the problem: the window
    must lie in the x-map's domain and the sampled value hull in the
    y-map's domain.  A hull or window that only *touches* an open map
    boundary (f vanishing at an endpoint under a log map, say) is accepted
    as well; evaluation then decides whether the boundary needs a limit.
    """

    f: FnLike
    fdomain: Interval
    frame: Frame
    _hull: Interval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", _coerce_f(self.f))
        if len(self.frame.dms) < 2:
            raise PreconditionError("a mean problem needs a two-map frame")
        report = check_bonded(self.f, self.fdomain, self.frame)
        if not (
            _covers_leniently(self.frame.g.domain, self.fdomain)
            and _covers_leniently(self.frame.h.domain, report.range_hull)
        ):
            raise NotBondedError(report.message)
        object.__setattr__(self, "_hull", report.range_hull)

    @property
    def range_hull(self) -> Interval:
        return self._hull


def mean_problem(
    f: FnLike,
    a: float,
    b: float,
    frame: Frame,
    open_lo: bool = False,
    open_hi: bool = False,
) -> MeanProblem:
    """Build a :class:`MeanProblem`; endpoint order is disregarded.

    The open flags apply to the lower/upper end of the *sorted* window.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    return MeanProblem(f, Interval(lo, hi, lo_open=open_lo, hi_open=open_hi), frame)


@dataclass(frozen=True)
class MeanResult:
    """A computed mean with provenance.

    ``method`` is one of ``"closed-form"``, ``"quadrature"`` or
    ``"quadrature+endpoint-limit"``; ``detail`` carries the numerator /
    denominator, the value hull, the limit stage when one was taken, and a
    ``generalized`` flag for unbounded-value problems.
    """

    value: float
    abs_error_estimate: float
    method: str
    detail: dict = field(default_factory=dict)


def _integrand(problem: MeanProblem) -> Callable[[np.ndarray], np.ndarray]:
    fvec = as_vector_fn(problem.f)
    g, h = problem.frame.g, problem.frame.h

    def phi(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return h.value_many(fvec(xs)) * g.derivative_many(xs)

    return phi


def _direct_or_limit(mean_on, integrand, a: float, b: float):
    """Evaluate ``mean_on`` on [a, b], or its limit on shrunken windows.

    ``mean_on(ak, bk, integral)`` returns ``(value, error, detail)``, where
    ``integral(ak, bk)`` gives ∫ integrand over [ak, bk] and its error.
    Direct quadrature runs first: its nodes are interior, so integrable
    endpoint blow-ups need no limit.  The endpoint limit is taken only when
    the direct evaluation raises DomainError or InversionError (a map
    undefined at the boundary, a ratio outside the y-map's image); a
    DivergentIntegralError propagates.  The limit's windows are integrated
    over nested strips by :func:`quadrature.window_integrals`, each strip
    held to ``min(_LIMIT_SUBDIV, max_subdivisions())`` subdivisions.

    Returns ``(value, error, method, detail)``.
    """
    try:
        value, err, detail = mean_on(a, b, partial(integrate, integrand))
        return value, err, "quadrature", detail
    except (DomainError, InversionError):
        budget = min(_LIMIT_SUBDIV, max_subdivisions())
        integral_on = window_integrals(integrand, a, b, budget)
        value, err, stage = endpoint_limit(lambda ak, bk: mean_on(ak, bk, integral_on)[0], a, b)
        return value, err, "quadrature+endpoint-limit", {"stage": stage}


def dvi_mean(problem: MeanProblem) -> MeanResult:
    """Evaluate the mean of the problem's function under its frame."""
    d = problem.fdomain
    g, h = problem.frame.g, problem.frame.h
    fscal = as_scalar_fn(problem.f)
    if d.degenerate:
        v = fscal(d.lo)
        if not math.isfinite(v):
            raise DomainError(f"function not evaluable at {d.lo}")
        return MeanResult(v, 0.0, "closed-form", {"range_hull": str(problem.range_hull)})

    a, b = d.lo, d.hi
    if not d.bounded:
        raise PreconditionError("the evaluation window must be bounded")
    phi = _integrand(problem)
    hull = problem.range_hull

    def mean_on(ak: float, bk: float, integral):
        dg = g(bk) - g(ak)
        if dg == 0.0:
            raise PreconditionError("x-map takes equal values at the endpoints")
        total, err_i = integral(ak, bk)
        value = h.invert(total / dg)
        slope = abs(h.derivative_at(value))
        err = err_i / abs(dg) / max(slope, 1e-300)
        return value, err, {"numerator": total, "denominator": dg}

    value, err, method, extra = _direct_or_limit(mean_on, phi, a, b)
    generalized = method != "quadrature" or max(abs(hull.lo), abs(hull.hi)) > _GENERALIZED_SPAN
    detail = {"range_hull": str(hull), "generalized": generalized, **extra}
    slack = max(1e-6, 1e-6 * abs(value), 10.0 * err)
    if not hull.contains(value, slack=slack):
        hull = _hull_with_end_limits(problem)
        if not hull.contains(value, slack=slack):
            raise IsomeanError(
                f"computed mean {value} escapes the value hull {hull}; "
                "the intermediate-value guarantee failed"
            )
    return MeanResult(value, err, method, detail)


def _hull_with_end_limits(problem: MeanProblem) -> Interval:
    """The value hull widened by f's finite one-sided limits at the open
    ends of the window, which the sampled hull only approaches."""
    d, m = problem.fdomain, problem.range_hull
    fvec = as_vector_fn(problem.f)
    values = [m.lo, m.hi]
    for side, is_open in (("lo", d.lo_open), ("hi", d.hi_open)):
        if is_open:
            try:
                values.append(_limit_toward(fvec, d, side))
            except DomainError:
                pass
    return hull_of(v for v in values if math.isfinite(v))


def dvi_mean_riemann_oracle(problem: MeanProblem, n: int) -> float:
    """Midpoint-Riemann evaluation in the transformed base variable.

    Independent of the adaptive quadrature path: the mean equals the
    h-pullback of the average of ``h(f(g⁻¹(u)))`` over ``n`` uniform
    midpoints ``u`` between ``g(a)`` and ``g(b)``.  Slowly convergent by
    design — used as a cross-check, not as the production route.
    """
    if n < 2:
        raise PreconditionError("the midpoint rule needs at least two cells")
    d = problem.fdomain
    if d.lo_open or d.hi_open or d.degenerate:
        raise PreconditionError("the oracle needs a closed bounded window")
    g, h = problem.frame.g, problem.frame.h
    ga, gb = g(d.lo), g(d.hi)
    us = ga + (np.arange(n) + 0.5) * (gb - ga) / n

    xs = g._preimages(us)
    vals = h.value_many(as_vector_fn(problem.f)(xs))
    if not np.all(np.isfinite(vals)):
        raise DomainError("oracle integrand not finite on the midpoint grid")
    return h.invert(math.fsum(float(v) for v in vals) / n)


# ---------------------------------------------------------------------------
# frames for the named means
# ---------------------------------------------------------------------------


def _log_map() -> GeneratorMap:
    return generator_map("ln(x)", Interval(0.0, math.inf, lo_open=True))


def _reciprocal_map(positive: bool) -> GeneratorMap:
    if positive:
        return generator_map("1/x", Interval(0.0, math.inf, lo_open=True))
    return generator_map("1/x", Interval(-math.inf, 0.0, hi_open=True))


@lru_cache(maxsize=128)
def _power_map(p: float) -> GeneratorMap:
    return generator_map(powx(var(), const(p)), Interval(0.0, math.inf, lo_open=True))


def _as_map(source, domain: Interval) -> GeneratorMap:
    if isinstance(source, GeneratorMap):
        return source
    return generator_map(source, _base_axis_window(domain))


def _base_axis_window(d: Interval) -> Interval:
    """The x-axis window for building base maps.

    A single-point window is widened (staying on one side of 0 when the
    point is signed) so the mean of a point still has a well-formed frame;
    the mean itself is evaluated on the original window.
    """
    if not d.degenerate:
        return d
    a = d.lo
    pad = 1e-3 * abs(a) if a != 0.0 else 1e-3
    return Interval(a - pad, a + pad)


def _value_axis_window(f: FnLike, fdomain: Interval, probe=None) -> Interval:
    """A slightly widened hull of f's values, for building y-axis maps.

    Widening keeps numerically computed means strictly inside the map's
    domain; a side is only widened where the probe stays evaluable.
    """
    m = estimate_range_hull(f, fdomain)
    if m.degenerate:
        pad = 1e-3 * max(1.0, abs(m.lo))
        return Interval(m.lo - pad, m.hi + pad)
    pad = 1e-3 * (m.hi - m.lo)
    lo, hi = m.lo - pad, m.hi + pad
    if probe is not None:
        fn = as_scalar_fn(probe)
        try:
            if not math.isfinite(fn(lo)):
                lo = m.lo
        except (ArithmeticError, DomainError):
            lo = m.lo
        try:
            if not math.isfinite(fn(hi)):
                hi = m.hi
        except (ArithmeticError, DomainError):
            hi = m.hi
    return Interval(lo, hi)


def class_I_mean(f: FnLike, fdomain: Interval, h) -> MeanResult:
    """Mean with the identity x-map: only the value axis is transformed."""
    f = _coerce_f(f)
    if isinstance(h, GeneratorMap):
        hm = h
    else:
        h = parse(h) if isinstance(h, str) else h
        hm = generator_map(h, _value_axis_window(f, fdomain, probe=h))
    fr = make_frame((identity_map(_base_axis_window(fdomain)), hm))
    return dvi_mean(MeanProblem(f, fdomain, fr))


def class_II_mean(f: FnLike, fdomain: Interval, g) -> MeanResult:
    """Mean with the identity y-map: a g-weighted average of values."""
    f = _coerce_f(f)
    gm = _as_map(g, fdomain)
    hm = identity_map(_value_axis_window(f, fdomain))
    return dvi_mean(MeanProblem(f, fdomain, make_frame((gm, hm))))


def class_III_mean(f: FnLike, fdomain: Interval, g) -> MeanResult:
    """Mean with the same map on both axes."""
    f = _coerce_f(f)
    if isinstance(g, GeneratorMap):
        gm = g
    else:
        m = estimate_range_hull(f, fdomain)
        lo = min(fdomain.lo, m.lo)
        hi = max(fdomain.hi, m.hi)
        gm = generator_map(g, _base_axis_window(Interval(lo, hi)))
    fr = make_frame((gm, gm))
    return dvi_mean(MeanProblem(f, fdomain, fr))


def class_IV_mean(f: FnLike, fdomain: Interval, g, h) -> MeanResult:
    """Mean under an arbitrary frame: both axes transformed independently."""
    f = _coerce_f(f)
    gm = _as_map(g, fdomain)
    if isinstance(h, GeneratorMap):
        hm = h
    else:
        h = parse(h) if isinstance(h, str) else h
        hm = generator_map(h, _value_axis_window(f, fdomain, probe=h))
    return dvi_mean(MeanProblem(f, fdomain, make_frame((gm, hm))))


def class_V_mean(g, h, a: float, b: float) -> MeanResult:
    """Mean of the identity function — a bivariate mean of the endpoints."""
    lo, hi = (a, b) if a <= b else (b, a)
    d = Interval(lo, hi)
    gm = _as_map(g, d)
    hm = _as_map(h, d)  # the identity's values over d are d itself
    return dvi_mean(MeanProblem(var(), d, make_frame((gm, hm))))


def class_VI_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """Both maps the identity — an alias for the plain integral average."""
    return plain_mean(f, fdomain)


def plain_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """The ordinary integral average (both maps the identity)."""
    f = _coerce_f(f)
    fr = make_frame(
        (
            identity_map(_base_axis_window(fdomain)),
            identity_map(_value_axis_window(f, fdomain)),
        )
    )
    return dvi_mean(MeanProblem(f, fdomain, fr))


def class_VII_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """Mean under the pair (f, f⁻¹); no inversion is ever performed.

    For strictly monotone f the construction collapses to
    ``f( ∫ x f'(x) dx / (f(b) − f(a)) )``.
    """
    f = _coerce_f(f)
    fscal = as_scalar_fn(f)
    d = fdomain
    if d.degenerate:
        return MeanResult(fscal(d.lo), 0.0, "closed-form", {})
    F = generator_map(f, fdomain)
    a, b = d.lo, d.hi

    def weight(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs * F.derivative_many(xs)

    def mean_on(ak: float, bk: float, integral):
        dF = F(bk) - F(ak)
        if dF == 0.0:
            raise PreconditionError("f takes equal values at the endpoints")
        total, err_i = integral(ak, bk)
        t = total / dF
        err = abs(F.derivative_at(t)) * err_i / abs(dF) if math.isfinite(t) else math.inf
        return fscal(t), err, {"numerator": total, "denominator": dF}

    value, err, method, detail = _direct_or_limit(mean_on, weight, a, b)
    if not math.isfinite(value):
        raise DomainError("mean point fell where f is not evaluable")
    return MeanResult(value, err, method, detail)


# ---------------------------------------------------------------------------
# named means
# ---------------------------------------------------------------------------


def geometric_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """exp of the average of ln f; requires f ≥ 0 with zeros at most on the
    boundary (the quadrature's interior nodes never reach them)."""
    f = _coerce_f(f)
    m = estimate_range_hull(f, fdomain)
    if m.lo < 0.0:
        raise PreconditionError(
            f"geometric mean needs non-negative values; hull is {m}"
        )
    if m.hi <= 0.0:
        raise PreconditionError("geometric mean of an identically vanishing function")
    fr = make_frame((identity_map(_base_axis_window(fdomain)), _log_map()))
    return dvi_mean(MeanProblem(f, fdomain, fr))


def harmonic_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """Reciprocal of the average reciprocal; f must keep one sign."""
    f = _coerce_f(f)
    m = estimate_range_hull(f, fdomain)
    if m.lo >= 0.0:
        hm = _reciprocal_map(positive=True)
    elif m.hi <= 0.0:
        hm = _reciprocal_map(positive=False)
    else:
        raise PreconditionError(f"harmonic mean needs one-signed values; hull is {m}")
    fr = make_frame((identity_map(_base_axis_window(fdomain)), hm))
    return dvi_mean(MeanProblem(f, fdomain, fr))


def power_integral_mean(f: FnLike, fdomain: Interval, p: float) -> MeanResult:
    """p-th power-integral mean; p = 0 degrades to the geometric mean."""
    if p == 0.0:
        return geometric_mean(f, fdomain)
    f = _coerce_f(f)
    m = estimate_range_hull(f, fdomain)
    if m.lo < 0.0:
        raise PreconditionError(f"power-integral mean needs non-negative values; hull is {m}")
    fr = make_frame((identity_map(_base_axis_window(fdomain)), _power_map(float(p))))
    return dvi_mean(MeanProblem(f, fdomain, fr))


def elastic_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """Average of f weighted by relative x-increments (dx/x); the natural
    mean for elasticity-style quantities.  The window must be positive;
    a window reaching down to 0 is treated as open there."""
    if fdomain.lo < 0.0:
        raise PreconditionError("elastic mean needs a positive window")
    if fdomain.lo == 0.0 and not fdomain.lo_open:
        if fdomain.degenerate:
            raise PreconditionError("elastic mean needs a positive window")
        fdomain = Interval(fdomain.lo, fdomain.hi, lo_open=True, hi_open=fdomain.hi_open)
    f = _coerce_f(f)
    gm = _log_map()
    hm = identity_map(_value_axis_window(f, fdomain))
    return dvi_mean(MeanProblem(f, fdomain, make_frame((gm, hm))))


#: Every mean class by name.  Each entry maps ``(window, arg)`` to a
#: :class:`MeanResult`, where ``arg(name)`` returns the input the class
#: reads: ``"f"`` the function, ``"g"`` the x-map, ``"h"`` the y-map, ``"p"``
#: the exponent of the power class.  Class V means the identity and reads
#: no ``f``; it takes its endpoints from the window.
MEAN_CLASSES: dict[str, Callable[[Interval, Callable[[str], object]], MeanResult]] = {
    "I": lambda d, arg: class_I_mean(arg("f"), d, arg("h")),
    "II": lambda d, arg: class_II_mean(arg("f"), d, arg("g")),
    "III": lambda d, arg: class_III_mean(arg("f"), d, arg("g")),
    "IV": lambda d, arg: class_IV_mean(arg("f"), d, arg("g"), arg("h")),
    "V": lambda d, arg: class_V_mean(arg("g"), arg("h"), d.lo, d.hi),
    "VI": lambda d, arg: plain_mean(arg("f"), d),
    "VII": lambda d, arg: class_VII_mean(arg("f"), d),
    "geometric": lambda d, arg: geometric_mean(arg("f"), d),
    "harmonic": lambda d, arg: harmonic_mean(arg("f"), d),
    "elastic": lambda d, arg: elastic_mean(arg("f"), d),
    "power": lambda d, arg: power_integral_mean(arg("f"), d, arg("p")),
}


# ---------------------------------------------------------------------------
# conjugation identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugationReport:
    """Exchange identities between M_f weighted by g and M_g weighted by f.

    With A = f(a), B = f(b), C = g(a), D = g(b), E = mean of f under g,
    F = mean of g under f, and the midpoints G, H of (A,B) and (C,D):

    * ``(E−A)/(B−E) · (F−C)/(D−F) = 1``  (the division ratios are inverse),
    * ``(E−G)/(B−A) = (H−F)/(D−C)``      (the midpoint offsets balance).

    Both residuals should vanish to quadrature accuracy.
    """

    value_f_a: float
    value_f_b: float
    value_g_a: float
    value_g_b: float
    mean_f_by_g: float
    mean_g_by_f: float
    mid_f: float
    mid_g: float
    product_residual: float
    slope_residual: float


def conjugation_classII(f: FnLike, g: FnLike, fdomain: Interval) -> ConjugationReport:
    if fdomain.degenerate:
        raise PreconditionError("conjugation needs a non-degenerate window")
    if fdomain.lo_open or fdomain.hi_open:
        raise PreconditionError("conjugation needs a closed bounded window")
    fm = generator_map(_coerce_f(f), fdomain)
    gm = generator_map(_coerce_f(g), fdomain)
    a, b = fdomain.lo, fdomain.hi
    A, B = fm(a), fm(b)
    C, D = gm(a), gm(b)
    E = class_II_mean(fm.expr, fdomain, gm).value
    F = class_II_mean(gm.expr, fdomain, fm).value
    G = 0.5 * (A + B)
    H = 0.5 * (C + D)
    if min(abs(B - E), abs(D - F)) < 1e-300:
        raise PreconditionError("a mean coincides with an endpoint value")
    product_residual = ((E - A) / (B - E)) * ((F - C) / (D - F)) - 1.0
    slope_residual = (E - G) / (B - A) - (H - F) / (D - C)
    return ConjugationReport(
        value_f_a=A,
        value_f_b=B,
        value_g_a=C,
        value_g_b=D,
        mean_f_by_g=E,
        mean_g_by_f=F,
        mid_f=G,
        mid_g=H,
        product_residual=product_residual,
        slope_residual=slope_residual,
    )
