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
y-map's image) is the quotient inside h⁻¹ evaluated on a sequence of
shrunken intervals, its limit taken and h⁻¹ applied once to that limit;
the result records which route produced it and a defensible error
estimate.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

from ._errors import (
    DivergentIntegralError,
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
    The NotBondedError of a frame that does not cover the problem names
    the side that escapes: the evaluation interval, the value hull, or
    both.
    """

    f: FnLike
    fdomain: Interval
    frame: Frame
    _hull: Interval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", _coerce_f(self.f))
        if len(self.frame.dms) < 2:
            raise PreconditionError("a mean problem needs a two-map frame")
        g, h = self.frame.g, self.frame.h
        hull = estimate_range_hull(self.f, self.fdomain)
        escapes = []
        if not _covers_leniently(g.domain, self.fdomain):
            escapes.append(f"evaluation interval {self.fdomain} escapes the x-map domain {g.domain}")
        if not _covers_leniently(h.domain, hull):
            escapes.append(f"value hull {hull} escapes the y-map domain {h.domain}")
        if escapes:
            raise NotBondedError("; ".join(escapes))
        object.__setattr__(self, "_hull", hull)

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


def _direct_or_limit(quotient, finish, integrand, a: float, b: float):
    """Evaluate a frame's mean on [a, b], or its limit on shrunken windows.

    ``quotient(ak, bk, integral)`` returns ``(u, t, err, detail)``: the
    frame's quotient u on [ak, bk], where ``integral(ak, bk)`` gives
    ∫ integrand over [ak, bk] and its error; the window's extrapolation
    variable t, or None (see :func:`quadrature.endpoint_limit`); the error
    of u; and the detail of a direct result.  ``finish(u, err)`` turns a
    quotient and its error into the mean and its error, on either route.
    Direct quadrature runs first: its nodes are interior, so integrable
    endpoint blow-ups need no limit.  The endpoint limit is taken only when
    the direct evaluation raises DomainError or InversionError (a map
    undefined at the boundary, a ratio outside the y-map's image); a
    DivergentIntegralError propagates.  The limit is taken of the quotient,
    and ``finish`` is applied once, to the limit.  Where ``finish`` fails
    anywhere on the limit's error band (the band reaches an end of the
    y-map's image, or of class VII's window), the window means tend to
    infinity or to a value the map is undefined at, and the limit raises
    DivergentIntegralError.  The limit's windows are integrated over nested
    strips by :func:`quadrature.window_integrals`, each strip held to
    ``min(_LIMIT_SUBDIV, max_subdivisions())`` subdivisions.

    Returns ``(value, error, method, detail)``.
    """
    try:
        u, _, err, detail = quotient(a, b, partial(integrate, integrand))
        return (*finish(u, err), "quadrature", detail)
    except (DomainError, InversionError):
        budget = min(_LIMIT_SUBDIV, max_subdivisions())
        integral_on = window_integrals(integrand, a, b, budget)
        u, err, stage = endpoint_limit(lambda ak, bk: quotient(ak, bk, integral_on)[:2], a, b)
        try:
            finish(u - err, 0.0)
            finish(u + err, 0.0)
            value, err = finish(u, err)
        except (DomainError, InversionError) as exc:
            raise DivergentIntegralError(
                f"the limit {u} ± {err:.3g} of the quotient reaches an end of the "
                "map's domain, where the mean is not finite"
            ) from exc
        return value, err, "quadrature+endpoint-limit", {"stage": stage}


def dvi_mean(problem: MeanProblem) -> MeanResult:
    """Evaluate the mean of the problem's function under its frame."""
    d = problem.fdomain
    g, h = problem.frame.g, problem.frame.h
    if d.degenerate:
        v = _value_at(problem.f, d.lo)
        return MeanResult(v, 0.0, "closed-form", {"range_hull": str(problem.range_hull)})

    a, b = d.lo, d.hi
    if not d.bounded:
        raise PreconditionError("the evaluation window must be bounded")
    phi = _integrand(problem)
    hull = problem.range_hull

    # A diverging x-map makes the quotient L + C·t in t = 1/|g(b) − g(a)|.
    diverging = not g.image.bounded

    def quotient(ak: float, bk: float, integral):
        dg = g(bk) - g(ak)
        if dg == 0.0:
            raise PreconditionError("x-map takes equal values at the endpoints")
        total, err_i = integral(ak, bk)
        t = 1.0 / abs(dg) if diverging else None
        return total / dg, t, err_i / abs(dg), {"numerator": total, "denominator": dg}

    def finish(u: float, err: float):
        value = h.invert(u)
        return value, err / max(abs(h.derivative_at(value)), 1e-300)

    value, err, method, extra = _direct_or_limit(quotient, finish, phi, a, b)
    generalized = method != "quadrature" or max(abs(hull.lo), abs(hull.hi)) > _GENERALIZED_SPAN
    detail = {"range_hull": str(hull), "generalized": generalized, **extra}
    slack = max(1e-6, 1e-6 * abs(value), 10.0 * err)
    if not hull.contains(value, slack=slack):
        # The sampled hull only approaches f's finite limits at open ends.
        hull = hull_of(v for v in (hull.lo, hull.hi, *_end_limits(problem.f, d)) if math.isfinite(v))
        if not hull.contains(value, slack=slack):
            raise IsomeanError(
                f"computed mean {value} escapes the value hull {hull}; "
                "the intermediate-value guarantee failed"
            )
    return MeanResult(value, err, method, detail)


def _value_at(f, x: float) -> float:
    """f at the point x; DomainError where it is not finite."""
    v = as_scalar_fn(f)(x)
    if not math.isfinite(v):
        raise DomainError(f"function not evaluable at {x}")
    return v


def _end_limits(f, d: Interval) -> list:
    """f's one-sided limits, finite or not, at the open ends of `d`."""
    fvec = as_vector_fn(f)
    out = []
    for side, is_open in (("lo", d.lo_open), ("hi", d.hi_open)):
        if is_open:
            with suppress(DomainError):
                out.append(_limit_toward(fvec, d, side))
    return out


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
    """The x-map `source` on the base window of `domain`; None stands for
    the identity, and a GeneratorMap is taken as it is."""
    if isinstance(source, GeneratorMap):
        return source
    window = _base_axis_window(domain)
    return identity_map(window) if source is None else generator_map(source, window)


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


def _value_map(source, f, fdomain: Interval) -> GeneratorMap:
    """The y-map `source` on a slightly widened hull of f's values over
    `fdomain`; None stands for the identity, and a GeneratorMap is taken as
    it is.

    Widening keeps numerically computed means strictly inside the map's
    domain.  An end is only widened where the map stays evaluable, so a
    constant f under a map undefined just below it keeps its value as the
    window's end.  Where the widened window takes in a pole of the map, only
    the ends f approaches at an open end of `fdomain` stay widened: so the
    pole of 1/y at 0 is an error beside x on (0, 1], and that of −1/y is not
    beside 1/x on (0, 1], whose values start at 1.
    """
    if isinstance(source, GeneratorMap):
        return source
    m = estimate_range_hull(f, fdomain)
    pad = 1e-3 * (max(1.0, abs(m.lo)) if m.degenerate else m.hi - m.lo)
    lo, hi = m.lo - pad, m.hi + pad
    if source is None:
        return identity_map(Interval(lo, hi))
    source = _coerce_f(source)
    at_lo, at_hi = as_vector_fn(source)(np.array([lo, hi])).tolist()
    lo = lo if math.isfinite(at_lo) else m.lo
    hi = hi if math.isfinite(at_hi) else m.hi
    try:
        return generator_map(source, Interval(lo, hi))
    except DomainError:
        if m.degenerate:
            raise
        ends = _end_limits(f, fdomain)
        lo = lo if any(e <= m.lo for e in ends) else m.lo
        hi = hi if any(e >= m.hi for e in ends) else m.hi
        return generator_map(source, Interval(lo, hi))


def _framed_mean(f: FnLike, fdomain: Interval, g=None, h=None) -> MeanResult:
    """The mean of f under the x-map `g` and the y-map `h`, each built by
    `_as_map` or `_value_map` (None is the identity)."""
    f = _coerce_f(f)
    fr = make_frame((_as_map(g, fdomain), _value_map(h, f, fdomain)))
    return dvi_mean(MeanProblem(f, fdomain, fr))


def class_I_mean(f: FnLike, fdomain: Interval, h) -> MeanResult:
    """Mean with the identity x-map: only the value axis is transformed."""
    return _framed_mean(f, fdomain, h=h)


def class_II_mean(f: FnLike, fdomain: Interval, g) -> MeanResult:
    """Mean with the identity y-map: a g-weighted average of values."""
    return _framed_mean(f, fdomain, g=g)


def class_III_mean(f: FnLike, fdomain: Interval, g) -> MeanResult:
    """Mean with the same map on both axes, built on the window that spans
    both the evaluation window and f's value hull."""
    f = _coerce_f(f)
    m = estimate_range_hull(f, fdomain)
    gm = _as_map(g, Interval(min(fdomain.lo, m.lo), max(fdomain.hi, m.hi)))
    return dvi_mean(MeanProblem(f, fdomain, make_frame((gm, gm))))


def class_IV_mean(f: FnLike, fdomain: Interval, g, h) -> MeanResult:
    """Mean under an arbitrary frame: both axes transformed independently."""
    return _framed_mean(f, fdomain, g=g, h=h)


def class_V_mean(g, h, a: float, b: float) -> MeanResult:
    """Mean of the identity function — a bivariate mean of the endpoints."""
    lo, hi = (a, b) if a <= b else (b, a)
    d = Interval(lo, hi)
    gm = _as_map(g, d)
    hm = _as_map(h, d)  # the identity's values over d are d itself
    return dvi_mean(MeanProblem(var(), d, make_frame((gm, hm))))


def class_VI_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """Both maps the identity — an alias for the plain integral average."""
    return _framed_mean(f, fdomain)


def plain_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """The ordinary integral average (both maps the identity)."""
    return _framed_mean(f, fdomain)


def class_VII_mean(f: FnLike, fdomain: Interval) -> MeanResult:
    """Mean under the pair (f, f⁻¹); no inversion is ever performed.

    For strictly monotone f the construction collapses to
    ``f( ∫ x f'(x) dx / (f(b) − f(a)) )``.
    """
    f = _coerce_f(f)
    d = fdomain
    if d.degenerate:
        return MeanResult(_value_at(f, d.lo), 0.0, "closed-form", {})
    F = generator_map(f, fdomain)
    a, b = d.lo, d.hi

    def weight(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs * F.derivative_many(xs)

    # No extrapolation variable: where F diverges at an end, the mean point
    # tends to that end and the mean is infinite.
    def quotient(ak: float, bk: float, integral):
        dF = F(bk) - F(ak)
        if dF == 0.0:
            raise PreconditionError("f takes equal values at the endpoints")
        total, err_i = integral(ak, bk)
        return total / dF, None, err_i / abs(dF), {"numerator": total, "denominator": dF}

    def finish(u: float, err: float):
        if not d.contains(u):
            raise DomainError(f"mean point {u} lies outside {d}")
        return F(u), abs(F.derivative_at(u)) * err

    return MeanResult(*_direct_or_limit(quotient, finish, weight, a, b))


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
    return _framed_mean(f, fdomain, h=_log_map())


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
    return _framed_mean(f, fdomain, h=hm)


def power_integral_mean(f: FnLike, fdomain: Interval, p: float) -> MeanResult:
    """p-th power-integral mean; p = 0 degrades to the geometric mean."""
    if p == 0.0:
        return geometric_mean(f, fdomain)
    f = _coerce_f(f)
    m = estimate_range_hull(f, fdomain)
    if m.lo < 0.0:
        raise PreconditionError(f"power-integral mean needs non-negative values; hull is {m}")
    return _framed_mean(f, fdomain, h=_power_map(float(p)))


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
    return _framed_mean(f, fdomain, g=_log_map())


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
