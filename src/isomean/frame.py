"""Isomorphic frames: validated monotone bijections and bonding checks.

A GeneratorMap is one strictly monotone map (one axis of a frame) with its
verified monotonicity, computed image, and an inversion strategy.  A Frame
is an ordered tuple of such maps; a 2-D frame (g, h) is what function means
are built on: g transforms the independent axis, h the dependent axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ._errors import DomainError, InversionError, NonMonotoneError, PreconditionError
from . import expr as E
from .classify import MonotonicityClass, classify_monotonicity, sample_grid
from .expr import Expr, as_vector_fn, compile_numpy, differentiate, evaluate
from .intervals import Interval, hull
from .invert import (
    apply_steps,
    closed_form_steps,
    invert_many_bracketed,
    invert_monotone,
    residual_ok,
)
from .parse import parse

CLOSED_FORM = "closed-form"
BRACKETED_NUMERIC = "bracketed-numeric"


@dataclass(frozen=True)
class GeneratorMap:
    """A strictly monotone map on an interval, ready for inversion."""

    expr: Optional[Expr]
    domain: Interval
    image: Interval
    monotonicity: MonotonicityClass
    inverse_strategy: str
    _fval: Callable[[float], float] = field(repr=False, compare=False, default=None)
    _dval: Callable[[float], float] = field(repr=False, compare=False, default=None)
    _steps: Optional[tuple] = field(repr=False, compare=False, default=None)
    _forward: Optional["GeneratorMap"] = field(repr=False, compare=False, default=None)
    # Array views of _fval and _dval; every constructor passes both.
    _fvec: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False, default=None)
    _dvec: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False, default=None)

    @property
    def increasing(self) -> bool:
        return self.monotonicity.is_strictly_increasing

    def __call__(self, x: float) -> float:
        v = self._fval(float(x))
        if not math.isfinite(v):
            raise DomainError(f"map undefined at {x}")
        return v

    def value_many(self, xs) -> np.ndarray:
        return self._fvec(xs)

    def derivative_at(self, x: float) -> float:
        return self._dval(float(x))

    def derivative_many(self, xs) -> np.ndarray:
        return self._dvec(xs)

    def invert(self, u: float) -> float:
        """x with |map(x) − u| within the mixed 1e-12 tolerance."""
        u = float(u)
        if not self.image.contains(u, slack=max(1e-9, 1e-9 * abs(u))):
            raise InversionError(f"value {u} lies outside the image {self.image}")
        if self._forward is not None:
            return self._forward(u)
        x0 = float(apply_steps(self._steps, [u])[0]) if self._steps is not None else None
        return invert_monotone(
            self._fval, self.domain, u, self.increasing, deriv=self._dval, x0=x0
        )

    def inverse(self) -> "GeneratorMap":
        """The inverse map, with domain and image swapped.

        Inverting twice returns the original object, so the round trip is an
        exact involution.
        """
        if self._forward is not None:
            return self._forward
        inv_expr = apply_steps(self._steps, E.var()) if self._steps is not None else None
        if inv_expr is not None and not _probe_inverse_expr(self, inv_expr):
            inv_expr = None

        def inv_val(u: float) -> float:
            try:
                return self.invert(u)
            except (InversionError, DomainError):
                return math.nan

        def inv_deriv(u: float) -> float:
            try:
                x = self.invert(u)
                d = self._dval(x)
                return 1.0 / d if d != 0.0 else math.nan
            except (InversionError, DomainError, ZeroDivisionError):
                return math.nan

        def inv_many(us) -> np.ndarray:
            return _invert_many(self, np.asarray(us, dtype=float), inv_val)

        def inv_deriv_many(us) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                d = self.derivative_many(inv_many(us))
                return np.where(d != 0.0, 1.0 / d, np.nan)

        return GeneratorMap(
            expr=inv_expr,
            domain=self.image,
            image=self.domain,
            monotonicity=self.monotonicity,
            inverse_strategy=CLOSED_FORM if inv_expr is not None else BRACKETED_NUMERIC,
            _fval=inv_val,
            _dval=inv_deriv,
            _steps=None,
            _forward=self,
            _fvec=inv_many,
            _dvec=inv_deriv_many,
        )


def _invert_many(gm: GeneratorMap, us: np.ndarray, inv_val) -> np.ndarray:
    """Preimages of `us` under `gm`, NaN outside its image.

    Candidates come from the closed-form steps, else from one vectorized
    bisection over the domain (infinite ends cut at ±1e6) and Newton
    polish.  A candidate is kept where it lies in the domain and meets the
    residual tolerance of :meth:`GeneratorMap.invert`; every other point
    goes through the scalar inversion `inv_val`.
    """
    d = gm.domain
    if gm._steps is not None:
        xs = apply_steps(gm._steps, us)
    else:
        lo = d.lo if math.isfinite(d.lo) else min(-1e6, d.hi - 1.0)
        hi = d.hi if math.isfinite(d.hi) else max(1e6, d.lo + 1.0)
        # Bisect to the width at which invert_monotone stops, then polish.
        width = 1e-8 * max(1.0, abs(lo), abs(hi))
        iters = max(0, math.ceil(math.log2((hi - lo) / width)))
        xs = invert_many_bracketed(
            gm.value_many, lo, hi, us, gm.increasing, gm.derivative_many, iters
        )
    ok = residual_ok(gm.value_many(xs), us) & (xs >= d.lo) & (xs <= d.hi)
    out = np.where(ok, xs, np.nan)
    for i in np.flatnonzero(~ok):
        out.flat[i] = inv_val(float(us.flat[i]))
    return out


def _scalar_view(fvec) -> Callable[[float], float]:
    def fval(x: float) -> float:
        return float(fvec(np.asarray([x]))[0])

    return fval


def _limit_toward(fvec, d: Interval, side: str) -> float:
    """Limit value of the map approaching an open/infinite endpoint.

    `fvec` is the map's array view; the sequence toward the end is read up
    to its first non-finite value.
    """
    span = (d.hi - d.lo) if d.bounded else 1.0
    if side == "lo":
        if math.isinf(d.lo):
            xs = [-(10.0 ** k) for k in range(0, 14)]
        else:
            xs = [d.lo + span * 10.0 ** (-k) for k in range(2, 14)]
    else:
        if math.isinf(d.hi):
            xs = [10.0 ** k for k in range(0, 14)]
        else:
            xs = [d.hi - span * 10.0 ** (-k) for k in range(2, 14)]
    vals = fvec(np.array(xs)).tolist()
    n = next((i for i, v in enumerate(vals) if not math.isfinite(v)), len(vals))
    overflow = n < len(vals)
    vals = vals[:n]
    if not vals:
        raise DomainError(f"map not evaluable approaching the {side} endpoint of {d}")
    if overflow:
        return math.copysign(math.inf, vals[-1] if vals[-1] != 0 else 1.0)
    if len(vals) >= 3:
        d1 = abs(vals[-1] - vals[-2])
        d2 = abs(vals[-2] - vals[-3])
        scale = max(1.0, abs(vals[-1]))
        if d1 > 1e-6 * scale and d1 >= 0.5 * d2:
            # Steps are not shrinking: the limit diverges.
            return math.copysign(math.inf, vals[-1] - vals[-2])
    if abs(vals[-1]) > 1e12:
        return math.copysign(math.inf, vals[-1])
    return vals[-1]


def _endpoint_value(fvec, d: Interval, side: str, closed_value=None) -> float:
    if side == "lo" and not d.lo_open:
        if closed_value is None or not math.isfinite(closed_value):
            raise DomainError(f"map undefined at the closed endpoint {d.lo}")
        return closed_value
    if side == "hi" and not d.hi_open:
        if closed_value is None or not math.isfinite(closed_value):
            raise DomainError(f"map undefined at the closed endpoint {d.hi}")
        return closed_value
    return _limit_toward(fvec, d, side)


def _probe_points(d: Interval, n: int = 5):
    return d.clamp_inward(1e-3).interior_points(n)


def _probe_inverse_expr(gm: "GeneratorMap", inv_expr: Expr) -> bool:
    for x in _probe_points(gm.domain):
        try:
            u = gm._fval(x)
            if not math.isfinite(u):
                continue
            back = evaluate(inv_expr, u)
        except DomainError:
            return False
        if abs(back - x) > 1e-9 * (1.0 + abs(x)):
            return False
    return True


def generator_map(source: Union[Expr, str], domain: Interval) -> GeneratorMap:
    """Build a verified GeneratorMap from an expression (or its text)."""
    expr = parse(source) if isinstance(source, str) else source
    if domain.degenerate:
        raise PreconditionError("a generator map needs a non-degenerate domain")
    mono = classify_monotonicity(expr, domain)
    if not mono.is_strictly_monotone:
        # A map undefined on part of the domain can come out "NonMonotone"
        # through its derivative (1/x exists on both sides of 0, ln does not),
        # so check definedness before blaming the shape.
        for x in _probe_points(domain, 33):
            try:
                u = evaluate(expr, x)
            except DomainError:
                raise DomainError(
                    f"map {expr} is undefined at x={x:.6g} inside {domain}"
                ) from None
            if not math.isfinite(u):
                raise DomainError(
                    f"map {expr} is not finite at x={x:.6g} inside {domain}"
                )
        raise NonMonotoneError(
            f"map {expr} is {mono.kind} on {domain}"
            + (f" (witnesses {mono.witnesses})" if mono.witnesses else "")
        )
    fvec = compile_numpy(expr)
    # 1/x and tan have one derivative sign on both sides of a pole, so the
    # derivative test passes them; the values step backwards across it.
    ys = fvec(sample_grid(domain, 33))
    if np.any(np.diff(ys[np.isfinite(ys)]) * mono.direction < 0):
        raise DomainError(f"map {expr} has a pole or jump inside {domain}")
    fval = _scalar_view(fvec)
    dvec = compile_numpy(differentiate(expr))
    dval = _scalar_view(dvec)

    closed_lo = None
    closed_hi = None
    if not domain.lo_open:
        try:
            closed_lo = evaluate(expr, domain.lo)
        except DomainError:
            closed_lo = None
    if not domain.hi_open:
        try:
            closed_hi = evaluate(expr, domain.hi)
        except DomainError:
            closed_hi = None
    v_lo = _endpoint_value(fvec, domain, "lo", closed_lo)
    v_hi = _endpoint_value(fvec, domain, "hi", closed_hi)
    if mono.is_strictly_increasing:
        img = Interval(v_lo, v_hi, domain.lo_open, domain.hi_open)
    else:
        img = Interval(v_hi, v_lo, domain.hi_open, domain.lo_open)

    steps = closed_form_steps(expr)
    if steps is not None:
        xs = np.asarray(_probe_points(domain))
        us = fvec(xs)
        ok = np.isfinite(us)
        xs, back = xs[ok], apply_steps(steps, us[ok])
        if not np.all(np.abs(back - xs) <= 1e-9 * (1.0 + np.abs(xs))):
            steps = None
    strategy = CLOSED_FORM if steps is not None else BRACKETED_NUMERIC
    return GeneratorMap(
        expr=expr,
        domain=domain,
        image=img,
        monotonicity=mono,
        inverse_strategy=strategy,
        _fval=fval,
        _dval=dval,
        _steps=steps,
        _forward=None,
        _fvec=fvec,
        _dvec=dvec,
    )


def invert_eval(g: GeneratorMap, u: float) -> float:
    """Solve g(x) = u on g's domain."""
    return g.invert(u)


@dataclass(frozen=True)
class Frame:
    """An ordered tuple of generator maps acting componentwise."""

    dms: tuple

    @property
    def g(self) -> GeneratorMap:
        return self.dms[0]

    @property
    def h(self) -> GeneratorMap:
        if len(self.dms) < 2:
            raise PreconditionError("frame has no second (dependent-axis) map")
        return self.dms[1]


def make_frame(dms) -> Frame:
    """Validate and assemble a frame.

    Accepts GeneratorMap instances or (expression, interval) pairs; pairs
    are built and therefore monotonicity-verified here.
    """
    if not dms:
        raise PreconditionError("a frame needs at least one map")
    built = []
    for item in dms:
        if isinstance(item, GeneratorMap):
            built.append(item)
        else:
            src, dom = item
            built.append(generator_map(src, dom))
    return Frame(tuple(built))


def invert_frame(fr: Frame) -> Frame:
    return Frame(tuple(dm.inverse() for dm in fr.dms))


@dataclass(frozen=True)
class BondedReport:
    """Whether f (on fdomain) is covered by the frame: the base must lie in
    the g-map's domain and the value hull in the h-map's domain."""

    bonded: bool
    base_ok: bool
    hull_ok: bool
    range_hull: Interval
    message: str


def estimate_range_hull(f, fdomain: Interval, samples: int = 257) -> Interval:
    """Closed hull [inf M, sup M] of f's values over fdomain, sampled."""
    if fdomain.degenerate:
        fn = E.as_scalar_fn(f)
        v = fn(fdomain.lo)
        if not math.isfinite(v):
            raise DomainError("function not evaluable on its degenerate domain")
        return Interval(v, v)
    fvec = as_vector_fn(f)
    xs = sample_grid(fdomain, samples)
    vals = fvec(xs)
    good = vals[np.isfinite(vals)]
    extra = []
    for side, is_open in (("lo", fdomain.lo_open), ("hi", fdomain.hi_open)):
        x = fdomain.lo if side == "lo" else fdomain.hi
        if not is_open and math.isfinite(x):
            v = fvec(np.asarray([x]))[0]
            if math.isfinite(v):
                extra.append(float(v))
    values = []
    if good.size:
        values += [float(np.min(good)), float(np.max(good))]
    values += extra
    if not values:
        raise DomainError(f"function not evaluable anywhere on {fdomain}")
    return hull(values)


def check_bonded(f, fdomain: Interval, fr: Frame) -> BondedReport:
    """Report whether the frame covers f: fdomain ⊆ dom(g) and the value
    hull ⊆ dom(h)."""
    if len(fr.dms) < 2:
        raise PreconditionError("bonding check needs a 2-D frame")
    m = estimate_range_hull(f, fdomain)
    base_ok = fr.g.domain.covers(fdomain)
    hull_ok = fr.h.domain.covers(m)
    parts = []
    if not base_ok:
        parts.append(f"evaluation interval {fdomain} escapes the x-map domain {fr.g.domain}")
    if not hull_ok:
        parts.append(f"value hull {m} escapes the y-map domain {fr.h.domain}")
    msg = "; ".join(parts) if parts else "bonded"
    return BondedReport(
        bonded=base_ok and hull_ok,
        base_ok=base_ok,
        hull_ok=hull_ok,
        range_hull=m,
        message=msg,
    )
