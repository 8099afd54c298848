"""Isomorphic frames: validated monotone bijections and sampled value hulls.

A GeneratorMap is one strictly monotone map (one axis of a frame) with its
verified monotonicity, computed image, and an inversion strategy.  A Frame
is an ordered tuple of such maps; a 2-D frame (g, h) is what function means
are built on: g transforms the independent axis, h the dependent axis.
Whether a frame covers a function is decided by `funmean.MeanProblem`.

Verified maps and sampled value hulls are memoised in one bounded table
(the last `_MEMO_SIZE` entries), and every entry is made and found by
`recall`.  A hull or a build is keyed on the expression object itself and
the window (`_memoised`), so repeated frames over the same maps are
verified once.  One more entry per expression object, keyed on the object
alone, holds the list of maps verified on its maximal windows (the last
`_WINDOWS` of them); a build that raises adds no map to it.  A fresh window
that one of them covers is not verified again: a strictly monotone map
without a pole on a window is one on every sub-window, so the map is
restricted (`_verified_map`) and only its image and the probe of its
inversion steps are computed on the new window.  The answer can then
depend on history: x^3 on [-1e-6, 1e-6] raises NonMonotoneError on its
own, since its derivative samples there read Unknown, but is the
restriction of the verified map once [-1, 1] has been built.  The identity
map is not verified: its answer is known (:func:`identity_map`).
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ._errors import DomainError, InversionError, NonMonotoneError, PreconditionError
from . import expr as E
from .classify import (
    DEFAULT_SAMPLES,
    STRICTLY_INCREASING,
    MonotonicityClass,
    classify_monotonicity,
    sample_grid,
)
from .expr import Expr, as_vector_fn, compile_numpy, differentiate
from .intervals import Interval, hull
from .invert import apply_steps, closed_form_steps, invert_monotone, residual_ok_at, within
from .parse import parse

CLOSED_FORM = "closed-form"
BRACKETED_NUMERIC = "bracketed-numeric"

# The memo of verified builds: key → (held objects, result), oldest first.
_MEMO_SIZE = 256
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()
# Per expression, the memo keeps the maps verified on at most this many
# windows, none covering another.
_WINDOWS = 8


def recall(table: OrderedDict, size: int, key: tuple, held: tuple, build):
    """build(), computed once per key among the last `size` entries of `table`.

    The key holds the identities of the objects `held`.  Each entry keeps
    them alive, so an `id` cannot be reused while the entry exists, and a
    hit checks them with `is`.  A build that raises is not stored and
    raises again on the next call.
    """
    with _memo_lock:
        hit = table.get(key)
        if hit is not None and all(map(operator.is_, hit[0], held)):
            table.move_to_end(key)
            return hit[1]
    value = build()
    with _memo_lock:
        table[key] = (held, value)
        while len(table) > size:
            table.popitem(last=False)
    return value


def _memoised(build, expr, d: Interval, *extra):
    """build(expr, d, *extra), computed once per expression object, window
    and extra arguments among the last `_MEMO_SIZE` builds.

    The key holds the expression's identity (a structurally equal tree is
    another key), the window's ends, open flags and signs of zero (so
    [-0.0, 1] and [0.0, 1] are two keys).
    """
    key = (build, id(expr), d.lo, d.hi, d.lo_open, d.hi_open,
           math.copysign(1.0, d.lo), math.copysign(1.0, d.hi)) + extra
    return recall(_memo, _MEMO_SIZE, key, (expr,), lambda: build(expr, d, *extra))


@dataclass(frozen=True)
class GeneratorMap:
    """A strictly monotone map on an interval, ready for inversion.

    The map is held as its two array views, `_fvec` for its values and
    `_dvec` for its derivative, which give NaN or ±inf, never an error,
    where the map is undefined.  Every other view calls them: `__call__` and
    `derivative_at` are their one-point calls, and `invert` takes the
    closed-form candidate of the inversion `_steps` when it passes the
    engine's own test, and otherwise makes the one-point call of
    :func:`invert_monotone`, which solves its one target in float
    arithmetic and gives the same float as the engine's array loop.  The
    inverse map's views run the engine on arrays.
    """

    expr: Optional[Expr]
    domain: Interval
    image: Interval
    monotonicity: MonotonicityClass
    inverse_strategy: str
    _fvec: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False, default=None)
    _dvec: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False, default=None)
    _steps: Optional[tuple] = field(repr=False, compare=False, default=None)
    _forward: Optional["GeneratorMap"] = field(repr=False, compare=False, default=None)

    @property
    def increasing(self) -> bool:
        return self.monotonicity.is_strictly_increasing

    def __call__(self, x: float) -> float:
        v = float(self._fvec(np.array([float(x)]))[0])
        if not math.isfinite(v):
            raise DomainError(f"map undefined at {x}")
        return v

    def value_many(self, xs) -> np.ndarray:
        return self._fvec(xs)

    def derivative_at(self, x: float) -> float:
        return float(self._dvec(np.array([float(x)]))[0])

    def derivative_many(self, xs) -> np.ndarray:
        return self._dvec(xs)

    def invert(self, u: float) -> float:
        """x with |map(x) − u| within the mixed 1e-12 tolerance."""
        u = float(u)
        if not (math.isfinite(u) and self.image.contains(u, slack=max(1e-9, 1e-9 * abs(u)))):
            raise InversionError(f"value {u} lies outside the image {self.image}")
        if self._forward is not None:
            return self._forward(u)
        us = np.array([u])
        if self._steps is not None:
            # The engine's candidate test, on one point in float arithmetic.
            x = float(apply_steps(self._steps, us)[0])
            if within(self.domain, x) and residual_ok_at(float(self._fvec(np.array([x]))[0]), u):
                return x
        x = float(invert_monotone(self._fvec, self.domain, us, self.increasing, self._dvec)[0])
        if math.isnan(x):
            raise InversionError(f"inverse at {u} did not meet tolerance inside {self.domain}")
        return x

    def _preimages(self, us: np.ndarray) -> np.ndarray:
        """One engine call for every target of `us`, with the closed-form
        candidates when the map has inversion steps."""
        x0 = apply_steps(self._steps, us) if self._steps is not None else None
        return invert_monotone(self._fvec, self.domain, us, self.increasing, self._dvec, x0)

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

        def inv_many(us) -> np.ndarray:
            us = np.asarray(us, dtype=float)
            return self._preimages(np.where(within(self.image, us), us, np.nan))

        def inv_deriv_many(us) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                d = self._dvec(inv_many(us))
                return np.where(d != 0.0, 1.0 / d, np.nan)

        return GeneratorMap(
            expr=inv_expr,
            domain=self.image,
            image=self.domain,
            monotonicity=self.monotonicity,
            inverse_strategy=CLOSED_FORM if inv_expr is not None else BRACKETED_NUMERIC,
            _fvec=inv_many,
            _dvec=inv_deriv_many,
            _steps=None,
            _forward=self,
        )


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


def _probe_points(d: Interval, n: int = 5):
    """`n` evenly spaced points strictly inside `d` pulled in by 1e-3."""
    box = d.clamp_inward(1e-3)
    span = box.hi - box.lo
    return [box.lo + span * k / (n + 1) for k in range(1, n + 1)]


def _probe_inverse_expr(gm: "GeneratorMap", inv_expr: Expr) -> bool:
    """Whether `inv_expr` takes the map's finite values at the probe points
    back to the points, to 1e-9 relative to 1 + |x|."""
    xs = np.array(_probe_points(gm.domain))
    us = gm._fvec(xs)
    kept = np.isfinite(us)
    back = compile_numpy(inv_expr)(us[kept])
    return bool(np.all(np.abs(back - xs[kept]) <= 1e-9 * (1.0 + np.abs(xs[kept]))))


def generator_map(source: Union[Expr, str], domain: Interval) -> GeneratorMap:
    """Build a verified GeneratorMap from an expression (or its text).

    The same expression object on the same window gives the same map
    object, verified once (see `_memoised`), and a window inside one the
    expression was verified on is not verified again (see `_verified_map`).
    The map x is not verified at all: see :func:`identity_map`.  A source
    that is neither text nor an expression (an array callable such as
    ``np.exp``) raises PreconditionError.
    """
    expr = parse(source) if isinstance(source, str) else source
    if not isinstance(expr, Expr):
        raise PreconditionError(f"a generator map needs an expression, not {source!r}")
    return _memoised(_build_identity if expr.op == "var" else _verified_map, expr, domain)


def identity_map(d: Interval) -> GeneratorMap:
    """The map x on `d`, built by proof, with no sampling."""
    return _memoised(_build_identity, E.var(), d)


# The identity's two views and its shape, shared by every identity map.
_X_VIEW = compile_numpy(E.var())
_ONE_VIEW = compile_numpy(differentiate(E.var()))
_INCREASING = MonotonicityClass(STRICTLY_INCREASING, resolution=DEFAULT_SAMPLES)


def _build_identity(x: Expr, d: Interval) -> GeneratorMap:
    """The map `x` on `d` as the verified build would find it: strictly
    increasing at the default resolution, no pole, inverted by the empty
    step list.  Only the image is computed: a closed end is its own value,
    and an open end keeps the limit the verified build takes toward it."""
    if d.degenerate:
        raise PreconditionError("a generator map needs a non-degenerate domain")
    return GeneratorMap(
        expr=x,
        domain=d,
        image=Interval(
            _limit_toward(_X_VIEW, d, "lo") if d.lo_open else d.lo,
            _limit_toward(_X_VIEW, d, "hi") if d.hi_open else d.hi,
            d.lo_open,
            d.hi_open,
        ),
        monotonicity=_INCREASING,
        inverse_strategy=CLOSED_FORM,
        _fvec=_X_VIEW,
        _dvec=_ONE_VIEW,
        _steps=(),
    )


def _verified_map(expr: Expr, d: Interval) -> GeneratorMap:
    """The map `expr` on `d`: the restriction of a map verified on a window
    that covers `d`, else a verified build, kept among the expression's
    maximal windows.  A build that raises is not kept.

    A restriction keeps the verified map's shape, pole scan and views,
    which hold on every sub-window, and computes again what a build on `d`
    computes from d's ends (see `_on_window`).
    """
    if d.degenerate:
        raise PreconditionError("a generator map needs a non-degenerate domain")
    kept = recall(_memo, _MEMO_SIZE, (_verified_map, id(expr)), (expr,), list)
    with _memo_lock:
        wide = next((gm for gm in kept if gm.domain.covers(d)), None)
    if wide is not None:
        return _on_window(expr, d, wide.monotonicity, wide._fvec, wide._dvec)
    gm = _build_map(expr, d)
    with _memo_lock:
        kept[:] = ([old for old in kept if not d.covers(old.domain)] + [gm])[-_WINDOWS:]
    return gm


def _build_map(expr: Expr, domain: Interval) -> GeneratorMap:
    mono = classify_monotonicity(expr, domain)
    if not mono.is_strictly_monotone:
        # A map undefined on part of the domain can come out "NonMonotone"
        # through its derivative (1/x exists on both sides of 0, ln does not),
        # so check definedness before blaming the shape.
        xs = np.array(_probe_points(domain, 33))
        bad = xs[~np.isfinite(compile_numpy(expr)(xs))]
        if bad.size:
            raise DomainError(f"map {expr} is undefined at x={bad[0]:.6g} inside {domain}")
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
    return _on_window(expr, domain, mono, fvec, compile_numpy(differentiate(expr)))


def _on_window(expr: Expr, domain: Interval, mono: MonotonicityClass, fvec, dvec) -> GeneratorMap:
    """The map of verified shape `mono` on `domain`: its image from the
    closed ends' values or the open ends' limits, and its closed-form
    inversion steps where they invert the map at the probe points.  The
    closed ends' values come from the same `fvec` call as the probe
    points' values, so the image is made of the map's own values."""
    xs = _probe_points(domain)
    vals = fvec(np.array([*xs, domain.lo, domain.hi]))
    us = vals[:-2]
    ends = []
    for side, x, is_open, v in (("lo", domain.lo, domain.lo_open, float(vals[-2])),
                                ("hi", domain.hi, domain.hi_open, float(vals[-1]))):
        if is_open:
            v = _limit_toward(fvec, domain, side)
        elif not math.isfinite(v):
            raise DomainError(f"map undefined at the closed endpoint {x}")
        ends.append(v)
    v_lo, v_hi = ends
    if mono.is_strictly_increasing:
        img = Interval(v_lo, v_hi, domain.lo_open, domain.hi_open)
    else:
        img = Interval(v_hi, v_lo, domain.hi_open, domain.lo_open)

    steps = closed_form_steps(expr)
    if steps is not None:
        back = apply_steps(steps, us).tolist()
        if not all(abs(bx - x) <= 1e-9 * (1.0 + abs(x))
                   for x, u, bx in zip(xs, us.tolist(), back) if math.isfinite(u)):
            steps = None
    strategy = CLOSED_FORM if steps is not None else BRACKETED_NUMERIC
    return GeneratorMap(
        expr=expr,
        domain=domain,
        image=img,
        monotonicity=mono,
        inverse_strategy=strategy,
        _fvec=fvec,
        _dvec=dvec,
        _steps=steps,
    )


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


def estimate_range_hull(f, fdomain: Interval, samples: int = 257) -> Interval:
    """Closed hull [inf M, sup M] of f's values over fdomain, sampled.

    The hull of an `Expr` is memoised (see `_memoised`); a callable may
    carry state, so its hull is sampled on every call.
    """
    if isinstance(f, Expr):
        return _memoised(_range_hull, f, fdomain, samples)
    return _range_hull(f, fdomain, samples)


def _range_hull(f, fdomain: Interval, samples: int) -> Interval:
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
    # The grid holds the closed ends of a bounded window exactly; on a
    # half-line it only comes within 1e-6 of the closed finite end.
    if not fdomain.bounded:
        for x, is_open in ((fdomain.lo, fdomain.lo_open), (fdomain.hi, fdomain.hi_open)):
            if not is_open:
                v = fvec(np.asarray([x]))[0]
                if math.isfinite(v):
                    extra.append(float(v))
    values = []
    if good.size:
        values += [float(good.min()), float(good.max())]
    values += extra
    if not values:
        raise DomainError(f"function not evaluable anywhere on {fdomain}")
    return hull(values)

