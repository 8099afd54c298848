"""Sampled monotonicity and convexity classification.

Classification is evidence, not proof: signs of the symbolic derivative
(or of finite differences, for plain callables) are read off a Chebyshev
sample grid.  Results carry the resolution used and, for the falsifiable
answers (NonMonotone, Mixed), concrete witness points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from ._errors import PreconditionError
from .expr import Expr, as_vector_fn, compile_numpy, differentiate
from .intervals import Interval

DEFAULT_SAMPLES = 257

STRICTLY_INCREASING = "StrictlyIncreasing"
STRICTLY_DECREASING = "StrictlyDecreasing"
CONSTANT = "Constant"
NON_MONOTONE = "NonMonotone"
UNKNOWN = "Unknown"

CONVEX = "Convex"
CONCAVE = "Concave"
STRICTLY_CONVEX = "StrictlyConvex"
STRICTLY_CONCAVE = "StrictlyConcave"
AFFINE = "Affine"
MIXED = "Mixed"

# Derivative magnitudes below this absolute floor count as zero.
_SIGN_FLOOR = 1e-12
# A minority of at most this many opposite-sign samples, all of relative
# magnitude below _NOISE_RATIO of the majority, is ambiguous → Unknown.
_MINORITY_MAX = 2
_NOISE_RATIO = 1e-9


@dataclass(frozen=True)
class MonotonicityClass:
    """Kind ∈ {StrictlyIncreasing, StrictlyDecreasing, Constant,
    NonMonotone, Unknown} with witnesses for NonMonotone."""

    kind: str
    witnesses: tuple = ()
    resolution: int = 0

    @property
    def is_strictly_increasing(self) -> bool:
        return self.kind == STRICTLY_INCREASING

    @property
    def is_strictly_decreasing(self) -> bool:
        return self.kind == STRICTLY_DECREASING

    @property
    def is_strictly_monotone(self) -> bool:
        return self.kind in (STRICTLY_INCREASING, STRICTLY_DECREASING)

    @property
    def direction(self) -> int:
        """+1 increasing, −1 decreasing, 0 otherwise."""
        if self.kind == STRICTLY_INCREASING:
            return 1
        if self.kind == STRICTLY_DECREASING:
            return -1
        return 0


@dataclass(frozen=True)
class ConvexityClass:
    """Kind ∈ {Convex, Concave, StrictlyConvex, StrictlyConcave, Affine,
    Mixed, Unknown} with witness subintervals for Mixed.  Convention:
    "convex" means convex to lower (second derivative ≥ 0)."""

    kind: str
    witnesses: tuple = ()
    resolution: int = 0

    @property
    def is_convex(self) -> bool:
        return self.kind in (CONVEX, STRICTLY_CONVEX, AFFINE)

    @property
    def is_concave(self) -> bool:
        return self.kind in (CONCAVE, STRICTLY_CONCAVE, AFFINE)


# A callable is an array callable (see expr.as_vector_fn).
FnLike = Union[Expr, Callable[[np.ndarray], np.ndarray]]


def sample_grid(d: Interval, n: int = DEFAULT_SAMPLES) -> np.ndarray:
    """`n` Chebyshev–Lobatto-distributed points across `d`.

    Points cluster near the endpoints, where singular behavior lives.
    Open finite endpoints are pulled inward by a relative 1e-6 of the
    parameterization; infinite endpoints are reached through compactifying
    maps (t/(1−t²) for the whole line, u/(1−u) for half-lines).
    """
    if d.degenerate:
        raise PreconditionError("empty or degenerate interval")
    t = _lobatto_nodes(n)
    lo, hi = d.lo, d.hi
    lo_inf, hi_inf = math.isinf(lo), math.isinf(hi)
    eps = 1e-6
    if not lo_inf and not hi_inf:
        tlo = eps if d.lo_open else 0.0
        thi = eps if d.hi_open else 0.0
        t = tlo + t * (1.0 - tlo - thi)
        xs = lo + t * (hi - lo)
        # lo + 1.0·(hi − lo) can round past hi; closed ends are sampled exactly.
        if not d.lo_open:
            xs[0] = lo
        if not d.hi_open:
            xs[-1] = hi
        return xs
    t = eps + t * (1.0 - 2 * eps)
    if lo_inf and hi_inf:
        s = 2.0 * t - 1.0
        return s / (1.0 - s * s)
    if hi_inf:
        return lo + t / (1.0 - t)
    return hi - (1.0 - t) / t  # ( -inf, hi ]-type: mirror of the half-line map


@lru_cache(maxsize=16)
def _lobatto_nodes(n: int) -> np.ndarray:
    """The `n` Chebyshev–Lobatto nodes on [0, 1], shared and read-only."""
    j = np.arange(n)
    t = (1.0 - np.cos(np.pi * j / (n - 1))) / 2.0
    t.flags.writeable = False
    return t


def _derivative_samples(f: FnLike, xs: np.ndarray) -> np.ndarray:
    if isinstance(f, Expr):
        return compile_numpy(differentiate(f))(xs)
    fn = as_vector_fn(f)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    return (fn(xs + h) - fn(xs - h)) / (2.0 * h)


def _second_derivative_samples(f: FnLike, xs: np.ndarray) -> np.ndarray:
    if isinstance(f, Expr):
        return compile_numpy(differentiate(differentiate(f)))(xs)
    fn = as_vector_fn(f)
    h = 1e-3 * np.maximum(1.0, np.abs(xs))
    return (fn(xs + h) - 2.0 * fn(xs) + fn(xs - h)) / (h * h)


def _sampled_signs(values_of, f: FnLike, d: Interval, samples: int, floor: Optional[float]):
    """The grid points of `d` where ``values_of(f, xs)`` is finite, those
    values, their sign masks (pos, neg) against `floor` and the counts
    (npos, nneg) of those masks; or None when the sign is Unknown.  A `floor` of None is the noise floor of finite
    differences, 1e-5 of the largest magnitude and at least 1e-9.

    It is Unknown below 16 finite samples, and when both signs occur and
    the minority is at most ``_MINORITY_MAX`` samples, all of magnitude
    below ``_NOISE_RATIO`` of the majority's largest.
    """
    xs = sample_grid(d, samples)
    vals = values_of(f, xs)
    finite = np.isfinite(vals)
    xs, vals = xs[finite], vals[finite]
    if xs.size < 16:
        return None
    if floor is None:
        floor = max(1e-9, 1e-5 * float(np.max(np.abs(vals))))
    pos = vals > floor
    neg = vals < -floor
    npos, nneg = np.count_nonzero(pos), np.count_nonzero(neg)
    if npos > 0 and nneg > 0:
        minority, majority = (neg, pos) if npos >= nneg else (pos, neg)
        min_mag = float(np.max(np.abs(vals[minority])))
        maj_mag = float(np.max(np.abs(vals[majority])))
        if min(npos, nneg) <= _MINORITY_MAX and min_mag < _NOISE_RATIO * maj_mag:
            return None
    return xs, vals, pos, neg, npos, nneg


def _refine_crossing(deriv_at, xl: float, xr: float, span: float):
    """Tighten a straddling pair (xl, xr) with opposite derivative signs."""
    sl = deriv_at(xl)
    for _ in range(60):
        if abs(xr - xl) <= 1e-9 * span:
            break
        mid = 0.5 * (xl + xr)
        dm = deriv_at(mid)
        if not math.isfinite(dm) or dm == 0.0:
            break
        if (dm > 0) == (sl > 0):
            xl, sl = mid, dm
        else:
            xr = mid
    return xl, xr


def classify_monotonicity(f: FnLike, d: Interval, samples: int = DEFAULT_SAMPLES) -> MonotonicityClass:
    """Classify the slope sign of `f` over `d` from sampled evidence."""
    read = _sampled_signs(_derivative_samples, f, d, samples, _SIGN_FLOOR)
    if read is None:
        return MonotonicityClass(UNKNOWN, resolution=samples)
    xs, vals, pos, neg, npos, nneg = read
    if npos > 0 and nneg > 0:
        # Solid sign reversal: locate an adjacent straddling pair and refine.
        signs = np.where(pos, 1, np.where(neg, -1, 0))
        nz = np.nonzero(signs)[0]
        cross = None
        for a, b in zip(nz[:-1], nz[1:]):
            if signs[a] != signs[b]:
                cross = (float(xs[a]), float(xs[b]))
                break
        span = float(xs[-1] - xs[0]) or 1.0
        deriv_at = _scalar_deriv(f)
        if cross is not None:
            xl, xr = _refine_crossing(deriv_at, cross[0], cross[1], span)
            dl, dr = float(deriv_at(xl)), float(deriv_at(xr))
            if not (math.isfinite(dl) and math.isfinite(dr) and dl * dr < 0):
                # The refined pair collapsed onto the root; the original
                # straddling samples are solid witnesses already.
                xl, xr = cross
                dl, dr = float(deriv_at(xl)), float(deriv_at(xr))
        else:  # pragma: no cover - signs interleaved with gaps
            xl = float(xs[pos][np.argmax(vals[pos])])
            xr = float(xs[neg][np.argmin(vals[neg])])
            dl, dr = float(deriv_at(xl)), float(deriv_at(xr))
        return MonotonicityClass(NON_MONOTONE, witnesses=((xl, dl), (xr, dr)), resolution=samples)
    nzero = xs.size - npos - nneg
    if npos > 0 or nneg > 0:
        if nzero > xs.size // 8:
            # A large flat stretch: monotone but possibly not strictly.
            return MonotonicityClass(UNKNOWN, resolution=samples)
        kind = STRICTLY_INCREASING if npos > 0 else STRICTLY_DECREASING
        return MonotonicityClass(kind, resolution=samples)
    return MonotonicityClass(CONSTANT, resolution=samples)


def _scalar_deriv(f: FnLike):
    """The one-point call of `_derivative_samples`."""
    return lambda x: float(_derivative_samples(f, np.asarray([x]))[0])


def classify_convexity(f: FnLike, d: Interval, samples: int = DEFAULT_SAMPLES) -> ConvexityClass:
    """Classify the curvature sign of `f` over `d` from sampled evidence."""
    # Finite differences carry O(h²) truncation + rounding noise.
    floor = _SIGN_FLOOR if isinstance(f, Expr) else None
    read = _sampled_signs(_second_derivative_samples, f, d, samples, floor)
    if read is None:
        return ConvexityClass(UNKNOWN, resolution=samples)
    xs, vals, pos, neg, npos, nneg = read
    if npos > 0 and nneg > 0:
        ip = int(np.argmax(np.where(pos, vals, -np.inf)))
        im = int(np.argmin(np.where(neg, vals, np.inf)))
        w_pos = _bracket_around(xs, ip)
        w_neg = _bracket_around(xs, im)
        return ConvexityClass(MIXED, witnesses=(w_pos, w_neg), resolution=samples)
    nzero = xs.size - npos - nneg
    # A couple of floor-level samples (an isolated inflection touch, or the
    # far tail of an unbounded domain) do not spoil strictness.
    if npos > 0:
        kind = STRICTLY_CONVEX if nzero <= 2 else CONVEX
        return ConvexityClass(kind, resolution=samples)
    if nneg > 0:
        kind = STRICTLY_CONCAVE if nzero <= 2 else CONCAVE
        return ConvexityClass(kind, resolution=samples)
    return ConvexityClass(AFFINE, resolution=samples)


def _bracket_around(xs: np.ndarray, i: int):
    lo = xs[max(0, i - 1)]
    hi = xs[min(len(xs) - 1, i + 1)]
    return (float(lo), float(hi))
