"""Adaptive quadrature and endpoint-limit evaluation of improper integrals.

The integrator is a globally adaptive Gauss–Kronrod 7/15 scheme over a
worst-first heap of panels.  Kronrod nodes are strictly interior, so
integrable endpoint singularities (ln x at 0, 1/sqrt(x)) are handled by
plain subdivision with no special casing.  Final summation runs over the
position-sorted panel list through exact compensated summation, making the
result independent of the subdivision schedule.

For genuinely improper endpoints (tan at π/2) the `endpoint_limit` driver
evaluates the quantity on a sequence of inward-shrunken intervals
ε_k = 10^−k·span, k = 2..12, and accepts, in order of preference: raw
convergence (three successive values pairwise within 1e-8 relative), a
rounding-noise floor (successive delta under 1e-7 relative), or a linear
extrapolation in 1/ln(b_k/a_k) whose successive extrapolants stabilize.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Callable, Tuple

import numpy as np

from ._errors import DivergentIntegralError, DomainError

# 15-point Kronrod extension of 7-point Gauss, positive abscissae.
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469]
)

_ROUNDING_FLOOR = 50.0 * float(np.finfo(float).eps)

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_SUBDIV = 10**6

ENV_MAX_SUBDIV = "ISOMEAN_MAX_SUBDIV"


def max_subdivisions() -> int:
    raw = os.environ.get(ENV_MAX_SUBDIV)
    if raw is None:
        return DEFAULT_MAX_SUBDIV
    try:
        v = int(raw)
    except ValueError:
        return DEFAULT_MAX_SUBDIV
    return max(1, v)


def _panel(fn, a: float, b: float) -> Tuple[float, float, float]:
    """Kronrod value, error estimate and Kronrod value of |fn| for one panel;
    nodes are interior."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    nodes = np.concatenate((c - hw * _XGK[:7], [c], c + hw * _XGK[6::-1]))
    vals = fn(nodes)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(np.asarray(vals))]
        raise DomainError(f"integrand not finite inside the panel (e.g. at x={bad[0]!r})")
    lower = vals[:7]
    upper = vals[:7:-1]
    center = vals[7]
    k = hw * (float(np.dot(_WGK[:7], lower + upper)) + _WGK[7] * center)
    g_pairs = lower[1::2] + upper[1::2]
    g = hw * (float(np.dot(_WG[:3], g_pairs)) + _WG[3] * center)
    k_abs = hw * (float(np.dot(_WGK[:7], abs(lower) + abs(upper))) + _WGK[7] * abs(center))
    return k, abs(k - g), k_abs


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdiv: int | None = None,
) -> Tuple[float, float]:
    """∫_a^b fn(x) dx with a worst-panel-first adaptive scheme.

    Returns (value, error_estimate).  Raises DivergentIntegralError when the
    subdivision budget is exhausted far from tolerance, and DomainError when
    the integrand is not finite at an interior node.
    """
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    lo, hi = a, b
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0
    budget = max_subdivisions() if max_subdiv is None else max_subdiv
    k0, e0, r0 = _panel(fn, lo, hi)
    heap = [(-e0, 0, lo, hi, k0, e0, r0)]
    seq = 1
    total = k0
    total_err = e0
    splits = 0
    while splits < budget:
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            break
        neg_err, _, pa, pb, pk, pe, pr = heapq.heappop(heap)
        if pe <= 0.0:
            heapq.heappush(heap, (neg_err, seq, pa, pb, pk, pe, pr))
            seq += 1
            break
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            heapq.heappush(heap, (0.0, seq, pa, pb, pk, 0.0, pr))
            seq += 1
            continue
        k1, e1, r1 = _panel(fn, pa, mid)
        k2, e2, r2 = _panel(fn, mid, pb)
        total += (k1 + k2) - pk
        total_err += (e1 + e2) - pe
        heapq.heappush(heap, (-e1, seq, pa, mid, k1, e1, r1))
        heapq.heappush(heap, (-e2, seq + 1, mid, pb, k2, e2, r2))
        seq += 2
        splits += 1
    segments = sorted((entry[2], entry[4], entry[5], entry[6]) for entry in heap)
    value = math.fsum(s[1] for s in segments)
    err = math.fsum(s[2] for s in segments)
    target = max(abs_tol, rel_tol * abs(value))
    if err > target and splits >= budget and err > 1e4 * target:
        raise DivergentIntegralError(
            f"quadrature used all {budget} subdivisions with error {err:.3e}"
            f" (target {target:.3e}); the integral may diverge"
        )
    # Kronrod–Gauss differences do not see rounding, which dominates when
    # the integrand cancels (ln tan over (0, π/2)).  As in QUADPACK, the
    # estimate is floored at 50 ulps of the integral of |fn|.
    rounding = _ROUNDING_FLOOR * math.fsum(s[3] for s in segments)
    return sign * value, max(err, rounding)


def is_improper_near(fn, a: float, b: float, side: str) -> bool:
    """Heuristic endpoint screen: does |fn| blow up approaching `side`?"""
    span = b - a
    if side == "lo":
        xs = np.array([a + 1e-7 * span, a + 1e-10 * span, a + 1e-13 * span])
    else:
        xs = np.array([b - 1e-7 * span, b - 1e-10 * span, b - 1e-13 * span])
    ref_xs = np.array([a + 0.31 * span, a + 0.5 * span, a + 0.73 * span])
    vals = np.asarray(fn(xs), dtype=float)
    refs = np.asarray(fn(ref_xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        return True
    ref = float(np.max(np.abs(refs[np.isfinite(refs)]))) if np.any(np.isfinite(refs)) else 1.0
    outer, inner = abs(float(vals[0])), abs(float(vals[2]))
    return inner > 10.0 * max(outer, ref, 1e-300)


def endpoint_limit(
    value_on: Callable[[float, float], float],
    a: float,
    b: float,
    k_start: int = 2,
    k_end: int = 12,
    raw_rel: float = 1e-8,
    noise_rel: float = 1e-7,
    extrap_rel: float = 2e-6,
) -> Tuple[float, float, str]:
    """Limit of value_on([a+ε, b−ε]) as ε → 0, three stages deep.

    Both endpoints shrink together along ε_k = 10^−k·(b−a), which keeps
    limits well-defined for quantities that depend on the endpoint path.
    Returns (value, error_estimate, stage); raises DivergentIntegralError
    when no stage stabilizes.
    """
    span = b - a
    records = []  # (k, t, value)
    for k in range(k_start, k_end + 1):
        eps = span * 10.0 ** (-k)
        ak, bk = a + eps, b - eps
        if not (ak < bk):
            break
        try:
            v = value_on(ak, bk)
        except (DomainError, DivergentIntegralError):
            continue
        if not math.isfinite(v):
            continue
        if ak > 0 and bk / ak > math.e:
            t = 1.0 / math.log(bk / ak)
        else:
            t = 1.0 / (k * math.log(10.0))
        records.append((k, t, v))
        if len(records) >= 3:
            v1, v2, v3 = (r[2] for r in records[-3:])
            scale = max(abs(v3), 1e-300)
            if (
                abs(v3 - v2) <= raw_rel * scale
                and abs(v2 - v1) <= raw_rel * scale
                and abs(v3 - v1) <= raw_rel * scale
            ):
                return v3, max(abs(v3 - v2), 1e-16 * scale), "raw"
    if len(records) < 2:
        raise DivergentIntegralError(
            "no stable values on the shrunken-interval sequence; the integral appears divergent"
        )
    vals = [r[2] for r in records]
    rel_deltas = [
        abs(vals[i + 1] - vals[i]) / max(1.0, abs(vals[i + 1])) for i in range(len(vals) - 1)
    ]
    i_min = int(np.argmin(rel_deltas))
    if rel_deltas[i_min] <= noise_rel:
        v = vals[i_min + 1]
        return v, rel_deltas[i_min] * max(1.0, abs(v)), "noise-floor"
    extr = []
    for i in range(1, len(records)):
        _, t1, v1 = records[i - 1]
        _, t2, v2 = records[i]
        if t1 == t2:
            continue
        extr.append(v2 - t2 * (v2 - v1) / (t2 - t1))
    if len(extr) >= 2:
        e_deltas = [
            abs(extr[i + 1] - extr[i]) / max(1.0, abs(extr[i + 1])) for i in range(len(extr) - 1)
        ]
        j = int(np.argmin(e_deltas))
        if e_deltas[j] <= extrap_rel:
            v = extr[j + 1]
            return v, e_deltas[j] * max(1.0, abs(v)), "extrapolated"
    raise DivergentIntegralError(
        "shrunken-interval values neither converge nor extrapolate stably; "
        "the integral appears divergent"
    )
