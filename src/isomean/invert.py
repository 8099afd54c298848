"""Inversion of strictly monotone maps.

Two routes: a closed-form unwinding of affine/power/exp/ln/reciprocal/sqrt
chains, and a bracketed numeric fallback (bisection to 1e-8, then Newton
polish).  :func:`closed_form_steps` writes the unwinding down once as a step
list, and :func:`apply_steps` is its one reader: on an array of values it
gives candidate preimages, on an expression the inverse map's expression.
Candidates from the closed form are always residual-checked, so a wrong
branch (even powers on a negative domain, say) falls through to the numeric
route instead of returning silently wrong values.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ._errors import InversionError
from . import expr as E
from .expr import Expr
from .intervals import Interval

# Mixed abs/rel residual tolerance for an accepted inverse value.
_RES_ABS = 1e-12
_RES_REL = 1e-12


def residual_tol(u: float) -> float:
    return max(_RES_ABS, _RES_REL * abs(u))


def residual_ok(values: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Where map values hit their targets `us` within :func:`residual_tol`."""
    return np.abs(values - us) <= np.maximum(_RES_ABS, _RES_REL * np.abs(us))


# -- closed-form chain --------------------------------------------------------

def _const_of(e: Expr) -> Optional[float]:
    return e.value if e.op == "const" else None


def closed_form_steps(e: Expr):
    """Unwind `e` into inversion steps, innermost last; None if not a chain."""
    steps = []
    node = e
    while node.op != "var":
        op = node.op
        if op == "neg":
            steps.append(("neg", 0.0))
            node = node.args[0]
            continue
        if op in ("add", "sub", "mul", "div"):
            a, b = node.args
            ca, cb = _const_of(a), _const_of(b)
            if op == "add" and cb is not None:
                steps.append(("sub_c", cb))
                node = a
            elif op == "add" and ca is not None:
                steps.append(("sub_c", ca))
                node = b
            elif op == "sub" and cb is not None:
                steps.append(("add_c", cb))
                node = a
            elif op == "sub" and ca is not None:
                steps.append(("rsub_c", ca))
                node = b
            elif op == "mul" and cb is not None and cb != 0.0:
                steps.append(("div_c", cb))
                node = a
            elif op == "mul" and ca is not None and ca != 0.0:
                steps.append(("div_c", ca))
                node = b
            elif op == "div" and cb is not None and cb != 0.0:
                steps.append(("mul_c", cb))
                node = a
            elif op == "div" and ca is not None and ca != 0.0:
                steps.append(("rdiv_c", ca))
                node = b
            else:
                return None
            continue
        if op == "pow":
            a, b = node.args
            ca, cb = _const_of(a), _const_of(b)
            if cb is not None and cb != 0.0:
                steps.append(("root", cb))
                node = a
            elif ca is not None and ca > 0.0 and ca != 1.0:
                steps.append(("log_base", ca))
                node = b
            else:
                return None
            continue
        if op == "exp":
            steps.append(("ln", 0.0))
            node = node.args[0]
            continue
        if op == "ln":
            steps.append(("exp", 0.0))
            node = node.args[0]
            continue
        if op == "sqrt":
            steps.append(("square", 0.0))
            node = node.args[0]
            continue
        return None
    return tuple(steps)


def _real_root(u: np.ndarray, c: float) -> np.ndarray:
    """The real solution x of x^c = u: NaN where there is none.

    A negative u has one only for an odd integer c (negative ones too), and
    u = 0 only for c > 0.
    """
    x = np.power(np.abs(u), 1.0 / c)
    odd = c % 2 == 1
    if odd:
        x = np.copysign(x, u)
    if c > 0:
        return x if odd else np.where(u < 0, np.nan, x)
    return np.where(u == 0 if odd else u <= 0, np.nan, x)


# The steps that are not plain arithmetic, for each kind of argument.
_ARRAY_STEPS = {
    "ln": lambda u, c: np.log(u),
    "exp": lambda u, c: np.exp(u),
    "rdiv_c": lambda u, c: np.where(u == 0.0, np.nan, c / u),
    "root": _real_root,
}
_EXPR_STEPS = {
    "ln": lambda u, c: E.ln(u),
    "exp": lambda u, c: E.exp(u),
    "rdiv_c": lambda u, c: c / u,
    "root": lambda u, c: u ** (1.0 / c),
}


def apply_steps(steps, u):
    """Run the steps of :func:`closed_form_steps` on `u`.

    `u` is an array of map values, which comes back as the candidate
    preimages (NaN where a step has no real result), or an :class:`Expr`,
    which comes back as the inverse map's expression.  The expression has
    no real odd root, so ``x^3`` on negative values inverts only as an
    array.
    """
    if isinstance(u, Expr):
        table = _EXPR_STEPS
    else:
        table = _ARRAY_STEPS
        u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        for op, c in steps:
            if op == "neg":
                u = -u
            elif op == "sub_c":
                u = u - c
            elif op == "add_c":
                u = u + c
            elif op == "rsub_c":
                u = c - u
            elif op == "div_c":
                u = u / c
            elif op == "mul_c":
                u = u * c
            elif op == "square":
                u = u ** 2
            elif op == "log_base":
                u = table["ln"](u, c) / math.log(c)
            else:
                u = table[op](u, c)
    return u


# -- numeric fallback ---------------------------------------------------------

def _expand_bracket(fval, d: Interval, u: float):
    """Find finite lo < hi inside d with g-values straddling u."""
    box = d.clamp_inward(1e-3)
    lo, hi = box.lo, box.hi

    def val(x):
        v = fval(x)
        return v if math.isfinite(v) else None

    # Value of (g(x) - u) signed so that a straddle means product < 0.
    def side(x):
        v = val(x)
        if v is None:
            return None
        return v - u

    lo_s, hi_s = side(lo), side(hi)
    # Push toward the true endpoints until we straddle.
    for _ in range(220):
        if lo_s is not None and hi_s is not None and lo_s * hi_s <= 0.0:
            return lo, hi
        # Extend the low side.
        if math.isinf(d.lo):
            cand = lo * 4.0 - 1.0 if lo < 0 else -4.0 * abs(lo) - 1.0
        else:
            cand = d.lo + (lo - d.lo) * 0.1
            if cand <= d.lo:
                cand = lo
        if cand != lo:
            cs = side(cand)
            if cs is not None:
                lo, lo_s = cand, cs
        # Extend the high side.
        if math.isinf(d.hi):
            cand = hi * 4.0 + 1.0 if hi > 0 else 4.0 * abs(hi) + 1.0
        else:
            cand = d.hi - (d.hi - hi) * 0.1
            if cand >= d.hi:
                cand = hi
        if cand != hi:
            cs = side(cand)
            if cs is not None:
                hi, hi_s = cand, cs
    raise InversionError(f"target value {u} could not be bracketed inside {d}")


def invert_monotone(
    fval: Callable[[float], float],
    d: Interval,
    u: float,
    increasing: bool,
    deriv: Optional[Callable[[float], float]] = None,
    x0: Optional[float] = None,
) -> float:
    """Solve g(x) = u for strictly monotone g on d.

    `fval` must return NaN/inf (not raise) outside g's domain.  An optional
    closed-form candidate `x0` is polished first; otherwise the root is
    bracketed, bisected to 1e-8 and Newton-polished.
    """
    tol = residual_tol(u)

    def ok(x):
        v = fval(x)
        return math.isfinite(v) and abs(v - u) <= tol

    if x0 is not None and math.isfinite(x0) and d.contains(x0, slack=1e-9 * (1 + abs(x0))):
        if ok(x0):
            return x0
        if deriv is not None:
            x = x0
            for _ in range(8):
                dv = deriv(x)
                fv = fval(x)
                if not (math.isfinite(dv) and math.isfinite(fv)) or dv == 0.0:
                    break
                x_new = x - (fv - u) / dv
                if not math.isfinite(x_new) or not d.contains(x_new, slack=1e-9 * (1 + abs(x_new))):
                    break
                x = x_new
                if ok(x):
                    return x

    lo, hi = _expand_bracket(fval, d, u)
    flo = fval(lo)
    lo_below = (flo <= u) if increasing else (flo >= u)
    if not lo_below:
        lo, hi = hi, lo  # orient so that the root is approached consistently
    x = 0.5 * (lo + hi)
    for _ in range(200):
        if abs(hi - lo) <= 1e-8 * max(1.0, abs(lo), abs(hi)):
            break
        x = 0.5 * (lo + hi)
        fx = fval(x)
        if not math.isfinite(fx):
            # Nudge deterministically toward hi to escape a bad midpoint.
            x = x + (hi - lo) * 1e-3
            fx = fval(x)
            if not math.isfinite(fx):
                break
        below = (fx <= u) if increasing else (fx >= u)
        if below:
            lo = x
        else:
            hi = x
    x = 0.5 * (lo + hi)
    if deriv is not None:
        for _ in range(10):
            if ok(x):
                return x
            dv = deriv(x)
            fv = fval(x)
            if not (math.isfinite(dv) and math.isfinite(fv)) or dv == 0.0:
                break
            x_new = x - (fv - u) / dv
            if not math.isfinite(x_new) or not (min(lo, hi) - abs(hi - lo) <= x_new <= max(lo, hi) + abs(hi - lo)):
                break
            if x_new == x:
                break
            x = x_new
    if ok(x):
        return x
    # Accept when the bracket has collapsed to rounding width: the residual
    # is then evaluation-limited, not search-limited.
    if abs(hi - lo) <= 8.0 * np.spacing(max(1.0, abs(lo), abs(hi))):
        return x
    fx = fval(x)
    if math.isfinite(fx) and abs(fx - u) <= max(1e-9, 1e-9 * abs(u)):
        return x
    raise InversionError(f"inverse at {u} did not meet tolerance (residual {fx - u:.3e})")


def invert_many_bracketed(
    vec_fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    us: np.ndarray,
    increasing: bool,
    deriv_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    iters: int = 60,
) -> np.ndarray:
    """Vectorized inversion when every solution lies in [a, b].

    Bisects `iters` times.  With `deriv_vec`, then polishes as
    :func:`invert_monotone` does: up to 10 Newton steps, each taken only
    where the residual still exceeds :func:`residual_tol`.
    """
    us = np.asarray(us, dtype=float)
    lo = np.full(us.shape, min(a, b))
    hi = np.full(us.shape, max(a, b))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = vec_fn(mid)
        below = (fm <= us) if increasing else (fm >= us)
        below = np.where(np.isfinite(fm), below, True)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    if deriv_vec is not None:
        for _ in range(10):
            with np.errstate(all="ignore"):
                fx = vec_fn(x)
                step = (fx - us) / deriv_vec(x)
            move = np.isfinite(step) & ~residual_ok(fx, us)
            if not move.any():
                break
            x_new = np.where(move, x - step, x)
            inside = (x_new >= lo - (hi - lo)) & (x_new <= hi + (hi - lo))
            x = np.where(inside, x_new, x)
    return x
