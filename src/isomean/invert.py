"""Inversion of strictly monotone maps.

Two parts.  :func:`closed_form_steps` unwinds affine/power/exp/ln/
reciprocal/sqrt chains into a step list, and :func:`apply_steps` is its one
reader: on an array of values it gives candidate preimages, on an
expression the inverse map's expression.  :func:`invert_monotone` is the
one numeric inversion: arrays of targets in, preimages out.  It takes the
closed-form candidates that meet the residual tolerance, brackets the other
targets on one shared ladder of points, and solves them by Newton steps
kept inside their brackets.  So a wrong closed-form branch (even powers on
a negative domain, say) falls through to the numeric route instead of
returning silently wrong values.  Many targets are solved together on
arrays.  One target, the last step of a mean, is solved by the same rules
in float arithmetic, which gives the same float as the array loop at a
fraction of the cost of one-element array operations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Optional

import numpy as np

from . import expr as E
from .expr import Expr
from .intervals import Interval

# Mixed abs/rel residual tolerance for an accepted inverse value.
_RES = 1e-12
_RES_ABS = np.array(_RES)  # 0-d arrays: cheaper than floats in small ufunc calls
_RES_REL = np.array(_RES)


def _tolerance(us: np.ndarray) -> np.ndarray:
    return np.maximum(_RES_ABS, _RES_REL * np.abs(us))


def residual_ok(values: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Where map values hit their targets `us` within the mixed 1e-12."""
    return np.abs(values - us) <= _tolerance(us)


def residual_ok_at(value: float, u: float) -> bool:
    """:func:`residual_ok` for one value and target, by the same float
    operations."""
    return abs(value - u) <= max(_RES, _RES * abs(u))


# -- closed-form chain --------------------------------------------------------

# The step that undoes a unary node, and the one that undoes a binary node
# whose operand at the given index is a constant.
_UNDO_UNARY = {"neg": "neg", "exp": "ln", "ln": "exp", "sqrt": "square"}
_UNDO_BINARY = {
    ("add", 1): "sub_c", ("add", 0): "sub_c", ("sub", 1): "add_c", ("sub", 0): "rsub_c",
    ("mul", 1): "div_c", ("mul", 0): "div_c", ("div", 1): "mul_c", ("div", 0): "rdiv_c",
    ("pow", 1): "root", ("pow", 0): "log_base",
}


def _takes(step: str, c: float) -> bool:
    """Whether `step` undoes its node with the constant `c`."""
    if step == "log_base":
        return c > 0.0 and c != 1.0
    return c != 0.0 or step in ("sub_c", "add_c", "rsub_c")


def closed_form_steps(e: Expr):
    """Unwind `e` into inversion steps, innermost last; None if not a chain."""
    steps = []
    node = e
    while node.op != "var":
        if node.op in _UNDO_UNARY:
            steps.append((_UNDO_UNARY[node.op], 0.0))
            node = node.args[0]
            continue
        for k in (1, 0):  # a constant on the right first
            step = _UNDO_BINARY.get((node.op, k))
            c = node.args[k].value if step and node.args[k].op == "const" else None
            if c is not None and _takes(step, c):
                steps.append((step, c))
                node = node.args[1 - k]
                break
        else:
            return None
    return tuple(steps)


def _real_root(u: np.ndarray, c: float) -> np.ndarray:
    """The real solution x of x^c = u: NaN where there is none.

    A negative u has one only for an odd integer c (negative ones too), and
    u = 0 only for c > 0.
    """
    inv = 1.0 / c
    if c % 2 == 1:
        x = np.copysign(np.power(np.abs(u), inv), u)
    elif inv % 1:
        x = np.power(u, inv)  # NaN for negative u: the power is not an integer
    else:
        x = np.where(u < 0, np.nan, np.power(u, inv))
    return x if c > 0 else np.where(u == 0, np.nan, x)


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


@np.errstate(all="ignore")
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


# -- the numeric engine -------------------------------------------------------

def within(d: Interval, xs):
    """Where `xs` (an array, or one float) lie in `d`: finite points only,
    a closed finite end e widened by 1e-9·(1 + |e|)."""
    lo, hi = d.lo, d.hi
    above = xs > lo if d.lo_open else xs >= lo - 1e-9 * (1.0 + abs(lo))
    below = xs < hi if d.hi_open else xs <= hi + 1e-9 * (1.0 + abs(hi))
    return above & below


def _push(end: float, wall: Optional[float], bound: float, outward: float) -> float:
    """The next ladder point beyond `end`, toward the domain end `bound`.

    `outward` is −1 on the low side and +1 on the high side.  Past a point
    where the map is NaN (the wall) the push goes halfway to it; toward a
    finite end, nine tenths of the way; along an infinite end, to ×4 + 1.
    `end` itself comes back when no point is left to try.
    """
    if wall is not None:
        return 0.5 * (end + wall)
    if math.isinf(bound):
        return outward * (4.0 * abs(end) + 1.0)
    cand = bound + (end - bound) * 0.1
    return end if (cand - bound) * outward >= 0.0 else cand


def _ladder(fvec, d: Interval, sgn: float, tmin: float, tmax: float):
    """Ascending points of `d` whose values times `sgn` reach [tmin, tmax].

    The ladder starts from `d` pulled in by 1e-3 and grows one point per
    side and round, only on a side that the targets still pass, for at
    most 220 rounds.  ±inf values order like any other; a NaN value is a
    wall, and the side's later points go halfway back toward its last
    point.  Returns a list of (x, sgn·g(x)), or None when g is NaN at both
    ends and the middle of the start.
    """
    box = d.clamp_inward(1e-3)
    xs = [box.lo, box.hi] if box.hi > box.lo else [box.lo]
    vs = (sgn * fvec(np.array(xs))).tolist()
    walls = [box.lo if math.isnan(vs[0]) else None, box.hi if math.isnan(vs[-1]) else None]
    ladder = [(x, v) for x, v in zip(xs, vs) if not math.isnan(v)]
    if not ladder:
        mid = 0.5 * (box.lo + box.hi)
        v = sgn * float(fvec(np.array([mid]))[0])
        if math.isnan(v):
            return None
        ladder = [(mid, v)]
    for _ in range(220):
        cands = []
        if tmin < ladder[0][1]:
            x = _push(ladder[0][0], walls[0], d.lo, -1.0)
            if x != ladder[0][0]:
                cands.append((0, x))
        if tmax > ladder[-1][1]:
            x = _push(ladder[-1][0], walls[1], d.hi, 1.0)
            if x != ladder[-1][0]:
                cands.append((1, x))
        if not cands:
            break
        vs = (sgn * fvec(np.array([x for _, x in cands]))).tolist()
        for (side, x), v in zip(cands, vs):
            if math.isnan(v):
                walls[side] = x
            elif side:
                ladder.append((x, v))
            else:
                ladder.insert(0, (x, v))
    return ladder


def invert_monotone(
    fvec: Callable[[np.ndarray], np.ndarray],
    d: Interval,
    us,
    increasing: bool,
    dvec: Callable[[np.ndarray], np.ndarray],
    x0=None,
) -> np.ndarray:
    """Solve g(x) = u on `d` for every u of `us`, g strictly monotone there.

    `fvec` and `dvec` are the array views of g and g′; they give NaN or
    ±inf, and never raise, where g is undefined or overflows.  `x0`, when
    given, holds one closed-form candidate per target.  The targets are
    finite, or NaN for none.  Returns the preimages in the shape of `us`,
    NaN where none is accepted.

    A candidate that lies in `d` and meets :func:`residual_ok` is taken as
    it is.  The other targets are bracketed between neighbours of one
    ladder of points (:func:`_ladder`) and solved by Newton steps from the
    secant point of their bracket.  A step that leaves the bracket, or is
    longer than half the step before it, is replaced by bisection, and
    every evaluation shrinks the bracket.  A point is accepted when it
    meets :func:`residual_ok`, or when its bracket has collapsed to 8 ulps
    (the residual is then limited by the evaluation, not the search).
    After 200 steps a residual within a mixed 1e-9 is still accepted.
    Many targets take these steps on arrays; a single one takes them in
    float arithmetic (:func:`_solve_one`) and gets the same float.
    """
    u = np.asarray(us, dtype=float)
    if x0 is None:
        out = np.full(u.shape, np.nan)
        todo = np.isfinite(u)
    else:
        c = np.asarray(x0, dtype=float)
        hit = within(d, c) & residual_ok(fvec(c), u)
        if np.count_nonzero(hit) == hit.size:
            return c
        out = np.where(hit, c, np.nan)
        todo = ~hit & np.isfinite(u)
    if np.count_nonzero(todo):
        idx = np.flatnonzero(todo)
        _solve(fvec, dvec, d, u.ravel()[idx], increasing, idx, out.reshape(-1))
    return out


@np.errstate(all="ignore")
def _solve(fvec, dvec, d, u, increasing, idx, out) -> None:
    """Bracket and Newton-solve the targets `u`, writing into `out[idx]`.

    One target is solved by :func:`_solve_one`, which gives the same float.
    """
    if u.size == 1:
        out[idx[0]] = _solve_one(fvec, dvec, d, float(u[0]), increasing)
        return
    tol = _tolerance(u)
    sgn = 1.0 if increasing else -1.0
    t = sgn * u
    ladder = _ladder(fvec, d, sgn, float(t.min()), float(t.max()))
    if ladder is None:
        return
    # A one-point ladder brackets only the targets it hits exactly.
    lx, lv = np.array(ladder * 2 if len(ladder) == 1 else ladder).T
    j = np.clip(np.searchsorted(lv, t), 1, lx.size - 1)
    lo, hi, vlo, vhi = lx[j - 1], lx[j], lv[j - 1], lv[j]
    keep = (vlo <= t) & (t <= vhi)
    if np.count_nonzero(keep) != keep.size:
        idx, u, tol, lo, hi, vlo, vhi, t = (a[keep] for a in (idx, u, tol, lo, hi, vlo, vhi, t))
    # The secant point of the bracket, or its middle where that fails.
    x = lo + (hi - lo) * ((t - vlo) / (vhi - vlo))
    np.copyto(x, 0.5 * (lo + hi), where=~((x >= lo) & (x <= hi)))
    step = hi - lo  # the bracket stands in for the step before the first
    for _ in range(200):
        if not idx.size:
            return
        r = fvec(x) - u
        done = np.abs(r) <= tol
        if np.count_nonzero(done) == done.size:
            out[idx] = x
            return
        above = r > 0.0 if increasing else r < 0.0
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        xn = x - r / dvec(x)
        # Bisect where the Newton step leaves the bracket or is longer than
        # half the step before it (Newton crawling in from an overflow),
        # and accept x where the bracket has collapsed onto it.
        bisect = ~((xn > lo) & (xn < hi) & (np.abs(xn - x) <= 0.5 * step))
        if np.count_nonzero(bisect):
            np.copyto(xn, 0.5 * (lo + hi), where=bisect)
            width = 8.0 * np.spacing(np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
            done |= bisect & (hi - lo <= width)
        step = np.abs(xn - x)
        if np.count_nonzero(done):
            out[idx[done]] = x[done]
            keep = ~done
            idx, u, tol, lo, hi, xn, step = (
                a[keep] for a in (idx, u, tol, lo, hi, xn, step)
            )
        x = xn
    ok = np.abs(fvec(x) - u) <= np.maximum(1e-9, 1e-9 * np.abs(u))
    out[idx[ok]] = x[ok]


def _solve_one(fvec, dvec, d, u: float, increasing: bool) -> float:
    """:func:`_solve` of the one target `u` in float arithmetic: NaN for none.

    It runs the array loop's rules on floats: the same ladder, bracket
    (`bisect_left` is `searchsorted` clipped to the ladder), secant start,
    Newton or bisection step, 8-ulp collapse and 200-step cap.  The views
    see one-element arrays of the very points the array loop passes them,
    so the answer is the same float.  Where the array loop divides by zero
    (a flat bracket in the secant, g′ = 0 in a Newton step), NumPy's ±inf
    or NaN would fail the test that follows, so the float loop takes the
    middle of the bracket there.
    """
    buf = np.empty(1)

    def at(view, x: float) -> float:
        buf[0] = x
        return view(buf).item()

    sgn = 1.0 if increasing else -1.0
    t = sgn * u
    ladder = _ladder(fvec, d, sgn, t, t)
    if ladder is None:
        return math.nan
    lx, lv = zip(*(ladder * 2 if len(ladder) == 1 else ladder))
    j = min(max(bisect_left(lv, t), 1), len(lv) - 1)
    lo, hi, vlo, vhi = lx[j - 1], lx[j], lv[j - 1], lv[j]
    if not vlo <= t <= vhi:
        return math.nan
    x = lo + (hi - lo) * ((t - vlo) / (vhi - vlo)) if vhi != vlo else math.nan
    if not lo <= x <= hi:
        x = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(200):
        v = at(fvec, x)
        if residual_ok_at(v, u):
            return x
        r = v - u
        if r > 0.0 if increasing else r < 0.0:
            hi = x
        else:
            lo = x
        slope = at(dvec, x)
        xn = x - r / slope if slope != 0.0 else math.nan
        done = False
        if not (lo < xn < hi and abs(xn - x) <= 0.5 * step):
            xn = 0.5 * (lo + hi)
            done = hi - lo <= 8.0 * float(np.spacing(max(1.0, abs(lo), abs(hi))))
        step = abs(xn - x)
        if done:
            return x
        x = xn
    return x if abs(at(fvec, x) - u) <= max(1e-9, 1e-9 * abs(u)) else math.nan
