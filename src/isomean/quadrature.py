"""Adaptive quadrature and endpoint-limit evaluation of improper integrals.

The integrator, `integrate_many`, is a globally adaptive Gauss–Kronrod
7/15 scheme over many segments at once; `integrate` is its one-segment
case.  Every round makes one call of the integrand on the nodes of all the
panels it evaluates: first one panel per segment, then, in each segment
still short of its target, the pieces of every panel whose error is at
least half that segment's worst or more than its share of the target.  A
panel is cut at its midpoint, so that is hundreds of halves a round on an
oscillation.  A panel at an end of its segment is also cut at up to seven
further halvings toward that end (the first panel toward both), each
halving counted as one split, so an endpoint singularity refines eight
levels in one call.  Each end keeps the values of the dyadic pieces its
chains have cut; when they shrink by a stable ratio below 1, Wynn's ε
algorithm on their partial sums gives the end piece's integral and an
error, as QUADPACK's ``dqags`` does, and the end piece takes them when that
error beats its own Kronrod–Gauss difference.  A strong power blow-up
(x^−0.9) then converges in one round, where bisection alone never corrects
an end panel's estimate.  Each segment keeps its own heap of panels, target and
split budget, so its result does not depend on the other segments of the
call.  Kronrod nodes are strictly interior, so integrable endpoint
singularities (ln x at 0, 1/sqrt(x)) need no special casing beyond those
cuts.  Final summation is `math.fsum`, which rounds the exact sum once, so
the result does not depend on the order of the panels.

For genuinely improper endpoints (tan at π/2) the `endpoint_limit` driver
evaluates the quantity on inward-shrunken windows ε_k = 10^−k·span,
k = 2..12, one at a time, and stops as soon as the sequence has settled.
It has two stages.  Three successive values within 1e-8 relative are the
limit ("raw").  Where the caller supplies an extrapolation variable t with
each window, 1/|g(b_k) − g(a_k)| for a mean over a diverging x-map, each
window also feeds one Richardson tableau: the linear extrapolant to t = 0,
then a tenfold Richardson step that removes the O(ε) remainder of those
extrapolants; two successive tableau entries within 1e-9 are the limit
("extrapolated").  A sequence that settles by neither rule raises
DivergentIntegralError.  `window_integrals` integrates those windows from
nested strips, in two `integrate_many` calls at most.
"""

from __future__ import annotations

import heapq
import math
import os
from operator import itemgetter
from typing import Callable, Optional, Tuple

import numpy as np

from ._errors import DivergentIntegralError, DomainError

# 15-point Kronrod extension of 7-point Gauss, positive abscissae.
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Panel nodes on [−1, 1] from left to right, and their weights: Kronrod in
# column 0, Kronrod minus Gauss (the error estimate) in column 1.
_NODES = np.concatenate((-_XGK[:7], [0.0], _XGK[6::-1]))
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = np.concatenate((_WGK, _WGK[6::-1]))
_WEIGHTS[[1, 3, 5, 7, 9, 11, 13], 1] = -np.concatenate((_WG, _WG[2::-1]))
_WEIGHTS[:, 1] += _WEIGHTS[:, 0]

_ROUNDING_FLOOR = 50.0 * float(np.finfo(float).eps)

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_SUBDIV = 10**6

#: A round bisects a panel at an end of its segment this many times toward
#: that end, all in the round's one integrand call.
_END_LEVELS = 8
#: The ε table of a segment end reads the last this many inner-piece values.
_TAIL_TERMS = 12

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


def _panels(fn, a: np.ndarray, b: np.ndarray):
    """Kronrod values, error estimates and Kronrod values of |fn| of the
    panels [a_i, b_i], from one call of fn on all of their nodes.

    Nodes are interior.  The weighted sums are one matrix product over the
    values stacked on their absolute values: with at least two rows it is
    always a matrix-matrix product, so each panel's sums come out the same
    whatever other panels share the call.
    """
    n = len(a)
    hw = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + hw[:, None] * _NODES
    vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(n, _NODES.size)
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) < finite.size:
        bad = nodes[~finite]
        raise DomainError(f"integrand not finite inside the panel (e.g. at x={bad[0]!r})")
    sums = (np.concatenate((vals, np.abs(vals))) @ _WEIGHTS) * np.concatenate((hw, hw))[:, None]
    return sums[:n, 0], np.abs(sums[:n, 1]), sums[n:, 0]


def integrate_many(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdiv: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """∫ fn over each segment [lo_i, hi_i]; returns (values, error_estimates).

    One 15-point panel per segment is evaluated in a single call of fn.  A
    segment whose first panel meets ``max(abs_tol, rel_tol·|value|)`` is
    done.  Every other segment keeps its own worst-first heap of panels,
    its own target and its own budget of ``max_subdiv`` splits (default
    ``ISOMEAN_MAX_SUBDIV``, read once per call).  Each round cuts, in every
    open segment, all panels whose error is at least half that segment's
    worst, and every panel whose error exceeded both its fair share
    ``target·(b_p − a_p)/(b − a)`` and ``rel_tol`` times its integral of
    |fn| when it was made.  All of the pieces are evaluated in one call of
    fn.  When those panels outnumber the budget left, the round cuts the
    ones within half of the worst and the worst of the others up to half of
    the budget left.  A panel is cut at its midpoint; one at an end of the
    segment is also cut at further halvings toward that end, up to
    ``_END_LEVELS`` halvings in all.  Every halving counts as one split, and
    the cuts stop short when the budget has no room left or the end piece
    is too narrow to halve.  After each such chain an end piece whose error
    exceeds its share of the target may take the ε-extrapolated tail of the
    chains' inner pieces (see ``_tail``).  A
    segment stops when its running error meets its target, its budget is
    spent or its worst panel has no error left.  A segment with lo > hi
    integrates with the sign flipped; one with lo == hi is 0 and costs no
    evaluation.

    Raises DivergentIntegralError when a segment spends its budget more
    than 10⁴ times its target away, and DomainError when fn is not finite
    at a node of any segment.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    a, b = np.minimum(lo, hi), np.maximum(lo, hi)
    empty = a == b
    if not empty.size or np.count_nonzero(empty):
        values, errors = np.zeros(a.shape), np.zeros(a.shape)
        keep = ~empty
        if np.count_nonzero(keep):
            values[keep], errors[keep] = integrate_many(
                fn, lo[keep], hi[keep], abs_tol, rel_tol, max_subdiv
            )
        return values, errors
    return _refine(fn, a, b, lo > hi, _panels(fn, a, b), abs_tol, rel_tol, max_subdiv)


def _refine(fn, a, b, flip, first, abs_tol, rel_tol, max_subdiv):
    """The values and error estimates of :func:`integrate_many` on the
    segments [a_i, b_i] (a_i < b_i, flipped where `flip`), whose first
    panels gave ``first``, the (values, errors, |fn| values) of `_panels`.
    Those panels are not evaluated again."""
    k, e, r = first
    values = np.where(flip, -k, k)
    errors = np.maximum(e, _ROUNDING_FLOOR * r)
    unmet = e > np.maximum(abs_tol, rel_tol * np.abs(k))
    if not np.count_nonzero(unmet):
        return values, errors
    budget = max_subdivisions() if max_subdiv is None else max_subdiv
    # Per open segment: [heap, fair, running value, running error, splits,
    # its ends, and per end the values of the inner pieces its chains have
    # cut].  A panel is (−error, a, b, value, |fn| value).  `fair` holds the
    # panels that exceeded their share of the target when they were made,
    # the heap all others, worst first; the panels of a segment never share
    # a left end, so equal errors never compare further.
    open_ = {}
    al, bl, kl, el, rl = (x.tolist() for x in (a, b, k, e, r))
    for i in np.flatnonzero(unmet).tolist():
        panel = (-el[i], al[i], bl[i], kl[i], rl[i])
        open_[i] = [[panel], [], kl[i], el[i], 0, (al[i], bl[i]), ([], [])]
    while open_:
        lefts, rights = [], []  # the pieces of the round, panel after panel
        starts, cut = [], []  # where each cut panel's pieces start, and the panel
        owners = []  # (segment state, end of its cut panels, its pieces)
        ends = []  # (terms, inner pieces from the outside in, end piece) per chain
        for i, state in list(open_.items()):
            heap, fair, total, total_err, splits, (sa, sb), terms = state
            worst = -min(heap[:1] + fair[:1])[0]
            target = max(abs_tol, rel_tol * abs(total))
            if total_err <= target or splits >= budget or worst <= 0.0:
                v, errors[i] = _finish(heap + fair, splits, budget, abs_tol, rel_tol)
                values[i] = -v if flip[i] else v
                del open_[i]
                continue
            # Cut the panels within half of the worst and the fair ones, the
            # worst first.  When they outnumber the budget left, the round
            # takes those within half of the worst and the worst of the rest
            # up to half of it, so that a cap that binds is spent on the worst.
            mine, cutoff, room = [], -0.5 * worst, budget - splits
            share = target / (sb - sa)
            while len(mine) <= room:
                if heap and heap[0][0] <= cutoff and (not fair or heap[0] <= fair[0]):
                    mine.append(heapq.heappop(heap))
                elif fair:
                    mine.append(heapq.heappop(fair))
                else:
                    break
            if len(mine) > room:
                within = next(j for j, p in enumerate(mine) if p[0] > cutoff or j == room)
                for p in mine[max(room // 2, within) :]:
                    heapq.heappush(fair, p)
                del mine[max(room // 2, within) :]
            before = len(lefts)
            for p in mine:
                pa, pb = p[1], p[2]
                mid = 0.5 * (pa + pb)
                if not pa < mid < pb:
                    # Too narrow to halve: it stays, and its error is dropped.
                    heapq.heappush(heap, (0.0,) + p[1:])
                    continue
                room -= 1
                # An end panel is halved again toward each end of the
                # segment it touches, up to _END_LEVELS halvings in all.
                down = _halvings(pa, mid, room) if pa == sa else []
                room -= len(down)
                up = _halvings(pb, mid, room) if pb == sb else []
                room -= len(up)
                cuts = down[::-1] + [mid] + up
                start = len(lefts)
                starts.append(start)
                cut.append(p)
                lefts.append(pa)
                lefts += cuts
                rights += cuts
                rights.append(pb)
                last = len(lefts) - 1
                split = start + len(down) + 1  # the first piece above mid
                if pa == sa:
                    ends.append((terms[0], range(split - (pb == sb), start, -1), start, share))
                if pb == sb:
                    ends.append((terms[1], range(split if pa == sa else start, last), last, share))
            state[4] = budget - room
            if len(lefts) > before:
                owners.append((state, len(cut), len(lefts) - before))
        if not lefts:
            continue
        k, e, r = _panels(fn, *np.array((lefts, rights)))
        kl = k.tolist()
        for seq, inner, end, share in ends:
            seq += [kl[j] for j in inner]
            del seq[:-_TAIL_TERMS]
            # An end piece within its share of the target has nothing to gain.
            if e[end] > share * (rights[end] - lefts[end]):
                tail = _tail(seq, e[end])
                if tail is not None:
                    k[end], e[end] = tail
        neg_err, _, _, ck, _ = np.array(cut).T
        # A cut panel's gains: its pieces' sums less its own value and error.
        gain, gain_err = (np.add.reduceat((k, e), starts, axis=1) - (ck, -neg_err)).tolist()
        pieces = list(zip((-e).tolist(), lefts, rights, k.tolist(), r.tolist()))
        j = p = 0
        for state, n, count in owners:
            state[2] += math.fsum(gain[j:n])
            state[3] += math.fsum(gain_err[j:n])
            # A piece is fair when its error exceeds its share of the target
            # and rel_tol of its |fn| integral.  Near a divergent end a
            # piece's error does not shrink with its width, so a share alone
            # would cut those pieces until the budget is spent.
            heap, fair, (sa, sb) = state[0], state[1], state[5]
            share = max(abs_tol, rel_tol * abs(state[2])) / (sb - sa)
            for piece in pieces[p : p + count]:
                err = -piece[0]
                fits = err > share * (piece[2] - piece[1]) and err > rel_tol * piece[4]
                heapq.heappush(fair if fits else heap, piece)
            j = n
            p += count
    return values, errors


def _halvings(end: float, cut: float, room: int) -> list:
    """Up to ``_END_LEVELS − 1`` and at most ``room`` successive halvings of
    [end, cut] toward end, stopping where a halving rounds onto a bound."""
    cuts = []
    while len(cuts) < min(_END_LEVELS - 1, room):
        mid = 0.5 * (end + cut)
        if not (end < mid < cut or cut < mid < end):
            break
        cuts.append(mid)
        cut = mid
    return cuts


def _tail(terms: list, own: float):
    """Wynn-ε estimate of the sum of the terms that would follow ``terms``,
    and its error, where that error is below ``own``; else None.

    ``terms`` are the integrals of successive dyadic pieces toward one end
    of a segment, so the sum of the terms that follow is the integral over
    the end piece, and ``own`` is that piece's Kronrod–Gauss error.  Only
    terms whose last four shrink by a stable ratio below 1 are read: the
    three ratios lie in (0, 1) and within a quarter of the largest one's
    distance from 1 of each other.  A ratio of 1 or more, or one that
    drifts toward 1, is how a divergence looks.
    The ε table is built on the partial sums less the last one, one
    diagonal a term.  Each diagonal's estimate is its entry of highest even
    order; as in QUADPACK's ``dqelg``, the error of the last is the sum of
    its distances to the three before, floored at 50 ulps.
    """
    if len(terms) < 4 or 0.0 in terms[-4:]:
        return None
    t4, t3, t2, t1 = terms[-4:]
    r1, r2, r3 = t3 / t4, t2 / t3, t1 / t2
    least, most = min(r1, r2, r3), max(r1, r2, r3)
    if not (0.0 < least and most < 1.0 and most - least <= 0.25 * (1.0 - most)):
        return None
    sums = [0.0]
    for t in reversed(terms):
        sums.append(sums[-1] - t)
    estimates, previous = [], []
    for s in reversed(sums):
        row = [s]
        for k, old in enumerate(previous):
            d = row[k] - old
            if abs(d) <= _ROUNDING_FLOOR * abs(old):
                break  # converged to rounding: the next column is noise
            row.append((previous[k - 1] if k else 0.0) + 1.0 / d)
        estimates.append(row[(len(row) - 1) & ~1])
        previous = row
    value = estimates[-1]
    err = math.fsum(abs(value - other) for other in estimates[-4:-1])
    err = max(err, _ROUNDING_FLOOR * abs(value))
    return (value, err) if err < own else None


def _finish(panels, splits: int, budget: int, abs_tol: float, rel_tol: float):
    """Value and error estimate of one segment from its final panels.

    ``math.fsum`` rounds the exact sum once, so neither depends on the
    order of the panels, and so on the order of the splits.
    """
    value = math.fsum(map(itemgetter(3), panels))
    err = -math.fsum(map(itemgetter(0), panels))
    target = max(abs_tol, rel_tol * abs(value))
    if err > target and splits >= budget and err > 1e4 * target:
        raise DivergentIntegralError(
            f"quadrature used all {budget} subdivisions with error {err:.3e}"
            f" (target {target:.3e}); the integral may diverge"
        )
    # Kronrod–Gauss differences do not see rounding, which dominates when
    # the integrand cancels (ln tan over (0, π/2)).  As in QUADPACK, the
    # estimate is floored at 50 ulps of the integral of |fn|.
    rounding = _ROUNDING_FLOOR * math.fsum(map(itemgetter(4), panels))
    return value, max(err, rounding)


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdiv: int | None = None,
) -> Tuple[float, float]:
    """∫_a^b fn(x) dx: the one-segment case of :func:`integrate_many`.

    Returns (value, error_estimate), the floats `integrate_many` returns on
    the one segment.  A first panel that meets ``max(abs_tol,
    rel_tol·|value|)`` is the answer, returned at once, as QUADPACK's
    ``dqags`` does; one that misses is handed to the refinement of
    `integrate_many` and not evaluated again.  Raises
    DivergentIntegralError when the subdivision budget is exhausted far
    from tolerance, and DomainError when the integrand is not finite at an
    interior node.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0, 0.0
    lo, hi = np.array([min(a, b)]), np.array([max(a, b)])
    first = _panels(fn, lo, hi)
    k, e, r = (float(x[0]) for x in first)
    if e <= max(abs_tol, rel_tol * abs(k)):
        return (-k if a > b else k), max(e, _ROUNDING_FLOOR * r)
    values, errors = _refine(fn, lo, hi, np.array([a > b]), first, abs_tol, rel_tol, max_subdiv)
    return float(values[0]), float(errors[0])


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


#: Each window shrinks ε tenfold: ε_k = _SHRINK^−k·(b−a), for k from
#: _K_FIRST to _K_LAST.
_SHRINK = 10.0
_K_FIRST, _K_LAST = 2, 12
#: Three successive window values that agree within this (relative to the
#: last) end the window sequence.
_RAW_REL = 1e-8
#: Two successive column-2 entries of the endpoint-limit tableau that agree
#: within this (relative to max(1, |E|)) end the window sequence.
_SETTLE_REL = 1e-9


def _windows(a: float, b: float) -> list:
    """The windows [a + ε_k, b − ε_k] of :func:`endpoint_limit`, for k from
    _K_FIRST up to _K_LAST or the first window that is empty."""
    span, out = b - a, []
    for k in range(_K_FIRST, _K_LAST + 1):
        eps = span * _SHRINK ** (-k)
        ak, bk = a + eps, b - eps
        if not ak < bk:
            break
        out.append((ak, bk))
    return out


#: window_integrals evaluates the first this many windows in one batch, the
#: rest in a second.
_FIRST_BATCH = 6


def window_integrals(fn, a: float, b: float, max_subdiv: int | None = None):
    """∫ fn over each window of :func:`endpoint_limit` on [a, b], from
    nested strips.

    Returns ``integral_on(ak, bk) -> (value, error)`` for those windows.
    The core is the first window, and every later window adds the strips
    [a + ε_k, a + ε_{k−1}] and [b − ε_{k−1}, b − ε_k] to the window before.
    A window's value is the ``math.fsum`` of the core and its strips, so
    successive windows differ by exactly their new strips and not by
    independent quadrature noise; its error is the sum of theirs.  The
    first ``_FIRST_BATCH`` windows take one :func:`integrate_many` call at
    the first request, and the rest a second call, only when one of them
    is requested.  Each window of a batch that raises DomainError or
    DivergentIntegralError raises the same error, and so does each window
    of the second batch when the first raised.
    """
    windows = _windows(a, b)
    index = {w: i for i, w in enumerate(windows)}
    done = []  # per evaluated window: its parts, as (value, error) pairs, or an error

    def segments(i: int) -> list:
        (qa, qb) = windows[i]
        if i == 0:
            return [(qa, qb)]
        pa, pb = windows[i - 1]
        return [(qa, pa), (pb, qb)]

    def evaluate(first: int, last: int) -> None:
        if first and isinstance(done[-1], Exception):
            done.extend([done[-1]] * (last - first))
            return
        groups = [segments(i) for i in range(first, last)]
        lo, hi = zip(*(seg for group in groups for seg in group))
        try:
            values, errors = integrate_many(fn, lo, hi, max_subdiv=max_subdiv)
        except (DomainError, DivergentIntegralError) as exc:
            done.extend([exc] * (last - first))
            return
        pairs = iter(zip(values.tolist(), errors.tolist()))
        parts = done[-1] if first else []
        for group in groups:
            parts = parts + [next(pairs) for _ in group]
            done.append(parts)

    def integral_on(ak: float, bk: float):
        i = index[(ak, bk)]
        while len(done) <= i:
            evaluate(len(done), min(_FIRST_BATCH, len(windows)) if not done else len(windows))
        parts = done[i]
        if isinstance(parts, Exception):
            raise parts
        return math.fsum(v for v, _ in parts), math.fsum(e for _, e in parts)

    return integral_on


def endpoint_limit(
    value_on: Callable[[float, float], Tuple[float, Optional[float]]],
    a: float,
    b: float,
) -> Tuple[float, float, str]:
    """Limit of a window quantity on [a+ε, b−ε] as ε → 0 over shrinking
    windows.

    ``value_on(ak, bk)`` returns ``(v, t)``: the quantity on the window and
    the caller's extrapolation variable t, which tends to 0 with ε, or
    None when the caller has none.  Both endpoints shrink together along
    ε_k = 10^−k·(b−a), k = 2..12, which keeps limits well-defined for
    quantities that depend on the endpoint path.  Windows are evaluated
    lazily, each adding one row to a Richardson tableau:

    * column 0 holds the window value v_k;
    * column 1 the linear extrapolant to t = 0 of v_{k−1}, v_k in t;
    * column 2 the Richardson step (10·c1_k − c1_{k−1})/9, which removes
      an O(ε) remainder of column 1.  Window values L + c·t + d·ε·t, the
      shape of a frame's quotient over a diverging g(b) − g(a) with
      t = 1/|g(b) − g(a)|, leave exactly that.

    Only windows with consecutive k and a t combine; a window that raises
    DomainError or DivergentIntegralError, or is not finite, restarts
    columns 1 and 2.  The sequence stops at the first window where

    * the last three values agree pairwise within ``_RAW_REL``·|v|
      (stage "raw", the last difference as the error estimate), or
    * the last two column-2 entries agree within ``_SETTLE_REL``·max(1, |E|)
      (stage "extrapolated", their difference, floored at 50 ulps, as the
      estimate).

    Returns (value, error_estimate, stage); raises DivergentIntegralError
    when neither happens by k = 12.
    """
    records = []  # (k, t, value)
    col1, col2 = [], []  # tableau columns over the current consecutive run
    for k, (ak, bk) in enumerate(_windows(a, b), _K_FIRST):
        try:
            v, t = value_on(ak, bk)
        except (DomainError, DivergentIntegralError):
            continue
        if not math.isfinite(v):
            continue
        records.append((k, t, v))
        if len(records) >= 3:
            v1, v2, v3 = (r[2] for r in records[-3:])
            scale = max(abs(v3), 1e-300)
            if (
                abs(v3 - v2) <= _RAW_REL * scale
                and abs(v2 - v1) <= _RAW_REL * scale
                and abs(v3 - v1) <= _RAW_REL * scale
            ):
                return v3, max(abs(v3 - v2), 1e-16 * scale), "raw"
        if t is None or len(records) < 2 or records[-2][0] != k - 1 or records[-2][1] == t:
            col1.clear()
            col2.clear()
            continue
        _, t0, v0 = records[-2]
        col1.append(v - t * (v - v0) / (t - t0))  # the line through both, at t = 0
        if len(col1) >= 2:
            col2.append((_SHRINK * col1[-1] - col1[-2]) / (_SHRINK - 1.0))
        if len(col2) >= 2:
            e, delta = col2[-1], abs(col2[-1] - col2[-2])
            if delta <= _SETTLE_REL * max(1.0, abs(e)):
                return e, max(delta, _ROUNDING_FLOOR * max(abs(e), abs(v))), "extrapolated"
    raise DivergentIntegralError(
        "shrunken-interval values neither converge nor extrapolate stably; "
        "the integral appears divergent"
    )
