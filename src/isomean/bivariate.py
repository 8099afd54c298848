"""Two-argument means and the analytic bridges between mean families.

Contents:

* the quasi-Stolarsky family ``Q_{p,q}(a, b)``, one formula that stays
  accurate on and near its degenerate parameter lines,
* bivariate means generated by a map pair (the identity-function case of
  the general construction in :mod:`isomean.funmean`),
* Cauchy mean values ``(f'/g')⁻¹((f(b)−f(a))/(g(b)−g(a)))`` and the
  two-way conversion between Cauchy means and map-pair means, each
  conversion validated by an independently computed residual,
* slope-balance (necessary) and secant-slope (sufficient) comparison
  conditions for means of the same function under different map pairs,
* the geometric-versus-elastic gap analysis for power functions: the
  sign function ``S(r) = r^p − p·r·ln r − 1``, its nontrivial root, and
  the exact relative gap ``σ`` whose sign orders the two means.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._errors import (
    DomainError,
    NonMonotoneError,
    PreconditionError,
)
from .classify import DEFAULT_SAMPLES, classify_monotonicity, sample_grid
from .expr import (
    Expr,
    add,
    as_vector_fn,
    compile_numpy,
    const,
    differentiate,
    div,
    mul,
    substitute,
    var,
)
from .frame import GeneratorMap, generator_map, make_frame
from .funmean import MeanProblem, _as_map, _value_map, class_V_mean, dvi_mean
from .intervals import Interval
from .parse import parse
from .quadrature import integrate, integrate_many
from .verdict import EQ, GE, GT, LE, LT, UNDECIDED, Verdict

# ---------------------------------------------------------------------------
# quasi-Stolarsky means
# ---------------------------------------------------------------------------

#: m(x)/x = Σ B_{2k} x^{2k−2}/(2k)!, k = 1..7, highest power first, for |x| < 0.5,
#: where coth(x/2)/2 − 1/x cancels to 2.5ε/|x|; the next term is below 1e-17.
_SERIES = (1 / 74724249600, -691 / 1307674368000, 1 / 47900160, -1 / 1209600, 1 / 30240, -1 / 720, 1 / 12)


@dataclass(frozen=True)
class QuasiStolarskyParams:
    """Exponent pair (p, q) and positive argument pair (a, b) for ``Q_{p,q}``."""

    p: float
    q: float
    a: float
    b: float

    def __post_init__(self):
        # Field by field, so that the first bad field is the one named.
        fields = self.__dict__
        for name in ("p", "q", "a", "b"):
            v = fields[name] = float(fields[name])
            if not math.isfinite(v):
                raise PreconditionError(f"{name} must be finite, got {v}")
        if fields["a"] <= 0.0 or fields["b"] <= 0.0:
            raise PreconditionError("arguments must be positive")


def quasi_stolarsky(params: QuasiStolarskyParams) -> float:
    """The two-parameter mean ``(p(b^{p+q}−a^{p+q}) / ((p+q)(b^p−a^p)))^{1/q}``,
    Stolarsky's ``E(p+q, p)``, kept in [min(a, b), max(a, b)].

    It is that definition where its rounding is provably small, and
    elsewhere the Leach–Sholander integral ``ln Q = ln a + L·∫₀¹ ℓ((p+q·t)·L) dt``
    with ``L = ln(b/a)`` and ``ℓ(x) = 1 + 1/expm1(x) − 1/x``, which is smooth
    across the lines p = 0, q = 0 and p + q = 0 and gives their limits on them.
    """
    p, q, a, b = params.p, params.q, params.a, params.b
    if a == b:
        return a
    la, lb = math.log(a), math.log(b)
    L = lb - la
    value = _by_definition(p, q, a, b, L, max(abs(la), abs(lb)))
    if value is None:
        # ℓ = 1/2 + m centres ln Q at (ln a + ln b)/2: no cancellation on wide
        # windows.  t runs over [0, 1] as (p+q) − p is not q; x past the float
        # range is ±inf, where m = ±1/2.  1e-15 is 10× the K−G rounding noise.
        with np.errstate(over="ignore"):
            integral, _ = integrate(lambda t: _centred_weight((p + q * t) * L), 0.0, 1.0, 1e-15, 1e-15)
        value = math.exp(0.5 * (la + lb) + L * integral)
    return min(max(value, min(a, b)), max(a, b))


def _by_definition(p: float, q: float, a: float, b: float, L: float, lmax: float) -> Optional[float]:
    """``Q_{p,q}`` from its definition, or None where that may be off by more than 64ε.

    To first order the error is ε·(1 + (coth(|(p+q)L|/2) + coth(|pL|/2) + 4)/|q|):
    b^e − a^e carries ε·coth(|eL|/2) and the power 1/q divides by |q|.  The
    rounding δ of r = p + q adds |δ|·max(|ln a|, |ln b|)/|q|.  Every power,
    the core ``Q^q`` included, must also be finite and normal.
    """
    r = p + q
    tr, tp = math.tanh(0.5 * abs(r * L)), math.tanh(0.5 * abs(p * L))
    if q == 0.0 or tr == 0.0 or tp == 0.0 or max(abs(r), abs(p)) * lmax > 708.0:
        return None
    ulps = 1.0 + (1.0 / tr + 1.0 / tp + 4.0) / abs(q)
    ulps += abs(math.fsum((p, q, -r))) * lmax / sys.float_info.epsilon / abs(q)
    if ulps > 64.0:
        return None
    core = p * (b**r - a**r) / (r * (b**p - a**p))
    return core ** (1.0 / q) if sys.float_info.min <= core < math.inf else None


def _centred_weight(x: np.ndarray) -> np.ndarray:
    """m(x) = ℓ(x) − 1/2 = coth(x/2)/2 − 1/x: odd, in (−1/2, 1/2), m(0) = 0."""
    small = np.abs(x) < 0.5
    xd, xs = np.where(small, 1.0, x), x[small]
    x2, series = xs * xs, _SERIES[0]
    for c in _SERIES[1:]:
        series = series * x2 + c
    m = 0.5 / np.tanh(0.5 * xd) - 1.0 / xd
    m[small] = xs * series
    return m


# ---------------------------------------------------------------------------
# bivariate means from a map pair
# ---------------------------------------------------------------------------


def classV_bivariate(g, h, a: float, b: float) -> float:
    """Mean of the identity under the pair (g, h): a mean of a and b."""
    a, b = float(a), float(b)
    return a if a == b else class_V_mean(g, h, a, b).value


# ---------------------------------------------------------------------------
# Cauchy mean values and conversions
# ---------------------------------------------------------------------------


def _as_expr(source, what: str) -> Expr:
    if isinstance(source, GeneratorMap):
        if source.expr is None:
            raise PreconditionError(f"{what} needs a symbolic expression")
        return source.expr
    if isinstance(source, str):
        return parse(source)
    if isinstance(source, Expr):
        return source
    raise PreconditionError(f"{what} must be an expression or a generator map")


@dataclass(frozen=True)
class CauchyMean:
    """The mean-value point of the Cauchy mean value theorem.

    ``value`` solves ``f'(t)/g'(t) = (f(b)−f(a))/(g(b)−g(a))``; the report
    records the secant slope and how the derivative ratio was inverted.
    """

    value: float
    secant: float
    ratio_monotonicity: str
    inverse_strategy: str


def cauchy_mean_report(f, g, a: float, b: float) -> CauchyMean:
    """Like :func:`cauchy_mean_value`, but with the inversion details kept."""
    a, b = float(a), float(b)
    if a == b:
        raise PreconditionError("the Cauchy mean value needs two distinct endpoints")
    lo, hi = (a, b) if a < b else (b, a)
    d = Interval(lo, hi)
    fe = _as_expr(f, "f")
    ge = _as_expr(g, "g")
    return _mean_value_point(fe, ge, div(differentiate(fe), differentiate(ge)), a, b, d)


def _mean_value_point(fe: Expr, ge: Expr, ratio: Expr, a: float, b: float, d: Interval) -> CauchyMean:
    """The report of :func:`cauchy_mean_report` on the window d = [a, b]
    (in either order), with `ratio` the tree of f′/g′."""
    try:
        rm = generator_map(ratio, d)
    except NonMonotoneError as exc:
        raise NonMonotoneError(
            f"the derivative ratio is not strictly monotone on {d}, so the"
            f" Cauchy mean value does not exist uniquely: {exc}"
        ) from None
    ends = np.array([a, b])
    fa, fb = compile_numpy(fe)(ends).tolist()
    ga, gb = compile_numpy(ge)(ends).tolist()
    if not all(map(math.isfinite, (fa, fb, ga, gb))):
        raise DomainError(f"f or g is not finite at an end of {d}")
    dg = gb - ga
    if dg == 0.0 or not math.isfinite(dg):
        raise PreconditionError("g takes equal (or non-finite) endpoint values")
    secant = (fb - fa) / dg
    value = rm.invert(secant)
    return CauchyMean(
        value=value,
        secant=secant,
        ratio_monotonicity=rm.monotonicity.kind,
        inverse_strategy=rm.inverse_strategy,
    )


def cauchy_mean_value(f, g, a: float, b: float) -> float:
    """``(f'/g')⁻¹`` of the secant slope ``(f(b)−f(a))/(g(b)−g(a))``.

    The derivative ratio must be strictly monotone on the window — that is
    what makes the mean-value point unique and the inversion well posed.
    """
    return cauchy_mean_report(f, g, a, b).value


class Antiderivative:
    """A numeric antiderivative, frozen onto a cumulative knot grid.

    ``A(x) = ∫_base^x w`` with ``base`` the left end of the window.  Values
    are the stored cumulative sums plus one short local quadrature, so the
    evaluation path is independent of any single whole-interval adaptive
    run — which is what makes it usable as the second route of a
    cross-check.
    """

    def __init__(self, integrand, d: Interval, knots: int = 129):
        if not d.bounded or d.degenerate:
            raise PreconditionError("an antiderivative needs a bounded window")
        self.window = d
        self.base = d.lo
        self.integrand = parse(integrand) if isinstance(integrand, str) else integrand
        self._vec = as_vector_fn(self.integrand)
        xs = np.linspace(d.lo, d.hi, knots)
        segs, errs = integrate_many(self._vec, xs[:-1], xs[1:])
        self._knots = xs
        self._cum = np.array([0.0] + exact_prefix_sums(segs.tolist()))
        self.abs_error_estimate = math.fsum(errs.tolist())

    def many(self, xs) -> np.ndarray:
        """A at each point of xs (NaN outside the window), from one
        quadrature call over the stretches from each point's knot."""
        xs = np.asarray(xs, dtype=float)
        d = self.window
        slack = 1e-12 * np.maximum(1.0, np.abs(xs))
        inside = (xs > d.lo if d.lo_open else xs >= d.lo - slack) & (
            xs < d.hi if d.hi_open else xs <= d.hi + slack
        )
        out = np.full(xs.shape, np.nan)
        x = xs[inside]
        j = np.searchsorted(self._knots, x, side="right") - 1
        j = np.clip(j, 0, len(self._knots) - 2)
        local, _ = integrate_many(self._vec, self._knots[j], x)
        out[inside] = self._cum[j] + local
        return out

    def __call__(self, x: float) -> float:
        v = float(self.many([x])[0])
        if math.isnan(v):
            raise DomainError(f"{x} outside the antiderivative window {self.window}")
        return v

    def derivative_at(self, x: float) -> float:
        return float(self._vec(np.array([float(x)]))[0])

    def derivative_many(self, xs) -> np.ndarray:
        return self._vec(xs)


def exact_prefix_sums(xs) -> list:
    """``math.fsum(xs[:i+1])`` for every i, from one running exact sum.

    The running sum is kept as Shewchuk's non-overlapping partials, the
    exact state ``math.fsum`` keeps, and each prefix is the correctly
    rounded sum of the partials.  The values must be finite.
    """
    partials: list = []
    out = []
    for x in xs:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


def cauchy_to_classV(f, g, d: Interval) -> Tuple[GeneratorMap, float]:
    """Express a Cauchy mean as a map-pair mean of the identity.

    Taking the y-axis map to be the derivative ratio ``f'/g'`` makes the
    pair mean of the identity coincide with the Cauchy mean value — the
    integrand ``(f'/g')·g'`` telescopes back to ``f'``.  Returns the
    constructed ratio map together with the residual between the two
    independently computed sides.
    """
    if not d.bounded or d.degenerate:
        raise PreconditionError("the conversion needs a bounded non-degenerate window")
    fe = _as_expr(f, "f")
    ge = _as_expr(g, "g")
    # One tree of f′/g′, so the Cauchy side's map of it is verified once
    # and hm is that map or its restriction to d.
    ratio = div(differentiate(fe), differentiate(ge))
    value_cauchy = _mean_value_point(fe, ge, ratio, d.lo, d.hi, Interval(d.lo, d.hi)).value
    gm = g if isinstance(g, GeneratorMap) else generator_map(ge, d)
    hm = generator_map(ratio, d)
    value_pair = classV_bivariate(gm, hm, d.lo, d.hi)
    return hm, abs(value_cauchy - value_pair)


def classV_to_cauchy(g, h, f, d: Interval) -> Tuple[Antiderivative, float]:
    """Express a map-pair mean of f as a Cauchy mean value.

    With ``L`` the running integral of ``(h∘f)·g'`` from the left endpoint,
    the Cauchy mean of the pair ``(L, g)`` equals ``f⁻¹`` of the mean of f
    under ``(g, h)``.  Pass ``f=None`` for the identity.  The left route
    runs L's cumulative grid and a secant inversion; the right route runs
    adaptive quadrature plus the usual h-pullback.  Returns L and the
    residual between the two routes, measured in the base variable.
    """
    if not d.bounded or d.degenerate:
        raise PreconditionError("the conversion needs a bounded non-degenerate window")
    gm = _as_map(g, d)
    fe = var() if f is None else _as_expr(f, "f")
    fm = generator_map(fe, d)
    fvec = as_vector_fn(fe)
    hm = _value_map(h if isinstance(h, GeneratorMap) else _as_expr(h, "h"), fe, d)

    if gm.expr is not None and hm.expr is not None:
        integrand = mul(substitute(hm.expr, fe), differentiate(gm.expr))
    else:

        def integrand(xs: np.ndarray) -> np.ndarray:
            xs = np.asarray(xs, dtype=float)
            return hm.value_many(fvec(xs)) * gm.derivative_many(xs)

    L = Antiderivative(integrand, d)
    dg = gm(d.hi) - gm(d.lo)
    secant = (L(d.hi) - L(d.lo)) / dg
    value_cauchy = fm.invert(hm.invert(secant))

    pair_mean = dvi_mean(MeanProblem(fe, d, make_frame((gm, hm)))).value
    value_pair = fm.invert(pair_mean)
    return L, abs(value_cauchy - value_pair)


# ---------------------------------------------------------------------------
# comparison conditions for two map pairs over the same function
# ---------------------------------------------------------------------------


def _strict_direction(fe: Expr, d: Interval) -> int:
    mono = classify_monotonicity(fe, d)
    if not mono.is_strictly_monotone:
        raise PreconditionError(
            f"the comparison conditions need strictly monotone f; got {mono.kind}"
        )
    return mono.direction


def _slope_balance(curve: Expr, base: Expr) -> Callable[[np.ndarray], np.ndarray]:
    c1 = differentiate(curve)
    c2 = differentiate(c1)
    b1 = differentiate(base)
    b2 = differentiate(b1)
    return compile_numpy(add(div(c2, c1), mul(const(2.0), div(b2, b1))))


def _secant_slope(curve: Expr, base: Expr, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """``(c(u)−c(v))/c'(v) · b'(u)/b'(v)`` at each point pair."""
    c, dc = compile_numpy(curve), compile_numpy(differentiate(curve))
    db = compile_numpy(differentiate(base))
    return (c(us) - c(vs)) / dc(vs) * db(us) / db(vs)


def _losonczi_gap(f, g, h, G, H, d: Interval, what: str, terms):
    """The gap between the two sides of a comparison condition.

    With γ = h∘f and Γ = H∘f, `terms(γ, g, Γ, G)` gives the left and right
    sides as arrays.  Returns the gap right − left, oriented by f's
    direction, where both sides are finite, and its noise floor 1e-9·scale.
    """
    if d.degenerate or not d.bounded:
        raise PreconditionError("comparison needs a bounded non-degenerate window")
    fe = _as_expr(f, "f")
    direction = _strict_direction(fe, d)
    gamma = substitute(_as_expr(h, "h"), fe)
    Gamma = substitute(_as_expr(H, "H"), fe)
    with np.errstate(all="ignore"):
        lhs, rhs = terms(gamma, _as_expr(g, "g"), Gamma, _as_expr(G, "G"))
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    if int(ok.sum()) < 32:
        raise DomainError(f"{what} terms are not evaluable on the window")
    gap = (rhs[ok] - lhs[ok]) * (1 if direction > 0 else -1)
    scale = max(1.0, float(np.max(np.abs(lhs[ok]))), float(np.max(np.abs(rhs[ok]))))
    return gap, 1e-9 * scale


def losonczi_necessary(f, g, h, G, H, d: Interval, samples: int = DEFAULT_SAMPLES) -> Verdict:
    """Pointwise slope-balance condition separating two map pairs.

    Comparing means of f under (g, h) against (G, H): with γ = h∘f and
    Γ = H∘f, the balance ``γ''/γ' + 2g''/g' ≤ Γ''/Γ' + 2G''/G'`` holding
    everywhere is *necessary* for the first mean to sit below the second
    (for increasing f; reversed for decreasing).  When the strict version
    holds it is also sufficient on sufficiently narrow windows, so the
    verdict is only decided when the window is narrow relative to its
    location; otherwise the sign pattern is reported as evidence.
    """

    def terms(gamma, ge, Gamma, Ge):
        xs = sample_grid(d, samples)
        return _slope_balance(gamma, ge)(xs), _slope_balance(Gamma, Ge)(xs)

    gap, tiny = _losonczi_gap(f, g, h, G, H, d, "slope-balance", terms)
    span = d.hi - d.lo
    predictive = span <= 1e-2 * max(1.0, abs(d.lo), abs(d.hi))
    evidence = {
        "window": str(d),
        "gap_min": float(np.min(gap)),
        "gap_max": float(np.max(gap)),
        "predictive": predictive,
        "resolution": samples,
    }
    if np.all(gap > tiny):
        evidence["condition_for_le"] = "holds strictly"
        if predictive:
            return Verdict(LE, "slope-balance-necessary", evidence)
    elif np.all(gap < -tiny):
        evidence["condition_for_le"] = "fails strictly (reverse holds)"
        if predictive:
            return Verdict(GE, "slope-balance-necessary", evidence)
    elif np.all(gap >= -tiny):
        evidence["condition_for_le"] = "holds non-strictly"
    elif np.all(gap <= tiny):
        evidence["condition_for_le"] = "fails non-strictly"
    else:
        evidence["condition_for_le"] = "mixed sign"
    return Verdict(UNDECIDED, "slope-balance-necessary", evidence)


def losonczi_sufficient(
    f, g, h, G, H, d: Interval, mesh: int = 64, random_pairs: int = 1000
) -> Verdict:
    """Two-point secant-slope condition; sufficient with no window restriction.

    For increasing f, the inequality

        (γ(u)−γ(v))/γ'(v) · g'(u)/g'(v)  ≤  (Γ(u)−Γ(v))/Γ'(v) · G'(u)/G'(v)

    for all u, v in the window forces the (g, h)-mean of f below the
    (G, H)-mean (reversed for decreasing f).  The condition is scanned on
    a structured mesh plus a seeded random cloud of point pairs.
    """

    def terms(gamma, ge, Gamma, Ge):
        base = sample_grid(d, mesh)
        uu, vv = np.meshgrid(base, base)
        rng = np.random.default_rng(20260817)
        inner = d.clamp_inward(1e-9)
        us = np.concatenate([uu.ravel(), rng.uniform(inner.lo, inner.hi, random_pairs)])
        vs = np.concatenate([vv.ravel(), rng.uniform(inner.lo, inner.hi, random_pairs)])
        return _secant_slope(gamma, ge, us, vs), _secant_slope(Gamma, Ge, us, vs)

    gap, tiny = _losonczi_gap(f, g, h, G, H, d, "secant-slope", terms)
    evidence = {
        "window": str(d),
        "pairs": int(gap.size),
        "gap_min": float(np.min(gap)),
        "gap_max": float(np.max(gap)),
    }
    if np.all(gap >= -tiny):
        return Verdict(LE, "secant-slope-sufficient", evidence)
    if np.all(gap <= tiny):
        return Verdict(GE, "secant-slope-sufficient", evidence)
    return Verdict(UNDECIDED, "secant-slope-sufficient", evidence)


# ---------------------------------------------------------------------------
# geometric versus elastic mean of a power function
# ---------------------------------------------------------------------------


def s_function(r: float, p: float) -> float:
    """``S(r) = r^p − p·r·ln r − 1``; its sign on [a/b, b/a] orders G and E."""
    r, p = float(r), float(p)
    if r <= 0.0:
        raise PreconditionError("S is defined for positive r")
    try:
        rp = math.exp(p * math.log(r))
    except OverflowError:
        return math.inf
    return rp - p * r * math.log(r) - 1.0


def s_second_root(p: float) -> Optional[float]:
    """The nontrivial root of S for the given exponent, when one exists.

    ``p > 2`` has a root α < 1 (S negative left of it); ``1 < p < 2`` has a
    root β > 1 (S positive right of it).  For ``p < 0``, ``0 < p ≤ 1`` and
    ``p = 2`` the sign of S never recrosses, so None is returned.
    """
    p = float(p)
    if p == 0.0:
        raise PreconditionError("the sign function needs a nonzero exponent")
    if p < 0.0 or 0.0 < p <= 1.0 or abs(p - 2.0) < 1e-12:
        return None
    if p > 2.0:
        lo = 0.5
        while s_function(lo, p) >= -1e-12:
            lo *= 0.5
            if lo < 1e-300:
                return None  # pragma: no cover - unreachable for p > 2
        hi = 1.0 - 1e-3
    else:  # 1 < p < 2
        lo = 1.0 + 1e-3
        hi = 2.0
        while s_function(hi, p) <= 1e-12:
            hi *= 2.0
            if hi > 1e300:
                return None  # pragma: no cover - unreachable for 1 < p < 2
    flo = s_function(lo, p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
        fm = s_function(mid, p)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sigma_GE(r: float, p: float) -> float:
    """Relative gap ``G/E − 1`` between the geometric and elastic means of
    ``x^p`` over a window with endpoint ratio r.

    Computed in log space so huge ratios stay meaningful: with ``z = p·ln r``,

        σ = expm1( ln(z/expm1(z)) + p·r·ln r/(r−1) − p ).

    Symmetric in r ↔ 1/r; negative exactly when the geometric mean is the
    smaller one.
    """
    r, p = float(r), float(p)
    if r <= 0.0:
        raise PreconditionError("the endpoint ratio must be positive")
    if p == 0.0:
        raise PreconditionError("the exponent must be nonzero")
    if abs(r - 1.0) < 1e-14:
        return 0.0
    z = p * math.log(r)
    if z > 1e-8:
        ln_first = math.log(z) - z - math.log1p(-math.exp(-z))
    elif z < -1e-8:
        ln_first = math.log(z / math.expm1(z))
    else:
        ln_first = -math.log1p(z / 2.0)
    t1 = p * r * math.log(r) / (r - 1.0)
    exponent = ln_first + t1 - p
    if exponent > 709.0:
        return math.inf
    return math.expm1(exponent)


def compare_G_E(a: float, b: float, p: float) -> Verdict:
    """Order the geometric mean of ``x^p`` on [a, b] against the elastic one.

    The verdict comes from the sign of the exact relative gap σ; the
    evidence records σ, the endpoint ratio, and where the nontrivial root
    of S sits for this exponent.
    """
    a, b, p = float(a), float(b), float(p)
    if not (0.0 < a < b):
        raise PreconditionError("needs 0 < a < b")
    if p == 0.0:
        raise PreconditionError("needs a nonzero exponent")
    r = b / a
    sigma = sigma_GE(r, p)
    evidence = {"sigma": sigma, "ratio": r, "s_root": s_second_root(p)}
    if abs(sigma) <= 1e-15:
        return Verdict(EQ, "relative-gap-sign", evidence)
    if sigma > 0.0:
        return Verdict(GT, "relative-gap-sign", evidence)
    return Verdict(LT, "relative-gap-sign", evidence)
