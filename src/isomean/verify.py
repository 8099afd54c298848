"""Built-in verification suite.

Every published number and identity this package is supposed to reproduce
is re-derived here from the public API and checked against an independent
expectation: a closed form, a second computational route, or a structural
invariant.  The suite is what ``isomean verify`` runs; each check reports a
residual and the tolerance it was held to, so a regression shows up as a
number, not just a boolean.

Checks are organised in named groups (``GROUPS``) so subsets can be run in
isolation (``--only geometric``).  Group order follows rough dependency
order: plain named means first, then the bivariate layer, then comparisons
and the randomized property suites.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._errors import PreconditionError
from .bivariate import (
    QuasiStolarskyParams,
    cauchy_mean_value,
    classV_bivariate,
    classV_to_cauchy,
    quasi_stolarsky,
    s_second_root,
    sigma_GE,
)
from .compare import compare_function_means, make_scenario
from .expr import ScaleShift, add, as_scalar_fn, const, differentiate, mul
from .expr import exp as expr_exp
from .expr import powx, sub, v_scaleshift, var
from .frame import estimate_range_hull, generator_map, make_frame
from .funmean import _log_map, _power_map
from .funmean import (
    class_I_mean,
    class_II_mean,
    class_III_mean,
    class_VII_mean,
    conjugation_classII,
    dvi_mean,
    dvi_mean_riemann_oracle,
    elastic_mean,
    geometric_mean,
    mean_problem,
)
from .intervals import Interval
from .nummean import compare_number_means, iso_mean
from .parse import parse

__all__ = ["CheckResult", "GROUPS", "run_checks", "report"]

_SEED = 20260817

#: Root of x·tan(x) = 1: where the sine/log number-mean ordering flips.
_SIN_LOG_THRESHOLD = 0.8603335890193797


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    ``residual`` is the measured distance from the expectation (0 for pure
    pass/fail checks that passed); a check passes iff residual ≤ tolerance.
    """

    name: str
    group: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        out = f"{mark}  {self.group}/{self.name}  residual={self.residual:.3e}  tol={self.tolerance:.1e}"
        if self.detail:
            out += f"  ({self.detail})"
        return out


def _residual(name: str, group: str, got: float, want: float, tol: float, detail: str = "") -> CheckResult:
    r = abs(got - want)
    return CheckResult(name, group, r <= tol, r, tol, detail or f"got {got!r}, want {want!r}")


def _bound(name: str, group: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    ok = math.isfinite(residual) and residual <= tol
    return CheckResult(name, group, ok, residual, tol, detail)


def _flag(name: str, group: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, group, ok, 0.0 if ok else 1.0, 0.0, detail)


def _caught(name: str, group: str, exc: BaseException) -> CheckResult:
    return CheckResult(name, group, False, math.inf, 0.0, f"{type(exc).__name__}: {exc}")


def _guard(group: str, name: str, fn: Callable[[], list[CheckResult]]) -> list[CheckResult]:
    try:
        return fn()
    except Exception as exc:  # a crashed check is a failed check, not a crashed report
        return [_caught(name, group, exc)]


# ---------------------------------------------------------------------------
# geometric
# ---------------------------------------------------------------------------


def _group_geometric() -> list[CheckResult]:
    g = "geometric"
    out = []
    r = geometric_mean("x", Interval(0.0, 1.0))
    out.append(_residual("identity-window-unit", g, r.value, 1.0 / math.e, 1e-8))
    r = geometric_mean("sin(x)", Interval(0.0, math.pi))
    out.append(_residual("sine-arch", g, r.value, 0.5, 1e-8))
    r = geometric_mean("tan(x)", Interval(0.0, math.pi / 2, hi_open=True))
    out.append(_residual("tangent-quarter-period", g, r.value, 1.0, 1e-6, f"method {r.method}"))
    # mean chord length of a circle with radius 1 (diameter d = 2)
    r = geometric_mean("2*sqrt(1-x^2)", Interval(-1.0, 1.0))
    out.append(_residual("circle-chords", g, r.value, (2.0 / math.e) * 2.0, 1e-7))
    return out


# ---------------------------------------------------------------------------
# elastic
# ---------------------------------------------------------------------------


def _group_elastic() -> list[CheckResult]:
    g = "elastic"
    out = []
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    worst_at = ""
    for _ in range(20):
        a, b = sorted(rng.uniform(0.1, 12.0, size=2))
        if b - a < 1e-2:
            b = a + 1e-2
        got = elastic_mean("x", Interval(a, b)).value
        want = (b - a) / (math.log(b) - math.log(a))
        r = abs(got - want)
        if r > worst:
            worst, worst_at = r, f"a={a:.4f}, b={b:.4f}"
    out.append(_bound("identity-random-windows", g, worst, 1e-10, f"worst at {worst_at}"))
    r = elastic_mean("tan(x)", Interval(0.0, math.pi / 2, hi_open=True))
    out.append(_residual("tangent-quarter-period", g, r.value, 2.0 / math.pi, 1e-5, f"method {r.method}"))
    return out


# ---------------------------------------------------------------------------
# stolarsky
# ---------------------------------------------------------------------------

_POSITIVE = Interval(0.0, math.inf, lo_open=True)


def _stolarsky_rel(p: float, q: float, a: float, b: float) -> float:
    value = quasi_stolarsky(QuasiStolarskyParams(p, q, a, b))
    g, h = (_log_map() if e == 0.0 else _power_map(e) for e in (p, q))
    return abs(value - classV_bivariate(g, h, a, b)) / max(1.0, abs(value))


def _group_stolarsky() -> list[CheckResult]:
    g = "stolarsky"
    out = []
    windows = [(1.0, 2.0), (0.5, 3.0), (2.0, 5.0), (0.25, 0.75)]
    # one check per degenerate parameter line and per elementary row
    rows = [
        ("equal-powers", [(1.5, 1.5), (-2.0, -2.0)]),
        ("both-zero", [(0.0, 0.0)]),
        ("opposite-powers", [(2.0, -2.0), (-0.5, 0.5)]),
        ("first-zero", [(0.0, 3.0), (0.0, -1.0)]),
        ("second-zero", [(2.0, 0.0), (-1.5, 0.0)]),
        ("two-one", [(2.0, 1.0)]),
        ("minus-one-three", [(-1.0, 3.0)]),
    ]
    for name, pqs in rows:
        worst = max(_stolarsky_rel(p, q, a, b) for p, q in pqs for a, b in windows)
        out.append(_bound(name, g, worst, 1e-9))
    # the (2,1) and (-1,3) rows also have elementary closed forms of their own
    a, b = 1.0, 2.0
    q21 = quasi_stolarsky(QuasiStolarskyParams(2.0, 1.0, a, b))
    out.append(_residual("two-one-closed-form", g, q21, 2 * (a * a + a * b + b * b) / (3 * (a + b)), 1e-12))
    qm13 = quasi_stolarsky(QuasiStolarskyParams(-1.0, 3.0, a, b))
    out.append(_residual("minus-one-three-closed-form", g, qm13, (a * 0.5 * (a + b) * b) ** (1.0 / 3.0), 1e-12))
    # 200-point grid against direct class-V quadrature
    exps = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    grid = [(p, q, a, b) for p in exps for q in exps for a, b in windows]
    grid += [(2.0, 1.0, 1.0, 2.0), (-1.0, 3.0, 1.0, 2.0), (2.0, 1.0, 0.5, 3.0), (-1.0, 3.0, 2.0, 5.0)]
    worst = 0.0
    worst_at = ""
    for p, q, a, b in grid:
        r = _stolarsky_rel(p, q, a, b)
        if r > worst:
            worst, worst_at = r, f"p={p}, q={q}, a={a}, b={b}"
    out.append(_bound("grid-vs-quadrature", g, worst, 1e-9, f"{len(grid)} points; worst at {worst_at}"))
    out.append(_residual("two-one-exact", g, quasi_stolarsky(QuasiStolarskyParams(2.0, 1.0, 1.0, 2.0)), 14.0 / 9.0, 0.0))
    # Near the lines, ln Q = ln a + L/2 + (p + q/2)·L²/12 + O((|pL| + |qL|)³).
    a, b = 1.5, 7.0
    L = math.log(b / a)
    pqs = [(3e-9, 4.5e-9), (1e-9, 0.0), (0.0, 2e-9), (-2e-9, 2e-9), (2e-9, 2e-9)]
    want = [math.exp(math.log(a) + L / 2 + (p + q / 2) * L * L / 12) for p, q in pqs]
    worst = max(abs(quasi_stolarsky(QuasiStolarskyParams(p, q, a, b)) / w - 1.0) for (p, q), w in zip(pqs, want))
    out.append(_bound("near-lines", g, worst, 1e-14, "five pairs within 5e-9 of p = 0, q = 0, p = q, p + q = 0"))
    return out


# ---------------------------------------------------------------------------
# class identities
# ---------------------------------------------------------------------------


def _group_class_identities() -> list[CheckResult]:
    g = "class-identities"
    out = []
    # same map on both axes, applied to the identity: g^{-1}((g(a)+g(b))/2)
    cases = [
        ("x^3", 1.0, 2.0, ((1.0 + 8.0) / 2.0) ** (1.0 / 3.0)),
        ("exp(x)", 0.0, 1.5, math.log((1.0 + math.exp(1.5)) / 2.0)),
        ("ln(x)", 1.0, 3.0, math.sqrt(3.0)),
    ]
    worst = max(abs(class_III_mean("x", Interval(a, b), src).value - want) for src, a, b, want in cases)
    out.append(_bound("same-map-of-identity", g, worst, 1e-10, f"{len(cases)} generators"))
    # value map = f^{-1}: the mean collapses to f of the window midpoint
    cases2 = [
        ("exp(x)", "ln(y)", 0.0, 1.0, math.exp(0.5)),
        ("x^2", "sqrt(y)", 0.5, 2.0, 1.25 ** 2),
    ]
    worst = max(abs(class_I_mean(f, Interval(a, b), h).value - want) for f, h, a, b, want in cases2)
    out.append(_bound("value-map-inverts-f", g, worst, 1e-10, f"{len(cases2)} pairs"))
    # base map = f: the mean is the average of the endpoint values
    cases3 = [
        ("exp(x)", 0.0, 1.0, (1.0 + math.e) / 2.0),
        ("sin(x)", 0.2, 1.3, (math.sin(0.2) + math.sin(1.3)) / 2.0),
    ]
    worst = max(abs(class_II_mean(f, Interval(a, b), f).value - want) for f, a, b, want in cases3)
    out.append(_bound("base-map-equals-f", g, worst, 1e-10, f"{len(cases3)} functions"))
    # the (f, f^{-1}) pairing on x^a over [0, c]: (a/(a+1))^a * c^a
    cases4 = [
        ("x^2", 0.0, 1.0, (2.0 / 3.0) ** 2),
        ("x^3", 0.0, 2.0, (3.0 / 4.0) ** 3 * 8.0),
    ]
    worst = max(abs(class_VII_mean(f, Interval(a, b)).value - want) for f, a, b, want in cases4)
    out.append(_bound("self-paired-power", g, worst, 1e-8, f"{len(cases4)} powers"))
    return out


# ---------------------------------------------------------------------------
# cauchy
# ---------------------------------------------------------------------------

_MONOTONE_CORPUS = ("x", "x^2", "x^3", "sqrt(x)", "exp(x)", "exp(x/2)", "ln(1+x)", "1/x", "3-x", "x^1.5")


def _group_cauchy() -> list[CheckResult]:
    g = "cauchy"
    out = []
    a, b = 2.0, 5.0
    logmean = (b - a) / (math.log(b) - math.log(a))
    got = cauchy_mean_value("ln(x)", "x", a, b)
    out.append(_residual("log-mean-closed-form", g, got, logmean, 1e-9))
    via_pair = classV_bivariate("x", "1/y", a, b)
    out.append(_residual("log-mean-vs-class-V", g, got, via_pair, 1e-9))
    d = Interval(0.5, 2.0)
    for name, base, value in (
        ("conversion-residual-geometric", "x", "ln(y)"),
        ("conversion-residual-elastic", "ln(x)", "y"),
    ):
        worst = 0.0
        worst_at = ""
        for src in _MONOTONE_CORPUS:
            _, res = classV_to_cauchy(base, value, src, d)
            if res > worst:
                worst, worst_at = res, src
        out.append(_bound(name, g, worst, 1e-7, f"worst for f={worst_at!r}"))
    return out


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _expect_order(
    name: str,
    group: str,
    f,
    window: Interval,
    left,
    right,
    sign: int,
    scenario: Optional[str] = None,
) -> CheckResult:
    """Run a frame comparison and demand a decided verdict with this sign."""
    s = make_scenario(f, window, left, right)
    v = compare_function_means(s)  # raises ComparisonContradiction on a bad verdict
    ok = v.decided and v.direction() == sign
    if scenario is not None:
        ok = ok and s.scenario == scenario
    num = v.evidence.get("numeric", {})
    gap = abs(num.get("difference", math.nan))
    detail = f"{v} scenario={s.scenario} |left-right|={gap:.3e}"
    return CheckResult(name, group, ok, 0.0 if ok else 1.0, 0.0, detail)


def _group_comparison() -> list[CheckResult]:
    g = "comparison"
    out = []
    # number means generated by sine vs natural log: the ordering flips at
    # the root of x*tan(x) = 1 (~0.86033), where |sin'/ln'| = x*cos(x) peaks
    sin_map = generator_map("sin(x)", Interval(0.0, 1.55))
    log_map = generator_map("ln(x)", _POSITIVE)
    t = _SIN_LOG_THRESHOLD
    v = compare_number_means(sin_map, log_map, Interval(0.2, t - 0.02))
    ok = v.relation == "GE"
    xs = (0.25, 0.4, 0.8)
    gap = iso_mean(xs, sin_map) - iso_mean(xs, log_map)
    out.append(_flag("numbers-sine-vs-log-below-threshold", g, ok and gap >= -1e-12, f"{v}, spot gap {gap:.3e}"))
    v = compare_number_means(sin_map, log_map, Interval(t + 0.02, 1.5))
    xs = (0.9, 1.1, 1.45)
    gap = iso_mean(xs, sin_map) - iso_mean(xs, log_map)
    out.append(_flag("numbers-sine-vs-log-above-threshold", g, v.relation == "LE" and gap <= 1e-12, f"{v}, spot gap {gap:.3e}"))
    # number means generated by sinh vs cosh are ordered on any positive window
    sinh_map = generator_map("sinh(x)", Interval(0.0, 10.0))
    cosh_map = generator_map("cosh(x)", Interval(0.0, 10.0))
    v = compare_number_means(sinh_map, cosh_map, Interval(0.1, 2.0))
    xs = (0.2, 0.7, 1.8)
    gap = iso_mean(xs, sinh_map) - iso_mean(xs, cosh_map)
    out.append(_flag("numbers-sinh-vs-cosh", g, v.relation == "LE" and gap <= 1e-12, f"{v}, spot gap {gap:.3e}"))

    # weighted means of tan: log-weighted ≤ plain on [0.1, 1.5]
    w = Interval(0.1, 1.5)
    hull = estimate_range_hull(parse("tan(x)"), w)
    pad = 0.05 * (hull.hi - hull.lo)
    vwin = Interval(hull.lo - pad, hull.hi + pad)
    idv = generator_map("y", vwin)
    out.append(
        _expect_order(
            "weights-log-vs-identity-tangent", g, "tan(x)", w,
            (generator_map("ln(x)", _POSITIVE), idv),
            (generator_map("x", Interval(0.0, 2.0)), idv),
            -1, scenario="ClassII",
        )
    )
    # quadratic weight pulls the average of the identity up:
    # 2(a²+ab+b²)/(3(a+b)) ≥ (a+b)/2
    a, b = 1.0, 2.0
    w = Interval(a, b)
    idv = generator_map("y", Interval(0.5, 2.5))
    s = make_scenario(
        "x", w,
        (generator_map("x^2", _POSITIVE), idv),
        (generator_map("x", Interval(0.0, 3.0)), idv),
    )
    v = compare_function_means(s)
    left = v.evidence["numeric"]["left"]
    closed = 2 * (a * a + a * b + b * b) / (3 * (a + b))
    ok = v.decided and v.direction() == 1 and abs(left - closed) <= 1e-9
    out.append(_flag("weights-quadratic-vs-identity", g, ok, f"{v}, left {left!r} vs closed form {closed!r}"))
    # sine weight vs cosine weight on [0.3, 1.2]
    idv2 = generator_map("y", Interval(0.0, 2.0))
    out.append(
        _expect_order(
            "weights-sine-vs-cosine", g, "x", Interval(0.3, 1.2),
            (generator_map("sin(x)", Interval(0.0, 1.55)), idv2),
            (generator_map("cos(x)", Interval(0.0, 1.55)), idv2),
            -1, scenario="ClassII",
        )
    )
    # swapping (cos, sin) maps under the decreasing reflection pi/2 - x:
    # raw means order LT; after the reflection the displayed chain is
    # arccos((cos a + cos b)/2) > arcsin((sin a + sin b)/2)
    a, b = 0.3, 1.2
    wide = Interval(0.05, 1.55)
    s = make_scenario(
        "pi/2-x", Interval(a, b),
        (generator_map("cos(x)", wide), generator_map("sin(y)", wide)),
        (generator_map("sin(x)", wide), generator_map("cos(y)", wide)),
    )
    v = compare_function_means(s)
    lv = v.evidence["numeric"]["left"]
    rv = v.evidence["numeric"]["right"]
    want_l = math.asin((math.cos(a) + math.cos(b)) / 2.0)
    want_r = math.acos((math.sin(a) + math.sin(b)) / 2.0)
    ok = (
        v.decided and v.direction() == -1 and s.scenario == "ExchangedDMs"
        and abs(lv - want_l) <= 1e-9 and abs(rv - want_r) <= 1e-9
        # the display chain after applying the decreasing reflection:
        and (math.pi / 2 - lv) > (math.pi / 2 - rv)
    )
    out.append(_flag("swapped-maps-arc-chain", g, ok, f"{v}, left {lv!r}, right {rv!r}"))
    # same power map on both axes: endpoint power means, ordered by exponent
    s = make_scenario(
        "x", Interval(1.0, 2.0),
        (generator_map("x^3", _POSITIVE), generator_map("y^3", _POSITIVE)),
        (generator_map("x^2", _POSITIVE), generator_map("y^2", _POSITIVE)),
    )
    v = compare_function_means(s)
    lv = v.evidence["numeric"]["left"]
    rv = v.evidence["numeric"]["right"]
    m3 = ((1.0 + 8.0) / 2.0) ** (1.0 / 3.0)
    m2 = math.sqrt((1.0 + 4.0) / 2.0)
    ok = (
        v.decided and v.direction() == 1 and s.scenario == "ClassIII-pair"
        and abs(lv - m3) <= 1e-9 and abs(rv - m2) <= 1e-9
    )
    out.append(_flag("paired-power-maps", g, ok, f"{v}, left {lv!r}, right {rv!r}"))
    return out


# ---------------------------------------------------------------------------
# g-vs-e
# ---------------------------------------------------------------------------


def _group_g_vs_e() -> list[CheckResult]:
    g = "g-vs-e"
    out = []
    root = s_second_root(3.0)
    out.append(_residual("shape-function-second-root", g, root, 0.2142142, 1e-6))
    vals = {r: sigma_GE(r, 2.0) for r in (1.01, 2.0, 10.0, 100.0)}
    bad = min(vals.values())
    out.append(
        CheckResult(
            "relative-gap-positive-p2", g, bad > 0.0, max(0.0, -bad), 0.0,
            "min sigma " + ", ".join(f"sigma({r})={v:.3e}" for r, v in vals.items()),
        )
    )
    lo, hi = sigma_GE(600.0, 3.0), sigma_GE(800.0, 3.0)
    ok = lo < 0.0 < hi
    # bisect the crossing for the report
    x0, x1 = 600.0, 800.0
    for _ in range(60):
        mid = 0.5 * (x0 + x1)
        if sigma_GE(mid, 3.0) < 0.0:
            x0 = mid
        else:
            x1 = mid
    out.append(_flag("relative-gap-sign-change-p3", g, ok, f"sigma(600)={lo:.3e}, sigma(800)={hi:.3e}, crossing near r={0.5 * (x0 + x1):.4f}"))
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(100):
        r = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        p = rng.uniform(-4.0, 4.0)
        if abs(p) < 0.05:
            p = 0.05
        s1, s2 = sigma_GE(r, p), sigma_GE(1.0 / r, p)
        worst = max(worst, abs(s1 - s2) / max(1.0, abs(s1)))
    out.append(_bound("relative-gap-symmetry", g, worst, 1e-12, "100 random (r, p)"))
    return out


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _property_frames() -> list:
    """A reusable pool of frames bonding every positive-valued test function."""
    wide_x = Interval(0.05, 4.0)
    value_win = _POSITIVE
    gs = [
        generator_map("x", wide_x),
        generator_map("x^2", _POSITIVE),
        generator_map("ln(x)", _POSITIVE),
        generator_map("exp(x)", Interval(-1.0, 5.0)),
        generator_map("sinh(x)", Interval(-1.0, 5.0)),
    ]
    hs = [
        generator_map("y", value_win),
        generator_map("ln(y)", value_win),
        generator_map("sqrt(y)", value_win),
        generator_map("y^2", value_win),
        generator_map("1/y", value_win),
    ]
    return [make_frame((gm, hm)) for gm, hm in zip(gs * 1, hs)] + [
        make_frame((gs[0], hs[1])),
        make_frame((gs[2], hs[0])),
        make_frame((gs[1], hs[2])),
        make_frame((gs[3], hs[0])),
        make_frame((gs[4], hs[3])),
    ]


_PROPERTY_FUNCTIONS = ("2+sin(x)", "exp(x/2)", "1+x^2", "3/(1+x)", "2+cos(2*x)/2")


def _check_ivp() -> CheckResult:
    g = "properties"
    frames = _property_frames()
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    count = 0
    for src in _PROPERTY_FUNCTIONS:
        fe = parse(src)
        for fr in frames:
            for _ in range(10):
                a, b = sorted(rng.uniform(0.3, 2.5, size=2))
                if b - a < 0.05:
                    b = a + 0.05
                p = mean_problem(fe, a, b, fr)
                res = dvi_mean(p)
                hull = p.range_hull
                slack = 10.0 * res.abs_error_estimate + 1e-9
                viol = max(hull.lo - res.value, res.value - hull.hi, 0.0) - slack
                worst = max(worst, viol)
                count += 1
    return _bound("mean-stays-in-range", g, max(worst, 0.0), 0.0, f"{count} problems")


def _check_scaleshift() -> CheckResult:
    g = "properties"
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    # numbers: scale-shifting the generator's output leaves the mean alone
    pool = [
        generator_map("ln(x)", _POSITIVE),
        generator_map("x^2", _POSITIVE),
        generator_map("exp(x)", Interval(-1.0, 4.0)),
        generator_map("1/x", _POSITIVE),
    ]
    for i in range(100):
        gm = pool[i % len(pool)]
        xs = tuple(rng.uniform(0.5, 2.0, size=int(rng.integers(3, 7))))
        k = float(rng.uniform(0.5, 3.0)) * (1.0 if i % 2 == 0 else -1.0)
        c = float(rng.uniform(-2.0, 2.0))
        gm2 = generator_map(v_scaleshift(gm.expr, ScaleShift(k, c)), gm.domain)
        worst = max(worst, abs(iso_mean(xs, gm) - iso_mean(xs, gm2)))
    # functions: scale-shifting both frame maps leaves the mean alone
    fe = parse("2+sin(x)")
    gm = generator_map("x^2", _POSITIVE)
    hm = generator_map("ln(y)", _POSITIVE)
    base = dvi_mean(mean_problem(fe, 0.4, 1.9, make_frame((gm, hm)))).value
    for i in range(100):
        kg = float(rng.uniform(0.5, 3.0)) * (1.0 if i % 2 == 0 else -1.0)
        kh = float(rng.uniform(0.5, 3.0)) * (1.0 if i % 3 == 0 else -1.0)
        gm2 = generator_map(v_scaleshift(gm.expr, ScaleShift(kg, float(rng.uniform(-2, 2)))), gm.domain)
        hm2 = generator_map(v_scaleshift(hm.expr, ScaleShift(kh, float(rng.uniform(-2, 2)))), hm.domain)
        got = dvi_mean(mean_problem(fe, 0.4, 1.9, make_frame((gm2, hm2)))).value
        worst = max(worst, abs(got - base))
    return _bound("scale-shift-invariance", g, worst, 1e-10, "200 cases (100 number, 100 function)")


def _check_endpoint_symmetry() -> CheckResult:
    g = "properties"
    fr = make_frame((generator_map("x^2", _POSITIVE), generator_map("ln(y)", _POSITIVE)))
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for src in _PROPERTY_FUNCTIONS:
        fe = parse(src)
        for _ in range(4):
            a, b = sorted(rng.uniform(0.3, 2.5, size=2))
            if b - a < 0.05:
                b = a + 0.05
            v1 = dvi_mean(mean_problem(fe, a, b, fr)).value
            v2 = dvi_mean(mean_problem(fe, b, a, fr)).value
            worst = max(worst, abs(v1 - v2))
    return _bound("endpoint-symmetry", g, worst, 0.0, "20 reversed windows, bit-exact")


def _check_dominance() -> CheckResult:
    g = "properties"
    base = parse("1.5+sin(x)")
    fr = make_frame((generator_map("x", Interval(-0.5, 2.5)), generator_map("ln(y)", _POSITIVE)))
    rng = np.random.default_rng(_SEED + 3)
    m0 = dvi_mean(mean_problem(base, 0.0, 2.0, fr))
    worst = 0.0
    for _ in range(100):
        amp = float(rng.uniform(0.01, 0.5))
        c = float(rng.uniform(0.0, 2.0))
        wdt = float(rng.uniform(0.1, 0.5))
        bump = mul(const(amp), expr_exp(mul(const(-1.0), powx(mul(sub(var(), const(c)), const(1.0 / wdt)), const(2.0)))))
        fe = add(base, bump)
        m1 = dvi_mean(mean_problem(fe, 0.0, 2.0, fr))
        slack = m0.abs_error_estimate + m1.abs_error_estimate + 1e-12
        worst = max(worst, m0.value - m1.value - slack)
    return _bound("monotone-dominance", g, max(worst, 0.0), 0.0, "100 non-negative bumps")


def _check_partition_limit() -> CheckResult:
    g = "properties"
    cases = [
        ("sin(x)+1.5", 0.2, 1.2, ("x", "ln(y)")),
        ("x^2", 1.0, 2.0, ("ln(x)", "y")),
        ("exp(x/2)", 0.3, 1.7, ("x^2", "sqrt(y)")),
        ("3/(1+x)", 0.5, 2.0, ("x", "1/y")),
        ("2+cos(2*x)/2", 0.4, 2.1, ("exp(x)", "y")),
        ("1+x^2", 0.2, 1.4, ("sinh(x)", "ln(y)")),
    ]
    worst = 0.0
    worst_at = ""
    for src, a, b, (gs, hs) in cases:
        fe = parse(src)
        fr = make_frame((generator_map(gs, Interval(0.05, 4.0) if "ln" not in gs else _POSITIVE), generator_map(hs, _POSITIVE)))
        p = mean_problem(fe, a, b, fr)
        got = dvi_mean(p).value
        oracle = dvi_mean_riemann_oracle(p, 2 ** 16)
        r = abs(got - oracle)
        if r > worst:
            worst, worst_at = r, src
    return _bound("partition-limit-agreement", g, worst, 1e-4, f"{len(cases)} problems, n=65536; worst for {worst_at!r}")


def _check_conjugation() -> CheckResult:
    g = "properties"
    pool = ["x", "x^2", "x^3", "sqrt(x)", "exp(x)", "exp(x/2)", "ln(1+x)", "x^1.5", "sinh(x)", "2*x+1"]
    d = Interval(0.5, 2.0)
    worst = 0.0
    count = 0
    for i, f in enumerate(pool):
        for gsrc in (pool[(i + 1) % len(pool)], pool[(i + 3) % len(pool)]):
            rep = conjugation_classII(f, gsrc, d)
            worst = max(worst, abs(rep.product_residual), abs(rep.slope_residual))
            count += 1
    return _bound("conjugation-identities", g, worst, 1e-9, f"{count} monotone pairs")


_EXPR_CORPUS = (
    "x^3-2*x",
    "sin(x)*exp(x/2)",
    "ln(1+x^2)",
    "sqrt(x+2)",
    "tan(x/3)",
    "cosh(x)/x",
    "x^2.5",
    "exp(sin(x))",
    "1/(1+x)",
    "x*ln(x)",
)


def _check_derivatives() -> CheckResult:
    g = "properties"
    worst = 0.0
    worst_at = ""
    xs = np.linspace(0.4, 1.8, 9)
    for src in _EXPR_CORPUS:
        e = parse(src)
        de = as_scalar_fn(differentiate(e))
        fn = as_scalar_fn(e)
        for x in xs:
            h = 6e-6 * max(1.0, abs(x))
            fd = (fn(x + h) - fn(x - h)) / (2.0 * h)
            sym = de(float(x))
            r = abs(sym - fd) / max(1.0, abs(sym))
            if r > worst or math.isnan(r):  # a NaN (e undefined) stays the worst: the check fails
                worst, worst_at = r, f"{src!r} at x={x:.3f}"
    return _bound("derivative-finite-difference", g, worst, 1e-6, f"worst for {worst_at}")


def _group_properties() -> list[CheckResult]:
    out = []
    out += _guard("properties", "mean-stays-in-range", lambda: [_check_ivp()])
    out += _guard("properties", "scale-shift-invariance", lambda: [_check_scaleshift()])
    out += _guard("properties", "endpoint-symmetry", lambda: [_check_endpoint_symmetry()])
    out += _guard("properties", "monotone-dominance", lambda: [_check_dominance()])
    out += _guard("properties", "partition-limit-agreement", lambda: [_check_partition_limit()])
    out += _guard("properties", "conjugation-identities", lambda: [_check_conjugation()])
    out += _guard("properties", "derivative-finite-difference", lambda: [_check_derivatives()])
    return out


# ---------------------------------------------------------------------------
# undecidability
# ---------------------------------------------------------------------------


def _expect_undecided(name: str, f, window: Interval, left, right, scenario: str) -> CheckResult:
    g = "undecidability"
    s = make_scenario(f, window, left, right)
    v = compare_function_means(s)
    ok = s.scenario == scenario and not v.decided
    return _flag(name, g, ok, f"scenario={s.scenario}, {v}")


def _group_undecidability() -> list[CheckResult]:
    out = []
    w = Interval(0.5, 2.0)
    cubic = (generator_map("x^3", _POSITIVE), generator_map("y^3", _POSITIVE))
    ident = (generator_map("x", Interval(0.0, 3.0)), generator_map("y", Interval(0.0, 3.0)))
    # same-map pairs under a decreasing f: the criterion only covers
    # increasing f, so both ratio directions must come back Undecided
    out.append(_expect_undecided("paired-maps-decreasing-f-increasing-ratio", "1/x", w, cubic, ident, "ClassIII-pair"))
    out.append(_expect_undecided("paired-maps-decreasing-f-decreasing-ratio", "1/x", w, ident, cubic, "ClassIII-pair"))
    # swapped maps under an increasing f: the criterion only covers
    # decreasing f
    wide = Interval(0.05, 1.55)
    cs = (generator_map("cos(x)", wide), generator_map("sin(y)", wide))
    sc = (generator_map("sin(x)", wide), generator_map("cos(y)", wide))
    win = Interval(0.3, 1.2)
    out.append(_expect_undecided("swapped-maps-increasing-f-increasing-ratio", "x", win, cs, sc, "ExchangedDMs"))
    out.append(_expect_undecided("swapped-maps-increasing-f-decreasing-ratio", "x", win, sc, cs, "ExchangedDMs"))
    # general frames where the two ratio conditions point different ways
    out.append(
        _expect_undecided(
            "general-frames-no-criterion", "exp(x)", Interval(0.5, 1.5),
            (generator_map("x^2", _POSITIVE), generator_map("ln(y)", _POSITIVE)),
            (generator_map("x", Interval(0.0, 3.0)), generator_map("y", _POSITIVE)),
            "GeneralIV",
        )
    )
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_GROUP_BUILDERS: dict[str, Callable[[], list[CheckResult]]] = {
    "geometric": _group_geometric,
    "elastic": _group_elastic,
    "stolarsky": _group_stolarsky,
    "class-identities": _group_class_identities,
    "cauchy": _group_cauchy,
    "comparison": _group_comparison,
    "g-vs-e": _group_g_vs_e,
    "properties": _group_properties,
    "undecidability": _group_undecidability,
}

GROUPS = tuple(_GROUP_BUILDERS)


def run_checks(only: Optional[str] = None) -> list[CheckResult]:
    """Run all verification groups (or one of them) and return the results."""
    if only is None:
        names = GROUPS
    else:
        if only not in _GROUP_BUILDERS:
            raise PreconditionError(f"unknown check group {only!r}; pick one of {', '.join(GROUPS)}")
        names = (only,)
    results: list[CheckResult] = []
    for name in names:
        results.extend(_guard(name, "(group crashed)", _GROUP_BUILDERS[name]))
    return results


def report(results: list[CheckResult]) -> dict:
    """A JSON-ready summary of a check run."""
    failed = [c for c in results if not c.passed]
    return {
        "passed": not failed,
        "total": len(results),
        "failures": len(failed),
        "checks": [
            {
                "name": c.name,
                "group": c.group,
                "passed": bool(c.passed),
                "residual": float(c.residual),
                "tolerance": float(c.tolerance),
                "detail": c.detail,
            }
            for c in results
        ],
    }
