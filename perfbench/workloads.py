"""The four benchmark workloads: inputs from a seed, calls into isomean's
public API, and checks against the independent references in ``refs``.

A workload is a fixed list of operation kinds.  One *round* runs one
operation of every kind, in the listed order, on inputs drawn from
``random.Random(f"{workload}:{seed}:{round}")``; every round therefore has
the same make-up, and the inputs of round r are the same in every run with
the same seed.  Parameters are rounded to a few digits so that expression
strings stay short, and references are built from the very floats the
library receives.

Only ``isomean``'s public names are called, always as attributes of the
package (``iso.plain_mean``), so the traced mode can wrap them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import isomean as iso
from isomean import Interval

# Tolerances come from the accuracy each method states, not from observed
# output.  Quadrature targets a relative error of 1e-10 (``integrate``'s
# rel_tol); the mean passes through h⁻¹, so allow a hundredfold.
QUAD_REL = 1e-8
# endpoint_limit accepts a stage when successive values agree to 1e-8
# (raw), 1e-7 (noise floor) or extrapolants agree to 2e-6; allow tenfold.
STAGE_REL = {"raw": 1e-7, "noise-floor": 1e-6, "extrapolated": 2e-5}
# Inversions bisect to 1e-8 and Newton-polish to a 1e-12 residual; the
# fallback accepts a 1e-9 residual.
INVERT_REL = 1e-8
# Closed forms evaluated in floating point.
CLOSED_REL = 1e-10
# Independent differences smaller than this (relative) have no reliable sign.
SIGN_REL = 1e-12

POS = Interval(0.0, math.inf, lo_open=True)


def _u(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _window(rng, lo_range, width_range):
    a = _u(rng, *lo_range)
    return a, round(a + rng.uniform(*width_range), 4)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _near(name: str, value: float, ref, rel: float) -> list[str]:
    tol = rel * max(1.0, abs(float(ref)))
    if not (math.isfinite(value) and abs(value - float(ref)) <= tol):
        return [f"{name}: {value!r} differs from reference {float(ref)!r} by more than {tol:.1e}"]
    return []


def _in_hull(name: str, value: float, lo, hi, rel: float) -> list[str]:
    lo, hi = float(lo), float(hi)
    slack = rel * max(1.0, abs(value))
    if not (lo - slack <= value <= hi + slack):
        return [f"{name}: {value!r} lies outside the value hull [{lo!r}, {hi!r}]"]
    return []


def _mean_rel(kept) -> float:
    _, _, method, stage = kept
    if method == "quadrature+endpoint-limit":
        return STAGE_REL[stage]
    return QUAD_REL


def _keep_mean(r):
    return (r.value, r.abs_error_estimate, r.method, r.detail.get("stage"))


def _check_mean(name, kept, ref, hull) -> list[str]:
    rel = _mean_rel(kept)
    return _near(name, kept[0], ref, rel) + _in_hull(name, kept[0], hull[0], hull[1], rel)


def _sign_agrees(relation: str, diff, scale) -> bool:
    """Is the relation compatible with the sign of the exact difference?"""
    if abs(float(diff)) <= SIGN_REL * max(1.0, float(scale)):
        return True
    if relation in ("GE", "GT"):
        return diff > 0
    if relation in ("LE", "LT"):
        return diff < 0
    return False  # EQ with a resolvable gap


def _check_verdict(name, relation, left, right) -> list[str]:
    if relation == "Undecided":
        return [f"{name}: a criterion applies here, yet the verdict is Undecided"]
    if not _sign_agrees(relation, left - right, max(abs(left), abs(right))):
        return [f"{name}: verdict {relation} contradicts the reference difference {float(left - right)!r}"]
    return []


# ---------------------------------------------------------------------------
# operation kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One operation kind: how to draw inputs, call isomean, keep the
    result compactly, and check it."""

    name: str
    make: Callable[[random.Random], tuple]
    call: Callable[..., object]  # (ctx, *params) -> result
    check: Callable[..., list]  # (ctx, params, kept) -> problems
    keep: Callable[[object], object] = lambda r: r
    expect: Optional[str] = None  # name of the isomean error that is the right answer


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    # Rounds run even when --seconds has passed; peak RSS is read after
    # exactly this many rounds so that it reflects a fixed amount of work.
    min_rounds: int
    # Rounds in a traced run (fixed, so that the per-layer counts repeat).
    trace_rounds: int
    warmup: tuple = field(default=())  # (kind name, params) pairs
    context: Callable[[], dict] = dict

    def round_ops(self, seed: int, r: int):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        return [(k, k.make(rng)) for k in self.kinds]

    def warmup_ops(self):
        by_name = {k.name: k for k in self.kinds}
        return [(by_name[n], p) for n, p in self.warmup]

    @property
    def tail_pct(self) -> float:
        """The highest percentile with ten samples beyond it, at the
        minimum sample count (minimum rounds × timed operations per round;
        an operation whose right answer is an error is never timed); fixed
        per workload, so every run reports the same one."""
        n = self.min_rounds * sum(1 for k in self.kinds if k.expect is None)
        return 100.0 * (1.0 - 10.0 / n)


def _drawn_warmup(workload: str, kinds) -> tuple:
    """One operation of every kind, on inputs no timed round uses."""
    return tuple((k.name, k.make(random.Random(f"{workload}:warmup:{k.name}"))) for k in kinds)


# -- proper_means ------------------------------------------------------------


def _proper(name, call, make=None):
    def default_make(rng):
        return _window(rng, (0.5, 1.5), (0.6, 2.0))

    def check(ctx, params, kept):
        ref = _refs().proper(name, *params)
        return _check_mean(name, kept, ref, _refs().proper_hull(name, params[0], params[1]))

    return Kind(name, make or default_make, call, check, keep=_keep_mean)


_PROPER_KINDS = (
    _proper("class_I", lambda c, a, b: iso.class_I_mean("exp(x)", Interval(a, b), "x^2")),
    _proper("class_II", lambda c, a, b: iso.class_II_mean("sin(x)", Interval(a, b), "x^2")),
    _proper("class_III", lambda c, a, b: iso.class_III_mean("exp(x)", Interval(a, b), "x^2")),
    _proper("class_IV", lambda c, a, b: iso.class_IV_mean("exp(x)", Interval(a, b), "x^2", "ln(x)")),
    # The frame is built once, on (0, inf): class_V_mean("ln(x)", "x^2", a, b)
    # builds h on [a, b] itself and then fails on about 1 window in 100
    # (NotBondedError: the sampled hull of x overshoots b by one ulp).
    _proper("class_V", lambda c, a, b: iso.class_V_mean(c["ln(x)"], c["x^2"], a, b)),
    _proper("class_VI", lambda c, a, b: iso.class_VI_mean("1/(1+x^2)", Interval(a, b))),
    _proper("class_VII", lambda c, a, b: iso.class_VII_mean("exp(x)", Interval(a, b))),
    _proper("geometric", lambda c, a, b: iso.geometric_mean("x^2+1", Interval(a, b))),
    _proper("harmonic", lambda c, a, b: iso.harmonic_mean("exp(x)", Interval(a, b))),
    _proper(
        "power",
        lambda c, a, b, p: iso.power_integral_mean("x", Interval(a, b), p),
        make=lambda rng: _window(rng, (0.5, 1.5), (0.6, 2.0)) + (rng.choice((1.5, 2.0, 2.5, 3.0)),),
    ),
    _proper("elastic_ln", lambda c, a, b: iso.elastic_mean("ln(x)", Interval(a, b))),
    _proper("elastic_sq", lambda c, a, b: iso.elastic_mean("x^2", Interval(a, b))),
    _proper("plain", lambda c, a, b: iso.plain_mean("sin(x)", Interval(a, b))),
)


def _proper_context():
    return {src: iso.generator_map(src, POS) for src in ("ln(x)", "x^2")}


PROPER = Workload(
    name="proper_means",
    kinds=_PROPER_KINDS,
    min_rounds=150,
    trace_rounds=100,
    warmup=_drawn_warmup("proper_means", _PROPER_KINDS),
    context=_proper_context,
)


# -- improper_means ----------------------------------------------------------


def _scale(rng):
    return (_u(rng, 0.5, 2.0),)


def _improper(name, call, make=_scale):
    def check(ctx, params, kept):
        ref, hull = _refs().improper(name, params[0])
        return _check_mean(name, kept, ref, hull)

    return Kind(name, make, call, check, keep=_keep_mean)


def _open_lo(s):
    return Interval(0.0, s, lo_open=True)


_TAN_WINDOW = Interval(0.0, math.pi / 2, lo_open=True, hi_open=True)


def _check_divergent(ctx, params, kept):
    return [] if kept == "DivergentIntegralError" else [f"div_x: expected divergence, got {kept!r}"]


IMPROPER = Workload(
    name="improper_means",
    kinds=(
        _improper("geo_sin", lambda c, s: iso.geometric_mean(f"{s!r}*sin(x)", Interval(0.0, math.pi))),
        _improper("ln", lambda c, s: iso.plain_mean("ln(x)", _open_lo(s))),
        _improper("rsqrt", lambda c, s: iso.plain_mean("1/sqrt(x)", _open_lo(s))),
        _improper("geo_x", lambda c, s: iso.geometric_mean("x", Interval(0.0, s))),
        _improper("ln_sq", lambda c, s: iso.plain_mean("ln(x)^2", _open_lo(s))),
        _improper("elastic_tan", lambda c, s: iso.elastic_mean(f"{s!r}*tan(x)", _TAN_WINDOW)),
        _improper(
            "sin_recip_far",
            lambda c, s: iso.plain_mean("sin(1/x)", Interval(s, 1.0)),
            make=lambda rng: (round(0.05 * rng.uniform(1.0, 1.1), 6),),
        ),
        _improper(
            "sin_recip_near",
            lambda c, s: iso.plain_mean("sin(1/x)", Interval(s, 1.0)),
            make=lambda rng: (round(0.01 * rng.uniform(1.0, 1.1), 6),),
        ),
        _improper(
            "ln_sin",
            lambda c, s: iso.plain_mean(
                f"ln({s!r}*sin(x))", Interval(0.0, math.pi, lo_open=True, hi_open=True)
            ),
        ),
        _improper("geo_tan", lambda c, s: iso.geometric_mean(f"{s!r}*tan(x)", _TAN_WINDOW)),
        _improper("sqrt", lambda c, s: iso.plain_mean("sqrt(x)", Interval(0.0, s))),
        # The mean of 1/x over (0, 1] diverges.  The inputs are fixed: this
        # operation has one right answer, a DivergentIntegralError.
        Kind(
            "div_x",
            lambda rng: (),
            lambda c: iso.plain_mean("1/x", _open_lo(1.0)),
            _check_divergent,
            expect="DivergentIntegralError",
        ),
    ),
    min_rounds=4,
    trace_rounds=2,
    warmup=(
        ("ln", (1.0,)),
        ("ln_sq", (1.0,)),
        ("sin_recip_far", (0.2,)),
        ("geo_tan", (1.0,)),
        ("sqrt", (1.0,)),
    ),
)


# -- verdicts ----------------------------------------------------------------


def _gm(src, dom):
    return iso.generator_map(src, dom)


def _scenario(kind, a, b, p=None, q=None):
    """Build maps and scenario for one comparison kind (timed: part of the
    operation a caller performs)."""
    w = Interval(a, b)
    if kind == "ClassI":
        base = Interval(a - 0.5, b + 0.5)
        val = Interval(0.5 * math.exp(a), 2.0 * math.exp(b))
        left = (_gm("x", base), _gm("y^2", val))
        right = (_gm("x", base), _gm("y", val))
        return iso.make_scenario("exp(x)", w, left, right)
    if kind == "ClassII":
        val = Interval(0.0, 4.0)
        left = (_gm("x^2", POS), _gm("y", val))
        right = (_gm("x", val), _gm("y", val))
        return iso.make_scenario("x", w, left, right)
    if kind == "ClassIII-pair":
        left = (_gm(f"x^{p!r}", POS), _gm(f"y^{p!r}", POS))
        right = (_gm(f"x^{q!r}", POS), _gm(f"y^{q!r}", POS))
        return iso.make_scenario("x", w, left, right)
    if kind == "ExchangedDMs":
        wide = Interval(0.05, 1.55)
        left = (_gm("cos(x)", wide), _gm("sin(y)", wide))
        right = (_gm("sin(x)", wide), _gm("cos(y)", wide))
        return iso.make_scenario("pi/2-x", w, left, right)
    if kind == "SameIVDM":
        left = (_gm("x^2", POS), _gm("y^2", POS))
        right = (_gm("x^2", POS), _gm("y", Interval(0.0, 9.0)))
        return iso.make_scenario("exp(x)", w, left, right)
    if kind == "SamePVDM":
        left = (_gm("x^2", POS), _gm("y^2", POS))
        right = (_gm("x", Interval(0.0, 3.0)), _gm("y^2", POS))
        return iso.make_scenario("exp(x)", w, left, right)
    if kind == "ClassV":
        left = (_gm("ln(x)", POS), _gm("y", Interval(0.0, 4.0)))
        right = (_gm("x^2", POS), _gm("y^3", POS))
        return iso.make_scenario("x", w, left, right)
    if kind == "GeneralIV":
        left = (_gm("x^2", POS), _gm("y^3", POS))
        right = (_gm("x", Interval(0.0, 3.0)), _gm("ln(y)", POS))
        return iso.make_scenario("exp(x)", w, left, right)
    raise KeyError(kind)


_SCENARIO_WINDOWS = {
    "ClassI": ((0.0, 0.5), (0.5, 1.0)),
    "ClassII": ((1.0, 1.5), (0.5, 1.0)),
    "ClassIII-pair": ((0.5, 1.5), (0.5, 1.5)),
    "ExchangedDMs": ((0.2, 0.4), (0.7, 0.9)),
    "SameIVDM": ((0.3, 0.7), (0.6, 1.0)),
    "SamePVDM": ((0.3, 0.7), (0.6, 1.0)),
    "ClassV": ((1.0, 1.5), (0.5, 1.5)),
    "GeneralIV": ((0.3, 0.7), (0.6, 1.0)),
}


def _keep_verdict(v):
    num = v.evidence.get("numeric", {})
    return (v.relation, num.get("left"), num.get("right"))


def _verdict_kind(scenario):
    lo_range, width_range = _SCENARIO_WINDOWS[scenario]

    def make(rng):
        a, b = _window(rng, lo_range, width_range)
        if scenario == "ClassIII-pair":
            return a, b, _u(rng, 2.5, 4.0, 3), _u(rng, 1.2, 2.2, 3)
        return a, b

    def call(ctx, *params):
        return iso.compare_function_means(_scenario(scenario, *params))

    def check(ctx, params, kept):
        relation, left, right = kept
        ref_l, ref_r = _refs().verdict_means(scenario, *params)
        return (
            _check_verdict(scenario, relation, ref_l, ref_r)
            + _near(f"{scenario} left", left, ref_l, QUAD_REL)
            + _near(f"{scenario} right", right, ref_r, QUAD_REL)
        )

    return Kind(scenario, make, call, check, keep=_keep_verdict)


def _number_kind(name):
    def make(rng):
        a, b = _window(rng, (0.5, 1.5), (0.5, 1.5))
        xs = tuple(_u(rng, a, b) for _ in range(5))
        if name == "power_pair":
            return a, b, xs, _u(rng, 2.5, 4.0, 3), _u(rng, 1.2, 2.2, 3)
        return a, b, xs, None, None

    def call(ctx, a, b, xs, p, q):
        if name == "power_pair":
            g, h = _gm(f"x^{p!r}", POS), _gm(f"x^{q!r}", POS)
        else:
            g, h = _gm("exp(x)", Interval(-1.0, 5.0)), _gm("x", Interval(-1.0, 5.0))
        return iso.compare_number_means(g, h, Interval(a, b))

    def check(ctx, params, kept):
        a, b, xs, p, q = params
        g_mean, h_mean = _refs().number_means(name, xs, p, q)
        # The verdict speaks of every tuple in the window; test it on one.
        return _check_verdict(name, kept.relation, g_mean, h_mean)

    return Kind(name, make, call, check)


def _ge_row_make(rng):
    a, b = _window(rng, (0.5, 1.5), (0.5, 3.0))
    ps = tuple(round(-3.0 + 6.0 * (i + rng.uniform(0.1, 0.9)) / 32, 4) for i in range(32))
    return a, b, ps


def _ge_row_check(ctx, params, kept):
    a, b, ps = params
    out = []
    for p, relation, (g, e) in zip(ps, kept, _refs().geometric_vs_elastic_row(a, b, ps)):
        out += _check_verdict(f"compare_G_E p={p}", relation, g, e)
    return out


def _losonczi_kind(name):
    def make(rng):
        if name == "losonczi_necessary":
            a = _u(rng, 0.5, 3.0)
            return a, round(a * (1.0 + rng.uniform(0.002, 0.009)), 6)
        return _window(rng, (0.5, 1.5), (0.5, 1.5))

    def call(ctx, a, b):
        fn = getattr(iso, name)
        return fn("x", "x", "y^3", "x", "y^2", Interval(a, b))

    def check(ctx, params, kept):
        left, right = _refs().verdict_means("power_integral", *params)
        return _check_verdict(name, kept.relation, left, right)

    return Kind(name, make, call, check)


# Sums of terms whose curvature sign is known on x > 0: x^2 e^x, ln(1+e^x)
# and x ln x are strictly convex there; ln x, sqrt(x) and -e^x strictly concave.
_CURVATURE = {
    "convexity_convex": ("x^2*exp(x)+ln(1+exp(x))+x*ln(x)", ("StrictlyConvex", "Convex")),
    "convexity_concave": ("ln(x)+sqrt(x)-exp(x)", ("StrictlyConcave", "Concave")),
}


def _curvature_kind(name):
    text, accepted = _CURVATURE[name]

    def call(ctx, a, b):
        return iso.classify_convexity(iso.parse(text), Interval(a, b))

    def check(ctx, params, kept):
        if kept in accepted:
            return []
        return [f"{name}: {text} on {params} classified {kept}, expected one of {accepted}"]

    return Kind(
        name, lambda rng: _window(rng, (0.5, 1.5), (0.5, 2.0)), call, check, keep=lambda c: c.kind
    )


_VERDICT_KINDS = tuple(_verdict_kind(s) for s in _SCENARIO_WINDOWS) + (
    _number_kind("power_pair"),
    _number_kind("exp_vs_x"),
    # compare_G_E takes microseconds: one operation is a row of 32 exponents.
    Kind(
        "compare_G_E_row",
        _ge_row_make,
        lambda c, a, b, ps: [iso.compare_G_E(a, b, p).relation for p in ps],
        _ge_row_check,
    ),
    _losonczi_kind("losonczi_necessary"),
    _losonczi_kind("losonczi_sufficient"),
    _curvature_kind("convexity_convex"),
    _curvature_kind("convexity_concave"),
)

VERDICTS = Workload(
    name="verdicts",
    kinds=_VERDICT_KINDS,
    min_rounds=100,
    trace_rounds=40,
    warmup=_drawn_warmup("verdicts", _VERDICT_KINDS),
)


# -- bivariate ---------------------------------------------------------------


def _bivariate_context():
    """Number-mean maps without a closed-form inverse, built once."""
    dom = Interval(0.0, 5.0)
    return {
        "x+exp(x)": iso.generator_map("x+exp(x)", dom),
        "x^3+x": iso.generator_map("x^3+x", dom),
    }


def _bi_window(rng):
    return _window(rng, (1.0, 1.5), (0.6, 1.5))


def _bi_scalar(name, call, rel=INVERT_REL, keep=lambda r: r):
    def check(ctx, params, kept):
        a, b = params
        ref = _refs().bivariate(name, a, b)
        return _near(name, kept, ref, rel) + _in_hull(name, kept, a, b, rel)

    return Kind(name, _bi_window, call, check, keep=keep)


def _bi_mean(name, call, hull=lambda a, b: (a, b)):
    def check(ctx, params, kept):
        a, b = params
        return _check_mean(name, kept, _refs().bivariate(name, a, b), hull(a, b))

    return Kind(name, _bi_window, call, check, keep=_keep_mean)


def _round_trip(name, gmap, us) -> list[str]:
    """g(g⁻¹(u)) ≈ u, to the inversion's residual tolerance."""
    out = []
    for u in us:
        back = gmap(gmap.invert(u))
        if not abs(back - u) <= 1e-9 * max(1.0, abs(u)):
            out.append(f"{name}: g(g^-1({u!r})) = {back!r}")
    return out


def _check_cauchy_to_classV(ctx, params, kept):
    a, b = params
    hm, residual = kept
    ref = _refs().bivariate("cauchy_to_classV", a, b)
    secant = (math.exp(b) - math.exp(a)) / (b * b - a * a)
    return _near("cauchy_to_classV residual", residual, 0.0, INVERT_REL) + _near(
        "cauchy_to_classV value", hm.invert(secant), ref, INVERT_REL
    )


def _check_classV_to_cauchy(ctx, params, kept):
    a, b = params
    L, residual = kept
    ref = _refs().bivariate("classV_to_cauchy", a, b)
    rel = max(QUAD_REL, L.abs_error_estimate / max(1.0, abs(float(ref))))
    return _near("classV_to_cauchy residual", residual, 0.0, INVERT_REL) + _near(
        "classV_to_cauchy integral", L(b) - L(a), ref, rel
    )


def _iso_kind(name, map_key, inverse):
    def make(rng):
        a, b = _bi_window(rng)
        return (tuple(_u(rng, a, b) for _ in range(5)),)

    def call(ctx, xs):
        return iso.iso_mean(xs, ctx[map_key])

    def check(ctx, params, kept):
        (xs,) = params
        forward = {
            "x+exp(x)": lambda x: x + _refs().M.exp(x),
            "x^3+x": lambda x: x**3 + x,
        }[map_key]
        u = _refs().M.fsum(forward(_refs().F(x)) for x in xs) / len(xs)
        return (
            _near(name, kept, inverse(u), INVERT_REL)
            + _in_hull(name, kept, min(xs), max(xs), INVERT_REL)
            + _round_trip(name, ctx[map_key], (float(u),))
        )

    return Kind(name, make, call, check)


def _stolarsky_make(rng):
    a, b = _bi_window(rng)
    # Keep p away from the q grid so that no generic case sits next to a
    # degenerate line, where the closed form loses digits.
    p = round(0.25 * rng.randint(2, 11) + rng.uniform(0.05, 0.2), 4)
    qs = tuple(-3.0 + 0.5 * k for k in range(13)) + (p, -p)
    return a, b, p, qs


def _stolarsky_call(ctx, a, b, p, qs):
    return [iso.quasi_stolarsky(iso.QuasiStolarskyParams(p, q, a, b)) for q in qs]


def _stolarsky_check(ctx, params, kept):
    a, b, p, qs = params
    out = []
    for q, v, ref in zip(qs, kept, _refs().stolarsky_row(p, qs, a, b)):
        name = f"quasi_stolarsky p={p} q={q}"
        out += _near(name, v, ref, CLOSED_REL)
        out += _in_hull(name, v, a, b, CLOSED_REL)
    return out


_BIVARIATE_KINDS = (
    _bi_mean("classV_xexp_cubic", lambda c, a, b: iso.class_V_mean("x+exp(x)", "x^3+x", a, b)),
    _bi_mean("classV_cubic_xexp", lambda c, a, b: iso.class_V_mean("x^3+x", "x+exp(x)", a, b)),
    _bi_scalar("classV_cubic_ln", lambda c, a, b: iso.classV_bivariate("x^3+x", "ln(x)", a, b), QUAD_REL),
    _bi_scalar("cauchy_cubic", lambda c, a, b: iso.cauchy_mean_value("x^4/4+x^2/2", "x", a, b)),
    _bi_scalar(
        "cauchy_xexp",
        lambda c, a, b: iso.cauchy_mean_report("exp(x)+x^2/2", "x", a, b),
        keep=lambda r: r.value,
    ),
    Kind(
        "cauchy_to_classV",
        _bi_window,
        lambda c, a, b: iso.cauchy_to_classV("exp(x)", "x^2", Interval(a, b)),
        _check_cauchy_to_classV,
    ),
    Kind(
        "classV_to_cauchy",
        _bi_window,
        lambda c, a, b: iso.classV_to_cauchy("x+exp(x)", "x^3+x", None, Interval(a, b)),
        _check_classV_to_cauchy,
    ),
    _iso_kind("iso_mean_xexp", "x+exp(x)", lambda u: _refs().x_plus_exp_inverse(u)),
    _iso_kind("iso_mean_cubic", "x^3+x", lambda u: _refs().cubic_plus_x_inverse(u)),
    _bi_mean(
        "first_mvt",
        lambda c, a, b: iso.first_mvt_mean("exp(x)", "x^2", Interval(a, b)),
        hull=lambda a, b: (math.exp(a), math.exp(b)),
    ),
    # quasi_stolarsky takes microseconds: one operation is a sweep row.
    Kind("stolarsky_row", _stolarsky_make, _stolarsky_call, _stolarsky_check),
)

BIVARIATE = Workload(
    name="bivariate",
    kinds=_BIVARIATE_KINDS,
    min_rounds=100,
    trace_rounds=80,
    warmup=_drawn_warmup("bivariate", _BIVARIATE_KINDS),
    context=_bivariate_context,
)

WORKLOADS = {w.name: w for w in (PROPER, IMPROPER, VERDICTS, BIVARIATE)}


def _refs():
    # Imported on first use: references are computed after the timed part,
    # and mpmath is kept out of the set-up time.
    import refs

    return refs
