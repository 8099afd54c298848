"""Command-line front end.

Subcommands
-----------
``mean``
    Compute a mean of a function over a window, picking the frame by class
    name (``I``..``VII``, ``geometric``, ``harmonic``, ``elastic``,
    ``power:p``).
``compare``
    Order two means.  With ``--f`` it compares two frames applied to the
    same function; without it, the quasi-arithmetic number means generated
    by ``--g`` and ``--h`` over the window.
``stolarsky``
    Evaluate the two-parameter power-map bivariate mean ``Q_{p,q}(a, b)``,
    finite on and near its degenerate parameter lines.
``cauchy``
    Evaluate a Cauchy mean value, with an invertibility report for the
    derivative ratio.
``sweep``
    Evaluate a target quantity over a parameter grid, to CSV/JSON.
``verify``
    Run the built-in verification suite (optionally one group).

Exit codes
----------
0 success; 1 verification failure, a comparison whose numeric cross-check
contradicts the criterion, or a computed mean that escaped its value hull;
2 expression syntax error; 3 precondition, domain, weight or inversion
error; 4 undecided comparison under ``--require-verdict``; 5 divergent
integral; 64 usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ._errors import (
    ComparisonContradiction,
    DivergentIntegralError,
    DomainError,
    ExprSyntaxError,
    InversionError,
    IsomeanError,
    NonMonotoneError,
    NotBondedError,
    PreconditionError,
    WeightError,
)
from .bivariate import QuasiStolarskyParams, cauchy_mean_report, quasi_stolarsky, sigma_GE
from .compare import compare_function_means, make_scenario
from .expr import depends_on_var
from .frame import estimate_range_hull, generator_map
from .funmean import MEAN_CLASSES
from .intervals import Interval
from .nummean import compare_number_means
from .parse import parse
from .verify import GROUPS, report, run_checks

_USAGE_EXIT = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 64, not 2."""

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple


@dataclass(frozen=True)
class RunSpec:
    """A validated invocation: expressions parsed, numbers coerced."""

    subcommand: str
    exprs: dict = field(default_factory=dict)  # name -> (source, Expr)
    a: Optional[float] = None
    b: Optional[float] = None
    params: dict = field(default_factory=dict)
    fmt: str = "plain"
    tol: Optional[float] = None
    require_verdict: bool = False
    only: Optional[str] = None
    sweeps: tuple = ()
    mean_class: Optional[str] = None
    power: Optional[float] = None
    open_a: bool = False
    open_b: bool = False
    map_window: Optional[Interval] = None
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fmt not in ("json", "csv", "plain"):
            raise _UsageError(f"unknown format {self.fmt!r}")
        if self.tol is not None and self.tol < 1e-14:
            raise _UsageError(f"--tol must be at least 1e-14, got {self.tol!r}")


def _const_value(src: str, what: str) -> float:
    """Evaluate an endpoint/parameter expression like ``pi/2`` or ``0.3``."""
    e = parse(src)
    if depends_on_var(e):
        raise ExprSyntaxError(f"{what} must be a constant expression, got {src!r}", 0)
    return float(e(0.0))


def _window(spec: RunSpec) -> Interval:
    if spec.a is None or spec.b is None:
        raise _UsageError("--a and --b are required")
    ends = sorted(((spec.a, spec.open_a), (spec.b, spec.open_b)))
    return Interval(ends[0][0], ends[1][0], lo_open=ends[0][1], hi_open=ends[1][1])


def _expr(spec: RunSpec, name: str, required: bool = True) -> Optional[str]:
    if name not in spec.exprs:
        if required:
            raise _UsageError(f"--{name} is required for this invocation")
        return None
    return spec.exprs[name][0]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit_record(spec: RunSpec, record: dict, order: Sequence[str]) -> None:
    """Print one result record in the requested format."""
    if spec.fmt == "json":
        print(json.dumps({k: record.get(k) for k in order}, indent=2))
    elif spec.fmt == "csv":
        _emit_rows(spec, order, [record])
    else:
        for k in order:
            v = record.get(k)
            if v is None:
                continue
            print(f"{k} = {_plain_cell(v)}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _plain_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_rows(spec: RunSpec, header: Sequence[str], rows: list) -> None:
    if spec.fmt == "json":
        print(json.dumps([{k: r.get(k) for k in header} for r in rows], indent=2))
    elif spec.fmt == "plain":
        for r in rows:
            print("  ".join(f"{k}={_plain_cell(r.get(k))}" for k in header))
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_csv_cell(r.get(k)) for k in header])


def _check_tol(spec: RunSpec, err: float) -> None:
    if spec.tol is not None and err > spec.tol:
        raise PreconditionError(
            f"quadrature error estimate {err!r} exceeds the requested --tol {spec.tol!r}"
        )


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------


def _class_mean(spec: RunSpec, d: Interval):
    """The mean of ``spec.mean_class`` over d, reading its inputs from spec."""
    return MEAN_CLASSES[spec.mean_class](
        d, lambda name: spec.power if name == "p" else _expr(spec, name)
    )


def _class_label(spec: RunSpec) -> str:
    return spec.mean_class if spec.mean_class != "power" else f"power:{spec.power!r}"


def cmd_mean(spec: RunSpec) -> int:
    r = _class_mean(spec, _window(spec))
    _check_tol(spec, r.abs_error_estimate)
    record = {
        "class": _class_label(spec),
        "f": _expr(spec, "f", required=False) or "x",
        "g": _expr(spec, "g", required=False),
        "h": _expr(spec, "h", required=False),
        "a": spec.a,
        "b": spec.b,
        "value": r.value,
        "err": r.abs_error_estimate,
        "method": r.method,
    }
    _emit_record(spec, record, ["class", "f", "g", "h", "a", "b", "value", "err", "method"])
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _padded_hull(fe, d: Interval) -> Interval:
    hull = estimate_range_hull(fe, d)
    pad = 0.05 * (hull.hi - hull.lo) if not hull.degenerate else 1e-3 * max(1.0, abs(hull.lo))
    return Interval(hull.lo - pad, hull.hi + pad)


def cmd_compare(spec: RunSpec) -> int:
    d = _window(spec)
    if "f" in spec.exprs:
        f = spec.exprs["f"][1]
        gsrc = _expr(spec, "g", required=False) or "x"
        hsrc = _expr(spec, "h", required=False) or "y"
        Gsrc = _expr(spec, "G", required=False) or "x"
        Hsrc = _expr(spec, "H", required=False) or "y"
        if spec.map_window is not None:
            base_win = value_win = spec.map_window
        else:
            base_win = d
            value_win = _padded_hull(f, d)
        left = (generator_map(gsrc, base_win), generator_map(hsrc, value_win))
        right = (generator_map(Gsrc, base_win), generator_map(Hsrc, value_win))
        s = make_scenario(f, d, left, right)
        v = compare_function_means(s)
        num = v.evidence.get("numeric", {})
        record = {
            "mode": "functions",
            "f": spec.exprs["f"][0],
            "g": gsrc,
            "h": hsrc,
            "G": Gsrc,
            "H": Hsrc,
            "a": spec.a,
            "b": spec.b,
            "scenario": s.scenario,
            "verdict": v.relation,
            "justification": v.justification,
            "left": num.get("left"),
            "right": num.get("right"),
            "difference": num.get("difference"),
            "budget": num.get("budget"),
        }
        order = ["mode", "f", "g", "h", "G", "H", "a", "b", "scenario", "verdict",
                 "justification", "left", "right", "difference", "budget"]
    else:
        gsrc = _expr(spec, "g")
        hsrc = _expr(spec, "h")
        gm = generator_map(gsrc, d)
        hm = generator_map(hsrc, d)
        v = compare_number_means(gm, hm, d)
        record = {
            "mode": "numbers",
            "g": gsrc,
            "h": hsrc,
            "a": spec.a,
            "b": spec.b,
            "verdict": v.relation,
            "justification": v.justification,
        }
        order = ["mode", "g", "h", "a", "b", "verdict", "justification"]
    _emit_record(spec, record, order)
    if spec.require_verdict and record["verdict"] == "Undecided":
        return 4
    return 0


# ---------------------------------------------------------------------------
# stolarsky / cauchy
# ---------------------------------------------------------------------------


def cmd_stolarsky(spec: RunSpec) -> int:
    for k in ("p", "q"):
        if k not in spec.params:
            raise _UsageError(f"--{k} is required")
    if spec.a is None or spec.b is None:
        raise _UsageError("--a and --b are required")
    params = QuasiStolarskyParams(spec.params["p"], spec.params["q"], spec.a, spec.b)
    record = {"p": params.p, "q": params.q, "a": params.a, "b": params.b, "value": quasi_stolarsky(params)}
    _emit_record(spec, record, ["p", "q", "a", "b", "value"])
    return 0


def cmd_cauchy(spec: RunSpec) -> int:
    f = _expr(spec, "f")
    g = _expr(spec, "g")
    if spec.a is None or spec.b is None:
        raise _UsageError("--a and --b are required")
    rep = cauchy_mean_report(f, g, spec.a, spec.b)
    record = {
        "f": f,
        "g": g,
        "a": spec.a,
        "b": spec.b,
        "value": rep.value,
        "secant": rep.secant,
        "ratio_monotonicity": rep.ratio_monotonicity,
        "inverse_strategy": rep.inverse_strategy,
    }
    _emit_record(
        spec, record,
        ["f", "g", "a", "b", "value", "secant", "ratio_monotonicity", "inverse_strategy"],
    )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_AXES = {
    "sigma_ge": ("r", "p"),
    "stolarsky": ("p", "q", "pq", "a", "b"),
    "mean": ("a", "b"),
}


def _parse_sweep(text: str) -> SweepAxis:
    try:
        name, rest = text.split("=", 1)
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
        log = len(parts) == 4 and parts[3] == "log"
        if len(parts) == 4 and not log:
            raise ValueError
    except ValueError:
        raise _UsageError(f"bad --sweep {text!r}; expected name=lo:hi:count[:log]") from None
    if count < 0:
        raise _UsageError("sweep count must be non-negative")
    if count == 0:
        values: tuple = ()
    elif count == 1:
        values = (lo,)
    elif log:
        if lo <= 0 or hi <= 0:
            raise _UsageError("log-spaced sweeps need positive bounds")
        step = (math.log(hi) - math.log(lo)) / (count - 1)
        values = tuple(math.exp(math.log(lo) + i * step) for i in range(count))
    else:
        step = (hi - lo) / (count - 1)
        values = tuple(lo + i * step for i in range(count))
    return SweepAxis(name.strip(), values)


def _grid(axes: Sequence[SweepAxis]) -> list:
    """Row-major product of axis values; the last axis varies fastest."""
    points = [dict()]
    for ax in axes:
        points = [dict(pt, **{ax.name: v}) for pt in points for v in ax.values]
    return points


def cmd_sweep(spec: RunSpec) -> int:
    if spec.target not in _SWEEP_AXES:
        raise _UsageError("--target must be one of sigma_ge, stolarsky, mean")
    if not spec.sweeps:
        raise _UsageError("at least one --sweep axis is required")
    if spec.tol is not None and spec.target != "mean":
        raise _UsageError(f"--tol needs an error estimate, and {spec.target} rows carry none")
    allowed = _SWEEP_AXES[spec.target]
    for ax in spec.sweeps:
        if ax.name not in allowed:
            raise _UsageError(
                f"axis {ax.name!r} not valid for target {spec.target}; allowed: {', '.join(allowed)}"
            )
    rows = []
    if spec.target == "sigma_ge":
        header = ["r", "p", "sigma_ge"]
        for pt in _grid(spec.sweeps):
            r = pt.get("r", spec.params.get("r"))
            p = pt.get("p", spec.params.get("p"))
            if r is None or p is None:
                raise _UsageError("sigma_ge needs r and p, each swept or fixed (--r/--p)")
            rows.append({"r": r, "p": p, "sigma_ge": sigma_GE(r, p)})
    elif spec.target == "stolarsky":
        header = ["p", "q", "a", "b", "value"]
        for pt in _grid(spec.sweeps):
            pq = pt.get("pq")
            p = pq if pq is not None else pt.get("p", spec.params.get("p"))
            q = pq if pq is not None else pt.get("q", spec.params.get("q"))
            a = pt.get("a", spec.a)
            b = pt.get("b", spec.b)
            if None in (p, q, a, b):
                raise _UsageError("stolarsky needs p, q, a, b, each swept or fixed")
            value = quasi_stolarsky(QuasiStolarskyParams(p, q, a, b))
            rows.append({"p": p, "q": q, "a": a, "b": b, "value": value})
    else:
        header = ["class", "f", "a", "b", "value", "err", "method"]
        if spec.mean_class is None:
            raise _UsageError("--class is required for mean sweeps")
        label, fsrc = _class_label(spec), _expr(spec, "f", required=False) or "x"
        for pt in _grid(spec.sweeps):
            a = pt.get("a", spec.a)
            b = pt.get("b", spec.b)
            if a is None or b is None:
                raise _UsageError("mean sweeps need a and b, each swept or fixed")
            r = _class_mean(spec, _window(replace(spec, a=a, b=b)))
            _check_tol(spec, r.abs_error_estimate)
            rows.append(
                {"class": label, "f": fsrc, "a": a, "b": b, "value": r.value,
                 "err": r.abs_error_estimate, "method": r.method}
            )
    _emit_rows(spec, header, rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(spec: RunSpec) -> int:
    if spec.only is not None and spec.only not in GROUPS:
        raise _UsageError(f"unknown group {spec.only!r}; pick one of {', '.join(GROUPS)}")
    results = run_checks(spec.only)
    rep = report(results)
    if spec.fmt == "json":
        print(json.dumps(rep, indent=2))
    elif spec.fmt == "csv":
        _emit_rows(spec, ["name", "group", "passed", "residual", "tolerance", "detail"], rep["checks"])
    else:
        for c in results:
            print(c.line())
        n, k = rep["total"], rep["failures"]
        print(f"{'PASSED' if rep['passed'] else 'FAILED'}: {n - k}/{n} checks")
    return 0 if rep["passed"] else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="isomean", description="Means of functions under coordinate-wise monotone changes of frame.")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def common(p, exprs=(), tol=False):
        for name in exprs:
            p.add_argument(f"--{name}", dest=f"expr_{name}", metavar="EXPR")
        p.add_argument("--a", metavar="NUM")
        p.add_argument("--b", metavar="NUM")
        p.add_argument("--format", default="plain", metavar="FMT", help="json, csv or plain")
        if tol:
            p.add_argument("--tol", metavar="NUM", help="largest acceptable abs-error estimate (>= 1e-14)")

    p = subs.add_parser("mean", help="mean of a function over a window")
    p.add_argument("--class", dest="mean_class", required=True, metavar="CLASS",
                   help="I..VII, geometric, harmonic, elastic, or power:p")
    common(p, exprs=("f", "g", "h"), tol=True)
    p.add_argument("--open-a", action="store_true", help="treat endpoint a as excluded")
    p.add_argument("--open-b", action="store_true", help="treat endpoint b as excluded")

    p = subs.add_parser("compare", help="order two means")
    common(p, exprs=("f", "g", "h", "G", "H"))
    p.add_argument("--require-verdict", action="store_true",
                   help="exit 4 when the comparison is Undecided")
    p.add_argument("--map-window", metavar="LO:HI",
                   help="build all four maps on this window instead of the defaults")

    p = subs.add_parser("stolarsky", help="two-parameter power-map bivariate mean")
    p.add_argument("--p", metavar="NUM", required=True)
    p.add_argument("--q", metavar="NUM", required=True)
    common(p)

    p = subs.add_parser("cauchy", help="Cauchy mean value of a pair of functions")
    common(p, exprs=("f", "g"))

    p = subs.add_parser("sweep", help="evaluate a target over a parameter grid")
    p.add_argument("--target", required=True, metavar="TARGET",
                   help="sigma_ge, stolarsky or mean")
    p.add_argument("--sweep", action="append", default=[], metavar="AXIS",
                   help="name=lo:hi:count[:log]; repeatable")
    p.add_argument("--class", dest="mean_class", metavar="CLASS")
    p.add_argument("--p", metavar="NUM")
    p.add_argument("--q", metavar="NUM")
    p.add_argument("--r", metavar="NUM")
    common(p, exprs=("f", "g", "h"), tol=True)

    p = subs.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--only", metavar="GROUP", help=f"one of: {', '.join(GROUPS)}")
    p.add_argument("--format", default="plain", metavar="FMT")
    return parser


def _build_runspec(args: argparse.Namespace) -> RunSpec:
    exprs = {}
    for key, val in vars(args).items():
        if key.startswith("expr_") and val is not None:
            name = key[len("expr_"):]
            exprs[name] = (val, parse(val))  # parse now: syntax errors beat computation
    a = _const_value(args.a, "--a") if getattr(args, "a", None) is not None else None
    b = _const_value(args.b, "--b") if getattr(args, "b", None) is not None else None
    params = {}
    for key in ("p", "q", "r"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = _const_value(val, f"--{key}")
    tol = getattr(args, "tol", None)
    mean_class = getattr(args, "mean_class", None)
    power = None
    if mean_class is not None and mean_class.startswith("power:"):
        try:
            power = float(mean_class.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad power-mean class {mean_class!r}") from None
        mean_class = "power"
    elif mean_class is not None and (mean_class == "power" or mean_class not in MEAN_CLASSES):
        named = (c for c in MEAN_CLASSES if c != "power")
        raise _UsageError(
            f"unknown mean class {mean_class!r}; pick one of {', '.join(named)} or power:p"
        )
    map_window = None
    raw = getattr(args, "map_window", None)
    if raw is not None:
        try:
            lo, hi = (float(t) for t in raw.split(":"))
        except ValueError:
            raise _UsageError(f"bad --map-window {raw!r}; expected LO:HI") from None
        map_window = Interval(min(lo, hi), max(lo, hi))
    return RunSpec(
        subcommand=args.subcommand,
        exprs=exprs,
        a=a,
        b=b,
        params=params,
        fmt=getattr(args, "format", "plain"),
        tol=float(tol) if tol is not None else None,
        require_verdict=getattr(args, "require_verdict", False),
        only=getattr(args, "only", None),
        sweeps=tuple(_parse_sweep(s) for s in getattr(args, "sweep", [])),
        mean_class=mean_class,
        power=power,
        open_a=getattr(args, "open_a", False),
        open_b=getattr(args, "open_b", False),
        map_window=map_window,
        target=getattr(args, "target", None),
    )


_DISPATCH = {
    "mean": cmd_mean,
    "compare": cmd_compare,
    "stolarsky": cmd_stolarsky,
    "cauchy": cmd_cauchy,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return _USAGE_EXIT
        spec = _build_runspec(args)
        return _DISPATCH[spec.subcommand](spec)
    except _UsageError as e:
        print(f"isomean: usage error: {e}", file=sys.stderr)
        return _USAGE_EXIT
    except ExprSyntaxError as e:
        print(f"isomean: syntax error: {e}", file=sys.stderr)
        return 2
    except (
        PreconditionError,
        DomainError,
        WeightError,
        NotBondedError,
        NonMonotoneError,
        InversionError,
    ) as e:
        print(f"isomean: {e}", file=sys.stderr)
        return 3
    except DivergentIntegralError as e:
        print(f"isomean: divergent integral: {e}", file=sys.stderr)
        return 5
    except ComparisonContradiction as e:
        print(f"isomean: contradiction: {e}", file=sys.stderr)
        return 1
    except IsomeanError as e:
        print(f"isomean: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
