"""Isomorphic means of weighted number tuples, and their comparison.

The mean of a tuple ``x`` with weights ``p`` under a strictly monotone map
``g`` is ``g⁻¹(Σ pᵢ g(xᵢ))`` — the usual quasi-arithmetic construction.
``g = x`` gives the arithmetic mean, ``g = ln x`` the geometric one,
``g = 1/x`` the harmonic one, and so on.

Two such means over the same window can often be ordered for *every*
admissible tuple at once.  :func:`compare_number_means` decides that order
by the first of two criteria that classifies:

* the **ratio criterion**: monotonicity of ``|g'/h'|`` on the window, and
* the **Jensen criterion**: convexity of ``g∘h⁻¹`` on the h-image of the
  window (the classical quasi-arithmetic comparison condition).

A decided verdict is then checked on both means of a grid of two-point
tuples: such an order holds for every weighted tuple exactly when it holds
for every two-point one (Hardy, Littlewood and Pólya, *Inequalities*, ch.
III).  A difference of the wrong sign beyond the means' rounding raises
:class:`ComparisonContradiction` rather than passing the verdict on.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ._errors import ComparisonContradiction, DomainError, WeightError
from .classify import (
    AFFINE,
    CONSTANT,
    DEFAULT_SAMPLES,
    STRICTLY_DECREASING,
    STRICTLY_INCREASING,
    classify_convexity,
    classify_monotonicity,
    sample_grid,
)
from .expr import absx, differentiate, div, substitute
from .frame import GeneratorMap, estimate_range_hull, recall
from .intervals import Interval
from .invert import _tolerance
from .verdict import EQ, GE, LE, UNDECIDED, Verdict

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightedTuple:
    """A finite tuple of numbers with strictly positive weights summing to 1."""

    xs: tuple
    ps: tuple

    def __post_init__(self) -> None:
        xs = tuple(float(x) for x in self.xs)
        ps = tuple(float(p) for p in self.ps)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)
        if len(xs) < 2:
            raise WeightError("a weighted tuple needs at least two entries")
        if len(xs) != len(ps):
            raise WeightError(f"{len(xs)} values but {len(ps)} weights")
        if any(not math.isfinite(x) for x in xs):
            raise WeightError("tuple entries must be finite")
        if any(p <= 0.0 or not math.isfinite(p) for p in ps):
            raise WeightError("weights must be strictly positive")
        total = math.fsum(ps)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise WeightError(f"weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.xs)


def iso_weighted_mean(t: WeightedTuple, g: GeneratorMap) -> float:
    """``g⁻¹(Σ pᵢ g(xᵢ))`` for a weighted tuple inside g's domain."""
    for x in t.xs:
        if not g.domain.contains(x):
            raise DomainError(f"tuple entry {x} lies outside the map domain {g.domain}")
    first = t.xs[0]
    if all(x == first for x in t.xs):
        return first
    vs = g.value_many(np.array(t.xs))
    bad = ~np.isfinite(vs)
    if bad.any():
        raise DomainError(f"map undefined at {t.xs[int(np.argmax(bad))]}")
    return g.invert(math.fsum(p * v for p, v in zip(t.ps, vs.tolist())))


def iso_mean(xs, g: GeneratorMap) -> float:
    """Equal-weight variant of :func:`iso_weighted_mean`."""
    xs = tuple(xs)
    n = len(xs)
    if n < 2:
        raise WeightError("a mean needs at least two entries")
    return iso_weighted_mean(WeightedTuple(xs, (1.0 / n,) * n), g)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


# Derived trees of the last `_DERIVED_SIZE` map pairs: key → (maps, result).
_DERIVED_SIZE = 32
_derived: OrderedDict = OrderedDict()


def _ratio_classifier(num: GeneratorMap, den: GeneratorMap):
    """The ratio |num'/den'| as an Expr, or else as an array callable;
    built once per pair of map objects (see `_derived`)."""
    return recall(_derived, _DERIVED_SIZE, ("ratio", id(num), id(den)), (num, den),
                  lambda: _ratio(num, den))


def _ratio(num: GeneratorMap, den: GeneratorMap):
    if num.expr is not None and den.expr is not None:
        return absx(div(differentiate(num.expr), differentiate(den.expr)))

    def ratio_fn(xs: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.abs(num.derivative_many(xs) / den.derivative_many(xs))

    return ratio_fn


def _conjugate_fn(g: GeneratorMap, h: GeneratorMap):
    """g∘h⁻¹ as an Expr when both sides have one, else as an array callable;
    built once per pair of map objects (see `_derived`)."""
    return recall(_derived, _DERIVED_SIZE, ("conjugate", id(g), id(h)), (g, h),
                  lambda: _conjugate(g, h))


def _conjugate(g: GeneratorMap, h: GeneratorMap):
    hinv = h.inverse()
    if g.expr is not None and hinv.expr is not None:
        return substitute(g.expr, hinv.expr)

    def phi(us: np.ndarray) -> np.ndarray:
        return g.value_many(hinv.value_many(us))

    return phi


# The ratio criterion: how |l'/r'| moves orders the l-mean against the r-mean.
_RATIO_RELATION = {CONSTANT: EQ, STRICTLY_INCREASING: GE, STRICTLY_DECREASING: LE}


def _jensen_reading(l: GeneratorMap, r: GeneratorMap, window: Interval, samples: int = DEFAULT_SAMPLES):
    """The Jensen criterion, read off the shape of the conjugate l∘r⁻¹ on
    `window`, as (convexity class, relation, label): affine gives EQ; convex
    gives GE (case 1) for increasing l and LE (case 3) for decreasing l;
    concave LE (case 2) and GE (case 4); any other shape (None, None)."""
    conv = classify_convexity(_conjugate_fn(l, r), window, samples)
    if conv.kind == AFFINE:
        return conv, EQ, "affine"
    if conv.is_convex:
        rel, case = (GE, 1) if l.increasing else (LE, 3)
    elif conv.is_concave:
        rel, case = (LE, 2) if l.increasing else (GE, 4)
    else:
        return conv, None, None
    return conv, rel, f"case {case}"


# The two-point tuples (x_I, x_J; P, 1 − P) a decided verdict is checked on:
# every pair I < J of 17 grid points, under each weight P of 1/4, 1/2, 3/4.
_CHECK_POINTS = 17
_I, _J = np.tile(np.triu_indices(_CHECK_POINTS, 1), 3)
_P = np.repeat((0.25, 0.5, 0.75), len(_I) // 3)


def _check_two_point_means(verdict: Verdict, g: GeneratorMap, h: GeneratorMap, d: Interval) -> dict:
    """Test a decided verdict on both means of every check tuple drawn from
    `d`, skipping and counting those whose inversion fails.  Raises
    ComparisonContradiction naming the worst tuple; else returns the tuple
    and skipped counts and the worst margin (the least room, ≥ 0, between a
    difference and breaking the verdict)."""
    xs = sample_grid(d, _CHECK_POINTS)
    means, slack = [], 0.0
    for m in (g, h):
        v = m.value_many(xs)
        us = _P * v[_I] + (1.0 - _P) * v[_J]
        means.append(m._preimages(us))
        # A mean's rounding: the inversion's tolerance carried back through m′.
        with np.errstate(divide="ignore", invalid="ignore"):
            slack = slack + _tolerance(us) / np.abs(m.derivative_many(means[-1]))
    mg, mh = means
    diff = mg - mh
    slack = slack + 4.0 * np.spacing(np.maximum(np.abs(mg), np.abs(mh)))
    kept = ~np.isnan(diff)
    # The difference in the verdict's direction; any gap counts against EQ.
    toward = -np.abs(diff) if verdict.relation == EQ else verdict.direction() * diff
    margin = np.where(kept, slack + toward, np.inf)
    k = int(np.argmin(margin))
    if not np.all(verdict.agrees_with_sign(diff[kept], slack[kept])):
        raise ComparisonContradiction(
            f"criterion says {verdict.relation} ({verdict.justification}) but on {d} the"
            f" tuple ({xs[_I[k]]}, {xs[_J[k]]}; {_P[k]}, {1.0 - _P[k]}) has means"
            f" {mg[k]} and {mh[k]}: difference {diff[k]}, slack {slack[k]}"
        )
    return {"tuples": len(diff), "skipped": int(np.count_nonzero(~kept)), "worst_margin": float(margin[k])}


def compare_number_means(
    g: GeneratorMap,
    h: GeneratorMap,
    d: Interval,
    samples: int = DEFAULT_SAMPLES,
) -> Verdict:
    """Order ``mean_g`` against ``mean_h`` over every weighted tuple in ``d``.

    ``GE`` means the g-mean dominates for all tuples drawn from ``d``,
    ``LE`` the reverse, ``EQ`` that the two means coincide.  Since tuples
    with all entries equal always produce equality, the verdict is never
    strict.  ``Undecided`` is returned when neither criterion classifies.
    """
    if not g.domain.covers(d):
        raise DomainError(f"window {d} escapes the first map's domain {g.domain}")
    if not h.domain.covers(d):
        raise DomainError(f"window {d} escapes the second map's domain {h.domain}")
    if d.degenerate:
        return Verdict(EQ, "degenerate-window", {"window": str(d)})

    evidence = {"window": str(d), "resolution": samples}

    mono = classify_monotonicity(_ratio_classifier(g, h), d, samples)
    rel = _RATIO_RELATION.get(mono.kind)
    if rel is not None:
        verdict = Verdict(rel, "ratio-criterion", dict(evidence, route="ratio"))
    else:
        # Jensen fallback: convexity of the conjugate map on h's image.
        hd = estimate_range_hull(h.expr if h.expr is not None else h.value_many, d)
        ev = dict(evidence, route="jensen", conjugate_window=str(hd))
        _, rel, label = _jensen_reading(g, h, hd, samples)
        if rel is None:
            return Verdict(UNDECIDED, "no-criterion-applied", ev)
        verdict = Verdict(rel, f"jensen-criterion {label}", ev)

    verdict.evidence["numeric"] = _check_two_point_means(verdict, g, h, d)
    return verdict
