"""Isomorphic means of weighted number tuples, and their comparison.

The mean of a tuple ``x`` with weights ``p`` under a strictly monotone map
``g`` is ``g⁻¹(Σ pᵢ g(xᵢ))`` — the usual quasi-arithmetic construction.
``g = x`` gives the arithmetic mean, ``g = ln x`` the geometric one,
``g = 1/x`` the harmonic one, and so on.

Two such means over the same window can often be ordered for *every*
admissible tuple at once.  :func:`compare_number_means` decides that order
via two independent criteria:

* the **ratio criterion**: monotonicity of ``|g'/h'|`` on the window, and
* the **Jensen criterion**: convexity of ``g∘h⁻¹`` on the h-image of the
  window (the classical quasi-arithmetic comparison condition),

and then cross-checks the outcome against a parity rule on the signed
ratio ``h'/g'``: when that ratio and both maps classify strictly, an odd
number of increasing functions among ``{h'/g', h, g}`` forces
``mean_g <= mean_h`` and an even number forces the reverse.  A mismatch
between the routes raises :class:`ComparisonContradiction` rather than
silently picking one.
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
)
from .expr import absx, differentiate, div, substitute
from .frame import GeneratorMap, estimate_range_hull, recall
from .intervals import Interval
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
    s = math.fsum(p * g(x) for x, p in zip(t.xs, t.ps))
    return g.invert(s)


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


def _signed_ratio_classifier(num: GeneratorMap, den: GeneratorMap, absolute: bool):
    """The ratio num'/den' (optionally |·|) as an Expr, or else as an
    array callable; built once per pair of map objects (see `_derived`)."""
    return recall(_derived, _DERIVED_SIZE, ("ratio", id(num), id(den), absolute), (num, den),
                  lambda: _ratio(num, den, absolute))


def _ratio(num: GeneratorMap, den: GeneratorMap, absolute: bool):
    if num.expr is not None and den.expr is not None:
        ratio = div(differentiate(num.expr), differentiate(den.expr))
        return absx(ratio) if absolute else ratio

    def ratio_fn(xs: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            v = num.derivative_many(xs) / den.derivative_many(xs)
        return np.abs(v) if absolute else v

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


def _parity_check(g: GeneratorMap, h: GeneratorMap, d: Interval, samples: int):
    """Relation implied by the parity rule, or None when it does not apply.

    Counts increasing members of {h'/g', h, g}: odd count means the g-mean
    sits below the h-mean, even count means above.  A constant ratio means
    the maps differ by an affine transform, which leaves the mean unchanged.
    """
    ratio = _signed_ratio_classifier(h, g, absolute=False)
    mono = classify_monotonicity(ratio, d, samples)
    if mono.kind == CONSTANT:
        return EQ
    if not mono.is_strictly_monotone:
        return None
    count = int(mono.is_strictly_increasing) + int(h.increasing) + int(g.increasing)
    return LE if count % 2 == 1 else GE


def _compatible(primary: str, parity: str) -> bool:
    if parity == EQ:
        # Equality is admitted by both GE and LE.
        return primary in (GE, LE, EQ)
    if primary == EQ:
        # A strict parity classification rules out identical means.
        return False
    return primary == parity


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

    mono = classify_monotonicity(_signed_ratio_classifier(g, h, absolute=True), d, samples)
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

    parity = _parity_check(g, h, d, samples)
    if parity is None:
        verdict.evidence["cross_check"] = "parity skipped (ratio not classified)"
        return verdict
    verdict.evidence["cross_check"] = f"parity agrees ({parity})"
    if not _compatible(verdict.relation, parity):
        raise ComparisonContradiction(
            f"criterion says {verdict.relation} ({verdict.justification}) but the"
            f" parity rule says {parity} on {d}"
        )
    return verdict
