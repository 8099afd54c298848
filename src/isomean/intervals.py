"""Extended-real intervals with open/closed endpoint flags.

An interval is the basic carrier for domains of maps and evaluation windows.
Infinite endpoints are always open; degenerate (single-point) intervals are
allowed and closed by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._errors import PreconditionError


@dataclass(frozen=True)
class Interval:
    """An interval of the extended real line.

    Parameters
    ----------
    lo, hi : float
        Endpoints, ``lo <= hi``.  ``-inf``/``inf`` are permitted.
    lo_open, hi_open : bool
        Whether each endpoint is excluded.  Infinite endpoints are forced
        open regardless of the flag passed in.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise PreconditionError("interval endpoints must not be NaN")
        if lo > hi:
            raise PreconditionError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isinf(lo):
            object.__setattr__(self, "lo_open", True)
        if math.isinf(hi):
            object.__setattr__(self, "hi_open", True)
        if lo == hi and (self.lo_open or self.hi_open):
            raise PreconditionError("degenerate interval cannot have open endpoints")

    # -- predicates ---------------------------------------------------------

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        """Membership test with optional absolute slack at closed finite ends.

        The slack widens the interval slightly; it is used where numerically
        computed values must land inside a mathematically guaranteed hull.
        """
        if math.isnan(x):
            return False
        lo, hi = self.lo, self.hi
        if self.lo_open:
            if x <= lo:
                return False
        else:
            if x < lo - slack:
                return False
        if self.hi_open:
            if x >= hi:
                return False
        else:
            if x > hi + slack:
                return False
        return True

    def covers(self, other: "Interval") -> bool:
        """True when every point of `other` lies in `self`."""
        if other.lo < self.lo or (other.lo == self.lo and self.lo_open and not other.lo_open):
            return False
        if other.hi > self.hi or (other.hi == self.hi and self.hi_open and not other.hi_open):
            return False
        return True

    # -- helpers ------------------------------------------------------------

    def clamp_inward(self, eps: float) -> "Interval":
        """A closed bounded interval pulled inside `self` by `eps` at any
        open or infinite endpoint.  Handy for numeric probing."""
        if not (self.lo_open or self.hi_open):
            return self
        lo, hi = self.lo, self.hi
        if math.isinf(lo):
            lo = min(-1.0 / eps, hi - 1.0)
        elif self.lo_open:
            lo = lo + eps
        if math.isinf(hi):
            hi = max(1.0 / eps, lo + 1.0)
        elif self.hi_open:
            hi = hi - eps
        if lo > hi:
            mid = 0.5 * (self.lo + self.hi)
            return Interval(mid, mid)
        return Interval(lo, hi)

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


def hull(values) -> Interval:
    """Smallest closed interval containing all values."""
    vs = [float(v) for v in values]
    if not vs:
        raise PreconditionError("hull of an empty collection")
    return Interval(min(vs), max(vs))
