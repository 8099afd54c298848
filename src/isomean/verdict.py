"""Comparison verdicts.

Every comparison routine in this package returns a :class:`Verdict` rather
than a bare boolean, because the interesting part of a comparison is *why*
it holds: which criterion fired, on what resolution, and whether the
inequality is known to be strict.  The relation vocabulary is deliberately
small:

``"GE"``/``"LE"``
    ordered, possibly with equality somewhere,
``"GT"``/``"LT"``
    ordered and known strict,
``"EQ"``
    provably equal,
``"Undecided"``
    none of the implemented criteria applied.

``Undecided`` is an honest answer, not an error — several comparison
theorems are one-directional and simply say nothing about the remaining
parameter combinations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

GE = "GE"
LE = "LE"
GT = "GT"
LT = "LT"
EQ = "EQ"
UNDECIDED = "Undecided"

_RELATIONS = frozenset({GE, LE, GT, LT, EQ, UNDECIDED})

#: Relations that assert "left >= right" (strictly or not).
_UPWARD = frozenset({GE, GT})
#: Relations that assert "left <= right".
_DOWNWARD = frozenset({LE, LT})


@dataclass(frozen=True)
class Verdict:
    """Outcome of a mean comparison.

    Attributes
    ----------
    relation:
        One of ``GE``, ``LE``, ``GT``, ``LT``, ``EQ``, ``Undecided``.
    justification:
        Short machine-readable rule id, e.g. ``"value-map-ratio"`` or
        ``"classII-jensen case 3"``.  Stable across releases; the CLI and
        the verification harness key off these.
    evidence:
        Free-form diagnostic payload (classification resolutions, numeric
        cross-check values, witness points...).  Never consulted by code
        that merely wants the relation.
    """

    relation: str
    justification: str
    evidence: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def decided(self) -> bool:
        return self.relation != UNDECIDED

    @property
    def strict(self) -> bool:
        return self.relation in (GT, LT)

    def direction(self) -> int:
        """-1, 0 or +1 for the sign of (left - right); raises if undecided."""
        if self.relation in _UPWARD:
            return 1
        if self.relation in _DOWNWARD:
            return -1
        if self.relation == EQ:
            return 0
        raise ValueError("verdict is undecided; it has no direction")

    def agrees_with_sign(self, diff, slack):
        """Check a numeric difference ``left - right`` against the verdict.

        ``slack`` is the numeric noise allowance: differences within
        ``slack`` of zero are compatible with every decided relation
        (a strict verdict may legitimately have a tiny gap).  Given arrays,
        it checks each difference against its slack and returns an array.
        """
        within = abs(diff) <= slack
        if self.relation == EQ:
            return within
        return within | (not self.decided or (diff > 0) == (self.direction() > 0))

    def __str__(self) -> str:
        return f"{self.relation} [{self.justification}]"
