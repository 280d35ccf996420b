"""Periods of periodic directions via the integer golden-number calculus.

A direction carries a short and a long combinatorial period (a, A) with
a <= A, encoded as the single number a + A*phi.  Period pairs propagate
down the tessellation tree by fixed 2x2 matrices over Z[phi], one per
digit, and along any pentagon arc by a three-child recursion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .directions import DirectionIndex, NeighborFamily, neighbor_family
from .golden import ONE, PHI, PHI2, ZERO, FrozenValue, GoldenNum


class PeriodPair(FrozenValue):
    __slots__ = ("short", "long")

    def __init__(self, short: int, long: int):
        if not (0 < short <= long):
            raise ValueError(f"invalid period pair {(short, long)}")
        object.__setattr__(self, "short", short)
        object.__setattr__(self, "long", long)

    def encode(self) -> GoldenNum:
        """The element short + long*phi of Z[phi]."""
        return GoldenNum.of(self.short, self.long)

    @staticmethod
    def decode(x: GoldenNum) -> "PeriodPair":
        if x.a.denominator != 1 or x.b.denominator != 1:
            raise ValueError(f"not an integer golden number: {x}")
        return PeriodPair(int(x.a), int(x.b))

    @property
    def arabic(self) -> tuple[int, int]:
        return (2 * self.short, 2 * self.long)

    def as_tuple(self) -> tuple[int, int]:
        return (self.short, self.long)


#: the four digit matrices acting on (upper, lower) period columns
X_MATRICES = (
    ((ONE, ZERO), (PHI, ONE)),                  # digit 0
    ((PHI, ONE), (PHI, PHI)),                   # digit 1
    ((PHI, PHI), (ONE, PHI)),                   # digit 2
    ((ONE, PHI), (ZERO, ONE)),                  # digit 3
)


def _apply(mat, vec):
    (a, b), (c, d) = mat
    u, v = vec
    return (a * u + b * v, c * u + d * v)


@lru_cache(maxsize=None)
def _period_vector(digits: tuple[int, ...]) -> tuple[GoldenNum, GoldenNum]:
    vec = (PHI2, PHI2)
    for n in digits:
        vec = _apply(X_MATRICES[n], vec)
    return vec


def period_of_index(idx: DirectionIndex) -> PeriodPair:
    """Short and long periods of the direction, from the digit matrix product."""
    if idx.bottom:
        return PeriodPair(1, 1)
    return PeriodPair.decode(_period_vector(idx.digits)[0])


def child_periods(left: PeriodPair, right: PeriodPair) -> tuple[PeriodPair, PeriodPair, PeriodPair]:
    """Periods of the three new vertices on an arc, ordered from left to right."""
    u, v = left.encode(), right.encode()
    return (
        PeriodPair.decode(v + PHI * u),
        PeriodPair.decode(PHI * u + PHI * v),
        PeriodPair.decode(u + PHI * v),
    )


class FamilyReport(NamedTuple):
    """Arithmetic-progression check over a neighbor family."""

    center: DirectionIndex
    center_periods: PeriodPair
    difference: tuple[int, int]
    entries: tuple[tuple[int, DirectionIndex, tuple[int, int]], ...]
    ok: bool
    first_failure: int | None = None


def arithmetic_family_check(beta: DirectionIndex, radius: int) -> FamilyReport:
    """Verify the signed period pairs of the neighbors form an arithmetic
    progression with difference (B, b + B), where (b, B) are beta's periods.

    Pairs at negative family positions enter with both components negated;
    the family orientation is fixed so the common difference is positive.
    """
    fam: NeighborFamily = neighbor_family(beta, radius)
    bp = period_of_index(beta)
    diff = (bp.long, bp.short + bp.long)

    entries = []
    for i, v, _coord in fam.members:
        p = period_of_index(v)
        signed = p.as_tuple() if i >= 0 else (-p.short, -p.long)
        entries.append((i, v, signed))

    ok = True
    first_failure = None
    for (i0, _, s0), (i1, _, s1) in zip(entries, entries[1:]):
        got = (s1[0] - s0[0], s1[1] - s0[1])
        if got != diff:
            ok = False
            first_failure = i1
            break
    return FamilyReport(beta, bp, diff, tuple(entries), ok, first_failure)
