"""Periods of periodic directions.

A direction carries a short and a long combinatorial period (a, A) with
a <= A, encoded as the single number a + A*phi.  The periods are the
lengths of the Roman orbit words, read off the orbit vectors, and along
any pentagon arc they follow a three-child recursion.
"""

from __future__ import annotations

from typing import NamedTuple

from .directions import DirectionIndex, NeighborFamily, neighbor_family
from .golden import FrozenValue, GoldenNum
from .orbits import quintuple_relation, vectors_of_index


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

    def as_tuple(self) -> tuple[int, int]:
        return (self.short, self.long)


def period_of_index(idx: DirectionIndex) -> PeriodPair:
    """Short and long periods of the direction: the symbol counts of its
    short and long orbit vectors."""
    sv, lv = vectors_of_index(idx)
    return PeriodPair(sv.period, lv.period)


def child_periods(left: PeriodPair, right: PeriodPair) -> tuple[PeriodPair, PeriodPair, PeriodPair]:
    """Periods of the three new vertices on an arc, ordered from left to
    right: the quintuple relation of the orbit vectors on the symbol counts,
    v + phi*u, phi*(u + v) and u + phi*v with u = a + A*phi on the left and
    v = b + B*phi on the right."""
    (a, A), (b, B) = left.as_tuple(), right.as_tuple()
    return tuple(PeriodPair(*kid) for kid in quintuple_relation(a, A, b, B))


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
