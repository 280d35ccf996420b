"""Derived quantities and experiment checkers.

Displacement vectors and squared lengths are exact; geometric lengths are
compared through squared norms so no square roots ever enter the field
arithmetic.  Both concatenation experiments record explicit witnesses:
the arc search tries rotations, the splitting search reads a' b' off L L
where b' begins with a's head, keeping it while a's head grows and b'
still begins with it, solves long_0 = d a for d and reads c and d off the
rotations of long_1 = d c d a b a that begin with a b a, found in one walk.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .directions import (
    DirectionIndex,
    arc_right_vertex,
    coordinate_of_index,
    neighbor_chain,
)
from .golden import PHI, PHI2, S_SQUARED, ZERO, GoldenNum
from .orbits import (
    OrbitVector,
    _is_rotation,
    billiard_multiplier,
    orbit_of_index,
    roman_of_arabic,
    rotations,
    vector_of,
    vectors_of_index,
)
from .periods import PeriodPair
from .tracer import (
    PlanePoint,
    TraceResult,
    closed_within,
    direction_of_vector,
    dot,
    strip_cells_for_coordinate,
    trace_billiard,
)


def displacement(v: OrbitVector) -> PlanePoint:
    """Exact displacement, in the tracer's chart, of a closed orbit with
    symbol counts v."""
    p = PHI * GoldenNum.of(v.c) + GoldenNum.of(v.e)
    q = PHI * GoldenNum.of(v.f) + GoldenNum.of(v.d)
    return direction_of_vector(p, q)


def displacement_norm_squared(v: OrbitVector) -> GoldenNum:
    d = displacement(v)
    return dot(d, d)


def length_squared_formula(v: OrbitVector, x: GoldenNum) -> GoldenNum:
    """Closed form for the squared orbit length at boundary coordinate x.

    The angle to the vertical bisector is eliminated algebraically:
    the squared length is phi^4 (x^2 + s^2) ((c+f) phi + (d+e))^2.
    """
    count = PHI * GoldenNum.of(v.c + v.f) + GoldenNum.of(v.d + v.e)
    return PHI2 * PHI2 * (x * x + S_SQUARED) * count * count


def length_identity_holds(v: OrbitVector, x: GoldenNum) -> bool:
    return (displacement_norm_squared(v) - length_squared_formula(v, x)).is_zero()


class LengthReport(NamedTuple):
    index: DirectionIndex
    periods: PeriodPair
    short_length_squared: GoldenNum
    long_length_squared: GoldenNum
    multiplier: int


def length_report(idx: DirectionIndex) -> LengthReport:
    x = coordinate_of_index(idx).value
    sv, lv = vectors_of_index(idx)
    return LengthReport(
        idx,
        PeriodPair(sv.period, lv.period),
        length_squared_formula(sv, x),
        length_squared_formula(lv, x),
        billiard_multiplier(sv),
    )


class BilliardReport(NamedTuple):
    index: DirectionIndex
    multiplier: int
    surface_short: TraceResult
    surface_long: TraceResult
    billiard_short: TraceResult
    billiard_long: TraceResult
    lengths_exact: bool
    ratio_is_phi_squared: bool

    @property
    def passed(self) -> bool:
        return self.lengths_exact and self.ratio_is_phi_squared


#: the most strip periods a billiard runs before it closes: the order of the
#: strip's holonomy in D5, whose elements have order 1, 2 or 5
BILLIARD_PERIODS = 5


def strip_billiard(strip: TraceResult, start: PlanePoint) -> TraceResult:
    """The closed pentagon billiard from start in a closed surface strip's
    direction.  By the Katok-Zemlyakov unfolding it closes when the strip's
    holonomy in D5 does: within `BILLIARD_PERIODS` strip periods, its cap.
    One still open there raises ArithmeticError."""
    cap = BILLIARD_PERIODS * strip.crossings
    return closed_within(
        trace_billiard(start, strip.direction, max_reflections=cap), cap)


def billiard_report(idx: DirectionIndex) -> BilliardReport:
    """Trace both strips on the surface and the matching pentagon billiards,
    checking the exact length multiple and the golden ratio of lengths."""
    return billiard_report_of_strips(
        idx, strip_cells_for_coordinate(coordinate_of_index(idx).value))


def billiard_report_of_strips(idx: DirectionIndex, cells) -> BilliardReport:
    """`billiard_report` of idx from its strip search's cells and traces.

    Each billiard starts 5/13 of the way across its strip's cell, so that
    it closes after exactly the multiplier times the strip's crossings.  An
    orbit closing after half as many reflections, an odd number, returns
    under a composition of an odd number of reflections, itself a
    reflection of D5; it fixes only the directions along its axis, which
    are parallel to a side.  In the sector only the two corner directions
    are, and there the axis crosses each cell at its midpoint, so a start
    off the midpoint closes at the full count.  The multipliers are the
    formula's, read off the strips' words, so a wrong one fails the length
    check, not the billiard's cap."""
    (_, _, s_tr), (_, _, l_tr) = cells
    b_s, b_l = (
        strip_billiard(tr, PlanePoint(lo + (hi - lo) * GoldenNum.of("5/13"), ZERO))
        for lo, hi, tr in cells)
    mult_s, mult_l = (billiard_multiplier(vector_of(tr.word)) for tr in (s_tr, l_tr))

    msq = GoldenNum.of(mult_s * mult_s)
    lengths_exact = (
        mult_s == mult_l
        and (b_s.length_squared - msq * s_tr.length_squared).is_zero()
        and (b_l.length_squared - msq * l_tr.length_squared).is_zero()
    )
    ratio_ok = (b_l.length_squared - PHI2 * b_s.length_squared).is_zero()
    return BilliardReport(idx, mult_s, s_tr, l_tr, b_s, b_l, lengths_exact, ratio_ok)


# ---------------------------------------------------------------------------
# experiment 1: children of an arc as concatenations of the endpoint orbits


def _arc_for_endpoints(left: DirectionIndex, right: DirectionIndex) -> tuple[int, ...]:
    """The arc from left to right: left's digits and z zeros.  For z >= 1
    the lower endpoint is z digits deeper than left, for z = 0 no deeper,
    so only one z can fit."""
    if left.bottom:
        raise ValueError("left endpoint cannot be the bottom corner")
    prefix = left.digits + (0,) * max(0, right.generation - left.generation)
    if arc_right_vertex(prefix) != right:
        raise ValueError(f"{left} and {right} are not joined by a pentagon side")
    return prefix


def _roman_bytes(idx: DirectionIndex, kind: str) -> bytes:
    return roman_of_arabic(orbit_of_index(idx, kind)).symbols


def _concat_witness(target: bytes, pieces: list[bytes]):
    """Search rotations: does some rotation of target split into rotations
    of the pieces, in order?  Returns the witness offsets or None."""
    n = len(target)
    if sum(len(p) for p in pieces) != n:
        return None
    tt = target + target
    doubled = [p + p for p in pieces]
    for off in range(n):
        pos, offsets = off, []
        for p, pp in zip(pieces, doubled):
            k = pp.find(tt[pos:pos + len(p)])
            if k < 0:
                break
            offsets.append(k)
            pos += len(p)
        else:
            return (off, tuple(offsets))
    return None


class ChildConcatResult(NamedTuple):
    child: DirectionIndex
    kind: str
    pattern: str
    witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.witness is not None


class ConjectureReport(NamedTuple):
    subject: str
    results: tuple
    passed: bool


def check_conjecture_concat(left: DirectionIndex,
                            right: DirectionIndex) -> ConjectureReport:
    """For each child of the arc, find cuts of the endpoint orbits whose
    concatenation closes up to the child's orbit.

    With (a, A) the upper endpoint's orbits and (b, B) the lower endpoint's,
    the children from the top carry the short orbits bA, AB, aB and the
    long orbits AaB, AaBb, BbA (concatenations searched over rotations).
    """
    prefix = _arc_for_endpoints(left, right)
    a, A = _roman_bytes(left, "short"), _roman_bytes(left, "long")
    b, B = _roman_bytes(right, "short"), _roman_bytes(right, "long")

    patterns = [
        ("bA", [b, A], "AaB", [A, a, B]),
        ("AB", [A, B], "AaBb", [A, a, B, b]),
        ("aB", [a, B], "BbA", [B, b, A]),
    ]
    results = []
    for j, (sname, spieces, lname, lpieces) in enumerate(patterns, start=1):
        child = DirectionIndex(prefix + (j,))
        sw = _concat_witness(_roman_bytes(child, "short"), spieces)
        lw = _concat_witness(_roman_bytes(child, "long"), lpieces)
        results.append(ChildConcatResult(child, "short", sname, sw))
        results.append(ChildConcatResult(child, "long", lname, lw))
    return ConjectureReport(f"arc {left}-{right}", tuple(results),
                            all(r.passed for r in results))


# ---------------------------------------------------------------------------
# experiment 2: aligned splittings along a neighbor chain


class SplittingWitness(NamedTuple):
    """A splitting that tiles one neighbor chain: the center's short orbit
    cut as c + d, its long orbit cut as a + b and again as a' + b', and
    common_prefix = min(|a|, |b'|), the symbols a and b' share at their
    beginning.  At a corner b and d are empty and common_prefix is 0: a'
    and a are rotations of L, c of S, and b' of the anchor's short orbit."""
    side: str
    c: tuple[int, ...]
    d: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    a_prime: tuple[int, ...]
    b_prime: tuple[int, ...]
    common_prefix: int


def check_conjecture_splitting(beta: DirectionIndex, radius: int) -> ConjectureReport:
    """Search for splittings of beta's orbits that tile the orbits of the
    whole neighbor chain on each side.

    With short(beta) split as c+d and long(beta) split two ways as a+b and
    a'+b' (a and b' sharing their beginning), the chain orbits must satisfy
        short_i = a' (b' a')^i   and   long_i = d (c d)^i (a b)^i a
    as cyclic words, i = 0 at the far anchor.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return ConjectureReport(f"center {beta}", (), True)
    S, L = _roman_bytes(beta, "short"), _roman_bytes(beta, "long")
    corner = beta.bottom or not beta.digits
    results = []
    for side in ("upper", "lower"):
        chain = neighbor_chain(beta, side, radius + 1)
        if not chain:
            continue
        shorts = [_roman_bytes(g, "short") for g in chain]
        longs = [_roman_bytes(g, "long") for g in chain]
        search = _find_corner_splitting if corner else _find_splitting
        witness = search(S, L, shorts, longs, side)
        results.append((side, tuple(str(g) for g in chain), witness))
    passed = bool(results) and all(w is not None for _, _, w in results)
    return ConjectureReport(f"center {beta}", tuple(results), passed)


def _occurrences(ww: bytes, x: bytes, hi: int):
    """The offsets k < hi at which x occurs in ww, in increasing order,
    overlapping ones included; an empty x occurs at every offset."""
    k = ww.find(x)
    while 0 <= k < hi:
        yield k
        k = ww.find(x, k + 1)


def _find_splitting(S, L, shorts, longs, side) -> SplittingWitness | None:
    """The first splitting in nested-loop order (rotation of L, cut of a,
    rotation of S, then (a', b')): a' b' is read off L L, d solves long_0,
    c and d are read off long_1, and only the i >= 2 long words are tested."""
    shorts2 = [w + w for w in shorts]
    l0l0, l1l1, *longs2 = [w + w for w in longs]
    ss = S + S
    n_l, n_s, n_0, n_1 = len(L), len(S), len(longs[0]), len(longs[1])

    # a' b' is the rotation of L at k, cut at |short_0|, so b' sits at k in
    # lb = (L L)[cut:]; long_1 = d c d a b a has |S| + |L| + |long_0| symbols
    cut = len(shorts[0])
    if cut > n_l or n_1 != n_s + n_l + n_0:
        return None
    ll = L + L
    lb = ll[cut:]

    # (a, b): the cuts with 0 <= |d| <= |S|.  The rotation of long_1 that
    # begins with rot_l a = a b a is rot_l a d c d, so each occurrence of
    # rot_l a in long_1 long_1 gives a tail d c d.  Each b' has n_l - cut
    # symbols, so a and b' agree on min(|a|, |b'|) symbols when b' begins
    # with head = a[:n_l - cut]: the fit is the first occurrence k < |L| of
    # head in lb whose (a', b') tiles the short chain.  Within one rotation
    # of L the head only grows, and every earlier occurrence of the longer
    # head is one of the shorter, which failed the short chain, so the fit
    # is kept while its b' begins with the head and searched again when not.
    # long_0 = d a solves for d: the n_0 - |a| symbols after each occurrence
    # of a in long_0 long_0.  Each test only fails more as a grows, so no
    # tail, a missing fit or an empty set of ds ends the cuts.  A tail whose
    # two ds agree and whose d is in the set names the rotation c d of S at
    # r = ss.find(c d), if there is one.  They are visited in increasing r.
    for rot_l in rotations(L):
        fit = None
        for cut_a in range(max(0, n_0 - n_s), min(n_l, n_0) + 1):
            a, b = rot_l[:cut_a], rot_l[cut_a:]
            tails = [l1l1[p + n_l + cut_a:p + n_1] for p in _occurrences(l1l1, rot_l + a, n_1)]
            if not tails:
                break
            head = a[:n_l - cut]
            if fit is None or not fit[1].startswith(head):
                fits = ((ll[k:k + cut], lb[k:k + n_l - cut]) for k in _occurrences(lb, head, n_l))
                fit = next(((ap, bp) for ap, bp in fits if all(
                    _is_rotation(ap + (bp + ap) * i, ww) for i, ww in enumerate(shorts2))), None)
                if fit is None:
                    break
            ds = {l0l0[q + cut_a:q + n_0] for q in _occurrences(l0l0, a, n_0)}
            if not ds:
                break
            n_d = n_0 - cut_a
            cds = {t[n_d:] for t in tails if t[:n_d] in ds and t.endswith(t[:n_d])}
            for r, cd in sorted((ss.find(cd), cd) for cd in cds):
                c, d = cd[:n_s - n_d], cd[n_s - n_d:]
                if r >= 0 and all(_is_rotation(d + (c + d) * i + (a + b) * i + a, ww)
                                  for i, ww in enumerate(longs2, start=2)):
                    return SplittingWitness(side, *map(tuple, (c, d, a, b, *fit)), len(head))
    return None


def _find_corner_splitting(S, L, shorts, longs, side) -> SplittingWitness | None:
    """Degenerate chains anchored at the opposite corner: the anchor orbits
    are their own pieces, and the center's words tile only the growth:
    short_i = s0 L^i and long_i = l0 L^i S^i, over aligned rotations.  The
    two tilings share no piece, so each is searched once."""
    short = _first_tiling((shorts[0], L), shorts)
    long = _first_tiling((longs[0], L, S), longs) if short else None
    if long is None:
        return None
    (rs0, rl), (_rl0, rl2, rs) = short, long
    return SplittingWitness(side, *map(tuple, (rs, b"", rl2, b"", rl, rs0)), 0)


def _first_tiling(pieces: tuple[bytes, ...], words: list[bytes]):
    """The first rotations (r0, r1, ...) of the pieces, in nested-loop order
    with the last piece innermost, such that r0 r1^i r2^i ... is a rotation
    of words[i] for every i >= 1; None if there are none."""
    doubled = [w + w for w in words[1:]]
    for rots in product(*map(rotations, pieces)):
        if all(_is_rotation(rots[0] + b"".join(r * i for r in rots[1:]), ww)
               for i, ww in enumerate(doubled, start=1)):
            return rots
    return None
