"""Derived quantities and experiment checkers.

Displacement vectors and squared lengths are exact; geometric lengths are
compared through squared norms so no square roots ever enter the field
arithmetic.  The two concatenation experiments on symbolic orbits search
exhaustively over rotations and record explicit witnesses.
"""

from __future__ import annotations

from typing import NamedTuple

from .directions import (
    DirectionIndex,
    arc_right_vertex,
    coordinate_of_index,
    neighbor_chain,
)
from .golden import PHI, S_SQUARED, ZERO, GoldenNum
from .orbits import (
    CyclicWord,
    OrbitVector,
    orbit_of_index,
    roman_of_arabic,
    rotations,
    vector_of,
    vectors_of_index,
)
from .periods import PeriodPair, period_of_index
from .tracer import (
    PlanePoint,
    TraceResult,
    TraceBudgetExceeded,
    direction_of_coordinate,
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
    return (PHI ** 4) * (x * x + S_SQUARED) * count * count


def length_identity_holds(v: OrbitVector, x: GoldenNum) -> bool:
    return (displacement_norm_squared(v) - length_squared_formula(v, x)).is_zero()


def billiard_multiplier(v: OrbitVector) -> int:
    """1 if the pentagon billiard closes in one surface period, else 5."""
    return 1 if ((v.c - v.f) + 2 * (v.e - v.d)) % 5 == 0 else 5


class LengthReport(NamedTuple):
    index: DirectionIndex
    periods: PeriodPair
    short_length_squared: GoldenNum
    long_length_squared: GoldenNum
    multiplier: int

    @property
    def short_length(self) -> float:
        return float(self.short_length_squared) ** 0.5

    @property
    def long_length(self) -> float:
        return float(self.long_length_squared) ** 0.5


def length_report(idx: DirectionIndex) -> LengthReport:
    x = coordinate_of_index(idx).value
    sv, lv = vectors_of_index(idx)
    return LengthReport(
        idx,
        period_of_index(idx),
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


def _billiard_from_cell(lo: GoldenNum, hi: GoldenNum, direction,
                        cap: int) -> TraceResult:
    """Billiard trace from 5/13 of the way across the strip cell, which
    closes after exactly cap reflections.  An orbit closing after half as
    many reflections, an odd number, returns under a composition of an odd
    number of reflections, itself a reflection of D5; it fixes only the
    directions along its axis, which are parallel to a side.  In the sector
    only the two corner directions are, and there the axis crosses each
    cell at its midpoint, so a start off the midpoint closes at the cap."""
    start = PlanePoint(lo + (hi - lo) * GoldenNum.of("5/13"), ZERO)
    res = trace_billiard(start, direction, max_reflections=cap)
    if not res.closed:
        raise TraceBudgetExceeded(direction, cap, res.crossings)
    return res


def billiard_report(idx: DirectionIndex) -> BilliardReport:
    """Trace both strips on the surface and the matching pentagon billiards,
    checking the exact length multiple and the golden ratio of lengths."""
    x = coordinate_of_index(idx).value
    cells = strip_cells_for_coordinate(x, expected_long=period_of_index(idx).long)
    (s_lo, s_hi, s_tr), (l_lo, l_hi, l_tr) = cells
    mult_s = billiard_multiplier(vector_of(s_tr.word))
    mult_l = billiard_multiplier(vector_of(l_tr.word))
    direction = direction_of_coordinate(x)
    b_s = _billiard_from_cell(s_lo, s_hi, direction, mult_s * s_tr.crossings)
    b_l = _billiard_from_cell(l_lo, l_hi, direction, mult_l * l_tr.crossings)

    msq = GoldenNum.of(mult_s * mult_s)
    lengths_exact = (
        mult_s == mult_l
        and (b_s.length_squared - msq * s_tr.length_squared).is_zero()
        and (b_l.length_squared - GoldenNum.of(mult_l * mult_l) * l_tr.length_squared).is_zero()
    )
    phi2 = PHI * PHI
    ratio_ok = (b_l.length_squared - phi2 * b_s.length_squared).is_zero()
    return BilliardReport(idx, mult_s, s_tr, l_tr, b_s, b_l, lengths_exact, ratio_ok)


# ---------------------------------------------------------------------------
# experiment 1: children of an arc as concatenations of the endpoint orbits


def _arc_for_endpoints(left: DirectionIndex, right: DirectionIndex) -> tuple[int, ...]:
    if left.bottom:
        raise ValueError("left endpoint cannot be the bottom corner")
    prefix = left.digits
    for _ in range(right.generation + 2):
        if arc_right_vertex(prefix) == right:
            return prefix
        prefix = prefix + (0,)
    raise ValueError(f"{left} and {right} are not joined by a pentagon side")


def _concat_witness(target: CyclicWord, pieces: list[tuple[int, ...]]):
    """Search rotations: does some rotation of target split into rotations
    of the pieces, in order?  Returns the witness offsets or None."""
    total = target.symbols
    if sum(len(p) for p in pieces) != len(total):
        return None
    # each rotation of a piece -> its first offset in rotations(piece)
    piece_rots = [{} for _ in pieces]
    for first, p in zip(piece_rots, pieces):
        for k, r in enumerate(rotations(p)):
            first.setdefault(r, k)
    for off in range(len(total)):
        rot = total[off:] + total[:off]
        pos, offsets = 0, []
        for p, rots in zip(pieces, piece_rots):
            k = rots.get(rot[pos:pos + len(p)])
            if k is None:
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
    a = roman_of_arabic(orbit_of_index(left, "short")).symbols
    A = roman_of_arabic(orbit_of_index(left, "long")).symbols
    b = roman_of_arabic(orbit_of_index(right, "short")).symbols
    B = roman_of_arabic(orbit_of_index(right, "long")).symbols

    patterns = [
        ("bA", [b, A], "AaB", [A, a, B]),
        ("AB", [A, B], "AaBb", [A, a, B, b]),
        ("aB", [a, B], "BbA", [B, b, A]),
    ]
    results = []
    for j, (sname, spieces, lname, lpieces) in enumerate(patterns, start=1):
        child = DirectionIndex(prefix + (j,))
        sw = _concat_witness(roman_of_arabic(orbit_of_index(child, "short")), spieces)
        lw = _concat_witness(roman_of_arabic(orbit_of_index(child, "long")), lpieces)
        results.append(ChildConcatResult(child, "short", sname, sw))
        results.append(ChildConcatResult(child, "long", lname, lw))
    return ConjectureReport(f"arc {left}-{right}", tuple(results),
                            all(r.passed for r in results))


# ---------------------------------------------------------------------------
# experiment 2: aligned splittings along a neighbor chain


class SplittingWitness(NamedTuple):
    side: str
    c: tuple[int, ...]
    d: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    a_prime: tuple[int, ...]
    b_prime: tuple[int, ...]
    common_prefix: int


def _prefix_compatible(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    n = min(len(a), len(b))
    if n == 0:
        return 0
    return n if a[:n] == b[:n] else None


def check_conjecture_splitting(beta: DirectionIndex, radius: int) -> ConjectureReport:
    """Search for splittings of beta's orbits that tile the orbits of the
    whole neighbor chain on each side.

    With short(beta) split as c+d and long(beta) split two ways as a+b and
    a'+b' (a and b' sharing their beginning), the chain orbits must satisfy
        short_i = a' (b' a')^i   and   long_i = d (c d)^i (a b)^i a
    as cyclic words, i = 0 at the far anchor.
    """
    if radius == 0:
        return ConjectureReport(f"center {beta}", (), True)
    S = roman_of_arabic(orbit_of_index(beta, "short")).symbols
    L = roman_of_arabic(orbit_of_index(beta, "long")).symbols
    corner = beta.bottom or not beta.digits
    results = []
    for side in ("upper", "lower"):
        chain = neighbor_chain(beta, side, radius + 1)
        if not chain:
            continue
        shorts = [roman_of_arabic(orbit_of_index(g, "short")) for g in chain]
        longs = [roman_of_arabic(orbit_of_index(g, "long")) for g in chain]
        if corner:
            witness = _find_corner_splitting(S, L, shorts, longs, side)
        else:
            witness = _find_splitting(S, L, shorts, longs, side)
        results.append((side, tuple(str(g) for g in chain), witness))
    passed = bool(results) and all(w is not None for _, _, w in results)
    return ConjectureReport(f"center {beta}", tuple(results), passed)


def _find_splitting(S, L, shorts, longs, side) -> SplittingWitness | None:
    s0 = shorts[0]
    l0 = longs[0]
    n_l, n_s = len(L), len(S)

    # candidate (a', b'): rotation of L cut at |short_0|, piece matching short_0
    ab_primes = []
    cut = len(s0)
    if cut <= n_l:
        for rot in rotations(L):
            ap, bp = rot[:cut], rot[cut:]
            if ap and CyclicWord.roman_word(ap) == s0:
                ab_primes.append((ap, bp))
    if not ab_primes:
        return None

    # candidate (a, b) and (c, d): d + a must tile long_0
    for rot_l in rotations(L):
        for cut_a in range(n_l + 1):
            a, b = rot_l[:cut_a], rot_l[cut_a:]
            d_len = len(l0) - cut_a
            if not 0 <= d_len <= n_s:
                continue
            for rot_s in rotations(S):
                c, d = rot_s[:n_s - d_len], rot_s[n_s - d_len:]
                if len(d) + len(a) == 0:
                    continue
                if CyclicWord.roman_word(d + a) != l0:
                    continue
                for ap, bp in ab_primes:
                    pref = _prefix_compatible(a, bp)
                    if pref is None:
                        continue
                    if _verify_chain(ap, bp, a, b, c, d, shorts, longs):
                        return SplittingWitness(side, c, d, a, b, ap, bp, pref)
    return None


def _verify_chain(ap, bp, a, b, c, d, shorts, longs) -> bool:
    for i in range(1, len(shorts)):
        want_s = ap + (bp + ap) * i
        want_l = d + (c + d) * i + (a + b) * i + a
        if CyclicWord.roman_word(want_s) != shorts[i]:
            return False
        if CyclicWord.roman_word(want_l) != longs[i]:
            return False
    return True


def _find_corner_splitting(S, L, shorts, longs, side) -> SplittingWitness | None:
    """Degenerate chains anchored at the opposite corner: the anchor orbits
    are their own pieces, and the center's words tile only the growth:
    short_i = s0 L^i and long_i = l0 L^i S^i, over aligned rotations."""
    s0 = shorts[0].symbols
    l0 = longs[0].symbols
    for rs0 in rotations(s0):
        for rl in rotations(L):
            if any(CyclicWord.roman_word(rs0 + rl * i) != shorts[i]
                   for i in range(1, len(shorts))):
                continue
            for rl0 in rotations(l0):
                for rl2 in rotations(L):
                    for rs in rotations(S):
                        if all(CyclicWord.roman_word(rl0 + rl2 * i + rs * i) == longs[i]
                               for i in range(1, len(longs))):
                            return SplittingWitness(side, rs, (), rl2, (), rl, rs0, 0)
    return None
