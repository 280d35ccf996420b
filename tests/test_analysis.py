import functools
import random
from fractions import Fraction
from unittest import mock

import pytest

from pentaflow.analysis import (
    ChildConcatResult,
    billiard_multiplier,
    billiard_report,
    check_conjecture_concat,
    check_conjecture_splitting,
    displacement,
    length_report,
    length_squared_formula,
)
from pentaflow.directions import (
    BOTTOM,
    DirectionIndex,
    arc_left_vertex,
    arc_right_vertex,
    index_strings_to_depth,
    indices_at_generation,
    neighbor_chain,
    neighbor_family,
)
from pentaflow.golden import GoldenNum, PHI
from pentaflow.orbits import (
    CyclicWord,
    OrbitVector,
    _is_rotation,
    orbit_of_index,
    roman_of_arabic,
    vectors_of_index,
)
from pentaflow.periods import PeriodPair, child_periods, period_of_index
from pentaflow import analysis, periods, tracer
from pentaflow.verify import _all_indices
from reference import (
    DEPTH3_AND_BOTTOM,
    _concat_witness,
    _find_corner_splitting,
    _find_splitting,
    arc_by_trial,
    g,
)


def test_displacement_examples():
    d = displacement(OrbitVector(0, 0, 1, 0))
    assert d.x == tracer.U_VEC.x and d.y == tracer.U_VEC.y
    d = displacement(OrbitVector(1, 0, 0, 0))
    assert d.x == tracer.U_VEC.x * PHI and d.y == tracer.U_VEC.y * PHI
    # the symmetric vector is vertical
    d = displacement(OrbitVector(1, 0, 0, 1))
    assert d.x.is_zero() and d.y.sign() > 0


def test_billiard_multiplier():
    assert billiard_multiplier(OrbitVector(1, 0, 0, 1)) == 1
    assert billiard_multiplier(OrbitVector(0, 0, 1, 0)) == 5
    # both kinds of one direction always share the multiplier
    for s in index_strings_to_depth(2):
        idx = DirectionIndex.from_digits(s)
        sv, lv = vectors_of_index(idx)
        assert billiard_multiplier(sv) == billiard_multiplier(lv)


def test_length_report():
    rep = length_report(DirectionIndex((2,)))
    assert rep.multiplier == 1
    assert rep.long_length_squared == PHI * PHI * rep.short_length_squared


def test_billiard_report_examples():
    rep = billiard_report(DirectionIndex((2,)))
    assert rep.passed and rep.multiplier == 1
    rep = billiard_report(DirectionIndex())
    assert rep.passed and rep.multiplier == 5
    # each billiard closes at its exact cap, the multiplier times the
    # surface crossings, also where the midpoint lies on the odd axis
    for surface, billiard in ((rep.surface_short, rep.billiard_short),
                              (rep.surface_long, rep.billiard_long)):
        assert billiard.crossings == 5 * surface.crossings


def test_billiard_below_its_exact_cap_fails_loudly(monkeypatch):
    # at the corner the billiard needs 5 strip periods; the cap does not
    # come from the multiplier, so with the multiplier patched to 1 the
    # billiard still closes after 10 reflections, and the lengths fail
    monkeypatch.setattr(analysis, "billiard_multiplier", lambda v: 1)
    rep = billiard_report(DirectionIndex())
    assert rep.multiplier == 1
    assert rep.billiard_short.crossings == rep.billiard_long.crossings == 10
    assert not rep.lengths_exact and not rep.passed


def test_concat_children_period_bookkeeping():
    # concatenation lengths agree with the period recursion before any search
    for left, right in [((), None), ((1,), (2,))]:
        li = DirectionIndex(left)
        ri = BOTTOM if right is None else DirectionIndex(right)
        a, A = (len(roman_of_arabic(orbit_of_index(li, k))) for k in ("short", "long"))
        b, B = (len(roman_of_arabic(orbit_of_index(ri, k))) for k in ("short", "long"))
        kids = child_periods(period_of_index(li), period_of_index(ri))
        assert [k.as_tuple() for k in kids] == [
            (b + A, A + a + B), (A + B, A + a + B + b), (a + B, B + b + A)]


def test_conjecture_concat_base_arc():
    rep = check_conjecture_concat(DirectionIndex(), BOTTOM)
    assert rep.passed
    assert all(r.witness is not None for r in rep.results)


def test_conjecture_concat_rejects_non_adjacent():
    with pytest.raises(ValueError):
        check_conjecture_concat(DirectionIndex((1,)), DirectionIndex((3,)))


def test_conjecture_splitting_pinned_center():
    """The published center decomposition: short IV I IV II I and long
    III IV III IV II I IV II I, with pieces a' = III IV II I IV II I and
    b' = III IV tiling the first chain neighbor as a'b'a'."""
    beta = DirectionIndex((2, 3))
    assert roman_of_arabic(orbit_of_index(beta, "short")) == CyclicWord.parse("IV I IV II I")
    assert roman_of_arabic(orbit_of_index(beta, "long")) == \
        CyclicWord.parse("III IV III IV II I IV II I")
    rep = check_conjecture_splitting(beta, radius=2)
    assert rep.passed
    upper = next(r for r in rep.results if r[0] == "upper")
    _, chain, w = upper
    assert chain[0] == "22" and chain[1] == "223"
    # the published pieces satisfy the same pattern
    ap = tuple(CyclicWord.parse("III IV II I IV II I").symbols)
    bp = tuple(CyclicWord.parse("III IV").symbols)
    a = tuple(CyclicWord.parse("III IV III IV II I IV").symbols)
    b = tuple(CyclicWord.parse("II I").symbols)
    c = tuple(CyclicWord.parse("IV").symbols)
    d = tuple(CyclicWord.parse("I IV II I").symbols)
    gamma1_short = roman_of_arabic(orbit_of_index(DirectionIndex((2, 2, 3)), "short"))
    gamma1_long = roman_of_arabic(orbit_of_index(DirectionIndex((2, 2, 3)), "long"))
    assert CyclicWord(ap + bp + ap, roman=True) == gamma1_short
    assert CyclicWord(d + c + d + a + b + a, roman=True) == gamma1_long
    # beginning condition: b' is a prefix of a
    assert a[:len(bp)] == bp


def test_conjecture_splitting_mirror_center():
    rep = check_conjecture_splitting(DirectionIndex((1, 1)), radius=2)
    assert rep.passed


def test_conjecture_splitting_corners_and_radius_zero():
    assert check_conjecture_splitting(DirectionIndex(), radius=1).passed
    assert check_conjecture_splitting(BOTTOM, radius=2).passed
    rep = check_conjecture_splitting(DirectionIndex((1,)), radius=0)
    assert rep.passed and rep.results == ()


def test_conjecture_splitting_rejects_a_negative_radius():
    # as neighbor_family does, instead of a silent failed report
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        check_conjecture_splitting(DirectionIndex((1,)), radius=-1)


def _family_wrong_at_1(monkeypatch):
    """The radius-2 family of index 1, its member at position 1 given one
    long return too many: (ok, first_failure) of the family check."""
    member = next(v for i, v, _ in neighbor_family(DirectionIndex((1,)), 2).members if i == 1)
    real = periods.period_of_index

    def wrong(v):
        p = real(v)
        return PeriodPair(p.short, p.long + (v == member))

    monkeypatch.setattr(periods, "period_of_index", wrong)
    rep = periods.arithmetic_family_check(DirectionIndex((1,)), radius=2)
    return rep.ok, rep.first_failure


@pytest.mark.parametrize("answer, want", [
    # the pieces are one symbol short of the target
    (lambda mp: analysis._concat_witness(b"\1\2\3", [b"\1", b"\2"]), None),
    # the lengths fit, but no rotation of 1 2 1 2 is 1 1 then 2 2
    (lambda mp: analysis._concat_witness(b"\1\2\1\2", [b"\1\1", b"\2\2"]), None),
    # at a corner, no rotations of 3 and 2 tile the short chain 3, 3 3
    (lambda mp: analysis._find_corner_splitting(b"\1", b"\2", [b"\3", b"\3\3"],
                                                [b"\4", b"\4\2\1"], "upper"), None),
    # the family's step breaks between positions 0 and 1
    (_family_wrong_at_1, (False, 1)),
], ids=["concat-lengths", "concat-offsets", "corner-tiling", "family"])
def test_each_checker_can_say_no(monkeypatch, answer, want):
    assert answer(monkeypatch) == want


def test_length_formula_closed_form():
    # at the vertical the closed form reduces to phi^4 s^2 times the count
    x = g(0)
    v = OrbitVector(1, 0, 0, 1)
    val = length_squared_formula(v, x)
    want = PHI * PHI * PHI * PHI * GoldenNum.of(Fraction(3, 4), Fraction(-1, 4)) * g(4, 4)
    # ((c+f) phi + (d+e))^2 = (2 phi)^2 = 4 phi^2 = 4 + 4 phi
    assert val == want


# ---------------------------------------------------------------------------
# the searches against the ones they replaced, kept in reference.py


def _roman(idx, kind):
    return roman_of_arabic(orbit_of_index(idx, kind))


def test_concat_witnesses_equal_the_reference_search():
    """Every arc to depth 3: the same children, patterns and witnesses."""
    for p in [(), *index_strings_to_depth(3)]:
        left, right = arc_left_vertex(p), arc_right_vertex(p)
        rep = check_conjecture_concat(left, right)
        assert [r.pattern for r in rep.results] == ["bA", "AaB", "AB", "AaBb", "aB", "BbA"]
        pieces = {"a": _roman(left, "short").symbols, "A": _roman(left, "long").symbols,
                  "b": _roman(right, "short").symbols, "B": _roman(right, "long").symbols}
        want = tuple(
            ChildConcatResult(r.child, r.kind, r.pattern, _concat_witness(
                _roman(r.child, r.kind), [pieces[name] for name in r.pattern]))
            for r in rep.results)
        assert repr(rep.results) == repr(want), p


def test_arc_for_endpoints_equals_the_trial_route():
    # only one count of zeros can reach the lower endpoint: every arc to
    # depth 4 gives its own prefix on both routes, and every other ordered
    # pair of indices to depth 2 is refused by both
    for p in [(), *index_strings_to_depth(4)]:
        left, right = arc_left_vertex(p), arc_right_vertex(p)
        assert analysis._arc_for_endpoints(left, right) == arc_by_trial(left, right) == p
    arcs = {(arc_left_vertex(p), arc_right_vertex(p)) for p in [(), *index_strings_to_depth(2)]}
    ends = (*_all_indices(2), BOTTOM)
    for left, right in ((l, r) for l in ends for r in ends if (l, r) not in arcs):
        for route in (analysis._arc_for_endpoints, arc_by_trial):
            with pytest.raises(ValueError):
                route(left, right)


@functools.cache
def _rotation_tests(radius):
    """One pass over every center to depth 3 and both corners at radius,
    with _is_rotation wrapped to record its targets: (beta, report, targets)
    for each center."""
    targets = []

    def recorded(x, ww):
        targets.append(ww)
        return _is_rotation(x, ww)

    runs = []
    with mock.patch.object(analysis, "_is_rotation", recorded):
        for beta in DEPTH3_AND_BOTTOM:
            targets = []
            runs.append((beta, check_conjecture_splitting(beta, radius), targets))
    return runs


def _generic(beta):
    return not beta.bottom and beta.digits


@pytest.mark.parametrize("radius", [1, 2])
def test_splitting_solves_long_0_instead_of_testing_it(radius):
    """long_0 = d a gives d from a, so no rotation test reads long_0."""
    for beta, rep, targets in _rotation_tests(radius):
        assert rep.passed and targets, beta
        for side in ("upper", "lower"):
            chain = neighbor_chain(beta, side, radius + 1)
            if chain:
                long_0 = _roman(chain[0], "long").symbols
                assert long_0 + long_0 not in targets, (beta, side)


@pytest.mark.parametrize("radius", [1, 2])
def test_splitting_reads_c_and_d_off_long_1(radius):
    """long_1 = d c d a b a gives c and d from a b a, so no rotation test
    reads long_1 at a generic center, and long_2 is still tested.  A
    corner's search tiles long_1 = l0 L S by rotation tests, so there only
    the verdict is checked."""
    for beta, rep, targets in _rotation_tests(radius):
        assert rep.passed, beta
        if not _generic(beta):
            continue
        for side in ("upper", "lower"):
            longs = [_roman(g, "long").symbols for g in neighbor_chain(beta, side, radius + 1)]
            assert longs[1] + longs[1] not in targets, (beta, side)
            assert radius < 2 or longs[2] + longs[2] in targets, (beta, side)


def test_splitting_reads_a_prime_b_prime_off_l_l():
    """(a', b') is read off the occurrences of a's head in L L, so the
    short chain is tested only on the rotations of L whose b' begins with
    it, not on every rotation of L, and the fit is kept across the cuts of
    one rotation of L while its b' still begins with the grown head: every
    generic center to depth 3 at radius 1, where every rotation test is a
    short one.  Searching the fit again at every cut made 1,339 tests here;
    keeping it makes 914."""
    tests = searched = 0
    for beta, rep, targets in _rotation_tests(1):
        if _generic(beta):
            assert rep.passed and len(rep.results) == 2, beta
            tests += len(targets)
            searched += len(rep.results) * len(_roman(beta, "long"))
    assert 0 < tests < searched, (tests, searched)
    assert tests < 1339, tests


def test_splitting_refuses_a_short_0_longer_than_l():
    """A cut past the end of L leaves no (a', b'): without the length
    guard the slices of L L would name a' = I II I here."""
    I, II = b"\x01", b"\x02"
    S, L = I, I + II
    shorts, longs = [I + II + I, (I + II + I) * 2], [I, I + I + I + II]
    assert _find_splitting(S, L, shorts, longs, "upper") is None
    assert analysis._find_splitting(S, L, shorts, longs, "upper") is None


@pytest.mark.parametrize("radius", [1, 2])
def test_splitting_witnesses_equal_the_reference_search(radius):
    """Every center to depth 3 and both corners: the same chains and the
    same witnesses, piece for piece."""
    for beta in DEPTH3_AND_BOTTOM:
        rep = check_conjecture_splitting(beta, radius)
        S, L = tuple(_roman(beta, "short").symbols), tuple(_roman(beta, "long").symbols)
        search = _find_corner_splitting if beta.bottom or not beta.digits else _find_splitting
        want = []
        for side in ("upper", "lower"):
            chain = neighbor_chain(beta, side, radius + 1)
            if chain:
                shorts = [_roman(g, "short") for g in chain]
                longs = [_roman(g, "long") for g in chain]
                want.append((side, tuple(str(g) for g in chain),
                             search(S, L, shorts, longs, side)))
        assert repr(rep.results) == repr(tuple(want)), beta
        assert rep.passed == (bool(want) and all(w is not None for _, _, w in want))


def _random_chains(rng, n):
    """n tries at a chain tiled by seeded random pieces over two letters,
    where several rotations of S often tile one cut of L (and a and b' need
    not share their beginning, so some have no splitting): (S, L, shorts,
    longs) for each try with S and L nonempty."""
    def word(k):
        return bytes(rng.choice(b"\x01\x02") for _ in range(k))

    for _ in range(n):
        a, b, c, d = (word(rng.randint(0, 3)) for _ in range(4))
        S, L = c + d, a + b
        if S and L:
            k, j = rng.randrange(len(L)), rng.randint(1, len(L))
            ap, bp = (L[k:] + L[:k])[:j], (L[k:] + L[:k])[j:]
            yield (S, L, [ap + (bp + ap) * i for i in range(3)],
                   [d + (c + d) * i + (a + b) * i + a for i in range(3)])


def test_splitting_rejects_the_chains_the_reference_rejects():
    """Random chains, each as drawn and then with one of S, L, short_0,
    short_1, long_0 and long_1 altered by one symbol, or with the short
    chain a'^(i+1) for an a' that is a slice of L L longer than L, as in the
    pinned case S = I, L = I II, at radius 1 and 2.  As drawn, the first
    splitting in increasing rotation is the reference's, and none is
    missed.  Altered, a candidate read off long_1 must still have two equal
    ds, solve long_0, be a rotation of S and have the length
    long_1 = d c d a b a gives it, and a fit read off L L must tile short_0
    as well as short_1 and be cut at no more than |L|, so the package's
    witness is the reference's.  Dropping any of these conditions fails
    here."""
    rng = random.Random(33)

    def altered(w):
        # one symbol inserted, flipped, or swapped with the next
        k, kind = rng.randrange(len(w) + 1), rng.randrange(3)
        if kind == 0 or k == len(w):
            return w[:k] + rng.choice((b"\x01", b"\x02")) + w[k:]
        if kind == 1 or k == len(w) - 1:
            return w[:k] + bytes([3 - w[k]]) + w[k + 1:]
        return w[:k] + w[k + 1:k + 2] + w[k:k + 1] + w[k + 2:]

    tried = past_l = sliced = found = several = 0
    for S, L, shorts, longs in _random_chains(rng, 3000):
        want = _find_splitting(S, L, shorts, longs, "upper")
        assert analysis._find_splitting(S, L, shorts, longs, "upper") == want, (S, L, shorts)
        if want is not None:
            found += 1
            # the witness's a b a occurs more than once in long_1 long_1
            aba = bytes(want.a + want.b + want.a)
            several += len(list(analysis._occurrences(longs[1] * 2, aba, len(longs[1])))) > 1
        which = rng.randrange(7)
        if which == 0:
            S = altered(S)
        elif which == 1:
            L = altered(L)
        elif which < 4:
            shorts[which - 2] = altered(shorts[which - 2])
        elif which < 6:
            longs[which - 4] = altered(longs[which - 4])
        elif len(L) > 1:
            k, j = rng.randrange(len(L)), rng.randint(len(L) + 1, 2 * len(L) - 1)
            shorts = [(L + L)[k:k + j] * (i + 1) for i in range(3)]
            sliced += 1
        for n in (2, 3):
            want = _find_splitting(S, L, shorts[:n], longs[:n], "upper")
            got = analysis._find_splitting(S, L, shorts[:n], longs[:n], "upper")
            assert got == want, (S, L, shorts[:n], longs[:n])
        tried += 1
        past_l += len(shorts[0]) > len(L)
    assert tried > 2000, tried
    assert past_l > 50, past_l
    assert sliced > 250, sliced
    assert found > 200, found
    assert several > 150, several


def test_occurrences_in_a_doubled_word():
    # an empty needle occurs at every offset: the cuts with |a| = 0 or |d| = 0
    assert list(analysis._occurrences(b"\x01\x02\x03" * 2, b"", 4)) == [0, 1, 2, 3]
    # overlapping occurrences are all found
    assert list(analysis._occurrences(b"\x01" * 4, b"\x01\x01", 4)) == [0, 1, 2]
    # an occurrence at or past hi is not yielded
    ww = b"\x02\x01\x03\x02\x01\x03"
    assert list(analysis._occurrences(ww, b"\x01\x03", 6)) == [1, 4]
    assert list(analysis._occurrences(ww, b"\x01\x03", 5)) == [1, 4]
    assert list(analysis._occurrences(ww, b"\x01\x03", 4)) == [1]
    assert list(analysis._occurrences(ww, b"\x01\x03", 1)) == []
    assert list(analysis._occurrences(ww, b"", 0)) == []


@pytest.mark.parametrize("depth, radius", [(4, 1), (3, 2)])
def test_splitting_witnesses_tile_their_chains(depth, radius):
    """Every generic center to the depth, on long words of up to 97 Roman
    symbols: each witness splits the center's orbits, tiles its chain in
    both patterns for every i, and a and b' agree on their first
    common_prefix = min(|a|, |b'|) symbols.  No search is run but the
    package's."""
    def word(pieces):
        return CyclicWord(pieces, roman=True)

    for beta in (i for gen in range(1, depth + 1) for i in indices_at_generation(gen)):
        rep = check_conjecture_splitting(beta, radius)
        assert rep.passed and len(rep.results) == 2, beta
        for side, names, w in rep.results:
            chain = neighbor_chain(beta, side, radius + 1)
            assert names == tuple(map(str, chain))
            assert word(w.c + w.d) == _roman(beta, "short"), (beta, side)
            assert word(w.a + w.b) == word(w.a_prime + w.b_prime) == _roman(beta, "long")
            for i, gamma in enumerate(chain):
                assert word(w.a_prime + (w.b_prime + w.a_prime) * i) == \
                    _roman(gamma, "short"), (beta, side, i)
                assert word(w.d + (w.c + w.d) * i + (w.a + w.b) * i + w.a) == \
                    _roman(gamma, "long"), (beta, side, i)
            k = w.common_prefix
            assert k == min(len(w.a), len(w.b_prime)) and w.a[:k] == w.b_prime[:k], (beta, side)
