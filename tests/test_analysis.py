from fractions import Fraction

import pytest

from pentaflow.analysis import (
    ChildConcatResult,
    billiard_multiplier,
    billiard_report,
    check_conjecture_concat,
    check_conjecture_splitting,
    displacement,
    displacement_norm_squared,
    length_identity_holds,
    length_report,
    length_squared_formula,
)
from pentaflow.directions import (
    BOTTOM,
    DirectionIndex,
    arc_left_vertex,
    arc_right_vertex,
    coordinate_of_index,
    index_strings_to_depth,
    indices_at_generation,
    neighbor_chain,
)
from pentaflow.golden import GoldenNum, PHI
from pentaflow.orbits import (
    CyclicWord,
    OrbitVector,
    orbit_of_index,
    roman_of_arabic,
    vectors_of_index,
)
from pentaflow.periods import child_periods, period_of_index
from pentaflow import analysis, tracer
from reference import (
    DEPTH3,
    DEPTH3_AND_BOTTOM,
    _concat_witness,
    _find_corner_splitting,
    _find_splitting,
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


def test_long_displacement_is_phi_times_short():
    for idx in DEPTH3:
        sv, lv = vectors_of_index(idx)
        ds, dl = displacement(sv), displacement(lv)
        assert (dl - ds.scale(PHI)).is_zero()


def test_length_identity():
    assert displacement_norm_squared(OrbitVector(0, 0, 1, 0)) == PHI * PHI
    for idx in DEPTH3:
        x = coordinate_of_index(idx).value
        sv, lv = vectors_of_index(idx)
        assert length_identity_holds(sv, x)
        assert length_identity_holds(lv, x)


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
    # at the corner the billiard needs 5 strip periods; with a multiplier
    # of 1 the routine stops after the strip's 2 crossings and says so
    monkeypatch.setattr(analysis, "billiard_multiplier", lambda v: 1)
    with pytest.raises(tracer.TraceBudgetExceeded) as e:
        billiard_report(DirectionIndex())
    assert e.value.cap == e.value.crossings == 2


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


def test_conjecture_concat_all_arcs_to_generation_two():
    prefixes = [()]
    arcs = [()]
    for _ in range(2):
        prefixes = [p + (j,) for p in prefixes for j in range(4)]
        arcs.extend(prefixes)
    for p in arcs:
        rep = check_conjecture_concat(arc_left_vertex(p), arc_right_vertex(p))
        assert rep.passed, p


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
