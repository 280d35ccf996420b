"""Acceptance gate: one test per criterion, each printing a PASS line.

Two clauses assert literal published values that three independent
computation routes (and the geometric tracer) contradict; they are kept
verbatim and marked strict-xfail, with the verified companion value tested
alongside.  The analysis lives in the project notes; the conventions that
resolve the orientation of the index tree are in CONVENTIONS.md.
"""

import random
import time
from fractions import Fraction

import pytest

from pentaflow.analysis import (
    billiard_report,
    check_conjecture_concat,
    check_conjecture_splitting,
    displacement,
    length_identity_holds,
)
from pentaflow.directions import (
    BOTTOM,
    BOTTOM_COORD,
    ALPHA_COORD,
    DirectionIndex,
    arc_left_vertex,
    arc_right_vertex,
    coordinate_of_index,
    index_of_coordinate,
    index_strings_to_depth,
)
from pentaflow.golden import GoldenNum, PHI
from pentaflow.orbits import (
    CyclicWord,
    OrbitVector,
    apply_M,
    check_M,
    enhance,
    orbit_of_index,
    reduce_word,
    roman_of_arabic,
    rotate_alphabet,
    vector_of,
    vectors_of_index,
)
from pentaflow.periods import PeriodPair, child_periods, period_of_index
from pentaflow.tracer import iet_build, periodic_orbits_for_coordinate
from reference import DEPTH3, DEPTH3_AND_BOTTOM, W, period_by_matrices


def _announce(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def test_criterion_01_period_table():
    t0 = time.time()
    table = {
        (): (1, 1), (0, 1): (3, 5), (0, 2): (4, 7), (0, 3): (4, 6),
        (1,): (2, 3), (1, 1): (5, 9), (1, 2): (7, 11), (1, 3): (6, 9),
        (2,): (2, 4),
    }
    for digits, want in table.items():
        assert period_of_index(DirectionIndex(digits)).as_tuple() == want
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(1, f"period table reproduced exactly in {elapsed:.3f}s")


DEEP_INDEX = DirectionIndex((1, 2, 3, 1, 2, 3, 1, 2, 3))


@pytest.mark.xfail(strict=True,
                   reason="published value (3932, 6334) is a digit typo: the "
                          "digit-matrix product, the arc recursion, and the "
                          "orbit word lengths independently give (3932, 6364); "
                          "see the decisions ledger")
def test_criterion_02_deep_period_as_stated():
    assert period_of_index(DEEP_INDEX).as_tuple() == (3932, 6334)


def test_criterion_02_deep_period_verified():
    t0 = time.time()
    # the package counts the periods from the orbit vectors
    got = period_of_index(DEEP_INDEX)
    assert got.as_tuple() == (3932, 6364)
    # first route: the digit-matrix product over Z[phi]
    assert period_by_matrices(DEEP_INDEX) == got
    # second route: descend the arc recursion
    left = right = PeriodPair(1, 1)
    for d in DEEP_INDEX.digits[:-1]:
        kids = child_periods(left, right)
        bounds = [left, *kids, right]
        left, right = bounds[d], bounds[d + 1]
    assert child_periods(left, right)[DEEP_INDEX.digits[-1] - 1] == got
    # third route: the substitution engine's word lengths
    assert len(roman_of_arabic(orbit_of_index(DEEP_INDEX, "short"))) == 3932
    assert len(roman_of_arabic(orbit_of_index(DEEP_INDEX, "long"))) == 6364
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(2, f"deep period (3932, 6364) agreed by three routes in {elapsed:.3f}s")


EXAMPLE_WORD = W("4 3 2 3 4 1 4 1")


@pytest.mark.xfail(strict=True,
                   reason="the published example attaches this word to index "
                          "(0,3); under the orientation fixed by the vector "
                          "list (criterion 4) and the tracer (criterion 5) it "
                          "is the short orbit of the mirror index (3,1); see "
                          "CONVENTIONS.md and the decisions ledger")
def test_criterion_03_worked_example_index_as_stated():
    assert orbit_of_index(DirectionIndex((0, 3)), "short") == EXAMPLE_WORD


def test_criterion_03_orbit_examples():
    t0 = time.time()
    # the example word is an exact short orbit, at the mirror of the
    # published label, and the tracer agrees on both indices
    assert orbit_of_index(DirectionIndex((3, 1)), "short") == EXAMPLE_WORD
    x = coordinate_of_index(DirectionIndex((3, 1))).value
    s_tr, _ = periodic_orbits_for_coordinate(x, expected_long=6)
    assert s_tr.word == EXAMPLE_WORD
    x = coordinate_of_index(DirectionIndex((0, 3))).value
    s_tr, _ = periodic_orbits_for_coordinate(x, expected_long=6)
    assert s_tr.word == orbit_of_index(DirectionIndex((0, 3)), "short")

    # the four published shift-and-insert rows
    enhanced = {
        1: W("5 2 3 4 3 4 3 2 5 2 5 2"),
        2: W("1 4 3 2 5 2 3 4 3 2 5 2 3 4 1 4 3 4 1 4 3 4"),
        3: W("2 3 4 1 4 3 2 5 2 3 4 1 4 3 2 3 4 3 2 3 4 3"),
        4: W("3 2 3 4 1 4 3 2 3 2 5 2 3 2 5 2"),
    }
    for j, want in enhanced.items():
        assert enhance(rotate_alphabet(EXAMPLE_WORD, j)) == want

    # the published reduction example
    assert reduce_word(W("5 2 3 4 3 2 3 4 3 2")) == W("4 2 4 5")
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(3, f"display rows and reduction exact in {elapsed:.3f}s "
                 "(worked example's label is the mirror index; see ledger)")


def test_criterion_04_vector_list():
    published = [
        ((0, 0, 1, 0), (1, 0, 0, 0)),
        ((1, 1, 0, 0), (1, 0, 1, 1)),
        ((1, 0, 0, 1), (1, 1, 1, 1)),
        ((0, 0, 1, 1), (1, 1, 0, 1)),
        ((0, 1, 0, 0), (0, 0, 0, 1)),
    ]
    idxs = [DirectionIndex(), DirectionIndex((1,)), DirectionIndex((2,)),
            DirectionIndex((3,)), BOTTOM]
    for idx, (ws, wl) in zip(idxs, published):
        sv, lv = vectors_of_index(idx)
        assert (sv.as_tuple(), lv.as_tuple()) == (ws, wl)
    _announce(4, "vector list for the five base directions exact")


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for s in index_strings_to_depth(3):
        idx = DirectionIndex.from_digits(s)
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        s_tr, l_tr = periodic_orbits_for_coordinate(x, expected_long=pp.long)
        ws = orbit_of_index(idx, "short")
        wl = orbit_of_index(idx, "long")
        assert s_tr.word == ws and l_tr.word == wl
        assert len(roman_of_arabic(ws)) == pp.short
        assert len(roman_of_arabic(wl)) == pp.long
        assert len(ws) == 2 * pp.short and len(wl) == 2 * pp.long
        checked += 1
    elapsed = time.time() - t0
    assert checked == 84
    assert elapsed < 300
    _announce(5, f"substitution engine equals the exact trace on all 84 "
                 f"index strings, both kinds, in {elapsed:.1f}s")


def test_criterion_06_matrix_relation():
    # on the counts of the built words: vectors_of_index derives long as
    # M short
    for s in index_strings_to_depth(4):
        idx = DirectionIndex.from_digits(s)
        assert check_M(*(vector_of(orbit_of_index(idx, k)) for k in ("short", "long")))
    basis = [OrbitVector(1, 0, 0, 0), OrbitVector(0, 1, 0, 0),
             OrbitVector(0, 0, 1, 0), OrbitVector(0, 0, 0, 1)]
    for e in basis:
        assert apply_M(apply_M(e)) == apply_M(e) + e
    _announce(6, "long = M(short) through generation 4 and M^2 = M + I")


def test_criterion_07_arithmetic_families():
    from pentaflow.periods import arithmetic_family_check

    for digits in [(), (1,), (2,), (3,)]:
        rep = arithmetic_family_check(DirectionIndex(digits), radius=3)
        assert rep.ok
        b, B = rep.center_periods.as_tuple()
        assert rep.difference == (B, b + B)
    _announce(7, "signed period pairs of radius-3 families are arithmetic")


def test_criterion_08_length_identities():
    for idx in DEPTH3:
        x = coordinate_of_index(idx).value
        sv, lv = vectors_of_index(idx)
        assert length_identity_holds(sv, x)
        assert length_identity_holds(lv, x)
        assert (displacement(lv) - displacement(sv).scale(PHI)).is_zero()
    _announce(8, "squared-norm identity and phi-proportional displacements "
                 "through generation 3")


def test_criterion_09_billiard_lengths():
    t0 = time.time()
    seen = set()
    for s in index_strings_to_depth(2):
        idx = DirectionIndex.from_digits(s)
        if idx in seen:
            continue
        seen.add(idx)
        rep = billiard_report(idx)
        assert rep.passed, idx
    elapsed = time.time() - t0
    assert elapsed < 600
    _announce(9, f"billiard length = multiplier x surface length and the "
                 f"golden length ratio, {len(seen)} directions in {elapsed:.1f}s")


def test_criterion_10_conjecture_suites():
    t0 = time.time()
    prefixes = [()]
    arcs = [()]
    for _ in range(3):
        prefixes = [p + (j,) for p in prefixes for j in range(4)]
        arcs.extend(prefixes)
    for p in arcs:
        rep = check_conjecture_concat(arc_left_vertex(p), arc_right_vertex(p))
        assert rep.passed, p

    for beta in DEPTH3_AND_BOTTOM:
        rep = check_conjecture_splitting(beta, radius=1)
        assert rep.passed, beta

    # the pinned decomposition: the published center words and pieces
    beta = DirectionIndex((2, 3))
    assert roman_of_arabic(orbit_of_index(beta, "short")) == W("IV I IV II I")
    assert roman_of_arabic(orbit_of_index(beta, "long")) == \
        W("III IV III IV II I IV II I")
    ap = tuple(W("III IV II I IV II I").symbols)
    bp = tuple(W("III IV").symbols)
    a = tuple(W("III IV III IV II I IV").symbols)
    b = tuple(W("II I").symbols)
    c, d = (4,), tuple(W("I IV II I").symbols)
    g1s = roman_of_arabic(orbit_of_index(DirectionIndex((2, 2, 3)), "short"))
    g1l = roman_of_arabic(orbit_of_index(DirectionIndex((2, 2, 3)), "long"))
    assert CyclicWord(ap + bp + ap, roman=True) == g1s
    assert CyclicWord(d + c + d + a + b + a, roman=True) == g1l
    assert check_conjecture_splitting(DirectionIndex((1, 1)), radius=2).passed
    elapsed = time.time() - t0
    _announce(10, f"both experiments pass with witnesses on all arcs and "
                  f"centers through generation 3 in {elapsed:.1f}s "
                  "(pinned decomposition at the mirror center; see ledger)")


def test_criterion_11_property_suites():
    t0 = time.time()
    # shift-insert then reduce is the identity on the rotated corpus
    for idx in DEPTH3:
        for kind in ("short", "long"):
            w = orbit_of_index(idx, kind)
            for j in (1, 2, 3, 4):
                rotated = rotate_alphabet(w, j)
                assert reduce_word(enhance(rotated)) == rotated

    # the interval exchange is a bijection for 41 sampled parameters, of
    # either sign
    from pentaflow.golden import ZERO

    limit = GoldenNum.of(1, Fraction(-1, 2))
    for k in range(-20, 21):
        u = limit * GoldenNum.of(Fraction(k, 21))
        spec = iet_build(u)
        assert spec.u == u
        bounds = [ZERO, *spec.division_points, GoldenNum.of(0, 1)]
        images = sorted(
            ((lo + spec.translations[r], hi + spec.translations[r])
             for r, (lo, hi) in zip((4, 3, 2, 1), zip(bounds, bounds[1:]))),
            key=lambda ab: ab[0])
        assert images[0][0] == ZERO
        for (a0, a1), (b0, b1) in zip(images, images[1:]):
            assert a1 == b0
        assert images[-1][1] == GoldenNum.of(0, 1)

    # index round trip through generation 4
    for s in index_strings_to_depth(4):
        idx = DirectionIndex.from_digits(s)
        assert index_of_coordinate(coordinate_of_index(idx)) == idx

    elapsed = time.time() - t0
    _announce(11, f"reduction identity, exchange bijectivity, and index "
                  f"round trips in {elapsed:.1f}s")


@pytest.mark.xfail(strict=True,
                   reason="height-50 field points can sit close to shallow "
                          "vertices, forcing same-digit runs far beyond depth "
                          "60 (observed up to 1085); termination itself is "
                          "verified below; see the decisions ledger")
def test_criterion_11_termination_as_stated():
    rng = random.Random(2026)
    count = 0
    while count < 100:
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        x = GoldenNum(a, b)
        if not (BOTTOM_COORD < x < ALPHA_COORD):
            continue
        index_of_coordinate(x, max_depth=60)
        count += 1


def test_criterion_11_termination_verified():
    t0 = time.time()
    rng = random.Random(2026)
    count = 0
    deepest = 0
    while count < 100:
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        x = GoldenNum(a, b)
        if not (BOTTOM_COORD < x < ALPHA_COORD):
            continue
        idx = index_of_coordinate(x, max_depth=5000)
        assert coordinate_of_index(idx).value == x
        deepest = max(deepest, idx.generation)
        count += 1
    elapsed = time.time() - t0
    _announce(11, f"100 bounded-height samples invert exactly "
                  f"(deepest expansion {deepest}) in {elapsed:.1f}s")
