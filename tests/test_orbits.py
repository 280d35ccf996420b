import random
import tracemalloc

import pytest

from pentaflow import orbits
from pentaflow.directions import (
    BOTTOM,
    DirectionIndex,
    _exponents,
    arc_left_vertex,
    arc_right_vertex,
    index_strings_to_depth,
)
from pentaflow.orbits import (
    CyclicWord,
    OrbitVector,
    WordError,
    apply_L,
    apply_M,
    check_M,
    enhance,
    orbit_of_index,
    quintuple_relation,
    reduce_word,
    reduction_parent,
    roman_of_arabic,
    rotate_alphabet,
    rotations,
    vector_of,
    vectors_of_index,
)
from pentaflow.periods import period_of_index
from pentaflow.verify import _all_indices
import reference
from reference import DEPTH3, W


#: the worked example word and its four published shift rows
EXAMPLE = W("4 3 2 3 4 1 4 1")
SHIFT_ROWS = {
    1: W("5 4 3 4 5 2 5 2"),
    2: W("1 5 4 5 1 3 1 3"),
    3: W("2 1 5 1 2 4 2 4"),
    4: W("3 2 1 2 3 5 3 5"),
}
ENHANCED_ROWS = {
    1: W("5 2 3 4 3 4 3 2 5 2 5 2"),
    2: W("1 4 3 2 5 2 3 4 3 2 5 2 3 4 1 4 3 4 1 4 3 4"),
    3: W("2 3 4 1 4 3 2 5 2 3 4 1 4 3 2 3 4 3 2 3 4 3"),
    4: W("3 2 3 4 1 4 3 2 3 2 5 2 3 2 5 2"),
}


def test_cyclic_equality():
    assert W("4 3 2 3 4 1 4 1") == W("4 1 4 3 2 3 4 1")
    assert W("2 5") == W("5 2")
    assert W("2 5") != W("2 3")
    assert hash(W("2 5")) == hash(W("5 2"))


def test_equality_and_hash_follow_the_least_rotation():
    rng = random.Random(19800101)
    words = [(1, 2) * 7, (2, 1) * 7, (3,) * 9, (4,), (2, 1), (1, 2), (5, 5)]
    for _ in range(300):
        n = rng.randint(1, 40)
        hi = rng.choice((2, 3, 5))
        words.append(tuple(rng.randint(1, hi) for _ in range(n)))
    # equal counts that are no rotation, and a rotation's square
    words += [(1, 2, 1, 2), (1, 1, 2, 2), (2, 5), (2, 5, 2, 5)]
    for roman in (False, True):
        pool = [s for s in words if max(s) <= (4 if roman else 5)]
        keys = [reference.least_rotation(s) for s in pool]
        cyclic = [CyclicWord(s, roman) for s in pool]
        for s, key, w in zip(pool, keys, cyclic):
            assert key == min(rotations(s)), s
            k = rng.randrange(len(s))
            turned = CyclicWord(s[k:] + s[:k], roman)
            assert turned == w and hash(turned) == hash(w), s
            if max(s) <= 4:  # the same symbols in the other alphabet
                assert w != CyclicWord(s, not roman)
            for other_key, v in zip(keys, cyclic):
                assert (w == v) == (key == other_key), (s, v)
                if key == other_key:
                    assert hash(w) == hash(v)
    assert W("1 2 1 2") != W("1 1 2 2") and hash(W("1 2 1 2")) == hash(W("1 1 2 2"))
    assert W("2 5") != W("2 5 2 5") and W("2 5 2 5") != W("2 5")


@pytest.mark.parametrize("text, bad", [
    ("I 2", "2"), ("I V", "V"), ("ii III x", "x"), ("1 V", "V"), ("2 5 3.0", "3.0"),
])
def test_parse_names_the_bad_token(text, bad):
    # a word's first token fixes its alphabet; a token outside it is a
    # WordError that names it, whichever alphabet it came from
    with pytest.raises(WordError, match=f"'{bad}'"):
        CyclicWord.parse(text)


def test_rotate_alphabet():
    for j, want in SHIFT_ROWS.items():
        got = rotate_alphabet(EXAMPLE, j)
        assert got.symbols == want.symbols  # rows match symbol for symbol
    assert rotate_alphabet(EXAMPLE, 0) == EXAMPLE
    with pytest.raises(WordError):
        rotate_alphabet(roman_of_arabic(W("2 5")), 1)


def test_enhance_display_rows():
    for j in (1, 2, 3, 4):
        assert enhance(SHIFT_ROWS[j]) == ENHANCED_ROWS[j]


def test_enhance_adjacent_pair():
    assert enhance(W("2 5")) == W("2 5")


def test_reduce_examples():
    assert reduce_word(W("5 2 3 4 3 2 3 4 3 2")) == W("4 2 4 5")
    assert reduce_word(W("4 3 4 3")) == W("4 3 4 3")


def test_reduce_inverts_enhance_on_corpus():
    for idx in DEPTH3:
        for kind in ("short", "long"):
            w = orbit_of_index(idx, kind)
            for j in (1, 2, 3, 4):
                rotated = rotate_alphabet(w, j)
                assert reduce_word(enhance(rotated)) == rotated


def test_roman_arabic_round_trip():
    assert roman_of_arabic(W("4 3 2 3 4 1 4 1")) == CyclicWord.parse("I IV II II")
    assert roman_of_arabic(W("2 5")) == CyclicWord.parse("III")
    with pytest.raises(WordError):
        roman_of_arabic(W("1 5 3 5"))
    for s in index_strings_to_depth(2):
        idx = DirectionIndex.from_digits(s)
        w = orbit_of_index(idx, "short")
        assert reference.arabic_of_roman(roman_of_arabic(w)) == w


def test_base_orbits():
    assert orbit_of_index(DirectionIndex(), "short") == W("2 5")
    assert orbit_of_index(DirectionIndex(), "long") == W("4 3")
    assert orbit_of_index(BOTTOM, "short") == W("4 1")
    assert orbit_of_index(BOTTOM, "long") == W("2 3")


def test_generation_one_orbits():
    assert orbit_of_index(DirectionIndex((1,)), "short") == W("3 4 1 4")
    assert orbit_of_index(DirectionIndex((2,)), "short") == W("4 3 2 3")
    assert orbit_of_index(DirectionIndex((3,)), "short") == W("5 2 3 2")


def test_published_word_sits_at_the_mirror_index():
    # the worked example's word is the short orbit of the reflected index;
    # see CONVENTIONS.md for the orientation calibration
    assert orbit_of_index(DirectionIndex((3, 1)), "short") == EXAMPLE
    assert orbit_of_index(DirectionIndex((0, 3)), "short") == W("4 3 2 5 2 5 2 3")
    assert roman_of_arabic(orbit_of_index(DirectionIndex((2, 3)), "short")) \
        == CyclicWord.parse("IV I IV II I")


def test_vector_examples():
    assert vector_of(EXAMPLE) == OrbitVector(1, 2, 0, 1)
    assert vector_of(CyclicWord.parse("III")) == OrbitVector(0, 0, 1, 0)
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
        assert sv.as_tuple() == ws and lv.as_tuple() == wl


def test_vectors_of_index_agree_with_word_vectors():
    # the apply_L recursion against the symbol counts of the built words
    idxs = {DirectionIndex.from_digits(s) for s in index_strings_to_depth(6)}
    idxs |= {DirectionIndex(), BOTTOM}
    for idx in idxs:
        sv, lv = vectors_of_index(idx)
        assert sv == vector_of(orbit_of_index(idx, "short")), idx
        assert lv == vector_of(orbit_of_index(idx, "long")), idx


def test_generation_step_shifts_are_the_rotation_exponents():
    # the retired engine's chain of generation steps, outermost first,
    # reaches the exponents that coordinate_of_index folds, on all 16,384
    # directions to depth 7
    for idx in _all_indices(7):
        shifts, digits = [], idx.digits
        while digits:
            shift, digits = reference._generation_step(digits)
            shifts.append(shift)
        assert shifts == _exponents(idx.digits), idx


def test_orbits_equal_the_parent_digit_engine_to_depth_six():
    # the same stored rotation of every word, not only the same cyclic word
    for idx in (*_all_indices(6), BOTTOM):
        for kind in ("short", "long"):
            want = reference._orbit_cached(idx.digits, idx.bottom, kind)
            assert orbit_of_index(idx, kind).symbols == want.symbols, (idx, kind)


def test_vectors_of_index_at_depth_16_build_no_word(monkeypatch):
    # periods 26,721,756 / 43,236,712: the words would need gigabytes
    def no_words(w):
        raise AssertionError("vectors_of_index built a word")

    monkeypatch.setattr(orbits, "enhance", no_words)
    idx = DirectionIndex.parse("1212121212121212")
    tracemalloc.start()
    try:
        sv, lv = vectors_of_index(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    pp = period_of_index(idx)
    assert (sv.period, lv.period) == (pp.short, pp.long) == (26_721_756, 43_236_712)
    assert check_M(sv, lv)


@pytest.mark.parametrize("digits", [500, 1200])
def test_deep_orbits_stay_under_the_recursion_limit(digits):
    # from a cold cache, one level of recursion per digit reached Python's
    # limit at 497 digits; the long word of 0^499 1 has 2,006 symbols
    orbits._orbit_cached.cache_clear()
    idx = DirectionIndex.parse("0" * (digits - 1) + "1")
    sv, lv = vectors_of_index(idx)
    long = orbit_of_index(idx, "long")
    assert len(long) == 2 * period_of_index(idx).long
    assert (vector_of(orbit_of_index(idx, "short")), vector_of(long)) == (sv, lv)


def test_apply_L():
    assert apply_L(1, OrbitVector(0, 0, 1, 0)) == OrbitVector(1, 1, 0, 0)
    assert apply_L(4, OrbitVector(0, 0, 1, 0)) == OrbitVector(0, 1, 0, 0)
    with pytest.raises(ValueError):
        apply_L(5, OrbitVector(0, 0, 0, 0))


def test_L_reproduces_period_recursion():
    # the generation step multiplies vectors by L and the word lengths by
    # the same rule the period pairs follow
    for idx in DEPTH3:
        sv, lv = vectors_of_index(idx)
        pp = period_of_index(idx)
        assert sv.period == pp.short and lv.period == pp.long


def test_M_relation():
    assert check_M(OrbitVector(0, 0, 1, 0), OrbitVector(1, 0, 0, 0))
    assert check_M(OrbitVector(1, 1, 0, 0), OrbitVector(1, 0, 1, 1))
    assert not check_M(OrbitVector(1, 0, 0, 0), OrbitVector(1, 0, 0, 0))
    for s in index_strings_to_depth(4):
        idx = DirectionIndex.from_digits(s)
        sv, lv = vectors_of_index(idx)
        assert check_M(sv, lv)


def test_M_squared_is_M_plus_identity():
    basis = [OrbitVector(1, 0, 0, 0), OrbitVector(0, 1, 0, 0),
             OrbitVector(0, 0, 1, 0), OrbitVector(0, 0, 0, 1)]
    for e in basis:
        assert apply_M(apply_M(e)) == apply_M(e) + e


def test_quintuple_relation():
    a, A = OrbitVector(0, 0, 1, 0), OrbitVector(1, 0, 0, 0)
    b, B = OrbitVector(0, 1, 0, 0), OrbitVector(0, 0, 0, 1)
    mids = quintuple_relation(a, A, b, B)
    assert [(m[0].as_tuple(), m[1].as_tuple()) for m in mids] == [
        ((1, 1, 0, 0), (1, 0, 1, 1)),
        ((1, 0, 0, 1), (1, 1, 1, 1)),
        ((0, 0, 1, 1), (1, 1, 0, 1)),
    ]
    z = OrbitVector(0, 0, 0, 0)
    assert all(m == (z, z) for m in quintuple_relation(z, z, z, z))


def test_quintuple_relation_gives_the_children_vectors():
    # the arc formula on whole vectors: the three children of every arc to
    # depth 4, left to right, against the exponent fold of each child
    children = 0
    for p in [(), *index_strings_to_depth(4)]:
        a, A = vectors_of_index(arc_left_vertex(p))
        b, B = vectors_of_index(arc_right_vertex(p))
        for j, kid in enumerate(quintuple_relation(a, A, b, B), start=1):
            assert kid == vectors_of_index(DirectionIndex.from_digits(p + (j,)))
            children += 1
    assert children == 1023


def test_reduction_invariant():
    # reducing a generation k >= 2 orbit and shifting by the complement of
    # its first digit lands on the recursion parent's orbit
    for idx in DEPTH3:
        if idx.generation < 2:
            continue
        parent = reduction_parent(idx)
        shift = (4 - idx.digits[0]) % 5
        for kind in ("short", "long"):
            red = rotate_alphabet(reduce_word(orbit_of_index(idx, kind)), shift)
            assert red == orbit_of_index(parent, kind)


def test_mirror_vector():
    # the reflected orbit's vector is the original's, components reversed
    for idx in DEPTH3:
        sv, _ = vectors_of_index(idx)
        mv, _ = vectors_of_index(idx.mirrored())
        assert mv.as_tuple() == sv.as_tuple()[::-1]


def test_alphabet_guards():
    with pytest.raises(WordError):
        CyclicWord.arabic(())
    with pytest.raises(WordError):
        CyclicWord.arabic((6,))
    with pytest.raises(WordError):
        roman_of_arabic(W("1 2 3"))  # odd length
