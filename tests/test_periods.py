import random

import pytest

from pentaflow.directions import BOTTOM, DirectionIndex
from pentaflow.golden import GoldenNum
from pentaflow.orbits import orbit_of_index, vectors_of_index
from pentaflow.periods import (
    PeriodPair,
    arithmetic_family_check,
    child_periods,
    period_of_index,
)
from pentaflow.verify import _all_indices, _period_via_tree
from reference import period_by_matrices


PUBLISHED_TABLE = {
    (): (1, 1),
    (0, 1): (3, 5),
    (0, 2): (4, 7),
    (0, 3): (4, 6),
    (1,): (2, 3),
    (1, 1): (5, 9),
    (1, 2): (7, 11),
    (1, 3): (6, 9),
    (2,): (2, 4),
}


def test_published_table():
    for digits, want in PUBLISHED_TABLE.items():
        assert period_of_index(DirectionIndex(digits)).as_tuple() == want
    assert period_of_index(BOTTOM).as_tuple() == (1, 1)


def test_deep_period_three_routes_agree():
    # the published text prints 6334 for this long period; the orbit
    # vectors, the arc recursion and the digit-matrix product all yield 6364
    # (and 6364/3932 approaches the golden ratio as it must)
    digits = (1, 2, 3, 1, 2, 3, 1, 2, 3)
    got = period_of_index(DirectionIndex(digits))
    assert got.as_tuple() == (3932, 6364)
    assert _period_via_tree(digits) == got
    assert period_by_matrices(DirectionIndex(digits)) == got


def test_periods_agree_by_matrix_tree_and_word_length_at_random_depth():
    # seeded indices at depth 10-14: the digit-matrix product (the retired
    # route), the arc recursion and the lengths of the engine's words (two
    # Arabic symbols per return) give the periods the orbit vectors count
    rng = random.Random(20110318)
    for _ in range(8):
        n = rng.randint(10, 14)
        digits = tuple(rng.randint(0, 3) for _ in range(n - 1)) + (rng.randint(1, 3),)
        idx = DirectionIndex(digits)
        got = period_of_index(idx)
        assert period_by_matrices(idx) == got
        assert _period_via_tree(digits) == got
        words = (len(orbit_of_index(idx, "short")), len(orbit_of_index(idx, "long")))
        assert words == (2 * got.short, 2 * got.long)


def test_child_periods_rows():
    row = child_periods(PeriodPair(1, 1), PeriodPair(1, 1))
    assert [p.as_tuple() for p in row] == [(2, 3), (2, 4), (2, 3)]
    row = child_periods(PeriodPair(1, 1), PeriodPair(2, 3))
    assert [p.as_tuple() for p in row] == [(3, 5), (4, 7), (4, 6)]


def test_child_periods_swap_symmetry():
    a, b = PeriodPair(2, 3), PeriodPair(4, 6)
    assert child_periods(a, b) == tuple(reversed(child_periods(b, a)))


def test_matrix_equals_tree_to_generation_four():
    for idx in _all_indices(4):
        assert period_by_matrices(idx) == _period_via_tree(idx.digits) == period_of_index(idx)


def test_matrix_reference_equals_period_of_index_to_depth_six():
    # the retired Z[phi] digit-matrix product against the orbit vectors'
    # symbol counts, on all 4,096 directions to depth 6 and the bottom corner
    for idx in [*_all_indices(6), BOTTOM]:
        assert period_by_matrices(idx) == period_of_index(idx), idx


def test_periods_use_no_field_arithmetic(monkeypatch):
    # periods and orbit vectors are integer folds: on a seeded 3,000-digit
    # index they need no golden-number product or sum
    rng = random.Random(20111019)
    idx = DirectionIndex(tuple(rng.randint(0, 3) for _ in range(2999)) + (rng.randint(1, 3),))

    def no_field(*_args):
        raise AssertionError("golden-number arithmetic")

    monkeypatch.setattr(GoldenNum, "__mul__", no_field)
    monkeypatch.setattr(GoldenNum, "__add__", no_field)
    pp = period_of_index(idx)
    sv, lv = vectors_of_index(idx)
    assert (sv.period, lv.period) == pp.as_tuple()
    assert pp.long > pp.short > 10 ** 1000


def test_monotone_growth_along_paths():
    for path in [(1, 2, 3, 1), (0, 0, 0, 1), (3, 3, 3, 3), (2, 1, 2, 1)]:
        prev = period_of_index(DirectionIndex())
        for k in range(1, len(path) + 1):
            idx = DirectionIndex.from_digits(path[:k])
            cur = period_of_index(idx)
            if idx.digits:
                assert cur.short >= prev.short and cur.long >= prev.long
                assert (cur.short, cur.long) != (prev.short, prev.long)
            prev = cur


def test_encoding():
    p = PeriodPair(2, 3)
    assert p.encode() == GoldenNum.of(2, 3)
    with pytest.raises(ValueError):
        PeriodPair(3, 2)


def test_family_checks():
    for digits, diff in [((), (1, 2)), ((1,), (3, 5)), ((2,), (4, 6)), ((3,), (3, 5))]:
        rep = arithmetic_family_check(DirectionIndex(digits), radius=3)
        assert rep.ok and rep.first_failure is None
        assert rep.difference == diff
        assert len(rep.entries) == 7
    rep = arithmetic_family_check(BOTTOM, radius=3)
    assert rep.ok and rep.difference == (1, 2)
    rep = arithmetic_family_check(DirectionIndex((1, 1)), radius=0)
    assert rep.ok and len(rep.entries) == 1
