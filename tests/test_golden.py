import random
from fractions import Fraction

import pytest

from pentaflow.golden import (
    GoldenNum,
    INFINITY,
    IDENTITY_MAP,
    MoebiusMap,
    PentaNum,
    PHI,
    ProjectivePoint,
    R_MAP,
    S_SQUARED,
    T_MAP,
    ZERO,
    ONE,
    decimal_of,
)
from pentaflow.directions import DirectionIndex, coordinate_of_index, index_strings_to_depth
import reference
from reference import g, projectively_equal


def rand_golden(rng):
    return GoldenNum(
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
    )


def test_defining_relation():
    assert PHI * PHI == g(1, 1)
    assert g(4) * PHI * PHI * PHI * PHI == g(8, 12)


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (rand_golden(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if not y.is_zero():
            assert (x / y) * y == x
        assert x + (-x) == ZERO


def test_sign_examples():
    assert g(-8, 5).sign() == 1          # 5 phi - 8
    assert ZERO.sign() == 0
    assert g(1, -1).sign() == -1         # 1 - phi


def test_sign_multiplicative_and_decimal_agreement():
    rng = random.Random(11)
    for _ in range(300):
        x, y = rand_golden(rng), rand_golden(rng)
        assert (x * y).sign() == x.sign() * y.sign()
        d = x.to_decimal(50)
        approx = (d > 0) - (d < 0)
        assert approx == x.sign()


def test_division_by_zero_distinct_error():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        PentaNum(ZERO, ZERO).inverse()


def test_penta_defining_relation():
    s = PentaNum(ZERO, ONE)  # sin 36 degrees
    assert s * s == PentaNum(S_SQUARED, ZERO)


def test_penta_sign():
    assert PentaNum(ZERO, ONE).sign() == 1
    assert PentaNum(ZERO, -ONE).sign() == -1
    # cos 36 = phi/2 exceeds sin 36
    assert PentaNum(g(0, Fraction(1, 2)), -ONE).sign() == 1
    assert PentaNum(g(0, Fraction(-1, 2)), ONE).sign() == -1


def test_penta_field_laws_random():
    rng = random.Random(13)
    for _ in range(150):
        x = PentaNum(rand_golden(rng), rand_golden(rng))
        y = PentaNum(rand_golden(rng), rand_golden(rng))
        assert x * y == y * x
        if not y.is_zero():
            assert (x * y.inverse()) * y == x


def test_decimal_rendering():
    assert str(PHI.to_decimal(12)).startswith("1.6180339887")
    assert str(g(1, Fraction(-1, 2)).to_decimal(8)).startswith("0.1909830")
    assert str(decimal_of(ZERO, ONE, 8)).startswith("0.5877852")  # sin 36


def test_decimal_of_matches_the_retired_methods():
    # every coordinate to depth 6 as (x, 0), then seeded random (x, 0) and
    # (0, y); the digits and the exponent must agree, so the decimals are
    # compared as strings
    indices = {DirectionIndex.from_digits(s) for s in [(), *index_strings_to_depth(6)]}
    coords = [coordinate_of_index(idx).value for idx in indices]
    rng = random.Random(36)

    def big():
        return GoldenNum(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                         Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)))

    pairs = [*((x, ZERO) for x in coords), *((big(), ZERO) for _ in range(4000)),
             *((ZERO, big()) for _ in range(4000))]
    assert len(coords) == 4096
    for p, q in pairs:
        for digits in (15, 20, 25):
            got = str(decimal_of(p, q, digits))
            assert got == str(reference.penta_to_decimal(PentaNum(p, q), digits))
            if q.is_zero():
                assert got == str(reference.golden_to_decimal(p, digits))


def test_json_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        x = rand_golden(rng)
        assert GoldenNum.from_json(x.to_json()) == x


def test_moebius_generators():
    x = g(1, Fraction(-1, 2))  # 1 - phi/2
    assert T_MAP.apply(x).value == g(0, Fraction(1, 2))
    assert R_MAP.apply(x).value == x
    assert R_MAP.apply(g(0, Fraction(-1, 2))).value == g(4, Fraction(-5, 2))
    assert T_MAP.apply(INFINITY).value == g(0, Fraction(-1, 2))
    # R T alpha is the first new vertex, (5 phi - 8)/2
    rt = R_MAP @ T_MAP
    assert rt.apply(x).value == g(Fraction(-8, 2), Fraction(5, 2))


def test_moebius_orders():
    assert projectively_equal(R_MAP @ R_MAP, IDENTITY_MAP)
    # T has projective order exactly 5
    p = IDENTITY_MAP
    for k in range(1, 6):
        p = p @ T_MAP
        assert projectively_equal(p, IDENTITY_MAP) == (k == 5), k
    rt = R_MAP @ T_MAP
    p = IDENTITY_MAP
    for _ in range(100):
        p = p @ rt
        assert not projectively_equal(p, IDENTITY_MAP)


def test_moebius_inverse_and_infinity():
    m = R_MAP @ T_MAP @ T_MAP
    assert projectively_equal(m @ m.inverse(), IDENTITY_MAP)
    # the map with zero lower-left sends infinity to infinity
    tri = MoebiusMap(ONE, PHI, ZERO, ONE)
    assert tri.apply(INFINITY).is_infinity


def test_projective_point_equality():
    assert ProjectivePoint(PHI) == ProjectivePoint(g(0, 1))
    assert INFINITY != ProjectivePoint(ZERO)
