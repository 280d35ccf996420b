"""The value types: immutable __slots__ classes and named tuples.

Every one equals a copy and differs once a field changes, hashes as its
field tuple, prints as Name(field=value, ...) and raises AttributeError on
assignment; the validating constructors keep their error messages.
"""

import copy
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pentaflow import analysis, tracer
from pentaflow.directions import (
    DirectionIndex,
    IdealPentagon,
    arc_left_vertex,
    arc_right_vertex,
    coordinate_of_index,
    neighbor_family,
    pentagon_for_arc,
)
from pentaflow.golden import (
    ONE,
    T_MAP,
    ZERO,
    GoldenNum,
    PentaNum,
    ProjectivePoint,
)
from pentaflow.orbits import CyclicWord, OrbitVector, WordError
from pentaflow.periods import PeriodPair, arithmetic_family_check

SLOTS_CLASSES = {"GoldenNum", "PentaNum", "MoebiusMap", "PlanePoint", "OrbitVector",
                 "CyclicWord", "DirectionIndex", "PeriodPair", "IdealPentagon"}
NAMED_TUPLES = {"ProjectivePoint", "NeighborFamily", "FamilyReport", "Side",
                "TraceResult", "IETSpec", "LengthReport", "BilliardReport",
                "ChildConcatResult", "ConjectureReport", "SplittingWitness"}


@pytest.fixture(scope="module")
def cases():
    """Class name -> (value, a field, a different value for that field)."""
    num = GoldenNum(Fraction(1, 2), Fraction(-3))
    pnum = PentaNum(num, ONE)
    idx = DirectionIndex((1, 2))
    x = coordinate_of_index(DirectionIndex((2,))).value
    trace, _ = tracer.periodic_orbits_for_coordinate(x, expected_long=4)
    concat = analysis.check_conjecture_concat(arc_left_vertex(()), arc_right_vertex(()))
    rows = [
        (num, "b", Fraction(3)),
        (pnum, "q", ZERO),
        (T_MAP, "d", ZERO),
        (tracer.PlanePoint(num, ONE), "y", ZERO),
        (OrbitVector(1, 2, 3, 4), "f", 5),
        (CyclicWord((2, 5, 4, 3)), "symbols", (2, 5, 3, 4)),
        (idx, "digits", (1, 3)),
        (PeriodPair(2, 3), "long", 4),
        (pentagon_for_arc((1,)), "generation", 3),
        (ProjectivePoint(num), "value", None),
        (neighbor_family(DirectionIndex((1,)), 1), "center", DirectionIndex((2,))),
        (arithmetic_family_check(DirectionIndex((1,)), 1), "ok", False),
        (tracer.SIDES[0], "label", 9),
        (trace, "closed", False),
        (tracer.iet_build(ZERO), "u", ONE),
        (analysis.length_report(DirectionIndex((1,))), "multiplier", 7),
        (analysis.BilliardReport(idx, 1, trace, trace, trace, trace, True, True),
         "lengths_exact", False),
        (concat.results[0], "kind", "long"),
        (concat, "passed", False),
        (analysis.SplittingWitness("upper", (1,), (2,), (3,), (4,), (1,), (2,), 0),
         "common_prefix", 1),
    ]
    return {type(row[0]).__name__: row for row in rows}


def test_every_value_type_is_covered(cases):
    assert set(cases) == SLOTS_CLASSES | NAMED_TUPLES
    for name, (v, _, _) in cases.items():
        assert not hasattr(v, "__dict__"), name
        assert isinstance(v, tuple) == (name in NAMED_TUPLES), name


def _fields(v) -> dict:
    return {f: getattr(v, f) for f in type(v)._fields}


@pytest.mark.parametrize("name", sorted(SLOTS_CLASSES | NAMED_TUPLES))
def test_value_contract(cases, name):
    v, field, other = cases[name]
    fields = _fields(v)
    cls = type(v)

    rebuilt = cls(**fields)
    assert rebuilt == v and copy.copy(v) == v
    changed = cls(**{**fields, field: other})
    assert changed != v and not changed == v

    if name == "CyclicWord":
        # the hash is the same for every rotation, and equality is cyclic
        rotated = cls(v.symbols[1:] + v.symbols[:1], v.roman)
        assert hash(v) == hash(rebuilt) == hash(rotated) and rotated == v
    elif name == "IETSpec":
        with pytest.raises(TypeError):  # its translations are a dict
            hash(v)
    else:
        assert hash(v) == hash(tuple(fields.values()))
    if name in SLOTS_CLASSES:
        assert v != tuple(fields.values())

    body = ", ".join(f"{f}={value!r}" for f, value in fields.items())
    assert repr(v) == f"{name}({body})"

    with pytest.raises(AttributeError):
        setattr(v, field, other)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert _fields(v) == fields


def test_reprs_name_every_field():
    assert repr(GoldenNum.of(Fraction(1, 2), 3)) == \
        "GoldenNum(a=Fraction(1, 2), b=Fraction(3, 1))"
    assert repr(PeriodPair(2, 3)) == "PeriodPair(short=2, long=3)"
    assert repr(DirectionIndex(bottom=True)) == "DirectionIndex(digits=(), bottom=True)"
    assert repr(ProjectivePoint(None)) == "ProjectivePoint(value=None)"
    assert repr(CyclicWord((4, 1), roman=True)) == \
        "CyclicWord(symbols=b'\\x04\\x01', roman=True)"


def _raises(exc, message):
    return pytest.raises(exc, match="^" + re.escape(message) + "$")


def test_constructors_keep_their_validation():
    with _raises(ValueError, "BOTTOM carries no digits"):
        DirectionIndex((1,), bottom=True)
    with _raises(ValueError, "digit out of range: 4"):
        DirectionIndex((4,))
    with _raises(ValueError, "last digit must be nonzero (strip trailing zeros)"):
        DirectionIndex((1, 0))
    with _raises(ValueError, "invalid period pair (3, 2)"):
        PeriodPair(3, 2)
    with _raises(ValueError, "invalid period pair (0, 1)"):
        PeriodPair(0, 1)
    pentagon = pentagon_for_arc(())
    with _raises(ValueError, "an ideal pentagon has five vertices"):
        IdealPentagon(pentagon.vertices[:4], generation=1)
    with _raises(WordError, "empty word"):
        CyclicWord(())
    with _raises(WordError, "symbol 6 out of range for this alphabet"):
        CyclicWord((2, 6))
    with _raises(WordError, "symbol 5 out of range for this alphabet"):
        CyclicWord((5,), roman=True)
    # symbols are held as bytes, so values outside 0..255 must not reach
    # bytes() and its ValueError
    for bad in (0, -1, 300):
        with _raises(WordError, f"symbol {bad} out of range for this alphabet"):
            CyclicWord((bad,))


def test_import_loads_no_dataclass_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, pentaflow.cli; print(' '.join(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
