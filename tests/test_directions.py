import random
from fractions import Fraction

import pytest

from pentaflow import directions
from pentaflow.directions import (
    ALPHA_COORD,
    BOTTOM,
    BOTTOM_COORD,
    DepthExceeded,
    DirectionIndex,
    GENERATION0_COORDS,
    SectorError,
    arc_left_vertex,
    arc_right_vertex,
    coordinate_of_index,
    in_closed_sector,
    index_of_coordinate,
    index_strings_to_depth,
    indices_at_generation,
    neighbor_chain,
    neighbor_family,
    pentagon_for_arc,
    pentagons_to_depth,
)
from pentaflow.golden import (
    GoldenNum,
    INFINITY,
    MoebiusMap,
)
from reference import (
    _coordinate_sequential,
    _fold_by_mirroring,
    _index_by_candidates,
    g,
    outcome,
)


def test_index_validation():
    with pytest.raises(ValueError):
        DirectionIndex((1, 0))
    with pytest.raises(ValueError):
        DirectionIndex((4,))
    assert DirectionIndex.from_digits((1, 0, 0)) == DirectionIndex((1,))
    assert DirectionIndex.from_digits((0, 0)) == DirectionIndex()
    assert DirectionIndex.parse("0 3") == DirectionIndex((0, 3))
    assert DirectionIndex.parse("01 2") == DirectionIndex((0, 1, 2))
    assert DirectionIndex.parse("bottom") == BOTTOM
    with pytest.raises(ValueError):
        DirectionIndex.parse("0x")


def test_index_digits_are_a_tuple_of_ints():
    # a list is stored as the tuple it holds, so the index hashes and its
    # coordinate is the tuple's
    idx = DirectionIndex([1, 2])
    assert idx.digits == (1, 2) and type(idx.digits) is tuple
    assert idx == DirectionIndex((1, 2)) and hash(idx) == hash(DirectionIndex((1, 2)))
    assert coordinate_of_index(idx) == coordinate_of_index(DirectionIndex((1, 2)))
    # a float or bool digit is refused where it is given, by name
    for digits, shown in [((1, 2.0), "2.0"), ((True, 2), "True"), (("1",), "'1'")]:
        with pytest.raises(ValueError, match=f"digit is not an int: {shown}"):
            DirectionIndex(digits)


def test_generation0_coordinates():
    vals = [str(p) for p in GENERATION0_COORDS]
    assert GENERATION0_COORDS[0].value == g(1, Fraction(-1, 2))
    assert GENERATION0_COORDS[1].value == g(0, Fraction(1, 2))
    assert GENERATION0_COORDS[2] is INFINITY or GENERATION0_COORDS[2].is_infinity
    assert GENERATION0_COORDS[3].value == g(0, Fraction(-1, 2))
    assert GENERATION0_COORDS[4].value == g(-1, Fraction(1, 2))


def test_coordinate_examples():
    assert coordinate_of_index(DirectionIndex()).value == ALPHA_COORD
    assert coordinate_of_index(DirectionIndex((1,))).value == g(-4, Fraction(5, 2))
    assert coordinate_of_index(DirectionIndex((2,))).value == g(0)
    assert coordinate_of_index(DirectionIndex((3,))).value == g(4, Fraction(-5, 2))
    assert coordinate_of_index(BOTTOM).value == BOTTOM_COORD
    # one level deeper: the third child of the top arc
    assert coordinate_of_index(DirectionIndex((0, 3))).value == g(Fraction(5, 2), Fraction(-3, 2))


def test_precomposed_factor_maps_match_the_sequential_route():
    rng = random.Random(20111021)
    deep = []
    for _ in range(8):
        n = rng.randint(20, 40)
        deep.append(DirectionIndex(tuple(rng.randint(0, 3) for _ in range(n - 1))
                                   + (rng.randint(1, 3),)))
    shallow = {DirectionIndex.from_digits(s) for s in index_strings_to_depth(6)}
    assert len(shallow) == 4096
    for idx in sorted(shallow, key=str) + [DirectionIndex(), BOTTOM] + deep:
        assert coordinate_of_index(idx) == _coordinate_sequential(idx), idx


def test_one_map_application_per_digit(monkeypatch):
    """coordinate_of_index applies one precomposed map per digit (three
    golden multiplications), and so does a renormalization step."""
    idx = DirectionIndex((1, 2) * 8)
    want = _coordinate_sequential(idx)
    muls, applies = [], []
    mul, apply = GoldenNum.__mul__, MoebiusMap.apply
    monkeypatch.setattr(GoldenNum, "__mul__", lambda a, b: muls.append(1) or mul(a, b))
    monkeypatch.setattr(MoebiusMap, "apply", lambda f, x: applies.append(1) or apply(f, x))
    assert directions._coordinate_cached.__wrapped__(idx.digits, False) == want
    assert len(applies) == 16 and len(muls) <= 3 * 16
    applies.clear()
    assert index_of_coordinate(want) == idx
    assert len(applies) == 16


def test_cuts_are_the_generation_one_vertices():
    assert directions._CUTS == tuple(
        coordinate_of_index(DirectionIndex((m,))).value for m in (1, 2, 3))
    assert directions._CUTS[0] > directions._CUTS[1] > directions._CUTS[2]
    for m, cut in enumerate(directions._CUTS, start=1):
        assert directions._RENORM_MAPS[m - 1].apply(cut).value == ALPHA_COORD


def _seed_2026_samples(n):
    # field points strictly inside the sector, numerators and denominators
    # up to 50
    rng = random.Random(2026)
    out = []
    while len(out) < n:
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        x = GoldenNum(a, b)
        if BOTTOM_COORD < x < ALPHA_COORD:
            out.append(x)
    return out


def test_sub_arc_lookup_matches_the_candidate_rule():
    shallow = {DirectionIndex.from_digits(s) for s in index_strings_to_depth(5)}
    points = [coordinate_of_index(idx).value
              for idx in sorted(shallow, key=str) + [BOTTOM]]
    points += _seed_2026_samples(20)
    for x in points:
        for budget in (3, 40, 2000):
            want = outcome(_index_by_candidates, x, budget)
            assert outcome(index_of_coordinate, x, budget) == want, (x, budget)


def test_index_of_coordinate_examples():
    assert index_of_coordinate(g(0)) == DirectionIndex((2,))
    assert index_of_coordinate(ALPHA_COORD) == DirectionIndex()
    assert index_of_coordinate(BOTTOM_COORD) == BOTTOM
    assert index_of_coordinate(g(-4, Fraction(5, 2))) == DirectionIndex((1,))
    with pytest.raises(SectorError):
        index_of_coordinate(g(1))
    with pytest.raises(SectorError):
        index_of_coordinate(INFINITY)


def test_depth_budget_reports_prefix():
    x = coordinate_of_index(DirectionIndex((1, 2, 3, 1)))
    with pytest.raises(DepthExceeded) as e:
        index_of_coordinate(x, max_depth=2)
    assert len(e.value.prefix) >= 1


def test_depth_budget_message_shows_the_ends_of_a_long_prefix():
    # 1/100000 lies next to the top corner: its expansion runs past the
    # default budget of 2000 digits, almost all of them 3
    with pytest.raises(DepthExceeded) as e:
        index_of_coordinate(g(Fraction(1, 100000)))
    prefix = e.value.prefix
    assert len(prefix) == 2000
    shown = ", ".join(map(str, prefix[:8])) + ", …, " + ", ".join(map(str, prefix[-8:]))
    assert str(e.value) == (f"no index found within depth budget; prefix ({shown}) "
                            "of 2000 digits")
    assert len(str(e.value)) < 200
    assert str(DepthExceeded((1, 2))).endswith("prefix (1, 2) of 2 digits")
    assert str(DepthExceeded((3,))).endswith("prefix (3) of 1 digit")


def test_index_of_coordinate_rejects_a_negative_depth(monkeypatch):
    # refused before any step: not a DepthExceeded with an empty prefix,
    # nor () at the top endpoint, nor BOTTOM at the other corner
    points = (coordinate_of_index(DirectionIndex((1, 2))).value, ALPHA_COORD, BOTTOM_COORD)
    monkeypatch.setattr(directions, "_RENORM_MAPS", None)
    for x in points:
        with pytest.raises(ValueError, match="max_depth must be nonnegative"):
            index_of_coordinate(x, max_depth=-1)
    assert index_of_coordinate(ALPHA_COORD, max_depth=0) == DirectionIndex()


def test_linear_fold_matches_the_mirroring_fold():
    rng = random.Random(20111104)
    assert directions._fold_digits([]) == ()
    for _ in range(500):
        ms = [rng.randint(1, 4) for _ in range(rng.randint(1, 40))]
        assert directions._fold_digits(ms) == _fold_by_mirroring(ms)


def test_pentagon_structure():
    pents = pentagons_to_depth(0)
    assert len(pents) == 1 and pents[0].vertices == GENERATION0_COORDS

    base = pentagon_for_arc(())
    want = [DirectionIndex(), DirectionIndex((1,)), DirectionIndex((2,)),
            DirectionIndex((3,)), BOTTOM]
    assert base.vertices == tuple(coordinate_of_index(v) for v in want)

    # the pentagon on the arc between the corner and the first vertex
    p0 = pentagon_for_arc((0,))
    want = [DirectionIndex(), DirectionIndex((0, 1)), DirectionIndex((0, 2)),
            DirectionIndex((0, 3)), DirectionIndex((1,))]
    assert p0.vertices == tuple(coordinate_of_index(v) for v in want)


def test_pentagons_walk_the_arcs_breadth_first():
    # the base pentagon, then the arcs of length 0, 1, 2 in lexicographic order
    arcs = [(), *((i,) for i in range(4)), *((i, j) for i in range(4) for j in range(4))]
    assert [p.arc for p in pentagons_to_depth(3)] == [None, *arcs]
    assert [p.generation for p in pentagons_to_depth(2)] == [0, 1, 2, 2, 2, 2]


def test_pentagons_sorted_and_nested():
    for pent in pentagons_to_depth(3):
        vs = pent.vertices
        if pent.arc is None:
            continue  # the base pentagon wraps through infinity
        coords = [v.value for v in vs]
        assert all((coords[i] - coords[i + 1]).sign() > 0 for i in range(4))
        # children lie strictly inside the parent arc
        for child in range(4):
            sub = pentagon_for_arc(pent.arc + (child,))
            lo, hi = sub.vertices[-1].value, sub.vertices[0].value
            assert (coords[-1] - lo).sign() <= 0 and (hi - coords[0]).sign() <= 0


def test_counts():
    # 4^d arcs at depth d, and 3 * 4^(d-1) new vertices of generation d
    for d in (1, 2, 3):
        assert len(index_strings_to_depth(d)) == sum(4 ** k for k in range(1, d + 1))
        assert len(indices_at_generation(d)) == 3 * 4 ** (d - 1)
    # depth-3 strings cover generation <= 3 vertices plus the corner aliases
    seen = {DirectionIndex.from_digits(s) for s in index_strings_to_depth(3)}
    want = {DirectionIndex()}
    for d in (1, 2, 3):
        want.update(indices_at_generation(d))
    assert seen == want


def test_enumerations_reject_a_negative_depth():
    # depth 0 holds only the empty string and generation 0 the top corner,
    # but a negative depth or generation is an error, as in pentagons_to_depth
    assert index_strings_to_depth(0) == []
    assert indices_at_generation(0) == [DirectionIndex()]
    for n in (-1, -3):
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            index_strings_to_depth(n)
        with pytest.raises(ValueError, match="^generation must be nonnegative$"):
            indices_at_generation(n)
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            pentagons_to_depth(n)


def test_neighbor_family_center():
    fam = neighbor_family(DirectionIndex((1,)), radius=3)
    names = {i: str(v) for i, v, _ in fam.members}
    assert names[0] == "()"
    assert names[1] == "03"
    assert names[-1] == "2"
    assert names[-2] == "11"
    assert len(fam.members) == 7
    # members on each side approach the center coordinate monotonically
    beta = fam.center_coord.value
    upper = [c.value for i, _, c in fam.members if i >= 0]
    assert all((upper[k] - upper[k + 1]).sign() > 0 for k in range(len(upper) - 1))
    assert all((v - beta).sign() > 0 for v in upper)


def test_neighbor_family_corners():
    fam = neighbor_family(DirectionIndex(), radius=2)
    names = [str(v) for _, v, _ in fam.members]
    assert names == ["0001", "001", "01", "1", "bottom"]

    fam = neighbor_family(BOTTOM, radius=2)
    names = [str(v) for _, v, _ in fam.members]
    assert names == ["()", "3", "33", "333", "3333"]
    assert len(fam.members) == 5



def test_neighbor_chain_rejects_an_unknown_side():
    # a side other than the two, even in another case, is no silent "lower"
    for side in ("Upper", "LOWER", "", "left"):
        with pytest.raises(ValueError, match=f"side must be 'upper' or 'lower', not {side!r}"):
            neighbor_chain(DirectionIndex((1,)), side, 2)


def test_neighbor_chain_rejects_a_negative_length():
    # as neighbor_family does a negative radius, not a silent empty chain
    for beta in (DirectionIndex((1, 2)), DirectionIndex(), BOTTOM):
        for side in ("upper", "lower"):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                neighbor_chain(beta, side, -3)
            assert neighbor_chain(beta, side, 0) == []


def test_arc_endpoints():
    assert arc_left_vertex((0, 0)) == DirectionIndex()
    assert arc_right_vertex((3, 3)) == BOTTOM
    assert arc_right_vertex((1, 3)) == DirectionIndex((2,))
    assert arc_left_vertex((2, 1)) == DirectionIndex((2, 1))


def test_mirror():
    assert DirectionIndex((0, 3)).mirrored() == DirectionIndex((3, 1))
    assert DirectionIndex().mirrored() == BOTTOM
    m = DirectionIndex((1, 2, 3)).mirrored()
    assert m.mirrored() == DirectionIndex((1, 2, 3))
    x = coordinate_of_index(DirectionIndex((1, 2))).value
    assert coordinate_of_index(DirectionIndex((1, 2)).mirrored()).value == -x


def test_in_closed_sector():
    assert in_closed_sector(coordinate_of_index(DirectionIndex((2,))))
    assert not in_closed_sector(INFINITY)
