import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pentaflow.cli import main
from pentaflow.directions import BOTTOM, DirectionIndex, coordinate_of_index, index_strings_to_depth
from pentaflow.golden import GoldenNum, PentaNum, PHI, ZERO
from pentaflow.orbits import (
    ROMAN_OF_PAIR,
    CyclicWord,
    orbit_of_index,
    roman_of_arabic,
    vector_of,
)
from pentaflow.periods import period_of_index
from pentaflow import analysis, tracer
from pentaflow.tracer import (
    PENTAGON_LOWER,
    PENTAGON_UPPER,
    PlanePoint,
    SIDE_LABELS,
    SIDES,
    SaddleConnectionError,
    SingularOrbit,
    U_VEC,
    V_VEC,
    cross,
    direction_of_coordinate,
    direction_of_vector,
    iet_build,
    iet_orbit,
    periodic_orbits_for_coordinate,
    trace_billiard,
    trace_surface,
)
from pentaflow.verify import _all_indices
from reference import (
    DEPTH3_AND_BOTTOM,
    JUMPS,
    T0,
    cells_from_division_points,
    g,
    mirrored_spec,
    mirrored_step,
    outcome,
    reference_exit_side,
    reference_step,
    section_point,
    strips_by_trial,
    unfolded_by_reflections,
    unfolded_by_translations,
)


def center_of(verts) -> PlanePoint:
    return PlanePoint(sum((v.x for v in verts), ZERO) / g(5),
                      sum((v.y for v in verts), ZERO) / g(5))


def test_chart_pairings_are_parallel_translations():
    assert PENTAGON_LOWER == tuple(T0 - v for v in PENTAGON_UPPER)
    up_jumps, low_jumps = JUMPS
    d = direction_of_coordinate(g(Fraction(1, 10)))
    lower_ends = zip(PENTAGON_LOWER, PENTAGON_LOWER[1:] + PENTAGON_LOWER[:1])
    for side, (low0, low1) in zip(SIDES, lower_ends):
        assert cross(side.v1 - side.v0, low1 - low0).is_zero()
        # crossing one way and back is the identity
        assert (up_jumps[side.label] + low_jumps[side.label]).is_zero()
        # the chart's half turn about the side's midpoint, seen through
        # p -> T0 - p, is the side's translation, out of either copy
        for k in (0, Fraction(2, 7), Fraction(1, 2), 1):
            p = side.v0 + (side.v1 - side.v0).scale(g(k))
            pos, turned = tracer._half_turn(side, p, d)
            assert T0 - pos == p + up_jumps[side.label] and -turned == d
            q = T0 - p  # the same point of the lower copy's side
            pos, turned = tracer._half_turn(side, p, -d)
            assert pos == q + low_jumps[side.label] and turned == d
    # the shared horizontal side is glued by the zero translation
    assert up_jumps[SIDE_LABELS["DE"]].is_zero()


def test_pentagons_disjoint_and_located():
    assert tracer._inside(section_point(g(1)))
    inner_low = PENTAGON_LOWER[0]
    probe = PlanePoint(inner_low.x, inner_low.y + g(0, Fraction(1, 2)))
    assert not tracer._inside(probe) and tracer._inside(T0 - probe)
    assert not tracer._inside(PlanePoint(g(100), ZERO))
    # no vertex of the lower copy lies inside the upper one; by the mirror,
    # no vertex of the upper copy lies inside the lower one
    assert not any(tracer._inside(v) for v in PENTAGON_LOWER)


def test_surface_trace_starts_in_the_upper_copy():
    # both flows walk the upper pentagon's chart, so a start strictly inside
    # the lower copy is refused, as the billiard refuses one outside
    center = center_of(PENTAGON_LOWER)
    direction = direction_of_coordinate(g(Fraction(1, 10)))
    with pytest.raises(ValueError, match="strictly inside the upper pentagon"):
        trace_surface(center, direction, max_crossings=10)
    # its mirror in the upper copy traces
    assert trace_surface(T0 - center, direction, max_crossings=10).crossings == 10


def test_side_labeling_is_the_unique_calibrated_one():
    """Search all 120 labelings: the four strip words of the two boundary
    directions pin the labeling completely, and it steps through the sides
    pentagram-fashion."""
    names = ("AB", "BD", "DE", "EC", "CA")
    # crossing-name cycles of the four boundary strip orbits
    want = {
        ("AB", "BD"): (2, 5),   # top corner, short strip
        ("CA", "DE"): (4, 3),   # top corner, long strip
        ("CA", "EC"): (4, 1),   # bottom corner, short strip
        ("AB", "DE"): (2, 3),   # bottom corner, long strip
    }
    matches = []
    for perm in itertools.permutations((1, 2, 3, 4, 5)):
        lab = dict(zip(names, perm))
        ok = all(
            CyclicWord(tuple(lab[n] for n in seq)) == CyclicWord(w)
            for seq, w in want.items()
        )
        if ok:
            matches.append(lab)
    assert matches == [SIDE_LABELS]
    # constant step 3 around the pentagon: consecutive along the pentagram
    seq = [SIDE_LABELS[n] for n in names]
    steps = {(seq[(i + 1) % 5] - seq[i]) % 5 for i in range(5)}
    assert steps == {3}


def test_boundary_strip_words_and_displacements():
    x = coordinate_of_index(DirectionIndex()).value
    short, long = periodic_orbits_for_coordinate(x, expected_long=1)
    assert short.word == CyclicWord.parse("2 5")
    assert long.word == CyclicWord.parse("4 3")
    # displacements are one diagonal and phi diagonals
    dx, dy = short.displacement
    assert dx == U_VEC.x and dy == U_VEC.y
    lx, ly = long.displacement
    assert lx == U_VEC.x * PHI and ly == U_VEC.y * PHI
    assert short.length_squared == PHI * PHI
    assert long.length_squared == PHI * PHI * PHI * PHI


def test_budget_exhaustion_reports_open_trace():
    x = coordinate_of_index(DirectionIndex((1,))).value
    res = trace_surface(section_point(g(Fraction(1, 7))),
                        direction_of_coordinate(x), max_crossings=3)
    assert not res.closed
    assert isinstance(res.word, tuple) and len(res.word) == 3
    assert len(res.path) == 3
    assert PlanePoint(*res.displacement) == unfolded_by_translations(res)


def test_strip_search_fails_loudly_below_the_exact_period(monkeypatch):
    # index 2 has periods 2/4; a long period of 1 caps every trace at 2
    # crossings, so the first cell's orbit cannot close, and the error
    # carries the crossings the trace made
    x = coordinate_of_index(DirectionIndex((2,))).value
    exit_side, calls = tracer._exit_side, []

    def counted(pos, direction):
        calls.append(pos)
        return exit_side(pos, direction)

    monkeypatch.setattr(tracer, "_exit_side", counted)
    with pytest.raises(tracer.TraceBudgetExceeded) as e:
        tracer.strip_cells_for_coordinate(x, expected_long=1)
    assert e.value.cap == 2 and e.value.crossings == 2
    assert len(calls) == e.value.cap
    assert e.value.direction == direction_of_coordinate(x)
    assert "cap 2" in str(e.value) and str(e.value.direction) in str(e.value)


def test_every_period_below_the_exact_one_exhausts_the_strip_trace():
    # the cells do not depend on the period given, so a too-small one is
    # met only by the strip trace's cap, which the long strip always reaches
    cases = 0
    for idx in (*_all_indices(2), BOTTOM):
        x = coordinate_of_index(idx).value
        for expected_long in range(1, period_of_index(idx).long):
            with pytest.raises(tracer.TraceBudgetExceeded) as e:
                tracer.strip_cells_for_coordinate(x, expected_long)
            assert e.value.cap == e.value.crossings == 2 * expected_long, (idx, expected_long)
            cases += 1
    assert cases == 89


def test_exit_side_matches_the_nearest_hit_search(monkeypatch):
    # every crossing of the strip searches and every reflection of the
    # billiards at each index to depth 3 and both corners; the sector
    # directions point up, so the rays walked downwards include each
    # surface piece of the lower copy, seen through its mirror
    exit_side, calls = tracer._exit_side, []

    def checked(pos, direction):
        got = exit_side(pos, direction)
        assert got == reference_exit_side(pos, direction)
        calls.append(direction.y.sign())
        return got

    monkeypatch.setattr(tracer, "_exit_side", checked)
    for idx in DEPTH3_AND_BOTTOM:
        assert analysis.billiard_report(idx).passed, idx
    assert {-1, 1} <= set(calls) and len(calls) > 10_000


def test_cone_hits_raise_alike():
    # aim at each vertex of each pentagon from interior points: both the
    # sign rule and the nearest-hit search stop at the cone point.  The
    # tracer sees a ray (p, d) of the lower copy as (T0 - p, -d)
    mirrors = ((PENTAGON_UPPER, lambda p, d: (p, d)),
               (PENTAGON_LOWER, lambda p, d: (T0 - p, -d)))
    for verts, chart in mirrors:
        center = center_of(verts)
        for pos in (center, PlanePoint(center.x + g(Fraction(1, 9)), center.y),
                    PlanePoint(center.x, center.y - g(Fraction(1, 7)))):
            for v in verts:
                for direction in (v - pos, (v - pos).scale(g(3, -1))):
                    ray = chart(pos, direction)
                    assert tracer._inside(ray[0])
                    got = outcome(tracer._exit_side, *ray)
                    assert got == (SaddleConnectionError, "trajectory hits a cone point")
                    assert got == outcome(reference_exit_side, *ray)


def test_exit_side_divides_once(monkeypatch):
    # one GoldenNum.inverse per side left, in every trace and billiard
    inverse, exit_side, per_call = GoldenNum.inverse, tracer._exit_side, []
    count = [0]

    def counted_inverse(self):
        count[0] += 1
        return inverse(self)

    def counted_exit(*args):
        before = count[0]
        result = exit_side(*args)
        per_call.append(count[0] - before)
        return result

    monkeypatch.setattr(GoldenNum, "inverse", counted_inverse)
    monkeypatch.setattr(tracer, "_exit_side", counted_exit)
    for idx in (DirectionIndex((1,)), DirectionIndex((1, 2, 1)), BOTTOM):
        assert analysis.billiard_report(idx).passed
    assert per_call and set(per_call) == {1}


def test_vertex_hit_is_a_distinct_error():
    # aim straight at the apex cone point
    start = section_point(g(0, Fraction(1, 2)))
    up = PlanePoint(ZERO, g(1))
    with pytest.raises(SaddleConnectionError):
        trace_surface(start, up, max_crossings=10)


def test_direction_of_vector():
    u = direction_of_vector(g(1), g(0))
    assert u.x == U_VEC.x and u.y == U_VEC.y
    v = direction_of_vector(g(0), g(1))
    assert v.x == V_VEC.x and v.y == V_VEC.y
    assert (tracer.dot(U_VEC, U_VEC) - PHI * PHI).is_zero()
    # the symmetric combination is vertical
    w = direction_of_vector(g(0, 1), g(0, 1))
    assert w.x.is_zero() and w.y.sign() > 0
    with pytest.raises(ValueError):
        direction_of_vector(ZERO, ZERO)


def test_direction_of_coordinate_matches_sector_boundaries():
    d = direction_of_coordinate(coordinate_of_index(DirectionIndex()).value)
    assert cross(d, U_VEC).is_zero()
    d = direction_of_coordinate(coordinate_of_index(BOTTOM).value)
    assert cross(d, V_VEC).is_zero()


def test_iet_division_points():
    spec = iet_build(g(0))
    assert spec.division_points == (g(Fraction(1, 2)), g(0, Fraction(1, 2)),
                                    g(Fraction(-1, 2), 1))
    lens = spec.lengths()
    assert sum(lens.values(), ZERO) == PHI
    with pytest.raises(ValueError):
        iet_build(g(-1))
    with pytest.raises(ValueError):
        iet_build(g(1))


def test_iet_vertical_words():
    spec = iet_build(g(0))
    w, closed = iet_orbit(spec, g(Fraction(9, 20)), 100)
    assert closed and w == CyclicWord.parse("IV I")
    w, closed = iet_orbit(spec, g(Fraction(3, 10)), 100)
    assert closed and len(w) == 4
    assert vector_of(w) == vector_of(orbit_of_index(DirectionIndex((2,)), "long"))


def test_iet_boundary_period_one():
    spec = iet_build(g(1, Fraction(-1, 2)))
    w, closed = iet_orbit(spec, g(Fraction(1, 2)), 10)
    assert closed and w == CyclicWord.parse("III")
    w, closed = iet_orbit(spec, g(Fraction(3, 2)), 10)
    assert closed and w == CyclicWord.parse("I")


def test_iet_singular_orbit():
    spec = iet_build(g(0))
    with pytest.raises(SingularOrbit):
        iet_orbit(spec, g(Fraction(1, 2)), 10)


def test_iet_budget():
    # this orbit does not close within 1,000 steps, so a cap of 3 stops it
    spec = iet_build(g(Fraction(1, 7)))
    w, closed = iet_orbit(spec, g(Fraction(1, 9)), 3)
    assert not closed and w == (4, 1, 1)


def test_iet_bijection_on_sampled_parameters():
    limit = g(1, Fraction(-1, 2))
    for k in range(-20, 21):
        u = limit * g(Fraction(k, 21))
        spec = iet_build(u)
        assert spec.u == u
        # the four image intervals tile [0, phi) exactly
        images = []
        bounds = [ZERO, *spec.division_points, PHI]
        for roman, (lo, hi) in zip((4, 3, 2, 1), zip(bounds, bounds[1:])):
            t = spec.translations[roman]
            images.append((lo + t, hi + t))
        images.sort(key=lambda ab: ab[0])
        assert images[0][0] == ZERO
        for (a0, a1), (b0, b1) in zip(images, images[1:]):
            assert a1 == b0
        assert images[-1][1] == PHI


def test_exchange_step_matches_the_interval_scan():
    # every cell point of each index to depth 3, its mirror and both
    # corners, the diagonal's ends, points off it and seeded random points
    rng = random.Random(20111019)
    for idx in DEPTH3_AND_BOTTOM:
        x = coordinate_of_index(idx).value
        for u in dict.fromkeys((x, -x)):
            spec = iet_build(u)
            points = [*tracer.section_cell_points(u), g(Fraction(-1, 7)),
                      PHI + g(Fraction(1, 7))]
            points += [PHI * g(Fraction(rng.randint(1, 999), 1000)) for _ in range(10)]
            assert ZERO in points and PHI in points
            for p in points:
                for side in ("L", "R", None):
                    assert (outcome(spec.step, p, side)
                            == outcome(reference_step, spec, p, side)), (idx, u, p, side)


def test_signed_exchange_matches_the_mirror_view():
    rng = random.Random(20111018)
    limit = g(1, Fraction(-1, 2))
    for _ in range(40):
        x = -limit * g(Fraction(rng.randint(0, 60), 60))
        spec = iet_build(x)
        points = [p for p in spec.division_points if ZERO < p < PHI]
        while len(points) < 8:
            p = g(Fraction(rng.randint(-999, 999), 1000),
                  Fraction(rng.randint(0, 999), 1000))
            if ZERO < p < PHI:
                points.append(p)
        for p in points:
            for side in ("L", "R", None):
                if side is None and p in spec.division_points:
                    continue
                assert spec.step(p, side) == mirrored_step(x, p, side)


def test_negative_coordinates_have_the_mirrored_exchange():
    # the one closed form gives, at every negative coordinate to depth 6,
    # the IETSpec the retired branch built from -u through p -> phi - p
    coords = [coordinate_of_index(DirectionIndex.from_digits(s)).value
              for s in index_strings_to_depth(6)]
    negative = [u for u in coords if u.sign() < 0]
    assert negative
    for u in negative:
        assert iet_build(u) == mirrored_spec(u), u


def test_strip_search_matches_the_trial_search():
    for s in [*index_strings_to_depth(2), (1, 2, 1)]:
        idx = DirectionIndex.from_digits(s)
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        new = periodic_orbits_for_coordinate(x, expected_long=pp.long)
        old = strips_by_trial(x, pp.long)
        assert len(old) == 2
        for a, b in zip(new, old):
            assert a.word == b.word
            assert a.crossings == b.crossings
            assert a.length_squared == b.length_squared


def test_cells_are_the_strips_crossings():
    # the leaves from the division points and the diagonal's ends cut the
    # section into the strips' crossings; the exchange permutes them in
    # two cycles, of the short and the long period
    for idx in DEPTH3_AND_BOTTOM:
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        pts = tracer.section_cell_points(x)
        mids = [(lo + hi) / g(2) for lo, hi in zip(pts, pts[1:])]
        assert len(mids) == pp.short + pp.long, idx
        assert set(cells_from_division_points(x, pp.long + 2)) <= set(pts)
        spec = iet_build(x)
        image = {m: spec.step(m)[0] for m in mids}
        assert set(image.values()) == set(mids), idx
        cycles, seen = [], set()
        for m in mids:
            if m in seen:
                continue
            p, n = m, 0
            while p not in seen:
                seen.add(p)
                p, n = image[p], n + 1
            cycles.append(n)
        assert sorted(cycles) == sorted((pp.short, pp.long)), idx


def test_cell_points_step_alike_under_every_hash_seed():
    # the seeds are followed in a fixed order, not a set's string-hash
    # order, so the exchange sees the same steps in every process
    code = ("from pentaflow import directions, tracer\n"
            "calls, step = [], tracer.IETSpec.step\n"
            "def record(spec, p, side=None):\n"
            "    calls.append((p, side))\n"
            "    return step(spec, p, side)\n"
            "tracer.IETSpec.step = record\n"
            "idx = directions.DirectionIndex((1, 2))\n"
            "tracer.section_cell_points(directions.coordinate_of_index(idx).value)\n"
            "print(calls)")
    path = [str(Path(tracer.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                                PYTHONPATH=os.pathsep.join(filter(None, path)))
                           ).stdout for seed in range(4)]
    assert runs[0].startswith("[(GoldenNum(")
    assert runs[1:] == runs[:1] * 3


def test_strip_search_raises_on_cells_that_are_not_the_strips(monkeypatch):
    cells_of = tracer.section_cell_points
    # index 1: the whole diagonal as one cell sends its midpoint elsewhere
    x = coordinate_of_index(DirectionIndex((1,))).value
    monkeypatch.setattr(tracer, "section_cell_points", lambda x: [ZERO, PHI])
    with pytest.raises(ArithmeticError, match="off the midpoints"):
        tracer.strip_cells_for_coordinate(x, expected_long=3)
    # the top corner's two fixed cells, one cut in two: three cycles
    x = coordinate_of_index(DirectionIndex()).value
    lo, mid, hi = cells_of(x)
    cut = [lo, (lo + mid) / g(2), mid, hi]
    monkeypatch.setattr(tracer, "section_cell_points", lambda x: cut)
    with pytest.raises(ArithmeticError, match="found 3 strip"):
        tracer.strip_cells_for_coordinate(x, expected_long=1)


def test_iet_matches_surface_words():
    # the signed exchange against 2-D traces: each cell's 1-D orbit reads
    # the Roman word of one of the two traced strips, for either sign of x
    for s in index_strings_to_depth(2):
        idx = DirectionIndex.from_digits(s)
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        s_tr, l_tr = periodic_orbits_for_coordinate(x, expected_long=pp.long)
        spec = iet_build(x)
        got = set()
        pts = tracer.section_cell_points(x)
        for lo, hi in zip(pts, pts[1:]):
            w, closed = iet_orbit(spec, (lo + hi) / g(2), pp.long)
            assert closed
            got.add(w)
        assert got == {roman_of_arabic(s_tr.word), roman_of_arabic(l_tr.word)}


def test_section_map_agrees_with_geometric_returns():
    # the formula map is an independent route; cross it against real traces
    for digs in [(), (1,), (2,), (3,), (0, 3)]:
        x = coordinate_of_index(DirectionIndex(digs)).value
        pp = period_of_index(DirectionIndex(digs))
        spec = iet_build(x)
        p = g(Fraction(3, 11))
        word = []
        q = p
        for _ in range(pp.long):
            q, sym = spec.step(q)
            word.append(sym)
            if q == p:
                break
        assert q == p  # closes, matching complete periodicity
        res = trace_surface(section_point(p), direction_of_coordinate(x),
                            max_crossings=2 * pp.long)
        assert res.closed
        assert roman_of_arabic(res.word) == CyclicWord(word, roman=True)


def test_section_map_agrees_with_traced_prefix_at_random_parameters():
    # away from tree vertices: K returns of the formula map against the
    # first 2K crossings of the 2-D flow, read as Roman pairs
    rng = random.Random(20111005)
    K = 6
    limit = g(1, Fraction(-1, 2))  # 1 - phi/2, the sector's edge
    for n in range(8):
        x = g(Fraction(rng.randint(1, 190), 1000) * (-1) ** n)
        assert -limit < x < limit
        p = g(Fraction(rng.randint(1, 999), 1000)) * PHI
        spec = iet_build(x)
        q, word = p, []
        for _ in range(K):
            q, sym = spec.step(q)
            word.append(sym)
        res = trace_surface(section_point(p), direction_of_coordinate(x),
                            max_crossings=2 * K)
        assert not res.closed and len(res.word) == 2 * K
        pairs = zip(res.word[::2], res.word[1::2])
        assert [ROMAN_OF_PAIR[pair] for pair in pairs] == word


def test_surface_words_match_engine_to_generation_two():
    for s in index_strings_to_depth(2):
        idx = DirectionIndex.from_digits(s)
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        s_tr, l_tr = periodic_orbits_for_coordinate(x, expected_long=pp.long)
        assert s_tr.word == orbit_of_index(idx, "short")
        assert l_tr.word == orbit_of_index(idx, "long")
        assert len(s_tr.word) == 2 * pp.short
        assert len(l_tr.word) == 2 * pp.long


def test_trace_displacements_decompose_in_the_diagonal_basis():
    for digs in [(1,), (2,), (0, 3), (3, 1)]:
        idx = DirectionIndex(digs)
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        s_tr, _ = periodic_orbits_for_coordinate(x, expected_long=pp.long)
        v = vector_of(s_tr.word)
        want = direction_of_vector(PHI * g(v.c) + g(v.e), PHI * g(v.f) + g(v.d))
        dx, dy = s_tr.displacement
        assert dx == want.x and dy == want.y


def test_billiard_vertical_closes_in_one_period():
    idx = DirectionIndex((2,))
    x = coordinate_of_index(idx).value
    s_tr, _ = periodic_orbits_for_coordinate(x, expected_long=4)
    res = trace_billiard(s_tr.start, direction_of_coordinate(x), 200)
    assert res.closed
    assert res.length_squared == s_tr.length_squared


def test_billiard_corner_needs_five_traversals():
    # the base short orbit has invariant 2 mod 5, so the billiard orbit is
    # five times the surface orbit
    x = coordinate_of_index(DirectionIndex()).value
    cells = tracer.strip_cells_for_coordinate(x, expected_long=1)
    lo, hi, s_tr = cells[0]
    p = lo + (hi - lo) * g(Fraction(5, 13))
    res = trace_billiard(section_point(p), direction_of_coordinate(x), 200)
    assert res.closed
    assert len(res.word) == 5 * len(s_tr.word)
    assert res.length_squared == g(25) * s_tr.length_squared


def test_billiard_budget_and_guards():
    x = coordinate_of_index(DirectionIndex((1,))).value
    res = trace_billiard(section_point(g(Fraction(1, 7))),
                         direction_of_coordinate(x), max_reflections=2)
    assert not res.closed and len(res.word) == 2
    # an open trace's displacement is the unfolded end of its path, the
    # last reflection point, not that point as folded in the pentagon
    assert len(res.path) == 2
    assert PlanePoint(*res.displacement) == unfolded_by_reflections(res)
    assert PlanePoint(*res.displacement) != res.path[-1][1] - res.start
    with pytest.raises(ValueError):
        trace_billiard(PlanePoint(g(50), ZERO),
                       direction_of_coordinate(x), 10)


def test_flight_time_displacement_matches_the_unfolding_routes():
    # direction times flight time against the summed pairing translations
    # (surface) and the composed side reflections (billiard), exactly
    seen = set()
    for s in [*index_strings_to_depth(2), (1, 2, 1)]:
        idx = DirectionIndex.from_digits(s)
        if idx in seen:
            continue
        seen.add(idx)
        rep = analysis.billiard_report(idx)
        for res in (rep.surface_short, rep.surface_long):
            assert PlanePoint(*res.displacement) == unfolded_by_translations(res)
        for res in (rep.billiard_short, rep.billiard_long):
            assert PlanePoint(*res.displacement) == unfolded_by_reflections(res)
            assert len(res.path) == res.crossings + 1
            assert res.path[0][0] == res.start == res.path[-1][1]
    assert len(seen) == 17


def test_trace_json_report():
    x = coordinate_of_index(DirectionIndex((2,))).value
    s_tr, _ = periodic_orbits_for_coordinate(x, expected_long=4)
    data = json.loads(json.dumps(s_tr.to_json()))
    assert data["closed"] and data["word"]
    # each coordinate is the pair [p, q] meaning p + q*s
    p, q = (GoldenNum.from_json(half) for half in data["displacement"]["x"])
    assert (p, q) == (s_tr.displacement[0], ZERO)
    assert GoldenNum.from_json(data["length_squared"]) == s_tr.length_squared


def test_trace_json_matches_pinned_file():
    # both strips at 121 (periods 17/27), byte for byte as committed
    idx = DirectionIndex((1, 2, 1))
    x = coordinate_of_index(idx).value
    short, long = periodic_orbits_for_coordinate(x, period_of_index(idx).long)
    text = json.dumps({"short": short.to_json(), "long": long.to_json()},
                      indent=2, sort_keys=True) + "\n"
    pinned = Path(__file__).parent / "data" / "trace_121.json"
    assert text == pinned.read_text()


def test_display_forms_build_no_pentanum(monkeypatch, tmp_path, capsys):
    # messages, trace JSON and SVGs are written from the chart's Q[phi]
    # coordinates through golden.decimal_of, never through Q[phi][s]
    def forbidden(*args):
        raise AssertionError("a PentaNum was built")

    monkeypatch.setattr(PentaNum, "__init__", forbidden)
    idx = DirectionIndex((1,))
    x = coordinate_of_index(idx).value
    short, _ = periodic_orbits_for_coordinate(x, period_of_index(idx).long)
    assert str(short.direction) == "(-4 + 5/2*phi, (1)*s)"
    assert str(short.start) == "(5/2 - phi, 0)"
    assert str(short.path[1][0]) == "(-1/20 + 1/10*phi, (-3/10 - 19/10*phi)*s)"
    assert short.to_json()["displacement"] == {
        "x": [[[-1, 2], [1, 2]], [[0, 1], [0, 1]]],
        "y": [[[0, 1], [0, 1]], [[2, 1], [3, 1]]],
        "decimal": ["0.30901699437494742410", "4.0287400534704069747"],
    }
    with pytest.raises(tracer.TraceBudgetExceeded) as err:
        tracer.strip_cells_for_coordinate(x, 1)
    assert str(err.value) == ("trace in direction (-4 + 5/2*phi, (1)*s) made 2 "
                              "crossings without closing (cap 2)")
    for argv in (("2",), ("2", "--billiard")):
        assert main(["render", *argv, "--out", str(tmp_path / "o.svg")]) == 0
    capsys.readouterr()


def test_tracer_computes_nothing_in_q_phi_s(monkeypatch):
    # the chart keeps every coordinate in Q[phi], so neither the strip
    # search nor a billiard report multiplies, inverts or signs a PentaNum
    def forbidden(*args):
        raise AssertionError("PentaNum arithmetic in the tracer")

    for name in ("__mul__", "inverse", "sign"):
        monkeypatch.setattr(PentaNum, name, forbidden)
    idx = DirectionIndex((1, 2, 1))
    x = coordinate_of_index(idx).value
    short, long = periodic_orbits_for_coordinate(x, period_of_index(idx).long)
    assert (short.crossings, long.crossings) == (34, 54)
    assert analysis.billiard_report(DirectionIndex((1,))).passed
