"""Seeded inputs, items and answer checks for the three workloads.

Inputs are plain JSON data made from the seed alone; the package never sees
the seed.  Every workload is a stratified sample of a fixed population (a
frame): the population is sorted by an exact cost count and cut into
strata, each stratum into equal blocks, and the seed picks one member of
each block.  A stratum with blocks of one is taken whole.  Every member of
a block has the same chance to be drawn and no input is dropped, but each
seed gets the same mix of cheap and costly inputs.  Without this the
per-item costs (which span three orders of magnitude at this commit) make
one run's sample too noisy to compare.

This module imports nothing from the package at import time.  The item
functions take the imported package as an argument and look every entry
point up at call time, so the traced mode's wrappers are always seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

FRAMES = Path(__file__).resolve().parent / "frames"
WORKLOADS = ("oracle", "symbolic", "renorm")

# A stratum is (first rank, end rank, block size, repeated) in a population
# sorted by cost; the seed picks one member of each block.  Items of a
# repeated stratum run in every pass of a run, the others in the first pass
# only: an item's latency is its fastest pass, and the costliest strata
# would leave no time for a second pass.
# oracle: strata of each generation sorted by crossings.  The 24 costliest
# generation-4 indices (3,150 to 13,700 crossings; 15 to 84 s each at this
# commit) are left out: a run must end within 180 s, and on a shared
# machine that runs 2x slow for tens of seconds one of them alone would not.
ORACLE_STRATA = {
    2: ((0, 12, 1, True),),                        # all of generation 2
    3: ((0, 32, 2, True), (32, 48, 16, False)),    # 16 of the 32 cheaper,
                                                   # 1 of the 16 costlier
    4: ((0, 96, 48, True), (96, 168, 72, False)),  # 2 of the cheaper half,
}                                                  # 1 of the next 72
ORACLE_GENERATIONS = tuple(ORACLE_STRATA)
#: billiard reports run on generation-2 items, one per block of this size
ORACLE_BILLIARD_BLOCK = 6
# symbolic: a population of digit strings drawn from a fixed master seed,
# depth uniform in SYMBOLIC_DEPTHS and digits uniform, sorted by chain
# length (see chain_symbols).  The two longest strings are half of a first
# pass between them, so they run in every sample rather than swing run_s
# and peak_rss_mb with the draw.
SYMBOLIC_MASTER_SEED = 2011
SYMBOLIC_DEPTHS = (6, 14)
SYMBOLIC_STRATA = ((0, 448, 16, True), (448, 480, 16, False), (480, 482, 1, False))
SYMBOLIC_POPULATION = SYMBOLIC_STRATA[-1][1]
#: the reduction and concatenation checks run on the deepest prefix arc of
#: the item whose three children have long words of at most this many
#: symbols; the concatenation search grows like the cube of the word length
#: at this commit
CHECK_CAP = 600
# renorm: strata of the frame sorted by MoebiusMap.apply calls
RENORM_STRATA = ((0, 1200, 24, True),)
#: a same-digit run at least this long marks a near-cusp renorm sample
LONG_RUN = 16
#: symbolic items whose long word reaches this many symbols are big
BIG_WORD = 10 ** 5

#: --tiny: a few blocks from the cheap end of the first stratum of each
#: population (oracle: of each generation), and one billiard block
TINY = {"oracle": {2: 2, 3: 1, 4: 1}, "billiard_blocks": 1,
        "symbolic": 4, "renorm": 12}


def load_frame(workload: str) -> dict:
    with open(FRAMES / f"{workload}.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# exact helpers, written here so the checks do not share code with the package


def _phi_sign(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*phi: with u = 2p + q the value is (u + q*sqrt5)/2."""
    u = 2 * p + q
    su = (u > 0) - (u < 0)
    sq = (q > 0) - (q < 0)
    if su == sq or sq == 0:
        return su
    if su == 0:
        return sq
    d = u * u - 5 * q * q
    return su * ((d > 0) - (d < 0))


def in_open_sector(a: Fraction, b: Fraction) -> bool:
    """phi/2 - 1 < a + b*phi < 1 - phi/2, the open principal sector."""
    half = Fraction(1, 2)
    return _phi_sign(1 - a, -half - b) > 0 and _phi_sign(1 + a, b - half) > 0


def _times_phi(u: tuple[int, int]) -> tuple[int, int]:
    a, b = u
    return (b, a + b)


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _children(u, v):
    """Period pairs (short, long) of the three vertices on the arc u..v."""
    return (_add(v, _times_phi(u)), _add(_times_phi(u), _times_phi(v)),
            _add(u, _times_phi(v)))


def periods_by_arc(digits: tuple[int, ...]) -> tuple[int, int]:
    """Short and long periods by descending the arc recursion, a different
    route from the package's digit-matrix product."""
    left = right = (1, 1)
    if not digits:
        return left
    for d in digits[:-1]:
        bounds = [left, *_children(left, right), right]
        left, right = bounds[d], bounds[d + 1]
    return _children(left, right)[digits[-1] - 1]


def chain_symbols(digits: tuple[int, ...]) -> int:
    """Symbols in both orbit words of the index and of every ancestor the
    orbit engine builds it from (the index with its first digit dropped and
    the rest mirrored, repeatedly): the size of the engine's work."""
    total = 0
    while digits:
        short, long = periods_by_arc(digits)
        total += 2 * (short + long)
        rest = digits[1:]
        digits = tuple(3 - d for d in rest[:-1]) + (4 - rest[-1],) if rest else ()
    return total


def longest_run(digits) -> int:
    best = run = 0
    prev = None
    for d in digits:
        run = run + 1 if d == prev else 1
        prev = d
        best = max(best, run)
    return best


# ---------------------------------------------------------------------------
# inputs


def _pick_blocks(rng: random.Random, ordered: list, block: int, count: int) -> list:
    return [ordered[j * block + rng.randrange(block)] for j in range(count)]


def _stratified(rng: random.Random, ordered: list, strata, tiny: int | None) -> list:
    """(member, repeated) for one member of each block of each stratum; with
    tiny, only the first `tiny` blocks of the first stratum."""
    if strata[-1][1] != len(ordered):
        raise ValueError(f"strata cover {strata[-1][1]} of {len(ordered)} members")
    if tiny is not None:
        lo, hi, block, repeat = strata[0]
        return [(m, repeat) for m in _pick_blocks(rng, ordered[lo:hi], block, tiny)]
    chosen = []
    for lo, hi, block, repeat in strata:
        if (hi - lo) % block:
            raise ValueError(f"stratum {lo}..{hi} is not a whole number of blocks")
        chosen += [(m, repeat) for m in
                   _pick_blocks(rng, ordered[lo:hi], block, (hi - lo) // block)]
    return chosen


def _oracle_inputs(rng: random.Random, tiny: bool) -> list[dict]:
    frame = load_frame("oracle")["indices"]
    items = []
    for gen, strata in ORACLE_STRATA.items():
        ordered = sorted((e for e in frame if e["gen"] == gen),
                         key=lambda e: (e["crossings"], e["index"]))
        ordered = ordered[:strata[-1][1]]  # generation 4: the costliest left out
        picked = _stratified(rng, ordered, strata, TINY["oracle"][gen] if tiny else None)
        items += [{"index": e["index"], "gen": gen, "billiard": False, "repeat": r}
                  for e, r in picked]
    gen2 = sorted((e for e in frame if e["gen"] == 2),
                  key=lambda e: (e["crossings"] + e["billiard_reflections"], e["index"]))
    count = (TINY["billiard_blocks"] if tiny
             else len(gen2) // ORACLE_BILLIARD_BLOCK)
    chosen = {e["index"] for e in _pick_blocks(rng, gen2, ORACLE_BILLIARD_BLOCK, count)}
    for item in items:
        item["billiard"] = item["index"] in chosen
        item["repeat"] = item["repeat"] and not item["billiard"]
    return items


def _check_arc(digits: tuple[int, ...]) -> tuple[int, ...]:
    """The deepest prefix arc (at least one digit) whose children all have
    long words of at most CHECK_CAP symbols; the first digit if none has."""
    arc = digits[:1]
    for n in range(2, len(digits)):
        prefix = digits[:n]
        if max(2 * periods_by_arc(prefix + (j,))[1] for j in (1, 2, 3)) > CHECK_CAP:
            break
        arc = prefix
    return arc


def symbolic_population() -> list[tuple[int, ...]]:
    """The symbolic frame: SYMBOLIC_POPULATION seeded digit strings, sorted
    by chain length, longest last."""
    rng = random.Random(SYMBOLIC_MASTER_SEED)
    population = []
    for _ in range(SYMBOLIC_POPULATION):
        depth = rng.randint(*SYMBOLIC_DEPTHS)
        population.append(tuple(rng.randrange(4) for _ in range(depth - 1))
                          + (rng.randrange(1, 4),))
    return sorted(population, key=lambda d: (chain_symbols(d), d))


def _symbolic_inputs(rng: random.Random, tiny: bool) -> list[dict]:
    chosen = _stratified(rng, symbolic_population(), SYMBOLIC_STRATA,
                         TINY["symbolic"] if tiny else None)
    return [{"digits": "".join(map(str, d)), "arc": "".join(map(str, _check_arc(d))),
             "repeat": r} for d, r in chosen]


def _renorm_inputs(rng: random.Random, tiny: bool) -> list[dict]:
    frame = load_frame("renorm")
    ordered = sorted(enumerate(frame["points"]), key=lambda e: (e[1][5], e[0]))
    chosen = _stratified(rng, ordered, RENORM_STRATA, TINY["renorm"] if tiny else None)
    return [{"a": [p[0], p[1]], "b": [p[2], p[3]], "digits": p[4], "repeat": r}
            for (_, p), r in chosen]


def make_inputs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The seeded item list: the repeated items, then the others, each part
    cheapest first (oracle: by generation, then by cost), so that the items
    an item shares caches with come in the same order whatever the seed
    drew, and a pass of the repeated items alone sees the same caches as
    the first pass."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"oracle": _oracle_inputs, "symbolic": _symbolic_inputs,
            "renorm": _renorm_inputs}[workload]
    items = make(rng, tiny)
    return [it for it in items if it["repeat"]] + [it for it in items if not it["repeat"]]


def repeated_positions(items: list[dict]) -> list[int]:
    """Positions of the items that run in every pass of a run; the untraced
    pass of a traced run repeats these too, for trace.overhead_ratio."""
    return [i for i, item in enumerate(items) if item["repeat"]]


# ---------------------------------------------------------------------------
# items: each returns (ok, properties); corrupt perturbs the answer first


def _digits(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def oracle_item(pf, item: dict, corrupt: bool) -> tuple[bool, dict]:
    idx = pf.DirectionIndex(_digits(item["index"]))
    x = pf.coordinate_of_index(idx).value
    pp = pf.period_of_index(idx)
    short, long = pf.periodic_orbits_for_coordinate(x, expected_long=pp.long)
    if corrupt:
        short, long = long, short
    want_short, want_long = periods_by_arc(idx.digits)
    ok = (short.closed and long.closed
          and len(short.word) == 2 * want_short and len(long.word) == 2 * want_long
          and short.word == pf.orbit_of_index(idx, "short")
          and long.word == pf.orbit_of_index(idx, "long"))
    if item["billiard"]:
        ok = pf.analysis.billiard_report(idx).passed and ok
    return ok, {"gen": item["gen"], "billiard": item["billiard"]}


def symbolic_item(pf, item: dict, corrupt: bool) -> tuple[bool, dict]:
    digits = _digits(item["digits"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pf.cli.main(["direction", *item["digits"], "--json"])
    report = json.loads(out.getvalue())
    periods = report["periods"]
    if corrupt:
        periods["long"] += 1
    sv, lv = report["vectors"]["short"], report["vectors"]["long"]
    want_short, want_long = periods_by_arc(digits)
    ok = (code == 0 and periods["short"] == want_short and periods["long"] == want_long
          and sum(sv) == want_short and sum(lv) == want_long
          and pf.check_M(pf.OrbitVector(*sv), pf.OrbitVector(*lv)))

    arc = _digits(item["arc"])
    for j in (1, 2, 3):
        child = pf.DirectionIndex(arc + (j,))
        parent = pf.orbits.reduction_parent(child)
        shift = (4 - child.digits[0]) % 5
        for kind in ("short", "long"):
            reduced = pf.rotate_alphabet(pf.reduce_word(pf.orbit_of_index(child, kind)), shift)
            ok = ok and reduced == pf.orbit_of_index(parent, kind)
    ok = pf.check_conjecture_concat(pf.directions.arc_left_vertex(arc),
                                    pf.directions.arc_right_vertex(arc)).passed and ok
    return ok, {"big_word": 2 * want_long >= BIG_WORD}


def renorm_item(pf, item: dict, corrupt: bool) -> tuple[bool, dict]:
    x = pf.GoldenNum(Fraction(*item["a"]), Fraction(*item["b"]))
    idx = pf.index_of_coordinate(x, max_depth=5000)
    digits = idx.digits
    if corrupt:
        digits = digits[:-1] + (digits[-1] % 3 + 1,)
    ok = (len(digits) == item["digits"]
          and pf.coordinate_of_index(pf.DirectionIndex(digits)).value == x)
    return ok, {"long_run": longest_run(digits) >= LONG_RUN}


ITEMS = {"oracle": oracle_item, "symbolic": symbolic_item, "renorm": renorm_item}
