"""Rebuild the sampling frames in bench/frames/ from the package.

    python3 bench/build_frames.py [oracle] [renorm]

A frame is the population a workload samples from, with the cost key that
orders it before the seed picks one member per block (see workloads.py).
The keys are exact operation counts, not times: times measured on a shared
machine move by a factor of two from one minute to the next, so a timed key
would mix cheap and costly items in one block.  A rebuild at the same commit
reproduces the files byte for byte.  The keys describe the code of the
commit the frames were built at and only order the population; a faster
package leaves every sample unchanged.

- oracle.json: every index of generations 2 to 4, with the crossings of
  all closed surface traces that periodic_orbits_for_coordinate makes for
  it; for generation 2 also the billiard reflections that billiard_report
  traces.
- renorm.json: height-50 field points drawn as acceptance criterion 11
  draws them, from a fixed master seed, with the length of each expansion
  and the MoebiusMap.apply calls of the item (the expansion and its check).

Building takes about 20 minutes on one core, almost all of it in the
generation-4 oracle traces.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pentaflow  # noqa: E402
from pentaflow import analysis, tracer  # noqa: E402
from pentaflow.directions import indices_at_generation, index_of_coordinate  # noqa: E402

from workloads import (  # noqa: E402
    FRAMES, ORACLE_GENERATIONS, in_open_sector, oracle_item, renorm_item)

RENORM_MASTER_SEED = 2011
RENORM_HEIGHT = 50
RENORM_POINTS = 1200


def build_oracle() -> dict:
    counts = {"crossings": 0, "reflections": 0}
    trace_surface, trace_billiard = tracer.trace_surface, analysis.trace_billiard

    def counted_surface(*args, **kwargs):
        res = trace_surface(*args, **kwargs)
        counts["crossings"] += res.crossings
        return res

    def counted_billiard(*args, **kwargs):
        res = trace_billiard(*args, **kwargs)
        counts["reflections"] += res.crossings
        return res

    tracer.trace_surface = counted_surface
    analysis.trace_billiard = counted_billiard
    entries = []
    for gen in ORACLE_GENERATIONS:
        for idx in indices_at_generation(gen):
            item = {"index": str(idx), "gen": gen, "billiard": False}
            counts["crossings"] = 0
            ok, _props = oracle_item(pentaflow, item, False)
            entry = {"index": str(idx), "gen": gen, "crossings": counts["crossings"]}
            if gen == 2:
                counts["reflections"] = 0
                ok = analysis.billiard_report(idx).passed and ok
                entry["billiard_reflections"] = counts["reflections"]
            if not ok:
                raise RuntimeError(f"oracle item {idx} failed its check")
            entries.append(entry)
            print(json.dumps(entry), file=sys.stderr, flush=True)
    return {"indices": entries}


def build_renorm() -> dict:
    applies = [0]
    apply = pentaflow.MoebiusMap.apply

    def counted_apply(self, x):
        applies[0] += 1
        return apply(self, x)

    pentaflow.MoebiusMap.apply = counted_apply
    rng = random.Random(RENORM_MASTER_SEED)
    h = RENORM_HEIGHT
    points = []
    while len(points) < RENORM_POINTS:
        a = Fraction(rng.randint(-h, h), rng.randint(1, h))
        b = Fraction(rng.randint(-h, h), rng.randint(1, h))
        if not in_open_sector(a, b):
            continue
        digits = index_of_coordinate(pentaflow.GoldenNum(a, b), max_depth=5000).generation
        item = {"a": [a.numerator, a.denominator], "b": [b.numerator, b.denominator],
                "digits": digits}
        pentaflow.directions._coordinate_cached.cache_clear()
        applies[0] = 0
        ok, _props = renorm_item(pentaflow, item, False)
        if not ok:
            raise RuntimeError(f"renorm point {a} + {b}*phi failed its check")
        points.append([a.numerator, a.denominator, b.numerator, b.denominator,
                       digits, applies[0]])
    pentaflow.MoebiusMap.apply = apply
    return {"master_seed": RENORM_MASTER_SEED, "height": h,
            "columns": ["a_num", "a_den", "b_num", "b_den", "digits", "moebius_applies"],
            "points": points}


def main(argv: list[str]) -> int:
    for name in argv or ["oracle", "renorm"]:
        frame = {"oracle": build_oracle, "renorm": build_renorm}[name]()
        with open(FRAMES / f"{name}.json", "w") as f:
            json.dump(frame, f, separators=(",", ":"))
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
