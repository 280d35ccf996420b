"""Verification suites of `pentaflow verify`: each checks one relation over
every index to a depth and returns one ledger row per case.

`cli` names the suites (`cli.SUITE_NAMES`) and imports this module only
when `verify` runs.  The suites of one row per direction run in one walk
over the directions and share each direction's strip search, run once, by
the first check that reads it.  A suite imports the layers it checks in its
own body, so `verify --suite periods` never compiles the tracer.
"""

from __future__ import annotations

import json
import sys
from functools import cache, partial

from .cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, SUITE_NAMES, unwritable
from .directions import (
    BOTTOM,
    DirectionIndex,
    arc_left_vertex,
    arc_right_vertex,
    coordinate_of_index,
    index_strings_to_depth,
    indices_at_generation,
)

#: the deepest `--depth`: depth 4 takes minutes, and each digit more holds
#: four times as many directions
MAX_DEPTH = 8


def _all_indices(depth: int) -> list[DirectionIndex]:
    """Every direction with at most `depth` digits, `()` included, once
    each, in the order of their case names."""
    return sorted((idx for g in range(depth + 1) for idx in indices_at_generation(g)),
                  key=str)


def _period_via_tree(digits: tuple[int, ...]):
    """Period pair by descending the arc recursion, independent of the orbit
    vectors that `period_of_index` counts."""
    from .periods import PeriodPair, child_periods

    left = right = PeriodPair(1, 1)
    if not digits:
        return left
    for d in digits[:-1]:
        kids = child_periods(left, right)
        bounds = [left, *kids, right]
        left, right = bounds[d], bounds[d + 1]
    return child_periods(left, right)[digits[-1] - 1]


def _strip_cells(idx: DirectionIndex):
    """The strip search of `idx`: its short and long strips' cells and
    traces."""
    from .tracer import strip_cells_for_coordinate

    return strip_cells_for_coordinate(coordinate_of_index(idx).value)


def _suite_periods(idx: DirectionIndex, strips) -> dict:
    """Periods counted from the orbit vectors against the arc recursion."""
    from .periods import period_of_index

    got = period_of_index(idx)
    want = _period_via_tree(idx.digits)
    return {"ok": got == want, "got": got.as_tuple(), "want": want.as_tuple()}


def _suite_table(depth: int) -> list[dict]:
    from .periods import period_of_index

    table = {
        (): (1, 1), (0, 1): (3, 5), (0, 2): (4, 7), (0, 3): (4, 6),
        (1,): (2, 3), (1, 1): (5, 9), (1, 2): (7, 11), (1, 3): (6, 9),
        (2,): (2, 4),
    }
    rows = []
    for digits, want in table.items():
        got = period_of_index(DirectionIndex(digits)).as_tuple()
        rows.append({"case": "".join(map(str, digits)) or "()",
                     "ok": got == want, "got": got, "want": want})
    return rows


def _suite_m_relation(idx: DirectionIndex, strips) -> dict:
    from .orbits import orbit_of_index, vector_of, vectors_of_index

    sv, lv = vectors_of_index(idx)
    # the vector recursion, long = M short included, against the symbol
    # counts of the built words
    by_words = (vector_of(orbit_of_index(idx, "short")),
                vector_of(orbit_of_index(idx, "long")))
    return {"ok": (sv, lv) == by_words,
            "short": sv.as_tuple(), "long": lv.as_tuple()}


def _suite_reduction(depth: int) -> list[dict]:
    from .orbits import orbit_of_index, reduce_word, reduction_parent, rotate_alphabet

    rows = []
    for idx in _all_indices(depth):
        if idx.generation < 2:
            continue
        parent = reduction_parent(idx)
        shift = (4 - idx.digits[0]) % 5
        for kind in ("short", "long"):
            w = orbit_of_index(idx, kind)
            red = rotate_alphabet(reduce_word(w), shift)
            ok = red == orbit_of_index(parent, kind)
            rows.append({"case": f"{idx}:{kind}", "ok": ok})
    return rows


def _suite_oracle(idx: DirectionIndex, strips) -> dict:
    """The tracer's strips against the engine: the same words and periods,
    equal moduli (a periodic direction's parabolic element twists both
    strips at once), and each flight-time displacement the one the orbit
    vector gives."""
    from .analysis import displacement
    from .orbits import orbit_of_index, vectors_of_index
    from .periods import period_of_index

    (s_lo, s_hi, s_tr), (l_lo, l_hi, l_tr) = strips()
    pp = period_of_index(idx)
    ws = orbit_of_index(idx, "short")
    wl = orbit_of_index(idx, "long")
    sv, lv = vectors_of_index(idx)
    c_s, c_l = s_hi - s_lo, l_hi - l_lo
    return {"ok": (
        s_tr.word == ws and l_tr.word == wl
        and len(ws) == 2 * pp.short and len(wl) == 2 * pp.long
        and c_s * c_s * l_tr.length_squared == c_l * c_l * s_tr.length_squared
        and s_tr.displacement == displacement(sv)
        and l_tr.displacement == displacement(lv)
    )}


def _suite_displacement(idx: DirectionIndex, strips) -> dict:
    from .analysis import length_identity_holds
    from .orbits import vectors_of_index

    x = coordinate_of_index(idx).value
    sv, lv = vectors_of_index(idx)
    return {"ok": length_identity_holds(sv, x) and length_identity_holds(lv, x)}


def _suite_billiard(idx: DirectionIndex, strips) -> dict:
    from .analysis import billiard_report_of_strips

    rep = billiard_report_of_strips(idx, strips())
    return {"ok": rep.passed, "multiplier": rep.multiplier}


def _suite_conjectures(depth: int) -> list[dict]:
    from .analysis import check_conjecture_concat, check_conjecture_splitting

    rows = []
    for p in [(), *index_strings_to_depth(depth)]:
        rep = check_conjecture_concat(arc_left_vertex(p), arc_right_vertex(p))
        rows.append({"case": f"concat:{rep.subject}", "ok": rep.passed})
    for idx in _all_indices(depth) + [BOTTOM]:
        rep = check_conjecture_splitting(idx, radius=1)
        rows.append({"case": f"split:{rep.subject}", "ok": rep.passed})
    return rows


#: the suites of one row per direction, run in one walk over the
#: directions: each is a check `(idx, strips)` that returns the row's
#: fields, `ok` among them; `strips()` is the strip search of `idx`
PER_DIRECTION = ("periods", "m-relation", "orbits-vs-oracle", "displacement",
                 "billiard")

#: suite name -> suite, in the order of `cli.SUITE_NAMES`; the others are
#: `suite(depth)`, returning their rows
SUITES = dict(zip(SUITE_NAMES, (
    _suite_periods, _suite_table, _suite_m_relation, _suite_reduction,
    _suite_oracle, _suite_displacement, _suite_billiard, _suite_conjectures,
), strict=True))


def cmd_verify(args) -> int:
    if not 1 <= args.depth <= MAX_DEPTH:
        print(f"verify: depth must be 1 to {MAX_DEPTH}, not {args.depth}",
              file=sys.stderr)
        return EXIT_USAGE
    names = args.suite or [s for s in SUITES if s != "table"]
    for n in names:
        if n not in SUITES:
            print(f"verify: unknown suite {n}", file=sys.stderr)
            return EXIT_USAGE
    names = sorted(set(names))
    if args.json_out is not None and (reason := unwritable(args.json_out)):
        print(f"verify: cannot write ledger {args.json_out}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    walked = {n: [] for n in names if n in PER_DIRECTION}
    for idx in _all_indices(args.depth):
        # searched by the first check that reads it, dropped with idx
        strips = cache(partial(_strip_cells, idx))
        for n, rows in walked.items():
            rows.append({"case": str(idx), **SUITES[n](idx, strips)})
    ledger = {}
    for n in names:
        rows = sorted(walked[n] if n in walked else SUITES[n](args.depth),
                      key=lambda r: r["case"])
        bad = sum(not r["ok"] for r in rows)
        ledger[n] = {"checked": len(rows), "failures": bad, "rows": rows}
        print(f"suite {n}: {len(rows)} checked, {bad} failures")
    if args.json_out is not None:
        try:
            with open(args.json_out, "w") as f:
                json.dump(ledger, f, indent=2, sort_keys=True)
        except OSError as e:
            print(f"verify: cannot write ledger {args.json_out}: {e.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    return EXIT_VERIFY if any(s["failures"] for s in ledger.values()) else EXIT_OK
