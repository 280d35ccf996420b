"""Command line surface: direction reports, orbit printing, batch
verification and SVG rendering.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 a trace
missed its exact period or renormalization ran out of depth.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .directions import (
    BOTTOM,
    DepthExceeded,
    DirectionIndex,
    arc_left_vertex,
    arc_right_vertex,
    coordinate_of_index,
    in_closed_sector,
    index_of_coordinate,
    index_strings_to_depth,
)
from .golden import PHI, GoldenNum, ProjectivePoint

# orbits, periods, tracer and analysis are imported by the commands and
# suites that use them, so that `import pentaflow.cli` stays as cheap as
# the index tree it needs to build the parser
if TYPE_CHECKING:
    from .tracer import PlanePoint

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_index(args) -> DirectionIndex:
    text = " ".join(args.index)
    try:
        return DirectionIndex.parse(text)
    except ValueError as e:
        print(f"{args.command}: bad index '{text}': {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from e


def _coord_json(x) -> dict:
    if x.is_infinity:
        return {"infinity": True}
    return {"coeffs": x.value.to_json(), "decimal": str(x.value.to_decimal(20))}


def cmd_direction(args) -> int:
    from .orbits import billiard_multiplier, vectors_of_index
    from .periods import period_of_index

    idx = _parse_index(args)
    coord = coordinate_of_index(idx)
    pp = period_of_index(idx)
    sv, lv = vectors_of_index(idx)
    mult = billiard_multiplier(sv)
    if args.json:
        out = {
            "index": str(idx),
            "coordinate": _coord_json(coord),
            "periods": {"short": pp.short, "long": pp.long,
                        "arabic": list(pp.arabic)},
            "vectors": {"short": sv.as_tuple(), "long": lv.as_tuple()},
            "billiard_multiplier": mult,
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"index:       {idx}")
        print(f"coordinate:  {coord}" + (
            "" if coord.is_infinity else f"  ({coord.value.to_decimal(15)})"))
        print(f"periods:     short {pp.short}, long {pp.long} "
              f"(arabic {pp.arabic[0]}, {pp.arabic[1]})")
        print(f"vectors:     short {sv}, long {lv}")
        print(f"multiplier:  {mult}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    from .orbits import orbit_of_index, roman_of_arabic

    idx = _parse_index(args)
    kind = "long" if args.long else "short"
    w = orbit_of_index(idx, kind)
    if args.roman:
        w = roman_of_arabic(w)
    if args.json:
        print(json.dumps({"index": str(idx), "kind": kind,
                          "alphabet": "roman" if args.roman else "arabic",
                          "word": list(w.symbols)}))
    else:
        print(w)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _all_indices(depth: int) -> list[DirectionIndex]:
    seen = {}
    for s in index_strings_to_depth(depth):
        idx = DirectionIndex.from_digits(s)
        seen.setdefault(str(idx), idx)
    return [seen[k] for k in sorted(seen)]


def _period_via_tree(digits: tuple[int, ...]):
    """Period pair by descending the arc recursion, independent of the
    digit-matrix product."""
    from .periods import PeriodPair, child_periods

    left = right = PeriodPair(1, 1)
    if not digits:
        return left
    for d in digits[:-1]:
        kids = child_periods(left, right)
        bounds = [left, *kids, right]
        left, right = bounds[d], bounds[d + 1]
    return child_periods(left, right)[digits[-1] - 1]


def _suite_periods(depth: int) -> list[dict]:
    """Digit-matrix periods against the arc recursion, every index string."""
    from .periods import period_of_index

    rows = []
    for s in index_strings_to_depth(depth):
        idx = DirectionIndex.from_digits(s)
        got = period_of_index(idx)
        want = _period_via_tree(idx.digits)
        rows.append({"case": "".join(map(str, s)), "ok": got == want,
                     "got": got.as_tuple(), "want": want.as_tuple()})
    return rows


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


def _suite_m_relation(depth: int) -> list[dict]:
    from .orbits import check_M, orbit_of_index, vector_of, vectors_of_index
    from .periods import period_of_index

    rows = []
    for idx in _all_indices(depth):
        sv, lv = vectors_of_index(idx)
        pp = period_of_index(idx)
        # the vector recursion against the symbol counts of the built words
        by_words = (vector_of(orbit_of_index(idx, "short")),
                    vector_of(orbit_of_index(idx, "long")))
        ok = (check_M(sv, lv) and (sv, lv) == by_words
              and sv.period == pp.short and lv.period == pp.long)
        rows.append({"case": str(idx), "ok": ok,
                     "short": sv.as_tuple(), "long": lv.as_tuple()})
    return rows


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


def _suite_oracle(depth: int) -> list[dict]:
    from .orbits import orbit_of_index, roman_of_arabic
    from .periods import period_of_index
    from .tracer import TraceBudgetExceeded, periodic_orbits_for_coordinate

    rows = []
    for idx in _all_indices(depth):
        x = coordinate_of_index(idx).value
        pp = period_of_index(idx)
        try:
            s_tr, l_tr = periodic_orbits_for_coordinate(x, expected_long=pp.long)
        except TraceBudgetExceeded as e:
            rows.append({"case": str(idx), "ok": False, "error": str(e)})
            continue
        ws = orbit_of_index(idx, "short")
        wl = orbit_of_index(idx, "long")
        ok = (
            s_tr.word == ws and l_tr.word == wl
            and len(roman_of_arabic(ws)) == pp.short
            and len(roman_of_arabic(wl)) == pp.long
            and len(ws) == 2 * pp.short and len(wl) == 2 * pp.long
        )
        rows.append({"case": str(idx), "ok": ok})
    return rows


def _suite_displacement(depth: int) -> list[dict]:
    from .analysis import displacement, length_identity_holds
    from .orbits import vectors_of_index

    rows = []
    for idx in _all_indices(depth):
        x = coordinate_of_index(idx).value
        sv, lv = vectors_of_index(idx)
        ds = displacement(sv)
        dl = displacement(lv)
        prop = (dl - ds.scale(PHI)).is_zero()
        ok = (length_identity_holds(sv, x)
              and length_identity_holds(lv, x) and prop)
        rows.append({"case": str(idx), "ok": ok})
    return rows


def _suite_billiard(depth: int) -> list[dict]:
    from .analysis import billiard_report

    rows = []
    for idx in _all_indices(depth):
        rep = billiard_report(idx)
        rows.append({"case": str(idx), "ok": rep.passed,
                     "multiplier": rep.multiplier})
    return rows


def _suite_conjectures(depth: int) -> list[dict]:
    from .analysis import check_conjecture_concat, check_conjecture_splitting

    rows = []
    for p in [(), *index_strings_to_depth(depth)]:
        rep = check_conjecture_concat(arc_left_vertex(p), arc_right_vertex(p))
        rows.append({"case": f"concat:{rep.subject}", "ok": rep.passed})
    for idx in _all_indices(depth) + [DirectionIndex(), BOTTOM]:
        rep = check_conjecture_splitting(idx, radius=1)
        rows.append({"case": f"split:{rep.subject}", "ok": rep.passed})
    return rows


SUITES = {
    "periods": _suite_periods,
    "table": _suite_table,
    "m-relation": _suite_m_relation,
    "reduction": _suite_reduction,
    "orbits-vs-oracle": _suite_oracle,
    "displacement": _suite_displacement,
    "billiard": _suite_billiard,
    "conjectures": _suite_conjectures,
}


def cmd_verify(args) -> int:
    from .tracer import TraceBudgetExceeded

    if args.depth < 1:
        print("verify: depth must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.depth > args.max_depth:
        print(f"verify: depth {args.depth} exceeds the hard limit "
              f"{args.max_depth} (raise with --max-depth)", file=sys.stderr)
        return EXIT_USAGE
    names = args.suite or [s for s in SUITES if s != "table"]
    for n in names:
        if n not in SUITES:
            print(f"verify: unknown suite {n}", file=sys.stderr)
            return EXIT_USAGE
    names = sorted(set(names))
    ledger = {}
    failures = 0
    conjecture_failures = 0
    try:
        results = {n: SUITES[n](args.depth) for n in names}
    except TraceBudgetExceeded as e:
        print(f"verify: budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    for n in names:
        rows = results[n]
        rows.sort(key=lambda r: str(r.get("case", "")))
        bad = [r for r in rows if not r["ok"]]
        ledger[n] = {"checked": len(rows), "failures": len(bad), "rows": rows}
        if n == "conjectures":
            conjecture_failures += len(bad)
        else:
            failures += len(bad)
        print(f"suite {n}: {len(rows)} checked, {len(bad)} failures")
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(ledger, f, indent=2, sort_keys=True)
    if failures:
        return EXIT_VERIFY
    if conjecture_failures and not args.conjectures_advisory:
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# rendering


def _fmt(v) -> str:
    return f"{float(v):.15g}"


def _svg_header(xmin, ymin, xmax, ymax) -> list[str]:
    pad = 0.15 * max(xmax - xmin, ymax - ymin)
    x0, y0 = xmin - pad, ymin - pad
    w, h = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="640" height="{640 * h / w:.0f}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
        f'<g transform="translate(0,{_fmt(2 * y0 + h)}) scale(1,-1)">',
    ]


def _svg_polygon(points, color, width=0.01) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(_xy, points))
    return (f'<polygon points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _svg_polyline(points, color, width=0.012) -> str:
    pts = " ".join(f"{x:.15g},{y:.15g}" for x, y in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _xy(p: PlanePoint) -> tuple[float, float]:
    x, y = p.real()
    return (float(x), float(y))


def cmd_render(args) -> int:
    from . import tracer
    from .orbits import billiard_multiplier, vector_of
    from .periods import period_of_index

    if args.u is not None:
        x = GoldenNum.of(Fraction(args.u))
        if not in_closed_sector(ProjectivePoint(x)):
            print("render: --u must lie in the closed principal sector",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        x = coordinate_of_index(_parse_index(args)).value

    try:
        idx = index_of_coordinate(x)
    except DepthExceeded as e:
        print(f"render: {e}", file=sys.stderr)
        return EXIT_BUDGET
    pp = period_of_index(idx)
    billiard = (f" and a billiard of at most {10 * pp.short} reflections"
                if args.billiard else "")
    print(f"render: index {idx}, periods {pp.short}/{pp.long}: tracing strips "
          f"of {2 * pp.short} and {2 * pp.long} crossings{billiard}",
          file=sys.stderr)
    try:
        s_tr, l_tr = tracer.periodic_orbits_for_coordinate(x, expected_long=pp.long)
        if args.billiard:
            cap = billiard_multiplier(vector_of(s_tr.word)) * s_tr.crossings
            res = tracer.trace_billiard(s_tr.start, s_tr.direction, max_reflections=cap)
            if not res.closed:
                raise tracer.TraceBudgetExceeded(s_tr.direction, cap, res.crossings)
    except tracer.TraceBudgetExceeded as e:
        print(f"render: {e}", file=sys.stderr)
        return EXIT_BUDGET

    lines = []
    if args.billiard:
        lines.append(_svg_polygon(tracer.PENTAGON_UPPER, "#333333"))
        pts = [res.start] + [b for _a, b in res.path]
        lines.append(_svg_polyline([_xy(p) for p in pts], "#c02020"))
        verts = list(tracer.PENTAGON_UPPER)
    else:
        lines.append(_svg_polygon(tracer.PENTAGON_UPPER, "#333333"))
        lines.append(_svg_polygon(tracer.PENTAGON_LOWER, "#333333"))
        for res, color in ((s_tr, "#c02020"), (l_tr, "#2040c0")):
            for a, b in res.path:
                lines.append(_svg_polyline([_xy(a), _xy(b)], color))
        verts = list(tracer.PENTAGON_UPPER) + list(tracer.PENTAGON_LOWER)

    xs, ys = zip(*map(_xy, verts))
    out = _svg_header(min(xs), min(ys), max(xs), max(ys))
    out.extend(lines)
    out.append("</g></svg>")
    with open(args.out, "w") as f:
        f.write("\n".join(out) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pentaflow",
                                description="periodic directions, orbits and "
                                            "exact traces on the double pentagon")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("direction", help="report on one periodic direction")
    d.add_argument("index", nargs="*", help="digit string, empty for the top corner")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_direction)

    o = sub.add_parser("orbit", help="print a symbolic orbit")
    o.add_argument("index", nargs="*")
    g = o.add_mutually_exclusive_group()
    g.add_argument("--short", action="store_true", default=True)
    g.add_argument("--long", action="store_true")
    a = o.add_mutually_exclusive_group()
    a.add_argument("--arabic", action="store_true", default=True)
    a.add_argument("--roman", action="store_true")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_orbit)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--depth", type=int, required=True)
    v.add_argument("--max-depth", type=int, default=8,
                   help="hard limit on --depth (default 8)")
    v.add_argument("--suite", action="append",
                   help=f"one of {', '.join(sorted(SUITES))}; repeatable")
    v.add_argument("--json-out", help="write the ledger as JSON")
    v.add_argument("--conjectures-advisory", action="store_true",
                   help="conjecture failures do not affect the exit code")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("render", help="render an orbit as SVG")
    r.add_argument("index", nargs="*")
    r.add_argument("--u", help="section parameter instead of an index (rational)")
    m = r.add_mutually_exclusive_group()
    m.add_argument("--surface", action="store_true", default=True)
    m.add_argument("--billiard", action="store_true")
    r.add_argument("--out", default="orbit.svg")
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
