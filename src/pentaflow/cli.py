"""Command line surface: direction reports, orbit printing, batch
verification (`pentaflow.verify`) and SVG rendering (`pentaflow.render`).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 (`render`
only) a trace missed its exact period or renormalization ran out of depth.
"""

import argparse
import sys

# every layer, json included, is imported by the command that uses it, so
# that `import pentaflow.cli` compiles nothing but the parser; verify and
# render are modules of their own, loaded when their command runs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: the verification suites; `verify` runs and prints them sorted by name,
#: whatever this order; `verify.SUITES` is keyed by this list, so the parser
#: names them without loading the suites
SUITE_NAMES = ("periods", "table", "m-relation", "reduction", "orbits-vs-oracle",
               "displacement", "billiard", "conjectures")


def _parse_index(args):
    """The `DirectionIndex` the command's digits name; a bad one exits 2."""
    from .directions import DirectionIndex

    text = " ".join(args.index)
    try:
        return DirectionIndex.parse(text)
    except ValueError as e:
        print(f"{args.command}: bad index '{text}': {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from e


def unwritable(path: str) -> str | None:
    """Why `open(path, "w")` would fail, or None, found without creating the
    file, so that `verify` and `render` refuse the path before their work:
    a directory at the path, or a parent directory that is missing or not
    writable."""
    import errno
    import os

    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    if not os.access(parent, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def cmd_direction(args) -> int:
    import json

    from .directions import coordinate_of_index
    from .golden import ZERO, decimal_of
    from .orbits import billiard_multiplier, vectors_of_index

    idx = _parse_index(args)
    # a finite point: the factor maps fold ALPHA_COORD through the sector
    coord = coordinate_of_index(idx).value
    # the periods are the vectors' symbol counts, Arabic words twice as long
    sv, lv = vectors_of_index(idx)
    mult = billiard_multiplier(sv)
    if args.json:
        out = {
            "index": str(idx),
            "coordinate": {"coeffs": coord.to_json(),
                           "decimal": str(decimal_of(coord, ZERO, 20))},
            "periods": {"short": sv.period, "long": lv.period,
                        "arabic": [2 * sv.period, 2 * lv.period]},
            "vectors": {"short": sv.as_tuple(), "long": lv.as_tuple()},
            "billiard_multiplier": mult,
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"index:       {idx}")
        print(f"coordinate:  {coord}  ({decimal_of(coord, ZERO, 15)})")
        print(f"periods:     short {sv.period}, long {lv.period} "
              f"(arabic {2 * sv.period}, {2 * lv.period})")
        print(f"vectors:     short {sv}, long {lv}")
        print(f"multiplier:  {mult}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    import json

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


def _verify(args) -> int:
    from .verify import cmd_verify

    return cmd_verify(args)


def _render(args) -> int:
    from .render import cmd_render

    return cmd_render(args)


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
    v.add_argument("--suite", action="append",
                   help=f"one of {', '.join(sorted(SUITE_NAMES))}; repeatable")
    v.add_argument("--json-out", help="write the ledger as JSON")
    v.set_defaults(func=_verify)

    r = sub.add_parser("render", help="render an orbit as SVG")
    r.add_argument("index", nargs="*")
    r.add_argument("--u", help="section parameter instead of an index (rational); "
                               "write a negative one as --u=-1/10")
    m = r.add_mutually_exclusive_group()
    m.add_argument("--surface", action="store_true", default=True)
    m.add_argument("--billiard", action="store_true")
    r.add_argument("--out", default="orbit.svg")
    r.set_defaults(func=_render)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
