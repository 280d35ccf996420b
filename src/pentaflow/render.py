"""SVG rendering of `pentaflow render`: the strips of a direction on the
double pentagon, or its billiard path in the pentagon, drawn from the
paths the tracer recorded.  `cli` imports this module only when `render`
runs.  Coordinates are printed to 15 significant digits; floating point is
used for drawing only.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import tracer
from .cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, _parse_index, unwritable
from .directions import (
    DepthExceeded,
    SectorError,
    coordinate_of_index,
    index_of_coordinate,
)
from .golden import ZERO, GoldenNum, decimal_of
from .periods import period_of_index

#: the longest period `render` traces.  Its work and memory grow with the
#: period: `--u 1/10` (periods 2,330/3,770) draws in under a minute, and
#: `--u 1/100` (61,000/98,700) would run for many minutes
MAX_PERIOD = 10_000


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


def _xy(p: tracer.PlanePoint) -> tuple[float, float]:
    """The true plane point (x, y*s) of a chart point, for drawing."""
    return (float(decimal_of(p.x, ZERO, 25)), float(decimal_of(ZERO, p.y, 25)))


def cmd_render(args) -> int:
    if args.u is not None and args.index:
        print("render: give an index or --u, not both", file=sys.stderr)
        return EXIT_USAGE
    if reason := unwritable(args.out):
        print(f"render: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    if args.u is not None:
        try:
            x = GoldenNum.of(Fraction(args.u))
        except (ValueError, ZeroDivisionError) as e:
            reason = "zero denominator" if isinstance(e, ZeroDivisionError) else e
            print(f"render: bad --u '{args.u}': {reason}", file=sys.stderr)
            return EXIT_USAGE
        try:
            idx = index_of_coordinate(x)
        except SectorError:
            print("render: --u must lie in the closed principal sector",
                  file=sys.stderr)
            return EXIT_USAGE
        except DepthExceeded as e:
            print(f"render: {e}", file=sys.stderr)
            return EXIT_BUDGET
    else:
        idx = _parse_index(args)
        x = coordinate_of_index(idx).value
    pp = period_of_index(idx)
    if pp.long > MAX_PERIOD:
        print(f"render: index {idx} has periods {pp.short}/{pp.long}, above the "
              f"limit of {MAX_PERIOD}", file=sys.stderr)
        return EXIT_USAGE
    billiard = (f" and a billiard of at most {10 * pp.short} reflections"
                if args.billiard else "")
    print(f"render: index {idx}, periods {pp.short}/{pp.long}: tracing strips "
          f"of {2 * pp.short} and {2 * pp.long} crossings{billiard}",
          file=sys.stderr)
    (_, _, s_tr), (_, _, l_tr) = tracer.strip_cells_for_coordinate(x)
    if args.billiard:
        from .analysis import strip_billiard

        _mult, res = strip_billiard(s_tr, s_tr.start)

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
    try:
        with open(args.out, "w") as f:
            f.write("\n".join(out) + "\n")
    except OSError as e:
        print(f"render: cannot write {args.out}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}")
    return EXIT_OK
