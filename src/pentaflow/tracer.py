"""Ground-truth tracing: exact linear flow on the double pentagon, exact
billiards in the regular pentagon, and the section interval exchange.

The surface is two centrally symmetric unit pentagons sharing a horizontal
side, with the remaining sides identified pairwise by translation.  The
tracer works in a sheared chart: every y is divided by s = sin 36 degrees,
so each coordinate, direction and displacement lies in Q[phi]^2 and side
hits, closure and lengths are decided exactly in Q[phi].  Straight lines
stay straight, the side pairings stay translations, and a cross product is
the true one divided by s > 0, so its sign is unchanged.  The metric
appears only in dot.  Side labels and the interval conventions are fixed
once by calibration (see CONVENTIONS.md) and frozen here as constants.

Both flows are walked in the upper pentagon alone, by one loop (_walk)
over one side table.  The lower copy is the central mirror p -> _T0 - p,
so a surface crossing, read back through it, is the half turn about the
side's midpoint; a billiard bounce is the reflection in the side.  Each
walk adds up the flight time of its pieces and keeps them as its path
(see TraceResult).
"""

from __future__ import annotations

from typing import NamedTuple

from .directions import in_closed_sector
from .golden import (
    FrozenValue,
    HALF,
    ONE,
    PHI,
    PHI2,
    S_SQUARED,
    ZERO,
    GoldenNum,
    ProjectivePoint,
    decimal_of,
)
from .orbits import CyclicWord


class SaddleConnectionError(RuntimeError):
    """The trajectory ran into a cone point."""


class TraceBudgetExceeded(RuntimeError):
    """A trace ran to its cap, the exact closing count, without closing."""

    def __init__(self, direction: PlanePoint, cap: int, crossings: int):
        super().__init__(f"trace in direction {direction} made {crossings} "
                         f"crossings without closing (cap {cap})")
        self.direction = direction
        self.cap = cap
        self.crossings = crossings


class SingularOrbit(RuntimeError):
    """A section orbit hit a division point."""


class PlanePoint(FrozenValue):
    """A point or vector of the chart: the plane point (x, y * sin 36)."""

    __slots__ = ("x", "y")

    def __init__(self, x: GoldenNum, y: GoldenNum):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __add__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PlanePoint":
        return PlanePoint(-self.x, -self.y)

    def scale(self, k: GoldenNum) -> "PlanePoint":
        return PlanePoint(self.x * k, self.y * k)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __str__(self) -> str:
        y = "0" if self.y.is_zero() else f"({self.y})*s"  # s = sin 36
        return f"({self.x}, {y})"


def cross(a: PlanePoint, b: PlanePoint) -> GoldenNum:
    """The true cross product divided by sin 36: same sign, same ratios."""
    return a.x * b.y - a.y * b.x


def dot(a: PlanePoint, b: PlanePoint) -> GoldenNum:
    """The true dot product, the one place the chart's metric appears."""
    return a.x * b.x + S_SQUARED * (a.y * b.y)


# ---------------------------------------------------------------------------
# the chart: unit pentagon with a horizontal diagonal plus its central mirror

_HALF_PHI = PHI * HALF

_A = PlanePoint(_HALF_PHI, ONE)  # apex
_B = PlanePoint(ZERO, ZERO)
_D = PlanePoint(_HALF_PHI - HALF, -PHI)
_E = PlanePoint(_HALF_PHI + HALF, -PHI)
_C = PlanePoint(PHI, ZERO)

#: vertices of the upper pentagon, counterclockwise
PENTAGON_UPPER = (_A, _B, _D, _E, _C)

#: the lower copy is the central mirror p -> _T0 - p of the upper one
_T0 = PlanePoint(PHI, GoldenNum.of(0, -2))

PENTAGON_LOWER = tuple(-v + _T0 for v in PENTAGON_UPPER)

#: side labels around the pentagon, frozen by calibration: the two strip
#: words of each boundary direction parse to the expected interval symbols.
#: Side i runs from vertex i to vertex i + 1 of PENTAGON_UPPER (A, B, D, E, C).
SIDE_LABELS = {"AB": 2, "BD": 5, "DE": 3, "EC": 1, "CA": 4}


class Side(NamedTuple):
    name: str
    label: int
    v0: PlanePoint
    v1: PlanePoint
    reflection: tuple  # billiard reflection across the side, (a, b, c, d)


def _reflect_matrix(w: PlanePoint) -> tuple:
    """Reflection across the line with direction w, in the chart: with
    G = diag(1, s^2) it is 2 w (G w)^T / (w^T G w) - I, over Q[phi].  Its
    trace is zero, so the last entry is minus the first."""
    xx, yy, xy = w.x * w.x, S_SQUARED * (w.y * w.y), w.x * w.y
    inv = (xx + yy).inverse()
    a, c = (xx - yy) * inv, (xy + xy) * inv
    return (a, S_SQUARED * c, c, -a)


#: the sides of the upper pentagon, the one table both flows walk over
SIDES = tuple(
    Side(name, label, v0, v1, _reflect_matrix(v1 - v0))
    for (name, label), v0, v1 in zip(SIDE_LABELS.items(), PENTAGON_UPPER,
                                     PENTAGON_UPPER[1:] + PENTAGON_UPPER[:1]))

#: the diagonals bounding the principal sector, length phi each: from the
#: two lower vertices up to the apex
U_VEC = _A - _D
V_VEC = _A - _E


def direction_of_coordinate(x: GoldenNum) -> PlanePoint:
    """Exact direction for a boundary coordinate in the closed sector: the
    plane direction (x, sin 36), which is (x, 1) in the chart."""
    return PlanePoint(x, ONE)


def direction_of_vector(p: GoldenNum, q: GoldenNum) -> PlanePoint:
    """p times the upper sector diagonal plus q times the lower one."""
    if p.is_zero() and q.is_zero():
        raise ValueError("zero vector has no direction")
    return U_VEC.scale(p) + V_VEC.scale(q)


def _inside(p: PlanePoint) -> bool:
    """Whether p lies strictly inside the upper pentagon."""
    return all(cross(side.v1 - side.v0, p - side.v0).sign() > 0 for side in SIDES)


def _exit_side(pos: PlanePoint, direction: PlanePoint):
    """First side hit by the ray; returns (side, hit point, t).  The
    pentagon is convex and counterclockwise, so the ray leaves through the
    one side whose first vertex lies right of it and whose second does not;
    a second vertex on the ray is a cone point ahead."""
    signs = [cross(direction, side.v0 - pos).sign() for side in SIDES]
    for side, here, ahead in zip(SIDES, signs, signs[1:] + signs[:1]):
        if here < 0 <= ahead:
            if ahead == 0:
                raise SaddleConnectionError("trajectory hits a cone point")
            w = side.v1 - side.v0
            t = cross(side.v0 - pos, w) / cross(direction, w)
            return side, pos + direction.scale(t), t
    raise SaddleConnectionError("ray leaves through no side (degenerate)")


def _time_to(pos: PlanePoint, target: PlanePoint,
             direction: PlanePoint) -> GoldenNum | None:
    """The time at which the forward ray from pos passes through target, or
    None when it misses.  Caller guarantees target is interior to the
    pentagon, so a hit comes before the ray leaves."""
    rel = target - pos
    if not cross(rel, direction).is_zero():
        return None
    if not direction.x.is_zero():
        t = rel.x / direction.x
    else:
        t = rel.y / direction.y
    return t if t.sign() >= 0 else None


class TraceResult(NamedTuple):
    """Outcome of an exact trace.

    word is cyclic when the orbit closed, otherwise the crossing prefix.
    displacement is the unfolded end minus start, as chart components
    (dx, dy) with the plane vector (dx, dy * sin 36).  Pairing jumps and
    reflections keep the speed, so it is the direction times the flight
    time, to the last crossing or back to the start; for a closed orbit its
    squared norm is the exact squared length.  path holds the pieces (a, b)
    walked, one per crossing, plus the closing piece: a billiard's all lie
    in the pentagon, a surface orbit's alternate between the upper copy,
    where it starts, and the lower one.
    """

    word: CyclicWord | tuple[int, ...]
    closed: bool
    displacement: tuple[GoldenNum, GoldenNum]
    crossings: int
    start: PlanePoint
    direction: PlanePoint
    path: tuple[tuple[PlanePoint, PlanePoint], ...]

    @property
    def length_squared(self) -> GoldenNum:
        d = PlanePoint(*self.displacement)
        return dot(d, d)

    def to_json(self) -> dict:
        # the true components dx + 0*s and 0 + dy*s, each as [p, q]
        dx, dy = self.displacement
        word = self.word.symbols if self.closed else self.word
        out = {
            "word": list(word),
            "closed": self.closed,
            "crossings": self.crossings,
            "displacement": {
                "x": [dx.to_json(), ZERO.to_json()],
                "y": [ZERO.to_json(), dy.to_json()],
                "decimal": [str(decimal_of(dx, ZERO, 20)),
                            str(decimal_of(ZERO, dy, 20))],
            },
        }
        if self.closed:
            out["length_squared"] = self.length_squared.to_json()
        return out


def _result(labels: list[int], closed: bool, flight: GoldenNum,
            start: PlanePoint, direction: PlanePoint,
            path: list) -> TraceResult:
    disp = direction.scale(flight)
    word = CyclicWord(labels) if closed else tuple(labels)
    return TraceResult(word, closed, (disp.x, disp.y), len(labels),
                       start, direction, tuple(path))


def _walk(start: PlanePoint, direction: PlanePoint, cap: int,
          turn) -> TraceResult:
    """The one trace loop, in the upper pentagon: leave through _exit_side,
    let turn(side, hit, d) give the next position and direction, and close
    when the direction is back to the start's and the ray passes through
    the start, also at the last crossing allowed.  Cone-point hits raise."""
    if direction.is_zero():
        raise ValueError("direction must be nonzero")
    if not _inside(start):
        raise ValueError("start must lie strictly inside the upper pentagon")
    pos, d = start, direction
    labels: list[int] = []
    path = []
    flight = ZERO

    while len(labels) < cap:
        side, hit, t = _exit_side(pos, d)
        labels.append(side.label)
        path.append((pos, hit))
        flight = flight + t
        pos, d = turn(side, hit, d)
        if d == direction:
            t_last = _time_to(pos, start, d)
            if t_last is not None:
                path.append((pos, start))
                return _result(labels, True, flight + t_last, start,
                               direction, path)

    return _result(labels, False, flight, start, direction, path)


def _half_turn(side: Side, hit: PlanePoint, d: PlanePoint):
    """A surface crossing as the chart sees it: the pairing jump by
    _T0 - v0 - v1 into the lower copy, read back through p -> _T0 - p, is
    the half turn about the side's midpoint, and the direction reverses."""
    return side.v0 + side.v1 - hit, -d


def trace_surface(start: PlanePoint, direction: PlanePoint,
                  max_crossings: int) -> TraceResult:
    """Follow the straight-line flow on the double pentagon from a start
    strictly inside the upper copy; its odd pieces lie in the lower one."""
    res = _walk(start, direction, max_crossings, _half_turn)
    return res._replace(path=tuple((_T0 - a, _T0 - b) if i % 2 else (a, b)
                                   for i, (a, b) in enumerate(res.path)))


# ---------------------------------------------------------------------------
# the diagonal section and its interval exchange


class IETSpec(NamedTuple):
    """Exchange of four intervals on [0, phi] at the signed coordinate u.

    Intervals are labelled consecutively from the right end: I = [p3, phi),
    II = [p2, p3), III = [p1, p2), IV = [0, p1).  Reading the exchanged line
    the same way gives the image order III, I, IV, II, for either sign of u.
    """

    u: GoldenNum
    p1: GoldenNum
    p2: GoldenNum
    p3: GoldenNum
    translations: dict[int, GoldenNum]  # Roman value -> shift

    @property
    def division_points(self) -> tuple[GoldenNum, GoldenNum, GoldenNum]:
        return (self.p1, self.p2, self.p3)

    def lengths(self) -> dict[int, GoldenNum]:
        return {
            1: PHI - self.p3,
            2: self.p3 - self.p2,
            3: self.p2 - self.p1,
            4: self.p1,
        }

    def step(self, p: GoldenNum, side: str | None = None) -> tuple[GoldenNum, int]:
        """Image of p and the Roman symbol read.  side 'R' reads p + eps and
        'L' reads p - eps, so a division point has both one-sided images;
        None reads p itself, which must not be a division point."""
        if side is None and p in self.division_points:
            raise SingularOrbit(f"orbit hit division point {p}")
        if not (ZERO < p <= PHI if side == "L" else ZERO <= p < PHI):
            raise SingularOrbit(f"no branch of the exchange at {p}")
        # p lies in interval 4 less the number of division points at or
        # below it (strictly below for 'L'); they are ordered, so the ends
        # of an empty interval are counted together and it is never read
        k = 4 - sum(d < p if side == "L" else d <= p for d in self.division_points)
        return p + self.translations[k], k


def iet_build(u: GoldenNum) -> IETSpec:
    """The section exchange at the signed boundary coordinate u: the
    first-return map to the horizontal diagonal of the direction (u, sin 36),
    for u in [phi/2 - 1, 1 - phi/2].  Its coefficients are written only here,
    once for either sign: at -u the closed form is the exchange of u seen
    through p -> phi - p (division points phi - p3, phi - p2, phi - p1,
    symbol k read as 5 - k, each shift negated)."""
    if not in_closed_sector(ProjectivePoint(u)):
        raise ValueError("u must lie in [phi/2 - 1, 1 - phi/2]")
    t_coeff = GoldenNum.of(1, 2)  # 2 phi + 1
    # the p3 coefficient phi^2 = phi + 1 was fixed at calibration
    p1 = HALF - u * PHI2
    p2 = _HALF_PHI - u
    p3 = PHI - HALF - u * PHI2
    translations = {
        4: _HALF_PHI + u * t_coeff,
        3: -HALF + u * PHI2,
        2: HALF + u * PHI2,
        1: -_HALF_PHI + u * t_coeff,
    }
    return IETSpec(u, p1, p2, p3, translations)


def iet_orbit(spec: IETSpec, x0: GoldenNum,
              max_steps: int) -> tuple[CyclicWord | tuple[int, ...], bool]:
    """Iterate the exchange from x0, recording interval symbols."""
    if x0.sign() < 0 or (x0 - PHI).sign() >= 0:
        raise ValueError("starting point outside [0, phi)")
    word: list[int] = []
    p = x0
    while len(word) < max_steps:
        p, k = spec.step(p)
        word.append(k)
        if p == x0:
            return CyclicWord(word, roman=True), True
    return tuple(word), False


def section_cell_points(x: GoldenNum) -> list[GoldenNum]:
    """The points cutting the diagonal into cells: the division points, the
    two ends and their one-sided images, where the leaves from the cone
    points cross the diagonal.  Each leaf is followed until it is back at a
    seed, as it always is: every sector point of Q[phi] is a periodic
    direction, whose leaves are saddle connections bounding the strips.  So
    the cells are the strips' crossings, short plus long, and the exchange
    permutes them."""
    spec = iet_build(x)
    cuts = (ZERO, PHI, *spec.division_points)
    pts = set(cuts)
    # the limits from outside the diagonal, (0, 'L') and (phi, 'R'), are no
    # leaves; the seeds go in list order, so every process steps alike
    frontier = list(dict.fromkeys((p, side) for p in cuts for side in "LR"
                                  if (p, side) not in ((ZERO, "L"), (PHI, "R"))))
    seeds = set(frontier)
    while frontier:
        frontier = [(spec.step(v, side)[0], side) for v, side in frontier]
        pts.update(v for v, _side in frontier)
        # a leaf back at a seed goes on as that seed's leaf, already followed
        frontier = [leaf for leaf in frontier if leaf not in seeds]
    return sorted(pts)


def strip_cells_for_coordinate(x: GoldenNum, expected_long: int
                               ) -> list[tuple[GoldenNum, GoldenNum, TraceResult]]:
    """One section cell per parallel strip of a periodic direction.

    The exchange permutes the cells of section_cell_points, and each cycle
    of their midpoints is one strip.  Each cycle is followed in 1-D until it
    is back at its first midpoint, within the number of cells since the
    exchange is injective, and its strip traced once in 2-D from there.
    The one budget is that trace's cap, 2 * expected_long crossings for the
    exact long period: an open trace raises TraceBudgetExceeded with the
    crossings made.  A midpoint sent off the midpoints, or other than two
    cycles, means inconsistent cells and raises ArithmeticError.  Returns
    (lo, hi, trace-from-midpoint) twice, short then long by combinatorial
    length, breaking ties by geometric length."""
    direction = direction_of_coordinate(x)
    cap = 2 * expected_long
    spec = iet_build(x)
    pts = section_cell_points(x)
    cells = {(lo + hi) * HALF: (lo, hi) for lo, hi in zip(pts, pts[1:])}
    seen: set[GoldenNum] = set()
    strips = []
    for mid, (lo, hi) in cells.items():
        if mid in seen:
            continue
        p = mid
        while True:
            seen.add(p)
            p, _sym = spec.step(p)
            if p not in cells:
                raise ArithmeticError(f"the exchange at {x} sends a cell "
                                      f"midpoint to {p}, off the midpoints")
            if p == mid:
                break
        res = trace_surface(PlanePoint(mid, ZERO), direction, max_crossings=cap)
        if not res.closed:
            raise TraceBudgetExceeded(direction, cap, res.crossings)
        strips.append((lo, hi, res))
    if len(strips) != 2:
        raise ArithmeticError(f"found {len(strips)} strip(s) at {x}, not two")
    return sorted(strips, key=lambda c: (len(c[2].word), c[2].length_squared))


def periodic_orbits_for_coordinate(x: GoldenNum, expected_long: int
                                   ) -> tuple[TraceResult, TraceResult]:
    """Trace one orbit from each of the two parallel strips of a periodic
    direction; returns (short, long).  x is the boundary coordinate and
    expected_long the exact long period."""
    cells = strip_cells_for_coordinate(x, expected_long)
    return cells[0][2], cells[1][2]


# ---------------------------------------------------------------------------
# billiards in the single pentagon


def _mat_apply(m, v: PlanePoint) -> PlanePoint:
    a, b, c, d = m
    return PlanePoint(a * v.x + b * v.y, c * v.x + d * v.y)


def _bounce(side: Side, hit: PlanePoint, d: PlanePoint):
    return hit, _mat_apply(side.reflection, d)


def trace_billiard(start: PlanePoint, direction: PlanePoint,
                   max_reflections: int) -> TraceResult:
    """Exact billiard in the unit pentagon with the surface side labels.
    The unfolded path runs straight along the start direction, also when
    the holonomy of an odd period is a reflection."""
    return _walk(start, direction, max_reflections, _bounce)
