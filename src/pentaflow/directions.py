"""The tree of periodic directions in the principal sector.

Directions are addressed by digit strings over {0,1,2,3} whose last digit
is nonzero; the empty string is the top endpoint of the sector and the
reserved pseudo-index BOTTOM is the other endpoint.  Appending a trailing
zero does not change the direction, so raw digit strings normalize by
stripping trailing zeros.

Coordinates live on the boundary circle: the sector runs from
phi/2 - 1 up to 1 - phi/2 and contains 0.  The top endpoint is 1 - phi/2
and coordinates decrease toward the bottom.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from operator import matmul
from typing import Iterable, NamedTuple, Sequence

from .golden import (
    FrozenValue,
    GoldenNum,
    IDENTITY_MAP,
    ProjectivePoint,
    R_MAP,
    T_MAP,
)


class SectorError(ValueError):
    """Raised when a coordinate lies outside the closed principal sector."""


class DepthExceeded(RuntimeError):
    """index_of_coordinate ran out of depth; carries the digit prefix found.
    The message shows the prefix's first and last 8 digits and its length."""

    def __init__(self, prefix: tuple[int, ...]):
        shown = prefix if len(prefix) <= 16 else (*prefix[:8], "…", *prefix[-8:])
        super().__init__(f"no index found within depth budget; prefix "
                         f"({', '.join(map(str, shown))}) of {len(prefix)} "
                         f"digit{'s' * (len(prefix) != 1)}")
        self.prefix = prefix


#: coordinate of the top sector endpoint, 1 - phi/2
ALPHA_COORD = GoldenNum.of(1, "-1/2")
#: coordinate of the bottom sector endpoint, phi/2 - 1
BOTTOM_COORD = -ALPHA_COORD


class DirectionIndex(FrozenValue):
    """Digit string n1..nk with 0 <= ni <= 3 and nk != 0, or the BOTTOM endpoint."""

    __slots__ = ("digits", "bottom")

    def __init__(self, digits: tuple[int, ...] = (), bottom: bool = False):
        if bottom and digits:
            raise ValueError("BOTTOM carries no digits")
        for d in digits:
            if not 0 <= d <= 3:
                raise ValueError(f"digit out of range: {d}")
        if digits and digits[-1] == 0:
            raise ValueError("last digit must be nonzero (strip trailing zeros)")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "bottom", bottom)

    @staticmethod
    def from_digits(digits: Iterable[int]) -> "DirectionIndex":
        """Build an index, normalizing by the trailing-zero alias rule."""
        ds = list(digits)
        while ds and ds[-1] == 0:
            ds.pop()
        return DirectionIndex(tuple(ds))

    @staticmethod
    def parse(text: str) -> "DirectionIndex":
        """Read a digit string; every non-space character is one digit, so
        '01 2', '0 1 2' and '012' are the same index."""
        text = text.strip().lower()
        if text in ("", "alpha", "()"):
            return DirectionIndex()
        if text == "bottom":
            return BOTTOM
        try:
            digits = [int(c) for c in text if not c.isspace()]
        except ValueError:
            raise ValueError(f"not a digit string: {text!r}") from None
        return DirectionIndex.from_digits(digits)

    @property
    def generation(self) -> int:
        return len(self.digits)

    def mirrored(self) -> "DirectionIndex":
        """The index of the reflected direction (coordinate x -> -x)."""
        if self.bottom:
            return DirectionIndex()
        if not self.digits:
            return BOTTOM
        return DirectionIndex(mirror_digits(self.digits))

    def __str__(self) -> str:
        if self.bottom:
            return "bottom"
        if not self.digits:
            return "()"
        return "".join(str(d) for d in self.digits)


BOTTOM = DirectionIndex(bottom=True)


def _exponents(digits: Sequence[int]) -> list[int]:
    # exponent of the i-th rotation in the generator word, 1-based position
    k = len(digits)
    out = []
    for i, n in enumerate(digits, start=1):
        if i % 2 == 0:
            out.append(4 - n)
        elif i == k:
            out.append(n)
        else:
            out.append(n + 1)
    return out


#: T^-m for m = 0..4, as powers of the adjugate (equal up to a scalar)
_T_INV_POWERS = list(accumulate([T_MAP.inverse()] * 4, matmul, initial=IDENTITY_MAP))
#: the five base directions, in circular order: the orbit of the top
#: endpoint under the rotation T, whose m-th power is _T_INV_POWERS[-m]
GENERATION0_COORDS = tuple(_T_INV_POWERS[-m].apply(ALPHA_COORD) for m in range(5))
#: T^-m R for m = 1..4: one renormalization step on sub-arc m
_RENORM_MAPS = tuple(_T_INV_POWERS[m] @ R_MAP for m in (1, 2, 3, 4))
#: R T^m at index m = 1..4, one map per generator-word factor: the adjugate
#: of T^-m R, since R is an involution projectively
_FACTOR_MAPS = (None, *(f.inverse() for f in _RENORM_MAPS))
#: coordinates of indices 1, 2, 3, decreasing: the cuts between the four
#: sub-arcs of the sector; map m sends cut m to the top endpoint
_CUTS = tuple(_FACTOR_MAPS[m].apply(ALPHA_COORD).value for m in (1, 2, 3))


@lru_cache(maxsize=None)
def _coordinate_cached(digits: tuple[int, ...], bottom: bool) -> ProjectivePoint:
    if bottom:
        return ProjectivePoint(BOTTOM_COORD)
    x = ProjectivePoint(ALPHA_COORD)
    # innermost factor acts first
    for m in reversed(_exponents(digits)):
        x = _FACTOR_MAPS[m].apply(x)
    return x


def coordinate_of_index(idx: DirectionIndex) -> ProjectivePoint:
    """Exact boundary coordinate of a direction index."""
    return _coordinate_cached(idx.digits, idx.bottom)


def in_closed_sector(x: ProjectivePoint) -> bool:
    if x.is_infinity:
        return False
    return BOTTOM_COORD <= x.value <= ALPHA_COORD


def index_of_coordinate(x: ProjectivePoint | GoldenNum,
                        max_depth: int = 2000) -> DirectionIndex:
    """Invert coordinate_of_index by renormalization.

    The cuts, the coordinates of indices 1, 2, 3, split the sector into
    four sub-arcs.  Each step reads which sub-arc m holds the point from
    three exact comparisons and applies T^-m R, which carries sub-arc m
    onto the closed sector and its lower end to the top endpoint; the run
    ends there.  Points of the golden field always terminate, though
    points very close to a shallow vertex take long same-digit runs; the
    depth budget, counted in digits, guards against non-field input.
    """
    if isinstance(x, GoldenNum):
        x = ProjectivePoint(x)
    if not in_closed_sector(x):
        raise SectorError(f"coordinate {x} outside the closed principal sector")
    if x.value == BOTTOM_COORD:
        return BOTTOM

    # peel rotation exponents until the top endpoint is reached exactly
    ms: list[int] = []
    pt = x.value
    while pt != ALPHA_COORD:
        if len(ms) >= max_depth:
            raise DepthExceeded(_fold_digits(ms))
        m = 1 + sum(pt < c for c in _CUTS)
        pt = _RENORM_MAPS[m - 1].apply(pt).value
        ms.append(m)
    return DirectionIndex(_fold_digits(ms))


def _fold_digits(ms: list[int]) -> tuple[int, ...]:
    """Rebuild the digit string from the peeled rotation exponents: the
    innermost exponent is a digit verbatim, outer ones shift by one and
    reflect the tail after them.  Digit i is reflected once per exponent
    before it, and reflection is an involution, so only the parity of i
    counts: one pass, no tail rebuilt."""
    if not ms:
        return ()
    digits = [4 - m if i % 2 else m - 1 for i, m in enumerate(ms[:-1])]
    digits.append(4 - ms[-1] if len(ms) % 2 == 0 else ms[-1])
    return tuple(digits)


def mirror_digits(digits: tuple[int, ...]) -> tuple[int, ...]:
    """Digit reflection x -> -x: all digits complement to 3, the last to 4."""
    if not digits:
        return ()
    return tuple(3 - d for d in digits[:-1]) + (4 - digits[-1],)


# ---------------------------------------------------------------------------
# tessellation arcs
#
# Arcs of the sector form a quaternary tree indexed by prefixes over
# {0,1,2,3}.  Arc P splits into P+(0)..P+(3); the three new vertices between
# them are the valid indices P+(1), P+(2), P+(3).  Endpoints:


def arc_left_vertex(prefix: tuple[int, ...]) -> DirectionIndex:
    """Upper endpoint (larger coordinate) of the arc with the given prefix."""
    return DirectionIndex.from_digits(prefix)


def arc_right_vertex(prefix: tuple[int, ...]) -> DirectionIndex:
    """Lower endpoint of the arc: increment the last non-3 digit."""
    ds = list(prefix)
    while ds and ds[-1] == 3:
        ds.pop()
    if not ds:
        return BOTTOM
    ds[-1] += 1
    return DirectionIndex(tuple(ds))


class IdealPentagon(FrozenValue):
    """Five boundary vertices in decreasing coordinate order along the arc;
    arc is None for the base pentagon."""

    __slots__ = ("vertices", "generation", "arc")

    def __init__(self, vertices: tuple[ProjectivePoint, ...], generation: int,
                 arc: tuple[int, ...] | None = None):
        if len(vertices) != 5:
            raise ValueError("an ideal pentagon has five vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "generation", generation)
        object.__setattr__(self, "arc", arc)


def pentagon_for_arc(prefix: tuple[int, ...]) -> IdealPentagon:
    left = arc_left_vertex(prefix)
    right = arc_right_vertex(prefix)
    mids = [DirectionIndex(prefix + (j,)) for j in (1, 2, 3)]
    coords = tuple(
        coordinate_of_index(v) for v in [left, *mids, right]
    )
    return IdealPentagon(coords, generation=len(prefix) + 1, arc=prefix)


def pentagons_to_depth(d: int) -> list[IdealPentagon]:
    """The base ideal pentagon plus all sector pentagons on arcs of length < d."""
    if d < 0:
        raise ValueError("depth must be nonnegative")
    arcs = [(), *index_strings_to_depth(d - 1)] if d else []
    return [IdealPentagon(GENERATION0_COORDS, generation=0),
            *map(pentagon_for_arc, arcs)]


def indices_at_generation(g: int) -> list[DirectionIndex]:
    """All valid indices with exactly g digits."""
    if g == 0:
        return [DirectionIndex()]
    return [DirectionIndex((*prefix, j))
            for prefix in product(range(4), repeat=g - 1) for j in (1, 2, 3)]


def index_strings_to_depth(d: int) -> list[tuple[int, ...]]:
    """All digit strings of length 1..d (4 + 16 + ... + 4^d of them).

    Strings with trailing zeros alias shallower vertices; normalize with
    DirectionIndex.from_digits.
    """
    out: list[tuple[int, ...]] = []
    level: list[tuple[int, ...]] = [()]
    for _ in range(d):
        level = [p + (j,) for p in level for j in range(4)]
        out.extend(level)
    return out


class NeighborFamily(NamedTuple):
    """Tessellation vertices joined to a center by a pentagon side.

    members maps the family position i to (index, coordinate); positions
    increase toward the center on the upper side (i >= 0) and away from it
    on the lower side (i < 0).  Corner centers have one-sided families.
    """

    center: DirectionIndex
    center_coord: ProjectivePoint
    members: tuple[tuple[int, DirectionIndex, ProjectivePoint], ...]


def neighbor_chain(beta: DirectionIndex, side: str, n: int) -> list[DirectionIndex]:
    """The first n tessellation neighbors of beta on one side ('upper' or
    'lower'): the far anchor first, later entries converging to beta.  A
    corner has no neighbors on its outer side."""
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', not {side!r}")
    if side == "upper":
        if not beta.bottom and not beta.digits:
            return []
        # the upper chain runs down the arc above beta through digit 3
        arc = () if beta.bottom else beta.digits[:-1] + (beta.digits[-1] - 1,)
        chain = [arc_left_vertex(arc)]
        while len(chain) < n:
            arc = arc + (3,)
            chain.append(DirectionIndex(arc))
    else:
        if beta.bottom:
            return []
        # the lower chain climbs the arc below beta through digit 0
        arc = beta.digits
        chain = [arc_right_vertex(arc)]
        while len(chain) < n:
            chain.append(DirectionIndex(arc + (1,)))
            arc = arc + (0,)
    return chain[:n]


def neighbor_family(beta: DirectionIndex, radius: int) -> NeighborFamily:
    """The 2*radius + 1 neighbors of beta, combinatorially enumerated."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    total = 2 * radius + 1

    if beta.bottom or not beta.digits:
        # a corner's neighbors all lie on its inner side
        upper = neighbor_chain(beta, "upper", total)
        lower = neighbor_chain(beta, "lower", total)
    else:
        upper = neighbor_chain(beta, "upper", radius + 1)
        lower = neighbor_chain(beta, "lower", radius)

    members: list[tuple[int, DirectionIndex, ProjectivePoint]] = []
    for t, v in enumerate(upper):
        members.append((t, v, coordinate_of_index(v)))
    for t, v in enumerate(lower):
        members.append((-1 - t, v, coordinate_of_index(v)))
    members.sort(key=lambda m: m[0])
    return NeighborFamily(beta, coordinate_of_index(beta), tuple(members))
