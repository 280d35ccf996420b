"""The retired routes that the tests compare the fast paths against, and the
helpers and index sets the test modules share.

Each route is kept verbatim as it stood when the package replaced it; its
docstring names the fast path it guards and the commit that retired it.
The test modules import this file as `reference`: `tests/` has no
`__init__.py`, so pytest puts the directory on `sys.path`.
"""

import decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import matmul

from pentaflow import directions, tracer
from pentaflow.analysis import SplittingWitness
from pentaflow.directions import (
    ALPHA_COORD,
    BOTTOM,
    BOTTOM_COORD,
    DepthExceeded,
    DirectionIndex,
    _exponents,
    in_closed_sector,
    mirror_digits,
)
from pentaflow.golden import (
    GoldenNum,
    MoebiusMap,
    ONE,
    PHI,
    PHI2,
    ProjectivePoint,
    R_MAP,
    T_MAP,
    ZERO,
)
from pentaflow.orbits import (
    BASE_ORBITS,
    ROMAN_OF_PAIR,
    CyclicWord,
    Kind,
    WordError,
    _chain_path_interior,
    roman_of_arabic,
    rotations,
)
from pentaflow.periods import PeriodPair
from pentaflow.tracer import (
    IETSpec,
    PENTAGON_LOWER,
    PENTAGON_UPPER,
    PlanePoint,
    SIDE_LABELS,
    SIDES,
    SaddleConnectionError,
    SingularOrbit,
    cross,
    direction_of_coordinate,
    iet_build,
    trace_surface,
)
from pentaflow.verify import _all_indices


def g(a, b=0):
    return GoldenNum.of(Fraction(a), Fraction(b))


W = CyclicWord.parse

#: every index to depth 3 once, `()` included, in the order of the ledger;
#: the digit strings `0`, `00` and `000` all name `()`
DEPTH3 = tuple(_all_indices(3))
#: the same and the bottom corner
DEPTH3_AND_BOTTOM = (*DEPTH3, BOTTOM)


def outcome(fn, *args):
    """fn's result, or the class and message of the error it raised, and
    for a DepthExceeded also the prefix it reached."""
    try:
        return fn(*args)
    except DepthExceeded as e:
        return type(e), str(e), e.prefix
    except (SaddleConnectionError, SingularOrbit) as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# the field's decimals, the two methods as they stood at `6712432`.  They
# guard `golden.decimal_of`, the one decimal routine since the next commit,
# which `direction`, `render` and the tracer's display forms call.


def golden_to_decimal(self, digits: int = 30) -> decimal.Decimal:
    """Decimal approximation, computed with guard digits and rounded."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 15
        root5 = decimal.Decimal(5).sqrt()
        val = (
            decimal.Decimal(self.a.numerator) / self.a.denominator
            + (decimal.Decimal(self.b.numerator) / self.b.denominator)
            * (1 + root5)
            / 2
        )
        return +decimal.Decimal(val.quantize(
            decimal.Decimal(1).scaleb(val.adjusted() - digits + 1)
            if val != 0 else decimal.Decimal(1).scaleb(-digits)
        ))


def penta_to_decimal(self, digits: int = 30) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 15
        root5 = decimal.Decimal(5).sqrt()
        phi = (1 + root5) / 2
        s = ((3 - phi) / 4).sqrt()

        def gval(g: GoldenNum) -> decimal.Decimal:
            return (decimal.Decimal(g.a.numerator) / g.a.denominator
                    + (decimal.Decimal(g.b.numerator) / g.b.denominator) * phi)

        val = gval(self.p) + gval(self.q) * s
        quantum = (decimal.Decimal(1).scaleb(val.adjusted() - digits + 1)
                   if val != 0 else decimal.Decimal(1).scaleb(-digits))
        return +val.quantize(quantum)


# ---------------------------------------------------------------------------
# the helpers that nothing in the package called, as they stood at
# `28461b3`, when they were deleted.  The tests still check the facts they
# stated: the projective orders of the generators and the Roman parse's
# inverse; the Veech-step certificate compares slope actions with the first.


def projectively_equal(m: MoebiusMap, n: MoebiusMap) -> bool:
    """Equality up to a nonzero scalar, by cross multiplication.

    Was `MoebiusMap.projectively_equal`."""
    mine = (m.a, m.b, m.c, m.d)
    theirs = (n.a, n.b, n.c, n.d)
    pivot = next((i for i, e in enumerate(mine) if not e.is_zero()), None)
    if pivot is None:
        return all(e.is_zero() for e in theirs)
    if theirs[pivot].is_zero():
        return False
    lam_num, lam_den = theirs[pivot], mine[pivot]
    return all(
        (mine[i] * lam_num - theirs[i] * lam_den).is_zero() for i in range(4)
    )


PAIR_OF_ROMAN = {v: k for k, v in ROMAN_OF_PAIR.items()}


def arabic_of_roman(w: CyclicWord) -> CyclicWord:
    """The Arabic word of a Roman one, each symbol written as its pair.

    Was `orbits.arabic_of_roman`; checks `orbits.roman_of_arabic`."""
    if not w.roman:
        return w
    return CyclicWord(bytes(a for s in w.symbols for a in PAIR_OF_ROMAN[s]))


# ---------------------------------------------------------------------------
# the tracer


def section_point(p: GoldenNum) -> PlanePoint:
    return PlanePoint(p, ZERO)


def _symbols(res) -> tuple[int, ...]:
    return res.word.symbols if res.closed else res.word


#: the lower copy is the upper one mirrored through p -> T0 - p
T0 = PENTAGON_UPPER[0] + PENTAGON_LOWER[0]


def pairing_translations(verts) -> dict[int, PlanePoint]:
    """Label -> the jump T0 - v0 - v1 across that side of a copy, the
    definition of the side pairings (CONVENTIONS.md)."""
    ends = zip(verts, verts[1:] + verts[:1])
    return {label: T0 - v0 - v1 for label, (v0, v1) in zip(SIDE_LABELS.values(), ends)}


#: the jumps out of the upper copy and out of the lower one
JUMPS = (pairing_translations(PENTAGON_UPPER), pairing_translations(PENTAGON_LOWER))


def unfolded_by_translations(res) -> PlanePoint:
    """The surface trace's displacement by the old route: the folded end of
    its path, less the pairing translations of the crossings before it.
    The trace starts in the upper copy, so crossing i leaves copy i % 2.

    Guards `TraceResult.displacement`, direction times flight time, which
    replaced the summed translations at `820c7de`."""
    assert tracer._inside(res.start)
    end = res.path[-1][1]
    for i, label in enumerate(_symbols(res)[:len(res.path) - 1]):
        end = end - JUMPS[i % 2][label]
    return end - res.start


def _mat_mul(m, n):
    a, b, c, d = m
    e, f, k, h = n
    return (a * e + b * k, a * f + b * h, c * e + d * k, c * f + d * h)


def unfolded_by_reflections(res) -> PlanePoint:
    """The billiard trace's displacement by the old route: compose the side
    reflections met before the folded end of its path into the unfolding
    x -> mat x + off, and apply it there.  The unfolded path is a straight
    run, so the result must be parallel to the start direction.

    Guards `TraceResult.displacement` of a billiard, which replaced the
    composed reflections (and `tracer._mat_mul`) at `820c7de`."""
    apply = tracer._mat_apply
    mat, off = (g(1), ZERO, ZERO, g(1)), PlanePoint(ZERO, ZERO)
    for label in _symbols(res)[:len(res.path) - 1]:
        side = next(s for s in SIDES if s.label == label)
        # the reflection acts first, then the unfolding so far
        off = apply(mat, side.v0 - apply(side.reflection, side.v0)) + off
        mat = _mat_mul(mat, side.reflection)
    disp = apply(mat, res.path[-1][1]) + off - res.start
    assert cross(disp, res.direction).is_zero(), "unfolded displacement not parallel"
    return disp


def reference_exit_side(pos: PlanePoint, direction: PlanePoint):
    """The old exit search: solve both hit parameters on every side and keep
    the nearest hit.

    Guards `tracer._exit_side`, which reads the side from the five vertex
    signs and divides once; retired at `5e090ac`."""
    best = None
    for side in SIDES:
        w = side.v1 - side.v0
        den = cross(direction, w)
        if den.is_zero():
            continue
        rel = side.v0 - pos
        t = cross(rel, w) / den
        if t.sign() <= 0:
            continue
        theta = cross(rel, direction) / den
        # theta must lie in [0, 1]; hits at the ends are cone points
        ts = theta.sign()
        if ts < 0 or (theta - ONE).sign() > 0:
            continue
        if best is None or (t - best[2]).sign() < 0:
            if ts == 0 or (theta - ONE).is_zero():
                best = (side, None, t)  # vertex hit candidate
            else:
                hit = pos + direction.scale(t)
                best = (side, hit, t)
    if best is None:
        raise SaddleConnectionError("ray leaves through no side (degenerate)")
    if best[1] is None:
        raise SaddleConnectionError("trajectory hits a cone point")
    return best


def reference_step(spec, p: GoldenNum, side: str | None = None):
    """The old IETSpec.step: scan the four intervals, skipping empty ones.

    Guards `IETSpec.step`, which counts the division points at or below p;
    retired at `5e090ac`."""
    if side is None and p in spec.division_points:
        raise SingularOrbit(f"orbit hit division point {p}")
    bounds = (ZERO, *spec.division_points, PHI)
    for k, lo, hi in zip((4, 3, 2, 1), bounds, bounds[1:]):
        inside = lo < p <= hi if side == "L" else lo <= p < hi
        if inside and not (hi - lo).is_zero():
            return p + spec.translations[k], k
    raise SingularOrbit(f"no branch of the exchange at {p}")


def mirrored_step(x: GoldenNum, p: GoldenNum, side: str | None):
    """The old route for x < 0: the exchange of -x seen through the mirror
    p -> phi - p, which swaps the Roman symbols and the one-sided reads.

    Guards `iet_build` on a negative coordinate, which builds the mirrored
    exchange as an ordinary `IETSpec`; retired at `9725adc`."""
    swapped = {"L": "R", "R": "L", None: None}[side]
    img, sym = iet_build(-x).step(PHI - p, swapped)
    return PHI - img, 5 - sym


def mirrored_spec(x: GoldenNum) -> IETSpec:
    """The old branch of `iet_build` for x < 0: the exchange of -x seen
    through the mirror p -> phi - p, with symbol k read as 5 - k and each
    shift negated.

    Guards `iet_build`, whose one closed form gives the same `IETSpec` at
    either sign; retired after `0ffdc61`."""
    m = iet_build(-x)
    return IETSpec(x, PHI - m.p3, PHI - m.p2, PHI - m.p1,
                   {k: -m.translations[5 - k] for k in (4, 3, 2, 1)})


def cells_from_division_points(x: GoldenNum, steps: int) -> list[GoldenNum]:
    """The old cell points: the one-sided images of the division points
    alone, each leaf dropped once it reaches an end of the diagonal.

    Guards `tracer.section_cell_points`, which also follows the leaves from
    the diagonal's ends; retired at `9725adc`."""
    spec = iet_build(x)
    pts = {ZERO, PHI, *spec.division_points}
    frontier = [(d, side) for d in spec.division_points for side in ("L", "R")]
    for _ in range(steps):
        frontier = [(spec.step(v, side)[0], side) for v, side in frontier
                    if v != ZERO and v != PHI]
        pts.update(v for v, _side in frontier)
    return sorted(pts)


def strips_by_trial(x: GoldenNum, expected_long: int):
    """The old strip search: trace from one old cell's midpoint after
    another, skipping cone hits, until two distinct words appear.

    Guards `tracer.strip_cells_for_coordinate`, which follows each strip's
    cells under the exchange and traces it once; retired at `9725adc`."""
    direction = direction_of_coordinate(x)
    pts = cells_from_division_points(x, expected_long + 2)
    found = {}
    for lo, hi in zip(pts, pts[1:]):
        start = section_point((lo + hi) / g(2))
        try:
            res = trace_surface(start, direction, max_crossings=2 * expected_long)
        except SaddleConnectionError:
            continue
        assert res.closed
        found.setdefault(least_rotation(res.word.symbols), res)
        if len(found) == 2:
            break
    return sorted(found.values(), key=lambda r: (len(r.word), r.length_squared))


# ---------------------------------------------------------------------------
# the directions


T_POWERS = dict(enumerate(accumulate([T_MAP] * 4, matmul), start=1))


def _coordinate_sequential(idx: DirectionIndex) -> ProjectivePoint:
    """The reference route: T^m, then R, for every generator-word factor.

    Guards `coordinate_of_index`, which applies one precomposed map per
    digit; retired at `204a691`."""
    if idx.bottom:
        return ProjectivePoint(BOTTOM_COORD)
    x = ProjectivePoint(ALPHA_COORD)
    for m in reversed(directions._exponents(idx.digits)):
        x = R_MAP.apply(T_POWERS[m].apply(x))
    return x


@lru_cache(maxsize=None)
def _exponents_by_candidates(x):
    """The four-candidate rule, kept as the reference: apply every T^-m R
    and keep one at the top endpoint, else the first in the sector short
    of its bottom endpoint.  Field points always reach the top endpoint.

    Guards `index_of_coordinate`, which reads each digit from the sub-arc
    that holds the point and applies that one map; retired at `4f63ee9`."""
    pt = ProjectivePoint(x)
    ms = []
    while pt.value != ALPHA_COORD:
        cands = [f.apply(pt) for f in directions._RENORM_MAPS]
        k = next((k for k, z in enumerate(cands) if z.value == ALPHA_COORD), None)
        if k is None:
            k = next(k for k, z in enumerate(cands)
                     if in_closed_sector(z) and z.value != BOTTOM_COORD)
        pt = cands[k]
        ms.append(k + 1)
    return tuple(ms)


def _index_by_candidates(x, max_depth=2000):
    """`_exponents_by_candidates` folded into an index, with the depth
    budget of `index_of_coordinate`; retired at `4f63ee9`."""
    # the budget only cuts the peeling short, so one unbounded run per
    # point answers every budget
    if x == BOTTOM_COORD:
        return BOTTOM
    ms = _exponents_by_candidates(x)
    if len(ms) > max_depth:
        raise DepthExceeded(directions._fold_digits(ms[:max_depth]))
    return DirectionIndex(directions._fold_digits(ms))


def _fold_by_mirroring(ms):
    """The quadratic fold, kept as the reference: each outer exponent
    rebuilds the digit string and mirrors its whole tail.

    Guards `directions._fold_digits`, the linear fold; retired at
    `126a2e4`."""
    digits = ()
    for m in reversed(ms):
        digits = (m,) if not digits else (m - 1,) + directions.mirror_digits(digits)
    return digits


# ---------------------------------------------------------------------------
# the words over tuples, as they stood at `cbf8adc`.  They guard
# `CyclicWord`'s equality and hash, `orbits.rotate_alphabet` and
# `orbits.enhance`, which work on the symbols as bytes since the next
# commit: a rotation is a substring of the doubled word, and the word
# operations are translation and step tables.


def _least_rotation_start(s: tuple[int, ...]) -> int:
    """Start of the lexicographically least rotation of s, in O(len(s)).

    Booth, "Lexicographically least circular substrings" (1980): the
    Knuth-Morris-Pratt failure function of s s, kept relative to the best
    start k found so far; a mismatch against a smaller symbol moves k.
    """
    ss = s + s
    fail = [-1] * len(ss)
    k = 0
    for j in range(1, len(ss)):
        c = ss[j]
        i = fail[j - k - 1]
        while i != -1 and c != ss[k + i + 1]:
            if c < ss[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != ss[k + i + 1]:
            # here i == -1, so c was compared with ss[k]
            if c < ss[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def least_rotation(s) -> tuple[int, ...]:
    """The least rotation of a symbol sequence, as a tuple: the key that
    two words over one alphabet share exactly when they are rotations of
    each other.

    Guards `CyclicWord`'s equality and hash, which it held until it was
    retired after `cbf8adc`."""
    s = tuple(s)
    k = _least_rotation_start(s)
    return s[k:] + s[:k]


def rotate_alphabet(w: CyclicWord, j: int) -> CyclicWord:
    """Shift every Arabic symbol by j, cyclically in {1..5}.

    Guards `orbits.rotate_alphabet`, one translation table per shift;
    retired after `cbf8adc`."""
    if w.roman:
        raise WordError("alphabet rotation applies to Arabic words")
    if not 0 <= j <= 4:
        raise WordError("shift must lie in 0..4")
    return CyclicWord(tuple((s - 1 + j) % 5 + 1 for s in w.symbols))


def enhance(w: CyclicWord) -> CyclicWord:
    """Insert the chain-graph vertices passed between consecutive symbols.

    Guards `orbits.enhance`, which joins the steps of a table built from
    the same chain paths; retired after `cbf8adc`."""
    if w.roman:
        raise WordError("enhancement applies to Arabic words")
    out: list[int] = []
    n = len(w.symbols)
    for i, s in enumerate(w.symbols):
        out.append(s)
        out.extend(_chain_path_interior(s, w.symbols[(i + 1) % n]))
    return CyclicWord(tuple(out))


# ---------------------------------------------------------------------------
# the orbit engine by parent digits, as it stood at `cf8371d`.  It guards
# `orbits.orbit_of_index`, which walks the rotation exponents of
# `directions._exponents` since the next commit.  It rotates and enhances
# by the tuple routes above, not by the package's tables.


def _generation_step(digits: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(alphabet shift, parent digits) of the generation step that builds
    a nonempty index's orbit from its parent's: at generation 1 the shift
    is the digit and the parent is (); deeper, the shift is the first
    digit plus one and the parent is the mirror of the remaining digits."""
    if len(digits) == 1:
        return digits[0], ()
    return digits[0] + 1, mirror_digits(digits[1:])


@lru_cache(maxsize=None)
def _orbit_cached(digits: tuple[int, ...], bottom: bool, kind: Kind) -> CyclicWord:
    """Rotate the parent's orbit by the step's shift, then enhance it;
    BOTTOM and () are their own base."""
    if bottom or not digits:
        return BASE_ORBITS[(bottom, kind)]
    shift, parent = _generation_step(digits)
    return enhance(rotate_alphabet(_orbit_cached(parent, False, kind), shift))


# ---------------------------------------------------------------------------
# the orbit engine as Roman substitutions.  Up to rotation, the generation
# step with shift i is a letter substitution sigma_i on Roman words, so an
# orbit is its base letter under the sigmas of the rotation exponents, an
# S-adic expansion.  The table was found by search on the orbit words and
# holds only on them: on all Roman words of one to three letters, shifts 1
# and 4 admit no substitution.  The package does not use it; the tests fix
# it as a fact of the orbits and derive the apply_L matrices from it.

#: ROMAN_SUBSTITUTIONS[i][k] is sigma_i of the Roman letter k
ROMAN_SUBSTITUTIONS = {
    1: {1: (3, 4, 1), 2: (3,), 3: (2, 1), 4: (1,)},
    2: {1: (2, 1, 3, 4), 2: (2, 1), 3: (1, 4), 4: (1, 3, 4)},
    3: {1: (4, 2, 1), 2: (4, 1), 3: (3, 4), 4: (3, 4, 2, 1)},
    4: {1: (4,), 2: (3, 4), 3: (2,), 4: (2, 1, 4)},
}


def roman_by_substitutions(idx: DirectionIndex, kind: Kind) -> CyclicWord:
    """The Roman orbit at idx, up to rotation: the base orbit's one letter
    under the substitutions of the rotation exponents, innermost first."""
    word = roman_of_arabic(BASE_ORBITS[(idx.bottom, kind)]).symbols
    for shift in reversed(_exponents(idx.digits)):
        images = {k: bytes(v) for k, v in ROMAN_SUBSTITUTIONS[shift].items()}
        word = b"".join([images[k] for k in word])
    return CyclicWord(word, roman=True)


# ---------------------------------------------------------------------------
# the periods


#: the four digit matrices acting on (upper, lower) period columns
X_MATRICES = (
    ((ONE, ZERO), (PHI, ONE)),                  # digit 0
    ((PHI, ONE), (PHI, PHI)),                   # digit 1
    ((PHI, PHI), (ONE, PHI)),                   # digit 2
    ((ONE, PHI), (ZERO, ONE)),                  # digit 3
)


def _apply(mat, vec):
    (a, b), (c, d) = mat
    u, v = vec
    return (a * u + b * v, c * u + d * v)


@lru_cache(maxsize=None)
def _period_vector(digits: tuple[int, ...]) -> tuple[GoldenNum, GoldenNum]:
    vec = (PHI2, PHI2)
    for n in digits:
        vec = _apply(X_MATRICES[n], vec)
    return vec


def period_by_matrices(idx: DirectionIndex) -> PeriodPair:
    """Short and long periods of the direction, from the digit matrix product
    over Z[phi]: digit d sends the column (u, v) of the arc's endpoint
    periods, encoded as a + A*phi, to the endpoints of its sub-arc d.

    Guards `periods.period_of_index`, which counts the symbols of the orbit
    vectors; the matrices were retired when the periods moved onto the
    vectors' exponent fold."""
    if idx.bottom:
        return PeriodPair(1, 1)
    x = _period_vector(idx.digits)[0]
    assert x.a.denominator == x.b.denominator == 1, x
    return PeriodPair(int(x.a), int(x.b))


# ---------------------------------------------------------------------------
# the concatenation searches as they stood before the doubled-word rotation
# test, over tuples: each candidate is compared with the chain words by
# `least_rotation`, not by the package's `CyclicWord ==`, which shares the
# substring test since `least_rotation` was retired after `cbf8adc`.  They guard
# `analysis.check_conjecture_concat` and `analysis.check_conjecture_splitting`,
# whose searches test a rotation as a substring of the doubled Roman word
# since `cd9cfce`.


def _concat_witness(target: CyclicWord, pieces: list[tuple[int, ...]]):
    """Search rotations: does some rotation of target split into rotations
    of the pieces, in order?  Returns the witness offsets or None.

    Guards `analysis._concat_witness`; retired at `cd9cfce`."""
    total = tuple(target.symbols)
    pieces = [tuple(p) for p in pieces]
    if sum(len(p) for p in pieces) != len(total):
        return None
    # each rotation of a piece -> its first offset in rotations(piece)
    piece_rots = [{} for _ in pieces]
    for first, p in zip(piece_rots, pieces):
        for k, r in enumerate(rotations(p)):
            first.setdefault(r, k)
    for off in range(len(total)):
        rot = total[off:] + total[:off]
        pos, offsets = 0, []
        for p, rots in zip(pieces, piece_rots):
            k = rots.get(rot[pos:pos + len(p)])
            if k is None:
                break
            offsets.append(k)
            pos += len(p)
        else:
            return (off, tuple(offsets))
    return None


def _keys(words: list[CyclicWord]) -> list[tuple[int, ...]]:
    return [least_rotation(w.symbols) for w in words]


def _find_splitting(S, L, shorts, longs, side) -> SplittingWitness | None:
    """The chain splitting around a generic center.

    Guards `analysis._find_splitting`; retired at `cd9cfce`."""
    shorts, longs = _keys(shorts), _keys(longs)
    s0 = shorts[0]
    l0 = longs[0]
    n_l, n_s = len(L), len(S)

    # candidate (a', b'): rotation of L cut at |short_0|, piece matching short_0
    ab_primes = []
    cut = len(s0)
    if cut <= n_l:
        for rot in rotations(L):
            ap, bp = rot[:cut], rot[cut:]
            if ap and least_rotation(ap) == s0:
                ab_primes.append((ap, bp))
    if not ab_primes:
        return None

    # candidate (a, b) and (c, d): d + a must tile long_0
    for rot_l in rotations(L):
        for cut_a in range(n_l + 1):
            a, b = rot_l[:cut_a], rot_l[cut_a:]
            d_len = len(l0) - cut_a
            if not 0 <= d_len <= n_s:
                continue
            for rot_s in rotations(S):
                c, d = rot_s[:n_s - d_len], rot_s[n_s - d_len:]
                if len(d) + len(a) == 0:
                    continue
                if least_rotation(d + a) != l0:
                    continue
                for ap, bp in ab_primes:
                    pref = _prefix_compatible(a, bp)
                    if pref is None:
                        continue
                    if _verify_chain(ap, bp, a, b, c, d, shorts, longs):
                        return SplittingWitness(side, c, d, a, b, ap, bp, pref)
    return None


def _prefix_compatible(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """How many symbols a and b share at their beginning, min(|a|, |b|),
    or None if they differ there.

    Was `analysis._prefix_compatible` as it stood at `5fee263`; the
    package's `_find_splitting` now tests whether b' begins with a[:|b'|]."""
    n = min(len(a), len(b))
    if n == 0:
        return 0
    return n if a[:n] == b[:n] else None


def _verify_chain(ap, bp, a, b, c, d, shorts, longs) -> bool:
    """Every chain member, given by its key, matches the pattern built from
    the pieces.

    Guards the chain tests in `analysis._find_splitting`, which were
    `analysis._verify_chain` until `5fee263`; retired at `cd9cfce`."""
    for i in range(1, len(shorts)):
        want_s = ap + (bp + ap) * i
        want_l = d + (c + d) * i + (a + b) * i + a
        if least_rotation(want_s) != shorts[i]:
            return False
        if least_rotation(want_l) != longs[i]:
            return False
    return True


def _find_corner_splitting(S, L, shorts, longs, side) -> SplittingWitness | None:
    """Degenerate chains anchored at the opposite corner: the anchor orbits
    are their own pieces, and the center's words tile only the growth:
    short_i = s0 L^i and long_i = l0 L^i S^i, over aligned rotations.

    Guards `analysis._find_corner_splitting`; retired at `cd9cfce`."""
    s0 = tuple(shorts[0].symbols)
    l0 = tuple(longs[0].symbols)
    shorts, longs = _keys(shorts), _keys(longs)
    for rs0 in rotations(s0):
        for rl in rotations(L):
            if any(least_rotation(rs0 + rl * i) != shorts[i]
                   for i in range(1, len(shorts))):
                continue
            for rl0 in rotations(l0):
                for rl2 in rotations(L):
                    for rs in rotations(S):
                        if all(least_rotation(rl0 + rl2 * i + rs * i) == longs[i]
                               for i in range(1, len(longs))):
                            return SplittingWitness(side, rs, (), rl2, (), rl, rs0, 0)
    return None
