"""Symbolic orbits as cyclic words.

Arabic words run over side labels {1..5}, Roman words over interval
symbols {I..IV}.  A generation step rotates the Arabic alphabet and then
inserts the vertices passed along the chain graph 1 - 4 - 3 - 2 - 5;
the converse deletes every symbol that is not sandwiched between equal
neighbors.  The conventions that tie words to direction indices are fixed
by calibration against the geometric tracer and recorded in CONVENTIONS.md.

A word holds one byte per symbol.  Two words are equal up to rotation when
one occurs in the other doubled (`_is_rotation`), the one rotation test,
which the conjecture searches in `analysis` use as well.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Literal

from .directions import DirectionIndex, _exponents, mirror_digits
from .golden import FrozenValue

ROMAN_NAMES = {1: "I", 2: "II", 3: "III", 4: "IV"}
ROMAN_VALUES = {v: k for k, v in ROMAN_NAMES.items()}

#: the chain graph as a line; adjacent entries are its edges
CHAIN_ORDER = (1, 4, 3, 2, 5)
_CHAIN_POS = {s: i for i, s in enumerate(CHAIN_ORDER)}
_ALPHABET = bytes((1, 2, 3, 4, 5))
_ROMAN_ALPHABET = _ALPHABET[:4]

#: Arabic pair -> Roman symbol (the downward edges of the chain)
ROMAN_OF_PAIR = {(4, 3): 1, (4, 1): 2, (2, 5): 3, (2, 3): 4}

Kind = Literal["short", "long"]


class WordError(ValueError):
    pass


class CyclicWord(FrozenValue):
    """A nonempty word considered up to rotation; equality is cyclic.

    symbols holds one byte per symbol.  Equal words have equal symbol
    counts, so the hash is taken from the counts."""

    __slots__ = ("symbols", "roman")

    def __init__(self, symbols: Iterable[int], roman: bool = False):
        # bad: the bytes outside the alphabet, or every symbol of a non-bytes
        # input, whose values need not fit in a byte
        if isinstance(symbols, bytes):
            bad = symbols.translate(None, _ROMAN_ALPHABET if roman else _ALPHABET)
        else:
            symbols = bad = tuple(symbols)
        if not symbols:
            raise WordError("empty word")
        if bad:
            lo, hi = min(bad), max(bad)
            if lo < 1 or hi > (4 if roman else 5):
                raise WordError(f"symbol {lo if lo < 1 else hi} out of range for this alphabet")
        object.__setattr__(self, "symbols", bytes(symbols))
        object.__setattr__(self, "roman", roman)

    @staticmethod
    def parse(text: str) -> "CyclicWord":
        parts = text.split()
        if not parts:
            raise WordError("empty word")
        roman = parts[0].upper() in ROMAN_VALUES
        symbols = []
        for p in parts:
            try:
                symbols.append(ROMAN_VALUES[p.upper()] if roman else int(p))
            except (KeyError, ValueError):
                raise WordError(f"{p!r} is not a symbol of the word {text!r}") from None
        return CyclicWord(symbols, roman=roman)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self.roman == other.roman and _is_rotation(self.symbols, other.symbols * 2)

    def __hash__(self) -> int:
        return hash((self.roman, *map(self.symbols.count, _ALPHABET)))

    def __str__(self) -> str:
        if self.roman:
            return " ".join(ROMAN_NAMES[s] for s in self.symbols)
        return " ".join(str(s) for s in self.symbols)


def _is_rotation(x: bytes, ww: bytes) -> bool:
    """Is x a rotation of the word w, given ww = w w?  Then ww.find(x) is
    the offset of w's first rotation equal to x.  The substring search is
    linear (two-way string matching) on long words."""
    return 2 * len(x) == len(ww) and x in ww


def rotations(s: tuple[int, ...]):
    """Every rotation of a symbol sequence, s itself first; the empty
    sequence has the one rotation ()."""
    if not s:
        yield ()
    for k in range(len(s)):
        yield s[k:] + s[:k]


#: the Arabic alphabet rotated by 0..4, as translation tables
_SHIFTS = tuple(bytes.maketrans(_ALPHABET, _ALPHABET[j:] + _ALPHABET[:j])
                for j in range(5))


def rotate_alphabet(w: CyclicWord, j: int) -> CyclicWord:
    """Shift every Arabic symbol by j, cyclically in {1..5}."""
    if w.roman:
        raise WordError("alphabet rotation applies to Arabic words")
    if not 0 <= j <= 4:
        raise WordError("shift must lie in 0..4")
    return CyclicWord(w.symbols.translate(_SHIFTS[j]))


def _chain_path_interior(a: int, b: int) -> tuple[int, ...]:
    ia, ib = _CHAIN_POS[a], _CHAIN_POS[b]
    step = 1 if ib > ia else -1
    return tuple(CHAIN_ORDER[i] for i in range(ia + step, ib, step)) if ia != ib else ()


#: _STEPS[a][b] is a followed by the chain vertices passed on the way to
#: b, one latin-1 character per symbol; the lists are indexed by symbol, so
#: entry 0 is unused.  str pieces, because bytes.join holds a buffer view
#: of about 80 bytes per piece while it joins
_STEPS = [None] + [[None] + [bytes((a, *_chain_path_interior(a, b))).decode("latin-1")
                            for b in _ALPHABET]
                   for a in _ALPHABET]


def enhance(w: CyclicWord) -> CyclicWord:
    """Insert the chain-graph vertices passed between consecutive symbols."""
    if w.roman:
        raise WordError("enhancement applies to Arabic words")
    s = w.symbols
    steps = "".join([_STEPS[a][b] for a, b in zip(s, s[1:] + s[:1])])
    return CyclicWord(steps.encode("latin-1"))


def reduce_word(w: CyclicWord) -> CyclicWord:
    """Keep exactly the sandwiched symbols (equal cyclic neighbors)."""
    if w.roman:
        raise WordError("reduction applies to Arabic words")
    s = w.symbols
    kept = bytes(b for a, b, c in zip(s[-1:] + s[:-1], s, s[1:] + s[:1]) if a == c)
    if not kept:
        raise WordError("no sandwiched symbols; not an enhanced orbit")
    return CyclicWord(kept)


def roman_of_arabic(w: CyclicWord) -> CyclicWord:
    """Parse an Arabic word into its unique Roman pair form."""
    if w.roman:
        return w
    if len(w) % 2:
        raise WordError("odd length cannot parse into pairs")
    s = w.symbols
    n = len(s)
    last_bad = 0
    for offset in (0, 1):
        rot = s[offset:] + s[:offset]
        roman = [ROMAN_OF_PAIR.get(pair) for pair in zip(rot[::2], rot[1::2])]
        if None not in roman:
            return CyclicWord(bytes(roman), roman=True)
        last_bad = (offset + 2 * roman.index(None)) % n
    raise WordError(f"no rotation parses into the four pairs (near position {last_bad})")


# ---------------------------------------------------------------------------
# the orbit engine

#: generation-zero orbits, fixed by the tracer calibration (CONVENTIONS.md)
BASE_ORBITS = {
    (False, "short"): CyclicWord((2, 5)),   # top endpoint, one short pass
    (False, "long"): CyclicWord((4, 3)),
    (True, "short"): CyclicWord((4, 1)),    # bottom endpoint
    (True, "long"): CyclicWord((2, 3)),
}


@lru_cache(maxsize=None)
def _orbit_cached(exponents: tuple[int, ...], bottom: bool, kind: Kind) -> CyclicWord:
    """Rotate the orbit of the inner exponents by the outermost one, then
    enhance it.  The exponents are `directions._exponents`, outermost
    first, the chain `coordinate_of_index` folds; the inner ones are the
    parent's.  BOTTOM and () are their own base.  Call it with the parent
    cached, as `orbit_of_index` does, so that it recurses one level."""
    if bottom or not exponents:
        return BASE_ORBITS[(bottom, kind)]
    return enhance(rotate_alphabet(_orbit_cached(exponents[1:], False, kind),
                                   exponents[0]))


def orbit_of_index(idx: DirectionIndex, kind: Kind) -> CyclicWord:
    """The Arabic symbolic orbit at a direction index, short or long kind."""
    if kind not in ("short", "long"):
        raise ValueError("kind must be 'short' or 'long'")
    # innermost first, so that a deep index stays under the recursion limit
    exps = tuple(_exponents(idx.digits))
    for i in range(len(exps), -1, -1):
        word = _orbit_cached(exps[i:], idx.bottom, kind)
    return word


def reduction_parent(idx: DirectionIndex) -> DirectionIndex:
    """The index whose orbit the reduction of idx's orbit lands on."""
    if idx.bottom or len(idx.digits) < 2:
        raise ValueError("reduction parent needs at least two digits")
    return DirectionIndex(mirror_digits(idx.digits[1:]))


# ---------------------------------------------------------------------------
# orbit vectors


class OrbitVector(FrozenValue):
    """Counts (c, d, e, f) of the Roman symbols I, II, III, IV per period."""

    __slots__ = ("c", "d", "e", "f")

    def __init__(self, c: int, d: int, e: int, f: int):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)

    def __add__(self, other: "OrbitVector") -> "OrbitVector":
        return OrbitVector(self.c + other.c, self.d + other.d,
                           self.e + other.e, self.f + other.f)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.c, self.d, self.e, self.f)

    @property
    def period(self) -> int:
        return self.c + self.d + self.e + self.f

    def __str__(self) -> str:
        return f"({self.c},{self.d},{self.e},{self.f})"


def vector_of(w: CyclicWord) -> OrbitVector:
    r = roman_of_arabic(w)
    return OrbitVector(*(r.symbols.count(k) for k in (1, 2, 3, 4)))


def apply_L(i: int, v: OrbitVector) -> OrbitVector:
    """Vector action of one generation step with alphabet shift i."""
    c, d, e, f = v.as_tuple()
    if i == 1:
        return OrbitVector(c + e + f, e, c + d, c)
    if i == 2:
        return OrbitVector(c + d + e + f, c + d, c + f, c + e + f)
    if i == 3:
        return OrbitVector(c + d + f, c + f, e + f, c + d + e + f)
    if i == 4:
        return OrbitVector(f, e + f, d, c + d + f)
    raise ValueError("shift must lie in 1..4")


def apply_M(v: OrbitVector) -> OrbitVector:
    """long = M . short, and M^2 = M + I."""
    c, d, e, f = v.as_tuple()
    return OrbitVector(c + e, f, c, d + f)


def check_M(short: OrbitVector, long: OrbitVector) -> bool:
    return apply_M(short) == long


def billiard_multiplier(v: OrbitVector) -> int:
    """1 if the pentagon billiard closes in one surface period, else 5."""
    return 1 if ((v.c - v.f) + 2 * (v.e - v.d)) % 5 == 0 else 5


def quintuple_relation(a: OrbitVector, A: OrbitVector,
                       b: OrbitVector, B: OrbitVector
                       ) -> tuple[tuple[OrbitVector, OrbitVector], ...]:
    """Vector pairs of the three arc children given the endpoint pairs.
    The sums are additive, so on the symbol counts they give the children's
    periods (`periods.child_periods`)."""
    return (
        (b + A, a + A + B),
        (A + B, a + b + A + B),
        (a + B, b + A + B),
    )


def vectors_of_index(idx: DirectionIndex) -> tuple[OrbitVector, OrbitVector]:
    """(short, long) orbit vectors without building a word.

    The same recursion as the orbit engine, on counts: the generation step
    with shift i maps the parent's vector v to apply_L(i, v), and the
    shifts of the whole chain, innermost last, are the rotation exponents
    `directions._exponents` that `coordinate_of_index` folds.  BOTTOM and
    () are their own base.  The short vector is folded alone: M commutes
    with every apply_L and long = M short at both bases (CONVENTIONS.md,
    the Veech step), so long = M short at every index.  O(depth) vector
    operations.
    """
    short = vector_of(BASE_ORBITS[(idx.bottom, "short")])
    for shift in reversed(_exponents(idx.digits)):
        short = apply_L(shift, short)
    return short, apply_M(short)
