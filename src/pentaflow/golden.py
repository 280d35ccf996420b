"""Exact arithmetic in the golden field Q[phi].

GoldenNum is a + b*phi with rational a, b and phi = (1+sqrt5)/2, so
phi**2 = phi + 1.  Every predicate in this package (sign, equality,
ordering) is decided by exact integer arithmetic in Q[phi].  A true plane
coordinate may carry s = sin(36 degrees), s**2 = (3 - phi)/4; it is kept
as the pair (p, q) of golden numbers meaning p + q*s, and decimal_of is the
one output boundary.  PentaNum, that pair as an element of Q[phi][s], keeps
only the multiply, inverse and sign the traced benchmark times.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Union

Rational = Union[int, Fraction]


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


_set = object.__setattr__  # writes a slot past FrozenValue.__setattr__


class FrozenValue:
    """Base of the package's immutable __slots__ value types.

    The public slots are the fields.  They give equality between values of
    the same type, the hash of the field tuple, the repr
    Name(field=value, ...) and pickling; assigning an attribute raises
    AttributeError.  A slot whose name starts with an underscore is a cache
    and takes part in none of these.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)


class GoldenNum(FrozenValue):
    """Element a + b*phi of Q[phi], stored in lowest terms (Fraction does that)."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        _set(self, "a", a)
        _set(self, "b", b)

    @staticmethod
    def of(a: Rational, b: Rational = 0) -> "GoldenNum":
        return GoldenNum(Fraction(a), Fraction(b))

    def __add__(self, other: "GoldenNum") -> "GoldenNum":
        return GoldenNum(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GoldenNum") -> "GoldenNum":
        return GoldenNum(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "GoldenNum":
        return GoldenNum(-self.a, -self.b)

    def __mul__(self, other: "GoldenNum") -> "GoldenNum":
        # (a + b phi)(c + d phi) with phi^2 = phi + 1
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenNum(a * c + b * d, a * d + b * c + b * d)

    def norm(self) -> Fraction:
        # x times its Galois conjugate (phi -> 1 - phi), a rational number
        return self.a * self.a + self.a * self.b - self.b * self.b

    def inverse(self) -> "GoldenNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q[phi]")
        return GoldenNum((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other: "GoldenNum") -> "GoldenNum":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b(1+sqrt5)/2, never via floating point.

        With p = 2a + b and q = b the value is (p + q sqrt5)/2; when p and
        q disagree in sign the comparison reduces to p^2 versus 5 q^2.
        """
        p = 2 * self.a + self.b
        q = self.b
        sp, sq = _sgn(p), _sgn(q)
        if sq == 0:
            return sp
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        return sp * _sgn(p * p - 5 * q * q)

    def __lt__(self, other: "GoldenNum") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "GoldenNum") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "GoldenNum") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "GoldenNum") -> bool:
        return (self - other).sign() >= 0

    def to_decimal(self, digits: int = 30) -> decimal.Decimal:
        return decimal_of(self, ZERO, digits)

    def to_json(self) -> list:
        return [[self.a.numerator, self.a.denominator],
                [self.b.numerator, self.b.denominator]]

    @staticmethod
    def from_json(data: list) -> "GoldenNum":
        (an, ad), (bn, bd) = data
        return GoldenNum(Fraction(an, ad), Fraction(bn, bd))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        bpart = "phi" if self.b == 1 else ("-phi" if self.b == -1 else f"{self.b}*phi")
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        bpart = "phi" if mag == 1 else f"{mag}*phi"
        return f"{self.a} {sign} {bpart}"


ZERO = GoldenNum.of(0)
ONE = GoldenNum.of(1)
PHI = GoldenNum.of(0, 1)
PHI2 = GoldenNum.of(1, 1)  # phi^2 = phi + 1
HALF = GoldenNum.of(Fraction(1, 2))

#: s^2 = (3 - phi)/4, the square of sin 36 degrees.
S_SQUARED = GoldenNum.of(Fraction(3, 4), Fraction(-1, 4))


def decimal_of(p: GoldenNum, q: GoldenNum, digits: int) -> decimal.Decimal:
    """p + q*s with s = sin 36 degrees, computed with 15 guard digits and
    rounded half even to `digits` significant digits (zero to `digits`
    places): the one place the field meets decimals."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 15
        phi = (1 + D(5).sqrt()) / 2
        s = ((3 - phi) / 4).sqrt()
        pa, pb, qa, qb = (D(f.numerator) / f.denominator for f in (p.a, p.b, q.a, q.b))
        val = (pa + pb * phi) + (qa + qb * phi) * s
        quantum = D(1).scaleb(val.adjusted() - digits + 1 if val != 0 else -digits)
        return +val.quantize(quantum)


class PentaNum(FrozenValue):
    """Element p + q*s of Q[phi][s] with s = sin 36 degrees.

    The package computes in Q[phi] alone.  These members stay because the
    traced benchmark counts and times them (the `penta.*` counters), until
    those counters become optional (ROADMAP item 1)."""

    __slots__ = ("p", "q")

    def __init__(self, p: GoldenNum, q: GoldenNum):
        _set(self, "p", p)
        _set(self, "q", q)

    def __mul__(self, other: "PentaNum") -> "PentaNum":
        # reduce s^2 = (3 - phi)/4 so (p, q) stays canonical
        return PentaNum(
            self.p * other.p + self.q * other.q * S_SQUARED,
            self.p * other.q + self.q * other.p,
        )

    def inverse(self) -> "PentaNum":
        d = self.p * self.p - self.q * self.q * S_SQUARED
        if d.is_zero():
            if self.is_zero():
                raise ZeroDivisionError("division by zero in Q[phi][s]")
            raise ArithmeticError("inverse: s would be rational over Q[phi]")
        dinv = d.inverse()
        return PentaNum(self.p * dinv, -self.q * dinv)

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def sign(self) -> int:
        """Exact sign of p + q*s using s > 0."""
        sp, sq = self.p.sign(), self.q.sign()
        if sq == 0:
            return sp
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        # opposite signs: compare p^2 against q^2 s^2 inside Q[phi]
        d = self.p * self.p - self.q * self.q * S_SQUARED
        return sp * d.sign()


class ProjectivePoint(NamedTuple):
    """A point of the boundary circle: a golden number or the point at infinity."""

    value: GoldenNum | None  # None encodes infinity

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITY = ProjectivePoint(None)


class MoebiusMap(FrozenValue):
    """2x2 matrix over Q[phi] acting on the boundary circle by x -> (ax+b)/(cx+d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: GoldenNum, b: GoldenNum, c: GoldenNum, d: GoldenNum):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def apply(self, x: ProjectivePoint | GoldenNum) -> ProjectivePoint:
        if isinstance(x, GoldenNum):
            x = ProjectivePoint(x)
        if x.is_infinity:
            # image of infinity is the ratio of the first column
            if self.c.is_zero():
                return INFINITY
            return ProjectivePoint(self.a / self.c)
        v = x.value
        den = self.c * v + self.d
        if den.is_zero():
            return INFINITY
        return ProjectivePoint((self.a * v + self.b) / den)

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        # projective inverse: the adjugate
        return MoebiusMap(self.d, -self.b, -self.c, self.a)


IDENTITY_MAP = MoebiusMap(ONE, ZERO, ZERO, ONE)

#: clockwise rotation by 72 degrees on the boundary circle:
#: T(x) = (2 phi x + 3 - phi) / (2 phi - 4 x)
T_MAP = MoebiusMap(
    GoldenNum.of(0, 2),
    GoldenNum.of(3, -1),
    GoldenNum.of(-4),
    GoldenNum.of(0, 2),
)

#: reflection fixing the principal sector boundary: R(x) = 1 / (4 phi^4 x)
R_MAP = MoebiusMap(
    ZERO,
    ONE,
    GoldenNum.of(8, 12),  # 4 phi^4 = 8 + 12 phi
    ZERO,
)
