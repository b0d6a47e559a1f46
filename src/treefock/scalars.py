"""Exact scalar arithmetic over the field Q(sqrt2, i), plus float-backend helpers.

Every coefficient produced by the level embeddings is a dyadic rational times
a power of 1/sqrt2, and every torus phase used in exact verification is an
8th root of unity.  Both live in Q(sqrt2, i).  An element is one
`ExactComplex` holding five Python ints ``(a, b, c, d, den)`` and standing
for ``(a + b*sqrt2 + (c + d*sqrt2)*i) / den``: one common denominator over
integer coordinates, the form number-field libraries such as FLINT's
``nf_elem`` use.  Every instance is kept in normal form, ``den > 0`` and
``gcd(a, b, c, d, den) == 1``, so equal values have equal fields and
equality and hashing compare ints.  Ring operations, conjugation and
squared modulus are all exact.  There is no division: the only inverses
the verifier takes are of phases on the unit circle, which are their
conjugates, so powers take nonnegative exponents only.  `QSqrt2(a, b)`
builds the real element a + b*sqrt2 from rational a, b; `QSqrt2` is the
subclass of `ExactComplex` for the real subfield, ``c == d == 0``.

The float backend uses the builtin ``complex``; the module-level helpers
`one` and `sqrt2_pow` dispatch on a backend name, while
`eighth_root` is exact only and `phase` float only.  Exact and float scalars
are deliberately not inter-operable: an `ExactComplex` mixed with a
``float`` or ``complex``, or built from a part that is not an int, a
Fraction or a real exact value, raises TypeError instead of silently
degrading precision.  Plain ``int`` and ``Fraction`` values coerce into
either backend, which lets vectors keep rational coefficients in their
cheapest form until an irrational scalar actually enters; `one` returns a
plain int on the exact backend for that reason.  A rational counts
as exact (`backend_of`), so the layers that combine two operands of stated
backends, such as ``fock.act`` and ``fock.inner``, check that they match.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Tuple, Union

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)

RationalLike = Union[int, Fraction]

_gcd = math.gcd
_new = object.__new__
_SQRT2 = math.sqrt(2.0)


def _make(a: int, b: int, c: int, d: int, den: int) -> "ExactComplex":
    """An ExactComplex from fields already in normal form."""
    x = _new(ExactComplex)
    x.a = a
    x.b = b
    x.c = c
    x.d = d
    x.den = den
    return x


def _reduced(a: int, b: int, c: int, d: int, den: int) -> "ExactComplex":
    """(a + b*sqrt2 + (c + d*sqrt2)*i)/den in normal form, for den > 0."""
    g = _gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return _make(a, b, c, d, den)


def _real_fields(x: object) -> Tuple[int, int, int]:
    """(a, b, den) with x == (a + b*sqrt2)/den, for a rational or real element."""
    if isinstance(x, ExactComplex):
        if x.c or x.d:
            raise TypeError(f"{x} is not real")
        return x.a, x.b, x.den
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{x!r} is not an int, Fraction or real exact value")
    return x.numerator, 0, x.denominator


def _fraction_str(a: int, b: int, den: int) -> str:
    """How a + b*sqrt2 over den prints, with each coefficient a reduced Fraction."""
    x, y = Fraction(a, den), Fraction(b, den)
    if y == 0:
        return str(x)
    if x == 0:
        return f"{y}*sqrt2"
    return f"{x} + {y}*sqrt2"


class ExactComplex:
    """An element (a + b*sqrt2 + (c + d*sqrt2)*i)/den of Q(sqrt2, i).

    ``ExactComplex(re, im)`` builds re + im*i from real parts that are ints,
    Fractions or real ExactComplex values (such as `QSqrt2` results); any
    other part, a float or a string among them, raises TypeError.
    Instances are immutable and always in normal form: ``den > 0`` and
    ``gcd(a, b, c, d, den) == 1``.
    """

    __slots__ = ("a", "b", "c", "d", "den")

    def __init__(self, re: object = 0, im: object = 0) -> None:
        ra, rb, rn = _real_fields(re)
        ia, ib, inn = _real_fields(im)
        x = _reduced(ra * inn, rb * inn, ia * rn, ib * rn, rn * inn)
        self.a, self.b, self.c, self.d, self.den = x.a, x.b, x.c, x.d, x.den

    def __add__(self, other: object) -> "ExactComplex":
        n1 = self.den
        if isinstance(other, ExactComplex):
            n2 = other.den
            if n1 == n2:
                return _reduced(self.a + other.a, self.b + other.b,
                                self.c + other.c, self.d + other.d, n1)
            return _reduced(self.a * n2 + other.a * n1, self.b * n2 + other.b * n1,
                            self.c * n2 + other.c * n1, self.d * n2 + other.d * n1,
                            n1 * n2)
        if isinstance(other, int):
            # gcd(a + k*den, b, c, d, den) == gcd(a, b, c, d, den) == 1
            return _make(self.a + other * n1, self.b, self.c, self.d, n1)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _reduced(self.a * q + p * n1, self.b * q, self.c * q, self.d * q,
                            n1 * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExactComplex":
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: object) -> "ExactComplex":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __neg__(self) -> "ExactComplex":
        return _make(-self.a, -self.b, -self.c, -self.d, self.den)

    def __mul__(self, other: object) -> "ExactComplex":
        if isinstance(other, ExactComplex):
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            # Real parts times real parts; the imaginary products only when
            # a factor has them.
            a = a1 * a2 + 2 * b1 * b2
            b = a1 * b2 + b1 * a2
            if c1 or d1:
                c = c1 * a2 + 2 * d1 * b2
                d = c1 * b2 + d1 * a2
                if c2 or d2:
                    a -= c1 * c2 + 2 * d1 * d2
                    b -= c1 * d2 + d1 * c2
                    c += a1 * c2 + 2 * b1 * d2
                    d += a1 * d2 + b1 * c2
            elif c2 or d2:
                c = a1 * c2 + 2 * b1 * d2
                d = a1 * d2 + b1 * c2
            else:
                c = d = 0
            den = self.den * other.den
            if den == 1:
                return _make(a, b, c, d, 1)
            return _reduced(a, b, c, d, den)
        if isinstance(other, int):
            return _reduced(self.a * other, self.b * other, self.c * other,
                            self.d * other, self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _reduced(self.a * p, self.b * p, self.c * p, self.d * p,
                            self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        if not (self.c or self.d):
            return self
        return _make(self.a, self.b, -self.c, -self.d, self.den)

    def _abs2_fields(self) -> Tuple[int, int]:
        """(p, q) with den**2 * |self|**2 == p + q*sqrt2."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d)

    def abs2(self) -> "ExactComplex":
        """Squared modulus, an exact real element of Q(sqrt2)."""
        p, q = self._abs2_fields()
        return _reduced(p, q, 0, 0, self.den * self.den)

    def __pow__(self, exponent: int) -> "ExactComplex":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return _make(1, 0, 0, 0, 1) if result is None else result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactComplex):
            return (self.a == other.a and self.b == other.b and self.c == other.c
                    and self.d == other.d and self.den == other.den)
        if isinstance(other, int):
            return (self.den == 1 and self.a == other
                    and not (self.b or self.c or self.d))
        if isinstance(other, Fraction):
            return (self.den == other.denominator and self.a == other.numerator
                    and not (self.b or self.c or self.d))
        return NotImplemented

    def __hash__(self) -> int:
        # Rational values hash like the int or Fraction they equal.
        if self.b or self.c or self.d:
            return hash((self.a, self.b, self.c, self.d, self.den))
        if self.den == 1:
            return hash(self.a)
        return hash(Fraction(self.a, self.den))

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def __float__(self) -> float:
        if self.c or self.d:
            raise TypeError(f"{self} is not real")
        return self.a / self.den + self.b / self.den * _SQRT2

    def __complex__(self) -> complex:
        den = self.den
        return complex(self.a / den + self.b / den * _SQRT2,
                       self.c / den + self.d / den * _SQRT2)

    def __repr__(self) -> str:
        den = self.den
        re = f"QSqrt2({Fraction(self.a, den)!r}, {Fraction(self.b, den)!r})"
        if not (self.c or self.d):
            return re
        return (f"ExactComplex({re}, "
                f"QSqrt2({Fraction(self.c, den)!r}, {Fraction(self.d, den)!r}))")

    def __str__(self) -> str:
        re = _fraction_str(self.a, self.b, self.den)
        if not (self.c or self.d):
            return re
        im = _fraction_str(self.c, self.d, self.den)
        if not (self.a or self.b):
            return f"({im})*i"
        return f"({re}) + ({im})*i"


class QSqrt2(ExactComplex):
    """A real element a + b*sqrt2 of Q(sqrt2), for int or Fraction a and b;
    any other part raises TypeError.

    The real subfield of `ExactComplex`: its instances have ``c == d == 0``.
    Sums, differences, products and powers whose operands are all
    QSqrt2, int or Fraction values are QSqrt2 again, so ``isinstance(x,
    QSqrt2)`` marks values built in the real subfield.  An operation with any
    other ExactComplex operand returns a plain ExactComplex, and the
    package's own arithmetic builds plain ExactComplex values throughout.
    """

    __slots__ = ()

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        for part in (a, b):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"{part!r} is not an int or Fraction")
        pd, qd = a.denominator, b.denominator
        x = _reduced(a.numerator * qd, b.numerator * pd, 0, 0, pd * qd)
        self.a, self.b, self.c, self.d, self.den = x.a, x.b, 0, 0, x.den


def _real_closed(op):
    """The ExactComplex method ``op``, returning a QSqrt2 on real operands."""

    def method(self, *other):
        x = op(self, *other)
        if x is NotImplemented or (other and not isinstance(other[0], _REAL)):
            return x
        y = _new(QSqrt2)
        y.a, y.b, y.c, y.d, y.den = x.a, x.b, 0, 0, x.den
        return y

    return method


_REAL = (QSqrt2, int, Fraction)
for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__pow__", "__neg__", "abs2"):
    setattr(QSqrt2, _name, _real_closed(getattr(ExactComplex, _name)))


# The 8th roots of unity: exp(i*pi*k/4) = eighth root at index k.
_OMEGA = _make(0, 1, 0, 1, 2)  # (sqrt2 + sqrt2*i)/2
EIGHTH_ROOTS = tuple(_OMEGA ** k for k in range(8))

Scalar = Union[int, Fraction, ExactComplex, float, complex]


def one(backend: str = EXACT) -> Scalar:
    return 1 if backend == EXACT else complex(1.0)


def sqrt2_pow(exponent: int, backend: str = EXACT) -> Scalar:
    """sqrt2**exponent for any integer exponent, exact or float."""
    if backend != EXACT:
        return 2.0 ** (exponent / 2.0)
    half, odd = divmod(exponent, 2)  # sqrt2**exponent == 2**half * sqrt2**odd
    num, den = (1 << half, 1) if half >= 0 else (1, 1 << -half)
    return _make(0, num, 0, 0, den) if odd else _make(num, 0, 0, 0, den)


def eighth_root(k: int) -> ExactComplex:
    """exp(i*pi*k/4), exactly; float steps take `phase` of an angle."""
    return EIGHTH_ROOTS[k % 8]


def phase(theta: float) -> complex:
    """exp(i*theta), float backend only."""
    return cmath.exp(1j * theta)


def conj(x: Scalar) -> Scalar:
    return x.conjugate()


def abs2(x: Scalar) -> Scalar:
    """x * conj(x) in the same scalar family."""
    if isinstance(x, ExactComplex):
        return x.abs2()
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x.conjugate()


def to_complex(x: Scalar) -> complex:
    return complex(x)


def backend_of(x: Scalar) -> str:
    """Which backend a scalar belongs to; rationals count as exact."""
    return FLOAT if isinstance(x, (float, complex)) else EXACT


def backend_of_values(values) -> str:
    """FLOAT if any of the values is a float, else EXACT (also when empty)."""
    for v in values:
        if isinstance(v, (float, complex)):
            return FLOAT
    return EXACT


def is_unit_modulus(x: Scalar, backend: str) -> bool:
    """|x| == 1: exactly on the exact backend, within 1e-12 on floats."""
    if backend == EXACT:
        return abs2(x) == 1
    return abs(abs(complex(x)) - 1.0) <= 1e-12
