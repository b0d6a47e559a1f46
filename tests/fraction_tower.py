"""The Fraction-backed scalar tower, kept as a differential oracle.

Before the integer form in ``treefock.scalars``, Q(sqrt2, i) was built from
``fractions.Fraction`` components: `QSqrt2` holds a + b*sqrt2 and
`ExactComplex` holds two of them as real and imaginary parts.  The classes
below are that implementation, unchanged apart from division, inverses and
negative powers, which the integer form no longer has.  Tests check the
integer form against them operation by operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[int, Fraction]


class QSqrt2:
    """A real number a + b*sqrt2 with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @staticmethod
    def _coerce(value: object) -> Optional["QSqrt2"]:
        if isinstance(value, QSqrt2):
            return value
        if isinstance(value, (int, Fraction)):
            return QSqrt2(value)
        return None

    def __add__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

    def __mul__(self, other: object) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QSqrt2":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = QSqrt2(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def conjugate(self) -> "QSqrt2":
        # Complex conjugation; the value is real.
        return self

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __complex__(self) -> complex:
        return complex(float(self))

    def __repr__(self) -> str:
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"{self.a} + {self.b}*sqrt2"


class ExactComplex:
    """An element (a + b*sqrt2) + (c + d*sqrt2)*i of Q(sqrt2, i)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[RationalLike, QSqrt2] = 0,
                 im: Union[RationalLike, QSqrt2] = 0) -> None:
        self.re = re if isinstance(re, QSqrt2) else QSqrt2(re)
        self.im = im if isinstance(im, QSqrt2) else QSqrt2(im)

    @classmethod
    def one(cls) -> "ExactComplex":
        return cls(1, 0)

    @staticmethod
    def _coerce(value: object) -> Optional["ExactComplex"]:
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, QSqrt2):
            return ExactComplex(value)
        if isinstance(value, (int, Fraction)):
            return ExactComplex(QSqrt2(value))
        return None

    def __add__(self, other: object) -> "ExactComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExactComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "ExactComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: object) -> "ExactComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> QSqrt2:
        """Squared modulus, an exact element of Q(sqrt2)."""
        return self.re * self.re + self.im * self.im

    def __pow__(self, exponent: int) -> "ExactComplex":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = ExactComplex.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re.a, self.re.b, self.im.a, self.im.b))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"({self.im})*i"
        return f"({self.re}) + ({self.im})*i"
