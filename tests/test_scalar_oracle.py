"""The integer-backed scalar tower against the Fraction-backed oracle.

Every operation is run on both implementations from the same rational
coordinates, and the results must agree coordinate by coordinate, in how
they print, and in how they hash against ``int`` and ``Fraction`` keys.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_tower as oracle
from treefock import scalars
from treefock.scalars import ExactComplex, QSqrt2

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
# Zero coordinates often, so real, rational and purely imaginary values occur.
coords = st.one_of(st.just(Fraction(0)), fractions)
quads = st.tuples(coords, coords, coords, coords)
rationals = st.one_of(st.integers(-6, 6), fractions)


def build(q):
    """The same element on both sides: (new, oracle)."""
    a, b, c, d = q
    return (ExactComplex(QSqrt2(a, b), QSqrt2(c, d)),
            oracle.ExactComplex(oracle.QSqrt2(a, b), oracle.QSqrt2(c, d)))


def parts(x):
    """Rational coordinates (a, b, c, d) of either implementation's value."""
    if isinstance(x, ExactComplex):
        assert x.den > 0 and math.gcd(x.a, x.b, x.c, x.d, x.den) == 1
        return tuple(Fraction(n, x.den) for n in (x.a, x.b, x.c, x.d))
    if isinstance(x, oracle.ExactComplex):
        return (x.re.a, x.re.b, x.im.a, x.im.b)
    if isinstance(x, oracle.QSqrt2):
        return (x.a, x.b, Fraction(0), Fraction(0))
    return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))


def agree(new, old):
    assert parts(new) == parts(old)
    assert str(new) == str(old)
    assert complex(new) == complex(old)


@settings(max_examples=150, deadline=None)
@given(quads, quads)
def test_ring_operations_match_oracle(p, q):
    x, ox = build(p)
    y, oy = build(q)
    agree(x + y, ox + oy)
    agree(x - y, ox - oy)
    agree(x * y, ox * oy)
    assert (x == y) == (ox == oy)


@settings(max_examples=150, deadline=None)
@given(quads, rationals)
def test_mixed_rational_operations_match_oracle(p, r):
    x, ox = build(p)
    agree(x + r, ox + r)
    agree(r + x, r + ox)
    agree(x - r, ox - r)
    agree(r - x, r - ox)
    agree(x * r, ox * r)
    agree(r * x, r * ox)


@settings(max_examples=150, deadline=None)
@given(quads, st.integers(0, 4))
def test_powers_match_oracle(p, n):
    x, ox = build(p)
    agree(x ** n, ox ** n)


@settings(max_examples=150, deadline=None)
@given(quads)
def test_unary_operations_match_oracle(p):
    x, ox = build(p)
    agree(x, ox)
    agree(-x, -ox)
    agree(x.conjugate(), ox.conjugate())
    agree(scalars.conj(x), ox.conjugate())
    agree(x.abs2(), ox.abs2())
    assert bool(x) == bool(ox)


@settings(max_examples=150, deadline=None)
@given(coords, coords)
def test_real_subfield_matches_oracle(a, b):
    x, ox = QSqrt2(a, b), oracle.QSqrt2(a, b)
    agree(x, ox)
    assert float(x) == float(ox)


@settings(max_examples=150, deadline=None)
@given(rationals, quads)
def test_hash_and_eq_agree_with_rational_keys(r, p):
    q = Fraction(r)
    x = QSqrt2(q)
    assert x == q and q == x
    assert hash(x) == hash(q)
    if q.denominator == 1:
        assert x == q.numerator and hash(x) == hash(q.numerator)
    assert {q: "v"}[x] == "v"
    assert {x: "v"}[q] == "v"
    # A value reached by a longer route lands on the same dict entry:
    # omega^3 * omega^5 == 1, and a unit root times its conjugate is 1.
    roots = scalars.EIGHTH_ROOTS
    z = x * roots[3] * roots[5]
    assert z == q and hash(z) == hash(q)
    assert {q: "v"}.get(z) == "v"
    y, _ = build(p)
    w = y * roots[3] * roots[3].conjugate()
    assert w == y and hash(w) == hash(y)


@settings(max_examples=150, deadline=None)
@given(coords, coords, rationals, quads)
def test_real_subfield_keeps_its_type(a, b, r, p):
    # QSqrt2 values stay QSqrt2 under operations with real operands, and an
    # ExactComplex operand gives an ExactComplex, as in the oracle.
    x, ox = QSqrt2(a, b), oracle.QSqrt2(a, b)
    y, oy = build(p)
    pairs = [(x + r, ox + r), (r + x, r + ox), (x - r, ox - r), (r - x, r - ox),
             (x * r, ox * r), (r * x, r * ox), (x * x, ox * ox), (x + x, ox + ox),
             (-x, -ox), (x ** 3, ox ** 3), (x * y, ox * oy), (y * x, oy * ox),
             (x + y, ox + oy), (y - x, oy - ox), (x - y, ox - oy),
             (x - QSqrt2(b, a), ox - oracle.QSqrt2(b, a))]
    for new, old in pairs:
        assert isinstance(new, QSqrt2) == isinstance(old, oracle.QSqrt2)
        agree(new, old)
