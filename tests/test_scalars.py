"""Exact scalar tower: ring laws, roots of unity, powers, coercion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefock import scalars
from treefock.scalars import EIGHTH_ROOTS, ExactComplex, QSqrt2

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
qsqrt2s = st.builds(QSqrt2, fractions, fractions)
complexes = st.builds(ExactComplex, qsqrt2s, qsqrt2s)


def test_qsqrt2_basics():
    r = QSqrt2(0, 1)
    assert r * r == 2
    assert (1 + r) * (1 - r) == -1
    assert float(QSqrt2(1, 1)) == pytest.approx(1 + math.sqrt(2))
    assert QSqrt2(3, -2).conjugate() == QSqrt2(3, -2)


@settings(max_examples=80, deadline=None)
@given(qsqrt2s, qsqrt2s, qsqrt2s)
def test_qsqrt2_ring_laws(x, y, z):
    assert x + (y + z) == (x + y) + z
    assert x * (y * z) == (x * y) * z
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(complexes, complexes)
def test_exact_complex_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y).abs2() == x.abs2() * y.abs2()
    assert complex(x * y) == pytest.approx(complex(x) * complex(y), abs=1e-9)


def test_eighth_roots_cycle():
    assert len(set(EIGHTH_ROOTS)) == 8
    for k, w in enumerate(EIGHTH_ROOTS):
        assert w.abs2() == 1
        assert w * EIGHTH_ROOTS[(8 - k) % 8] == 1
        assert complex(w) == pytest.approx(
            complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)))
    omega = EIGHTH_ROOTS[1]
    acc = 1
    for _ in range(8):
        acc = acc * omega
    assert acc == 1
    assert EIGHTH_ROOTS[2] == ExactComplex(0, 1)


def test_negative_powers_are_refused():
    # there is no division, so x ** -n has no meaning; it must raise at once
    for x in (ExactComplex(1, 1), QSqrt2(1, 1), EIGHTH_ROOTS[1]):
        with pytest.raises(TypeError):
            x ** -1
    assert ExactComplex(1, 1) ** 0 == 1
    assert QSqrt2(0, 1) ** 3 == QSqrt2(0, 2)


def test_sqrt2_pow():
    assert scalars.sqrt2_pow(0) == 1
    assert scalars.sqrt2_pow(2) == 2
    assert scalars.sqrt2_pow(-2) == Fraction(1, 2)
    assert scalars.sqrt2_pow(3) == QSqrt2(0, 2)
    assert scalars.sqrt2_pow(-1) == QSqrt2(0, Fraction(1, 2))
    for e in range(-6, 7):
        got = scalars.sqrt2_pow(e)
        assert float(got) == pytest.approx(math.sqrt(2.0) ** e)
        assert got * scalars.sqrt2_pow(-e) == 1
    assert scalars.sqrt2_pow(3, backend=scalars.FLOAT) == pytest.approx(2 ** 1.5)


def test_coercion_ladder():
    x = QSqrt2(1, 1)
    assert x + 1 == QSqrt2(2, 1)
    assert Fraction(1, 2) * x == QSqrt2(Fraction(1, 2), Fraction(1, 2))
    z = ExactComplex(1, 1)
    assert z + x == ExactComplex(QSqrt2(2, 1), 1)
    assert z * 2 == ExactComplex(2, 2)
    assert (z * z.conjugate()).abs2() == 4


def test_exact_float_mixing_rejected():
    with pytest.raises(TypeError):
        QSqrt2(1) + 0.5
    with pytest.raises(TypeError):
        ExactComplex(1) * (0.5 + 0j)
    with pytest.raises(TypeError):
        0.5 * QSqrt2(0, 1)
    for x in (QSqrt2(1, 1), ExactComplex(1, 1)):
        with pytest.raises(TypeError):
            x - 0.5
        with pytest.raises(TypeError):
            0.5 - x
        with pytest.raises(TypeError):
            x - 0.5j


def test_exact_parts_must_be_exact():
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    for part in (0.1, 0.5, 1j, "1", "1/2", None):
        with pytest.raises(TypeError):
            ExactComplex(part)
        with pytest.raises(TypeError):
            ExactComplex(1, part)
        with pytest.raises(TypeError):
            QSqrt2(part)
        with pytest.raises(TypeError):
            QSqrt2(1, part)
    with pytest.raises(TypeError):
        ExactComplex(ExactComplex(0, 1))
    assert ExactComplex(QSqrt2(1, 1), Fraction(1, 2)) == ExactComplex(
        QSqrt2(1, 1), QSqrt2(Fraction(1, 2)))
    assert QSqrt2(True, 2) == QSqrt2(1, 2)


def test_backend_helpers():
    assert scalars.backend_of(QSqrt2(1)) == scalars.EXACT
    assert scalars.backend_of(1.5) == scalars.FLOAT
    assert scalars.backend_of(Fraction(1, 3)) == scalars.EXACT
    assert scalars.backend_of_values([1, Fraction(2), 0.5]) == scalars.FLOAT
    assert scalars.is_unit_modulus(EIGHTH_ROOTS[3], scalars.EXACT)
    assert not scalars.is_unit_modulus(ExactComplex(2), scalars.EXACT)
    assert scalars.is_unit_modulus(complex(0, 1), scalars.FLOAT)
    assert scalars.conj(complex(1, 2)) == complex(1, -2)
    assert scalars.abs2(complex(3, 4)) == pytest.approx(25.0)


def test_phase_helper():
    assert scalars.eighth_root(3) == EIGHTH_ROOTS[3]
    assert scalars.eighth_root(11) == EIGHTH_ROOTS[3]
    p = scalars.phase(0.7)
    assert abs(p) == pytest.approx(1.0)
    assert p == pytest.approx(complex(math.cos(0.7), math.sin(0.7)))
