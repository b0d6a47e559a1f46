"""Gaussian polynomials: moments, refinement, composition, decay rates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_montecarlo as oracle
from treefock import fock, gauss, scalars
from treefock.errors import CapExceeded
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.scalars import ExactComplex, QSqrt2
from treefock.words import AdmissibleWord, TorusStep, enumerate_admissible, make_word

W = AdmissibleWord.parse
z = GaussPoly.variable


def test_monomial_canonicalization():
    m = GaussMonomial.of({make_word("1"): (1, 0), make_word("0"): (2, 1)})
    assert m.words() == (make_word("0"), make_word("1"))
    assert m.degree == 4
    assert m.conj().conj() == m
    with pytest.raises(ValueError):
        GaussMonomial.of({make_word("0"): (-1, 0)})


def test_moment_rule_frozen():
    w = make_word("0")
    assert gauss.moment(z(w) * z(w).conj()) == 1
    assert gauss.moment(z(w)) == 0
    assert gauss.moment(z(w) * z(w)) == 0
    assert gauss.moment((z(w) * z(w).conj()) * (z(w) * z(w).conj())) == 2
    six = z(w) * z(w) * z(w) * z(w).conj() * z(w).conj() * z(w).conj()
    assert gauss.moment(six) == 6
    u = make_word("1")
    assert gauss.moment(z(w) * z(u).conj()) == 0
    assert gauss.moment((z(w) * z(u)) * (z(w) * z(u)).conj()) == 1


def test_moment_refines_mixed_levels():
    # E[z_0 conj(z_00)] = 1/sqrt2: moment is <p, 1>, which refines first
    p = z(make_word("0")) * z(make_word("00")).conj()
    assert gauss.moment(p) == gauss.moment(gauss.refine(p, 2))
    assert gauss.moment(p) == scalars.sqrt2_pow(-1) == QSqrt2(0, Fraction(1, 2))
    assert gauss.moment(p) == gauss.inner(p, GaussPoly.constant(1))


def test_refine_single_variable():
    p = gauss.refine(z(make_word("0")), 2)
    half_root = QSqrt2(0, Fraction(1, 2))
    assert p.terms == {GaussMonomial.of({make_word("00"): (1, 0)}): half_root,
                       GaussMonomial.of({make_word("01"): (1, 0)}): half_root}


def test_refine_preserves_moments():
    rng = random.Random(9)
    words = list(enumerate_admissible(1, 2)) + list(enumerate_admissible(1, 3))
    for _ in range(15):
        v = fock.FockVector(1, {})
        for _ in range(3):
            c = ExactComplex(rng.randrange(-2, 3), rng.randrange(-2, 3))
            v = v + c * fock.basic(words[rng.randrange(len(words))])
        p = gauss.from_fock(v)
        for target in (2, 3):
            assert gauss.moment(gauss.refine(p, target)) == gauss.moment(p)
            assert gauss.norm2(gauss.refine(p, target)) == gauss.norm2(p)


def test_from_fock_shape():
    p = gauss.from_fock(fock.basic(W("0 0 1*")))
    (mono, coeff) = next(iter(p.terms.items()))
    assert coeff == 1 and len(p.terms) == 1
    assert mono == GaussMonomial.of({make_word("0"): (2, 0), make_word("1"): (0, 1)})
    assert gauss.norm2(p) == 2


def test_gram_transport_level1():
    words = list(enumerate_admissible(1, 2)) + list(enumerate_admissible(1, 3))
    images = [gauss.from_fock(fock.basic(w)) for w in words]
    for i, u in enumerate(words):
        for j in range(i, len(words)):
            want = 0 if i != j else fock.norm2(fock.basic(u))
            assert gauss.inner(images[i], images[j]) == want


def test_koopman_phase():
    g = TorusStep.from_eighth_root_indices([1, 2])
    p = gauss.from_fock(fock.basic(W("0 0 1*")))
    q = gauss.koopman(g, p)
    (coeff,) = q.terms.values()
    assert coeff == scalars.EIGHTH_ROOTS[0]  # omega^(1+1-2)
    assert gauss.norm2(q) == gauss.norm2(p)


def test_koopman_equivariance():
    rng = random.Random(4)
    words = list(enumerate_admissible(1, 3))
    for _ in range(10):
        g = TorusStep.random_eighth_roots(1, rng)
        v = fock.basic(words[rng.randrange(len(words))])
        assert gauss.from_fock(fock.act(g, v)) == gauss.koopman(g, gauss.from_fock(v))


def test_koopman_deeper_step_refines_first():
    g = TorusStep.from_eighth_root_indices([0, 2, 4, 6])  # level 2
    p = z(make_word("0"))
    q = gauss.koopman(g, p)
    assert q.max_word_length() == 2
    assert gauss.norm2(q) == 1


exponents = st.tuples(st.integers(min_value=0, max_value=2),
                      st.integers(min_value=0, max_value=2))


@settings(max_examples=60, deadline=None)
@given(exponents, exponents)
def test_moment_matches_pairing_oracle(e0, e1):
    exps = {}
    if e0 != (0, 0):
        exps[make_word("0")] = e0
    if e1 != (0, 0):
        exps[make_word("1")] = e1
    if not exps:
        return
    mono = GaussMonomial.of(exps)
    assert gauss.moment(GaussPoly({mono: 1})) == gauss.moment_by_pairings(mono)


def test_pairing_oracle_rejects_mixed_levels():
    mono = GaussMonomial.of({make_word("0"): (1, 0), make_word("00"): (0, 1)})
    with pytest.raises(ValueError):
        gauss.moment_by_pairings(mono)


def test_remainder_rates_frozen():
    # k != m: centering 0, ||r||^2 = (k+m)! 2^(-depth(k+m-1))
    assert gauss.remainder_rate(1, 0, 1) == (0, 1)
    assert gauss.remainder_rate(2, 0, 1) == (0, Fraction(1))  # 2/2
    assert gauss.remainder_rate(2, 1, 2) == (0, Fraction(6, 16))
    # k == m: centering is the exact mean m! 2^(-depth(m-1)), and the norm
    # is ((2m)! - (m!)^2) 2^(-depth(2m-1))
    assert gauss.remainder_rate(1, 1, 1) == (1, Fraction(1, 2))
    assert gauss.remainder_rate(2, 2, 1) == (1, Fraction(20, 8))  # 2!/2
    assert gauss.remainder_rate(2, 2, 2) == (Fraction(1, 2), Fraction(20, 64))


def test_expansion_identity():
    root = make_word("")
    for k, m in ((1, 0), (2, 0), (1, 1), (2, 1), (2, 2)):
        index_sum = gauss.power_expansion(k, m, 1)
        power = GaussPoly({GaussMonomial.of({root: (k, m)}): 1})
        assert gauss.refine(power, 1) == index_sum
        diagonal = GaussPoly({mono: c for mono, c in index_sum.terms.items()
                              if len(mono.exps) == 1})
        assert diagonal == gauss.expansion_remainder(k, m, 1)


def test_poly_algebra_and_eq():
    w = make_word("0")
    p = z(w) + ExactComplex(0, 1) * z(w).conj()
    assert p - p == GaussPoly.zero()
    assert p.conj().conj() == p
    assert (2 * p).terms[GaussMonomial.of({w: (1, 0)})] == 2
    assert gauss.moment(GaussPoly.constant(5)) == 5
    assert oracle.evaluate(p, {w: complex(1, 1)}) == pytest.approx(
        complex(1, 1) + 1j * complex(1, -1))


def test_refine_cap(monkeypatch):
    p = z(make_word("0"))
    big = p * p * p * p
    monkeypatch.setattr(gauss, "DEFAULT_MAX_TERMS", 10)
    with pytest.raises(CapExceeded):
        gauss.refine(big, 6)
