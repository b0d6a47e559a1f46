"""Fock vectors: norms, embeddings, and the torus action."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefock import fock, scalars
from treefock.errors import CapExceeded
from treefock.scalars import EIGHTH_ROOTS, ExactComplex, QSqrt2
from treefock.words import AdmissibleWord, TorusStep, enumerate_admissible, make_word

W = AdmissibleWord.parse


def test_norm_products_frozen():
    # squared norms are products of multiplicity factorials
    assert fock.norm2(fock.basic(W("0"))) == 1
    assert fock.norm2(fock.basic(W("0 0"))) == 2
    assert fock.norm2(fock.basic(W("0 0 0"))) == 6
    assert fock.norm2(fock.basic(W("0 0 1*"))) == 2
    assert fock.norm2(fock.basic(W("0 0 1* 1*"))) == 4
    assert fock.norm2(fock.basic(W("00 01 10* 11*"))) == 1


def test_orthogonality_same_level():
    words = list(enumerate_admissible(1, 3))
    for u, v in itertools.combinations(words, 2):
        assert fock.inner(fock.basic(u), fock.basic(v)) == 0


def test_inner_is_sesquilinear():
    u = fock.basic(W("0"))
    v = fock.basic(W("1"))
    x = ExactComplex(1, 2) * u + ExactComplex(0, -1) * v
    y = ExactComplex(2, 1) * u
    # linear in the first slot, conjugate linear in the second
    assert fock.inner(x, y) == ExactComplex(1, 2) * ExactComplex(2, -1)
    assert fock.inner(y, x) == scalars.conj(fock.inner(x, y))


def test_vector_algebra():
    v = fock.basic(W("0 1"))
    w = fock.basic(W("0 0"))
    s = v + w
    assert s[W("0 1")] == 1 and s[W("0 0")] == 1
    assert not (s - v - w).terms
    assert (2 * v)[W("0 1")] == 2
    assert (-v)[W("0 1")] == -1
    with pytest.raises(ValueError):
        v + fock.basic(W("00 01"))  # mixed levels


def test_degree_cap():
    with pytest.raises(CapExceeded):
        fock.FockVector(1, {W("0 0 0 0 0 0"): 1})


def test_embed_single_letter():
    e = fock.embed(fock.basic(W("0")))
    half_root = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2)
    assert e[W("00")] == half_root
    assert e[W("01")] == half_root
    assert fock.norm2(e) == 1


def test_embed_repeated_letter():
    e = fock.embed(fock.basic(W("0 0")))
    assert e[W("00 00")] == Fraction(1, 2)
    assert e[W("00 01")] == 1  # C(2,1) * (1/sqrt2)^2
    assert e[W("01 01")] == Fraction(1, 2)
    assert fock.norm2(e) == 2


def test_embed_marked_letter():
    e = fock.embed(fock.basic(W("0 1*")))
    assert e[W("00 10*")] == Fraction(1, 2)
    assert e[W("01 11*")] == Fraction(1, 2)
    assert fock.norm2(e) == 1


def test_embed_matches_enumeration_oracle():
    for level in (1, 2):
        for degree in range(1, 4):
            for w in enumerate_admissible(level, degree):
                b = fock.basic(w)
                assert fock.embed(b) == fock.embed_by_enumeration(b)


def test_split_norm_identity_frozen():
    # {0,0}: children under epsilon splits carry k!(2-k)! and sum to 2^2 * 2
    w = W("0 0")
    total = fock.FockVector(2, {})
    for bits in itertools.product((0, 1), repeat=2):
        child = AdmissibleWord(s.append(b) for s, b in zip(w.entries, bits))
        total = total + fock.basic(child)
    assert fock.norm2(total) == 8


def test_act_phase_frozen():
    g = TorusStep.from_eighth_root_indices([1, 2])
    w = W("0 0 1*")
    # two unmarked copies of 0 and one marked 1: w^2 * conj(w^2 at 1)
    assert g.character(w.charges()) == EIGHTH_ROOTS[1] * EIGHTH_ROOTS[1] * EIGHTH_ROOTS[6]
    v = fock.act(g, fock.basic(w))
    assert v[w] == EIGHTH_ROOTS[0]  # 2 + 2 - 4 = 0 eighths
    assert fock.norm2(v) == fock.norm2(fock.basic(w))


def test_act_on_deeper_words_uses_prefixes():
    g = TorusStep.from_eighth_root_indices([1, 3])
    w = W("00 01")
    # both letters sit under the 0 branch
    assert g.character(w.charges()) == EIGHTH_ROOTS[2]


steps_strategy = st.lists(st.integers(min_value=0, max_value=7),
                          min_size=2, max_size=2)


@settings(max_examples=50, deadline=None)
@given(steps_strategy, steps_strategy)
def test_act_multiplicative(i, j):
    g = TorusStep.from_eighth_root_indices(i)
    h = TorusStep.from_eighth_root_indices(j)
    rng = random.Random(11)
    words = list(enumerate_admissible(1, 2)) + list(enumerate_admissible(1, 3))
    v = fock.FockVector(1, {})
    for _ in range(3):
        c = ExactComplex(rng.randrange(-2, 3), rng.randrange(-2, 3))
        v = v + c * fock.basic(words[rng.randrange(len(words))])
    assert fock.act(g, fock.act(h, v)) == fock.act(g * h, v)
    assert fock.norm2(fock.act(g, v)) == fock.norm2(v)


def test_act_float_backend():
    rng = random.Random(5)
    g = TorusStep.random_phases(1, rng)
    v = fock.basic(W("0 1*"), backend=scalars.FLOAT)
    moved = fock.act(g, v)
    assert abs(fock.norm2(moved) - 1) < 1e-12
    expected = g.value_at(make_word("0")) * g.value_at(make_word("1")).conjugate()
    assert moved[W("0 1*")] == pytest.approx(expected)


def test_act_rejects_mixed_backends():
    g = TorusStep.from_eighth_root_indices([1, 2])
    v = fock.basic(W("0"), backend=scalars.FLOAT)
    with pytest.raises(TypeError):
        fock.act(g, v)


def test_rational_coefficients_stay_plain():
    # scalars.one is a plain int on the exact backend, so rational work
    # stays in int/Fraction until an irrational scalar enters.
    w = W("0 1*")
    v = fock.basic(w)
    assert type(v.terms[w]) is int
    assert type((3 * v - v).terms[w]) is int
    assert type((Fraction(1, 3) * v).terms[w]) is Fraction
    assert type(fock.norm2(v)) is int
    identity = TorusStep.identity(1)
    assert all(type(x) is int for x in identity.values)
    assert type(fock.act(identity, v).terms[w]) is int
    assert type(fock.inner(v, fock.act(identity, v))) is int
    rotated = fock.act(TorusStep.from_eighth_root_indices([1, 0]), v)
    assert isinstance(rotated.terms[w], ExactComplex)
    assert isinstance(fock.embed(v)[W("00 10*")], ExactComplex)


def test_float_scalars_and_steps_are_refused_on_exact_vectors():
    # Exact vectors start from int coefficients, which a float scalar would
    # absorb silently; scaling, act and inner check the backends instead.
    w = W("0 1*")
    exact, floating = fock.basic(w), fock.basic(w, backend=scalars.FLOAT)
    with pytest.raises(TypeError):
        fock.act(TorusStep.random_phases(1, random.Random(3)), exact)
    with pytest.raises(TypeError):
        fock.act(TorusStep.identity(1, backend=scalars.FLOAT), exact)
    with pytest.raises(TypeError):
        fock.inner(exact, floating)
    with pytest.raises(TypeError):
        fock.inner(floating, exact)
    with pytest.raises(TypeError):
        0.5 * exact
    assert (0.5 * floating)[w] == 0.5
    empty = fock.FockVector(1, {})
    assert fock.inner(empty, floating) == 0
    assert fock.act(TorusStep.identity(1, backend=scalars.FLOAT), empty) == empty
