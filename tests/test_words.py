"""Marked words, admissible multisets, enumeration counts, torus steps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefock import montecarlo, scalars
from treefock.errors import CapExceeded
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.spectral import DepthMeasure, index_pq
from treefock.steps import GridCell
from treefock.words import (MAX_WORD_LENGTH, AdmissibleWord, Symbol, TorusStep,
                            all_words, descendants, enumerate_admissible,
                            make_word, prefix, word_index, word_length, word_text)

bits = st.text(alphabet="01", max_size=6)


def test_word_basics():
    # a word is its tree-node code: the bits under a leading 1
    assert make_word("011") == 0b1011
    assert make_word("") == 1
    assert word_text(1) == "e"
    assert word_text(0b110) == "10"
    assert list(all_words(2)) == [0b100, 0b101, 0b110, 0b111]
    assert [word_index(w) for w in all_words(2)] == [0, 1, 2, 3]
    assert [word_length(w) for w in (1, 0b10, 0b1011)] == [0, 1, 3]
    assert list(descendants(make_word("1"), 2)) == [
        make_word(t) for t in ("100", "101", "110", "111")]
    assert prefix(make_word("0110"), 2) == make_word("01")
    for bad in ("012", "0 1", "0_1"):
        with pytest.raises(ValueError):
            make_word(bad)
    with pytest.raises(CapExceeded):
        make_word("0" * 33)


def test_tuple_words_are_refused():
    # the old tuple-of-bits format fails at the boundary, not deeper down
    with pytest.raises(TypeError):
        make_word((0, 1))
    with pytest.raises(TypeError):
        Symbol((0, 1))
    with pytest.raises(TypeError):
        GridCell(1, ((0,),), ())
    with pytest.raises(TypeError):
        DepthMeasure(index_pq(1, 0), 1, {((0,),): Fraction(1)})


@pytest.mark.parametrize("entry", [
    lambda: GaussMonomial.of({(0,): (1, 0)}),
    lambda: GaussPoly.variable((0,)),
    lambda: montecarlo.estimate_many([GaussPoly.variable((0,))], 10, 2),
    lambda: TorusStep.identity(1).value_at((0,)),
], ids=["monomial", "variable", "estimate-many", "step-value"])
def test_tuple_words_are_refused_by_monomials_and_steps(entry):
    with pytest.raises(TypeError):
        entry()


def test_symbol_parse_and_order():
    s = Symbol.parse("01*")
    assert s.word == make_word("01") and s.barred
    assert str(s) == "01*"
    assert str(s.conj()) == "01"
    assert s.conj().conj() == s
    # int order is the canonical symbol order
    order = ["0", "1", "0*", "1*"]
    assert [str(t) for t in sorted(map(Symbol.parse, reversed(order)))] == order


def test_symbol_validation():
    # a code below the root or a word above MAX_WORD_LENGTH would alias
    # another symbol's code
    with pytest.raises(ValueError):
        Symbol(0, False)
    with pytest.raises(ValueError):
        AdmissibleWord((Symbol(0), Symbol(make_word("0"))))
    with pytest.raises(CapExceeded):
        Symbol(1 << 33)
    with pytest.raises(CapExceeded):
        Symbol(make_word("1" * 32)).append(0)
    with pytest.raises(TypeError):
        AdmissibleWord((2, 3))
    plain, marked = Symbol(make_word("10" * 16)), Symbol(make_word("10" * 16), True)
    assert plain != marked and plain.conj() == marked
    assert plain.level == marked.level == 32
    for s in (plain, marked):
        assert Symbol.parse(str(s)) == s
    assert str(marked) == "10" * 16 + "*"


@settings(max_examples=60, deadline=None)
@given(bits, st.booleans(), st.integers(min_value=0, max_value=1))
def test_symbol_append_commutes_with_conj(word, barred, bit):
    s = Symbol(make_word(word), barred)
    assert s.append(bit).conj() == s.conj().append(bit)
    assert s.append(bit).level == s.level + 1


def test_admissible_word_frozen_example():
    w = AdmissibleWord.parse("0 0 1*")
    assert w.level == 1 and w.degree == 3
    assert w.degrees == (2, 1)
    assert w.gram_diagonal() == 2
    assert len(w.variants()) == 1
    w0, w1 = make_word("0"), make_word("1")
    assert w.unmarked_words() == (w0, w0) and w.marked_words() == (w1,)
    assert str(w) == "[0 0 1*]"


def test_admissible_word_rejects_conjugate_pair():
    with pytest.raises(ValueError):
        AdmissibleWord.parse("0 0*")
    with pytest.raises(ValueError):
        AdmissibleWord.parse("0 01")  # mixed levels
    with pytest.raises(ValueError):
        AdmissibleWord([])


def test_admissible_word_canonical_order():
    w = AdmissibleWord.parse("1* 0 1* 0")
    assert str(w) == "[0 0 1* 1*]"
    assert w == AdmissibleWord.parse("0 1* 0 1*")
    assert w.degrees == (2, 2)
    assert w.gram_diagonal() == 4  # 2! * 2!
    assert len(w.variants()) == 1


def test_variants_example():
    w0, w1 = make_word("0"), make_word("1")
    w = AdmissibleWord.parse("0 1")
    assert len(w.variants()) == 2
    assert set(w.variants()) == {((w0, w1), ()), ((w1, w0), ())}
    v = AdmissibleWord.parse("0 0 1*")
    assert v.variants() == [((w0, w0), (w1,))]
    # repeated words in both blocks: each block's distinct orders, in
    # lexicographic order, the marked block varying fastest
    a, b, c, d = (make_word(t) for t in ("00", "01", "10", "11"))
    u = AdmissibleWord.parse("01 00 00 11* 10* 11*")
    assert u.variants() == [
        ((a, a, b), (c, d, d)), ((a, a, b), (d, c, d)), ((a, a, b), (d, d, c)),
        ((a, b, a), (c, d, d)), ((a, b, a), (d, c, d)), ((a, b, a), (d, d, c)),
        ((b, a, a), (c, d, d)), ((b, a, a), (d, c, d)), ((b, a, a), (d, d, c)),
    ]


# counts derived once from the closed form sum_j C(2^n, j) 2^j C(l-1, j-1)
ENUMERATION_COUNTS = {
    (1, 1): 4, (1, 2): 8, (1, 3): 12, (1, 4): 16,
    (2, 1): 8, (2, 2): 32, (2, 3): 88, (2, 4): 192,
}


def test_enumeration_counts_frozen():
    for (level, degree), expected in ENUMERATION_COUNTS.items():
        words = list(enumerate_admissible(level, degree))
        assert len(words) == expected
        assert len(set(words)) == expected
        for w in words:
            assert w.level == level and w.degree == degree


def test_enumeration_is_sorted_and_admissible():
    words = list(enumerate_admissible(2, 3))
    keys = [tuple((s.barred, s.level, s.word) for s in w.entries) for w in words]
    assert keys == sorted(keys)
    for w in words:
        unmarked = {s.word for s in w.entries if not s.barred}
        marked = {s.word for s in w.entries if s.barred}
        assert not unmarked & marked


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr("treefock.words.MAX_ENUMERATION", 10)
    with pytest.raises(CapExceeded):
        list(enumerate_admissible(4, 5))


def test_append_all():
    w = AdmissibleWord.parse("0 0 1*")
    child = w.append_all([0, 1, 0])
    assert child.level == 2
    assert str(child) == "[00 01 10*]"


def test_append_all_errors():
    w = AdmissibleWord.parse("0 0 1*")
    with pytest.raises(ValueError):
        w.append_all([0, 1])
    with pytest.raises(ValueError):
        w.append_all([0, 2, 0])
    longest = AdmissibleWord.parse("0" * MAX_WORD_LENGTH + " " + "1" * MAX_WORD_LENGTH + "*")
    with pytest.raises(CapExceeded):
        longest.append_all([0, 1])


def test_torus_step_exact_values():
    g = TorusStep.from_eighth_root_indices([1, 6])
    assert g.level == 1
    assert g.value_at(make_word("0")) == scalars.EIGHTH_ROOTS[1]
    assert g.value_at(make_word("10")) == scalars.EIGHTH_ROOTS[6]  # prefix lookup
    assert g.character([(make_word("0"), -1)]) == scalars.EIGHTH_ROOTS[7]
    with pytest.raises(ValueError):
        g.value_at(make_word(""))  # shorter than the step
    gh = g * g
    assert gh.value_at(make_word("0")) == scalars.EIGHTH_ROOTS[2]
    assert (g * g.inverse()) == TorusStep.identity(1)


def test_torus_step_validation():
    # a step is its values: the level and the backend are read off them
    g = TorusStep((scalars.EIGHTH_ROOTS[1], 1))
    assert (g.level, g.backend) == (1, scalars.EXACT)
    assert g == TorusStep.from_eighth_root_indices([1, 0])
    assert TorusStep((complex(1),)).level == 0
    assert TorusStep.from_angles([0.5, 2.0]).backend == scalars.FLOAT
    with pytest.raises(ValueError):
        TorusStep((1, complex(1)))  # exact and float values mixed
    for values in ((1, 1, 1), ()):  # not a power of two
        with pytest.raises(ValueError):
            TorusStep(values)
    with pytest.raises(ValueError):
        TorusStep((scalars.ExactComplex(2),) * 2)
    with pytest.raises(ValueError):
        TorusStep((complex(2), complex(1)))


def test_torus_step_float_backend():
    rng = random.Random(3)
    g = TorusStep.random_phases(2, rng)
    assert g.backend == scalars.FLOAT
    assert abs(abs(g.value_at(make_word("01"))) - 1) < 1e-12
    prod = g * g.inverse()
    for w in all_words(2):
        assert prod.value_at(w) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_torus_step_multiplicative(i, j):
    g = TorusStep.from_eighth_root_indices([i, j])
    h = TorusStep.from_eighth_root_indices([j, i])
    gh = g * h
    for w in all_words(1):
        assert gh.value_at(w) == g.value_at(w) * h.value_at(w)


def test_cell_mass():
    # product measure of one depth-level cell: 2^-(level * coordinates)
    w = make_word
    assert GridCell(1, (w("0"),), ()).mass == Fraction(1, 2)
    assert GridCell(2, (w("01"), w("11")), (w("00"),)).mass == Fraction(1, 64)
