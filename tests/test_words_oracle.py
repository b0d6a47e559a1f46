"""Integer-code symbols and admissible words against the dataclass oracle.

Both sides are built from the same random (word, mark) entries, in the
same unsorted order, and must agree on every public result: text, the
parse round trip, symbol order, degrees, the Gram diagonal, arrangements,
charges and appended children.  The enumeration must yield the oracle's
stream in the same order, and ``fock.embed`` must give the oracle's
binomial-split image term by term.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclass_words as oracle
from treefock import fock, scalars
from treefock.words import AdmissibleWord, Symbol, all_words, enumerate_admissible


@st.composite
def entry_lists(draw, levels=st.integers(0, 4)):
    """(word, barred) entries of one admissible word of degree 1..5."""
    words = all_words(draw(levels))
    entries = draw(st.lists(st.sampled_from(words), min_size=1, max_size=5))
    marked = draw(st.sets(st.sampled_from(entries)))
    return [(w, w in marked) for w in entries]


def both(entries):
    return (AdmissibleWord(Symbol(w, b) for w, b in entries),
            oracle.AdmissibleWord(tuple(oracle.Symbol(w, b) for w, b in entries)))


@settings(max_examples=300, deadline=None)
@given(entry_lists(), st.data())
def test_word_agrees_with_oracle(entries, data):
    new, old = both(entries)
    assert str(new) == str(old)
    assert AdmissibleWord.parse(str(new)[1:-1]) == new
    assert hash(AdmissibleWord.parse(str(new)[1:-1])) == hash(new)
    assert ([(s.barred, s.level, s.word) for s in new.entries]
            == [s.sort_key() for s in old.entries])
    assert (new.level, new.degree, new.degrees) == (old.level, old.degree, old.degrees)
    assert new.gram_diagonal() == old.gram_diagonal()
    assert new.variants() == old.variants()
    assert new.variant_count() == old.variant_count()
    assert new.charges() == old.charges()
    assert new.unmarked_words() == old.unmarked_words()
    assert new.marked_words() == old.marked_words()
    assert ({str(s): m for s, m in new.symbol_multiplicities().items()}
            == {str(s): m for s, m in old.symbol_multiplicities().items()})
    bits = data.draw(st.lists(st.integers(0, 1), min_size=new.degree,
                              max_size=new.degree))
    assert str(new.append_all(bits)) == str(old.append_all(bits))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=6), st.booleans()),
                min_size=1, max_size=8))
def test_int_order_is_sort_key_order(pairs):
    new = [Symbol(tuple(w), b) for w, b in pairs]
    old = [oracle.Symbol(tuple(w), b) for w, b in pairs]
    assert ([str(s) for s in sorted(new)]
            == [str(s) for s in sorted(old, key=oracle.Symbol.sort_key)])
    for s, t in zip(new, old):
        assert (s.barred, s.level, s.word) == t.sort_key()
        assert (s.word, s.barred, s.level) == (t.word, t.barred, t.level)
        assert str(s.conj()) == str(t.conj())
        assert pickle.loads(pickle.dumps(s)) == s


@pytest.mark.parametrize("level,degree", [(l, d) for l in range(1, 5)
                                          for d in range(1, 6)
                                          if math.comb(2 ** (l + 1) + d - 1, d) <= 16_000])
def test_enumeration_matches_oracle_stream(level, degree):
    assert ([str(w) for w in enumerate_admissible(level, degree)]
            == [str(w) for w in oracle.enumerate_admissible(level, degree)])


@st.composite
def vector_terms(draw):
    """Up to four same-level words with Gaussian-integer coefficients."""
    level = draw(st.integers(1, 4))
    entries = draw(st.lists(entry_lists(st.just(level)), min_size=1, max_size=4))
    coeffs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=len(entries), max_size=len(entries)))
    return level, [(e, scalars.ExactComplex(a, b)) for e, (a, b) in zip(entries, coeffs)]


@settings(max_examples=120, deadline=None)
@given(vector_terms())
def test_embed_agrees_with_oracle(level_terms):
    level, terms = level_terms
    new_terms, old_terms = {}, {}
    for entries, c in terms:
        new, old = both(entries)
        new_terms[new] = new_terms.get(new, 0) + c
        old_terms[old] = old_terms.get(old, 0) + c
    image = fock.embed(fock.FockVector(level, new_terms))
    want = oracle.embed({w: c for w, c in old_terms.items() if c != 0}, scalars.EXACT)
    assert image.level == level + 1
    assert {str(w): c for w, c in image.terms.items()} == {str(w): c for w, c in want.items()}
