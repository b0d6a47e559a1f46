"""Integer-code symbols and admissible words against the dataclass oracle.

Every int word helper must agree with its tuple spelling in ``tuple_words``.
Both sides of a word are built from the same random (word, mark) entries,
in the same unsorted order, the int side taking each tuple word's code, and
must agree on every public result: text, the parse round trip, symbol
order, degrees, the Gram diagonal, arrangements, charges and appended
children.  The enumeration must yield the oracle's
stream in the same order, and ``fock.embed`` must give the oracle's
binomial-split image term by term.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclass_words as oracle
import tuple_words as tw
from treefock import fock, scalars, words
from treefock.words import AdmissibleWord, Symbol, enumerate_admissible

# lengths 0..8 and the longest word allowed
lengths = st.one_of(st.integers(0, 8), st.just(words.MAX_WORD_LENGTH))
bit_tuples = lengths.flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple))


@settings(max_examples=300, deadline=None)
@given(bit_tuples, bit_tuples, st.data())
def test_int_helpers_agree_with_tuple_words(t, u, data):
    w = words.make_word("".join(map(str, t)))
    assert w == tw.code(t) == words.check_word(w) and tw.from_code(w) == t
    assert words.word_length(w) == len(t)
    assert words.word_index(w) == tw.word_index(t)
    assert words.word_text(w) == tw.word_text(t)
    assert (w < tw.code(u)) == (tw.word_key(t) < tw.word_key(u))
    level = data.draw(st.integers(0, len(t)))
    assert words.prefix(w, level) == tw.code(tw.prefix(t, level))
    with pytest.raises(ValueError):
        words.prefix(w, len(t) + 1)
    gap = data.draw(st.integers(0, min(3, words.MAX_WORD_LENGTH - len(t))))
    assert list(words.descendants(w, gap)) == list(map(tw.code, tw.descendants(t, gap)))
    if len(t) < words.MAX_WORD_LENGTH:
        for bit in (0, 1):
            assert words.child(w, bit) == tw.code(tw.child(t, bit))
            assert words.child(w | words.MARK, bit) == words.child(w, bit) | words.MARK
    if len(t) <= 8:
        assert list(words.all_words(len(t))) == list(map(tw.code, tw.all_words(len(t))))


@st.composite
def entry_lists(draw, levels=st.integers(0, 4)):
    """(tuple word, barred) entries of one admissible word of degree 1..5."""
    pool = tw.all_words(draw(levels))
    entries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    marked = draw(st.sets(st.sampled_from(entries)))
    return [(w, w in marked) for w in entries]


def codes(words):
    return tuple(map(tw.code, words))


def both(entries):
    return (AdmissibleWord(Symbol(tw.code(w), b) for w, b in entries),
            oracle.AdmissibleWord(tuple(oracle.Symbol(w, b) for w, b in entries)))


@settings(max_examples=300, deadline=None)
@given(entry_lists(), st.data())
def test_word_agrees_with_oracle(entries, data):
    new, old = both(entries)
    assert str(new) == str(old)
    assert AdmissibleWord.parse(str(new)[1:-1]) == new
    assert hash(AdmissibleWord.parse(str(new)[1:-1])) == hash(new)
    assert ([(s.barred, s.level, tw.from_code(s.word)) for s in new.entries]
            == [s.sort_key() for s in old.entries])
    assert (new.level, new.degree, new.degrees) == (old.level, old.degree, old.degrees)
    assert new.gram_diagonal() == old.gram_diagonal()
    assert new.variants() == [(codes(a), codes(b)) for a, b in old.variants()]
    assert new.charges() == [(tw.code(w), k) for w, k in old.charges()]
    assert new.unmarked_words() == codes(old.unmarked_words())
    assert new.marked_words() == codes(old.marked_words())
    assert ({str(s): m for s, m in new.symbol_multiplicities().items()}
            == {str(s): m for s, m in old.symbol_multiplicities().items()})
    bits = data.draw(st.lists(st.integers(0, 1), min_size=new.degree,
                              max_size=new.degree))
    assert str(new.append_all(bits)) == str(old.append_all(bits))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=6), st.booleans()),
                min_size=1, max_size=8))
def test_int_order_is_sort_key_order(pairs):
    new = [Symbol(tw.code(w), b) for w, b in pairs]
    old = [oracle.Symbol(tuple(w), b) for w, b in pairs]
    assert ([str(s) for s in sorted(new)]
            == [str(s) for s in sorted(old, key=oracle.Symbol.sort_key)])
    for s, t in zip(new, old):
        assert (s.barred, s.level, tw.from_code(s.word)) == t.sort_key()
        assert (s.word, s.barred, s.level) == (tw.code(t.word), t.barred, t.level)
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
