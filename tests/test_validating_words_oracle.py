"""Children and arrangements against the validating oracle.

The words are drawn from pools of one to three letters, so most of them
repeat a letter, and any letter may be marked; their length is 0 to 3 or the
longest allowed.  ``append_all`` must build the oracle's child, equal in
every field, and raise what the oracle raises on a wrong bit count, a bit
that is not 0 or 1, or a word at the length cap.  A call with both a bad bit
and a capped word must raise in both, the type left open: the oracle raises
at the first faulty entry.  ``variants`` must give the oracle's list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import validating_words as oracle
from treefock.errors import CapExceeded
from treefock.words import MAX_WORD_LENGTH, AdmissibleWord, Symbol


@st.composite
def words_with_repeats(draw):
    level = draw(st.one_of(st.integers(0, 3), st.just(MAX_WORD_LENGTH)))
    pool = draw(st.lists(st.integers(0, 2 ** level - 1), min_size=1, max_size=3,
                         unique=True))
    letters = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    marked = draw(st.sets(st.sampled_from(pool)))
    return AdmissibleWord(Symbol((1 << level) + i, i in marked) for i in letters)


def outcome(append_all, word, bits):
    try:
        return append_all(word, bits)
    except (ValueError, CapExceeded) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(words_with_repeats(), st.data())
def test_append_all_agrees_with_oracle(w, data):
    count = data.draw(st.sampled_from([w.degree] * 4 + [w.degree - 1, w.degree + 1]))
    bits = data.draw(st.lists(st.sampled_from([0, 1] * 4 + [2]),
                              min_size=count, max_size=count))
    new, old = outcome(AdmissibleWord.append_all, w, bits), outcome(oracle.append_all, w, bits)
    if type(old) is AdmissibleWord:
        assert type(new) is AdmissibleWord
        assert (new.codes, new.level, new.degree, new.degrees, new.gram_diagonal(),
                hash(new)) == (old.codes, old.level, old.degree, old.degrees,
                               old.gram_diagonal(), hash(old))
    elif count == w.degree and 2 in bits and w.level == MAX_WORD_LENGTH:
        assert new in (ValueError, CapExceeded)
    else:
        assert new is old


@settings(max_examples=400, deadline=None)
@given(words_with_repeats())
def test_variants_agree_with_oracle(w):
    assert w.variants() == oracle.variants(w)
