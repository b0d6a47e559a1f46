"""Differential oracle for children and arrangements: the validating path.

``append_all`` builds each child entry by entry through ``Symbol.append``,
which checks the bit and the length cap of every entry, and then through the
validating ``AdmissibleWord`` constructor.  ``variants`` deduplicates the
permutations of each block through a set and sorts them.
``AdmissibleWord.append_all`` checks once per call and trusts the children,
and ``AdmissibleWord.variants`` keeps the first occurrence of each ordering,
which the permutations of a sorted block meet in sorted order.
"""

import itertools
from typing import List, Sequence, Tuple

from treefock.words import AdmissibleWord, Word


def append_all(word: AdmissibleWord, bits: Sequence[int]) -> AdmissibleWord:
    if len(bits) != word.degree:
        raise ValueError("need one bit per entry")
    return AdmissibleWord(s.append(b) for s, b in zip(word.entries, bits))


def variants(word: AdmissibleWord) -> List[Tuple[Tuple[Word, ...], Tuple[Word, ...]]]:
    lefts = sorted(set(itertools.permutations(word.unmarked_words())))
    rights = sorted(set(itertools.permutations(word.marked_words())))
    return [(a, b) for a in lefts for b in rights]
