"""Words as tuples of bits, kept as a differential oracle.

Before every word became its int tree-node code, ``treefock.words`` held a
word as a tuple of bits, ordered by ``word_key`` (length first, then
lexicographic), and the other modules sliced, concatenated and measured
those tuples themselves.  The functions below are that format: the old
``make_word``, ``word_text``, ``word_key``, ``word_index`` and ``all_words``
unchanged, and the tuple spelling of each int helper (``child`` appends a
bit, ``descendants`` concatenates every suffix, ``prefix`` slices).  ``code``
and ``from_code`` translate between the two formats, so the oracles built on
tuples (``dataclass_words``, ``phase_oracle``, ``dict_measure``,
``naive_montecarlo``, ``pow_refine``) stay independent of the int layout.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Tuple

from treefock.errors import CapExceeded
from treefock.words import MAX_WORD_LENGTH

TupleWord = Tuple[int, ...]


def make_word(bits: Iterable[int] | str) -> TupleWord:
    """Build a word from an iterable of bits or a string like ``"011"``."""
    if isinstance(bits, str):
        bits = (int(ch) for ch in bits)
    w = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in w):
        raise ValueError("word bits must be 0 or 1")
    if len(w) > MAX_WORD_LENGTH:
        raise CapExceeded(f"word longer than {MAX_WORD_LENGTH}")
    return w


def word_text(w: TupleWord) -> str:
    return "".join(str(b) for b in w) if w else "e"


def word_key(w: TupleWord) -> Tuple[int, TupleWord]:
    """Sort key for the canonical order: length first, then lexicographic."""
    return (len(w), w)


def word_index(w: TupleWord) -> int:
    """The rank of ``w`` among words of its own length, in lexicographic order."""
    i = 0
    for b in w:
        i = (i << 1) | b
    return i


def all_words(length: int) -> List[TupleWord]:
    """All words of the given length, lexicographically."""
    if length < 0:
        raise ValueError("negative word length")
    if length > MAX_WORD_LENGTH:
        raise CapExceeded(f"word length above {MAX_WORD_LENGTH}")
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=length)]


def child(w: TupleWord, bit: int) -> TupleWord:
    return w + (bit,)


def descendants(w: TupleWord, gap: int) -> List[TupleWord]:
    return [w + t for t in all_words(gap)]


def prefix(w: TupleWord, level: int) -> TupleWord:
    if len(w) < level:
        raise ValueError(f"word shorter than {level}")
    return w[:level]


def code(w: TupleWord) -> int:
    """The int code of a tuple word: its bits under a leading 1."""
    return int("".join(map(str, (1,) + tuple(w))), 2)


def from_code(c: int) -> TupleWord:
    """The tuple word of an int code."""
    return tuple(map(int, bin(c)[3:]))
