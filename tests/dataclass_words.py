"""The dataclass words, kept as a differential oracle.

Before symbols and admissible words became integer codes in
``treefock.words``, a ``Symbol`` was a frozen dataclass holding a word
tuple and a mark, and an ``AdmissibleWord`` a frozen dataclass holding a
sorted tuple of symbols, validated on every construction.  The classes
and the enumeration below are that implementation, unchanged, on the tuple
words of ``tuple_words``, and
``embed`` is the binomial-split embedding of ``treefock.fock`` as it ran on
them, returning a plain dict.  Tests check the code form against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from treefock import scalars
from treefock.errors import CapExceeded
from treefock.scalars import Scalar
from treefock.words import MAX_ENUMERATION, MAX_WORD_LENGTH
from tuple_words import TupleWord as Word, all_words, make_word, word_text


@dataclass(frozen=True)
class Symbol:
    """A word with an optional conjugation mark."""

    word: Word
    barred: bool = False

    @property
    def level(self) -> int:
        return len(self.word)

    def conj(self) -> "Symbol":
        return Symbol(self.word, not self.barred)

    def append(self, bit: int) -> "Symbol":
        # Appending commutes with the mark: the child of a marked symbol is
        # the marked child, so the underlying word grows either way.
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if len(self.word) + 1 > MAX_WORD_LENGTH:
            raise CapExceeded(f"word longer than {MAX_WORD_LENGTH}")
        return Symbol(self.word + (bit,), self.barred)

    def sort_key(self) -> Tuple[bool, int, Word]:
        return (self.barred, len(self.word), self.word)

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        """Parse ``"011"`` or ``"011*"`` (trailing star marks conjugation)."""
        barred = text.endswith("*")
        return cls(make_word(text[:-1] if barred else text), barred)

    def __str__(self) -> str:
        return word_text(self.word) + ("*" if self.barred else "")


@dataclass(frozen=True)
class AdmissibleWord:
    """A nonempty multiset of same-length symbols, no word marked both ways.

    Entries are stored sorted (unmarked before marked, then by word), so two
    multisets are equal exactly when the dataclasses are.  The degree is the
    number of entries counted with multiplicity; ``degrees`` splits it into
    the unmarked count p and the marked count q.
    """

    entries: Tuple[Symbol, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=Symbol.sort_key))
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("admissible word must be nonempty")
        level = entries[0].level
        if any(s.level != level for s in entries):
            raise ValueError("all symbols must have the same length")
        plain = {s.word for s in entries if not s.barred}
        marked = {s.word for s in entries if s.barred}
        clash = plain & marked
        if clash:
            raise ValueError(
                f"word {word_text(sorted(clash)[0])} appears both marked and unmarked")

    @classmethod
    def of(cls, symbols: Iterable[Symbol]) -> "AdmissibleWord":
        return cls(tuple(symbols))

    @classmethod
    def parse(cls, text: str) -> "AdmissibleWord":
        """Parse a space-separated symbol list such as ``"0 0 1*"``."""
        return cls(tuple(Symbol.parse(tok) for tok in text.split()))

    @property
    def level(self) -> int:
        return self.entries[0].level

    @property
    def degree(self) -> int:
        return len(self.entries)

    def symbol_multiplicities(self) -> Dict[Symbol, int]:
        out: Dict[Symbol, int] = {}
        for s in self.entries:
            out[s] = out.get(s, 0) + 1
        return out

    def multiplicities(self) -> Dict[Word, int]:
        """m_s: how often each word occurs, marked or not."""
        out: Dict[Word, int] = {}
        for s in self.entries:
            out[s.word] = out.get(s.word, 0) + 1
        return out

    @property
    def degrees(self) -> Tuple[int, int]:
        p = sum(1 for s in self.entries if not s.barred)
        return (p, len(self.entries) - p)

    def charges(self) -> List[Tuple[Word, int]]:
        """(word, m) for an unmarked word and (word, -m) for a marked one,
        m its multiplicity."""
        return [(s.word, -m if s.barred else m)
                for s, m in self.symbol_multiplicities().items()]

    def gram_diagonal(self) -> int:
        """Product of the multiplicity factorials; the squared norm of the
        basic vector this word indexes."""
        out = 1
        for m in self.multiplicities().values():
            out *= math.factorial(m)
        return out

    def unmarked_words(self) -> Tuple[Word, ...]:
        return tuple(s.word for s in self.entries if not s.barred)

    def marked_words(self) -> Tuple[Word, ...]:
        return tuple(s.word for s in self.entries if s.barred)

    def variants(self) -> List[Tuple[Tuple[Word, ...], Tuple[Word, ...]]]:
        """All distinct ordered arrangements (unmarked block, marked block)."""
        lefts = sorted(set(itertools.permutations(self.unmarked_words())))
        rights = sorted(set(itertools.permutations(self.marked_words())))
        return [(a, b) for a in lefts for b in rights]

    def append_all(self, bits: Sequence[int]) -> "AdmissibleWord":
        """Append one bit to each entry (entries taken in sorted order)."""
        if len(bits) != len(self.entries):
            raise ValueError("need one bit per entry")
        return AdmissibleWord(tuple(s.append(b) for s, b in zip(self.entries, bits)))

    def __str__(self) -> str:
        return "[" + " ".join(str(s) for s in self.entries) + "]"


def enumerate_admissible(level: int, degree: int,
                         max_enumeration: int = MAX_ENUMERATION) -> Iterator[AdmissibleWord]:
    """Every admissible word of the given level and degree, canonically ordered.

    The stream follows the lexicographic order of sorted symbol multisets.
    Raises CapExceeded up front if the number of candidate multisets is above
    ``max_enumeration``.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    words = all_words(level)
    syms = [Symbol(w, False) for w in words] + [Symbol(w, True) for w in words]
    candidates = math.comb(len(syms) + degree - 1, degree)
    if candidates > max_enumeration:
        raise CapExceeded(
            f"{candidates} candidate multisets exceed the cap {max_enumeration}")
    for combo in itertools.combinations_with_replacement(syms, degree):
        plain = {s.word for s in combo if not s.barred}
        marked = {s.word for s in combo if s.barred}
        if plain & marked:
            continue
        yield AdmissibleWord(combo)


def embed(terms: Mapping[AdmissibleWord, Scalar], backend: str) -> Dict[AdmissibleWord, Scalar]:
    """The level n -> n+1 isometry on a {word: coefficient} dict, each
    letter split into (child0 + child1)/sqrt2 with binomial weights."""
    out: Dict[AdmissibleWord, Scalar] = {}
    for word, coeff in terms.items():
        mults = word.symbol_multiplicities()
        syms = list(mults)
        scale = coeff * scalars.sqrt2_pow(-word.degree, backend)
        for split in itertools.product(*(range(m + 1) for m in (mults[s] for s in syms))):
            weight = 1
            child_entries = []
            for s, k in zip(syms, split):
                m = mults[s]
                weight *= math.comb(m, k)
                child_entries.extend([s.append(0)] * k)
                child_entries.extend([s.append(1)] * (m - k))
            child = AdmissibleWord(tuple(child_entries))
            out[child] = out.get(child, 0) + weight * scale
    return {w: c for w, c in out.items() if c != 0}
