"""Binary words, conjugation-marked symbols, admissible multisets, torus steps.

A word is its node code in the binary tree: the root ``""`` is 1 and the
children of ``w`` are ``2w`` and ``2w + 1``, so int order is the canonical
order, length first, then lexicographic; only this module reads the bit
layout.  A symbol is a word together with a conjugation mark, and an
admissible word is a nonempty multiset of same-length symbols in which no
word appears both marked and unmarked.  Admissible words index the basic
product vectors of the Fock layer, and almost everything downstream is keyed
by their canonical form, the sorted tuple of their integer symbol codes.

A torus step assigns a unit scalar to each word of a fixed length: a step
function into the circle, constant on the depth-n cells of Cantor space; it
acts on every basis key by ``TorusStep.character`` of the key's ``charges()``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from . import scalars
from .errors import CapExceeded
from .scalars import EXACT, Scalar

Word = int

# Hard bound on word length; every depth-increasing operation checks it.
MAX_WORD_LENGTH = 32

# Default bound on the number of multisets an enumeration may touch.
MAX_ENUMERATION = 2_000_000

# A symbol code is its word's code, plus MARK when conjugated.  MARK sits
# above every word code, so int order is the canonical symbol order:
# unmarked first, then by length, then lexicographic.
MARK = 1 << (MAX_WORD_LENGTH + 1)
WORD_PART = MARK - 1


def make_word(text: str) -> Word:
    """The word spelled by a string of bits such as ``"011"``; ``""`` is the root."""
    if not isinstance(text, str):
        raise TypeError(f"make_word takes a string, not {type(text).__name__}")
    if text.strip("01"):
        raise ValueError("word bits must be 0 or 1")
    return check_word(int("1" + text, 2))


def check_word(w: object) -> Word:
    """``w`` itself if it is a word; a tuple of bits raises TypeError."""
    if type(w) is not int:
        raise TypeError(f"a word is an int code, not {type(w).__name__}")
    if w < 1:
        raise ValueError("word codes start at 1, the root")
    if w > WORD_PART:
        raise CapExceeded(f"word longer than {MAX_WORD_LENGTH}")
    return w


def word_length(w: Word) -> int:
    return w.bit_length() - 1


def word_index(w: Word) -> int:
    """The rank of ``w`` among words of its own length, in lexicographic order."""
    return w - (1 << (w.bit_length() - 1))


def word_text(w: Word) -> str:
    return bin(w)[3:] or "e"


def child(code: int, bit: int) -> int:
    """The word (or symbol code) with ``bit`` appended; a mark is kept."""
    return code + (code & WORD_PART) + bit


def descendants(w: Word, gap: int) -> range:
    """The words ``gap`` levels below ``w``, lexicographically: one contiguous block."""
    return range(w << gap, (w + 1) << gap)


def prefix(w: Word, level: int) -> Word:
    """The ancestor of ``w`` at length ``level``."""
    gap = w.bit_length() - 1 - level
    if gap < 0:
        raise ValueError(f"word shorter than {level}")
    return w >> gap


def all_words(length: int) -> range:
    """All words of the given length, lexicographically."""
    if length < 0:
        raise ValueError("negative word length")
    if length > MAX_WORD_LENGTH:
        raise CapExceeded(f"word length above {MAX_WORD_LENGTH}")
    return descendants(1, length)


class Symbol(int):
    """A word with an optional conjugation mark, held as one int code whose
    int order is the canonical symbol order: unmarked before marked, then by
    level, then lexicographic by word."""

    __slots__ = ()

    def __new__(cls, word: Word, barred: bool = False) -> "Symbol":
        code = check_word(word)
        return int.__new__(cls, code | MARK if barred else code)

    @property
    def word(self) -> Word:
        return self & WORD_PART

    @property
    def barred(self) -> bool:
        return self >= MARK

    @property
    def level(self) -> int:
        return (self & WORD_PART).bit_length() - 1

    def conj(self) -> "Symbol":
        return _symbol(self ^ MARK)

    def append(self, bit: int) -> "Symbol":
        # Appending commutes with the mark: the child of a marked symbol is
        # the marked child, so the underlying word grows either way.
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if self.level + 1 > MAX_WORD_LENGTH:
            raise CapExceeded(f"word longer than {MAX_WORD_LENGTH}")
        return _symbol(child(self, bit))

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        """Parse ``"011"`` or ``"011*"`` (trailing star marks conjugation);
        ``"e"`` and ``"e*"`` are the empty word, as ``str`` prints it."""
        barred = text.endswith("*")
        body = text[:-1] if barred else text
        return cls(make_word("" if body == "e" else body), barred)

    def __str__(self) -> str:
        return word_text(self.word) + ("*" if self.barred else "")

    def __repr__(self) -> str:
        return f"Symbol.parse({str(self)!r})"

    def __reduce__(self):
        return (Symbol, (self.word, self.barred))


# The symbol of a valid code, unchecked.
_symbol = partial(int.__new__, Symbol)


class AdmissibleWord:
    """A nonempty multiset of same-length symbols, no word marked both ways.

    ``codes`` holds the symbol codes sorted (unmarked before marked, then by
    word), so two multisets are equal exactly when their code tuples are.
    The degree is the number of entries counted with multiplicity;
    ``degrees`` splits it into the unmarked count p and the marked count q.
    """

    __slots__ = ("codes", "level", "degree", "degrees", "_gram", "_hash")

    def __new__(cls, entries: Iterable[Symbol]) -> "AdmissibleWord":
        entries = tuple(entries)
        if not entries:
            raise ValueError("admissible word must be nonempty")
        if set(map(type, entries)) != {Symbol}:
            raise TypeError("entries must be Symbols")
        codes = tuple(sorted(map(int, entries)))
        if len(set(map(int.bit_length, map(WORD_PART.__and__, codes)))) > 1:
            raise ValueError("all symbols must have the same length")
        # admissible: as many distinct words as distinct symbols
        if len(set(codes)) != len(set(map(WORD_PART.__and__, codes))):
            clash = min(c for c in codes if c ^ MARK in codes)
            raise ValueError(
                f"word {word_text(clash)} appears both marked and unmarked")
        return cls._trusted(codes)

    @classmethod
    def _trusted(cls, codes: Tuple[int, ...]) -> "AdmissibleWord":
        """The word of sorted codes already known to be admissible, unchecked."""
        out = object.__new__(cls)
        p = bisect.bisect_left(codes, MARK)
        put = object.__setattr__
        put(out, "codes", codes)
        put(out, "_hash", hash(codes))
        put(out, "level", (codes[0] & WORD_PART).bit_length() - 1)
        put(out, "degree", len(codes))
        put(out, "degrees", (p, len(codes) - p))
        distinct = set(codes)
        put(out, "_gram", 1 if len(distinct) == len(codes) else
            math.prod(map(math.factorial, map(codes.count, distinct))))
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("admissible words are immutable")

    @classmethod
    def parse(cls, text: str) -> "AdmissibleWord":
        """Parse a space-separated symbol list such as ``"0 0 1*"``."""
        return cls(Symbol.parse(tok) for tok in text.split())

    @property
    def entries(self) -> Tuple[Symbol, ...]:
        return tuple(map(_symbol, self.codes))

    def symbol_multiplicities(self) -> Dict[Symbol, int]:
        return {_symbol(c): self.codes.count(c) for c in self.codes}

    def charges(self) -> List[Tuple[Word, int]]:
        """(word, m) for an unmarked word and (word, -m) for a marked one,
        m its multiplicity."""
        return [(c & WORD_PART, -m if c >= MARK else m)
                for c, m in self.symbol_multiplicities().items()]

    def gram_diagonal(self) -> int:
        """Product of the multiplicity factorials; the squared norm of the
        basic vector this word indexes."""
        return self._gram

    def unmarked_words(self) -> Tuple[Word, ...]:
        # an unmarked code is its word
        return self.codes[:self.degrees[0]]

    def marked_words(self) -> Tuple[Word, ...]:
        return tuple(map(MARK.__xor__, self.codes[self.degrees[0]:]))

    def variants(self) -> List[Tuple[Tuple[Word, ...], Tuple[Word, ...]]]:
        """All distinct ordered arrangements (unmarked block, marked block)."""
        # permutations of a sorted block first meet its orderings in sorted order
        lefts = list(dict.fromkeys(itertools.permutations(self.unmarked_words())))
        rights = list(dict.fromkeys(itertools.permutations(self.marked_words())))
        return [(a, b) for a in lefts for b in rights]

    def append_all(self, bits: Sequence[int]) -> "AdmissibleWord":
        """Append one bit to each entry (entries taken in sorted order).  The
        children share a length, keep their marks and differ where the entries
        do, so they are admissible: one check of bits and length covers all."""
        if len(bits) != self.degree or not {*bits} <= {0, 1}:
            raise ValueError("need one bit, 0 or 1, per entry")
        if self.level + 1 > MAX_WORD_LENGTH:
            raise CapExceeded(f"word longer than {MAX_WORD_LENGTH}")
        return AdmissibleWord._trusted(tuple(sorted(map(child, self.codes, bits))))

    def __eq__(self, other: object) -> bool:
        if type(other) is not AdmissibleWord:
            return NotImplemented
        return self.codes == other.codes

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "[" + " ".join(str(s) for s in self.entries) + "]"

    def __repr__(self) -> str:
        return f"AdmissibleWord.parse({' '.join(str(s) for s in self.entries)!r})"


def enumerate_admissible(level: int, degree: int) -> Iterator[AdmissibleWord]:
    """Every admissible word of the given level and degree, canonically ordered.

    The stream follows the lexicographic order of sorted symbol multisets.
    Raises CapExceeded up front if the number of candidate multisets is above
    ``MAX_ENUMERATION``.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    codes = [*all_words(level), *(w | MARK for w in all_words(level))]
    candidates = math.comb(len(codes) + degree - 1, degree)
    if candidates > MAX_ENUMERATION:
        raise CapExceeded(
            f"{candidates} candidate multisets exceed the cap {MAX_ENUMERATION}")
    for combo in itertools.combinations_with_replacement(codes, degree):
        if len(set(combo)) == len(set(map(WORD_PART.__and__, combo))):
            yield AdmissibleWord._trusted(combo)


@dataclass(frozen=True)
class TorusStep:
    """A unit scalar for each word of a fixed length: ``TorusStep(values)``.

    ``values`` is indexed by the lexicographic rank of the word, so its
    length is a power of two and ``level`` is that power.  The values are
    either all exact (plain ints in the identity, ExactComplex otherwise)
    with squared modulus exactly one, or all float (complex values within
    1e-12 of the unit circle); ``backend`` says which.
    """

    values: Tuple[Scalar, ...]
    level: int = field(init=False)
    backend: str = field(init=False)

    def __post_init__(self) -> None:
        level = (len(self.values) - 1).bit_length()
        if 2 ** level != len(self.values):
            raise ValueError("number of values must be a power of two")
        backend = scalars.backend_of_values(self.values)
        for v in self.values:
            if scalars.backend_of(v) != backend:
                raise ValueError("step mixes exact and float values")
            if not scalars.is_unit_modulus(v, backend):
                raise ValueError(f"step value {v} is not of unit modulus")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "backend", backend)

    def value_at(self, w: Word) -> Scalar:
        """The step's value on the cell of ``w``; ``w`` may be longer."""
        return self.values[word_index(prefix(check_word(w), self.level))]

    def character(self, charges: Iterable[Tuple[Word, int]]) -> Scalar:
        """prod g(w)^k over a key's (word, net exponent) charges; a negative
        k takes the conjugate, which unit modulus makes the inverse."""
        out: Scalar = 1
        for w, k in charges:
            if k:
                val = self.value_at(w)
                if k < 0:
                    val, k = scalars.conj(val), -k
                out = out * (val if k == 1 else val ** k)
        return out

    def __mul__(self, other: "TorusStep") -> "TorusStep":
        if not isinstance(other, TorusStep):
            return NotImplemented
        if other.level != self.level:
            raise ValueError("pointwise product needs equal lengths")
        if other.backend != self.backend:
            raise TypeError("cannot mix exact and float steps")
        return TorusStep(tuple(a * b for a, b in zip(self.values, other.values)))

    def inverse(self) -> "TorusStep":
        return TorusStep(tuple(scalars.conj(v) for v in self.values))

    @classmethod
    def identity(cls, level: int, backend: str = EXACT) -> "TorusStep":
        return cls((scalars.one(backend),) * 2 ** level)

    @classmethod
    def from_eighth_root_indices(cls, indices: Sequence[int]) -> "TorusStep":
        """An exact step with values exp(i*pi*k/4), k running over ``indices``."""
        return cls(tuple(map(scalars.eighth_root, indices)))

    @classmethod
    def random_eighth_roots(cls, level: int, rng: random.Random) -> "TorusStep":
        return cls.from_eighth_root_indices(
            [rng.randrange(8) for _ in range(2 ** level)])

    @classmethod
    def from_angles(cls, angles: Sequence[float]) -> "TorusStep":
        """A float step with values exp(i*theta), theta running over ``angles``."""
        return cls(tuple(map(scalars.phase, angles)))

    @classmethod
    def random_phases(cls, level: int, rng: random.Random) -> "TorusStep":
        return cls.from_angles([rng.uniform(0.0, 2.0 * math.pi)
                                for _ in range(2 ** level)])
