"""The modified symmetric Fock space over same-length binary words.

Vectors are finite linear combinations of basic product vectors indexed by
admissible words, all at one level n.  The inner product is diagonal in that
basis: the squared norm of a basic vector is the product of the multiplicity
factorials of its word.  Three operations act on vectors,

* ``embed``    -- the isometry into level n+1 induced by splitting each basic
                  letter into the normalized sum of its two children,
* ``act``      -- the unitary action of a torus step, which multiplies each
                  basic vector by the step's character of the word's
                  charges (values for unmarked letters, conjugate values
                  for marked ones),
* ``inner``    -- the sesquilinear pairing, linear in the first argument.

``embed`` expands each distinct letter's multiplicity through a binomial
split, which keeps the image sparse; ``embed_by_enumeration`` is the direct
sum over all 2^degree child assignments and is retained as an oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Mapping, Tuple

from . import scalars
from .combination import Combination
from .errors import CapExceeded
from .scalars import EXACT, Scalar
from .words import MAX_WORD_LENGTH, AdmissibleWord, TorusStep, child

# Degree bound enforced at construction; desk-scale checks stay below it.
MAX_DEGREE = 5


class FockVector(Combination):
    """A sparse vector: admissible word -> coefficient, all words at one level."""

    __slots__ = ("level",)

    def __init__(self, level: int, terms: Mapping[AdmissibleWord, Scalar]) -> None:
        cleaned: Dict[AdmissibleWord, Scalar] = {}
        for w, c in terms.items():
            if w.level != level:
                raise ValueError(f"word {w} is not at level {level}")
            if w.degree > MAX_DEGREE:
                raise CapExceeded(f"degree {w.degree} above the cap {MAX_DEGREE}")
            if c == 0:
                continue
            cleaned[w] = c
        self.level = level
        self.terms = cleaned
        self._backend = None

    def _frame(self) -> tuple:
        return (self.level,)

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{w}" for w, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].codes))
        return f"FockVector(level={self.level}, {body or '0'})"


def basic(word: AdmissibleWord, backend: str = EXACT) -> FockVector:
    """The basic product vector of an admissible word, coefficient one."""
    return FockVector(word.level, {word: scalars.one(backend)})


def inner(u: FockVector, v: FockVector) -> Scalar:
    """<u, v>, linear in u and conjugate-linear in v."""
    return u._pair(v, AdmissibleWord.gram_diagonal)


def norm2(v: FockVector) -> Scalar:
    return inner(v, v)


def embed(v: FockVector) -> FockVector:
    """The level n -> n+1 isometry.

    Each letter splits into (child0 + child1)/sqrt2; on a basic word the
    product expands letter by letter.  Grouping the 2^degree assignments by
    how many copies of each distinct letter go to child 0 gives binomial
    coefficients, so the image of a word with letter multiplicities m has
    prod(m_s + 1) terms rather than 2^degree.
    """
    if v.level + 1 > MAX_WORD_LENGTH:
        raise CapExceeded(f"embedding beyond level {MAX_WORD_LENGTH}")
    backend = v.backend()
    out: Dict[Tuple[int, ...], Scalar] = {}
    for word, coeff in v.terms.items():
        # (multiplicity, children) per distinct letter; children keep its order
        letters = [(word.codes.count(c), child(c, 0), child(c, 1))
                   for c in dict.fromkeys(word.codes)]
        scale = coeff * scalars.sqrt2_pow(-word.degree, backend)
        for split in itertools.product(*(range(m + 1) for m, _, _ in letters)):
            weight = 1
            key: Tuple[int, ...] = ()
            for (m, c0, c1), k in zip(letters, split):
                weight *= math.comb(m, k)
                key += (c0,) * k + (c1,) * (m - k)
            out[key] = out.get(key, 0) + weight * scale
    # children of an admissible word are admissible and keep its degree
    return FockVector(v.level + 1, {})._like(
        {AdmissibleWord._trusted(key): c for key, c in out.items()})


def embed_by_enumeration(v: FockVector) -> FockVector:
    """Oracle form of ``embed``: the raw sum over all 2^degree assignments."""
    if v.level + 1 > MAX_WORD_LENGTH:
        raise CapExceeded(f"embedding beyond level {MAX_WORD_LENGTH}")
    backend = v.backend()
    out: Dict[AdmissibleWord, Scalar] = {}
    for word, coeff in v.terms.items():
        scale = coeff * scalars.sqrt2_pow(-word.degree, backend)
        for bits in itertools.product((0, 1), repeat=word.degree):
            child = word.append_all(bits)
            out[child] = out.get(child, 0) + scale
    return FockVector(v.level + 1, out)


def act(g: TorusStep, v: FockVector) -> FockVector:
    """The unitary action of a torus step on a vector at level >= g.level."""
    if g.level > v.level:
        raise ValueError("step is finer than the vector's level")
    return v.acted(g)
