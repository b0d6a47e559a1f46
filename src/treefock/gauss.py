"""Polynomials in complex Gaussian tree coordinates and their moments.

The coordinate family assigns an independent standard complex Gaussian to
each word of a fixed length; a word's variable is the normalized sum of the
variables on its depth-K descendants.  ``refine`` rewrites a polynomial at
a deeper level by that substitution alone: each factor z_w^a conj(z_w)^b of
a monomial becomes z^a conj(z)^b, z = 2^(-K/2) * (sum of z_{w+t} over the
words t of length K) for the gap K, multiplied in one factor at a time.
Each product and sum is held to ``DEFAULT_MAX_TERMS`` monomials, a module
constant read at call time, and CapExceeded is raised above it.

The inner product <p, q> = E[p * conj(q)] refines both sides to one level,
where the variables are independent and the Wick rule

    E[ z^a conj(z)^b ] = a! if a == b else 0,   independently per variable,

applies.  It is taken without building the product polynomial, by charge
matching.  The monomial m1 * conj(m2) has exponents (a1 + b2, b1 + a2) on
each variable, so its moment is nonzero exactly when a1 - b1 == a2 - b2 for
every word: when m1 and m2 carry the same charge vector ``charges()``, the
pairs (w, a - b) with a != b.  ``inner`` groups q's monomials by that vector
and pairs each monomial of p only within its group; a matched pair contributes
c1 * conj(c2) times the product over words of (a1 + b2)!, and every other
pair contributes 0.  The moment E[p] is <p, 1>, and ``moment_by_pairings``
recomputes monomial moments by brute-force Wick matching as an independent
oracle.

A Fock vector realizes as the product of its letters' variables (marked
letters conjugated); a torus step acts by composition, multiplying each
variable by the step's value on its cell, so a monomial picks up the step's
character of its charges (w, a - b).

``power_expansion`` writes a power z^k conj(z)^m of the root variable
z = z_e as its depth-l sum over child-index tuples, and
``expansion_remainder`` is the diagonal (constant-index) part of that sum;
``remainder_rate`` measures the remainder's mean and the squared norm of the
remainder minus its mean.  The closed forms these are checked against live
in the density suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from . import scalars
from .combination import Combination
from .errors import CapExceeded
from .fock import FockVector
from .scalars import Scalar
from .words import (MAX_WORD_LENGTH, TorusStep, Word, all_words, check_word,
                    descendants, word_length, word_text)

# Bound on the number of monomials ``refine`` may produce.
DEFAULT_MAX_TERMS = 200_000

# Bound on the degree the pairing oracle will enumerate.
PAIRING_DEGREE_CAP = 8

Exps = Tuple[Tuple[Word, int, int], ...]


@dataclass(frozen=True)
class GaussMonomial:
    """prod over words of z_w^a * conj(z_w)^b, stored sorted by word, so the
    last word is the longest."""

    exps: Exps

    def __post_init__(self) -> None:
        for w, a, b in self.exps:
            check_word(w)
            if a < 0 or b < 0:
                raise ValueError("negative exponent")
        cleaned = tuple(sorted(e for e in self.exps if e[1] or e[2]))
        words = [w for w, _, _ in cleaned]
        if len(set(words)) != len(words):
            raise ValueError("duplicate variable in monomial")
        object.__setattr__(self, "exps", cleaned)

    @classmethod
    def of(cls, exponents: Mapping[Word, Tuple[int, int]]) -> "GaussMonomial":
        return cls(tuple((w, a, b) for w, (a, b) in exponents.items()))

    @property
    def degree(self) -> int:
        return sum(a + b for _, a, b in self.exps)

    def charges(self) -> List[Tuple[Word, int]]:
        """(w, a - b) per variable whose net charge is not zero: z_w counts
        once, its conjugate minus once."""
        return [(w, a - b) for w, a, b in self.exps if a != b]

    @property
    def is_constant(self) -> bool:
        return not self.exps

    def words(self) -> Tuple[Word, ...]:
        return tuple(w for w, _, _ in self.exps)

    def max_word_length(self) -> int:
        return word_length(self.exps[-1][0]) if self.exps else 0

    def conj(self) -> "GaussMonomial":
        return GaussMonomial(tuple((w, b, a) for w, a, b in self.exps))

    def __mul__(self, other: "GaussMonomial") -> "GaussMonomial":
        if not isinstance(other, GaussMonomial):
            return NotImplemented
        merged: Dict[Word, Tuple[int, int]] = {w: (a, b) for w, a, b in self.exps}
        for w, a, b in other.exps:
            pa, pb = merged.get(w, (0, 0))
            merged[w] = (pa + a, pb + b)
        return GaussMonomial.of(merged)

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for w, a, b in self.exps:
            name = "z_" + word_text(w)
            if a:
                parts.append(name if a == 1 else f"{name}^{a}")
            if b:
                parts.append(f"{name}~" if b == 1 else f"{name}~^{b}")
        return "*".join(parts)


class GaussPoly(Combination):
    """A sparse polynomial: monomial -> coefficient."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "GaussPoly":
        return cls({})

    @classmethod
    def constant(cls, c: Scalar) -> "GaussPoly":
        return cls({GaussMonomial(()): c})

    @classmethod
    def variable(cls, w: Word) -> "GaussPoly":
        """z_w; its conjugate is ``variable(w).conj()``."""
        return cls({GaussMonomial.of({w: (1, 0)}): 1})

    def max_word_length(self) -> int:
        return max((m.max_word_length() for m in self.terms), default=0)

    def variables(self) -> Tuple[Word, ...]:
        return tuple(sorted({w for m in self.terms for w in m.words()}))

    def __mul__(self, other: "GaussPoly") -> "GaussPoly":
        if not isinstance(other, GaussPoly):
            return NotImplemented
        out: Dict[GaussMonomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return GaussPoly(out)

    def conj(self) -> "GaussPoly":
        return GaussPoly({m.conj(): scalars.conj(c) for m, c in self.terms.items()})

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{m}" for m, c in sorted(
            self.terms.items(), key=lambda kv: (kv[0].degree, kv[0].exps)))
        return f"GaussPoly({body or '0'})"


def _capped(p: GaussPoly) -> GaussPoly:
    """``p`` itself, or CapExceeded when it has over DEFAULT_MAX_TERMS monomials."""
    if len(p.terms) > DEFAULT_MAX_TERMS:
        raise CapExceeded(f"expansion above {DEFAULT_MAX_TERMS} monomials")
    return p


def refine(p: GaussPoly, level: int) -> GaussPoly:
    """Rewrite ``p`` using only level-``level`` variables, by the module
    docstring's substitution (z is z_w itself when w has length ``level``);
    the polynomial identity behind ``embed`` on the Fock side.
    """
    if level > MAX_WORD_LENGTH:
        raise CapExceeded(f"refinement beyond depth {MAX_WORD_LENGTH}")
    if p.max_word_length() > level:
        raise ValueError("polynomial already uses variables deeper than the target")
    # each monomial's first word is its shortest
    if all(word_length(m.exps[0][0]) == level for m in p.terms if m.exps):
        return p
    backend = p.backend()
    out = GaussPoly.zero()
    for mono, coeff in p.terms.items():
        acc = GaussPoly.constant(coeff)
        for w, a, b in mono.exps:
            gap = level - word_length(w)
            scale = scalars.sqrt2_pow(-gap, backend) if gap else 1
            z = GaussPoly({GaussMonomial.of({t: (1, 0)}): scale
                           for t in descendants(w, gap)})
            bar = z.conj() if b else z  # conjugated only when used
            for factor in [z] * a + [bar] * b:
                acc = _capped(acc * factor)
        out = _capped(out + acc)
    return out


def moment(p: GaussPoly) -> Scalar:
    """E[p] = <p, 1>; variables of different levels are refined to the
    deepest first, as ``inner`` does."""
    return inner(p, GaussPoly.constant(scalars.one(p.backend())))


def inner(p: GaussPoly, q: GaussPoly) -> Scalar:
    """<p, q> = E[p * conj(q)], refining both to a common level first.

    Pairs monomials by charge matching instead of building the product
    polynomial; see the module docstring.
    """
    p._check_backend(q)
    level = max(p.max_word_length(), q.max_word_length())
    p, q = refine(p, level), refine(q, level)
    # q's monomials by charge: (b per word, prod b!, conj(coefficient))
    groups: Dict[Tuple[Tuple[Word, int], ...],
                 List[Tuple[Dict[Word, int], int, Scalar]]] = {}
    for mono, c in q.terms.items():
        groups.setdefault(tuple(mono.charges()), []).append(
            ({w: b for w, _, b in mono.exps},
             math.prod(math.factorial(b) for _, _, b in mono.exps),
             scalars.conj(c)))
    acc: Scalar = 0
    for mono, c in p.terms.items():
        for bs, factor, d in groups.get(tuple(mono.charges()), ()):
            # (a1 + b2)! per word: b2! is already in factor, so multiply in
            # (a1 + b2)! / b2! for each of p's words
            for w, a, _ in mono.exps:
                factor *= math.perm(a + bs.get(w, 0), a)
            acc = acc + c * d * factor
    return acc


def norm2(p: GaussPoly) -> Scalar:
    return inner(p, p)


def from_fock(v: FockVector) -> GaussPoly:
    """Realize a Fock vector as a polynomial: each letter contributes its
    variable, marked letters conjugated."""
    out: Dict[GaussMonomial, Scalar] = {}
    for word, coeff in v.terms.items():
        # an admissible word uses each of its words either marked or not
        mono = GaussMonomial.of({w: (k, 0) if k > 0 else (0, -k)
                                 for w, k in word.charges()})
        out[mono] = out.get(mono, 0) + coeff
    return GaussPoly(out)


def koopman(g: TorusStep, p: GaussPoly) -> GaussPoly:
    """Composition with the step's action: z_w picks up the factor g(w).

    Auto-refines so every variable is at least as deep as the step; each
    monomial then picks up the step's character of its charges.
    """
    return refine(p, max(g.level, p.max_word_length())).acted(g)


def moment_by_pairings(mono: GaussMonomial) -> int:
    """Brute-force Wick oracle for a monomial's moment.

    Lists the plain and conjugated factors and counts the bijections that
    match each plain factor to a conjugated copy of the same variable.
    Only meaningful for a single variable level (independent family).
    """
    if mono.exps and word_length(mono.exps[0][0]) != mono.max_word_length():
        raise ValueError("pairing oracle needs a single variable level")
    if mono.degree > PAIRING_DEGREE_CAP:
        raise CapExceeded(f"pairing oracle beyond degree {PAIRING_DEGREE_CAP}")
    plain = [w for w, a, _ in mono.exps for _ in range(a)]
    conjd = [w for w, _, b in mono.exps for _ in range(b)]
    if len(plain) != len(conjd):
        return 0
    count = 0
    for perm in itertools.permutations(conjd):
        if all(x == y for x, y in zip(plain, perm)):
            count += 1
    return count


def expansion_remainder(k: int, m: int, depth: int) -> GaussPoly:
    """The diagonal part of the depth-``depth`` expansion of z^k conj(z)^m.

    2^(-depth*(k+m)/2) * sum over the depth-``depth`` words t of
    z_t^k conj(z_t)^m.
    """
    if k < 0 or m < 0 or k + m < 1:
        raise ValueError("need nonnegative exponents with k + m >= 1")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    scale = scalars.sqrt2_pow(-depth * (k + m))
    return GaussPoly({GaussMonomial.of({t: (k, m)}): scale for t in all_words(depth)})


def remainder_rate(k: int, m: int, depth: int) -> Tuple[Scalar, Scalar]:
    """The mean c of ``expansion_remainder(k, m, depth)`` and the squared
    norm of the remainder minus c."""
    r = expansion_remainder(k, m, depth)
    c = moment(r)
    centered = r - GaussPoly.constant(c)
    return c, inner(centered, centered)


def power_expansion(k: int, m: int, depth: int) -> GaussPoly:
    """The child-index sum of z^k conj(z)^m, z the root variable:
    2^(-depth(k+m)/2) times the sum over tuples t of k + m depth-``depth``
    words of z_(t_1) ... z_(t_k) conj(z_(t_(k+1)) ... z_(t_(k+m))).  Its
    single-variable monomials are the constant-index tuples'."""
    if k < 0 or m < 0 or k + m < 1:
        raise ValueError("need nonnegative exponents with k + m >= 1")
    children = all_words(depth)
    tuples = len(children) ** (k + m)
    if tuples > DEFAULT_MAX_TERMS:
        raise CapExceeded(f"{tuples} index tuples exceed the cap {DEFAULT_MAX_TERMS}")
    scale = scalars.sqrt2_pow(-depth * (k + m))
    out: Dict[GaussMonomial, Scalar] = {}
    for choice in itertools.product(children, repeat=k + m):
        mono = GaussMonomial.of({t: (choice[:k].count(t), choice[k:].count(t))
                                 for t in choice})
        out[mono] = out.get(mono, 0) + scale
    return GaussPoly(out)
