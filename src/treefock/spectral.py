"""Index functions, depth-truncated measures on slot grids, and the
convolution constraint.

An index function x assigns a positive count to finitely many nonzero
integer levels.  Its slot set D(x) has one slot (k, i) per level k and copy
i < x(k); a point of the associated grid assigns a binary word to every
slot.  At a finite depth d the relevant measures are determined by their
cylinder weights, one per assignment of depth-d words to slots.  A
DepthMeasure holds them as exact integer counts over one denominator, in an
int64 array with one axis of 2**d words per slot.

The spectral form of the multiplication representation attached to x is the
full product measure when dom(x) is contained in {-1, 1} (at j = 1) and the
zero measure otherwise.  The semigroup operations are

* ``x + y``        -- pointwise sum of index functions,
* ``x.scaled(m)``  -- relabel level k as m*k,
* ``mu.relabel(m)``-- the matching pushforward of a measure,
* ``mu.tensor(nu)``-- sum of the product pushforward over the slot pairings,
                      the prod (x(k)+y(k))! good permutations of x + y,
                      taken one swap coset at a time.

``check_constraint`` builds both sides of the constraint

    relabel(m_1, mu_1) (x) ... (x) relabel(m_n, mu_n)  <<  spectral form of
    m_1*x_1 + ... + m_n*x_n

and tests absolute continuity as support containment of cylinder weights at
every depth up to ``CONSTRAINT_DEPTH``.  For the uniform-or-zero measures that
arise here, support containment at each finite depth is exactly what is
falsifiable.  The compatibility conditions (coherence across depths,
good-permutation invariance, shrinking diagonals) are read off a measure by
``coarsened``, ``is_good_invariant`` and ``diagonal_masses``; the
verification suite judges them.

Bounded caches build each of these once: spectral forms per (x, j, depth),
the relabeled forms ``check_constraint`` tensors per (x, m, depth), good
permutations per index, and the target, pairing count, layout order and
level blocks of ``tensor`` per pair of indices.  So a ``DepthMeasure`` that ``spectral_form`` returns
may be shared with other callers; measures are immutable.  Each call still
checks the caps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import CapExceeded
from .scalars import Scalar
from .words import (MAX_WORD_LENGTH, TorusStep, Word, all_words, check_word,
                    word_index, word_length)

Slot = Tuple[int, int]
Assignment = Tuple[Word, ...]

# Bound on pairings * nonzero cell pairs a tensor product may touch, and on
# the cells of any one measure.
DEFAULT_MAX_TENSOR_OPS = 2_000_000
DEFAULT_MAX_PERMUTATIONS = 100_000
_INT64_MAX = int(np.iinfo(np.int64).max)
# check_constraint compares its two sides at every depth from 1 to this one.
CONSTRAINT_DEPTH = 2
# Entries kept by each of the bounded caches below.
_CACHE_SIZE = 1024


def _check_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


@dataclass(frozen=True)
class IndexFunction:
    """A finitely supported map from nonzero integers to positive counts."""

    items: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        for k, c in self.items:
            _check_int("level", k)
            _check_int("count", c)
        cleaned = tuple(sorted((k, c) for k, c in self.items if c))
        for k, c in cleaned:
            if k == 0:
                raise ValueError("level 0 is not allowed")
            if c < 0:
                raise ValueError("counts must be positive")
        if len({k for k, _ in cleaned}) != len(cleaned):
            raise ValueError("duplicate level")
        if not cleaned:
            raise ValueError("index function must be nonzero")
        object.__setattr__(self, "items", cleaned)

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> "IndexFunction":
        return cls(tuple(mapping.items()))

    @classmethod
    def _trusted(cls, items: Tuple[Tuple[int, int], ...]) -> "IndexFunction":
        """The index function of sorted items already known to be valid,
        unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "items", items)
        return out

    def get(self, k: int) -> int:
        for kk, c in self.items:
            if kk == k:
                return c
        return 0

    def total(self) -> int:
        return sum(c for _, c in self.items)

    def slots(self) -> Tuple[Slot, ...]:
        """D(x): one (level, copy) slot per counted unit, sorted."""
        return tuple((k, i) for k, c in self.items for i in range(c))

    def has_unit_domain(self) -> bool:
        return all(k in (-1, 1) for k, _ in self.items)

    def __add__(self, other: "IndexFunction") -> "IndexFunction":
        if not isinstance(other, IndexFunction):
            return NotImplemented
        merged: Dict[int, int] = dict(self.items)
        for k, c in other.items:
            merged[k] = merged.get(k, 0) + c
        # sums of positive counts are positive
        return IndexFunction._trusted(tuple(sorted(merged.items())))

    def scaled(self, m: int) -> "IndexFunction":
        """Relabel level k as m*k."""
        _check_int("scale factor", m)
        if m == 0:
            raise ValueError("scale factor must be nonzero")
        # for a nonzero int m the levels m*k stay nonzero and distinct, in
        # reversed order when m < 0
        items = tuple((m * k, c) for k, c in self.items)
        return IndexFunction._trusted(items if m > 0 else items[::-1])

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}:{c}" for k, c in self.items) + "}"


def index_pq(p: int, q: int) -> IndexFunction:
    """The index function with p units at level 1 and q at level -1."""
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("need nonnegative p, q with p + q > 0")
    out = {}
    if p:
        out[1] = p
    if q:
        out[-1] = q
    return IndexFunction.of(out)


def _permutation_count(x: IndexFunction) -> int:
    """prod x(k)!, the number of good permutations of x."""
    return math.prod(math.factorial(c) for _, c in x.items)


def good_permutations(x: IndexFunction,
                      max_count: int = DEFAULT_MAX_PERMUTATIONS) -> List[Tuple[int, ...]]:
    """Permutations of D(x) fixing the level coordinate.

    Returned as position maps over ``x.slots()``: entry j holds the source
    position of the slot that lands in position j.  There are prod x(k)! of
    them.  The list is new on every call; the permutations are built once
    per (x, max_count).
    """
    return list(_good_permutations(x, max_count))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _good_permutations(x: IndexFunction, max_count: int) -> Tuple[Tuple[int, ...], ...]:
    count = _permutation_count(x)
    if count > max_count:
        raise CapExceeded(f"{count} good permutations exceed the cap {max_count}")
    starts = itertools.accumulate((c for _, c in x.items), initial=0)
    blocks = [list(itertools.permutations(range(start, start + c)))
              for start, (_, c) in zip(starts, x.items)]
    return tuple(sum(combo, ()) for combo in itertools.product(*blocks))


def _grid_shape(index: IndexFunction, depth: int) -> Tuple[int, ...]:
    """One axis of 2**depth words per slot; raises before a grid over the cap."""
    if depth < 0 or depth > MAX_WORD_LENGTH:
        raise ValueError("depth out of range")
    slots = index.total()
    cells = (2 ** depth) ** slots
    if cells > DEFAULT_MAX_TENSOR_OPS:
        raise CapExceeded(f"{cells} cells exceed the cap {DEFAULT_MAX_TENSOR_OPS}")
    return (2 ** depth,) * slots


def _check_int64(total: int) -> None:
    if total > _INT64_MAX:
        raise CapExceeded(f"total count {total} exceeds the int64 bound")


class DepthMeasure:
    """Cylinder weights at one depth, as integer counts over one denominator.

    ``counts`` is a read-only int64 array with one axis of length 2**depth
    per slot of ``index.slots()``, in that order.  A word indexes its axis as
    a binary number, first bit most significant, so each axis runs through
    the words in lexicographic order.  The weight of an assignment of words
    to slots is ``counts[cell] / den``.  The form is normal (``den > 0`` and
    ``gcd(counts, den) == 1``), so equal measures have equal arrays.

    Limits, each raising ``CapExceeded`` before any array is allocated: a
    measure has at most ``DEFAULT_MAX_TENSOR_OPS`` cells, and its counts sum
    to at most the int64 maximum, so no sum over cells can overflow.

    Instances are immutable: ``counts`` is read-only and no method assigns
    an attribute, so one measure may be shared, as ``spectral_form``'s
    are.
    """

    __slots__ = ("index", "depth", "counts", "den")

    def __init__(self, index: IndexFunction, depth: int,
                 weights: Mapping[Assignment, Fraction]) -> None:
        shape = _grid_shape(index, depth)
        cells: Dict[Tuple[int, ...], Fraction] = {}
        for key, wt in weights.items():
            if len(key) != len(shape):
                raise ValueError("assignment with the wrong number of slots")
            if any(word_length(check_word(w)) != depth for w in key):
                raise ValueError("assignment word at the wrong depth")
            wt = Fraction(wt)
            if wt < 0:
                raise ValueError("weights must be nonnegative")
            if wt:
                cells[tuple(map(word_index, key))] = wt
        den = math.lcm(*(wt.denominator for wt in cells.values()))
        _check_int64(sum(cells.values()) * den)
        counts = np.zeros(shape, dtype=np.int64)
        for cell, wt in cells.items():
            counts[cell] = int(wt * den)
        counts.flags.writeable = False
        # normal already: over the least common denominator, the weight whose
        # denominator holds the top power of a prime p has a count prime to p
        self.index, self.depth, self.counts, self.den = index, depth, counts, den

    @classmethod
    def _of(cls, index: IndexFunction, depth: int, counts: np.ndarray,
            den: int) -> "DepthMeasure":
        """The measure counts/den, brought to normal form."""
        g = math.gcd(int(np.gcd.reduce(counts, axis=None)), den)
        if g > 1:
            counts, den = counts // g, den // g
        return cls._normal(index, depth, counts, den)

    @classmethod
    def _normal(cls, index: IndexFunction, depth: int, counts: np.ndarray,
                den: int) -> "DepthMeasure":
        """The measure counts/den, already in normal form, unchecked."""
        out = object.__new__(cls)
        out.index, out.depth, out.counts, out.den = index, depth, counts, den
        counts.flags.writeable = False
        return out

    @classmethod
    def uniform(cls, index: IndexFunction, depth: int) -> "DepthMeasure":
        """The full product measure at the given depth, total mass one."""
        shape = _grid_shape(index, depth)
        # all-ones counts over their number have gcd 1
        return cls._normal(index, depth, np.ones(shape, dtype=np.int64),
                           math.prod(shape))

    @classmethod
    def zero(cls, index: IndexFunction, depth: int) -> "DepthMeasure":
        shape = _grid_shape(index, depth)
        return cls._of(index, depth, np.zeros(shape, dtype=np.int64), 1)

    @property
    def weights(self) -> Dict[Assignment, Fraction]:
        """The nonzero cells, assignment -> weight, in a new dict."""
        words = all_words(self.depth)
        return {
            tuple(words[i] for i in cell): Fraction(int(self.counts[cell]), self.den)
            for cell in map(tuple, np.argwhere(self.counts).tolist())}

    @property
    def is_zero(self) -> bool:
        return not self.counts.any()

    def mass(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.den)

    def support(self) -> np.ndarray:
        """Boolean mask of the cells with positive weight."""
        return self.counts > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DepthMeasure):
            return NotImplemented
        return (self.index == other.index and self.depth == other.depth
                and self.den == other.den and np.array_equal(self.counts, other.counts))

    __hash__ = None

    def scaled_mass(self, c: Fraction) -> "DepthMeasure":
        c = Fraction(c)
        if c < 0:
            raise ValueError("weights must be nonnegative")
        _check_int64(max(1, int(self.counts.sum())) * c.numerator)
        return self._of(self.index, self.depth, self.counts * c.numerator,
                        self.den * c.denominator)

    def permuted(self, perm: Tuple[int, ...]) -> "DepthMeasure":
        """Pushforward under the coordinate permutation (a position map)."""
        # a transpose of a normal measure is normal
        return self._normal(self.index, self.depth, self.counts.transpose(perm),
                            self.den)

    def is_good_invariant(self) -> bool:
        return all(self.permuted(perm) == self
                   for perm in good_permutations(self.index))

    def diagonal_mass(self, i: int, j: int) -> Fraction:
        """Mass of the set where slots i and j carry the same word."""
        return Fraction(int(np.trace(self.counts, axis1=i, axis2=j).sum()), self.den)

    def diagonal_masses(self) -> Dict[Tuple[Slot, Slot], Fraction]:
        slots = self.index.slots()
        return {(slots[i], slots[j]): self.diagonal_mass(i, j)
                for i, j in itertools.combinations(range(len(slots)), 2)}

    def coarsened(self) -> "DepthMeasure":
        """The induced measure one depth up (truncate each word's last bit)."""
        if self.depth < 1:
            raise ValueError("cannot coarsen depth 0")
        # A word's last bit is the low bit of its index: split it off per axis.
        split = self.counts.reshape((2 ** (self.depth - 1), 2) * self.counts.ndim)
        return self._of(self.index, self.depth - 1,
                        split.sum(axis=tuple(range(1, split.ndim, 2))), self.den)

    def relabel(self, m: int) -> "DepthMeasure":
        """Pushforward matching ``index.scaled(m)``: slot (k, i) -> (m*k, i)."""
        _check_int("scale factor", m)
        if m == 1:
            # measures are immutable, and relabeling by 1 moves no slot
            return self
        moved = [(m * k, i) for k, i in self.index.slots()]
        order = sorted(range(len(moved)), key=moved.__getitem__)
        return self._normal(self.index.scaled(m), self.depth,
                            self.counts.transpose(order), self.den)

    def tensor(self, other: "DepthMeasure") -> "DepthMeasure":
        """Sum over slot pairings of the pushed-forward product measure.

        A pairing distributes, per level k, the x-slots and y-slots of that
        level over the (x(k)+y(k)) target copies.  The product is laid out
        with the x-slots on the first copies of each level; the pairings are
        then its transposes by the good permutations of x + y.

        The sum over those prod c_k! permutations, c = x + y, is taken as a
        coset sum.  The good permutations of copies 0..j of one level are
        those of copies 0..j-1, each followed by exactly one of the swaps
        (i j), i <= j, the swap (j j) being the identity.  So adding the
        swapped transposes of a sum over the smaller group gives the sum over
        the larger one: one stage per copy j > 0, level by level, and the
        whole sum costs sum_k c_k(c_k-1)/2 transposed additions.  The counts
        are exact int64 and every partial sum is at most the total checked
        below, so the result does not depend on the order of the additions.
        """
        if other.depth != self.depth:
            raise ValueError("tensor product needs equal depths")
        target, pairings, order, blocks = _tensor_plan(self.index, other.index)
        ops = (pairings * max(1, np.count_nonzero(self.counts))
               * max(1, np.count_nonzero(other.counts)))
        if ops > DEFAULT_MAX_TENSOR_OPS:
            raise CapExceeded(f"tensor product size {ops} exceeds the cap "
                              f"{DEFAULT_MAX_TENSOR_OPS}")
        _grid_shape(target, self.depth)
        _check_int64(pairings * int(self.counts.sum()) * int(other.counts.sum()))
        out = np.multiply.outer(self.counts, other.counts).transpose(order)
        for start, stop in blocks:
            for j in range(start + 1, stop):
                summed = out + out.swapaxes(start, j)
                for i in range(start + 1, j):
                    summed += out.swapaxes(i, j)
                out = summed
        return self._of(target, self.depth, np.ascontiguousarray(out),
                        self.den * other.den)

    def __repr__(self) -> str:
        return (f"DepthMeasure(index={self.index}, depth={self.depth}, "
                f"cells={np.count_nonzero(self.counts)}, mass={self.mass()})")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _tensor_plan(x: IndexFunction, y: IndexFunction
                 ) -> Tuple[IndexFunction, int, Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """How ``tensor`` lays out and symmetrizes the product of measures on x
    and y: the target x + y, its number of good permutations, the axis order
    that puts the x-slots on the first copies of each level, and the axes
    [start, stop) of each level with more than one copy.  Nothing here
    grows faster than the slots, so ``tensor`` may build it before checking
    its caps."""
    target = x + y
    keys = list(x.slots()) + [(k, x.get(k) + i) for k, i in y.slots()]
    order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
    counts = [c for _, c in target.items]
    starts = list(itertools.accumulate(counts, initial=0))
    blocks = tuple((start, stop) for start, stop in zip(starts, starts[1:])
                   if stop - start > 1)
    return target, _permutation_count(target), order, blocks


def pairing_count(x: IndexFunction, y: IndexFunction) -> int:
    """prod (x(k)+y(k))!, the number of good permutations of x + y."""
    return _permutation_count(x + y)


def phase_at(x: IndexFunction, step: TorusStep, assignment: Assignment) -> Scalar:
    """The multiplier prod over slots (k, i) of step(word at that slot)^k."""
    slots = x.slots()
    if len(assignment) != len(slots):
        raise ValueError("assignment with the wrong number of slots")
    return step.character((w, k) for (k, _), w in zip(slots, assignment))


def spectral_form(x: IndexFunction, j: int = 1, depth: int = 1) -> DepthMeasure:
    """The maximal spectral type at multiplicity index j, truncated at depth.

    Full product measure over the slot grid when dom(x) is within {-1, 1}
    and j == 1; the zero measure otherwise.  The measure is built once per
    (x, j, depth) and shared between callers; the cell cap is checked on
    every call.
    """
    _grid_shape(x, depth)
    return _spectral_form(x, j, depth)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _spectral_form(x: IndexFunction, j: int, depth: int) -> DepthMeasure:
    if j == 1 and x.has_unit_domain():
        return DepthMeasure.uniform(x, depth)
    return DepthMeasure.zero(x, depth)


def _constraint_factor(x: IndexFunction, m: int, depth: int) -> DepthMeasure:
    """``spectral_form(x, 1, depth).relabel(m)``, built once per (x, m, depth)
    and shared; the cell cap is checked on every call."""
    _grid_shape(x, depth)
    return _relabeled_form(x, m, depth)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _relabeled_form(x: IndexFunction, m: int, depth: int) -> DepthMeasure:
    return spectral_form(x, 1, depth).relabel(m)


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of one convolution-constraint check.

    ``holds`` says that the left side's support lies in the right side's at
    every depth up to ``CONSTRAINT_DEPTH``; ``lhs_zero`` that the left side
    vanishes at the deepest.  The containment reading of absolute continuity
    is the only one falsifiable from cylinder weights; for the
    uniform-or-zero measures compared here the two coincide.
    """

    holds: bool
    lhs_zero: bool


def check_constraint(coefficients: Sequence[int],
                     indices: Sequence[IndexFunction]) -> ConstraintReport:
    """Compare the relabeled tensor product against the combined spectral form
    at every depth up to ``CONSTRAINT_DEPTH``."""
    if len(coefficients) != len(indices) or not indices:
        raise ValueError("need matching nonempty coefficient and index lists")
    for m in coefficients:
        _check_int("coefficient", m)
    if any(m == 0 for m in coefficients):
        raise ValueError("coefficients must be nonzero")
    holds = True
    for d in range(1, CONSTRAINT_DEPTH + 1):
        lhs = _constraint_factor(indices[0], coefficients[0], d)
        for m, x in zip(coefficients[1:], indices[1:]):
            lhs = lhs.tensor(_constraint_factor(x, m, d))
        # the left side lives on the sum of the relabeled indices
        rhs = spectral_form(lhs.index, 1, d)
        holds = holds and not lhs.counts[rhs.counts == 0].any()
    return ConstraintReport(holds, lhs.is_zero)
