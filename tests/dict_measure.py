"""The dict-keyed depth measure, kept as a differential oracle.

Before the dense arrays in ``treefock.spectral``, a ``DepthMeasure`` was a
dict from assignments (tuples of words, one per slot; the words are the
bit tuples of ``tuple_words``) to ``Fraction``
weights, and ``tensor`` enumerated its slot pairings itself with
``_pairings`` rather than through ``good_permutations``.  The class below
is that implementation, unchanged apart from the constructors and report
helpers the tests do not need.  Tests check the array form against it
operation by operation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from treefock.errors import CapExceeded
from treefock.spectral import (DEFAULT_MAX_PERMUTATIONS, DEFAULT_MAX_TENSOR_OPS,
                               Assignment, IndexFunction, Slot, good_permutations)
from treefock.words import MAX_WORD_LENGTH


class DepthMeasure:
    """Cylinder weights at one depth: assignment of words to slots -> mass."""

    __slots__ = ("index", "depth", "weights")

    def __init__(self, index: IndexFunction, depth: int,
                 weights: Mapping[Assignment, Fraction]) -> None:
        if depth < 0 or depth > MAX_WORD_LENGTH:
            raise ValueError("depth out of range")
        nslots = len(index.slots())
        cleaned: Dict[Assignment, Fraction] = {}
        for key, wt in weights.items():
            if len(key) != nslots:
                raise ValueError("assignment with the wrong number of slots")
            if any(len(w) != depth for w in key):
                raise ValueError("assignment word at the wrong depth")
            wt = Fraction(wt)
            if wt < 0:
                raise ValueError("weights must be nonnegative")
            if wt:
                cleaned[key] = wt
        self.index = index
        self.depth = depth
        self.weights = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.weights

    def mass(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def support(self) -> frozenset:
        return frozenset(self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DepthMeasure):
            return NotImplemented
        return (self.index == other.index and self.depth == other.depth
                and self.weights == other.weights)

    __hash__ = None

    def permuted(self, perm: Tuple[int, ...]) -> "DepthMeasure":
        """Pushforward under the coordinate permutation (a position map)."""
        return DepthMeasure(self.index, self.depth,
                            {tuple(key[j] for j in perm): wt
                             for key, wt in self.weights.items()})

    def is_good_invariant(self,
                          max_count: int = DEFAULT_MAX_PERMUTATIONS) -> bool:
        return all(self.permuted(perm) == self
                   for perm in good_permutations(self.index, max_count))

    def diagonal_mass(self, i: int, j: int) -> Fraction:
        """Mass of the set where slots i and j carry the same word."""
        return sum((wt for key, wt in self.weights.items() if key[i] == key[j]),
                   Fraction(0))

    def diagonal_masses(self) -> Dict[Tuple[Slot, Slot], Fraction]:
        slots = self.index.slots()
        out = {}
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                out[(slots[i], slots[j])] = self.diagonal_mass(i, j)
        return out

    def coarsened(self) -> "DepthMeasure":
        """The induced measure one depth up (truncate each word's last bit)."""
        if self.depth < 1:
            raise ValueError("cannot coarsen depth 0")
        out: Dict[Assignment, Fraction] = {}
        for key, wt in self.weights.items():
            short = tuple(w[:-1] for w in key)
            out[short] = out.get(short, Fraction(0)) + wt
        return DepthMeasure(self.index, self.depth - 1, out)

    def relabel(self, m: int) -> "DepthMeasure":
        """Pushforward matching ``index.scaled(m)``: slot (k, i) -> (m*k, i)."""
        new_index = self.index.scaled(m)
        old_slots = self.index.slots()
        new_order = {slot: pos for pos, slot in enumerate(new_index.slots())}
        perm = [0] * len(old_slots)
        for pos, (k, i) in enumerate(old_slots):
            perm[new_order[(m * k, i)]] = pos
        return DepthMeasure(new_index, self.depth,
                            {tuple(key[j] for j in perm): wt
                             for key, wt in self.weights.items()})

    def tensor(self, other: "DepthMeasure",
               max_ops: int = DEFAULT_MAX_TENSOR_OPS) -> "DepthMeasure":
        """Sum over slot pairings of the pushed-forward product measure.

        A pairing distributes, per level k, the x-slots and y-slots of that
        level over the (x(k)+y(k)) target copies; each pairing pushes the
        product measure forward along the induced coordinate bijection.
        """
        if other.depth != self.depth:
            raise ValueError("tensor product needs equal depths")
        target = self.index + other.index
        pairings = _pairings(self.index, other.index, target)
        ops = len(pairings) * max(1, len(self.weights)) * max(1, len(other.weights))
        if ops > max_ops:
            raise CapExceeded(f"tensor product size {ops} exceeds the cap {max_ops}")
        out: Dict[Assignment, Fraction] = {}
        for mine, theirs in pairings:
            for ka, wa in self.weights.items():
                for kb, wb in other.weights.items():
                    key = [None] * (len(ka) + len(kb))
                    for pos, w in zip(mine, ka):
                        key[pos] = w
                    for pos, w in zip(theirs, kb):
                        key[pos] = w
                    tkey = tuple(key)
                    out[tkey] = out.get(tkey, Fraction(0)) + wa * wb
        return DepthMeasure(target, self.depth, out)

def _pairings(x: IndexFunction, y: IndexFunction,
              target: IndexFunction) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All ways to interleave the slots of x and y into the slots of x + y.

    Each pairing is returned as two position tuples into ``target.slots()``,
    aligned with ``x.slots()`` and ``y.slots()``.  Count: prod (x(k)+y(k))!.
    """
    target_pos = {slot: pos for pos, slot in enumerate(target.slots())}
    per_level = []
    for k, total in target.items:
        a = x.get(k)
        level_positions = [target_pos[(k, i)] for i in range(total)]
        options = []
        for perm in itertools.permutations(level_positions):
            options.append((perm[:a], perm[a:]))
        per_level.append(options)
    out = []
    for combo in itertools.product(*per_level):
        mine: Tuple[int, ...] = ()
        theirs: Tuple[int, ...] = ()
        for xs, ys in combo:
            mine = mine + xs
            theirs = theirs + ys
        out.append((mine, theirs))
    return out
