"""Index functions, depth-truncated measures on slot grids, and the
convolution constraint.

An index function x assigns a positive count to finitely many nonzero
integer levels.  Its slot set D(x) has one slot (k, i) per level k and copy
i < x(k); a point of the associated grid assigns a binary word to every
slot.  At a finite depth d the relevant measures are determined by their
cylinder weights, so a DepthMeasure stores one nonnegative rational weight
per assignment of depth-d words to slots.

The spectral form of the multiplication representation attached to x is the
full product measure when dom(x) is contained in {-1, 1} (at j = 1) and the
zero measure otherwise.  The semigroup operations are

* ``x + y``        -- pointwise sum of index functions,
* ``x.scaled(m)``  -- relabel level k as m*k,
* ``mu.relabel(m)``-- the matching pushforward of a measure,
* ``mu.tensor(nu)``-- sum over all slot pairings of the product pushforward;
                      the number of pairings is prod (x(k)+y(k))! over k.

``check_constraint`` builds both sides of the constraint

    relabel(m_1, mu_1) (x) ... (x) relabel(m_n, mu_n)  <<  spectral form of
    m_1*x_1 + ... + m_n*x_n

and tests absolute continuity as support containment of cylinder weights at
every depth up to the requested one.  For the uniform-or-zero measures that
arise here, support containment at each finite depth is exactly what is
falsifiable; the reading is recorded in the report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import scalars
from .errors import CapExceeded
from .scalars import Scalar
from .words import MAX_WORD_LENGTH, TorusStep, Word, all_words

Slot = Tuple[int, int]
Assignment = Tuple[Word, ...]

# Bound on pairings * cell pairs a tensor product may touch.
DEFAULT_MAX_TENSOR_OPS = 2_000_000
DEFAULT_MAX_PERMUTATIONS = 100_000


@dataclass(frozen=True)
class IndexFunction:
    """A finitely supported map from nonzero integers to positive counts."""

    items: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
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

    def dom(self) -> Tuple[int, ...]:
        return tuple(k for k, _ in self.items)

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
        return set(self.dom()) <= {-1, 1}

    def __add__(self, other: "IndexFunction") -> "IndexFunction":
        if not isinstance(other, IndexFunction):
            return NotImplemented
        merged: Dict[int, int] = dict(self.items)
        for k, c in other.items:
            merged[k] = merged.get(k, 0) + c
        return IndexFunction.of(merged)

    def scaled(self, m: int) -> "IndexFunction":
        """Relabel level k as m*k."""
        if m == 0:
            raise ValueError("scale factor must be nonzero")
        return IndexFunction.of({m * k: c for k, c in self.items})

    def __rmul__(self, m: int) -> "IndexFunction":
        if not isinstance(m, int):
            return NotImplemented
        return self.scaled(m)

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


def good_permutations(x: IndexFunction,
                      max_count: int = DEFAULT_MAX_PERMUTATIONS) -> List[Tuple[int, ...]]:
    """Permutations of D(x) fixing the level coordinate.

    Returned as position maps over ``x.slots()``: entry j holds the source
    position of the slot that lands in position j.  There are prod x(k)! of
    them.
    """
    count = 1
    for _, c in x.items:
        count *= math.factorial(c)
    if count > max_count:
        raise CapExceeded(f"{count} good permutations exceed the cap {max_count}")
    blocks = []
    offset = 0
    for _, c in x.items:
        blocks.append([tuple(offset + i for i in perm)
                       for perm in itertools.permutations(range(c))])
        offset += c
    out = []
    for combo in itertools.product(*blocks):
        flat: Tuple[int, ...] = ()
        for part in combo:
            flat = flat + part
        out.append(flat)
    return out


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

    @classmethod
    def uniform(cls, index: IndexFunction, depth: int,
                max_cells: int = DEFAULT_MAX_TENSOR_OPS) -> "DepthMeasure":
        """The full product measure at the given depth, total mass one."""
        slots = index.slots()
        cells = (2 ** depth) ** len(slots)
        if cells > max_cells:
            raise CapExceeded(f"{cells} cells exceed the cap {max_cells}")
        wt = Fraction(1, cells)
        words = all_words(depth)
        return cls(index, depth,
                   {key: wt for key in itertools.product(words, repeat=len(slots))})

    @classmethod
    def zero(cls, index: IndexFunction, depth: int) -> "DepthMeasure":
        return cls(index, depth, {})

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

    def scaled_mass(self, c: Fraction) -> "DepthMeasure":
        c = Fraction(c)
        return DepthMeasure(self.index, self.depth,
                            {k: c * w for k, w in self.weights.items()})

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

    def to_json_dict(self) -> dict:
        return {
            "index": {str(k): c for k, c in self.index.items},
            "depth": self.depth,
            "mass": str(self.mass()),
            "cells": len(self.weights),
        }

    def __repr__(self) -> str:
        return (f"DepthMeasure(index={self.index}, depth={self.depth}, "
                f"cells={len(self.weights)}, mass={self.mass()})")


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


def pairing_count(x: IndexFunction, y: IndexFunction) -> int:
    out = 1
    for k in sorted(set(x.dom()) | set(y.dom())):
        out *= math.factorial(x.get(k) + y.get(k))
    return out


def phase_at(x: IndexFunction, step: TorusStep, assignment: Assignment) -> Scalar:
    """The multiplier prod over slots (k, i) of step(word at that slot)^k."""
    slots = x.slots()
    if len(assignment) != len(slots):
        raise ValueError("assignment with the wrong number of slots")
    out: Scalar = 1
    for (k, _), w in zip(slots, assignment):
        val = step.value_at(w)
        if k >= 0:
            out = out * val ** k
        else:
            out = out * scalars.conj(val) ** (-k)
    return out


def spectral_form(x: IndexFunction, j: int = 1, depth: int = 1,
                  max_cells: int = DEFAULT_MAX_TENSOR_OPS) -> DepthMeasure:
    """The maximal spectral type at multiplicity index j, truncated at depth.

    Full product measure over the slot grid when dom(x) is within {-1, 1}
    and j == 1; the zero measure otherwise.
    """
    if j == 1 and x.has_unit_domain():
        return DepthMeasure.uniform(x, depth, max_cells)
    return DepthMeasure.zero(x, depth)


@dataclass
class ConstraintReport:
    """Outcome of one convolution-constraint check.

    ``holds_per_depth`` records support containment of the left side in the
    right side at each depth 1..depth; ``holds`` is their conjunction.  The
    containment reading of absolute continuity is the only one falsifiable
    from cylinder weights; for the uniform-or-zero measures compared here the
    two coincide.
    """

    coefficients: Tuple[int, ...]
    indices: Tuple[IndexFunction, ...]
    depth: int
    lhs_zero: bool
    rhs_zero: bool
    lhs_mass: Fraction
    holds_per_depth: List[bool] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return all(self.holds_per_depth)


def check_constraint(coefficients: Sequence[int],
                     indices: Sequence[IndexFunction],
                     depth: int = 2,
                     max_ops: int = DEFAULT_MAX_TENSOR_OPS) -> ConstraintReport:
    """Compare the relabeled tensor product against the combined spectral form."""
    if len(coefficients) != len(indices) or not indices:
        raise ValueError("need matching nonempty coefficient and index lists")
    if any(m == 0 for m in coefficients):
        raise ValueError("coefficients must be nonzero")
    combined = indices[0].scaled(coefficients[0])
    for m, x in zip(coefficients[1:], indices[1:]):
        combined = combined + x.scaled(m)
    report = ConstraintReport(tuple(coefficients), tuple(indices), depth,
                              lhs_zero=True, rhs_zero=True, lhs_mass=Fraction(0))
    for d in range(1, depth + 1):
        lhs = spectral_form(indices[0], 1, d, max_ops).relabel(coefficients[0])
        for m, x in zip(coefficients[1:], indices[1:]):
            factor = spectral_form(x, 1, d, max_ops).relabel(m)
            lhs = lhs.tensor(factor, max_ops)
        rhs = spectral_form(combined, 1, d, max_ops)
        report.holds_per_depth.append(lhs.support() <= rhs.support())
        if d == depth:
            report.lhs_zero = lhs.is_zero
            report.rhs_zero = rhs.is_zero
            report.lhs_mass = lhs.mass()
    return report


@dataclass
class CompatibilityReport:
    """Finite-depth evidence for the three compatibility conditions.

    Invariance under good permutations and coherence across depths are exact
    checks; diagonal masses are reported per slot pair and tested to be
    nonincreasing in depth (their limit vanishing is condition three); the
    absolute continuity of depth marginals is not falsifiable from finitely
    many cylinder weights, which the note records.
    """

    index: IndexFunction
    depths: Tuple[int, ...]
    coherent: bool
    good_invariant: bool
    diagonal_masses: Dict[Tuple[Slot, Slot], List[Fraction]]
    diagonals_nonincreasing: bool
    marginals_note: str = ("depth marginals are finitely supported with the "
                           "prescribed cylinder weights; absolute continuity "
                           "with respect to the base measure is not "
                           "falsifiable at finite depth")

    @property
    def passed(self) -> bool:
        return self.coherent and self.good_invariant and self.diagonals_nonincreasing


def compatibility_report(family: Sequence[DepthMeasure],
                         max_count: int = DEFAULT_MAX_PERMUTATIONS) -> CompatibilityReport:
    if not family:
        raise ValueError("need at least one depth")
    index = family[0].index
    depths = tuple(mu.depth for mu in family)
    if any(mu.index != index for mu in family):
        raise ValueError("family with mixed index functions")
    if list(depths) != sorted(depths) or len(set(depths)) != len(depths):
        raise ValueError("family must be listed at strictly increasing depths")
    coherent = all(deeper.coarsened() == shallower
                   for shallower, deeper in zip(family, family[1:])
                   if deeper.depth == shallower.depth + 1)
    good = all(mu.is_good_invariant(max_count) for mu in family)
    diag: Dict[Tuple[Slot, Slot], List[Fraction]] = {}
    for mu in family:
        for pair, mass in mu.diagonal_masses().items():
            diag.setdefault(pair, []).append(mass)
    noninc = all(all(a >= b for a, b in zip(seq, seq[1:])) for seq in diag.values())
    return CompatibilityReport(index, depths, coherent, good, diag, noninc)
