"""Symmetrized step functions on finite grids of Cantor-space cells.

A basic word maps to a multiple of the indicator of its support: the union,
over all distinct arrangements of its letters, of the product cell whose
first block lists the unmarked words and whose second block lists the marked
ones.  The image of a vector therefore lives in an l2-sum of blocks indexed
by the pair (p, q) = (unmarked count, marked count).

A StepSum holds that image as one combination of grid cells, all at one
depth; each cell fixes its block shape, and ``components`` splits the sum
into its blocks.  The normalizing constant sqrt(2^(n*l) / (p! q!)) splits
into sqrt2^(n*l), which lies in Q(sqrt2), and 1/sqrt(p! q!), which is fixed
by the cell's shape.  A cell's stored value has the first factor already
multiplied in, and stands for that value divided by sqrt(p! q!).  Sums,
refinement, the torus action and equality therefore work on the stored
values directly; only ``inner`` applies the shape constant, as 1/(p! q!)
per cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from . import scalars
from .combination import Combination
from .errors import CapExceeded
from .fock import FockVector
from .scalars import EXACT, Scalar
from .words import (MAX_WORD_LENGTH, AdmissibleWord, TorusStep, Word, check_word,
                    child, word_length)


@dataclass(frozen=True)
class GridCell:
    """One product cell: ordered depth-``depth`` words in two blocks."""

    depth: int
    left: Tuple[Word, ...]
    right: Tuple[Word, ...]

    def __post_init__(self) -> None:
        for w in self.left + self.right:
            if word_length(check_word(w)) != self.depth:
                raise ValueError("cell coordinate at the wrong depth")

    @classmethod
    def _trusted(cls, depth: int, left: Tuple[Word, ...],
                 right: Tuple[Word, ...]) -> "GridCell":
        """The cell of coordinates already known to sit at ``depth``, unchecked."""
        out = object.__new__(cls)
        put = object.__setattr__
        put(out, "depth", depth)
        put(out, "left", left)
        put(out, "right", right)
        return out

    @property
    def degrees(self) -> Tuple[int, int]:
        return (len(self.left), len(self.right))

    def charges(self) -> List[Tuple[Word, int]]:
        """(w, 1) per left coordinate and (w, -1) per right coordinate."""
        return [(w, 1) for w in self.left] + [(w, -1) for w in self.right]

    @property
    def mass(self) -> Fraction:
        return Fraction(1, 2 ** (self.depth * (len(self.left) + len(self.right))))

    def children(self):
        """The 2^(p+q) cells of depth+1 refining this one."""
        if self.depth + 1 > MAX_WORD_LENGTH:
            raise CapExceeded(f"cell depth above {MAX_WORD_LENGTH}")
        p = len(self.left)
        kids = [(child(w, 0), child(w, 1)) for w in self.left + self.right]
        for coords in itertools.product(*kids):
            yield GridCell._trusted(self.depth + 1, coords[:p], coords[p:])


class StepSum(Combination):
    """Grid cell -> stored value, every cell at one depth.

    Cells of any block shape share one sum; a cell of shape (p, q) stands
    for its value divided by sqrt(p! q!).
    """

    __slots__ = ("depth",)

    def __init__(self, depth: int, terms: Mapping[GridCell, Scalar]) -> None:
        if any(cell.depth != depth for cell in terms):
            raise ValueError("cell at the wrong depth")
        self.depth = depth
        Combination.__init__(self, terms)

    def _frame(self) -> tuple:
        return (self.depth,)

    @property
    def components(self) -> Dict[Tuple[int, int], "StepSum"]:
        """The block decomposition: shape (p, q) -> the sum of its cells."""
        parts: Dict[Tuple[int, int], Dict[GridCell, Scalar]] = {}
        for cell, v in self.terms.items():
            parts.setdefault(cell.degrees, {})[cell] = v
        return {shape: self._like(cells) for shape, cells in parts.items()}

    # benchmarks/tracing.py counts cells through ``components`` and this
    # alias; drop it once the tracer reads ``terms``.
    @property
    def values(self) -> Dict[GridCell, Scalar]:
        return self.terms

    def inner(self, other: "StepSum") -> Scalar:
        """Integral of self * conj(other) over the product grids."""
        depth, backend = self.depth, self.backend()
        return self._pair(other, lambda cell: _weight(depth, *cell.degrees, backend))

    def norm2(self) -> Scalar:
        return self.inner(self)

    def refine(self) -> "StepSum":
        """The same function written on the grid one level deeper."""
        out: Dict[GridCell, Scalar] = {}
        for cell, v in self.terms.items():
            for child in cell.children():
                out[child] = v
        return StepSum(self.depth + 1, {})._like(out)

    def act(self, g: TorusStep) -> "StepSum":
        """Multiply each cell by the step's character: values on the left
        block, inverse values on the right block."""
        if g.level > self.depth:
            raise ValueError("step is finer than the function's grid")
        return self.acted(g)

    def is_block_symmetric(self) -> bool:
        """Invariance of the values under permuting each block separately.

        Block permutations move a cell only within its canonical form, both
        blocks sorted, and reach every arrangement of that form.  So the
        function is invariant exactly when, grouping its cells by canonical
        form, each group holds one value and all (p!/prod m!)(q!/prod m!)
        distinct arrangements of its form, m running over the multiplicities
        of the words in each block.
        """
        groups: Dict[Tuple[Tuple[Word, ...], Tuple[Word, ...]], List[Scalar]] = {}
        for cell, v in self.terms.items():
            groups.setdefault((tuple(sorted(cell.left)), tuple(sorted(cell.right))),
                              []).append(v)
        return all(len(vals) == _arrangements(left) * _arrangements(right)
                   and all(v == vals[0] for v in vals)
                   for (left, right), vals in groups.items())

    def __repr__(self) -> str:
        return f"StepSum(depth={self.depth}, cells={len(self.terms)})"


@lru_cache(maxsize=None)
def _weight(depth: int, p: int, q: int, backend: str) -> Scalar:
    """Cell mass times the shape constant 1/sqrt(p! q!) squared: a Fraction,
    or its float on the float backend, where a complex times a Fraction
    would convert the Fraction on every product."""
    weight = Fraction(1, 2 ** (depth * (p + q)) * math.factorial(p) * math.factorial(q))
    return weight if backend == EXACT else float(weight)


def _arrangements(block: Tuple[Word, ...]) -> int:
    """n! / prod m!, the number of distinct orderings of a block."""
    return math.factorial(len(block)) // math.prod(
        map(math.factorial, map(block.count, set(block))))


def support_cells(word: AdmissibleWord) -> List[GridCell]:
    """The distinct cells covering the word's support, one per arrangement."""
    return [GridCell._trusted(word.level, left, right)
            for left, right in word.variants()]


def support_measure(word: AdmissibleWord) -> Fraction:
    """Product measure of the support, computed from the actual cell count."""
    cells = support_cells(word)
    return len(cells) * cells[0].mass


def from_fock(v: FockVector) -> StepSum:
    """Realize a Fock vector as a sum of symmetrized step functions.

    A basic word of level n, degree l and block shape (p, q) maps to
    sqrt(2^(n*l)/(p! q!)) times prod(m_s!) on each of its support cells.
    The stored value is coeff * prod(m_s!) * sqrt2^(n*l); the shape
    constant 1/sqrt(p! q!) stays implicit, so the extension is linear with
    coefficients in the vector's own scalar field.
    """
    backend = v.backend()
    n = v.level
    cells: Dict[GridCell, Scalar] = {}
    for word, coeff in v.terms.items():
        val = coeff * word.gram_diagonal() * scalars.sqrt2_pow(n * word.degree, backend)
        for cell in support_cells(word):
            cells[cell] = cells.get(cell, 0) + val
    return StepSum(n, {})._like(cells)
