"""Symmetrized step functions on finite grids of Cantor-space cells.

A basic word maps to a multiple of the indicator of its support: the union,
over all distinct arrangements of its letters, of the product cell whose
first block lists the unmarked words and whose second block lists the marked
ones.  The image of a vector therefore lives in an l2-sum of blocks indexed
by the pair (p, q) = (unmarked count, marked count).

The normalizing constant sqrt(2^(n*l) / (p! q!)) splits into sqrt2^(n*l),
which lies in Q(sqrt2), and 1/sqrt(p! q!), which is fixed by the block
shape.  A StepFunction stores its cell values with the first factor already
multiplied in, and stands for those values divided by sqrt(p! q!).  Sums,
refinement, the torus action and equality therefore work on the stored
values directly; only ``inner`` applies the shape constant, as 1/(p! q!).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from . import scalars
from .combination import Combination
from .errors import CapExceeded
from .fock import FockVector
from .scalars import Scalar
from .words import MAX_WORD_LENGTH, AdmissibleWord, TorusStep, Word


@dataclass(frozen=True)
class GridCell:
    """One product cell: ordered depth-``depth`` coordinates in two blocks."""

    depth: int
    left: Tuple[Word, ...]
    right: Tuple[Word, ...]

    def __post_init__(self) -> None:
        for w in self.left + self.right:
            if len(w) != self.depth:
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
        p, q = self.degrees
        for bits in itertools.product((0, 1), repeat=p + q):
            yield GridCell._trusted(
                self.depth + 1,
                tuple(w + (b,) for w, b in zip(self.left, bits[:p])),
                tuple(w + (b,) for w, b in zip(self.right, bits[p:])))


class StepFunction(Combination):
    """A finite combination of same-shape cell indicators, divided by
    sqrt(p! q!) for the block shape (p, q)."""

    __slots__ = ("degrees", "depth")

    def __init__(self, degrees: Tuple[int, int], depth: int,
                 terms: Mapping[GridCell, Scalar]) -> None:
        cleaned: Dict[GridCell, Scalar] = {}
        for cell, val in terms.items():
            if cell.depth != depth:
                raise ValueError("cell at the wrong depth")
            if cell.degrees != degrees:
                raise ValueError("cell with the wrong block shape")
            if val == 0:
                continue
            cleaned[cell] = val
        self.degrees = degrees
        self.depth = depth
        self.terms = cleaned
        self._backend = None

    def _frame(self) -> tuple:
        return (self.degrees, self.depth)

    # Only benchmarks/tracing.py reads this name, to count cells; drop it
    # once the tracer reads ``terms``.
    @property
    def values(self) -> Dict[GridCell, Scalar]:
        return self.terms

    def inner(self, other: "StepFunction") -> Scalar:
        """Integral of self * conj(other) over the product grid."""
        p, q = self.degrees
        # cell mass times the shape constant 1/sqrt(p! q!) squared
        return Fraction(1, 2 ** (self.depth * (p + q))
                        * math.factorial(p) * math.factorial(q)) * self._pair(other)

    def norm2(self) -> Scalar:
        return self.inner(self)

    def refine(self) -> "StepFunction":
        """The same function written on the grid one level deeper."""
        out: Dict[GridCell, Scalar] = {}
        for cell, v in self.terms.items():
            for child in cell.children():
                out[child] = v
        return StepFunction(self.degrees, self.depth + 1, {})._like(out)

    def act(self, g: TorusStep) -> "StepFunction":
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
        return (f"StepFunction(degrees={self.degrees}, depth={self.depth}, "
                f"cells={len(self.terms)})")


def _arrangements(block: Tuple[Word, ...]) -> int:
    """n! / prod m!, the number of distinct orderings of a block."""
    return math.factorial(len(block)) // math.prod(
        map(math.factorial, map(block.count, set(block))))


class StepSum:
    """An l2-sum element: one StepFunction per block shape (p, q)."""

    __slots__ = ("components",)

    def __init__(self, components: Mapping[Tuple[int, int], StepFunction]) -> None:
        cleaned: Dict[Tuple[int, int], StepFunction] = {}
        for key, f in components.items():
            if f.degrees != key:
                raise ValueError("component stored under the wrong block shape")
            if not f.is_zero:
                cleaned[key] = f
        self.components = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.components

    @property
    def terms(self) -> Dict[GridCell, Scalar]:
        """Every stored cell value, keyed by cell; a cell fixes its shape."""
        return {cell: v for f in self.components.values()
                for cell, v in f.terms.items()}

    @staticmethod
    def _align(a: StepFunction, b: StepFunction) -> Tuple[StepFunction, StepFunction]:
        while a.depth < b.depth:
            a = a.refine()
        while b.depth < a.depth:
            b = b.refine()
        return a, b

    def __add__(self, other: "StepSum") -> "StepSum":
        if not isinstance(other, StepSum):
            return NotImplemented
        out = dict(self.components)
        for key, f in other.components.items():
            if key in out:
                a, b = self._align(out[key], f)
                out[key] = a + b
            else:
                out[key] = f
        return StepSum(out)

    def __sub__(self, other: "StepSum") -> "StepSum":
        return self + other.scaled(-1)

    def scaled(self, c: Scalar) -> "StepSum":
        return StepSum({k: f.scaled(c) for k, f in self.components.items()})

    def __rmul__(self, c: Scalar) -> "StepSum":
        return self.scaled(c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepSum):
            return NotImplemented
        if set(self.components) != set(other.components):
            return False
        for key, f in self.components.items():
            a, b = self._align(f, other.components[key])
            if a != b:
                return False
        return True

    __hash__ = None

    def inner(self, other: "StepSum") -> Scalar:
        acc: Scalar = 0
        for key, f in self.components.items():
            g = other.components.get(key)
            if g is None:
                continue
            a, b = self._align(f, g)
            acc = acc + a.inner(b)
        return acc

    def norm2(self) -> Scalar:
        return self.inner(self)

    def refine(self) -> "StepSum":
        return StepSum({k: f.refine() for k, f in self.components.items()})

    def act(self, g: TorusStep) -> "StepSum":
        return StepSum({k: f.act(g) for k, f in self.components.items()})

    def __repr__(self) -> str:
        return f"StepSum({sorted(self.components)})"


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
    buckets: Dict[Tuple[int, int], Dict[GridCell, Scalar]] = {}
    for word, coeff in v.terms.items():
        val = coeff * word.gram_diagonal() * scalars.sqrt2_pow(n * word.degree, backend)
        bucket = buckets.setdefault(word.degrees, {})
        for cell in support_cells(word):
            bucket[cell] = bucket.get(cell, 0) + val
    return StepSum({key: StepFunction(key, n, {})._like(values)
                    for key, values in buckets.items()})
