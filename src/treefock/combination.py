"""Sparse linear combinations: the arithmetic the three realizations share.

A Fock vector, a step function and a Gaussian polynomial are each a finite
linear combination of basis keys (admissible words, grid cells, monomials)
with nonzero scalar coefficients.  `Combination` holds the ``terms`` dict
and gives them one copy of the linear structure: sums, differences,
negation, scaling, literal equality, and the sparse loop behind their inner
products.  It also carries the torus action: a step multiplies each key by
its character, ``g.character(key.charges())``.

A subclass keeps its frame, what all of its keys share, in its own
``__slots__`` and returns it from ``_frame``: the level of a Fock vector,
the depth of a step sum, nothing for a polynomial.
Sums and inner products need one frame and raise ValueError otherwise.
Exact and float scalars do not mix: a float scalar times an exact
combination, a sum or an inner product of an exact and a float combination,
and a step of one backend acting on a combination of the other raise
TypeError.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Optional, TypeVar

from . import scalars
from .scalars import EXACT, Scalar
from .words import TorusStep

C = TypeVar("C", bound="Combination")


class Combination:
    """Basis key -> nonzero coefficient, all keys in one frame."""

    # ``_backend`` starts as None and fills on the first ``backend()`` call;
    # every constructor sets it, and terms never change after construction.
    __slots__ = ("terms", "_backend")

    def __init__(self, terms: Mapping[Hashable, Scalar]) -> None:
        self.terms = {k: c for k, c in terms.items() if c != 0}
        self._backend = None

    def _frame(self) -> tuple:
        """What every key shares; nothing unless a subclass says otherwise."""
        return ()

    def _like(self: C, terms: Mapping[Hashable, Scalar]) -> C:
        """A combination in this frame; the keys are trusted, not validated."""
        out = object.__new__(type(self))
        for name in type(self).__slots__:
            setattr(out, name, getattr(self, name))
        Combination.__init__(out, terms)
        return out

    def __getitem__(self, key: Hashable) -> Scalar:
        return self.terms.get(key, 0)

    def backend(self) -> str:
        if self._backend is None:
            self._backend = scalars.backend_of_values(self.terms.values())
        return self._backend

    def _check_backend(self, other: "Combination") -> None:
        if self.terms and other.terms and self.backend() != other.backend():
            raise TypeError(f"cannot combine {self.backend()} and "
                            f"{other.backend()} combinations")

    def __add__(self: C, other: C) -> C:
        if type(other) is not type(self):
            return NotImplemented
        if other._frame() != self._frame():
            raise ValueError(f"cannot add combinations in the frames "
                             f"{self._frame()} and {other._frame()}")
        self._check_backend(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __sub__(self: C, other: C) -> C:
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self: C, c: Scalar) -> C:
        if isinstance(c, (float, complex)) and self.terms and self.backend() == EXACT:
            raise TypeError("float scalar times an exact combination")
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self: C, c: Scalar) -> C:
        return self.scaled(c)

    def __neg__(self: C) -> C:
        return self.scaled(-1)

    def acted(self: C, g: TorusStep) -> C:
        """The step g acting on every key by its character."""
        if self.terms and g.backend != self.backend():
            raise TypeError(f"{g.backend} step cannot act on a "
                            f"{self.backend()} combination")
        return self._like({k: g.character(k.charges()) * c
                           for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._frame() == other._frame() and self.terms == other.terms

    __hash__ = None  # mutable-by-convention container

    def _pair(self, other: "Combination",
              weight: Optional[Callable[[Hashable], Scalar]] = None) -> Scalar:
        """Sum over shared keys k of self[k] * conj(other[k]) * weight(k).

        Loops over the smaller dict and looks each key up once in the
        larger one.
        """
        if other._frame() != self._frame():
            raise ValueError(f"inner product needs one frame, not "
                             f"{self._frame()} and {other._frame()}")
        self._check_backend(other)
        mine = self.terms
        small, big = (mine, other.terms) if len(mine) <= len(other.terms) else (other.terms, mine)
        acc: Scalar = 0
        for k, c in small.items():
            d = big.get(k)
            if d is None:
                continue
            cu, cv = (c, d) if small is mine else (d, c)
            term = cu * scalars.conj(cv)
            acc = acc + (term if weight is None else term * weight(k))
        return acc
