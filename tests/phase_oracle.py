"""Differential oracle for the torus action: four phase loops, one per key type.

Each function computes, with its own sign convention, the multiplier a torus
step gives one basis key, by reading the step's values directly rather than
through ``TorusStep.character``:

* ``word_phase``     -- a basic Fock vector: values for unmarked letters,
                        conjugate values for marked ones, each raised to
                        its multiplicity;
* ``cell_phase``     -- a grid cell: values on the left block, conjugate
                        values on the right block, one factor per
                        coordinate;
* ``monomial_phase`` -- a Gaussian monomial z^a conj(z)^b: the value to the
                        a - b, or its conjugate to the b - a;
* ``slot_phase``     -- a slot assignment of an index function: the value
                        to the slot level, conjugated for negative levels.
"""

from treefock import scalars
from treefock.gauss import GaussMonomial
from treefock.spectral import IndexFunction
from treefock.steps import GridCell
from treefock.words import AdmissibleWord, TorusStep
from tuple_words import from_code, word_index


def _value(g: TorusStep, w):
    t = from_code(w)  # the word's bits, read by the tuple format
    if len(t) < g.level:
        raise ValueError("word shorter than the step's length")
    return g.values[word_index(t[: g.level])]


def word_phase(g: TorusStep, word: AdmissibleWord):
    out = 1
    for s, m in word.symbol_multiplicities().items():
        val = scalars.conj(_value(g, s.word)) if s.barred else _value(g, s.word)
        out = out * val ** m
    return out


def cell_phase(g: TorusStep, cell: GridCell):
    out = 1
    for w in cell.left:
        out = out * _value(g, w)
    for w in cell.right:
        out = out * scalars.conj(_value(g, w))
    return out


def monomial_phase(g: TorusStep, mono: GaussMonomial):
    out = 1
    for w, a, b in mono.exps:
        val = _value(g, w)
        if a >= b:
            out = out * val ** (a - b)
        else:
            out = out * scalars.conj(val) ** (b - a)
    return out


def slot_phase(g: TorusStep, x: IndexFunction, assignment):
    out = 1
    for (k, _), w in zip(x.slots(), assignment):
        val = _value(g, w)
        if k >= 0:
            out = out * val ** k
        else:
            out = out * scalars.conj(val) ** (-k)
    return out
