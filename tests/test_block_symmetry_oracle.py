"""Block symmetry by canonical form against the permutation-loop oracle.

Every realized basis function at levels 1 to 3 and degrees 1 to 4 must read
symmetric on both sides.  Three mutated controls of each function with more
than one arrangement must read asymmetric on both sides: one value doubled,
one cell dropped, and one cell added from a foreign arrangement (a canonical
form the function does not use, with more than one arrangement).  Random
functions over one or two block shapes, built symmetric per canonical form
and then perturbed cell by cell, must get the same verdict from both sides.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_permutations as oracle
from treefock import fock, steps
from treefock.steps import GridCell, StepSum
from treefock.words import all_words, enumerate_admissible


def realized(level):
    """(word, its realized basis vector) for degrees 1 to 4."""
    for degree in range(1, 5):
        for w in enumerate_admissible(level, degree):
            yield w, steps.from_fock(fock.basic(w))


def agree(f):
    got = f.is_block_symmetric()
    assert got == oracle.is_block_symmetric(f)
    return got


@pytest.mark.parametrize("level", [1, 2, 3])
def test_realized_basis_agrees_with_oracle(level):
    by_shape = {}  # block shape -> functions with more than one arrangement
    for w, f in realized(level):
        assert agree(f), w
        if len(w.variants()) > 1:
            by_shape.setdefault(w.degrees, []).append(f)
    controls = 0
    for fs in by_shape.values():
        # each function borrows its foreign cell from the next one of its shape
        for f, other in zip(fs, fs[1:] + fs[:1]):
            first = next(iter(f.terms))
            mutants = [{**f.terms, first: 2 * f.terms[first]},
                       {c: v for c, v in f.terms.items() if c != first}]
            if other is not f:
                mutants.append({**f.terms, next(iter(other.terms)): f.terms[first]})
            for terms in mutants:
                assert not agree(StepSum(level, terms)), f
            controls += len(mutants)
    assert controls > 0


def cells_of(shape, depth):
    p, q = shape
    words = all_words(depth)
    return [GridCell(depth, left, right)
            for left in itertools.product(words, repeat=p)
            for right in itertools.product(words, repeat=q)]


@st.composite
def step_functions(draw):
    shapes = draw(st.lists(st.sampled_from([(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (3, 0)]),
                           min_size=1, max_size=2, unique=True))
    depth = draw(st.integers(1, 2))
    cells = [c for shape in shapes for c in cells_of(shape, depth)]
    forms = {}
    for c in cells:
        forms.setdefault((tuple(sorted(c.left)), tuple(sorted(c.right))), []).append(c)
    # one value per canonical form, zero leaving the form out
    values = draw(st.lists(st.integers(0, 2), min_size=len(forms), max_size=len(forms)))
    terms = {c: v for group, v in zip(forms.values(), values) for c in group}
    overrides = draw(st.dictionaries(st.sampled_from(cells), st.integers(0, 2),
                                     max_size=2))
    terms.update(overrides)
    return StepSum(depth, terms)


@settings(max_examples=150, deadline=None)
@given(step_functions())
def test_random_functions_agree_with_oracle(f):
    agree(f)
