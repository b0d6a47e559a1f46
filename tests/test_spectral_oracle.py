"""The array-backed depth measure against the dict-keyed oracle.

Both implementations are built from the same random nonnegative rational
weights, put through the same operations, and must agree on the weights,
the mass, the support, good-permutation invariance and the diagonal masses
of every result.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_measure as oracle
import tuple_words as tw
from treefock import spectral
from treefock.spectral import DepthMeasure, IndexFunction
from treefock.words import all_words

LEVELS = (-2, -1, 1, 2)

index_maps = st.dictionaries(st.integers(-6, 6).filter(bool), st.integers(1, 3),
                             min_size=1, max_size=4)
weight = st.one_of(st.just(0), st.fractions(min_value=0, max_value=4,
                                            max_denominator=8))


@st.composite
def index_functions(draw, max_slots):
    """One level per slot, 1..max_slots slots."""
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=max_slots))
    return IndexFunction.of(Counter(levels))


@st.composite
def measure_pairs(draw, index, depth):
    """The same random measure on both sides: (array form, oracle), the
    oracle keyed by tuple words."""
    words = all_words(depth)
    cells = list(np.ndindex((len(words),) * index.total()))
    values = draw(st.lists(weight, min_size=len(cells), max_size=len(cells)))
    weights = {tuple(words[i] for i in cell): v for cell, v in zip(cells, values)}
    return (DepthMeasure(index, depth, weights),
            oracle.DepthMeasure(index, depth, {tuple(map(tw.from_code, key)): v
                                               for key, v in weights.items()}))


def assert_agree(new, old):
    assert new.index == old.index and new.depth == old.depth
    assert dict(new.weights) == {tuple(map(tw.code, key)): v
                                 for key, v in old.weights.items()}
    assert new.mass() == old.mass()
    assert new.is_zero is old.is_zero
    words = all_words(new.depth)
    support = {tuple(tw.from_code(words[i]) for i in cell)
               for cell in np.argwhere(new.support()).tolist()}
    assert support == old.support()
    assert new.is_good_invariant() is old.is_good_invariant()
    assert new.diagonal_masses() == old.diagonal_masses()
    assert new.den > 0
    assert math.gcd(int(np.gcd.reduce(new.counts, axis=None)), new.den) == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_agrees_with_pairing_enumeration(data):
    depth = data.draw(st.integers(1, 2))
    x = data.draw(index_functions(3))
    y = data.draw(index_functions(4 - x.total()))
    mu, mu_old = data.draw(measure_pairs(x, depth))
    nu, nu_old = data.draw(measure_pairs(y, depth))
    assert_agree(mu, mu_old)
    assert_agree(nu, nu_old)
    assert_agree(mu.tensor(nu), mu_old.tensor(nu_old))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relabel_permute_coarsen_agree(data):
    depth = data.draw(st.integers(1, 2))
    x = data.draw(index_functions(3 if depth == 2 else 4))
    mu, mu_old = data.draw(measure_pairs(x, depth))
    m = data.draw(st.sampled_from((-3, -2, -1, 1, 2)))
    perm = tuple(data.draw(st.permutations(range(x.total()))))
    assert_agree(mu.relabel(m), mu_old.relabel(m))
    assert_agree(mu.permuted(perm), mu_old.permuted(perm))
    assert_agree(mu.coarsened(), mu_old.coarsened())
    assert (mu.permuted(perm) == mu) is (mu_old.permuted(perm) == mu_old)


@settings(max_examples=100, deadline=None)
@given(index_maps, index_maps, st.integers(-3, 3).filter(bool))
def test_index_arithmetic_agrees_with_the_constructor(a, b, m):
    # sums and relabelings skip validation: they must still give the
    # validated result
    x, y = IndexFunction.of(a), IndexFunction.of(b)
    assert x + y == IndexFunction.of(Counter(a) + Counter(b))
    assert x.scaled(m) == IndexFunction.of({m * k: c for k, c in a.items()})
    # the permutations are built once; the list a caller gets is its own
    perms = spectral.good_permutations(x)
    expected = list(perms)
    perms.clear()
    assert spectral.good_permutations(x) == expected
    assert len(expected) == math.prod(map(math.factorial, a.values()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uniform_and_spectral_forms_agree(data):
    depth = data.draw(st.integers(0, 2))
    x = data.draw(index_functions(3))
    j = data.draw(st.integers(1, 3))
    slots = x.total()
    cells = itertools.product(tw.all_words(depth), repeat=slots)
    uniform = oracle.DepthMeasure(x, depth, dict.fromkeys(
        cells, Fraction(1, 2 ** (depth * slots))))
    assert_agree(DepthMeasure.uniform(x, depth), uniform)
    unit = j == 1 and {k for k, _ in x.items} <= {-1, 1}
    expected = uniform if unit else oracle.DepthMeasure(x, depth, {})
    assert_agree(spectral.spectral_form(x, j, depth), expected)
