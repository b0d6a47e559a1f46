"""The array-backed depth measure against the dict-keyed oracle.

Both implementations are built from the same random nonnegative rational
weights, put through the same operations, and must agree on the weights,
the mass, the support, good-permutation invariance and the diagonal masses
of every result.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_measure as oracle
import tuple_words as tw
from treefock.spectral import DepthMeasure, IndexFunction
from treefock.words import all_words

LEVELS = (-2, -1, 1, 2)

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
