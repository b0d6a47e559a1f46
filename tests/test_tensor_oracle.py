"""The coset-sum tensor product against the permutation loop it replaced.

Both sides get the same random nonnegative counts over the same
denominator, most of them not good-invariant, on index functions over
levels +-1 and +-2 with at most five slots in all, at depths 1 and 2.  The
ops cap is sometimes lowered and the counts sometimes large, so that the
cap and int64 guards trip on some inputs.  Either both sides raise the same
error, or their counts and denominators are equal exactly.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import permutation_tensor as oracle
from treefock import spectral
from treefock.errors import CapExceeded
from treefock.spectral import DepthMeasure, IndexFunction

LEVELS = (-2, -1, 1, 2)


@st.composite
def index_functions(draw, max_slots):
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=max_slots))
    return IndexFunction.of(Counter(levels))


@st.composite
def measures(draw, index, depth):
    """Random counts up to a drawn size, about half the cells zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.sampled_from([0, 1, 7, 2 ** 20, 2 ** 40]))
    shape = (2 ** depth,) * index.total()
    counts = rng.integers(0, top + 1, shape, dtype=np.int64)
    counts[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    return DepthMeasure._of(index, depth, counts, draw(st.integers(1, 10 ** 6)))


def _outcome(tensor, mu, nu):
    try:
        return tensor(mu, nu)
    except CapExceeded as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coset_sum_equals_the_permutation_loop(data):
    depth = data.draw(st.integers(1, 2))
    x = data.draw(index_functions(4))
    y = data.draw(index_functions(5 - x.total()))
    mu = data.draw(measures(x, depth))
    nu = data.draw(measures(y, depth))
    cap = data.draw(st.sampled_from([spectral.DEFAULT_MAX_TENSOR_OPS, 4096, 300]))
    with mock.patch.object(spectral, "DEFAULT_MAX_TENSOR_OPS", cap):
        new = _outcome(DepthMeasure.tensor, mu, nu)
        old = _outcome(oracle.tensor, mu, nu)
    if isinstance(old, str):
        assert new == old
        return
    assert new.index == old.index and new.depth == old.depth
    assert new.den == old.den
    assert new.counts.dtype == np.int64 and new.counts.flags.c_contiguous
    assert np.array_equal(new.counts, old.counts)
