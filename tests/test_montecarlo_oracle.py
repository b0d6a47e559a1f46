"""The Monte Carlo estimator's sampled tree and block evaluator against the
per-sample oracles.

The variables ``_variable_columns`` reads off the leaf rows must match the
tree filled pairwise from the same leaves, on every word of depths 0..6.

Both evaluators read the same sample stream.  Random polynomials in at most
four variables of depth <= 3, with exponents 0..3, constant terms and
monomials shared between polynomials, are estimated by both over several
blocks plus a remainder, with and without a torus step; means and standard
errors must agree to rounding.  Reordering the polynomials must not change
any estimate by a single bit.

The estimator draws the next block on a producer thread while it evaluates
the current one.  Over depths 0..5, with and without a step, at sample
counts of one sample, one block, one block plus one and one short of three
blocks, every mean and standard error must equal the serial draw-then-
evaluate loop's bit for bit.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import naive_montecarlo as oracle
from treefock import montecarlo, scalars
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.words import TorusStep, all_words, make_word

WORDS = [make_word(s) for s in ("", "0", "1", "01", "10", "000", "011", "110")]
COEFFS = [k * scalars.eighth_root(r) for k in (1, -2, 3) for r in (0, 1, 2, 5)]
REL = 1e-12


@st.composite
def polynomial_lists(draw, words=WORDS):
    """1..4 polynomials in the given words whose monomials come from one
    shared pool."""
    variables = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4,
                              unique=True))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    pool = draw(st.lists(
        st.lists(exps, min_size=len(variables), max_size=len(variables)).map(
            lambda es: GaussMonomial.of(dict(zip(variables, es)))),
        min_size=1, max_size=6))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.dictionaries(st.sampled_from(pool), st.sampled_from(COEFFS),
                                     min_size=1, max_size=5))
        polys.append(GaussPoly(terms))
    return polys


def _scale(est):
    """About the root mean square size of the sampled values."""
    return abs(est.mean) + est.std_error * math.sqrt(est.samples)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_evaluator_agrees_with_per_monomial_oracle(data):
    polys = data.draw(polynomial_lists())
    deepest = max(p.max_word_length() for p in polys)
    depth = data.draw(st.integers(max(deepest, 1), 3))
    step = None
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 99)))
        step = TorusStep.random_eighth_roots(data.draw(st.integers(0, depth)), rng)
    block = montecarlo._BLOCK
    samples = data.draw(st.integers(1, 3)) * block + data.draw(st.integers(0, block - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))

    new = montecarlo.estimate_many(polys, samples, depth, seed=seed, step=step)
    old = oracle.estimate_many(polys, samples, depth, seed=seed, step=step)
    for a, b in zip(new, old):
        # rounding scales with the values averaged, not with their mean
        tol = REL * _scale(b)
        assert a.samples == b.samples == samples
        assert abs(a.mean - b.mean) <= tol
        assert abs(a.std_error - b.std_error) <= tol / math.sqrt(samples)

    order = data.draw(st.permutations(range(len(polys))))
    moved = montecarlo.estimate_many([polys[i] for i in order], samples, depth,
                                     seed=seed, step=step)
    for k, i in enumerate(order):
        assert moved[k].mean == new[i].mean
        assert moved[k].std_error == new[i].std_error


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_draw_ahead_is_bit_identical_to_the_serial_loop(data):
    depth = data.draw(st.integers(0, 5))
    words = [w for length in range(depth + 1) for w in all_words(length)]
    polys = data.draw(polynomial_lists(words))
    step = None
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 99)))
        step = TorusStep.random_eighth_roots(data.draw(st.integers(0, depth)), rng)
    block = montecarlo._BLOCK
    samples = data.draw(st.sampled_from([1, block, block + 1, 3 * block - 1]))
    seed = data.draw(st.integers(0, 2**32 - 1))

    new = montecarlo.estimate_many(polys, samples, depth, seed=seed, step=step)
    old = oracle.serial_estimate_many(polys, samples, depth, seed=seed, step=step)
    assert [(e.mean, e.std_error, e.samples) for e in new] == \
        [(e.mean, e.std_error, e.samples) for e in old]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_variable_columns_agree_with_the_pairwise_tree(depth, count, seed):
    leaves = montecarlo.sample_trees(depth, count, seed)
    words = [w for length in range(depth + 1) for w in all_words(length)]
    cols = montecarlo._variable_columns(leaves, depth, words)
    for i, row in enumerate(leaves):
        tree = oracle.tree_values(depth, row)
        assert set(tree) == set(words)
        for w in words:
            assert abs(cols[w][i] - tree[w]) <= 1e-12, (w, i)
