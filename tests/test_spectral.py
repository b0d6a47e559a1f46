"""Index functions, depth measures, tensor calculus, constraint checks."""

import itertools
import math
from fractions import Fraction

import pytest

from treefock import spectral
from treefock.errors import CapExceeded
from treefock.spectral import DepthMeasure, IndexFunction, index_pq
from treefock.words import TorusStep, make_word


def test_index_function_basics():
    x = IndexFunction.of({1: 2, -1: 1})
    assert x.items == ((-1, 1), (1, 2))
    assert x.get(1) == 2 and x.get(5) == 0
    assert x.total() == 3
    assert x.slots() == ((-1, 0), (1, 0), (1, 1))
    assert x.has_unit_domain()
    assert not IndexFunction.of({2: 1}).has_unit_domain()
    assert index_pq(2, 1) == x
    with pytest.raises(ValueError):
        IndexFunction.of({0: 1})
    with pytest.raises(ValueError):
        IndexFunction.of({})
    # levels, counts and scale factors are ints, and a bool is not one
    for bad in ({1: 2.5}, {1.0: 1}, {0.5: 1}, {1: True}, {1: 0.0}):
        with pytest.raises(TypeError):
            IndexFunction.of(bad)
    for m in (2.0, 1.5, True):
        with pytest.raises(TypeError):
            x.scaled(m)


def test_index_arithmetic():
    x = index_pq(1, 0)
    y = index_pq(0, 1)
    assert x + y == index_pq(1, 1)
    assert x.scaled(-1) == y
    assert x.scaled(2) == IndexFunction.of({2: 1})
    assert (x + x).scaled(3) == IndexFunction.of({3: 2})
    with pytest.raises(ValueError):
        x.scaled(0)


def test_good_permutations_counts():
    assert len(spectral.good_permutations(index_pq(1, 0))) == 1
    assert len(spectral.good_permutations(index_pq(2, 0))) == 2
    assert len(spectral.good_permutations(index_pq(2, 2))) == 4
    assert len(spectral.good_permutations(IndexFunction.of({1: 3}))) == 6
    with pytest.raises(CapExceeded):
        spectral.good_permutations(IndexFunction.of({1: 9}), max_count=10)


def test_uniform_measure_and_coarsening():
    x = index_pq(2, 0)
    mu2 = DepthMeasure.uniform(x, 2)
    assert mu2.mass() == 1
    assert len(mu2.weights) == 16
    assert all(w == Fraction(1, 16) for w in mu2.weights.values())
    assert mu2.coarsened() == DepthMeasure.uniform(x, 1)
    assert mu2.is_good_invariant()


def test_diagonal_masses_shrink():
    x = index_pq(2, 0)
    masses = [DepthMeasure.uniform(x, d).diagonal_mass(0, 1) for d in (1, 2, 3)]
    assert masses == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_tensor_pairing_example():
    x = index_pq(1, 0)
    mu = DepthMeasure.uniform(x, 1)
    prod = mu.tensor(mu)
    assert spectral.pairing_count(x, x) == 2
    assert prod == DepthMeasure.uniform(index_pq(2, 0), 1).scaled_mass(Fraction(2))
    assert prod.mass() == 2


def test_tensor_mass_multiplicative():
    x, y = index_pq(1, 1), index_pq(2, 0)
    mu = DepthMeasure.uniform(x, 1).scaled_mass(Fraction(3, 4))
    nu = DepthMeasure.uniform(y, 1).scaled_mass(Fraction(1, 2))
    count = spectral.pairing_count(x, y)
    assert count == math.factorial(3)  # (1+2)! at level 1, 1! at level -1
    assert mu.tensor(nu).mass() == count * mu.mass() * nu.mass()


def test_relabel():
    x = index_pq(2, 1)
    mu = DepthMeasure.uniform(x, 2)
    assert mu.relabel(1) == mu
    flipped = mu.relabel(-1)
    # relabeling by 1 is the measure itself, as flipping twice is
    assert mu.relabel(1) is mu
    assert mu.relabel(1) == flipped.relabel(-1)
    for m in (1.0, True):
        with pytest.raises(TypeError):
            mu.relabel(m)
    assert flipped.index == index_pq(1, 2)
    assert flipped.mass() == 1
    doubled = mu.relabel(2)
    assert doubled.index == IndexFunction.of({2: 2, -2: 1})
    assert doubled.relabel(-1) == mu.relabel(-2)


def test_phase_reduces_to_word_phase():
    g = TorusStep.from_eighth_root_indices([1, 5])
    x = index_pq(2, 1)
    a = (make_word("1"), make_word("0"), make_word("0"))  # slots: (-1,0),(1,0),(1,1)
    val = spectral.phase_at(x, g, a)
    from treefock.scalars import EIGHTH_ROOTS
    assert val == EIGHTH_ROOTS[1] * EIGHTH_ROOTS[1] * EIGHTH_ROOTS[3]  # w0^2 conj(w1)


def test_spectral_form_table():
    assert not spectral.spectral_form(index_pq(2, 1), 1, 2).is_zero
    assert spectral.spectral_form(index_pq(2, 1), 2, 2).is_zero
    assert spectral.spectral_form(IndexFunction.of({2: 1}), 1, 2).is_zero
    assert spectral.spectral_form(index_pq(1, 1), 1, 3).mass() == 1


def test_constraint_scaling_breaks_domination():
    x = index_pq(1, 0)
    for m in (-3, -2, -1, 1, 2, 3):
        report = spectral.check_constraint([m], [x])
        assert report.holds is (abs(m) == 1)
    assert spectral.check_constraint([1, -1], [x, x]).holds
    assert not spectral.check_constraint([2, 1], [x, x]).holds


def test_constraint_zero_factor_edge_case():
    # a non-unit-domain factor annihilates the left side, so domination
    # holds vacuously even though a coefficient is not a sign
    report = spectral.check_constraint([2, 1], [x2 := IndexFunction.of({2: 1}),
                                                index_pq(1, 0)])
    assert report.lhs_zero
    assert report.holds
    report = spectral.check_constraint([2], [x2])
    assert report.lhs_zero and report.holds


def test_constraint_all_signs_hold():
    indices = [index_pq(1, 0), index_pq(0, 1), index_pq(1, 1), index_pq(2, 0)]
    for xs in itertools.product(indices, repeat=2):
        for ms in itertools.product((-1, 1), repeat=2):
            assert spectral.check_constraint(list(ms), list(xs)).holds


def test_constraint_input_validation():
    with pytest.raises(ValueError):
        spectral.check_constraint([], [])
    with pytest.raises(ValueError):
        spectral.check_constraint([0], [index_pq(1, 0)])
    with pytest.raises(ValueError):
        spectral.check_constraint([1, 1], [index_pq(1, 0)])
    for m in (1.5, 1.0, True):
        with pytest.raises(TypeError):
            spectral.check_constraint([m], [index_pq(1, 0)])


def test_tensor_cap(monkeypatch):
    # 24 pairings x 4 cells x 4 cells = 384 ops: under the default cap, over
    # the lowered one, so the test fails unless tensor reads the constant
    x = IndexFunction.of({1: 2})
    mu = DepthMeasure.uniform(x, 1)
    assert mu.tensor(mu).index == IndexFunction.of({1: 4})
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 100)
    with pytest.raises(CapExceeded, match="tensor product size 384"):
        mu.tensor(mu)


def test_every_measure_respects_the_cell_cap(monkeypatch):
    # 5 slots at depth 10 is 2**50 cells: refused before any allocation,
    # for the zero measure as for the uniform one
    with pytest.raises(CapExceeded):
        spectral.spectral_form(IndexFunction.of({2: 5}), 1, 10)
    with pytest.raises(CapExceeded):
        spectral.spectral_form(IndexFunction.of({1: 5}), 1, 10)
    with pytest.raises(CapExceeded):
        DepthMeasure(IndexFunction.of({1: 21}), 1, {})
    x = IndexFunction.of({2: 2})
    z = DepthMeasure.zero(IndexFunction.of({2: 1}), 2)
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 16)
    assert DepthMeasure.zero(x, 2).is_zero
    # a tensor of zero factors stays under the same cap as its result grid
    assert z.tensor(z).is_zero
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 15)
    with pytest.raises(CapExceeded):
        DepthMeasure.zero(x, 2)
    with pytest.raises(CapExceeded):
        z.tensor(z)


def test_spectral_form_cache_keeps_the_cell_cap(monkeypatch):
    # 2 slots at depth 2 is 16 cells: the cached measure is shared, and a
    # lowered cap still refuses it on the next identical call
    x = index_pq(2, 0)
    mu = spectral.spectral_form(x, 1, 2)
    assert spectral.spectral_form(x, 1, 2) is mu
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 15)
    with pytest.raises(CapExceeded):
        spectral.spectral_form(x, 1, 2)


def test_tensor_ops_cap_counts_nonzero_cells(monkeypatch):
    x = index_pq(1, 0)
    mu = DepthMeasure.uniform(x, 1)
    point = DepthMeasure(x, 1, {(make_word("1"),): Fraction(1)})
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 8)
    assert mu.tensor(mu).mass() == 2  # 2 pairings x 2 x 2 cells
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 7)
    with pytest.raises(CapExceeded):
        mu.tensor(mu)
    monkeypatch.setattr(spectral, "DEFAULT_MAX_TENSOR_OPS", 4)
    assert point.tensor(mu).mass() == 2  # 2 x 1 x 2


def test_counts_stay_within_int64():
    x = index_pq(1, 0)
    a, b = (make_word("0"),), (make_word("1"),)
    big = DepthMeasure(x, 1, {a: 2**62})
    assert big.mass() == 2**62
    with pytest.raises(CapExceeded):
        DepthMeasure(x, 1, {a: 2**63})
    with pytest.raises(CapExceeded):  # each count fits, their sum does not
        DepthMeasure(x, 1, {a: 2**62, b: 2**62})
    with pytest.raises(CapExceeded):  # 2**30 over the common denominator 2**40
        DepthMeasure(x, 1, {a: Fraction(1, 2**40), b: 2**30})
    with pytest.raises(CapExceeded):
        big.scaled_mass(2)
    with pytest.raises(CapExceeded):
        DepthMeasure.zero(x, 1).scaled_mass(2**63)
    # the tensor checks pairings * counts * counts before any work
    fits = DepthMeasure(x, 1, {a: 2**30})
    assert fits.tensor(fits).mass() == 2 * 2**60
    over = DepthMeasure(x, 1, {a: 2**31})
    with pytest.raises(CapExceeded):
        over.tensor(over)


def test_dense_layout_and_normal_form():
    x = index_pq(1, 1)  # slots (-1, 0), (1, 0)
    mu = DepthMeasure(x, 2, {(make_word("10"), make_word("01")): Fraction(3, 4),
                             (make_word("00"), make_word("11")): Fraction(1, 2)})
    assert mu.counts.shape == (4, 4) and mu.den == 4
    assert mu.counts[2, 1] == 3 and mu.counts[0, 3] == 2
    assert mu.counts.sum() == 5
    assert not mu.counts.flags.writeable
    assert DepthMeasure.uniform(x, 2).scaled_mass(16).den == 1
    assert mu.support().sum() == 2
    with pytest.raises(ValueError):  # a code below the root
        DepthMeasure(x, 1, {(0, make_word("0")): Fraction(1)})
