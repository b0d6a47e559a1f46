"""Sampling the inverse-limit Gaussians: residuals, determinism, moments."""

import math
import random
import sys
import threading

import pytest

import naive_montecarlo as oracle
from treefock import gauss, montecarlo, suites
from treefock.errors import CapExceeded
from treefock.gauss import GaussPoly
from treefock.words import TorusStep, make_word

z = GaussPoly.variable


def test_tree_sample_residual():
    leaves = montecarlo.sample_trees(5, 10, seed=123)
    assert leaves.shape == (10, 32)
    assert (suites._tree_residuals(leaves, 5) <= 1e-12).all()
    # row i is sample i however many are taken
    assert (montecarlo.sample_trees(5, 3, seed=123) == leaves[:3]).all()


def test_act_preserves_averaging():
    g = TorusStep.from_eighth_root_indices([1, 6])
    leaves = montecarlo.sample_trees(4, 1, seed=5)
    moved = leaves * montecarlo._leaf_phases(g, 4)
    assert suites._tree_residuals(moved, 4)[0] <= 1e-12
    # the root variable picks up the averaged phases, not a single one
    root = make_word("")
    before = montecarlo._variable_columns(leaves, 4, [root])[root]
    after = montecarlo._variable_columns(moved, 4, [root])[root]
    assert after[0] != before[0]


def test_seed_determinism():
    p = z(make_word("0")) * z(make_word("0")).conj()
    a = montecarlo.estimate(p, 4000, depth=5, seed=42)
    b = montecarlo.estimate(p, 4000, depth=5, seed=42)
    c = montecarlo.estimate(p, 4000, depth=5, seed=43)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert a.mean != c.mean


def test_batching_invisible():
    # sample counts beyond one internal batch continue the same stream
    p = z(make_word("1")) * z(make_word("1")).conj()
    small = montecarlo.estimate(p, 1000, depth=3, seed=7)
    large = montecarlo.estimate(p, 40_000, depth=3, seed=7)
    assert small.samples == 1000 and large.samples == 40_000
    assert large.std_error < small.std_error


def test_std_error_ignores_a_large_constant():
    # a shift by 10^9 leaves the spread alone; sum |x|^2 - n |mean|^2 would
    # lose it to cancellation
    root = z(make_word(""))
    shifted = montecarlo.estimate(GaussPoly.constant(10**9) + root, 10**5, depth=3, seed=1)
    plain = montecarlo.estimate(root, 10**5, depth=3, seed=1)
    assert shifted.std_error == pytest.approx(plain.std_error, rel=1e-6)


def test_estimate_many_shares_stream():
    p = z(make_word("0")) * z(make_word("0")).conj()
    q = z(make_word("1")) * z(make_word("1")).conj()
    single = montecarlo.estimate(p, 3000, depth=4, seed=11)
    both = montecarlo.estimate_many([p, q], 3000, depth=4, seed=11)
    assert both[0].mean == single.mean
    assert both[0].std_error == single.std_error


def test_moments_within_three_sigma():
    cases = [
        (z(make_word("")) * z(make_word("")).conj(), 1.0),
        (z(make_word("0")) * z(make_word("0")).conj(), 1.0),
        (z(make_word("")) * z(make_word("0")).conj(), 1 / math.sqrt(2)),
        ((z(make_word("0")) * z(make_word("0")).conj())
         * (z(make_word("0")) * z(make_word("0")).conj()), 2.0),
        (z(make_word("0")) * z(make_word("1")).conj(), 0.0),
    ]
    estimates = montecarlo.estimate_many([p for p, _ in cases], 60_000,
                                         depth=4, seed=29)
    hits = sum(est.within(exact, 3.0) for (_, exact), est in zip(cases, estimates))
    assert hits >= len(cases) - 1


def test_estimate_under_step_matches_composed_polynomial():
    rng = random.Random(17)
    g = TorusStep.random_eighth_roots(2, rng)
    p = gauss.refine(z(make_word("0")) * z(make_word("")).conj(), 2)
    direct = montecarlo.estimate(p, 5000, depth=4, seed=3, step=g)
    composed = montecarlo.estimate(gauss.koopman(g, p), 5000, depth=4, seed=3)
    assert abs(direct.mean - composed.mean) <= 1e-9 * max(1.0, abs(composed.mean))


def test_constant_polynomial_has_zero_error():
    p = GaussPoly.constant(3)
    est = montecarlo.estimate(p, 500, depth=2, seed=1)
    assert est.mean == 3 and est.std_error == 0.0
    assert est.within(3, 3.0)


def test_depth_validation():
    p = z(make_word("000"))
    with pytest.raises(ValueError):
        montecarlo.estimate(p, 100, depth=2, seed=0)
    with pytest.raises(CapExceeded):
        montecarlo.estimate(p, 100, depth=30, seed=0)
    with pytest.raises(ValueError):
        montecarlo.estimate(p, 0, depth=3, seed=0)


def test_estimate_averages_a_prefix_of_the_tree_stream():
    # sample i is the same tree in sample_trees and estimate_many, however
    # many samples are asked for and however they are blocked
    p = (z(make_word("")) * z(make_word("01")).conj()
         + 2 * z(make_word("1")) * z(make_word("1")) * z(make_word("1")).conj()
         + GaussPoly.constant(3))
    for n in (1, 2, 3, montecarlo._BLOCK + 1):
        trees = montecarlo.sample_trees(3, n, seed=19)
        exact = sum(oracle.evaluate(p, oracle.tree_values(3, t)) for t in trees) / n
        est = montecarlo.estimate(p, n, depth=3, seed=19)
        assert abs(est.mean - exact) <= 1e-12 * max(1.0, abs(exact)), n


def test_estimate_many_of_nothing_validates_and_draws_nothing(monkeypatch):
    def no_stream(seed):
        raise AssertionError("drew a stream for no polynomials")

    monkeypatch.setattr(montecarlo, "_generator", no_stream)
    assert montecarlo.estimate_many([], 10**6, depth=4, seed=0) == []
    with pytest.raises(ValueError):
        montecarlo.estimate_many([], 0, depth=4, seed=0)
    with pytest.raises(CapExceeded):
        montecarlo.estimate_many([], 100, depth=30, seed=0)
    with pytest.raises(ValueError):
        montecarlo.estimate_many([], 100, depth=1, seed=0,
                                 step=TorusStep.from_eighth_root_indices([0, 1, 2, 3]))


def _mixed_targets():
    w0, w1, w01 = make_word("0"), make_word("1"), make_word("01")
    return [z(w0) * z(w1).conj(), z(w01) * z(w01) * z(w0).conj() + GaussPoly.constant(2)]


def test_a_raised_draw_surfaces_and_leaves_no_thread(monkeypatch):
    class DrawFailed(Exception):
        pass

    error = DrawFailed("second block")
    draw = montecarlo._draw_leaves
    drawn = []

    def fail_on_second_block(gen, leaves):
        drawn.append(len(leaves))
        if len(drawn) == 2:
            raise error
        draw(gen, leaves)

    monkeypatch.setattr(montecarlo, "_draw_leaves", fail_on_second_block)
    before = threading.active_count()
    with pytest.raises(DrawFailed) as info:
        montecarlo.estimate_many(_mixed_targets(), 5 * montecarlo._BLOCK, depth=2, seed=3)
    assert info.value is error
    assert len(drawn) == 2
    assert threading.active_count() == before


def test_a_raise_in_the_caller_stops_the_producer(monkeypatch):
    class EvaluationFailed(Exception):
        pass

    def fail(cols, factors):
        raise EvaluationFailed

    draw = montecarlo._draw_leaves
    drawn = []

    def count(gen, leaves):
        drawn.append(len(leaves))
        draw(gen, leaves)

    monkeypatch.setattr(montecarlo, "_factor_values", fail)
    monkeypatch.setattr(montecarlo, "_draw_leaves", count)
    before = threading.active_count()
    with pytest.raises(EvaluationFailed):
        montecarlo.estimate_many(_mixed_targets(), 10 * montecarlo._BLOCK, depth=2, seed=3)
    # block 0 inline, at most block 1 ahead of the failed evaluation
    assert 1 <= len(drawn) <= 2
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread for one block")

    polys = _mixed_targets()
    block = montecarlo._BLOCK
    want = {n: oracle.serial_estimate_many(polys, n, 3, seed=8) for n in (1, 7, block)}
    monkeypatch.setattr(threading, "Thread", no_thread)
    for n, estimates in want.items():
        assert montecarlo.estimate_many(polys, n, depth=3, seed=8) == estimates
    with pytest.raises(AssertionError, match="one block"):
        montecarlo.estimate_many(polys, block + 1, depth=3, seed=8)


def test_concurrent_callers_keep_their_streams():
    # more callers than cores, each with its own producer, switching often
    polys = _mixed_targets()
    samples = 3 * montecarlo._BLOCK - 1
    seeds = range(6)
    want = {s: oracle.serial_estimate_many(polys, samples, 3, seed=s) for s in seeds}
    got = {}

    def call(s):
        got[s] = montecarlo.estimate_many(polys, samples, depth=3, seed=s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(s,)) for s in seeds]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want
