"""Acceptance gate: nine criteria, each printing one pass/fail line.

Every identity is checked exactly on the exact backend; the float backend
appears only where a tolerance is part of the criterion.  Runtime targets
are asserted where stated.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from treefock import fock, gauss, montecarlo, scalars, spectral, steps
from treefock.scalars import ExactComplex
from treefock.spectral import index_pq
from treefock.suites import _moment_targets
from treefock.words import (AdmissibleWord, TorusStep, enumerate_admissible,
                            make_word)

LEVELS = (1, 2)
DEGREES = (1, 2, 3, 4)


def _basis(level):
    return [w for l in DEGREES for w in enumerate_admissible(level, l)]


def _verdict(num, name, ok, detail, elapsed):
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} - {name} "
            f"({detail}; {elapsed:.1f}s)")
    print(line)
    assert ok, line


def test_criterion_1_norm_products_and_splits():
    t0 = time.perf_counter()
    words = splits = 0
    ok = True
    for level in LEVELS:
        for w in _basis(level):
            words += 1
            expected = math.prod(math.factorial(m)
                                 for m in w.symbol_multiplicities().values())
            ok = ok and fock.norm2(fock.basic(w)) == expected
            total = fock.FockVector(level + 1, {})
            for bits in itertools.product((0, 1), repeat=w.degree):
                splits += 1
                child = AdmissibleWord(s.append(b)
                                       for s, b in zip(w.entries, bits))
                counts = {}
                for s, b in zip(w.entries, bits):
                    counts[(s, b)] = counts.get((s, b), 0) + 1
                child_norm = math.prod(math.factorial(k) for k in counts.values())
                ok = ok and fock.norm2(fock.basic(child)) == child_norm
                total = total + fock.basic(child)
            ok = ok and fock.norm2(total) == 2 ** w.degree * expected
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(1, "norm products and epsilon splits, exact",
             ok, f"{words} words, {splits} splits", elapsed)


def test_criterion_2_isometries_and_coherence():
    t0 = time.perf_counter()
    checks = 0
    ok = True
    for level in LEVELS:
        for w in _basis(level):
            b = fock.basic(w)
            n2 = fock.norm2(b)
            e = fock.embed(b)
            f = steps.from_fock(b)
            p = gauss.from_fock(b)
            ok = ok and fock.norm2(e) == n2
            ok = ok and f.norm2() == n2
            ok = ok and gauss.norm2(p) == n2
            ok = ok and f.refine() == steps.from_fock(e)
            ok = ok and gauss.refine(p, level + 1) == gauss.from_fock(e)
            checks += 5
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(2, "isometries and level coherence, exact",
             ok, f"{checks} identities", elapsed)


def test_criterion_3_cross_realization_gram():
    t0 = time.perf_counter()
    pairs = 0
    ok = True
    for level in LEVELS:
        basis = _basis(level)
        vecs = [fock.basic(w) for w in basis]
        fimgs = [steps.from_fock(v) for v in vecs]
        pimgs = [gauss.from_fock(v) for v in vecs]
        for i, j in itertools.combinations_with_replacement(range(len(basis)), 2):
            want = fock.inner(vecs[i], vecs[j])
            ok = ok and fimgs[i].inner(fimgs[j]) == want
            ok = ok and gauss.inner(pimgs[i], pimgs[j]) == want
            pairs += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _verdict(3, "cross-realization Gram equality, exact",
             ok, f"{pairs} basis pairs", elapsed)


def test_criterion_4_equivariance_200_steps():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    ok = True
    steps_used = 0
    for level in LEVELS:
        basis = _basis(level)
        for _ in range(100):
            g = TorusStep.random_eighth_roots(level, rng)
            steps_used += 1
            v = fock.FockVector(level, {})
            for _ in range(3):
                c = ExactComplex(rng.randrange(-3, 4), rng.randrange(-3, 4))
                v = v + c * fock.basic(basis[rng.randrange(len(basis))])
            moved = fock.act(g, v)
            ok = ok and steps.from_fock(moved) == steps.from_fock(v).act(g)
            ok = ok and gauss.from_fock(moved) == gauss.koopman(g, gauss.from_fock(v))
    float_ok = True
    frng = random.Random(2027)
    for level in LEVELS:
        basis = _basis(level)
        for _ in range(100):
            g = TorusStep.random_phases(level, frng)
            v = fock.FockVector(level, {})
            for _ in range(3):
                c = complex(frng.uniform(-2, 2), frng.uniform(-2, 2))
                v = v + c * fock.basic(basis[frng.randrange(len(basis))],
                                       backend=scalars.FLOAT)
            moved = fock.act(g, v)
            lhs = steps.from_fock(moved) - steps.from_fock(v).act(g)
            float_ok = float_ok and all(
                abs(complex(val)) <= 1e-9
                for part in lhs.components.values()
                for val in part.values.values())
            diff = gauss.from_fock(moved) - gauss.koopman(g, gauss.from_fock(v))
            float_ok = float_ok and all(abs(complex(c)) <= 1e-9
                                        for c in diff.terms.values())
    elapsed = time.perf_counter() - t0
    ok = ok and float_ok
    _verdict(4, "equivariance of both realizations",
             ok, f"{steps_used} exact eighth-root steps, 200 float steps at 1e-9",
             elapsed)


def test_criterion_5_support_measure_formula():
    t0 = time.perf_counter()
    words = 0
    ok = True
    for level in LEVELS:
        for w in _basis(level):
            words += 1
            p, q = w.degrees
            denom = 2 ** (level * w.degree) * math.prod(
                math.factorial(m) for m in w.symbol_multiplicities().values())
            expected = Fraction(math.factorial(p) * math.factorial(q), denom)
            ok = ok and steps.support_measure(w) == expected
    elapsed = time.perf_counter() - t0
    _verdict(5, "support measure formula, exact", ok, f"{words} words", elapsed)


def test_criterion_6_density_rates_and_centering_flag():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for depth in (1, 2, 3):
        for k in range(0, 5):
            for m in range(0, 5):
                if not 1 <= k + m <= 4:
                    continue
                cases += 1
                c, n2 = gauss.remainder_rate(k, m, depth)
                if k != m:
                    ok = ok and c == 0
                    ok = ok and n2 == Fraction(
                        math.factorial(k + m), 2 ** (depth * (k + m - 1)))
                else:
                    ok = ok and n2 == Fraction(
                        math.factorial(2 * m) - math.factorial(m) ** 2,
                        2 ** (depth * (2 * m - 1)))
                    ok = ok and c == Fraction(
                        math.factorial(m), 2 ** (depth * (m - 1)))
                    # the exact mean is the right centering; the square-root
                    # factorial guess only coincides with it at m = 1
                    ok = ok and (c * c == math.factorial(m)) is (m == 1)
    elapsed = time.perf_counter() - t0
    _verdict(6, "expansion remainder decay rates, exact",
             ok, f"{cases} (k, m, depth) cases incl. centering flags", elapsed)


def test_criterion_7_spectral_constraint_grid():
    t0 = time.perf_counter()
    ok = True
    cases = 0
    x10 = index_pq(1, 0)
    for m in (-3, -2, -1, 1, 2, 3):
        cases += 1
        ok = ok and spectral.check_constraint([m], [x10]).holds is (abs(m) == 1)
    unit_indices = [index_pq(1, 0), index_pq(0, 1), index_pq(1, 1),
                    index_pq(2, 0), index_pq(0, 2), index_pq(2, 1)]
    for length in (1, 2, 3):
        for xs in itertools.product(unit_indices, repeat=length):
            if sum(x.total() for x in xs) > 4:
                continue
            for ms in itertools.product((-1, 1), repeat=length):
                cases += 1
                ok = ok and spectral.check_constraint(list(ms), list(xs)).holds
    elapsed = time.perf_counter() - t0
    _verdict(7, "scaling constraint on spectral parameters, exact",
             ok, f"{cases} grid cases", elapsed)


def test_criterion_8_monte_carlo_cross_check():
    t0 = time.perf_counter()
    targets = _moment_targets()
    assert len(targets) == 20
    assert all(m.degree <= 6 for p, _ in targets for m in p.terms)
    polys = [p for p, _ in targets]
    estimates = montecarlo.estimate_many(polys, 1_000_000, depth=4, seed=2028)
    hits = sum(est.within(exact, 3.0)
               for (_, exact), est in zip(targets, estimates))
    rng = random.Random(2029)
    g = TorusStep.random_eighth_roots(2, rng)
    refined = [gauss.refine(p, max(2, p.max_word_length())) for p in polys]
    composed_exact = [complex(gauss.moment(gauss.koopman(g, q)))
                      for q in refined]
    acted = montecarlo.estimate_many(refined, 1_000_000, depth=4,
                                     seed=2028, step=g)
    acted_hits = sum(est.within(exact, 3.0)
                     for exact, est in zip(composed_exact, acted))
    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and acted_hits >= 19 and elapsed < 60.0
    _verdict(8, "Monte Carlo moment cross-check at a million samples",
             ok, f"{hits}/20 plain and {acted_hits}/20 composed within 3 SE",
             elapsed)


def test_criterion_9_pairing_oracle_agreement():
    t0 = time.perf_counter()
    variables = [make_word(t) for t in ("00", "01", "10")]
    cases = 0
    ok = True
    singles = [(a, b) for a in range(7) for b in range(7) if a + b <= 6]
    for combo in itertools.product(singles, repeat=3):
        if not 1 <= sum(a + b for a, b in combo) <= 6:
            continue
        mono = gauss.GaussMonomial.of(
            {w: e for w, e in zip(variables, combo) if e != (0, 0)})
        cases += 1
        ok = ok and (gauss.moment(gauss.GaussPoly({mono: 1}))
                     == gauss.moment_by_pairings(mono))
    elapsed = time.perf_counter() - t0
    _verdict(9, "closed-form moments equal brute-force pairing counts, exact",
             ok, f"{cases} monomials, degree <= 6, 3 variables", elapsed)
