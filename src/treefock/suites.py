"""Verification suites: each module's invariants run to configurable caps.

A check is a function ``<suite>_<check>(cfg, rng, r)`` whose docstring is
its statement: it enumerates its cases, compares computed values against
closed forms or independent oracles, and records the case count and the
first counterexamples on the SuiteReport ``r``.  ``run_command`` runs a
command's checks as ``SUITES`` lists them, each under its own guard: a
CapExceeded is recorded on that check as ``{"cap": message}``, any other
exception as ``{"exception": type name, "message": message, "where":
"file:line in function"}`` for the innermost frame of its traceback, and the
next check runs on.  The checks share one rng, seeded with the config's seed
plus the command's position in the table, so a RunConfig fixes every result.

On the exact backend every comparison is literal equality of exact scalars.
On the float backend torus steps carry arbitrary angles and comparisons
allow the tolerance FLOAT_TOL.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import fock, gauss, montecarlo, scalars, spectral, steps
from .combination import Combination
from .errors import CapExceeded
from .scalars import EXACT, Scalar
from .spectral import DepthMeasure, IndexFunction, index_pq
from .steps import GridCell
from .words import (AdmissibleWord, Symbol, TorusStep, all_words, child,
                    enumerate_admissible, make_word)

FLOAT_TOL = 1e-9

# Philox takes keys below 2**128, and the simulate suite also keys a stream
# by seed + 1.
SEED_MAX = 2 ** 128 - 2

# The depth of the spectral suite's grids and of the simulate suite's step.
# RunConfig.validate puts the floor of --depth-max at 2, so these checks run
# at depth 2 under every configuration.
SMALL_DEPTH = 2

# The depth of the simulate suite's sampled trees, unless --depth-max is lower.
SAMPLE_DEPTH = 6


@dataclass
class RunConfig:
    command: str = "all"
    level_max: int = 2
    degree_max: int = 4
    depth_max: int = 10
    samples: int = 100_000
    seed: int = 7
    backend: str = EXACT
    fmt: str = "text"
    output: Optional[str] = None

    def validate(self) -> None:
        if not 1 <= self.level_max <= 4:
            raise ValueError("level-max must be in 1..4")
        if not 1 <= self.degree_max <= 5:
            raise ValueError("degree-max must be in 1..5")
        if not 2 <= self.depth_max <= 16:
            raise ValueError("depth-max must be in 2..16")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not 0 <= self.seed <= SEED_MAX:
            raise ValueError(f"seed must be in 0..{SEED_MAX}")
        if self.backend not in scalars.BACKENDS:
            raise ValueError(f"backend must be one of {sorted(scalars.BACKENDS)}")
        if self.fmt not in ("text", "json", "csv"):
            raise ValueError("format must be text, json, or csv")

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "level_max": self.level_max,
            "degree_max": self.degree_max,
            "depth_max": self.depth_max,
            "samples": self.samples,
            "seed": self.seed,
            "backend": self.backend,
            "float_tol": FLOAT_TOL,
        }


@dataclass
class SuiteReport:
    """Outcome of one named check: case count plus first counterexamples."""

    suite: str
    check: str
    statement: str
    cases: int = 0
    failures: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.cases > 0 and not self.failures

    def case(self, ok: bool, **payload) -> None:
        self.cases += 1
        if not ok and len(self.failures) < 10:
            self.failures.append({k: str(v) for k, v in payload.items()})

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "statement": self.statement,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
        }


@lru_cache(maxsize=None)
def _basis(level: int, degree_max: int) -> Tuple[AdmissibleWord, ...]:
    return tuple(w for l in range(1, degree_max + 1)
                 for w in enumerate_admissible(level, l))


def _pairs(level: int, size: int, count: int, rng: random.Random,
           diagonal: bool = False) -> List[Tuple[int, int]]:
    """Index pairs for a Gram check: every pair at level 1; deeper, the
    diagonal if asked plus ``count`` distinct sampled pairs, deterministic
    for a given rng state."""
    if level == 1:
        every = (itertools.combinations_with_replacement if diagonal
                 else itertools.combinations)
        return list(every(range(size), 2))
    seen = set()
    while len(seen) < min(count, size * (size - 1) // 2):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if i != j:
            seen.add((min(i, j), max(i, j)))
    return [(i, i) for i in range(size) if diagonal] + sorted(seen)


def _random_step(cfg: RunConfig, level: int, rng: random.Random) -> TorusStep:
    if cfg.backend == EXACT:
        return TorusStep.random_eighth_roots(level, rng)
    return TorusStep.random_phases(level, rng)


def _random_coeff(cfg: RunConfig, rng: random.Random):
    if cfg.backend == EXACT:
        return scalars.ExactComplex(rng.randrange(-3, 4), rng.randrange(-3, 4))
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _random_vector(cfg: RunConfig, level: int, rng: random.Random) -> fock.FockVector:
    words = _basis(level, cfg.degree_max)
    out = fock.FockVector(level, {})
    for _ in range(3):
        w = words[rng.randrange(len(words))]
        out = out + _random_coeff(cfg, rng) * fock.basic(w, cfg.backend)
    return out


def _close(cfg: RunConfig, a, b) -> bool:
    """Equality of two scalars, or of two Fock vectors, Gaussian polynomials
    or step sums: literal on the exact backend, within FLOAT_TOL on floats,
    coefficientwise for combinations."""
    if cfg.backend == EXACT:
        return a == b
    if isinstance(a, Combination):
        return all(abs(complex(c)) <= FLOAT_TOL for c in (a - b).terms.values())
    return abs(complex(a) - complex(b)) <= FLOAT_TOL


# ------------------------------------------------------------------ fock

def _admissible_count(level: int, degree: int) -> int:
    # multisets of marked or unmarked level-n words, no word used both ways:
    # sum over the number j of distinct words used of C(2^n, j) 2^j C(l-1, j-1)
    width = 2 ** level
    return sum(math.comb(width, j) * 2 ** j * math.comb(degree - 1, j - 1)
               for j in range(1, degree + 1))


def _arrangement_count(w: AdmissibleWord) -> int:
    """p!q!/prod(m_s!), the number of distinct arrangements of a word."""
    p, q = w.degrees
    return (math.factorial(p) * math.factorial(q)
            // math.prod(math.factorial(m) for m in w.symbol_multiplicities().values()))


def _letter_phase(g: TorusStep, w: AdmissibleWord):
    """The product over the letters of w of g at the letter's word, conjugated
    on a marked letter."""
    out = 1
    for s in w.entries:
        val = g.value_at(s.word)
        out = out * (scalars.conj(val) if s.barred else val)
    return out


def fock_symbol_conjugation(cfg, rng, r):
    """conjugation is an involution and commutes with appending bits"""
    for level in range(0, cfg.level_max + 1):
        for word in all_words(level):
            for barred in (False, True):
                s = Symbol(word, barred)
                ok = (s.conj().conj() == s and s.conj() != s
                      and all(s.append(b).conj() == s.conj().append(b)
                              for b in (0, 1)))
                r.case(ok, symbol=s)


def fock_admissible_enumeration(cfg, rng, r):
    """enumeration is sorted, duplicate-free, admissible, and matches the
    closed-form count"""
    for level in range(1, cfg.level_max + 1):
        for degree in range(1, cfg.degree_max + 1):
            words = list(enumerate_admissible(level, degree))
            keys = [w.codes for w in words]
            ok = (keys == sorted(keys) and len(set(keys)) == len(keys)
                  and all(w.level == level and w.degree == degree for w in words)
                  and all(sum(w.symbol_multiplicities().values()) == degree
                          and sum(w.degrees) == degree for w in words)
                  and len(words) == _admissible_count(level, degree))
            r.case(ok, level=level, degree=degree, count=len(words),
                   expected=_admissible_count(level, degree))


def fock_variant_count(cfg, rng, r):
    """distinct arrangements number p!q!/prod(m_s!)"""
    for level in range(1, cfg.level_max + 1):
        for w in _basis(level, min(cfg.degree_max, 4)):
            variants = w.variants()
            expected = _arrangement_count(w)
            ok = (len(variants) == len(set(variants)) == expected
                  and all(sorted(a + b)
                          == sorted(w.unmarked_words() + w.marked_words())
                          for a, b in variants))
            r.case(ok, word=w, count=len(variants), expected=expected)


def fock_norm_product(cfg, rng, r):
    """basic vectors have squared norm prod(m_s!) and distinct words are
    orthogonal"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        for w in basis:
            expected = math.prod(math.factorial(m)
                                 for m in w.symbol_multiplicities().values())
            norm2 = fock.norm2(fock.basic(w, cfg.backend))
            r.case(_close(cfg, norm2, expected), word=w, norm2=norm2,
                   expected=expected)
        vecs = [fock.basic(w, cfg.backend) for w in basis]
        for i, j in _pairs(level, len(basis), 1500, rng):
            val = fock.inner(vecs[i], vecs[j])
            r.case(_close(cfg, val, 0), u=basis[i], v=basis[j], inner=val)


def fock_norm_split(cfg, rng, r):
    """each child norm is prod k_s!(m_s-k_s)! and the epsilon sum has 2^l times
    the parent's squared norm"""
    for level in range(1, cfg.level_max + 1):
        for w in _basis(level, cfg.degree_max):
            parent_norm = fock.norm2(fock.basic(w, cfg.backend))
            total: Dict[AdmissibleWord, Scalar] = {}
            ok = True
            for bits in itertools.product((0, 1), repeat=w.degree):
                child = w.append_all(bits)
                split: Dict[Tuple[int, int], int] = {}
                for key in zip(w.codes, bits):
                    split[key] = split.get(key, 0) + 1
                expected = math.prod(map(math.factorial, split.values()))
                ok = ok and fock.norm2(fock.basic(child, cfg.backend)) == expected
                total[child] = total.get(child, 0) + scalars.one(cfg.backend)
            total_norm = fock.norm2(fock.FockVector(level + 1, total))
            ok = ok and _close(cfg, total_norm, 2 ** w.degree * parent_norm)
            r.case(ok, word=w)


def fock_embed_isometry(cfg, rng, r):
    """the embedding preserves inner products and matches the direct
    epsilon-sum expansion"""
    for level in range(1, cfg.level_max + 1):
        for w in _basis(level, cfg.degree_max):
            b = fock.basic(w, cfg.backend)
            e = fock.embed(b)
            ok = _close(cfg, fock.norm2(e), fock.norm2(b))
            if w.degree <= 4:
                ok = ok and _close(cfg, e, fock.embed_by_enumeration(b))
            r.case(ok, word=w)
        for _ in range(12):
            u = _random_vector(cfg, level, rng)
            v = _random_vector(cfg, level, rng)
            r.case(_close(cfg, fock.inner(fock.embed(u), fock.embed(v)),
                          fock.inner(u, v)),
                   level=level, u=u, v=v)


def fock_embed_orthogonality(cfg, rng, r):
    """images of distinct basic vectors stay orthogonal"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        images = {i: None for i in range(len(basis))}
        for i, j in _pairs(level, len(basis), 1200, rng):
            if images[i] is None:
                images[i] = fock.embed(fock.basic(basis[i], cfg.backend))
            if images[j] is None:
                images[j] = fock.embed(fock.basic(basis[j], cfg.backend))
            val = fock.inner(images[i], images[j])
            r.case(_close(cfg, val, 0), u=basis[i], v=basis[j], inner=val)


def fock_act_unitary(cfg, rng, r):
    """torus steps act by unitaries and multiplicatively"""
    for level in range(1, cfg.level_max + 1):
        for _ in range(10):
            g = _random_step(cfg, level, rng)
            h = _random_step(cfg, level, rng)
            v = _random_vector(cfg, level, rng)
            acted = fock.act(g, v)
            by_letters = fock.FockVector(level, {w: c * _letter_phase(g, w)
                                                 for w, c in v.terms.items()})
            ok = (_close(cfg, acted, by_letters)
                  and _close(cfg, fock.norm2(acted), fock.norm2(v))
                  and _close(cfg, fock.act(g, fock.act(h, v)),
                             fock.act(g * h, v))
                  and _close(cfg, fock.act(TorusStep.identity(level, cfg.backend),
                                           v), v)
                  and _close(cfg, fock.act(g.inverse(), fock.act(g, v)), v))
            r.case(ok, level=level)


# --------------------------------------------------------------- step side

def alpha_support_measure(cfg, rng, r):
    """a word's support carries measure p!q!/(2^(n l) prod m_s!)"""
    for level in range(1, cfg.level_max + 1):
        for w in _basis(level, cfg.degree_max):
            cells = steps.support_cells(w)
            count = _arrangement_count(w)
            expected = Fraction(count, 2 ** (level * w.degree))
            measure = steps.support_measure(w)
            ok = (len(cells) == len(set(cells)) == count
                  and all(c.degrees == w.degrees and c.depth == level
                          for c in cells)
                  and measure == expected)
            r.case(ok, word=w, measure=measure, expected=expected)


def alpha_support_disjoint(cfg, rng, r):
    """words of one block shape have pairwise disjoint supports"""
    for level in range(1, cfg.level_max + 1):
        owners: Dict[GridCell, AdmissibleWord] = {}
        clashes = 0
        for w in _basis(level, cfg.degree_max):
            for cell in steps.support_cells(w):
                if cell in owners:
                    clashes += 1
                owners[cell] = w
        r.case(clashes == 0, level=level, clashes=clashes)


def alpha_realization_isometry(cfg, rng, r):
    """the step realization preserves norms"""
    for level in range(1, cfg.level_max + 1):
        for w in _basis(level, cfg.degree_max):
            b = fock.basic(w, cfg.backend)
            r.case(_close(cfg, steps.from_fock(b).norm2(), fock.norm2(b)), word=w)
        for _ in range(10):
            v = _random_vector(cfg, level, rng)
            r.case(_close(cfg, steps.from_fock(v).norm2(), fock.norm2(v)),
                   level=level, v=v)


def alpha_realization_gram(cfg, rng, r):
    """step inner products reproduce the Fock Gram matrix"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        images = [steps.from_fock(fock.basic(w, cfg.backend)) for w in basis]
        for i, j in _pairs(level, len(basis), 1000, rng, diagonal=True):
            want = fock.inner(fock.basic(basis[i], cfg.backend),
                              fock.basic(basis[j], cfg.backend))
            r.case(_close(cfg, images[i].inner(images[j]), want),
                   u=basis[i], v=basis[j])


def alpha_multinomial_split(cfg, rng, r):
    """split coefficients recombine: sum_k C(m,k)^2 k!(m-k)! = m! 2^m"""
    for m in range(0, 9):
        lhs = sum(math.comb(m, k) ** 2 * math.factorial(k) * math.factorial(m - k)
                  for k in range(m + 1))
        r.case(lhs == math.factorial(m) * 2 ** m, m=m, lhs=lhs)
        for k in range(m + 1):
            r.case(math.comb(m, k) * math.factorial(k) * math.factorial(m - k)
                   == math.factorial(m), m=m, k=k)


def alpha_torus_equivariance(cfg, rng, r):
    """realizing then acting equals acting then realizing, and the action is
    unitary on step sums"""
    for level in range(1, cfg.level_max + 1):
        for _ in range(8):
            g = _random_step(cfg, level, rng)
            h = _random_step(cfg, level, rng)
            v = _random_vector(cfg, level, rng)
            f = steps.from_fock(v)
            ok = (_close(cfg, steps.from_fock(fock.act(g, v)), f.act(g))
                  and _close(cfg, f.act(g).norm2(), f.norm2())
                  and _close(cfg, f.act(g).act(h), f.act(g * h)))
            r.case(ok, level=level)


def alpha_block_symmetry(cfg, rng, r):
    """realized vectors are invariant under permuting the coordinates of either
    block"""
    for level in range(1, cfg.level_max + 1):
        for w in _basis(level, cfg.degree_max):
            f = steps.from_fock(fock.basic(w, cfg.backend))
            r.case(f.is_block_symmetric(), word=w)


def alpha_point_separation(cfg, rng, r):
    """any two distinct sorted cells of one shape are separated by some word's
    support"""
    for level in range(1, cfg.level_max + 1):
        words = all_words(level)
        for p, q in ((1, 0), (1, 1), (2, 0), (2, 1)):
            if p + q > cfg.degree_max:
                continue
            cells = []
            for left in itertools.combinations(words, p):
                for right in itertools.combinations(words, q):
                    if set(left) & set(right):
                        continue
                    cells.append(GridCell(level, left, right))
            for i, c1 in enumerate(cells):
                w = AdmissibleWord([Symbol(t, False) for t in c1.left]
                                   + [Symbol(t, True) for t in c1.right])
                support = set(steps.support_cells(w))
                for c2 in cells[i + 1:]:
                    r.case(c1 in support and c2 not in support,
                           first=c1, second=c2, word=w)


# ------------------------------------------------------------ gaussian side

def beta_realization_gram(cfg, rng, r):
    """polynomial inner products reproduce the Fock Gram matrix"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        images = [gauss.from_fock(fock.basic(w, cfg.backend)) for w in basis]
        for i, j in _pairs(level, len(basis), 800, rng, diagonal=True):
            want = fock.inner(fock.basic(basis[i], cfg.backend),
                              fock.basic(basis[j], cfg.backend))
            r.case(_close(cfg, gauss.inner(images[i], images[j]), want),
                   u=basis[i], v=basis[j])


def beta_refine_moment(cfg, rng, r):
    """rewriting variables one level deeper preserves moments and inner
    products"""
    for level in range(1, cfg.level_max + 1):
        for _ in range(10):
            p = gauss.from_fock(_random_vector(cfg, level, rng))
            q = gauss.from_fock(_random_vector(cfg, level, rng))
            deeper = level + 1
            ok = (_close(cfg, gauss.moment(gauss.refine(p, deeper)),
                         gauss.moment(p))
                  and _close(cfg, gauss.inner(gauss.refine(p, deeper), q),
                             gauss.inner(p, q))
                  and _close(cfg, gauss.inner(p, gauss.refine(q, deeper)),
                             gauss.inner(p, q)))
            r.case(ok, level=level)


def beta_koopman_unitary(cfg, rng, r):
    """composition with a torus step preserves inner products and is
    multiplicative"""
    for level in range(1, cfg.level_max + 1):
        for _ in range(8):
            g = _random_step(cfg, level, rng)
            h = _random_step(cfg, level, rng)
            p = gauss.from_fock(_random_vector(cfg, level, rng))
            ok = (_close(cfg, gauss.norm2(gauss.koopman(g, p)), gauss.norm2(p))
                  and _close(cfg, gauss.koopman(g, gauss.koopman(h, p)),
                             gauss.koopman(g * h, p))
                  and _close(cfg,
                             gauss.koopman(TorusStep.identity(level, cfg.backend),
                                           p),
                             p))
            r.case(ok, level=level)


def beta_torus_equivariance(cfg, rng, r):
    """realizing then composing equals acting then realizing"""
    for level in range(1, cfg.level_max + 1):
        for _ in range(8):
            g = _random_step(cfg, level, rng)
            v = _random_vector(cfg, level, rng)
            # each word's image from its letters, conj z_w on a marked one
            by_letters = gauss.GaussPoly.zero()
            for w, c in v.terms.items():
                term = gauss.GaussPoly.constant(c * _letter_phase(g, w))
                for s in w.entries:
                    z = gauss.GaussPoly.variable(s.word)
                    term = term * (z.conj() if s.barred else z)
                by_letters = by_letters + term
            composed = gauss.koopman(g, gauss.from_fock(v))
            r.case(_close(cfg, gauss.from_fock(fock.act(g, v)), composed)
                   and _close(cfg, composed, by_letters), level=level)


def beta_pairing_oracle(cfg, rng, r):
    """moments match the brute-force pairing count"""
    level = min(cfg.level_max, 2)
    variables = all_words(level)[:3]
    degree_cap = min(6, 2 * cfg.degree_max)
    for exps in _exponent_grid(len(variables), degree_cap):
        mono = gauss.GaussMonomial.of({w: e for w, e in zip(variables, exps)
                                       if e != (0, 0)})
        if mono.is_constant:
            continue
        computed = gauss.moment(gauss.GaussPoly({mono: 1}))
        r.case(computed == gauss.moment_by_pairings(mono),
               monomial=mono, computed=computed)


def _exponent_grid(variables: int, degree_cap: int):
    """All per-variable (a, b) exponent tuples with total degree <= cap."""
    singles = [(a, b) for a in range(degree_cap + 1) for b in range(degree_cap + 1)
               if a + b <= degree_cap]
    for combo in itertools.product(singles, repeat=variables):
        if sum(a + b for a, b in combo) <= degree_cap:
            yield combo


# ----------------------------------------------------------------- coherence

def coherence_embed_step(cfg, rng, r):
    """refining a realized vector equals realizing its embedding"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        if level >= 2:
            basis = tuple(basis[i] for i in sorted(
                rng.sample(range(len(basis)), min(120, len(basis)))))
        for w in basis:
            b = fock.basic(w, cfg.backend)
            r.case(_close(cfg, steps.from_fock(b).refine(),
                          steps.from_fock(fock.embed(b))), word=w)
        for _ in range(6):
            v = _random_vector(cfg, level, rng)
            r.case(_close(cfg, steps.from_fock(v).refine(),
                          steps.from_fock(fock.embed(v))), level=level)


def coherence_embed_gauss(cfg, rng, r):
    """rewriting a realized polynomial one level deeper equals realizing the
    embedding"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        if level >= 2:
            basis = tuple(basis[i] for i in sorted(
                rng.sample(range(len(basis)), min(120, len(basis)))))
        for w in basis:
            b = fock.basic(w, cfg.backend)
            r.case(_close(cfg, gauss.refine(gauss.from_fock(b), level + 1),
                          gauss.from_fock(fock.embed(b))), word=w)


def coherence_embed_equivariance(cfg, rng, r):
    """the embedding intertwines the torus actions at consecutive levels"""
    for level in range(1, cfg.level_max + 1):
        for _ in range(8):
            g = _random_step(cfg, level, rng)
            v = _random_vector(cfg, level, rng)
            r.case(_close(cfg, fock.embed(fock.act(g, v)),
                          fock.act(g, fock.embed(v))), level=level)


def coherence_cross_gram(cfg, rng, r):
    """Fock, step, and polynomial inner products agree pairwise"""
    for level in range(1, cfg.level_max + 1):
        basis = _basis(level, cfg.degree_max)
        step_images = [steps.from_fock(fock.basic(w, cfg.backend)) for w in basis]
        poly_images = [gauss.from_fock(fock.basic(w, cfg.backend)) for w in basis]
        for i, j in _pairs(level, len(basis), 700, rng, diagonal=True):
            want = fock.inner(fock.basic(basis[i], cfg.backend),
                              fock.basic(basis[j], cfg.backend))
            ok = (_close(cfg, step_images[i].inner(step_images[j]), want)
                  and _close(cfg, gauss.inner(poly_images[i], poly_images[j]),
                             want))
            r.case(ok, u=basis[i], v=basis[j], expected=want)


# ------------------------------------------------------------------- density

def density_remainder_rate(cfg, rng, r):
    """diagonal remainders decay at the closed-form rate; the k = m centering
    is the exact mean, not sqrt(m!)"""
    for depth in range(1, min(3, cfg.depth_max) + 1):
        for k in range(0, 5):
            for m in range(0, 5):
                if not 1 <= k + m <= 4:
                    continue
                c, n2 = gauss.remainder_rate(k, m, depth)
                if k == m:
                    closed = Fraction(
                        math.factorial(2 * m) - math.factorial(m) ** 2,
                        2 ** (depth * (2 * m - 1)))
                    centering = Fraction(math.factorial(m), 2 ** (depth * (m - 1)))
                else:
                    closed = Fraction(math.factorial(k + m),
                                      2 ** (depth * (k + m - 1)))
                    centering = 0
                # for k = m, c is a mean of |z_t|^(2m) terms, so it is
                # positive and equals sqrt(m!) exactly when c * c == m!
                sqrt_match = c * c == math.factorial(m)
                r.case(n2 == closed and c == centering
                       and sqrt_match is (k == m == 1),
                       k=k, m=m, depth=depth, centering=c, norm2=n2,
                       closed_form=closed)


def density_power_expansion(cfg, rng, r):
    """powers of one variable expand into the child-index sum, with the
    constant-index part equal to the remainder"""
    for k, m, depth in [(k, m, d)
                        for d in (1, 2) for k in range(0, 5) for m in range(0, 5)
                        if 1 <= k + m <= 4] + \
                       [(k, m, 3) for k in range(0, 3) for m in range(0, 3)
                        if 1 <= k + m <= 2]:
        if depth > cfg.depth_max:
            continue
        power = gauss.GaussPoly({gauss.GaussMonomial.of({make_word(""): (k, m)}): 1})
        index_sum = gauss.power_expansion(k, m, depth)
        # the single-variable monomials are the constant-index tuples
        diagonal = gauss.GaussPoly({mono: c for mono, c in index_sum.terms.items()
                                    if len(mono.exps) == 1})
        identity = gauss.refine(power, depth) == index_sum
        remainder = diagonal == gauss.expansion_remainder(k, m, depth)
        r.case(identity and remainder, k=k, m=m, depth=depth,
               identity=identity, remainder=remainder)


def density_disjoint_product(cfg, rng, r):
    """moments multiply across disjoint subtrees and agree with the pairing
    oracle"""
    left_vars = [make_word("00"), make_word("01")]
    right_vars = [make_word("10"), make_word("11")]
    for _ in range(40):
        lm = {w: (rng.randrange(3), rng.randrange(3)) for w in left_vars}
        rm = {w: (rng.randrange(3), rng.randrange(3)) for w in right_vars}
        a = gauss.GaussMonomial.of({w: e for w, e in lm.items() if e != (0, 0)})
        b = gauss.GaussMonomial.of({w: e for w, e in rm.items() if e != (0, 0)})
        prod = a * b
        if prod.is_constant or prod.degree > 6:
            continue
        lhs = gauss.moment(gauss.GaussPoly({prod: 1}))
        rhs = (gauss.moment(gauss.GaussPoly({a: 1}))
               * gauss.moment(gauss.GaussPoly({b: 1})))
        r.case(lhs == rhs == gauss.moment_by_pairings(prod),
               left=a, right=b, product_moment=lhs, split=rhs)


# ------------------------------------------------------------------ spectral

# The spectral checks' index functions; two checks also take three more.
_CATALOG = (index_pq(1, 0), index_pq(0, 1), index_pq(1, 1), index_pq(2, 0),
            IndexFunction.of({2: 1}), IndexFunction.of({1: 1, 2: 1}))
_RICHER = _CATALOG + (index_pq(2, 1), IndexFunction.of({1: 2, -1: 1}),
                      IndexFunction.of({3: 1, 1: 1}))


def spectral_good_permutations(cfg, rng, r):
    """level-preserving slot bijections are exactly the good ones and number
    prod x(k)!"""
    for x in _RICHER:
        perms = spectral.good_permutations(x)
        slots = x.slots()
        brute = []
        for perm in itertools.permutations(range(len(slots))):
            if all(slots[i][0] == slots[j][0] for i, j in enumerate(perm)):
                brute.append(perm)
        expected = math.prod(math.factorial(c) for _, c in x.items)
        r.case(len(perms) == len(set(perms)) == expected
               and set(perms) == set(brute), index=x,
               count=len(perms), expected=expected)


def spectral_phase_action(cfg, rng, r):
    """grid phases are unimodular, multiplicative, invariant under good
    permutations, and reduce to the word phase"""
    for x in [index_pq(1, 0), index_pq(1, 1), index_pq(2, 0), index_pq(2, 1)]:
        depth = SMALL_DEPTH
        g = _random_step(cfg, depth, rng)
        h = _random_step(cfg, depth, rng)
        slots = x.slots()
        for assignment in itertools.product(all_words(depth), repeat=len(slots)):
            val = spectral.phase_at(x, g, assignment)
            ok = _close(cfg, scalars.abs2(val), 1)
            ok = ok and _close(cfg, spectral.phase_at(x, g * h, assignment),
                               val * spectral.phase_at(x, h, assignment))
            for perm in spectral.good_permutations(x):
                moved = tuple(assignment[i] for i in perm)
                ok = ok and _close(cfg, spectral.phase_at(x, g, moved), val)
            r.case(ok, index=x, assignment=assignment)
    for level in range(1, min(cfg.level_max, 2) + 1):
        for w in _basis(level, min(cfg.degree_max, 3)):
            g = _random_step(cfg, level, rng)
            p, q = w.degrees
            x = index_pq(p, q)
            for cell in steps.support_cells(w):
                assignment = cell.right + cell.left
                r.case(_close(cfg, spectral.phase_at(x, g, assignment),
                              g.character(w.charges())), word=w, cell=cell)


def spectral_tensor_product(cfg, rng, r):
    """tensor products sum prod (x+y)(k)! pairings and multiply masses; uniform
    measures tensor to scaled uniforms"""
    for x, y in itertools.combinations_with_replacement(_CATALOG, 2):
        if (x + y).total() > 4:
            continue
        count = spectral.pairing_count(x, y)
        expected = math.prod(math.factorial(c) for _, c in (x + y).items)
        depth = SMALL_DEPTH
        mu = DepthMeasure.uniform(x, depth)
        nu = DepthMeasure.uniform(y, depth)
        prod = mu.tensor(nu)
        ok = (count == expected
              and prod == DepthMeasure.uniform(x + y, depth).scaled_mass(
                  Fraction(count))
              and prod.mass() == count * mu.mass() * nu.mass())
        cells = itertools.product(all_words(depth), repeat=len(x.slots()))
        weights = {cell: Fraction(rng.randrange(1, 5), 8)
                   for cell in itertools.islice(cells, 3)}
        rand_mu = DepthMeasure(x, depth, weights)
        ok = ok and (rand_mu.tensor(nu).mass()
                     == count * rand_mu.mass() * nu.mass())
        r.case(ok, x=x, y=y, pairings=count, expected=expected)


def spectral_relabeling(cfg, rng, r):
    """relabeling rescales levels, preserves mass, and composes"""
    for x in _CATALOG:
        for m in (-2, -1, 1, 2):
            mu = DepthMeasure.uniform(x, SMALL_DEPTH)
            moved = mu.relabel(m)
            ok = (moved.index == x.scaled(m) and moved.mass() == mu.mass()
                  and moved.relabel(-1) == mu.relabel(-m))
            if m == -1:
                ok = ok and x.scaled(-1) == _flip(x)
            r.case(ok, index=x, m=m)


def spectral_spectral_table(cfg, rng, r):
    """the maximal spectral type is the uniform product measure exactly on the
    unit-domain rows at multiplicity one"""
    for x in _RICHER:
        for j in (1, 2, 3):
            mu = spectral.spectral_form(x, j, depth=SMALL_DEPTH)
            expect_nonzero = (j == 1 and x.has_unit_domain())
            ok = (not mu.is_zero) is expect_nonzero
            if expect_nonzero:
                ok = ok and mu.mass() == 1 and mu.is_good_invariant()
            r.case(ok, index=x, j=j, nonzero=not mu.is_zero)


def spectral_constraint_grid(cfg, rng, r):
    """the relabeled tensor is dominated exactly when every factor is
    unit-domain with unit coefficient, or vanishes"""
    coeffs = (-2, -1, 1, 2)
    cases = ([((m,), (x,)) for m in coeffs for x in _CATALOG]
             + [((m1, m2), (x1, x2))
                for m1 in coeffs for m2 in coeffs
                for x1 in _CATALOG for x2 in _CATALOG])
    for ms, xs in cases:
        report = spectral.check_constraint(ms, xs)
        lhs_zero = any(not x.has_unit_domain() for x in xs)
        expected = lhs_zero or all(abs(m) == 1 for m in ms)
        r.case(report.holds is expected and report.lhs_zero is lhs_zero,
               coefficients=ms, indices=tuple(str(x) for x in xs),
               holds=report.holds, expected=expected)


def spectral_compatibility(cfg, rng, r):
    """uniform families are coherent, good-invariant, with nonincreasing
    diagonal cylinder masses"""
    depth_cap = min(3, cfg.depth_max)
    for x in [index_pq(1, 0), index_pq(1, 1), index_pq(2, 0)]:
        family = [spectral.spectral_form(x, 1, d) for d in range(1, depth_cap + 1)]
        coherent, good, diagonals = _compatibility(family)
        strict = all(all(a > b for a, b in zip(seq, seq[1:]))
                     for seq in diagonals.values())
        r.case(coherent and good and strict,
               index=x, diagonals={str(k): [str(f) for f in v]
                                   for k, v in diagonals.items()})
    # coherent across depths, but not symmetric under swapping the slots
    x = index_pq(2, 0)
    lopsided = [DepthMeasure(x, d, {(make_word(u), make_word(v)): Fraction(1)})
                for d, u, v in ((1, "0", "1"), (2, "01", "11"))]
    coherent, good, _ = _compatibility(lopsided)
    r.case(coherent and not good, control="lopsided")


def _compatibility(family: List[DepthMeasure]):
    """(coherent, good-invariant, diagonal masses) of one measure per depth,
    listed at consecutive depths: whether each coarsens to the one before,
    whether each is invariant under the good permutations, and each slot
    pair's diagonal masses in depth order."""
    coherent = all(deeper.coarsened() == shallower
                   for shallower, deeper in zip(family, family[1:]))
    good = all(mu.is_good_invariant() for mu in family)
    diagonals: Dict[tuple, List[Fraction]] = {}
    for mu in family:
        for pair, mass in mu.diagonal_masses().items():
            diagonals.setdefault(pair, []).append(mass)
    return coherent, good, diagonals


def _flip(x: IndexFunction) -> IndexFunction:
    return IndexFunction.of({-k: c for k, c in x.items})


# ------------------------------------------------------------------ simulate

def _moment_polys() -> List[gauss.GaussPoly]:
    """The polynomials of the sampling checks."""
    z = gauss.GaussPoly.variable
    root = make_word("")
    w0, w1 = make_word("0"), make_word("1")
    w00, w01 = make_word("00"), make_word("01")
    return [
        z(root) * z(root).conj(),
        z(w0) * z(w0).conj(),
        z(root) * z(w0).conj(),
        z(root) * z(w00).conj(),
        z(w0) * z(w1).conj(),
        (z(w0) * z(w0).conj()) * (z(w0) * z(w0).conj()),
        (z(w0) * z(w0).conj()) * (z(w00) * z(w00).conj()),
        (z(w0) * z(w0).conj()) * (z(w1) * z(w1).conj()),
        z(w0) * z(w0) * (z(w0).conj() * z(w0).conj()),
        (z(root) + z(w00)) * (z(root) + z(w00)).conj(),
        (z(w0) + 2 * z(w01)) * (z(w0) + 2 * z(w01)).conj(),
        z(w00) * z(w00).conj() * z(w00) * z(w00).conj() * z(w00) * z(w00).conj(),
        (z(w0) * z(w1)) * (z(w0) * z(w1)).conj(),
        (z(w0) * z(w1)) * (z(w0) * z(w1)).conj() * z(w00) * z(w00).conj(),
        z(w0) * z(w0) * z(w00).conj() * z(w00).conj(),
        z(w0) * z(w0) * z(w0) * z(w0).conj() * z(w0).conj() * z(w0).conj(),
        (z(root) * z(w01).conj()) * (z(w01) * z(w01).conj()),
        z(w01) * z(w01).conj() + 3 * z(w0) * z(w1).conj(),
        (z(w0) - z(w1)) * (z(w0) - z(w1)).conj(),
        z(w00) * z(w00) * z(w00).conj() * z(w00).conj() * z(w01) * z(w01).conj(),
    ]


def _moment_targets() -> List[Tuple[gauss.GaussPoly, complex]]:
    """The sampling polynomials with their exact means."""
    return [(p, complex(gauss.moment(p))) for p in _moment_polys()]


def _tree_residuals(leaves: np.ndarray, depth: int) -> np.ndarray:
    """Each sample's largest violation of f(s) = (f(s0) + f(s1))/sqrt2 over
    the interior words, on the columns the estimator reads."""
    words = [w for length in range(depth + 1) for w in all_words(length)]
    cols = montecarlo._variable_columns(leaves, depth, words)
    worst = np.zeros(len(leaves))
    for w in words[:2 ** depth - 1]:  # the interior words
        avg = (cols[child(w, 0)] + cols[child(w, 1)]) * 2.0 ** -0.5
        np.maximum(worst, np.abs(cols[w] - avg), out=worst)
    return worst


def simulate_tree_residual(cfg, rng, r):
    """sampled trees satisfy the child-averaging relation to rounding error,
    before and after a torus step"""
    depth = min(SAMPLE_DEPTH, cfg.depth_max)
    g = _random_step(cfg, SMALL_DEPTH, rng)
    leaves = montecarlo.sample_trees(depth, 20, cfg.seed)
    before = _tree_residuals(leaves, depth)
    after = _tree_residuals(leaves * montecarlo._leaf_phases(g, depth), depth)
    for i, (res, moved) in enumerate(zip(before.tolist(), after.tolist())):
        r.case(res <= 1e-12 and moved <= 1e-12, sample=i, residual=res,
               moved_residual=moved)


def simulate_determinism(cfg, rng, r):
    """a seed fixes the sample stream bit for bit; batching does not enter the
    estimates"""
    depth = min(SAMPLE_DEPTH, cfg.depth_max)
    poly = gauss.GaussPoly.variable(make_word("0"))
    poly = poly * poly.conj()
    a = montecarlo.estimate(poly, 3000, depth, seed=cfg.seed)
    b = montecarlo.estimate(poly, 3000, depth, seed=cfg.seed)
    c = montecarlo.estimate(poly, 3000, depth, seed=cfg.seed + 1)
    pair = montecarlo.estimate_many([poly, poly.conj() * poly], 3000, depth,
                                    seed=cfg.seed)
    r.case(a.mean == b.mean and a.std_error == b.std_error, kind="repeat")
    r.case(a.mean != c.mean, kind="reseed")
    r.case(pair[0].mean == a.mean, kind="shared-stream")


def simulate_moment_agreement(cfg, rng, r):
    """empirical means land within three standard errors of the exact moments,
    up to one allowed excursion"""
    depth = min(SAMPLE_DEPTH, cfg.depth_max)
    targets = _moment_targets()
    estimates = montecarlo.estimate_many([p for p, _ in targets], cfg.samples,
                                         depth, seed=cfg.seed)
    hits = 0
    for (poly, exact), est in zip(targets, estimates):
        ok = est.within(exact, 3.0)
        hits += ok
        r.case(True, poly=poly, exact=exact, mean=est.mean,
               std_error=est.std_error, within=ok)
    if hits < len(targets) - 1:
        r.failures.append({"within_three_sigma": f"{hits}/{len(targets)}"})


def simulate_composed_agreement(cfg, rng, r):
    """estimating under a torus step matches estimating the composed polynomial
    on the same stream"""
    depth = min(SAMPLE_DEPTH, cfg.depth_max)
    # eighth-root phases keep the composed polynomial's moment exact
    g = TorusStep.random_eighth_roots(2, rng)
    for poly in _moment_polys()[:6]:
        base = gauss.refine(poly, max(2, poly.max_word_length()))
        composed = gauss.koopman(g, base)
        direct = montecarlo.estimate(base, 20_000, depth, seed=cfg.seed, step=g)
        via_poly = montecarlo.estimate(composed, 20_000, depth, seed=cfg.seed)
        scale = max(1.0, abs(via_poly.mean))
        ok = abs(direct.mean - via_poly.mean) <= 1e-8 * scale
        ok = ok and direct.within(complex(gauss.moment(composed)), 4.0)
        r.case(ok, poly=poly, direct=direct.mean, composed=via_poly.mean)


# ----------------------------------------------------------------- dispatch

# command -> (suite, help line, checks in report order)
SUITES: Dict[str, Tuple[str, str, List[Callable]]] = {
    "verify-fock": (
        "fock", "word combinatorics, norms, embeddings, and the torus action",
        [fock_symbol_conjugation, fock_admissible_enumeration, fock_variant_count,
         fock_norm_product, fock_norm_split, fock_embed_isometry,
         fock_embed_orthogonality, fock_act_unitary]),
    "verify-alpha": (
        "alpha", "the step-function realization on the product of trees",
        [alpha_support_measure, alpha_support_disjoint, alpha_realization_isometry,
         alpha_realization_gram, alpha_multinomial_split, alpha_torus_equivariance,
         alpha_block_symmetry, alpha_point_separation]),
    "verify-beta": (
        "beta", "the Gaussian polynomial realization and its moments",
        [beta_realization_gram, beta_refine_moment, beta_koopman_unitary,
         beta_torus_equivariance, beta_pairing_oracle]),
    "verify-coherence": (
        "coherence", "consistency of the realizations across levels",
        [coherence_embed_step, coherence_embed_gauss, coherence_embed_equivariance,
         coherence_cross_gram]),
    "verify-density": (
        "density", "expansion remainders and their exact decay rates",
        [density_remainder_rate, density_power_expansion, density_disjoint_product]),
    "verify-spectral": (
        "spectral", "grid measures, tensor products, and the constraint grid",
        [spectral_good_permutations, spectral_phase_action, spectral_tensor_product,
         spectral_relabeling, spectral_spectral_table, spectral_constraint_grid,
         spectral_compatibility]),
    "simulate": (
        "simulate", "Monte Carlo cross-checks of exact moments",
        [simulate_tree_residual, simulate_determinism, simulate_moment_agreement,
         simulate_composed_agreement]),
}


def _label(suite: str, check: Callable) -> Tuple[str, str]:
    """A check's name in the report, its function name without the suite
    prefix and dashed, and its statement, its docstring on one line."""
    return (check.__name__[len(suite) + 1:].replace("_", "-"),
            " ".join(check.__doc__.split()))


def run_command(command: str, cfg: RunConfig) -> List[SuiteReport]:
    """One report per check of the command, each run under its own guard."""
    suite, _, checks = SUITES[command]
    rng = random.Random(cfg.seed + list(SUITES).index(command))
    reports = [SuiteReport(suite, *_label(suite, check)) for check in checks]
    for check, r in zip(checks, reports):
        try:
            check(cfg, rng, r)
        except CapExceeded as exc:
            r.failures.append({"cap": str(exc)})
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            r.failures.append({"exception": type(exc).__name__,
                               "message": str(exc),
                               "where": f"{os.path.basename(frame.filename)}:"
                                        f"{frame.lineno} in {frame.name}"})
    return reports


COMMANDS: Dict[str, Callable[[RunConfig], List[SuiteReport]]] = {
    command: partial(run_command, command) for command in SUITES}
