"""Per-sample Monte Carlo oracles: the pairwise tree, the pointwise
evaluator and the per-monomial estimator.

``tree_values`` fills one sample's tree upward from its leaves by the
averaging identity f(s) = (f(s0) + f(s1))/sqrt2, word by word, and
``evaluate`` computes a polynomial's value on it monomial by monomial.
``treefock.montecarlo`` instead reads every variable off its leaf block in
one vectorized sum; tests check that it agrees with these on every word and
that an estimate averages ``evaluate`` over the first rows of the stream.

Before the power tables in ``treefock.montecarlo``, ``estimate_many`` built
every monomial afresh for every polynomial: a coefficient-filled array times
``z ** a * np.conj(z) ** b`` for each of its variables, in batches of 2**14
samples.  ``estimate_many`` below is that loop, unchanged apart from drawing
each batch through the package's sample-major ``_draw_leaves``, so that both
evaluators read the same stream.  Tests check the block evaluator against it.

Before ``treefock.montecarlo`` drew the next block on a producer thread,
``estimate_many`` drew each block and only then evaluated it, in one thread.
``serial_estimate_many`` below is that loop, unchanged.  It does the same
arithmetic on the same stream, so tests require the threaded estimates to
equal it bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from treefock.errors import CapExceeded
from treefock.gauss import GaussPoly
from treefock.montecarlo import (_BLOCK, MAX_SAMPLE_DEPTH, Estimate, _draw_leaves,
                                 _factor_values, _generator, _leaf_phases, _plan,
                                 _variable_columns)
from treefock.words import TorusStep, Word, word_length
from tuple_words import all_words, code, from_code

_BATCH = 1 << 14


def tree_values(depth: int, leaves: Sequence[complex]) -> Dict[Word, complex]:
    """Every word's value in one sample, filled upward from its leaves over
    tuple words and keyed by int code."""
    values = {w: complex(z) for w, z in zip(all_words(depth), leaves)}
    for length in range(depth - 1, -1, -1):
        for w in all_words(length):
            values[w] = (values[w + (0,)] + values[w + (1,)]) * 2.0 ** -0.5
    return {code(w): z for w, z in values.items()}


def evaluate(poly: GaussPoly, values: Mapping[Word, complex]) -> complex:
    """The polynomial's value at one point, monomial by monomial."""
    out = 0j
    for mono, c in poly.terms.items():
        term = complex(c)
        for w, a, b in mono.exps:
            term *= values[w] ** a * values[w].conjugate() ** b
        out += term
    return out


def estimate_many(polys: Sequence[GaussPoly], samples: int, depth: int,
                  seed: int = 0, step: Optional[TorusStep] = None) -> list:
    """Estimates for several polynomials over one shared sample stream."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if depth < 0 or depth > MAX_SAMPLE_DEPTH:
        raise CapExceeded(f"sample depth outside 0..{MAX_SAMPLE_DEPTH}")
    variables = sorted({w for p in polys for w in p.variables()})
    if any(len(from_code(w)) > depth for w in variables):
        raise ValueError("variable deeper than the sampled depth")
    coeffs = [[(m, complex(c)) for m, c in p.terms.items()] for p in polys]
    phases = _leaf_phases(step, depth)
    gen = _generator(seed)
    width = 2 ** depth
    sums = [0.0 + 0.0j for _ in polys]
    means = [0.0 + 0.0j for _ in polys]
    m2s = [0.0 for _ in polys]
    seen = 0
    remaining = samples
    while remaining:
        batch = min(_BATCH, remaining)
        leaves = np.empty((batch, width), dtype=complex)
        _draw_leaves(gen, leaves)
        if phases is not None:
            leaves = leaves * phases
        cols = _variable_columns(leaves, depth, variables)
        for i, terms in enumerate(coeffs):
            vals = np.zeros(batch, dtype=complex)
            for mono, c in terms:
                term = np.full(batch, c, dtype=complex)
                for w, a, b in mono.exps:
                    z = cols[w]
                    if a:
                        term = term * z ** a
                    if b:
                        term = term * np.conj(z) ** b
                vals = vals + term
            total = complex(vals.sum())
            sums[i] += total
            b_mean = total / batch
            b_m2 = float(np.square(np.abs(vals - b_mean)).sum())
            delta = b_mean - means[i]
            means[i] += delta * (batch / (seen + batch))
            m2s[i] += b_m2 + abs(delta) ** 2 * (seen * batch / (seen + batch))
        seen += batch
        remaining -= batch
    out = []
    for i in range(len(polys)):
        var = m2s[i] / max(samples - 1, 1)
        out.append(Estimate(sums[i] / samples, math.sqrt(var / samples), samples))
    return out


def serial_estimate_many(polys: Sequence[GaussPoly], samples: int, depth: int,
                         seed: int = 0, step: Optional[TorusStep] = None) -> list:
    """Estimates for several polynomials, each block drawn and then
    evaluated in the calling thread."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if depth < 0 or depth > MAX_SAMPLE_DEPTH:
        raise CapExceeded(f"sample depth outside 0..{MAX_SAMPLE_DEPTH}")
    variables = sorted({w for p in polys for w in p.variables()})
    if any(word_length(w) > depth for w in variables):
        raise ValueError("variable deeper than the sampled depth")
    phases = _leaf_phases(step, depth)
    if not polys:
        return []
    factors, plans = _plan(polys)
    gen = _generator(seed)
    block = np.empty((min(_BLOCK, samples), 2 ** depth), dtype=complex)
    vals = np.empty(len(block), dtype=complex)
    scratch = np.empty(len(block), dtype=complex)
    sums = [0.0 + 0.0j for _ in polys]
    means = [0.0 + 0.0j for _ in polys]
    m2s = [0.0 for _ in polys]
    seen = 0
    while seen < samples:
        n = min(len(block), samples - seen)
        leaves = block[:n]
        _draw_leaves(gen, leaves)
        if phases is not None:
            leaves *= phases
        table = _factor_values(_variable_columns(leaves, depth, variables), factors)
        v, tmp = vals[:n], scratch[:n]
        for i, plan in enumerate(plans):
            v.fill(0)
            for c, idx in plan:
                if not idx:
                    v += c
                    continue
                np.multiply(table[idx[0]], c, out=tmp)
                for j in idx[1:]:
                    np.multiply(tmp, table[j], out=tmp)
                v += tmp
            total = complex(v.sum())
            sums[i] += total
            b_mean = total / n
            np.subtract(v, b_mean, out=tmp)
            b_m2 = float(np.square(np.abs(tmp)).sum())
            delta = b_mean - means[i]
            means[i] += delta * (n / (seen + n))
            m2s[i] += b_m2 + abs(delta) ** 2 * (seen * n / (seen + n))
        seen += n
    out = []
    for i in range(len(polys)):
        var = m2s[i] / max(samples - 1, 1)
        out.append(Estimate(sums[i] / samples, math.sqrt(var / samples), samples))
    return out
