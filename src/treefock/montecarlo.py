"""Monte Carlo sampling of the Gaussian tree and empirical moment estimates.

A sample draws independent standard complex Gaussians on the depth-K leaves
and fills interior words by the averaging identity f(s) = (f(s0)+f(s1))/sqrt2,
so every finite tree satisfies the defining constraint up to float rounding.
A torus step acts by multiplying each leaf by the step's value on its cell,
after which the interior is recomputed.

Streams come from the counter-based Philox generator keyed by the seed, and
batches always consume the stream in sample order with a fixed internal batch
size, so estimates are bit-reproducible for a given (seed, samples, depth).
Polynomial evaluation is vectorized: a variable above the leaves is read off
as the normalized sum of its leaf block, which agrees with the pairwise
averaging up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceeded
from .gauss import GaussPoly
from .words import TorusStep, Word, all_words, word_index

MAX_SAMPLE_DEPTH = 16
_BATCH = 1 << 14

_SQRT_HALF = 2.0 ** -0.5


@dataclass
class TreeSample:
    """One realization of the tree down to ``depth``."""

    depth: int
    values: Dict[Word, complex]

    def residual(self) -> float:
        """Largest violation of f(s) = (f(s0) + f(s1))/sqrt2 over interior words."""
        worst = 0.0
        for w, v in self.values.items():
            if len(w) == self.depth:
                continue
            avg = (self.values[w + (0,)] + self.values[w + (1,)]) * _SQRT_HALF
            worst = max(worst, abs(v - avg))
        return worst


def _interior_from_leaves(depth: int, leaves: Sequence[complex]) -> Dict[Word, complex]:
    values: Dict[Word, complex] = {w: complex(z) for w, z in zip(all_words(depth), leaves)}
    for length in range(depth - 1, -1, -1):
        for w in all_words(length):
            values[w] = (values[w + (0,)] + values[w + (1,)]) * _SQRT_HALF
    return values


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw_leaves(gen: np.random.Generator, count: int, width: int) -> np.ndarray:
    re = gen.standard_normal((count, width))
    im = gen.standard_normal((count, width))
    return (re + 1j * im) * _SQRT_HALF


def sample_tree(depth: int, seed: int = 0) -> TreeSample:
    """One sample at the given depth, deterministic in the seed."""
    if depth < 0 or depth > MAX_SAMPLE_DEPTH:
        raise CapExceeded(f"sample depth outside 0..{MAX_SAMPLE_DEPTH}")
    leaves = _draw_leaves(_generator(seed), 1, 2 ** depth)[0]
    return TreeSample(depth, _interior_from_leaves(depth, leaves))


def sample_trees(depth: int, count: int, seed: int = 0) -> Iterator[TreeSample]:
    """A stream of samples; sample i is independent of how many are taken."""
    if depth < 0 or depth > MAX_SAMPLE_DEPTH:
        raise CapExceeded(f"sample depth outside 0..{MAX_SAMPLE_DEPTH}")
    gen = _generator(seed)
    width = 2 ** depth
    for _ in range(count):
        leaves = _draw_leaves(gen, 1, width)[0]
        yield TreeSample(depth, _interior_from_leaves(depth, leaves))


def act(g: TorusStep, tree: TreeSample) -> TreeSample:
    """The boolean action: phase the leaves, then re-average upward."""
    if g.level > tree.depth:
        raise ValueError("step is finer than the sampled depth")
    leaves = [complex(g.value_at(w)) * tree.values[w] for w in all_words(tree.depth)]
    return TreeSample(tree.depth, _interior_from_leaves(tree.depth, leaves))


def _leaf_phases(g: Optional[TorusStep], depth: int) -> Optional[np.ndarray]:
    if g is None:
        return None
    if g.level > depth:
        raise ValueError("step is finer than the sampled depth")
    return np.array([complex(g.value_at(w)) for w in all_words(depth)])


def _variable_columns(leaves: np.ndarray, depth: int,
                      variables: Sequence[Word]) -> Dict[Word, np.ndarray]:
    cols: Dict[Word, np.ndarray] = {}
    for w in variables:
        gap = depth - len(w)
        if gap < 0:
            raise ValueError("variable deeper than the sampled depth")
        lo = word_index(w) << gap
        if gap == 0:
            cols[w] = leaves[:, lo]
        else:
            cols[w] = leaves[:, lo:lo + (1 << gap)].sum(axis=1) * (2.0 ** (-gap / 2.0))
    return cols


@dataclass
class Estimate:
    mean: complex
    std_error: float
    samples: int

    def within(self, exact, sigmas: float = 3.0) -> bool:
        err = abs(self.mean - complex(exact))
        if self.std_error == 0.0:
            return err == 0.0
        return err <= sigmas * self.std_error


def estimate(poly: GaussPoly, samples: int, depth: int, seed: int = 0,
             step: Optional[TorusStep] = None) -> Estimate:
    """Empirical mean of the polynomial (composed with ``step`` if given)."""
    return estimate_many([poly], samples, depth, seed, step)[0]


def estimate_many(polys: Sequence[GaussPoly], samples: int, depth: int,
                  seed: int = 0, step: Optional[TorusStep] = None) -> list:
    """Estimates for several polynomials over one shared sample stream."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if depth < 0 or depth > MAX_SAMPLE_DEPTH:
        raise CapExceeded(f"sample depth outside 0..{MAX_SAMPLE_DEPTH}")
    variables = sorted({w for p in polys for w in p.variables()})
    if any(len(w) > depth for w in variables):
        raise ValueError("variable deeper than the sampled depth")
    coeffs = [[(m, complex(c)) for m, c in p.terms.items()] for p in polys]
    phases = _leaf_phases(step, depth)
    gen = _generator(seed)
    width = 2 ** depth
    sums = [0.0 + 0.0j for _ in polys]
    # running (mean, M2) over the samples seen so far, merged batch by batch
    # with the pairwise update of Chan, Golub and LeVeque (1983).  M2 is the
    # sum of |x - mean|^2, which keeps the precision that
    # sum |x|^2 - n |mean|^2 loses to cancellation when |mean| is large.
    means = [0.0 + 0.0j for _ in polys]
    m2s = [0.0 for _ in polys]
    seen = 0
    remaining = samples
    while remaining:
        batch = min(_BATCH, remaining)
        leaves = _draw_leaves(gen, batch, width)
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
            # numpy's pairwise summation keeps the batch totals stable
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
