"""Monte Carlo sampling of the Gaussian tree and empirical moment estimates.

A sample is a row of independent standard complex Gaussians on the 2**K
depth-K leaves, and the leaf array is the only sampled tree.  Every word s
above the leaves is read off its leaf block as 2**(-gap/2) times the block's
sum, gap = K - len(s): the averaging identity f(s) = (f(s0)+f(s1))/sqrt2
unrolled, so every finite tree satisfies the defining constraint up to
float rounding.  A torus step acts by multiplying each leaf by the step's
value on its cell.

Streams come from the counter-based Philox generator keyed by the seed and
are drawn sample-major: sample i takes the next 2 * 2**depth normals, leaf by
leaf as (real, imaginary) pairs.  Sample i therefore does not depend on how
many samples are drawn at once: row i of ``sample_trees`` is the tree that
``estimate_many`` sees as sample i for the same seed, an estimate over n
samples averages the first n of them, and estimates are bit-reproducible
for a given (seed, samples, depth).

Polynomial evaluation is vectorized over fixed-size blocks of samples.
Each block reads its variables off the leaves, builds the powers of every
variable and of its conjugate once, then each distinct factor
z^a conj(z)^b once, and forms every monomial as its coefficient times the
product of its factors.

While the calling thread evaluates one block, one producer thread draws the
next, one block ahead; a call whose samples fit in one block starts no
thread.  The generator is touched by one thread at a time, in stream order,
and every block is evaluated by the same arithmetic in the same order, so
the estimates are bit-identical to drawing and evaluating each block in
turn, and the promises above still hold.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceeded
from .gauss import GaussPoly
from .words import TorusStep, Word, all_words, word_index, word_length

MAX_SAMPLE_DEPTH = 16
# samples drawn and evaluated together
_BLOCK = 1 << 12

_SQRT_HALF = 2.0 ** -0.5


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw_leaves(gen: np.random.Generator, leaves: np.ndarray) -> None:
    """Fill a C-contiguous (samples, leaves) complex array from the stream.

    The draw is sample-major, each leaf taking the next two normals as its
    real and imaginary parts, so sample i is the same however many samples
    one call fills.
    """
    gen.standard_normal(out=leaves.view(np.float64))
    leaves *= _SQRT_HALF


def sample_trees(depth: int, count: int, seed: int = 0) -> np.ndarray:
    """The (count, 2**depth) leaves of the first ``count`` samples of the
    stream; row i is sample i however many are taken."""
    if depth < 0 or depth > MAX_SAMPLE_DEPTH:
        raise CapExceeded(f"sample depth outside 0..{MAX_SAMPLE_DEPTH}")
    leaves = np.empty((count, 2 ** depth), dtype=complex)
    _draw_leaves(_generator(seed), leaves)
    return leaves


def _leaf_phases(g: Optional[TorusStep], depth: int) -> Optional[np.ndarray]:
    if g is None:
        return None
    if g.level > depth:
        raise ValueError("step is finer than the sampled depth")
    return np.array([complex(g.value_at(w)) for w in all_words(depth)])


def _variable_columns(leaves: np.ndarray, depth: int,
                      variables: Sequence[Word]) -> Dict[Word, np.ndarray]:
    """Each variable's values over the samples: a leaf's own column, and
    above the leaves the normalized sum of the word's leaf block."""
    cols: Dict[Word, np.ndarray] = {}
    for w in variables:
        gap = depth - word_length(w)
        if gap < 0:
            raise ValueError("variable deeper than the sampled depth")
        lo = word_index(w) << gap
        if gap == 0:
            cols[w] = np.ascontiguousarray(leaves[:, lo])
        else:
            cols[w] = leaves[:, lo:lo + (1 << gap)].sum(axis=1) * (2.0 ** (-gap / 2.0))
    return cols


Factor = Tuple[Word, int, int]


def _plan(polys: Sequence[GaussPoly]) -> Tuple[List[Factor], List[list]]:
    """The distinct factors (w, a, b) of the polynomials' monomials in order
    of first use, and each polynomial as (coefficient, factor positions)."""
    index: Dict[Factor, int] = {}
    plans = [[(complex(c), tuple(index.setdefault(e, len(index)) for e in mono.exps))
              for mono, c in p.terms.items()] for p in polys]
    return list(index), plans


def _factor_values(cols: Dict[Word, np.ndarray],
                   factors: Sequence[Factor]) -> List[np.ndarray]:
    """z_w^a conj(z_w)^b for each factor, over the block's samples.

    The powers of z_w and of conj(z_w) come from repeated multiplication, so
    a factor's values do not depend on which other factors are built.
    """
    top: Dict[Word, Tuple[int, int]] = {}
    for w, a, b in factors:
        ta, tb = top.get(w, (0, 0))
        top[w] = (max(ta, a), max(tb, b))
    powers: Dict[Word, Tuple[list, list]] = {}
    for w, (ta, tb) in top.items():
        z = cols[w]
        up, down = [None, z], [None, np.conj(z) if tb else None]
        for _ in range(2, ta + 1):
            up.append(up[-1] * z)
        for _ in range(2, tb + 1):
            down.append(down[-1] * down[1])
        powers[w] = (up, down)
    table = []
    for w, a, b in factors:
        up, down = powers[w]
        table.append(down[b] if not a else up[a] if not b else up[a] * down[b])
    return table


class _DrawAhead:
    """Blocks 0, 1, ..., count - 1 of ``draw``, in order, each one drawn while
    the caller evaluates the one before.

    Block 0 is drawn inline.  If there are more, one producer thread draws
    them in order from then on, so one thread at a time calls ``draw``, in
    stream order.  ``draw(k)`` may reuse the storage of block k - 2, so the
    producer starts block k + 1 only once the caller has released block
    k - 1.  An exception the producer meets is raised by ``take``; ``close``
    stops the producer and joins it.
    """

    def __init__(self, draw: Callable[[int], np.ndarray], count: int) -> None:
        self._draw = draw
        self._count = count
        self._drawn = deque([draw(0)])
        self._ready = threading.Semaphore(1)  # blocks drawn and not yet taken
        self._free = threading.Semaphore(1)   # storage the producer may fill
        self._error: Optional[BaseException] = None
        self._stop = False
        self._thread = None
        if count > 1:
            self._thread = threading.Thread(target=self._produce, daemon=True)
            self._thread.start()

    def _produce(self) -> None:
        try:
            for k in range(1, self._count):
                self._free.acquire()
                if self._stop:
                    return
                self._drawn.append(self._draw(k))
                self._ready.release()
        except BaseException as exc:  # re-raised in the caller by take()
            self._error = exc
            self._ready.release()

    def take(self) -> np.ndarray:
        """The next block, once it is drawn."""
        self._ready.acquire()
        if not self._drawn:
            raise self._error
        return self._drawn.popleft()

    def release(self) -> None:
        """Let the producer reuse the storage of the block before the one
        last taken."""
        self._free.release()

    def close(self) -> None:
        self._stop = True
        self._free.release()
        if self._thread is not None:
            self._thread.join()


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
    """Estimates for several polynomials over one shared sample stream.

    Each polynomial's estimate is bit-identical to the one ``estimate`` gives
    for it alone, whatever else shares the call and in whatever order.
    """
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
    count = -(-samples // _BLOCK)
    size = min(_BLOCK, samples)
    buffers = [np.empty((size, 2 ** depth), dtype=complex) for _ in range(min(count, 2))]

    def draw(k: int) -> np.ndarray:
        # block k's leaves, phases applied, in the buffer of block k - 2
        leaves = buffers[k % 2][:min(size, samples - k * size)]
        _draw_leaves(gen, leaves)
        if phases is not None:
            leaves *= phases
        return leaves

    vals = np.empty(size, dtype=complex)
    scratch = np.empty(size, dtype=complex)
    sums = [0.0 + 0.0j for _ in polys]
    # running (mean, M2) over the samples seen so far, merged block by block
    # with the pairwise update of Chan, Golub and LeVeque (1983).  M2 is the
    # sum of |x - mean|^2, which keeps the precision that
    # sum |x|^2 - n |mean|^2 loses to cancellation when |mean| is large.
    means = [0.0 + 0.0j for _ in polys]
    m2s = [0.0 for _ in polys]
    seen = 0
    blocks = _DrawAhead(draw, count)
    try:
        for _ in range(count):
            leaves = blocks.take()
            n = len(leaves)
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
                # numpy's pairwise summation keeps the block totals stable
                total = complex(v.sum())
                sums[i] += total
                b_mean = total / n
                np.subtract(v, b_mean, out=tmp)
                b_m2 = float(np.square(np.abs(tmp)).sum())
                delta = b_mean - means[i]
                means[i] += delta * (n / (seen + n))
                m2s[i] += b_m2 + abs(delta) ** 2 * (seen * n / (seen + n))
            seen += n
            blocks.release()
    finally:
        blocks.close()
    out = []
    for i in range(len(polys)):
        var = m2s[i] / max(samples - 1, 1)
        out.append(Estimate(sums[i] / samples, math.sqrt(var / samples), samples))
    return out
