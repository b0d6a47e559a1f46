"""The permutation-loop tensor product, kept as a differential oracle.

Before the coset sum in ``treefock.spectral``, ``DepthMeasure.tensor`` added
one transposed copy of the laid-out product per good permutation of the
target, prod (x(k)+y(k))! array additions.  The function below is that
method body, unchanged, with the same caps in the same order.
"""

import numpy as np

from treefock import spectral
from treefock.errors import CapExceeded
from treefock.spectral import DepthMeasure


def tensor(mu: DepthMeasure, nu: DepthMeasure) -> DepthMeasure:
    """Sum over the good permutations of x + y of the laid-out product."""
    if nu.depth != mu.depth:
        raise ValueError("tensor product needs equal depths")
    target = mu.index + nu.index
    pairings = spectral._permutation_count(target)
    ops = (pairings * max(1, np.count_nonzero(mu.counts))
           * max(1, np.count_nonzero(nu.counts)))
    if ops > spectral.DEFAULT_MAX_TENSOR_OPS:
        raise CapExceeded(f"tensor product size {ops} exceeds the cap "
                          f"{spectral.DEFAULT_MAX_TENSOR_OPS}")
    shape = spectral._grid_shape(target, mu.depth)
    spectral._check_int64(pairings * int(mu.counts.sum()) * int(nu.counts.sum()))
    keys = list(mu.index.slots()) + [(k, mu.index.get(k) + i)
                                     for k, i in nu.index.slots()]
    layout = np.multiply.outer(mu.counts, nu.counts).transpose(
        sorted(range(len(keys)), key=keys.__getitem__))
    out = np.zeros(shape, dtype=np.int64)
    for perm in spectral._good_permutations(target, spectral.DEFAULT_MAX_TENSOR_OPS):
        out += layout.transpose(perm)
    return DepthMeasure._of(target, mu.depth, out, mu.den * nu.den)
