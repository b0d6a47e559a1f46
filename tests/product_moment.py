"""Differential oracle for the Gaussian inner product: product, then moment.

``inner`` refines both polynomials to a common level, builds the whole
product polynomial p * conj(q), and takes its moment by the diagonal rule.
``gauss.inner`` pairs monomials by charge instead and never builds the
product.
"""

from treefock import gauss
from treefock.gauss import GaussPoly


def inner(p: GaussPoly, q: GaussPoly):
    level = max(p.max_word_length(), q.max_word_length())
    return gauss.moment(gauss.refine(p, level) * gauss.refine(q, level).conj())
