"""Differential oracle for the Gaussian inner product: product, then moment.

``inner`` refines both polynomials to a common level, builds the whole
product polynomial p * conj(q), and takes its moment by the diagonal rule
E[z^a conj(z)^b] = a! if a == b else 0, monomial by monomial.
``gauss.inner`` pairs monomials by charge instead and never builds the
product; ``gauss.moment`` goes through ``gauss.inner``, so the oracle
applies the rule itself.
"""

import math

from treefock import gauss
from treefock.gauss import GaussPoly


def moment(p: GaussPoly):
    """E[p] for a polynomial whose variables share one level."""
    acc = 0
    for mono, coeff in p.terms.items():
        if all(a == b for _, a, b in mono.exps):
            acc = acc + coeff * math.prod(math.factorial(a) for _, a, _ in mono.exps)
    return acc


def inner(p: GaussPoly, q: GaussPoly):
    level = max(p.max_word_length(), q.max_word_length())
    return moment(gauss.refine(p, level) * gauss.refine(q, level).conj())
