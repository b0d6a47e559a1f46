"""Differential oracle for ``gauss.refine``: substitution through cached powers.

``refine`` here works on the tuple spelling of each word (``tuple_words``),
builds each variable's substitution once per call, caches
it by word, and raises it to the a-th and b-th power through ``_pow``
before multiplying it in; a variable already at the target level is
multiplied in as one monomial.  ``gauss.refine`` multiplies the normalized
sum of descendants in one factor at a time instead.
"""

from typing import Dict

from treefock import scalars
from treefock.errors import CapExceeded
from treefock.gauss import DEFAULT_MAX_TERMS, GaussMonomial, GaussPoly
from treefock.words import MAX_WORD_LENGTH, Word
from tuple_words import all_words, code, from_code


def _pow(p: GaussPoly, n: int, max_terms: int) -> GaussPoly:
    out = GaussPoly.constant(1)
    for _ in range(n):
        out = out * p
        if len(out.terms) > max_terms:
            raise CapExceeded(f"expansion above {max_terms} monomials")
    return out


def refine(p: GaussPoly, level: int, max_terms: int = DEFAULT_MAX_TERMS) -> GaussPoly:
    """Rewrite ``p`` using only level-``level`` variables.

    Each variable z_w with len(w) < level becomes the normalized sum of the
    variables on its depth-``level`` descendants; the polynomial identity
    behind ``embed`` on the Fock side.
    """
    if level > MAX_WORD_LENGTH:
        raise CapExceeded(f"refinement beyond depth {MAX_WORD_LENGTH}")
    if p.max_word_length() > level:
        raise ValueError("polynomial already uses variables deeper than the target")
    if all(len(from_code(w)) == level for m in p.terms for w in m.words()):
        return p
    backend = p.backend()
    out = GaussPoly.zero()
    subst_cache: Dict[Word, GaussPoly] = {}
    for mono, coeff in p.terms.items():
        acc = GaussPoly.constant(coeff)
        for w, a, b in mono.exps:
            gap = level - len(from_code(w))
            if gap == 0:
                acc = acc * GaussPoly({GaussMonomial.of({w: (a, b)}): 1})
            else:
                subst = subst_cache.get(w)
                if subst is None:
                    scale = scalars.sqrt2_pow(-gap, backend)
                    subst = GaussPoly({GaussMonomial.of({code(from_code(w) + t): (1, 0)}):
                                       scale for t in all_words(gap)})
                    subst_cache[w] = subst
                if a:
                    acc = acc * _pow(subst, a, max_terms)
                if b:
                    acc = acc * _pow(subst.conj(), b, max_terms)
            if len(acc.terms) > max_terms:
                raise CapExceeded(f"expansion above {max_terms} monomials")
        out = out + acc
        if len(out.terms) > max_terms:
            raise CapExceeded(f"expansion above {max_terms} monomials")
    return out
