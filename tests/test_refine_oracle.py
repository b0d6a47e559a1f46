"""Refinement by one substitution loop against cached powers.

``gauss.refine`` multiplies each factor's normalized sum of descendants in
one at a time; the oracle in ``pow_refine`` caches each variable's
substitution and raises it to a power first.  On exact polynomials over
words of lengths 0 to 2, with exponents up to 3 on both sides, the two must
agree literally at every target level up to 3; on float copies of the same
polynomials they must agree within FLOAT_TOL.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pow_refine as oracle
from treefock import gauss, scalars
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.scalars import ExactComplex, QSqrt2
from treefock.suites import FLOAT_TOL
from treefock.words import all_words, make_word, word_length

WORDS = [w for n in range(3) for w in all_words(n)]

small = st.integers(-3, 3)
exact = st.one_of(
    small,
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.builds(lambda a, b, c, d: ExactComplex(QSqrt2(a, b), QSqrt2(c, d)),
              small, small, small, small),
)
monomials = st.dictionaries(st.sampled_from(WORDS),
                            st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            max_size=2).map(GaussMonomial.of)
polys = st.dictionaries(monomials, exact, max_size=3).map(GaussPoly)

# expansions above this many monomials only slow the test down
MAX_EXPANSION = 3000


def expansion_bound(p: GaussPoly, level: int) -> int:
    """An upper bound on the monomials of ``refine(p, level)``."""
    return sum(math.prod(math.comb(n + a - 1, a) * math.comb(n + b - 1, b)
                         for n, a, b in ((2 ** (level - word_length(w)), a, b)
                                         for w, a, b in m.exps))
               for m in p.terms)


def float_copy(p: GaussPoly) -> GaussPoly:
    return GaussPoly({m: complex(scalars.to_complex(c)) for m, c in p.terms.items()})


def close(p: GaussPoly, q: GaussPoly) -> bool:
    return all(abs(complex(p[m]) - complex(q[m])) <= FLOAT_TOL
               for m in set(p.terms) | set(q.terms))


z = GaussPoly.variable
e, w0, w1, w01 = (make_word(t) for t in ("", "0", "1", "01"))


@settings(max_examples=150, deadline=None)
@given(polys, st.integers(0, 3))
@example(GaussPoly.constant(ExactComplex(1, 2)), 3)
@example(z(e) * z(e).conj(), 2)                       # a == b
@example(z(e) * z(w01) + z(w1).conj() * z(w1).conj(), 2)  # a variable at the target
@example(z(w01) * z(w01).conj() + 2 * z(e), 3)
def test_refine_agrees_with_pow_oracle(p, level):
    level = max(level, p.max_word_length())
    assume(expansion_bound(p, level) <= MAX_EXPANSION)
    got = gauss.refine(p, level)
    assert got == oracle.refine(p, level)
    assert all(word_length(w) == level for m in got.terms for w in m.words())
    f = float_copy(p)
    got_float = gauss.refine(f, level)
    assert close(got_float, oracle.refine(f, level))
    assert close(got_float, float_copy(got))


def test_refine_keeps_a_polynomial_at_the_target_and_refuses_deeper_ones():
    p = z(w0) * z(w1).conj()
    assert gauss.refine(p, 1) is p
    assert gauss.refine(GaussPoly.constant(3), 2) == GaussPoly.constant(3)
    with pytest.raises(ValueError):
        gauss.refine(z(w01), 1)
    with pytest.raises(ValueError):
        oracle.refine(z(w01), 1)
