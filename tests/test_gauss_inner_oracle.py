"""Gaussian inner products by charge matching against product-then-moment.

``gauss.inner`` pairs a monomial of p only with the monomials of q that
carry its charge vector; the oracle in ``product_moment`` builds the whole
product p * conj(q) and takes its moment.  On exact polynomials the two
must agree literally, across constants, variables of mixed levels, and
variables with a == b, whose charge is zero and must drop out of the
matching.  Both must also be Hermitian: inner(p, q) == conj(inner(q, p)).
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import product_moment as oracle
from treefock import gauss, scalars
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.scalars import ExactComplex, QSqrt2
from treefock.words import all_words, make_word

# words of lengths 0 to 2, so one polynomial can mix levels
WORDS = [w for n in range(3) for w in all_words(n)]

small = st.integers(-3, 3)
exact = st.one_of(
    small,
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.builds(lambda a, b, c, d: ExactComplex(QSqrt2(a, b), QSqrt2(c, d)),
              small, small, small, small),
)


@st.composite
def monomials(draw):
    """Up to two variables, total degree at most 3; empty is the constant."""
    exps = draw(st.dictionaries(st.sampled_from(WORDS),
                                st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                max_size=2))
    if sum(a + b for a, b in exps.values()) > 3:
        exps = dict(list(exps.items())[:1])
    return GaussMonomial.of(exps)


polys = st.dictionaries(monomials(), exact, max_size=3).map(GaussPoly)

z = GaussPoly.variable
e, w0, w1, w01 = (make_word(t) for t in ("", "0", "1", "01"))
# |z_0|^2 has charge zero: its pairing with a constant is E|z_0|^2 = 1
abs2 = z(w0) * z(w0).conj()


@settings(max_examples=150, deadline=None)
@given(polys, polys)
@example(GaussPoly.constant(3), GaussPoly.constant(ExactComplex(1, 2)))
@example(abs2, GaussPoly.constant(1))
@example(abs2 * z(w1), z(w1))
@example(z(e) * z(w01), z(w0).conj() * z(w01))
def test_inner_agrees_with_product_oracle(p, q):
    got = gauss.inner(p, q)
    assert got == oracle.inner(p, q)
    assert got == scalars.conj(gauss.inner(q, p))
    assert oracle.inner(p, q) == scalars.conj(oracle.inner(q, p))


def test_zero_charge_words_drop_out_of_the_match():
    assert gauss.inner(abs2, GaussPoly.constant(1)) == 1
    assert gauss.inner(abs2 * z(w1), z(w1)) == 1
    assert gauss.inner(abs2, abs2) == 2  # E|z|^4
    # z_e refines to (z_0 + z_1)/sqrt2, so E[z_e * conj(z_0)] = 1/sqrt2
    assert gauss.inner(z(e), z(w0)) == QSqrt2(0, Fraction(1, 2))
