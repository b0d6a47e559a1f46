"""The linear structure Fock vectors, step functions and polynomials share."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefock import fock, gauss, scalars, steps
from treefock.fock import FockVector
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.scalars import ExactComplex, QSqrt2
from treefock.steps import GridCell, StepSum
from treefock.words import (AdmissibleWord, TorusStep, all_words, enumerate_admissible,
                            make_word)

W = AdmissibleWord.parse

# For each type: a constructor from a terms dict, and keys in one frame.
KINDS = {
    "fock": (lambda terms: FockVector(1, terms), list(enumerate_admissible(1, 2))),
    "step": (lambda terms: StepSum(1, terms),
             [GridCell(1, (a, b), ()) for a in all_words(1) for b in all_words(1)]
             + [GridCell(1, (a,), (b,)) for a in all_words(1) for b in all_words(1)]),
    "gauss": (GaussPoly, [GaussMonomial.of({make_word(w): (a, b)})
                          for w in ("0", "1") for a in (0, 1) for b in (0, 2)]),
}

small = st.integers(-3, 3)
exact = st.one_of(
    small,
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.builds(lambda a, b, c, d: ExactComplex(QSqrt2(a, b), QSqrt2(c, d)),
              small, small, small, small),
)


def combinations(kind):
    build, keys = KINDS[kind]
    return st.dictionaries(st.sampled_from(keys), exact, max_size=len(keys)).map(build)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), c=exact)
def test_linear_structure_is_exact(kind, data, c):
    u = data.draw(combinations(kind))
    v = data.draw(combinations(kind))
    assert (u + v) - v == u
    assert -u == (-1) * u
    assert c * (u + v) == c * u + c * v
    assert not (u - u).terms
    assert all(x != 0 for x in (c * u).terms.values())


def exact_and_float(kind):
    """One exact and one float combination of the given type, same frame."""
    word = W("0 0 1*")
    v = fock.basic(word)
    vf = fock.basic(word, scalars.FLOAT)
    if kind == "fock":
        return v, vf
    if kind == "step":
        return steps.from_fock(v), steps.from_fock(vf)
    return gauss.from_fock(v), gauss.from_fock(vf)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_float_scalar_times_exact_combination_raises(kind):
    u, uf = exact_and_float(kind)
    with pytest.raises(TypeError, match="float scalar times an exact"):
        0.5 * u
    with pytest.raises(TypeError, match="float scalar times an exact"):
        u.scaled(1j)
    assert (0.5 * uf).backend() == scalars.FLOAT
    assert (Fraction(1, 2) * u).backend() == scalars.EXACT


@pytest.mark.parametrize("kind, inner", [("fock", fock.inner),
                                         ("step", StepSum.inner),
                                         ("gauss", gauss.inner)])
def test_inner_product_of_exact_and_float_raises(kind, inner):
    u, uf = exact_and_float(kind)
    with pytest.raises(TypeError):
        inner(u, uf)
    with pytest.raises(TypeError):
        inner(uf, u)
    assert inner(uf, uf) == pytest.approx(complex(inner(u, u)))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sum_of_exact_and_float_raises(kind):
    u, uf = exact_and_float(kind)
    other = {"fock": lambda x: fock.basic(W("0 1"), x),
             "step": lambda x: steps.from_fock(fock.basic(W("0 1"), x)),
             "gauss": lambda x: gauss.from_fock(fock.basic(W("0 1"), x))}[kind]
    # disjoint keys too: the sum would keep an exact coefficient in a
    # combination whose backend reads float
    for a, b in ((u, uf), (uf, u), (ExactComplex(1, 1) * u, complex(1) * other(scalars.FLOAT)),
                 (other(scalars.FLOAT), u)):
        with pytest.raises(TypeError, match="cannot combine"):
            a + b
        with pytest.raises(TypeError, match="cannot combine"):
            a - b
    # an empty combination carries no scalars and adds to either backend
    for x in (u, uf):
        assert x + x._like({}) == x == x._like({}) + x


@pytest.mark.parametrize("kind, act", [
    ("fock", fock.act),
    ("step", lambda g, f: f.act(g)),
    ("gauss", gauss.koopman),
], ids=["fock.act", "StepSum.act", "gauss.koopman"])
def test_step_of_the_other_backend_cannot_act(kind, act):
    u, uf = exact_and_float(kind)
    g = TorusStep.from_eighth_root_indices([1, 2])
    gf = TorusStep.from_angles([0.5, 2.0])
    with pytest.raises(TypeError, match="step cannot act"):
        act(gf, u)
    with pytest.raises(TypeError, match="step cannot act"):
        act(g, uf)
    act(g, u)  # matching backends act as before
    act(gf, uf)


def test_adding_across_frames_raises():
    with pytest.raises(ValueError):
        fock.basic(W("0")) + fock.basic(W("00"))
    with pytest.raises(ValueError):
        fock.inner(fock.basic(W("0")), fock.basic(W("00")))
    f = steps.from_fock(fock.basic(W("0 1")))
    with pytest.raises(ValueError):
        f + f.refine()
    with pytest.raises(ValueError):
        f - f.refine()
    with pytest.raises(ValueError):
        f.inner(f.refine())
    assert f != f.refine()  # one function, but step sums at two depths
    assert f + f == 2 * f


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_backend_cache_follows_each_result(kind):
    u, uf = exact_and_float(kind)
    g = TorusStep.from_eighth_root_indices([1, 2])
    gf = TorusStep.from_angles([0.5, 2.0])
    for x, want in ((u, scalars.EXACT), (uf, scalars.FLOAT)):
        assert x.backend() == want  # fills the cache
        assert x.scaled(2).backend() == want
        assert (-x).backend() == want
        assert (x + x).backend() == want
        assert x.acted(g if want == scalars.EXACT else gf).backend() == want
    # a result built in the same frame computes its own backend
    assert u._like(uf.terms).backend() == scalars.FLOAT
    assert uf._like(u.terms).backend() == scalars.EXACT
    assert u._like({}).backend() == scalars.EXACT
    # mixing still raises once both caches are full
    inner = {"fock": fock.inner, "step": StepSum.inner, "gauss": gauss.inner}[kind]
    with pytest.raises(TypeError):
        inner(u, uf)
    with pytest.raises(TypeError):
        inner(uf, u)
    with pytest.raises(TypeError, match="float scalar times an exact"):
        0.5 * u
    with pytest.raises(TypeError, match="step cannot act"):
        u.acted(gf)
    with pytest.raises(TypeError, match="step cannot act"):
        uf.acted(g)
