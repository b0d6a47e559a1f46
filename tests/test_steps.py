"""Step functions on the product grid: support, Gram transport, action."""

import itertools
import random
from fractions import Fraction

import pytest

from treefock import fock, scalars, steps
from treefock.scalars import ExactComplex, QSqrt2
from treefock.steps import GridCell, StepSum
from treefock.words import AdmissibleWord, TorusStep, enumerate_admissible, make_word

W = AdmissibleWord.parse
w0, w1 = make_word("0"), make_word("1")


def test_grid_cell_basics():
    c = GridCell(1, (w0, w1), ())
    assert c.degrees == (2, 0)
    assert c.mass == Fraction(1, 4)
    kids = list(c.children())
    assert len(kids) == 4
    assert all(k.depth == 2 and k.mass == Fraction(1, 16) for k in kids)
    with pytest.raises(ValueError):
        GridCell(2, (w0,), ())


def test_grid_cell_rejects_non_binary_coordinates():
    # a coordinate is a word code: 1 is the root, nothing lies below it
    for left, right in (((0,), ()), ((w0,), (-1,)), ((w0, 0), ())):
        with pytest.raises(ValueError):
            GridCell(1, left, right)
    for left in ([(0,)], [(0, 3)], [w0 + 0.0]):
        with pytest.raises(TypeError):
            GridCell(1, tuple(left), ())
    assert GridCell(1, (w1,), (w0,)).degrees == (1, 1)


def test_support_frozen_examples():
    w = W("0 0 1*")
    cells = steps.support_cells(w)
    assert cells == [GridCell(1, (w0, w0), (w1,))]
    assert steps.support_measure(w) == Fraction(1, 8)
    v = W("0 1")
    assert len(steps.support_cells(v)) == 2
    assert steps.support_measure(v) == Fraction(1, 2)


def test_from_fock_stores_power_of_sqrt2_times_gram():
    # stored value: coeff * prod(m_s!) * sqrt2^(n*l), shape constant implicit
    cases = [
        (W("0 0 1*"), 3, QSqrt2(0, 12)),                # n*l = 3: 3 * 2! * 2*sqrt2
        (W("00 01"), ExactComplex(1, 1), ExactComplex(4, 4)),  # n*l = 4: (1+i) * 4
    ]
    for word, coeff, want in cases:
        part = steps.from_fock(coeff * fock.basic(word)).components[word.degrees]
        assert part.terms == {cell: want for cell in steps.support_cells(word)}


def test_inner_applies_mass_and_shape_constant():
    a_cell = GridCell(1, (w0, w1), (w0,))
    b_cell = GridCell(1, (w1, w0), (w0,))
    c_cell = GridCell(1, (w1, w1), (w1,))
    f = StepSum(1, {a_cell: 3, b_cell: ExactComplex(0, 1), c_cell: 5})
    g = StepSum(1, {a_cell: 2, b_cell: ExactComplex(1, 1)})
    acc = 3 * 2 + ExactComplex(0, 1) * ExactComplex(1, -1)
    # cell mass 1/2^3, shape constant 1/(2! 1!)
    assert f.inner(g) == Fraction(1, 16) * acc
    assert g.inner(f) == scalars.conj(f.inner(g))


def test_constructor_validates_cells():
    # from_fock and refine build from cells valid by construction and skip
    # this check; the public constructor keeps it
    cell = GridCell(1, (w0, w1), (w0,))
    assert StepSum(1, {cell: 1}).terms == {cell: 1}
    with pytest.raises(ValueError, match="wrong depth"):
        StepSum(2, {cell: 1})


def test_norm_transport_level1():
    for degree in range(1, 5):
        for w in enumerate_admissible(1, degree):
            b = fock.basic(w)
            assert steps.from_fock(b).norm2() == fock.norm2(b)


def test_gram_transport_level1():
    words = list(enumerate_admissible(1, 3))
    images = [steps.from_fock(fock.basic(w)) for w in words]
    for i, j in itertools.combinations_with_replacement(range(len(words)), 2):
        want = 0 if i != j else fock.norm2(fock.basic(words[i]))
        assert images[i].inner(images[j]) == want


def test_refine_is_the_same_function():
    # a step sum lives at one depth, so compare at the finer one: every
    # child cell carries its parent's value
    f = steps.from_fock(fock.basic(W("0 0 1*")))
    g = f.refine()
    assert g.depth == f.depth + 1
    assert g == StepSum(g.depth, {child: v for cell, v in f.terms.items()
                                  for child in cell.children()})
    assert g.norm2() == f.norm2()
    assert g.refine().norm2() == f.norm2()


def test_embed_coherence_examples():
    for text in ("0", "0 0", "0 1*", "0 0 1*"):
        b = fock.basic(W(text))
        assert steps.from_fock(b).refine() == steps.from_fock(fock.embed(b))


def test_block_symmetry():
    for degree in range(1, 4):
        for w in enumerate_admissible(1, degree):
            f = steps.from_fock(fock.basic(w))
            assert all(part.is_block_symmetric() for part in f.components.values())


def test_act_equivariance_and_unitarity():
    rng = random.Random(2)
    for _ in range(20):
        g = TorusStep.random_eighth_roots(1, rng)
        w = W("0 0 1*")
        v = ExactComplex(1, 1) * fock.basic(w) + 2 * fock.basic(W("0 1 1"))
        f = steps.from_fock(v)
        assert steps.from_fock(fock.act(g, v)) == f.act(g)
        assert f.act(g).norm2() == f.norm2()


def test_act_phase_constant_on_support():
    g = TorusStep.from_eighth_root_indices([2, 5])
    w = W("0 1 1")
    f = steps.from_fock(fock.basic(w))
    moved = f.act(g)
    phase = g.character(w.charges())
    part, moved_part = f.components[(3, 0)], moved.components[(3, 0)]
    for cell, val in part.terms.items():
        assert moved_part.terms[cell] == phase * val


def test_act_needs_enough_depth():
    f = steps.from_fock(fock.basic(W("0")))
    g = TorusStep.from_eighth_root_indices([0, 3, 0, 5])  # level 2
    with pytest.raises(ValueError):
        f.act(g)
    refined = f.refine()
    assert refined.act(g).norm2() == f.norm2()


def test_scalar_and_linear_structure():
    f = steps.from_fock(fock.basic(W("0 1")))
    g = steps.from_fock(fock.basic(W("0 0")))
    s = f + g
    assert s.inner(s) == f.norm2() + g.norm2()  # distinct words stay orthogonal
    assert (2 * f).norm2() == 4 * f.norm2()
    assert not (s - f - g).terms


def test_float_backend_values_and_norms():
    for degree in range(1, 4):
        for w in enumerate_admissible(1, degree):
            v = fock.basic(w, backend=scalars.FLOAT)
            f = steps.from_fock(v)
            assert all(scalars.backend_of(val) == scalars.FLOAT
                       for val in f.terms.values())
            assert f.norm2() == pytest.approx(fock.norm2(v), rel=1e-12, abs=1e-12)


def mixed_shapes():
    """A level-1 step sum with cells of the shapes (2, 1), (2, 0) and (1, 0)."""
    v = (fock.basic(W("0 0 1*")) + ExactComplex(1, 1) * fock.basic(W("0 1"))
         + 3 * fock.basic(W("1")))
    return steps.from_fock(v)


def test_components_partition_the_cells_by_shape():
    f = mixed_shapes()
    parts = f.components
    assert set(parts) == {(2, 1), (2, 0), (1, 0)}
    for shape, part in parts.items():
        assert type(part) is StepSum and part.depth == f.depth
        assert part.terms == {c: v for c, v in f.terms.items() if c.degrees == shape}
    assert sum(len(part.terms) for part in parts.values()) == len(f.terms)
    total = StepSum(f.depth, {})
    for part in parts.values():
        total = total + part
    assert total == f
    assert f.values is f.terms


def test_inner_is_the_sum_of_block_inners():
    f = mixed_shapes()
    g = steps.from_fock(2 * fock.basic(W("0 0 1*")) + fock.basic(W("1"))
                        + fock.basic(W("0 0")))
    fp, gp = f.components, g.components
    for a, b, ap, bp in ((f, g, fp, gp), (g, f, gp, fp), (f, f, fp, fp)):
        assert a.inner(b) == sum(part.inner(bp[shape]) for shape, part in ap.items()
                                 if shape in bp)
    assert f.inner(g) != 0
