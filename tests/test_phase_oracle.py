"""Every torus-action path against the phase loops in ``phase_oracle``.

``fock.act``, ``StepSum.act``, ``gauss.koopman`` and ``spectral.phase_at``
all reach ``TorusStep.character`` through a key's ``charges()``.  Each path,
and ``character`` on each key type directly, must agree with the oracle loop
for that key type: literally on the exact backend, within 1e-12 on the float
backend.  A second check needs neither: an eighth-root step's character is
the eighth root of the charge-weighted sum of the step's indices.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import phase_oracle
import tuple_words as tw
from treefock import fock, gauss, scalars, spectral
from treefock.gauss import GaussMonomial, GaussPoly
from treefock.scalars import EIGHTH_ROOTS, EXACT, FLOAT
from treefock.spectral import IndexFunction
from treefock.steps import GridCell, StepSum
from treefock.words import AdmissibleWord, Symbol, TorusStep

MAX_DEPTH = 3


def words(length):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length).map(tw.code)


@st.composite
def steps(draw, backend=None):
    backend = backend or draw(st.sampled_from([EXACT, FLOAT]))
    level = draw(st.integers(0, 2))
    if backend == EXACT:
        indices = draw(st.lists(st.integers(0, 7), min_size=2 ** level,
                                max_size=2 ** level))
        return TorusStep.from_eighth_root_indices(indices)
    angles = draw(st.lists(st.floats(0, 2 * math.pi), min_size=2 ** level,
                           max_size=2 ** level))
    return TorusStep.from_angles(angles)


@st.composite
def admissible_words(draw, depth):
    entries = draw(st.lists(words(depth), min_size=1, max_size=4))
    marked = draw(st.sets(st.sampled_from(entries)))
    return AdmissibleWord(tuple(Symbol(w, w in marked) for w in entries))


@st.composite
def grid_cells(draw, depth):
    left = draw(st.lists(words(depth), max_size=3))
    right = draw(st.lists(words(depth), max_size=3))
    return GridCell(depth, tuple(left), tuple(right))


@st.composite
def monomials(draw, depth):
    exps = draw(st.dictionaries(words(depth), st.tuples(st.integers(0, 3),
                                                        st.integers(0, 3)),
                                max_size=3))
    return GaussMonomial.of(exps)


@st.composite
def slot_assignments(draw, depth):
    levels = st.integers(1, 3).flatmap(lambda k: st.sampled_from([k, -k]))
    x = IndexFunction.of(draw(st.dictionaries(levels, st.integers(1, 2),
                                              min_size=1, max_size=3)))
    assignment = tuple(draw(st.lists(words(depth), min_size=len(x.slots()),
                                     max_size=len(x.slots()))))
    return x, assignment


@st.composite
def step_and_depth(draw, backend=None):
    g = draw(steps(backend))
    return g, draw(st.integers(max(g.level, 1), MAX_DEPTH))


def agree(g, got, want):
    if g.backend == EXACT:
        assert got == want
    else:
        assert abs(complex(got) - complex(want)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(data=st.data(), gd=step_and_depth())
def test_fock_act_matches_word_oracle(data, gd):
    g, depth = gd
    w = data.draw(admissible_words(depth))
    want = phase_oracle.word_phase(g, w)
    agree(g, g.character(w.charges()), want)
    agree(g, fock.act(g, fock.basic(w, g.backend))[w], want)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), gd=step_and_depth())
def test_step_function_act_matches_cell_oracle(data, gd):
    g, depth = gd
    cell = data.draw(grid_cells(depth))
    want = phase_oracle.cell_phase(g, cell)
    agree(g, g.character(cell.charges()), want)
    f = StepSum(depth, {cell: scalars.one(g.backend)})
    agree(g, f.act(g)[cell], want)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), gd=step_and_depth())
def test_koopman_matches_monomial_oracle(data, gd):
    g, depth = gd
    mono = data.draw(monomials(depth))
    want = phase_oracle.monomial_phase(g, mono)
    agree(g, g.character(mono.charges()), want)
    # every variable already sits at ``depth`` >= g.level, so koopman does
    # not refine and the monomial keeps its key
    p = GaussPoly({mono: scalars.one(g.backend)})
    agree(g, gauss.koopman(g, p)[mono], want)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), gd=step_and_depth())
def test_phase_at_matches_slot_oracle(data, gd):
    g, depth = gd
    x, assignment = data.draw(slot_assignments(depth))
    agree(g, spectral.phase_at(x, g, assignment),
          phase_oracle.slot_phase(g, x, assignment))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), level=st.integers(0, 2))
def test_eighth_root_character_is_the_weighted_index_sum(data, level):
    e = data.draw(st.lists(st.integers(0, 7), min_size=2 ** level,
                           max_size=2 ** level))
    g = TorusStep.from_eighth_root_indices(e)
    depth = data.draw(st.integers(max(level, 1), MAX_DEPTH))
    charges = data.draw(st.one_of(
        st.lists(st.tuples(words(depth), st.integers(-5, 5)), max_size=4),
        admissible_words(depth).map(AdmissibleWord.charges),
        grid_cells(depth).map(GridCell.charges),
        monomials(depth).map(GaussMonomial.charges)))
    total = sum(k * e[tw.word_index(tw.from_code(w)[:level])] for w, k in charges)
    assert g.character(charges) == EIGHTH_ROOTS[total % 8]
