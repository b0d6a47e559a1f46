"""Mutation tests: a broken library function must fail the check meant to
catch it.

Each mutant monkeypatches one function in ``treefock`` and runs only the
command that holds its check, at the default configuration.  The named check
must fail on a counterexample, and no check may record an exception, since
none of the mutants raises one: a check that fails only by crashing would
show nothing about what it compares.  Unmutated, every check passes in
``test_suites.test_suite_passes_at_small_caps`` and, at the defaults, in the
pinned report ``tests/data/all-defaults.csv`` that CI compares.

The spectral caches are emptied before and after each mutant, so that a
measure, permutation or tensor plan built by unmutated code never hides a
mutant, and none built by a mutant outlives it.

The word mutants misplace bits in the functions that hold the word
arithmetic; they spell the wrong word through ``tuple_words``.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

import tuple_words as tw
from treefock import fock, gauss, montecarlo, spectral, steps, suites, words
from treefock.spectral import DepthMeasure
from treefock.steps import GridCell
from treefock.suites import COMMANDS, SUITES, RunConfig
from treefock.words import MARK, AdmissibleWord, TorusStep, all_words


def _moment_plus_one(monkeypatch):
    moment = gauss.moment
    monkeypatch.setattr(gauss, "moment", lambda p: moment(p) + 1)


def _doubled_remainder(monkeypatch):
    remainder = gauss.expansion_remainder
    monkeypatch.setattr(gauss, "expansion_remainder",
                        lambda k, m, depth: remainder(k, m, depth).scaled(2))


def _always_uniform(monkeypatch):
    monkeypatch.setattr(spectral, "spectral_form",
                        lambda x, j=1, depth=1: DepthMeasure.uniform(x, depth))


def _first_child_coarsening(monkeypatch):
    # right on uniform measures, where every child carries the same weight
    def coarsened(self):
        slots = self.counts.ndim
        split = self.counts.reshape((2 ** (self.depth - 1), 2) * slots)
        first = split[(slice(None), 0) * slots]
        return DepthMeasure._of(self.index, self.depth - 1, first * 2 ** slots,
                                self.den)
    monkeypatch.setattr(DepthMeasure, "coarsened", coarsened)


def _constant_diagonals(monkeypatch):
    # every diagonal carries the whole mass, so it cannot shrink with depth
    monkeypatch.setattr(DepthMeasure, "diagonal_mass", lambda self, i, j: self.mass())


def _last_permutation_dropped(monkeypatch):
    good_permutations = spectral.good_permutations
    monkeypatch.setattr(spectral, "good_permutations",
                        lambda x, max_count=spectral.DEFAULT_MAX_PERMUTATIONS:
                        good_permutations(x, max_count)[:-1])


def _last_pairing_dropped(monkeypatch):
    # tensor's coset sum skips the last stage, the swaps with the last copy
    # of the last level that has more than one
    tensor_plan = spectral._tensor_plan

    def dropped(x, y):
        target, pairings, order, blocks = tensor_plan(x, y)
        if blocks:
            start, stop = blocks[-1]
            blocks = blocks[:-1] + ((start, stop - 1),)
        return target, pairings, order, blocks
    monkeypatch.setattr(spectral, "_tensor_plan", dropped)


def _multiplicity_ignored(monkeypatch):
    # a unit-domain x gets the uniform measure at every j
    spectral_form = spectral.spectral_form
    monkeypatch.setattr(spectral, "spectral_form", lambda x, j=1, depth=1: spectral_form(
        x, 1 if x.has_unit_domain() else j, depth))


def _relabel_by_abs(monkeypatch):
    # a negative factor relabels as its absolute value
    relabel = DepthMeasure.relabel
    monkeypatch.setattr(DepthMeasure, "relabel", lambda self, m: relabel(self, abs(m)))


def _every_multiset(monkeypatch):
    # enumeration without the admissibility filter: a word may appear both
    # marked and unmarked
    admissible = words.enumerate_admissible

    def enumerate_admissible(level, degree):
        codes = [*all_words(level), *(w | MARK for w in all_words(level))]
        for combo in itertools.combinations_with_replacement(codes, degree):
            yield AdmissibleWord._trusted(combo)
    monkeypatch.setattr(words, "enumerate_admissible", enumerate_admissible)
    monkeypatch.setattr(suites, "enumerate_admissible", enumerate_admissible)
    # The other checks keep the admissible basis, in a cache of its own: the
    # shared one never holds a mutated word, and norm-split and
    # embed-isometry would otherwise stop at the AdmissibleWord constructor.
    monkeypatch.setattr(suites, "_basis", lru_cache(maxsize=None)(
        lambda level, degree_max: tuple(w for l in range(1, degree_max + 1)
                                        for w in admissible(level, l))))


def _step_reads_the_suffix(monkeypatch):
    # the last ``level`` bits of the word instead of its first ones
    def value_at(self, w):
        bits = tw.from_code(w)
        return self.values[tw.word_index(bits[len(bits) - self.level:])]
    monkeypatch.setattr(TorusStep, "value_at", value_at)


def _child_bit_in_front(monkeypatch):
    def children(self):
        kids = [[tw.code((b,) + tw.from_code(w)) for b in (0, 1)]
                for w in self.left + self.right]
        p = len(self.left)
        for coords in itertools.product(*kids):
            yield GridCell._trusted(self.depth + 1, coords[:p], coords[p:])
    monkeypatch.setattr(GridCell, "children", children)


def _descendant_bits_in_front(monkeypatch):
    # refine's substitution takes t + w for w + t
    monkeypatch.setattr(gauss, "descendants", lambda w, gap: [
        tw.code(t + tw.from_code(w)) for t in tw.all_words(gap)])


def _reversed_columns(monkeypatch):
    # each variable reads the leaf block of its reversed word
    columns = montecarlo._variable_columns

    def reversed_columns(leaves, depth, variables):
        flip = {w: tw.code(tw.from_code(w)[::-1]) for w in variables}
        cols = columns(leaves, depth, sorted(set(flip.values())))
        return {w: cols[flip[w]] for w in variables}
    monkeypatch.setattr(montecarlo, "_variable_columns", reversed_columns)


def _seed_ignored(monkeypatch):
    monkeypatch.setattr(montecarlo, "_generator",
                        lambda seed: np.random.Generator(np.random.Philox(key=0)))


def _conjugated_phases(monkeypatch):
    leaf_phases = montecarlo._leaf_phases

    def conjugated(g, depth):
        phases = leaf_phases(g, depth)
        return None if phases is None else phases.conj()
    monkeypatch.setattr(montecarlo, "_leaf_phases", conjugated)


def _bits_reversed(monkeypatch):
    # the last entry takes the first bit
    append_all = AdmissibleWord.append_all
    monkeypatch.setattr(AdmissibleWord, "append_all",
                        lambda self, bits: append_all(self, bits[::-1]))


def _unit_binomials(monkeypatch):
    # only fock's view of math: the suites' closed forms use the real comb
    monkeypatch.setattr(fock, "math", SimpleNamespace(comb=lambda n, k: 1))


def _unsigned_charges(monkeypatch):
    # marked letters charge +m instead of -m
    monkeypatch.setattr(AdmissibleWord, "charges", lambda self: [
        (s.word, m) for s, m in self.symbol_multiplicities().items()])


def _weight_p_factorial_squared(monkeypatch):
    def weight(depth, p, q, backend):
        return Fraction(1, 2 ** (depth * (p + q)) * math.factorial(p) ** 2)
    monkeypatch.setattr(steps, "_weight", weight)


def _one_arrangement_dropped(monkeypatch):
    # a word with a single arrangement keeps it, so its support stays nonempty
    support_cells = steps.support_cells
    monkeypatch.setattr(steps, "support_cells",
                        lambda word: support_cells(word)[:-1] or support_cells(word))


def _variants_not_deduplicated(monkeypatch):
    # every permutation of each block, repeats and all
    monkeypatch.setattr(AdmissibleWord, "variants", lambda self: [
        (a, b) for a in itertools.permutations(self.unmarked_words())
        for b in itertools.permutations(self.marked_words())])


def _swapped_blocks_in_support(monkeypatch):
    # a (p, p) support also covers each cell with its two blocks swapped
    support_cells = steps.support_cells

    def with_swapped(word):
        cells = support_cells(word)
        p, q = word.degrees
        if p != q:
            return cells
        return cells + [GridCell._trusted(c.depth, c.right, c.left) for c in cells]
    monkeypatch.setattr(steps, "support_cells", with_swapped)


def _uncentered_norm(monkeypatch):
    def remainder_rate(k, m, depth):
        r = gauss.expansion_remainder(k, m, depth)
        return gauss.moment(r), gauss.inner(r, r)
    monkeypatch.setattr(gauss, "remainder_rate", remainder_rate)


MUTANTS = [
    (_bits_reversed, "verify-fock", "norm-split"),
    (_unit_binomials, "verify-fock", "embed-isometry"),
    (_unsigned_charges, "verify-alpha", "torus-equivariance"),
    (_unsigned_charges, "verify-fock", "act-unitary"),
    (_unsigned_charges, "verify-beta", "torus-equivariance"),
    (_weight_p_factorial_squared, "verify-alpha", "realization-isometry"),
    (_one_arrangement_dropped, "verify-alpha", "support-measure"),
    (_uncentered_norm, "verify-density", "remainder-rate"),
    (_moment_plus_one, "verify-density", "remainder-rate"),
    (_doubled_remainder, "verify-density", "power-expansion"),
    (_always_uniform, "verify-spectral", "constraint-grid"),
    (_first_child_coarsening, "verify-spectral", "compatibility"),
    (_constant_diagonals, "verify-spectral", "compatibility"),
    (_step_reads_the_suffix, "verify-coherence", "embed-equivariance"),
    (_child_bit_in_front, "verify-coherence", "embed-step"),
    (_descendant_bits_in_front, "verify-coherence", "embed-gauss"),
    (_reversed_columns, "simulate", "tree-residual"),
    (_last_permutation_dropped, "verify-spectral", "good-permutations"),
    (_relabel_by_abs, "verify-spectral", "relabeling"),
    (_last_pairing_dropped, "verify-spectral", "tensor-product"),
    (_multiplicity_ignored, "verify-spectral", "spectral-table"),
    (_every_multiset, "verify-fock", "admissible-enumeration"),
    (_seed_ignored, "simulate", "determinism"),
    (_moment_plus_one, "verify-beta", "pairing-oracle"),
    (_conjugated_phases, "simulate", "composed-agreement"),
    (_variants_not_deduplicated, "verify-fock", "variant-count"),
    (_swapped_blocks_in_support, "verify-alpha", "point-separation"),
]

# The checks no row covers yet.  A new row deletes its check from this set,
# so coverage can grow but cannot silently shrink.
UNMUTATED = {
    ("verify-fock", "symbol-conjugation"),
    ("verify-fock", "norm-product"),
    ("verify-fock", "embed-orthogonality"),
    ("verify-alpha", "support-disjoint"),
    ("verify-alpha", "realization-gram"),
    ("verify-alpha", "multinomial-split"),
    ("verify-alpha", "block-symmetry"),
    ("verify-beta", "realization-gram"),
    ("verify-beta", "refine-moment"),
    ("verify-beta", "koopman-unitary"),
    ("verify-coherence", "cross-gram"),
    ("verify-density", "disjoint-product"),
    ("verify-spectral", "phase-action"),
    ("simulate", "moment-agreement"),
}


def _mutant_ids(rows):
    """Each row's mutant name; a mutant listed again also names its check."""
    ids = []
    for mutate, _, check in rows:
        name = mutate.__name__.lstrip("_")
        ids.append(f"{name}-{check}" if name in ids else name)
    return ids


SPECTRAL_CACHES = (spectral._spectral_form, spectral._good_permutations,
                   spectral._relabeled_form, spectral._tensor_plan)


def test_spectral_caches_are_all_listed():
    # a bounded cache missing here would carry entries from one mutant row
    # into the next
    cached = {id(value) for value in vars(spectral).values()
              if hasattr(value, "cache_clear")}
    assert cached == set(map(id, SPECTRAL_CACHES))


@pytest.fixture
def fresh_spectral_caches():
    for cache in SPECTRAL_CACHES:
        cache.cache_clear()
    yield
    for cache in SPECTRAL_CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("mutate,command,check", MUTANTS, ids=_mutant_ids(MUTANTS))
def test_mutant_fails_its_check(fresh_spectral_caches, monkeypatch, mutate, command,
                                check):
    mutate(monkeypatch)
    reports = {r.check: r for r in COMMANDS[command](RunConfig())}
    assert reports[check].cases > 0
    assert not reports[check].passed
    crashed = [(r.check, f) for r in reports.values()
               for f in r.failures if "exception" in f]
    assert not crashed, crashed


def _table():
    """Every (command, check) pair of ``SUITES``."""
    return {(command, suites._label(suite, check)[0])
            for command, (suite, _, checks) in SUITES.items() for check in checks}


def test_every_mutant_names_a_check_in_the_table():
    table = _table()
    assert [row for row in MUTANTS if row[1:] not in table] == []


def test_unmutated_checks_are_listed():
    assert _table() - {row[1:] for row in MUTANTS} == UNMUTATED
