"""Mutation tests: a broken library function must fail the check meant to
catch it.

Each mutant monkeypatches one function in ``treefock`` and runs only the
command that holds its check, at the default configuration.  The named check
must fail on a counterexample, and no check may record an exception, since
none of the mutants raises one: a check that fails only by crashing would
show nothing about what it compares.  Unmutated, every check passes in
``test_suites.test_suite_passes_at_small_caps`` and, at the defaults, in the
pinned report ``tests/data/all-defaults.csv`` that CI compares.

The word mutants misplace bits in the functions that hold the word
arithmetic; they spell the wrong word through ``tuple_words``.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tuple_words as tw
from treefock import fock, gauss, montecarlo, spectral, steps, suites
from treefock.spectral import DepthMeasure
from treefock.steps import GridCell
from treefock.suites import COMMANDS, SUITES, RunConfig
from treefock.words import AdmissibleWord, TorusStep


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
]


def _mutant_ids(rows):
    """Each row's mutant name; a mutant listed again also names its check."""
    ids = []
    for mutate, _, check in rows:
        name = mutate.__name__.lstrip("_")
        ids.append(f"{name}-{check}" if name in ids else name)
    return ids


@pytest.mark.parametrize("mutate,command,check", MUTANTS, ids=_mutant_ids(MUTANTS))
def test_mutant_fails_its_check(monkeypatch, mutate, command, check):
    mutate(monkeypatch)
    reports = {r.check: r for r in COMMANDS[command](RunConfig())}
    assert reports[check].cases > 0
    assert not reports[check].passed
    crashed = [(r.check, f) for r in reports.values()
               for f in r.failures if "exception" in f]
    assert not crashed, crashed


def test_every_mutant_names_a_check_in_the_table():
    table = {(command, suites._label(suite, check)[0])
             for command, (suite, _, checks) in SUITES.items() for check in checks}
    assert [row for row in MUTANTS if row[1:] not in table] == []
