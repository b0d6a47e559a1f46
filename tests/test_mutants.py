"""Mutation tests: a broken library function must fail the check meant to
catch it.

Each mutant monkeypatches one function in ``treefock`` and runs only the
suite that holds its check, at the default configuration.  The named check
must fail on a counterexample, and no check may record an exception, since
none of the mutants raises one: a check that fails only by crashing would
show nothing about what it compares.  That each check passes unmutated is
``test_suites.test_suite_passes_at_small_caps``, whose caps give these four
checks the same cases as the defaults.
"""

import pytest

from treefock import gauss, spectral, suites
from treefock.spectral import DepthMeasure
from treefock.suites import RunConfig


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


MUTANTS = [
    (_moment_plus_one, suites.density_suites, "remainder-rate"),
    (_doubled_remainder, suites.density_suites, "power-expansion"),
    (_always_uniform, suites.spectral_suites, "constraint-grid"),
    (_first_child_coarsening, suites.spectral_suites, "compatibility"),
]


@pytest.mark.parametrize("mutate,suite,check", MUTANTS,
                         ids=[m.__name__.lstrip("_") for m, _, _ in MUTANTS])
def test_mutant_fails_its_check(monkeypatch, mutate, suite, check):
    mutate(monkeypatch)
    reports = {r.check: r for r in suite(RunConfig())}
    assert reports[check].cases > 0
    assert not reports[check].passed
    crashed = [(r.check, f) for r in reports.values()
               for f in r.failures if "exception" in f]
    assert not crashed, crashed
