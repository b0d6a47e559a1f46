"""The benchmark's four workloads: inputs from a seed, steps, pinned counts.

Calling a workload with a seed is its set-up: it only generates the inputs
(run configurations, the shuffled constraint grid, the Monte Carlo target
polynomials and torus step) and returns the named steps whose run is the
timed part.  Each step returns one ``Check`` per verification; everything
the package computes, exact reference moments included, happens inside a
step.

The package is driven only through its public calls: ``suites.COMMANDS``
with a ``RunConfig``, ``spectral.check_constraint``,
``montecarlo.estimate_many`` and ``gauss.refine``/``koopman``/``moment``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from treefock import gauss, montecarlo, scalars, spectral
from treefock.spectral import index_pq
from treefock.suites import COMMANDS, RunConfig
from treefock.words import TorusStep, make_word

# Case counts per check at the CLI defaults (level <= 2, degree <= 4), the
# same for every seed except density/disjoint-product (see below).
EXACT_PINS: Dict[str, Dict[str, int]] = {
    "verify-fock": {
        "fock/symbol-conjugation": 14, "fock/admissible-enumeration": 8,
        "fock/variant-count": 360, "fock/norm-product": 2640,
        "fock/norm-split": 360, "fock/embed-isometry": 384,
        "fock/embed-orthogonality": 1980, "fock/act-unitary": 20,
    },
    "verify-alpha": {
        "alpha/support-measure": 360, "alpha/support-disjoint": 2,
        "alpha/realization-isometry": 380, "alpha/realization-gram": 2140,
        "alpha/multinomial-split": 54, "alpha/torus-equivariance": 16,
        "alpha/block-symmetry": 360, "alpha/point-separation": 155,
    },
    "verify-beta": {
        "beta/realization-gram": 1940, "beta/refine-moment": 20,
        "beta/koopman-unitary": 16, "beta/torus-equivariance": 16,
        "beta/pairing-oracle": 923,
    },
    "verify-coherence": {
        "coherence/embed-step": 172, "coherence/embed-gauss": 160,
        "coherence/embed-equivariance": 16, "coherence/cross-gram": 1840,
    },
    "verify-density": {
        "density/remainder-rate": 42, "density/power-expansion": 33,
        # density/disjoint-product is seed-dependent: see disjoint_product_cases
    },
}

# The same four suites on the float backend at level <= 3.
FLOAT3_PINS: Dict[str, Dict[str, int]] = {
    "verify-fock": {
        "fock/symbol-conjugation": 30, "fock/admissible-enumeration": 12,
        "fock/variant-count": 4008, "fock/norm-product": 7788,
        "fock/norm-split": 4008, "fock/embed-isometry": 4044,
        "fock/embed-orthogonality": 3180, "fock/act-unitary": 30,
    },
    "verify-alpha": {
        "alpha/support-measure": 4008, "alpha/support-disjoint": 3,
        "alpha/realization-isometry": 4038, "alpha/realization-gram": 6788,
        "alpha/multinomial-split": 54, "alpha/torus-equivariance": 24,
        "alpha/block-symmetry": 4008, "alpha/point-separation": 16129,
    },
    "verify-beta": {
        "beta/realization-gram": 6388, "beta/refine-moment": 30,
        "beta/koopman-unitary": 24, "beta/torus-equivariance": 24,
        "beta/pairing-oracle": 923,
    },
    "verify-coherence": {
        "coherence/embed-step": 298, "coherence/embed-gauss": 280,
        "coherence/embed-equivariance": 24, "coherence/cross-gram": 6188,
    },
}

SPECTRAL_PINS: Dict[str, Dict[str, int]] = {
    "verify-spectral": {
        "spectral/good-permutations": 9, "spectral/phase-action": 386,
        "spectral/tensor-product": 21, "spectral/relabeling": 24,
        "spectral/spectral-table": 27, "spectral/constraint-grid": 600,
        "spectral/compatibility": 4,
    },
}

CONSTRAINT_GRID_CASES = 486
MC_TARGETS = 20
MC_REFINED_MONOMIALS = 172
MC_SAMPLES = 1_000_000
MC_DEPTH = 4
MC_MIN_HITS = 19
# Criterion 8's own sample stream.  The workload seed draws the eighth-root
# step only: the 20 estimates share one stream and several targets carry
# the same moment (|z0|^4 twice), so one unlucky draw costs two or three
# hits at once, and a stream seeded per run fails the 19/20 gate on some
# seeds (seed 8 of 1..40 gave 17/20) with no fault in the estimator.
MC_STREAM_SEED = 2028


def disjoint_product_cases(seed: int) -> int:
    """Cases density/disjoint-product runs for ``seed``.

    The check draws 40 pairs of random monomials over four variables, each
    exponent in 0..2, and skips a product that is constant or of degree
    above 6.  Replaying the same draws gives the count without running it.
    """
    rng = random.Random(seed + 4)
    count = 0
    for _ in range(40):
        degree = sum(rng.randrange(3) for _ in range(8))
        count += 1 <= degree <= 6
    return count


Step = Tuple[str, Callable[[], List["Check"]]]


@dataclass
class Check:
    """One verification: did it pass, and did it run the pinned case count."""

    name: str
    passed: bool
    cases: int
    expected_cases: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.passed and self.cases == self.expected_cases


def _guarded(name: str, expected_cases: int, run: Callable[[], Tuple[bool, int]]) -> Check:
    """Run one check; an exception it raises becomes a failed check."""
    try:
        passed, cases = run()
    except Exception as exc:
        return Check(name, False, 0, expected_cases, f"{type(exc).__name__}: {exc}")
    return Check(name, passed, cases, expected_cases)


def _suite_step(command: str, cfg: RunConfig, pins: Dict[str, int]) -> Step:
    def run() -> List[Check]:
        try:
            reports = COMMANDS[command](cfg)
        except Exception as exc:  # a raised check is a recorded failure
            error = f"{type(exc).__name__}: {exc}"
            return [Check(f"{command}:{name}", False, 0, want, error)
                    for name, want in pins.items()]
        by_name = {f"{r.suite}/{r.check}": r for r in reports}
        out = []
        for name, want in pins.items():
            r = by_name.pop(name, None)
            if r is None:
                out.append(Check(f"{command}:{name}", False, 0, want, "missing"))
            else:
                out.append(Check(f"{command}:{name}", r.passed, r.cases, want))
        out.extend(Check(f"{command}:{name}", False, r.cases, 0, "not pinned")
                   for name, r in by_name.items())
        return out
    return command, run


def _grid_cases() -> List[Tuple[Tuple[int, ...], tuple, bool]]:
    """The criterion-7 grid: (coefficients, indices, expected ``holds``)."""
    x10 = index_pq(1, 0)
    cases = [((m,), (x10,), abs(m) == 1) for m in (-3, -2, -1, 1, 2, 3)]
    unit = [index_pq(1, 0), index_pq(0, 1), index_pq(1, 1),
            index_pq(2, 0), index_pq(0, 2), index_pq(2, 1)]
    for length in (1, 2, 3):
        for xs in itertools.product(unit, repeat=length):
            if sum(x.total() for x in xs) > 4:
                continue
            for ms in itertools.product((-1, 1), repeat=length):
                cases.append((ms, xs, True))
    return cases


def _grid(cases) -> Tuple[bool, int]:
    verdicts = [spectral.check_constraint(list(ms), list(xs)).holds is expected
                for ms, xs, expected in cases]
    return all(verdicts), len(verdicts)


def _moment_targets() -> List[gauss.GaussPoly]:
    """The 20 criterion-8 polynomials, of degree <= 6 in depth <= 2 variables."""
    z = gauss.GaussPoly.variable
    root, w0, w1 = make_word(""), make_word("0"), make_word("1")
    w00, w01 = make_word("00"), make_word("01")
    return [
        z(root) * z(root).conj(),
        z(w0) * z(w0).conj(),
        z(root) * z(w0).conj(),
        z(root) * z(w00).conj(),
        z(w0) * z(w1).conj(),
        (z(w0) * z(w0).conj()) * (z(w0) * z(w0).conj()),
        (z(w0) * z(w0).conj()) * (z(w00) * z(w00).conj()),
        (z(w0) * z(w0).conj()) * (z(w1) * z(w1).conj()),
        z(w0) * z(w0) * (z(w0).conj() * z(w0).conj()),
        (z(root) + z(w00)) * (z(root) + z(w00)).conj(),
        (z(w0) + 2 * z(w01)) * (z(w0) + 2 * z(w01)).conj(),
        z(w00) * z(w00).conj() * z(w00) * z(w00).conj() * z(w00) * z(w00).conj(),
        (z(w0) * z(w1)) * (z(w0) * z(w1)).conj(),
        (z(w0) * z(w1)) * (z(w0) * z(w1)).conj() * z(w00) * z(w00).conj(),
        z(w0) * z(w0) * z(w00).conj() * z(w00).conj(),
        z(w0) * z(w0) * z(w0) * z(w0).conj() * z(w0).conj() * z(w0).conj(),
        (z(root) * z(w01).conj()) * (z(w01) * z(w01).conj()),
        z(w01) * z(w01).conj() + 3 * z(w0) * z(w1).conj(),
        (z(w0) - z(w1)) * (z(w0) - z(w1)).conj(),
        z(w00) * z(w00) * z(w00).conj() * z(w00).conj() * z(w01) * z(w01).conj(),
    ]


def _refined(polys) -> List[gauss.GaussPoly]:
    return [gauss.refine(p, max(2, p.max_word_length())) for p in polys]


def _exact_mean(p: gauss.GaussPoly) -> complex:
    return complex(scalars.to_complex(gauss.moment(p)))


def _hits(exact, estimates) -> int:
    return sum(e.within(x, 3.0) for x, e in zip(exact, estimates))


def _plain(polys) -> Tuple[bool, int]:
    exact = [_exact_mean(q) for q in _refined(polys)]
    est = montecarlo.estimate_many(polys, MC_SAMPLES, MC_DEPTH, seed=MC_STREAM_SEED)
    return _hits(exact, est) >= MC_MIN_HITS, len(est)


def _composed(polys, step: TorusStep) -> Tuple[bool, int]:
    """Criterion 8 under the step; its cases are the refined monomials."""
    refined = _refined(polys)
    exact = [_exact_mean(gauss.koopman(step, q)) for q in refined]
    est = montecarlo.estimate_many(refined, MC_SAMPLES, MC_DEPTH,
                                   seed=MC_STREAM_SEED, step=step)
    passed = _hits(exact, est) >= MC_MIN_HITS and len(est) == MC_TARGETS
    return passed, sum(len(q.terms) for q in refined)


def exact_suites(seed: int) -> List[Step]:
    pins = {cmd: dict(checks) for cmd, checks in EXACT_PINS.items()}
    pins["verify-density"]["density/disjoint-product"] = disjoint_product_cases(seed)
    cfg = RunConfig(seed=seed)
    return [_suite_step(cmd, cfg, checks) for cmd, checks in pins.items()]


def float_level3(seed: int) -> List[Step]:
    cfg = RunConfig(seed=seed, backend="float", level_max=3)
    return [_suite_step(cmd, cfg, checks) for cmd, checks in FLOAT3_PINS.items()]


def spectral_grid(seed: int) -> List[Step]:
    cases = _grid_cases()
    random.Random(seed).shuffle(cases)
    grid = ("criterion-7", lambda: [_guarded("criterion-7:constraint-grid",
                                             CONSTRAINT_GRID_CASES, lambda: _grid(cases))])
    return [grid, _suite_step("verify-spectral", RunConfig(seed=seed),
                              SPECTRAL_PINS["verify-spectral"])]


def monte_carlo(seed: int) -> List[Step]:
    polys = _moment_targets()
    step = TorusStep.random_eighth_roots(2, random.Random(seed))
    return [("criterion-8", lambda: [
        _guarded("criterion-8:plain", MC_TARGETS, lambda: _plain(polys)),
        _guarded("criterion-8:composed", MC_REFINED_MONOMIALS,
                 lambda: _composed(polys, step))])]


WORKLOADS: Dict[str, Callable[[int], List[Step]]] = {
    "exact-suites": exact_suites,
    "float-level3": float_level3,
    "spectral-grid": spectral_grid,
    "monte-carlo": monte_carlo,
}

# Every top-level step any workload runs, for the suites.* per-layer metrics.
ALL_STEPS = ("verify-fock", "verify-alpha", "verify-beta", "verify-coherence",
             "verify-density", "verify-spectral", "criterion-7", "criterion-8")
