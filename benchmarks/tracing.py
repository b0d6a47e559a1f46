"""Outside-in tracing of treefock's layers for the benchmark's traced run.

``install`` replaces public functions and methods of the package's modules
with wrappers that time every call.  Each wrapper pushes a frame on one
shared stack, so a call's self time is its duration minus the durations of
the wrapped calls made inside it.  Module functions are also replaced under
every alias a ``treefock`` module holds (``from .words import
enumerate_admissible`` binds a second name), so calls through either name
are caught.  ``uninstall`` puts every original attribute back.

Calls into the layers record one span each (name, start, end, parent) in
memory.  Scalar operations run millions of times, so they are aggregated
into per-name totals only; their frames still take part in the self-time
accounting of the spans around them.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, owner inside the module or None, attribute, metric name)
Target = Tuple[str, Optional[str], str, str]

SCALAR_TARGETS: List[Target] = [
    ("scalars", "QSqrt2", "__mul__", "scalars.QSqrt2.mul"),
    ("scalars", "QSqrt2", "__rmul__", "scalars.QSqrt2.mul"),
    ("scalars", "QSqrt2", "__add__", "scalars.QSqrt2.add"),
    ("scalars", "QSqrt2", "__radd__", "scalars.QSqrt2.add"),
    ("scalars", "QSqrt2", "__sub__", "scalars.QSqrt2.sub"),
    ("scalars", "QSqrt2", "__rsub__", "scalars.QSqrt2.sub"),
    ("scalars", "QSqrt2", "__neg__", "scalars.QSqrt2.neg"),
    ("scalars", "QSqrt2", "__truediv__", "scalars.QSqrt2.div"),
    ("scalars", "QSqrt2", "__pow__", "scalars.QSqrt2.pow"),
    ("scalars", "QSqrt2", "__eq__", "scalars.QSqrt2.eq"),
    ("scalars", "QSqrt2", "inverse", "scalars.QSqrt2.inverse"),
    ("scalars", "ExactComplex", "__mul__", "scalars.ExactComplex.mul"),
    ("scalars", "ExactComplex", "__rmul__", "scalars.ExactComplex.mul"),
    ("scalars", "ExactComplex", "__add__", "scalars.ExactComplex.add"),
    ("scalars", "ExactComplex", "__radd__", "scalars.ExactComplex.add"),
    ("scalars", "ExactComplex", "__sub__", "scalars.ExactComplex.sub"),
    ("scalars", "ExactComplex", "__rsub__", "scalars.ExactComplex.sub"),
    ("scalars", "ExactComplex", "__neg__", "scalars.ExactComplex.neg"),
    ("scalars", "ExactComplex", "__truediv__", "scalars.ExactComplex.div"),
    ("scalars", "ExactComplex", "__pow__", "scalars.ExactComplex.pow"),
    ("scalars", "ExactComplex", "__eq__", "scalars.ExactComplex.eq"),
    ("scalars", "ExactComplex", "conjugate", "scalars.ExactComplex.conjugate"),
    ("scalars", "ExactComplex", "inverse", "scalars.ExactComplex.inverse"),
    ("scalars", None, "conj", "scalars.conj"),
    ("scalars", None, "abs2", "scalars.abs2"),
]

LAYER_TARGETS: List[Target] = [
    ("words", None, "enumerate_admissible", "words.enumerate_admissible"),
    ("words", "AdmissibleWord", "variants", "words.AdmissibleWord.variants"),
    ("fock", None, "basic", "fock.basic"),
    ("fock", None, "inner", "fock.inner"),
    ("fock", None, "embed", "fock.embed"),
    ("fock", None, "embed_by_enumeration", "fock.embed_by_enumeration"),
    ("fock", None, "act", "fock.act"),
    ("steps", None, "from_fock", "steps.from_fock"),
    ("steps", "StepSum", "inner", "steps.StepSum.inner"),
    ("steps", "StepSum", "refine", "steps.StepSum.refine"),
    ("steps", "StepSum", "__eq__", "steps.StepSum.eq"),
    ("steps", "StepSum", "__sub__", "steps.StepSum.sub"),
    ("steps", "StepSum", "act", "steps.StepSum.act"),
    ("gauss", None, "inner", "gauss.inner"),
    ("gauss", None, "refine", "gauss.refine"),
    ("gauss", None, "koopman", "gauss.koopman"),
    ("gauss", None, "moment", "gauss.moment"),
    ("gauss", None, "from_fock", "gauss.from_fock"),
    ("gauss", None, "moment_by_pairings", "gauss.moment_by_pairings"),
    ("gauss", "GaussPoly", "__mul__", "gauss.GaussPoly.mul"),
    ("spectral", None, "check_constraint", "spectral.check_constraint"),
    ("spectral", None, "spectral_form", "spectral.spectral_form"),
    ("spectral", None, "good_permutations", "spectral.good_permutations"),
    ("spectral", "DepthMeasure", "tensor", "spectral.DepthMeasure.tensor"),
    ("montecarlo", None, "estimate_many", "montecarlo.estimate_many"),
]

LAYERS = ("scalars", "words", "fock", "steps", "gauss", "spectral", "montecarlo")


def _tensor_ops(args, kwargs, result) -> int:
    """Pairings x cells x cells, the quantity the tensor cap bounds."""
    from treefock import spectral
    mine, other = args[0], args[1]
    return (spectral.pairing_count(mine.index, other.index)
            * max(1, len(mine.weights)) * max(1, len(other.weights)))


def _monomial_samples(args, kwargs, result) -> int:
    from treefock import montecarlo
    bound = inspect.signature(montecarlo.estimate_many).bind(*args, **kwargs)
    polys, samples = bound.arguments["polys"], bound.arguments["samples"]
    return samples * sum(len(p.terms) for p in polys)


# Counters measured where the work happens: for a call's metric name, the
# counter it feeds and the amount one call adds.  PEAKS keep a maximum.
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "words.enumerate_admissible": ("words.enumerate_admissible.words",
                                   lambda args, kwargs, result: len(result)),
    "fock.embed": ("fock.embed.terms_out",
                   lambda args, kwargs, result: len(result.terms)),
    "steps.from_fock": ("steps.from_fock.cells_out",
                        lambda args, kwargs, result: sum(
                            len(f.values) for f in result.components.values())),
    "gauss.refine": ("gauss.refine.peak_terms",
                     lambda args, kwargs, result: len(result.terms)),
    "gauss.GaussPoly.mul": ("gauss.GaussPoly.mul.term_pairs",
                            lambda args, kwargs, result: 0 if result is NotImplemented
                            else len(args[0].terms) * len(args[1].terms)),
    "spectral.DepthMeasure.tensor": ("spectral.DepthMeasure.tensor.ops", _tensor_ops),
    "montecarlo.estimate_many": ("montecarlo.monomial_samples", _monomial_samples),
}
PEAKS = {"gauss.refine.peak_terms"}

# Functions that return generators: the wrapper drains them inside the span,
# so the span covers the work, and hands back an iterator over the items.
GENERATORS = {"words.enumerate_admissible"}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Span stack, per-name totals, counters and the recorded spans."""

    stats: Dict[str, Stat] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    spans: List[tuple] = field(default_factory=list)
    # each frame is [time covered by wrapped children, id of nearest span]
    stack: List[list] = field(default_factory=lambda: [[0.0, -1]])
    clock: Callable[[], float] = time.perf_counter

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, fn: Callable, name: str, record: bool) -> Callable:
        """A wrapper around ``fn`` that accounts its calls under ``name``."""
        stat = self.stat(name)
        stack, spans, clock = self.stack, self.spans, self.clock
        key, count = COUNTERS.get(name, (None, None))
        peak = key in PEAKS
        drain = name in GENERATORS
        counters = self.counters
        if key is not None:
            counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if record else parent[1]
            frame = [0.0, span_id]
            if record:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if record:
                    spans[span_id] = (name, start, end, parent[1])
            if key is not None:
                amount = count(args, kwargs, result)
                counters[key] = (max(counters[key], amount) if peak
                                 else counters[key] + amount)
            return iter(result) if drain else result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper


# (holder, attribute, original value), for ``uninstall`` to put back
Replaced = List[Tuple[object, str, object]]


def install(tracer: Tracer) -> Replaced:
    """Wrap every target that exists; scalar targets aggregate only.

    A target missing from the package (renamed or removed by a later
    change) is skipped, and its metrics read zero.
    """
    import treefock  # noqa: F401  (loads every module named in the targets)

    package = [m for n, m in sys.modules.items()
               if n == "treefock" or n.startswith("treefock.")]
    replaced: Replaced = []
    for module, owner, attr, name in SCALAR_TARGETS + LAYER_TARGETS:
        holder = sys.modules[f"treefock.{module}"]
        if owner is not None:
            holder = getattr(holder, owner, None)
        original = vars(holder).get(attr) if holder is not None else None
        if original is None:
            continue
        wrapped = tracer.wrap(original, name, record=module != "scalars")
        if owner is not None:
            places = [(holder, attr)]
        else:
            places = [(mod, alias) for mod in package
                      for alias, value in vars(mod).items() if value is original]
        for place, alias in places:
            replaced.append((place, alias, original))
            setattr(place, alias, wrapped)
    return replaced


def uninstall(replaced: Replaced) -> None:
    for holder, attr, original in reversed(replaced):
        setattr(holder, attr, original)
    replaced.clear()


def _self(tracer: Tracer, name: str) -> float:
    stat = tracer.stats.get(name)
    return stat.self_time if stat else 0.0


def _calls(tracer: Tracer, name: str) -> int:
    stat = tracer.stats.get(name)
    return stat.calls if stat else 0


def layer_metrics(tracer: Tracer, wall: float, steps: Sequence[str],
                  step_cases: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric of a traced run, by name.

    ``steps`` names every top-level step a workload can run, each traced as
    a root span ``suites.<step>``; ``step_cases`` holds the case counts of
    the steps this run ran.  ``trace.unattributed_s`` is the part of
    ``wall`` no span covers, so the layers' and steps' self times plus it
    add up to ``wall``.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_time for n, s in tracer.stats.items()
                                     if n.startswith(layer + "."))
    for name in ("scalars.QSqrt2.mul", "scalars.QSqrt2.add",
                 "scalars.ExactComplex.mul", "scalars.ExactComplex.add",
                 "scalars.ExactComplex.eq", "scalars.conj",
                 "words.AdmissibleWord.variants", "fock.basic", "fock.inner",
                 "fock.embed", "steps.from_fock", "gauss.inner", "gauss.refine",
                 "gauss.GaussPoly.mul", "spectral.check_constraint",
                 "spectral.DepthMeasure.tensor", "montecarlo.estimate_many"):
        out[f"{name}.calls"] = _calls(tracer, name)
    for name in ("words.enumerate_admissible", "words.AdmissibleWord.variants",
                 "fock.basic", "fock.inner", "fock.embed", "fock.act",
                 "steps.from_fock", "steps.StepSum.inner", "steps.StepSum.refine",
                 "steps.StepSum.eq", "gauss.inner", "gauss.refine",
                 "gauss.GaussPoly.mul", "gauss.koopman", "gauss.moment",
                 "spectral.check_constraint", "spectral.DepthMeasure.tensor",
                 "montecarlo.estimate_many"):
        out[f"{name}.self_s"] = _self(tracer, name)
    mul_names = ("scalars.QSqrt2.mul", "scalars.ExactComplex.mul")
    mul_calls = sum(_calls(tracer, n) for n in mul_names)
    out["scalars.mul_ns"] = (sum(_self(tracer, n) for n in mul_names) / mul_calls * 1e9
                             if mul_calls else 0.0)
    for key, _ in COUNTERS.values():
        out[key] = tracer.counters.get(key, 0)
    mc = tracer.stats.get("montecarlo.estimate_many")
    out["montecarlo.monomial_samples_per_s"] = (
        out["montecarlo.monomial_samples"] / mc.total if mc and mc.total else 0.0)
    for step in steps:
        out[f"suites.{step}.self_s"] = _self(tracer, f"suites.{step}")
        out[f"suites.{step}.cases"] = step_cases.get(step, 0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - tracer.stack[0][0]
    return out
