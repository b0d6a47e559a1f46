"""Tests of the benchmark harness itself, not of treefock.

Run from the root of a checkout::

    python3 -m pytest -q benchmarks/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treefock import suites  # noqa: E402
from treefock.errors import CapExceeded  # noqa: E402
from treefock.suites import RunConfig, SuiteReport  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_accounting_on_a_synthetic_nest():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.75, 5.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    leaf = tracer.wrap(leaf, "scalars.leaf", record=False)

    def inner(with_leaf):
        return leaf() if with_leaf else None

    inner = tracer.wrap(inner, "fock.inner", record=True)

    def outer():
        inner(False)  # 1.0 .. 3.0
        return inner(True)  # 4.0 .. 5.0, holding a leaf call 4.5 .. 4.75

    outer = tracer.wrap(outer, "suites.outer", record=True)
    assert outer() == "leaf"

    stats = tracer.stats
    assert stats["suites.outer"].total == 10.0
    assert stats["suites.outer"].self_time == 7.0
    assert stats["fock.inner"].calls == 2
    assert stats["fock.inner"].total == 3.0
    assert stats["fock.inner"].self_time == 2.75
    assert stats["scalars.leaf"].self_time == 0.25
    # leaf calls keep no span; the others point at their parent span
    names = [s[0] for s in tracer.spans]
    assert names == ["suites.outer", "fock.inner", "fock.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]

    metrics = tracing.layer_metrics(tracer, 10.0, ["outer"], {"outer": 3})
    total_self = (metrics["scalars.self_s"] + metrics["fock.self_s"]
                  + metrics["suites.outer.self_s"] + metrics["trace.unattributed_s"])
    assert total_self == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.unattributed_s"] == 0.0
    assert metrics["suites.outer.cases"] == 3


def test_a_raised_check_is_a_recorded_failure(monkeypatch):
    def boom(cfg):
        raise CapExceeded("forced")

    monkeypatch.setitem(suites.COMMANDS, "verify-boom", boom)
    pins = {"boom/a": 3, "boom/b": 4}
    _, run_step = workloads._suite_step("verify-boom", RunConfig(), pins)
    checks = run_step()
    assert [c.name for c in checks] == ["verify-boom:boom/a", "verify-boom:boom/b"]
    assert all("CapExceeded" in c.error and not c.ok for c in checks)

    def raising_grid():
        raise CapExceeded("tensor product size over the cap")

    check = workloads._guarded("criterion-7:constraint-grid", 486, raising_grid)
    assert not check.ok and "CapExceeded" in check.error


def test_an_off_case_count_is_a_failure(monkeypatch):
    def short(cfg):
        good = SuiteReport("fake", "good", "")
        short = SuiteReport("fake", "short", "")
        for _ in range(3):
            good.case(True)
            short.case(True)
        return [good, short]

    monkeypatch.setitem(suites.COMMANDS, "verify-short", short)
    _, run_step = workloads._suite_step(
        "verify-short", RunConfig(), {"fake/good": 3, "fake/short": 4})
    checks = run_step()
    assert [c.passed for c in checks] == [True, True]
    assert [c.ok for c in checks] == [True, False]


def test_install_then_uninstall_restores_every_attribute():
    import treefock

    modules = {n: m for n, m in sys.modules.items()
               if n == "treefock" or n.startswith("treefock.")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    classes = {(n, c.__name__): dict(vars(c)) for n, m in modules.items()
               for c in vars(m).values() if isinstance(c, type)
               and c.__module__.startswith("treefock")}

    inst = tracing.install(tracing.Tracer())
    assert treefock.fock.embed is not before[("treefock.fock", "embed")]
    assert treefock.suites.enumerate_admissible is not before[
        ("treefock.suites", "enumerate_admissible")]
    assert treefock.scalars.QSqrt2.__dict__["__mul__"] is not classes[
        ("treefock.scalars", "QSqrt2")]["__mul__"]
    tracing.uninstall(inst)

    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for (n, name), attrs in classes.items():
        now = vars(getattr(modules[n], name))
        assert all(now[k] is v for k, v in attrs.items()), name


def test_pinned_counts_match_the_recorded_totals():
    def total(pins, seed):
        fixed = sum(n for checks in pins.values() for n in checks.values())
        return fixed + workloads.disjoint_product_cases(seed)

    assert total(workloads.EXACT_PINS, 7) == 14423
    assert total(workloads.EXACT_PINS, 11) == 14419
    assert sum(n for checks in workloads.FLOAT3_PINS.values()
               for n in checks.values()) == 72331
    assert len(workloads._grid_cases()) == workloads.CONSTRAINT_GRID_CASES


def test_benchmark_file_names_what_the_harness_emits():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    emitted = tracing.layer_metrics(tracing.Tracer(), 1.0, workloads.ALL_STEPS, {})
    emitted["trace.overhead_s"] = 0.0
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run._layer_unit(name) for name in emitted}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = _bench()["command"] + ["--workload", "exact-suites", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
