"""Every verification suite runs clean at small caps on both backends, and
the table of checks names what the pinned report records."""

import json
from pathlib import Path

import pytest

from treefock import montecarlo, suites
from treefock.suites import COMMANDS, SUITES, RunConfig, SuiteReport
from treefock.words import word_length

PINNED_REPORT = Path(__file__).parent / "data" / "all-defaults.json"

SMALL_SIMULATE = RunConfig(command="simulate", level_max=1, degree_max=2,
                           samples=2000)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_suite_passes_at_small_caps(command, backend):
    cfg = RunConfig(command=command, level_max=1, degree_max=3,
                    depth_max=6, samples=20_000, seed=13, backend=backend)
    cfg.validate()
    for report in COMMANDS[command](cfg):
        assert report.cases > 0, report.check
        assert report.passed, (report.check, report.failures[:3])


def test_table_names_the_pinned_checks():
    # suite, check name and statement of every check, in report order, read
    # off the table without running one
    table = [(suite, *suites._label(suite, check))
             for suite, _, checks in SUITES.values() for check in checks]
    pinned = json.loads(PINNED_REPORT.read_text())["suites"]
    assert table == [(row["suite"], row["check"], row["statement"])
                     for row in pinned]


def test_report_records_failures():
    r = SuiteReport("demo", "check", "statement")
    assert not r.passed  # no cases ran
    r.case(True, detail="fine")
    assert r.passed
    for i in range(15):
        r.case(False, detail=i)
    assert not r.passed
    assert r.cases == 16
    assert len(r.failures) == 10  # capped
    assert r.failures[0] == {"detail": "0"}
    d = r.to_json_dict()
    assert d["passed"] is False and d["cases"] == 16


def test_config_validation():
    RunConfig().validate()
    with pytest.raises(ValueError):
        RunConfig(level_max=0).validate()
    with pytest.raises(ValueError):
        RunConfig(degree_max=9).validate()
    with pytest.raises(ValueError):
        RunConfig(samples=0).validate()
    with pytest.raises(ValueError):
        RunConfig(backend="decimal").validate()
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml").validate()
    RunConfig(seed=0).validate()
    RunConfig(seed=suites.SEED_MAX).validate()
    for seed in (-1, suites.SEED_MAX + 1):
        with pytest.raises(ValueError):
            RunConfig(seed=seed).validate()


def test_tree_residual_reads_the_estimator_columns(monkeypatch):
    # a slip of 1e-7 in the interior columns the estimates read must show
    real = montecarlo._variable_columns

    def skewed(leaves, depth, variables):
        cols = real(leaves, depth, variables)
        return {w: c * (1 + 1e-7) if word_length(w) < depth else c
                for w, c in cols.items()}

    monkeypatch.setattr(montecarlo, "_variable_columns", skewed)
    reports = {r.check: r for r in COMMANDS["simulate"](SMALL_SIMULATE)}
    residual = reports["tree-residual"]
    assert residual.cases == 20 and not residual.passed
    assert float(residual.failures[0]["residual"]) > 1e-9


def test_composed_agreement_does_not_need_the_moment_targets(monkeypatch):
    def broken():
        raise RuntimeError("demonstration fault")

    monkeypatch.setattr(suites, "_moment_targets", broken)
    reports = {r.check: r for r in COMMANDS["simulate"](SMALL_SIMULATE)}
    assert [c for c, r in reports.items() if not r.passed] == ["moment-agreement"]
    assert reports["composed-agreement"].cases == 6
    [fault] = reports["moment-agreement"].failures
    assert fault["exception"] == "RuntimeError"
    assert fault["where"].startswith("test_suites.py:")
