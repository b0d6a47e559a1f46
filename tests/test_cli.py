"""CLI behavior: formats, determinism, exit codes, report schema."""

import json
from importlib import resources

import jsonschema
import pytest

from treefock import cli
from treefock.suites import RunConfig, SuiteReport

FAST = ["--level-max", "1", "--degree-max", "2", "--samples", "2000"]


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_text_report(capsys):
    code, out, err = run_cli(["verify-density", *FAST], capsys)
    assert code == cli.EXIT_OK
    assert err == ""
    assert out.startswith("treefock verify-density")
    assert "PASS density/remainder-rate" in out
    assert "summary:" in out and "timings:" in out


def test_json_report_validates_against_schema(capsys):
    code, out, _ = run_cli(["simulate", "--format", "json", *FAST], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    schema = json.loads(resources.files("treefock").joinpath(
        "data/report_schema.json").read_text())
    jsonschema.validate(report, schema)
    assert report["config"]["command"] == "simulate"
    assert report["summary"]["passed"] is True


def test_json_deterministic_modulo_timings(capsys):
    args = ["verify-spectral", "--format", "json", *FAST]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    a, b = json.loads(first), json.loads(second)
    a.pop("timings"), b.pop("timings")
    assert a == b


def test_csv_deterministic_bytes(capsys):
    args = ["verify-alpha", "--format", "csv", *FAST]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    header, *rows = first.splitlines()
    assert header == "suite,check,cases,passed,first_failure"
    assert all(row.split(",")[3] == "True" for row in rows)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["verify-density", "--format", "json",
                            "--output", str(target), *FAST], capsys)
    assert code == cli.EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["summary"]["passed"] is True


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["verify-fock", "--level-max", "7"], capsys)
    assert code == cli.EXIT_USAGE
    assert "level-max" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(["verify-density", "--output",
                            "/nonexistent/dir/report.txt", *FAST], capsys)
    assert code == cli.EXIT_IO
    assert "cannot write" in err


def test_failing_suite_exit_code(monkeypatch, capsys):
    failing = SuiteReport("demo", "broken", "always fails")
    failing.case(False, reason="demonstration")

    def stub(cfg):
        return [failing]

    monkeypatch.setitem(cli.COMMANDS, "verify-fock", stub)
    code, out, _ = run_cli(["verify-fock", *FAST], capsys)
    assert code == cli.EXIT_FAILED
    assert "FAIL demo/broken" in out
    assert "first counterexample" in out


def test_cap_exit_code(monkeypatch, capsys):
    from treefock.errors import CapExceeded

    def stub(cfg):
        raise CapExceeded("demonstration cap")

    monkeypatch.setitem(cli.COMMANDS, "verify-beta", stub)
    code, _, err = run_cli(["verify-beta", *FAST], capsys)
    assert code == cli.EXIT_CAP
    assert "demonstration cap" in err


def test_cap_still_writes_the_report(monkeypatch, tmp_path, capsys):
    from treefock.errors import CapExceeded

    def stub(cfg):
        raise CapExceeded("demonstration cap")

    monkeypatch.setitem(cli.COMMANDS, "verify-beta", stub)
    target = tmp_path / "report.json"
    code, out, err = run_cli(["all", "--format", "json",
                              "--output", str(target), *FAST], capsys)
    assert code == cli.EXIT_CAP
    assert out == "" and "demonstration cap" in err
    report = json.loads(target.read_text())
    schema = json.loads(resources.files("treefock").joinpath(
        "data/report_schema.json").read_text())
    jsonschema.validate(report, schema)
    [capped] = [s for s in report["suites"] if s["check"] == cli.CAP_CHECK]
    assert capped["suite"] == "verify-beta" and capped["passed"] is False
    assert capped["failures"] == [{"cap": "demonstration cap"}]
    assert report["summary"]["passed"] is False
    # the commands after the capped one still ran
    suites = {s["suite"] for s in report["suites"]}
    assert {"coherence", "density", "spectral", "simulate"} <= suites
    assert "beta" not in suites


def test_all_command_covers_every_suite(capsys):
    code, out, _ = run_cli(["all", "--format", "json", *FAST], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    suites = {s["suite"] for s in report["suites"]}
    assert suites == {"fock", "alpha", "beta", "coherence", "density",
                      "spectral", "simulate"}
    assert set(report["timings"]) == {"verify-fock", "verify-alpha",
                                      "verify-beta", "verify-coherence",
                                      "verify-density", "verify-spectral",
                                      "simulate", "total"}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "treefock" in capsys.readouterr().out
