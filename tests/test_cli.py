"""CLI behavior: formats, determinism, exit codes, report schema."""

import json
import re
from importlib import resources

import jsonschema
import pytest

from treefock import cli
from treefock.suites import SuiteReport

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


def test_block_symmetry_covers_every_degree(capsys):
    # all 60 basis words of degrees 1 to 5 at level 1, the (5, 0) and (0, 5)
    # words included
    args = ["verify-alpha", "--format", "json", "--level-max", "1", "--degree-max", "5"]
    code, out, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    checks = {c["check"]: c for c in json.loads(out)["suites"]}
    assert checks["block-symmetry"]["cases"] == 60
    assert checks["block-symmetry"]["passed"] is True


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


def test_depth_max_below_two_is_a_usage_error(capsys):
    # the depth-2 sampling targets need a sampled depth of at least 2
    code, _, err = run_cli(["simulate", "--depth-max", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "depth-max must be in 2..16" in err


def test_seed_out_of_range_is_a_usage_error(capsys):
    # Philox keys must lie in 0..2**128-1, and simulate also keys by seed + 1
    for seed in (-1, 2 ** 128 - 1):
        code, _, err = run_cli(["simulate", "--seed", str(seed)], capsys)
        assert code == cli.EXIT_USAGE
        assert "seed must be in 0.." in err


def test_largest_seed_runs_the_sampling_checks(capsys):
    code, out, _ = run_cli(["simulate", "--seed", str(2 ** 128 - 2),
                            "--samples", "2000", "--format", "csv"], capsys)
    assert code == cli.EXIT_OK, out


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


def _trip_tensor_cap(monkeypatch):
    from treefock import spectral
    from treefock.errors import CapExceeded

    def capped(self, other):
        raise CapExceeded("demonstration cap")

    monkeypatch.setattr(spectral.DepthMeasure, "tensor", capped)


def _load_valid(path):
    report = json.loads(path.read_text())
    schema = json.loads(resources.files("treefock").joinpath(
        "data/report_schema.json").read_text())
    jsonschema.validate(report, schema)
    return report


def test_cap_exit_code(monkeypatch, capsys):
    args = ["verify-spectral", "--format", "json", *FAST]
    _, out, _ = run_cli(args, capsys)
    clean = {s["check"]: s["cases"] for s in json.loads(out)["suites"]}
    _trip_tensor_cap(monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == cli.EXIT_CAP
    assert "demonstration cap" in err
    checks = {s["check"]: s for s in json.loads(out)["suites"]}
    # the cap fails the two checks that take tensor products, and only them
    assert list(checks) == list(clean)
    for name in ("tensor-product", "constraint-grid"):
        assert {"cap": "demonstration cap"} in checks[name]["failures"]
        assert checks[name]["passed"] is False
    # the checks before and after them run to their usual case counts
    for name in ("good-permutations", "phase-action", "relabeling",
                 "spectral-table", "compatibility"):
        assert checks[name]["passed"] is True
        assert checks[name]["cases"] == clean[name]


def test_cap_still_writes_the_report(monkeypatch, tmp_path, capsys):
    _trip_tensor_cap(monkeypatch)
    target = tmp_path / "report.json"
    code, out, err = run_cli(["all", "--format", "json",
                              "--output", str(target), *FAST], capsys)
    assert code == cli.EXIT_CAP
    assert out == "" and "demonstration cap" in err
    report = _load_valid(target)
    assert report["summary"]["passed"] is False
    failing = {(s["suite"], s["check"]) for s in report["suites"] if not s["passed"]}
    assert failing == {("spectral", "tensor-product"),
                       ("spectral", "constraint-grid")}
    # the command after the capped one still ran
    assert any(s["suite"] == "simulate" for s in report["suites"])


def test_exception_fails_only_its_own_check(monkeypatch, tmp_path, capsys):
    from treefock import gauss

    def broken(mono):
        raise RuntimeError("demonstration fault")

    monkeypatch.setattr(gauss, "moment_by_pairings", broken)
    target = tmp_path / "report.json"
    code, out, err = run_cli(["all", "--format", "json",
                              "--output", str(target), *FAST], capsys)
    assert code == cli.EXIT_FAILED
    assert out == ""
    report = _load_valid(target)
    failing = {(s["suite"], s["check"]): s["failures"]
               for s in report["suites"] if not s["passed"]}
    # the entry names the innermost frame: the line that raised
    where = failing[("beta", "pairing-oracle")][0]["where"]
    assert re.fullmatch(r"test_cli\.py:\d+ in broken", where)
    fault = {"exception": "RuntimeError", "message": "demonstration fault",
             "where": where}
    assert failing == {("beta", "pairing-oracle"): [fault],
                       ("density", "disjoint-product"): [fault]}
    # one stderr line per exception entry
    assert err.splitlines() == [
        f"treefock: {check}: RuntimeError: demonstration fault at {where}"
        for check in ("beta/pairing-oracle", "density/disjoint-product")]
    # the commands after the faulty checks still ran
    assert {s["suite"] for s in report["suites"]} == {
        "fock", "alpha", "beta", "coherence", "density", "spectral", "simulate"}


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
