"""Command line driver for the verification suites.

Exit codes: 0 every check passed, 1 a check failed (a counterexample, or
an exception its guard recorded), 2 usage error, 3 a check exceeded an
enumeration cap (the report names it as a failing check, and every other
check still ran), 4 the report could not be written.  Each cap and each
exception a guard recorded is also printed on one stderr line; an
exception's line names its check and where it was raised.
Reports are deterministic for a fixed configuration except for the
timing section, which is kept separate from the suite results.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from . import __version__
from .suites import COMMANDS, SUITES, RunConfig, SuiteReport

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treefock",
        description="Run exact verification suites for the tree Fock space, "
                    "its two function-space realizations, and the spectral "
                    "grid calculus.")
    parser.add_argument("--version", action="version",
                        version=f"treefock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    # each option's destination is a RunConfig field, whose default it reads
    defaults = RunConfig()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--level-max", type=int, default=defaults.level_max,
                        metavar="N",
                        help="deepest word level to enumerate, 1..4 "
                             "(default %(default)s)")
    common.add_argument("--degree-max", type=int, default=defaults.degree_max,
                        metavar="L",
                        help="largest word degree to enumerate, 1..5 "
                             "(default %(default)s)")
    common.add_argument("--depth-max", type=int, default=defaults.depth_max,
                        metavar="K",
                        help="deepest grid or sample refinement, 2..16 "
                             "(default %(default)s); grids stop at depth 3 "
                             "and samples at 6, so 6..16 run the same checks")
    common.add_argument("--samples", type=int, default=defaults.samples, metavar="S",
                        help="Monte Carlo sample count (default %(default)s)")
    common.add_argument("--seed", type=int, default=defaults.seed, metavar="SEED",
                        help="seed for every random choice, 0..2**128-2 "
                             "(default %(default)s)")
    common.add_argument("--backend", choices=("exact", "float"),
                        default=defaults.backend,
                        help="exact eighth-root phases or float angles")
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default=defaults.fmt,
                        help="report format (default %(default)s)")
    common.add_argument("--output", default=defaults.output, metavar="PATH",
                        help="write the report here instead of stdout")
    for name, (_, help_line, _) in SUITES.items():
        sub.add_parser(name, parents=[common], help=help_line, description=help_line)
    everything = "every verification suite in sequence"
    sub.add_parser("all", parents=[common], help=everything, description=everything)
    return parser


def run_commands(cfg: RunConfig) -> tuple[List[SuiteReport], Dict[str, float]]:
    """Run the configured commands, timing each one."""
    names = list(COMMANDS) if cfg.command == "all" else [cfg.command]
    suites: List[SuiteReport] = []
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        suites.extend(COMMANDS[name](cfg))
        timings[name] = round(time.perf_counter() - t0, 3)
    timings["total"] = round(time.perf_counter() - start, 3)
    return suites, timings


def render_text(cfg: RunConfig, suites: Sequence[SuiteReport],
                timings: Dict[str, float]) -> str:
    lines = [f"treefock {cfg.command}  backend={cfg.backend} "
             f"level<={cfg.level_max} degree<={cfg.degree_max} "
             f"depth<={cfg.depth_max} samples={cfg.samples} seed={cfg.seed}"]
    for s in suites:
        mark = "PASS" if s.passed else "FAIL"
        lines.append(f"  {mark} {s.suite + '/' + s.check:30s} cases={s.cases:<6d} "
                     f"{s.statement}")
        if not s.passed:
            shown = s.failures[0] if s.failures else {"note": "no cases ran"}
            lines.append(f"       first counterexample: {shown}")
    failing = sum(1 for s in suites if not s.passed)
    lines.append(f"summary: {len(suites)} suites, "
                 f"{sum(s.cases for s in suites)} cases, "
                 f"{failing} failing")
    lines.append("timings: " + " ".join(f"{k}={v:.3f}s" for k, v in timings.items()))
    return "\n".join(lines) + "\n"


def render_json(cfg: RunConfig, suites: Sequence[SuiteReport],
                timings: Dict[str, float]) -> str:
    failing = sum(1 for s in suites if not s.passed)
    report = {
        "program": "treefock",
        "version": __version__,
        "config": cfg.to_json_dict(),
        "suites": [s.to_json_dict() for s in suites],
        "summary": {
            "suites": len(suites),
            "cases": sum(s.cases for s in suites),
            "failing_suites": failing,
            "passed": failing == 0,
        },
        "timings": timings,
    }
    return json.dumps(report, indent=2) + "\n"


def render_csv(cfg: RunConfig, suites: Sequence[SuiteReport],
               timings: Dict[str, float]) -> str:
    # timing columns are omitted so equal configurations give equal bytes
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "check", "cases", "passed", "first_failure"])
    for s in suites:
        writer.writerow([s.suite, s.check, s.cases, s.passed,
                         json.dumps(s.failures[0]) if s.failures else ""])
    return buf.getvalue()


_RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    cfg = RunConfig(**vars(parser.parse_args(argv)))
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"treefock: {exc}", file=sys.stderr)
        return EXIT_USAGE
    suites, timings = run_commands(cfg)
    caps = [f["cap"] for s in suites for f in s.failures if "cap" in f]
    for cap in caps:
        print(f"treefock: {cap}", file=sys.stderr)
    for s in suites:
        for f in s.failures:
            if "exception" in f:
                print(f"treefock: {s.suite}/{s.check}: {f['exception']}: "
                      f"{f['message']} at {f['where']}", file=sys.stderr)
    rendered = _RENDERERS[cfg.fmt](cfg, suites, timings)
    try:
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except OSError as exc:
        print(f"treefock: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if caps:
        return EXIT_CAP
    return EXIT_OK if all(s.passed for s in suites) else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
