"""treefock benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload exact-suites --seed 7 --seconds 30 --trace 0

Every repeat runs in a fresh interpreter (``worker.py``), one at a time,
single-threaded, as one caller in a closed loop: the next repeat starts
when the previous one has ended.  ``--trace 0`` starts repeats until the
next one would end after ``--seconds``, after a few set-up-only probes, and
reports the end-to-end metrics as medians.  ``--trace 1`` runs one
untraced and one traced repeat and reports the per-layer metrics of the
traced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A human-readable summary goes to
stderr, and the full record (host facts, drift probe, every repeat, every
failing check) to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("exact-suites", "float-level3", "spectral-grid", "monte-carlo")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio"}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


def drift_probe() -> float:
    """Seconds for a fixed stdlib-only loop; recorded, never used to rescale."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - start


class Repeat:
    """One child process: its parsed result, or why there is none."""

    def __init__(self, workload: str, seed: int, deadline: float,
                 trace: bool = False, setup_only: bool = False,
                 spans: str = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        self.result = None
        self.error = ""
        # one thread per repeat, and hashing fixed by the seed, so the same
        # seed gives the same run
        env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        spawned = _monotonic()
        timeout = max(deadline - spawned, 1.0)
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.error = f"timed out after {timeout:.0f}s"
        else:
            if proc.returncode != 0:
                self.error = f"exit {proc.returncode}: {err.strip()[-2000:]}"
            else:
                try:
                    self.result = json.loads(out.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    self.error = f"unreadable worker output: {out[-500:]!r}"
        self.elapsed = _monotonic() - spawned

    def verdict(self):
        """(attempted, failed, failing check entries) of a full repeat."""
        if self.result is None:
            return 1, 1, [{"name": "worker", "error": self.error}]
        checks = self.result["checks"]
        failing = [c for c in checks if not c["ok"]]
        return len(checks), len(failing), failing


def summarize(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_untraced(workload: str, seed: int, seconds: float, start: float):
    deadline = start + RUN_LIMIT_S
    probes = [Repeat(workload, seed, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    repeats = []
    while True:
        repeats.append(Repeat(workload, seed, deadline))
        longest = max(r.elapsed for r in repeats)
        if _monotonic() - start + longest > seconds:
            break
    return probes, repeats


def end_to_end(probes, repeats, attempted, failed) -> dict:
    done = [r.result for r in repeats if r.result is not None]
    setups = [p.result["setup_s"] for p in probes if p.result is not None]
    setups += [r["setup_s"] for r in done]
    stats = {}
    if done:
        stats["wall_s"] = summarize([r["wall_s"] for r in done])
        stats["peak_rss_mb"] = summarize([r["peak_rss_mb"] for r in done])
    if setups:
        stats["setup_s"] = summarize(setups)
    stats["pass_ratio"] = summarize([1.0 - failed / attempted])
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one treefock benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = _monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "treefock", "__init__.py")):
        print(f"benchmark: no treefock sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_facts(), "drift_probe_before_s": drift_probe()}

    if args.trace:
        deadline = start + RUN_LIMIT_S
        untraced = Repeat(args.workload, args.seed, deadline)
        spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.csv")
        traced = Repeat(args.workload, args.seed, deadline, trace=True, spans=spans)
        repeats = [untraced, traced]
    else:
        probes, repeats = run_untraced(args.workload, args.seed, args.seconds, start)

    attempted = failed = 0
    failing = []
    for r in repeats:
        a, f, bad = r.verdict()
        attempted += a
        failed += f
        failing += bad
    correct = failed == 0

    if args.trace:
        metrics = {}
        if traced.result is not None:
            layers = dict(traced.result["layers"])
            if untraced.result is not None:
                layers["trace.overhead_s"] = (traced.result["wall_s"]
                                              - untraced.result["wall_s"])
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in layers.items()}
            record["spans"] = traced.result.get("spans", 0)
        record["layers"] = {k: v["value"] for k, v in metrics.items()}
        correct = correct and "trace.overhead_s" in metrics
    else:
        stats = end_to_end(probes, repeats, attempted, failed)
        metrics = {name: {"value": s["median"], "unit": END_TO_END_UNITS[name]}
                   for name, s in stats.items()}
        record["end_to_end"] = stats
        correct = correct and set(metrics) == set(END_TO_END_UNITS)

    record["drift_probe_after_s"] = drift_probe()
    record["repeats"] = [{"elapsed_s": r.elapsed, "error": r.error,
                          "result": {k: v for k, v in (r.result or {}).items()
                                     if k not in ("checks", "layers")}}
                         for r in repeats]
    record["failing_checks"] = failing
    record["attempted"], record["failed"] = attempted, failed
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    _print_summary(record)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count"


def _print_summary(record: dict) -> None:
    err = sys.stderr
    host = record["host"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"host: {host['nproc']} cpu '{host['cpu_model']}' python {host['python']} "
          f"numpy {host['numpy']}", file=err)
    print(f"drift probe: {record['drift_probe_before_s']:.4f}s before, "
          f"{record['drift_probe_after_s']:.4f}s after", file=err)
    for name, s in record.get("end_to_end", {}).items():
        print(f"  {name:12s} median {s['median']:.4f} q1 {s['q1']:.4f} "
              f"q3 {s['q3']:.4f} n={s['n']}", file=err)
    failed_ratio = record["failed"] / max(record["attempted"], 1)
    print(f"  checks: {record['attempted']} attempted, {record['failed']} failed "
          f"(failed_ratio {failed_ratio:.4f})", file=err)
    for bad in record["failing_checks"][:10]:
        print(f"  FAILED {bad}", file=err)


if __name__ == "__main__":
    sys.exit(main())
