"""Run a set of seeds on every workload and report each metric's spread.

Usage, from the root of a checkout::

    python3 benchmarks/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 --out set1.json

Runs ``BENCHMARK.json``'s command once per (seed, workload), interleaved:
every workload runs for one seed before the next seed starts, so a slow
stretch of the host lands on all workloads rather than on one block.  For
each end-to-end metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median, next to the
metric's bound.  Host facts and the drift probe are recorded with the set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, drift_probe, host_facts


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    record = {"host": host_facts(), "drift_probe_before_s": drift_probe(),
              "seeds": args.seeds, "runs": []}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            record["runs"].append({"workload": workload, "seed": seed,
                                   "exit": proc.returncode, "result": result})
            values = ({k: round(v["value"], 4) for k, v in result["metrics"].items()}
                      if result else "")
            print(f"seed {seed} {workload}: exit {proc.returncode} "
                  f"correct {result and result['correct']} {values}", flush=True)
    record["drift_probe_after_s"] = drift_probe()

    summary = {}
    for workload in args.workloads:
        results = [r["result"] for r in record["runs"]
                   if r["workload"] == workload and r["result"]]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            s = spread(values)
            summary[f"{workload}/{m['name']}"] = {
                "median": statistics.median(values), "spread": s,
                "bound": m["bound"], "n": len(values)}
            print(f"{workload:14s} {m['name']:12s} median {statistics.median(values):10.4f} "
                  f"spread {s:.4f} bound {m['bound']} "
                  f"{'ok' if s <= m['bound'] / 3 else 'WIDE'}")
        bad = [r for r in record["runs"] if r["workload"] == workload
               and not (r["result"] and r["result"]["correct"])]
        print(f"{workload:14s} incorrect or failed runs: {len(bad)}")
    record["summary"] = summary
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
