"""One repeat of one workload, in a fresh interpreter.

Run by ``run.py``, never imported by it, so no repeat inherits the
``suites._basis`` cache or any other module state from an earlier one.
Prints one JSON object on stdout:

- ``setup_s``: from the parent's spawn time (``--spawned``, a
  CLOCK_MONOTONIC reading) through ``import treefock`` and generating the
  workload's inputs;
- ``wall_s``: from inputs ready to every check verified;
- ``peak_rss_mb``: this process's peak resident set;
- ``checks``: one entry per verification, with its case counts;
- with ``--trace``: the per-layer metrics, and the spans written as CSV
  to ``--spans``.

With ``--setup-only`` it stops after set-up and reports only ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import treefock
    if not os.path.abspath(treefock.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"treefock imported from {treefock.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from workloads import ALL_STEPS, WORKLOADS

    steps = WORKLOADS[args.workload](args.seed)
    ready = _monotonic()
    result = {"setup_s": ready - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = replaced = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        replaced = tracing.install(tracer)
    checks = []
    per_step = {}
    start = time.perf_counter()
    for name, run in steps:
        if tracer is not None:
            run = tracer.wrap(run, f"suites.{name}", record=True)
        got = run()
        checks.extend(got)
        per_step[name] = sum(c.cases for c in got)
    verdicts = [c.ok for c in checks]
    wall = time.perf_counter() - start
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = [dict(vars(c), ok=ok) for c, ok in zip(checks, verdicts)]
    if tracer is not None:
        tracing.uninstall(replaced)
        result["layers"] = tracing.layer_metrics(tracer, wall, ALL_STEPS, per_step)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                fh.write("id,parent,name,start_s,end_s\n")
                for span_id, (name, t0, t1, parent) in enumerate(tracer.spans):
                    fh.write(f"{span_id},{parent},{name},{t0!r},{t1!r}\n")
            result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
