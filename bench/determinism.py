#!/usr/bin/env python3
"""Do the per-layer counts repeat exactly?

    python3 bench/determinism.py --workload quotient [--seed 1]

Runs the traced job of a workload four times: twice with the same seed,
once more with the same suite order but another PYTHONHASHSEED, and once
with the next seed that gives another suite order (and hash seed).  Compares every
count the tracer keeps (calls of each wrapped function, outcome counters,
cache sizes) and every per-layer count and ratio of counts (time shares
are times, and are left out).  Prints
the names that differ; exits 1 when a per-layer metric that run.py reports
does not repeat (it then belongs in run.EXCLUDED_COUNTS).
"""

from __future__ import annotations

import argparse
import json
import sys

from run import Run, RunError, WORKLOADS, per_layer
from tracer import suite_label


def traced_counts(run: Run, label: str) -> tuple[dict, dict]:
    run.setup()
    trace_file = run.dir / f"trace-{label}.json"
    job = run.job(trace=trace_file)
    if job["failed"]:
        raise RunError(f"{label}: {job['failed']} verdicts differ from the table")
    trace = json.loads(trace_file.read_text())
    raw = {f"calls:{k}": v["calls"] for k, v in trace["stats"].items()}
    raw.update({f"outcome:{k}": v for k, v in trace["outcomes"].items()})
    raw.update({f"cache:{k}": v for k, v in trace["caches"].items()})
    named = {k: m["value"] for k, m in per_layer(trace, 1.0, 1.0).items()
             if m["unit"] in ("count", "bytes", "ratio")
             and not k.startswith("trace.") and "_share" not in k}
    return raw, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        base = Run(args.workload, args.seed, "determinism")
        other_hash = str((base.hashseed * 7919) % (2 ** 32 - 1) + 1)
        runs = [("A", base), ("B", base)]
        c = Run(args.workload, args.seed, "determinism-hash")
        c.env["PYTHONHASHSEED"] = other_hash
        runs.append(("C", c))
        other = args.seed + 1
        while Run.order(args.workload, other)[0] == base.jobs:
            other += 1
        runs.append(("D", Run(args.workload, other, "determinism-seed")))
        results = {label: traced_counts(run, label) for label, run in runs}
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for label, run in runs:
        print(f"{label}: seed {run.seed} PYTHONHASHSEED {run.env['PYTHONHASHSEED']}"
              f" order {[suite_label(j['suite'], j) for j in run.jobs]}")
    bad_named = []
    for part, kind in ((0, "tracer count"), (1, "per-layer metric")):
        keys = set().union(*(r[part] for r in results.values()))
        differ = sorted(k for k in keys
                        if len({r[part].get(k) for r in results.values()}) > 1)
        print(f"{kind}s compared: {len(keys)}, not repeating: {len(differ)}")
        for k in differ:
            print(f"  {k}: " + ", ".join(f"{lbl}={r[part].get(k)}"
                                         for lbl, r in results.items()))
        if part == 1:
            bad_named = differ
    return 1 if bad_named else 0


if __name__ == "__main__":
    sys.exit(main())
