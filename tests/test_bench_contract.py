"""The benchmark's contract, run as a test.

A traced benchmark run imports every module the tracer lists, reads the
process caches, wraps the suite, kernel, report and rewriter entry points,
and judges every check name against the workload's verdict table
(bench/workloads.py).  A change that breaks any of these fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["operators", "ideal", "quotient"])
def test_traced_benchmark_run(workload):
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                        "--seed", "1", "--seconds", "1", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]
    last = json.loads(r.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0, last
