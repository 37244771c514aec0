#!/usr/bin/env python3
"""qlzero benchmark: time to a correct verdict, per workload.

    python3 bench/run.py --workload {operators,ideal,quotient} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
`src/`, nothing needs installing).  Every timed unit is a fresh
single-threaded Python process, because users pay qlzero's cold
process-global caches on every CLI call; processes run one after another.

--trace 0  set-up several times (median), then `qlzero check` jobs back to
           back, closed loop, one client, until --seconds have passed (at
           least one job).  Everything runs on one CPU beside a reference
           load (bench/refload.py) that measures that CPU's speed; times
           are CPU seconds rescaled to the reference speed.  Prints the
           end-to-end metrics.
--trace 1  one set-up, one untraced job, one job with every qlzero module
           wrapped by bench/tracer.py.  Prints the per-layer metrics and the
           tracing overhead; on `quotient` also checks that a cold run (no
           kernel cache) reports the same verdicts as the warm one.

Every job's JSON-lines report is checked against the workload's verdict
table (bench/workloads.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Scratch files go to
bench/out/.  The seed permutes the suite order within the workload and
fixes PYTHONHASHSEED of the processes; the total work is the same for
every seed.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import refload  # noqa: E402
from tracer import suite_label  # noqa: E402
from workloads import WORKLOADS, expected  # noqa: E402

RUN_LIMIT_S = 170.0     # a run must end within 180 s
SETUP_ROUNDS = {"operators": 15, "ideal": 15, "quotient": 3}

# Counts that did not repeat across traced runs and hash seeds (see
# bench/determinism.py); they are left out of the per-layer metrics.
EXCLUDED_COUNTS: frozenset = frozenset()

# Layers entered by every workload report their self time in seconds; the
# others (and single functions, and suites) report a share of the traced
# verify_s, which is 0 where a workload never enters them.
TIMED_LAYERS = ("scalars", "hecke", "affine", "level0", "laurent", "tensor")
SHARED_LAYERS = ("series", "fusion", "rewrite", "characters")
SUITE_LABELS = sorted({suite_label(j["job"]["suite"], j["job"])
                       for w in WORKLOADS.values() for j in w["jobs"]})


class RunError(Exception):
    """The run could not be completed; no result is printed."""


class Run:
    """One benchmark run's inputs and scratch space."""

    def __init__(self, workload: str, seed: int, tag: str):
        if not (SRC / "qlzero" / "cli.py").is_file():
            raise RunError(f"no qlzero sources under {SRC}")
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.t_start = time.monotonic()
        self.jobs, self.hashseed = self.order(workload, seed)
        self.dir = HERE / "out" / f"{workload}-seed{seed}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps({"suites": self.jobs}, indent=1))
        self.cache = self.dir / "kernel-cache" if self.spec["kernels"] else None
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONHASHSEED=str(self.hashseed))
        self.env.pop("QLZERO_CACHE", None)
        self.n_proc = 0

    @staticmethod
    def order(workload: str, seed: int) -> tuple[list[dict], int]:
        """The seed's suite order and PYTHONHASHSEED."""
        rng = random.Random(seed)
        jobs = [j["job"] for j in WORKLOADS[workload]["jobs"]]
        rng.shuffle(jobs)
        return jobs, rng.randrange(1, 2 ** 32)

    # -- processes ------------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[float, float]:
        """Run one process to completion; return the monotonic time read
        just before it was spawned and the CPU seconds it used."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            raise RunError("run time limit reached")
        self.n_proc += 1
        log = self.dir / f"proc{self.n_proc}.log"
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log, "w") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RunError(f"timed out: {argv}") from None
        if proc.returncode != 0:   # worker.py exits 0 whatever the verdicts
            raise RunError(f"exit {proc.returncode}: {argv}\n{log.read_text()}")
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        return t0, (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    def worker(self, *args: str) -> tuple[float, float, dict]:
        result = self.dir / f"result{self.n_proc + 1}.json"
        t0, cpu = self.spawn([str(HERE / "worker.py"), args[0], str(result),
                              *args[1:]])
        return t0, cpu, json.loads(result.read_text())

    def setup(self) -> dict:
        """Spawn to ready: fill a fresh kernel cache with `qlzero kernel`
        (one CLI call per kernel the jobs load), then start a process that
        imports qlzero.  Returns the seconds from the first spawn to ready
        (`wall_s`) and the CPU seconds of the processes (`cpu_s`)."""
        t0 = None
        cpu = 0.0
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
            for n, window, families in self.spec["kernels"]:
                t, c = self.spawn(["-m", "qlzero.cli", "kernel", "--n", str(n),
                                   f"--window={window}", "--families", families,
                                   "--cache", str(self.cache)])
                t0 = t if t0 is None else t0
                cpu += c
            if len(list(self.cache.iterdir())) != len(self.spec["kernels"]):
                raise RunError("kernel cache not filled as expected")
        t, c, res = self.worker("ready")
        return {"wall_s": res["ready"] - (t if t0 is None else t0),
                "cpu_s": cpu + c}

    def job(self, trace: Path | None = None, cold: bool = False,
            ref: Path | None = None) -> dict:
        """One `qlzero check` of the workload in a fresh process, judged
        against the verdict table."""
        report = self.dir / f"report{self.n_proc + 1}.jsonl"
        args = ["check", str(self.config), str(report)]
        if self.cache is not None and not cold:
            args += ["--cache", str(self.cache)]
        if trace is not None:
            args += ["--trace", str(trace)]
        if ref is not None:
            args += ["--ref", str(ref)]
        _t0, _cpu, res = self.worker(*args)
        res["rows"] = read_report(report)
        res["attempted"], res["failed"] = judge(self.workload, res["rows"],
                                                res["rc"])
        return res

    def record(self, trace: int) -> dict:
        return {"workload": self.workload, "seed": self.seed, "trace": trace,
                "suite_order": [suite_label(j["suite"], j) for j in self.jobs],
                "pythonhashseed": self.hashseed, "commit": git_commit(),
                "source_sha256": source_digest(), "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(), "waiting": None}


# -- verdicts -------------------------------------------------------------------


def read_report(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]


def judge(workload: str, rows: list[dict], rc: int) -> tuple[int, int]:
    """(attempted, failed) against the verdict table.  Failed counts each
    missing check, extra check, differing status and nonzero residual on a
    pass, plus one for a nonzero exit code."""
    want: dict[str, Counter] = {}
    for name, status in expected(workload):
        want.setdefault(name, Counter())[status] += 1
    got: dict[str, Counter] = {}
    for r in rows:
        got.setdefault(r["name"], Counter())[r["status"]] += 1
    failed = 0
    for name in want.keys() | got.keys():
        w, g = want.get(name, Counter()), got.get(name, Counter())
        nw, ng = sum(w.values()), sum(g.values())
        matched = sum(min(w[s], g[s]) for s in w)
        failed += abs(nw - ng) + (min(nw, ng) - matched)
    failed += sum(1 for r in rows if r["status"] == "pass" and r["residual"])
    failed += rc != 0
    return max(len(rows), len(expected(workload))), failed


def verdicts(rows: list[dict]) -> list[tuple]:
    """A report without its timing field, for comparing two runs."""
    return sorted(tuple(sorted((k, v) for k, v in r.items() if k != "seconds"))
                  for r in rows)


# -- run record -------------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qlzero").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- metrics ------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


class Reference:
    """The reference load (bench/refload.py), running on the run's CPU."""

    def __init__(self, run: Run):
        self.path = run.dir / "refload.bin"
        refload.create(self.path)
        with open(run.dir / "refload.log", "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "refload.py"), str(self.path)],
                cwd=ROOT, env=run.env, stdout=log, stderr=subprocess.STDOUT)
        self.mm = refload.open_counter(self.path)
        deadline = time.monotonic() + 10.0
        while self.read()[0] < 1:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RunError("the reference load did not start")
            time.sleep(0.01)

    def read(self) -> tuple[float, float]:
        return refload.read(self.mm)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.mm.close()


def ref_seconds(cpu_s: float, speed: float | None) -> float:
    """CPU seconds at the reference speed."""
    if speed is None:
        raise RunError("the reference load got too little CPU to measure")
    return cpu_s * speed / refload.NOMINAL_RATE


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict, list]:
    # One CPU for everything (the processes inherit the affinity), shared
    # with the reference load, which gets about a tenth of it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ref = Reference(run)
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS[run.workload]):
            before = ref.read()
            rounds.append((run.setup(), before, ref.read()))
        # an import-only set-up is too short to time the reference within
        # it; those rounds take the speed over the whole set-up phase
        phase = refload.rate(rounds[0][1], rounds[-1][2])
        setup = [ref_seconds(s["cpu_s"], refload.rate(b, a) or phase)
                 for s, b, a in rounds]
        jobs = []
        t_measure = time.monotonic()
        while not jobs or time.monotonic() - t_measure < seconds:
            job = run.job(ref=ref.path)
            job["speed"] = refload.rate(*job["ref"])
            job["verify_ref_s"] = ref_seconds(job["check_cpu_s"], job["speed"])
            jobs.append(job)
    finally:
        ref.close()
    samples = {"setup_s": setup,
               "verify_ref_s": [j["verify_ref_s"] for j in jobs],
               "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
               # as measured, before rescaling (not metrics: see NOTES.md)
               "setup_wall_s": [s["wall_s"] for s, _b, _a in rounds],
               "verify_s": [j["verify_s"] for j in jobs],
               "check_cpu_s": [j["check_cpu_s"] for j in jobs],
               "ref_speed": [j["speed"] for j in jobs]}
    units = {"setup_s": "s", "verify_ref_s": "s", "peak_rss_mb": "MB"}
    stats = {k: summary(v) for k, v in samples.items()}
    metrics = {k: {"value": stats[k]["median"], "unit": units[k]} for k in units}
    return metrics, stats, jobs


def per_layer(trace: dict, untraced_s: float, traced_s: float) -> dict:
    st, oc = trace["stats"], trace["outcomes"]
    layer = trace["layer_self_s"]

    def calls(key):
        return st.get(key, {}).get("calls", 0)

    def self_s(key):
        return st.get(key, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def share(seconds):
        return ratio(seconds, traced_s)

    gcds = calls("scalars.qp_gcd")
    adds = calls("linalg.LinearBasis.add")
    m = {
        "scalars.rfq_mul.calls": (calls("scalars.RatFuncQ.__mul__"), "count"),
        "scalars.rfq_add.calls": (calls("scalars.RatFuncQ.__add__"), "count"),
        "scalars.qp_gcd.calls": (gcds, "count"),
        "scalars.qp_div_exact.calls": (calls("scalars.qp_div_exact"), "count"),
        "scalars.qp_gcd.nontrivial_ratio":
            (ratio(oc.get("scalars.qp_gcd.nontrivial", 0), gcds), "ratio"),
        "hecke.G_poly.calls": (calls("hecke.G_poly"), "count"),
        "hecke.g_mono_cache.entries":
            (trace["caches"]["hecke.g_mono_cache.entries"], "count"),
        "affine.Y_poly.calls": (calls("affine.Y_poly"), "count"),
        "level0.hat_y_apply.calls": (calls("level0.hat_y_apply"), "count"),
        "level0.y_image_cache.entries":
            (trace["caches"]["level0.y_image_cache.entries"], "count"),
        "laurent.mul.calls": (calls("laurent.LaurentPoly.__mul__"), "count"),
        "laurent.divided_difference.calls":
            (calls("laurent.lp_divided_difference"), "count"),
        "tensor.add.calls": (calls("tensor.TensorPoly.__add__"), "count"),
        "tensor.uq_apply.calls": (calls("tensor.uq_apply"), "count"),
        "series.mul.calls": (calls("series.SymbolSeries.mul"), "count"),
        "series.extract_all.calls":
            (calls("series.SymbolSeries.extract_all"), "count"),
        "kernel.build.calls": (calls("kernel.kernel_build"), "count"),
        "kernel.generators": (oc.get("kernel.generators", 0), "count"),
        "kernel.useful_ratio": (ratio(oc.get("kernel.rank", 0),
                                      oc.get("kernel.generators", 0)), "ratio"),
        "kernel.member.calls": (calls("kernel.KernelBasis.member"), "count"),
        "kernel.cache_bytes": (oc.get("kernel.cache_bytes", 0), "bytes"),
        "linalg.add.calls": (adds, "count"),
        "linalg.add.rank_gain_ratio":
            (ratio(oc.get("linalg.add.rank_gain", 0), adds), "ratio"),
        "linalg.reduce.calls": (calls("linalg.LinearBasis.reduce"), "count"),
        "linalg.add.self_share": (share(self_s("linalg.LinearBasis.add")), "ratio"),
        "linalg.reduce.self_share":
            (share(self_s("linalg.LinearBasis.reduce")), "ratio"),
        "kernel.load.self_share":
            (share(self_s("kernel.KernelBasis.load_text")), "ratio"),
        "rewrite.system_build_share": (share(
            st.get("rewrite.RewriteSystem.__init__", {}).get("total_s", 0.0)), "ratio"),
        "trace.verify_s": (traced_s, "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
    }
    for name in TIMED_LAYERS:
        m[f"{name}.self_s"] = (layer.get(name, 0.0), "s")
    for name in SHARED_LAYERS:
        m[f"{name}.self_share"] = (share(layer.get(name, 0.0)), "ratio")
    suite_s = Counter()
    for span in trace["spans"]:
        if span["kind"] == "suite":
            suite_s[span["name"]] += span["end"] - span["start"]
    for label in SUITE_LABELS:
        m[f"cli.suite_share.{label}"] = (share(suite_s.get(label, 0.0)), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())
            if k not in EXCLUDED_COUNTS}


def traced(run: Run) -> tuple[dict, dict, list]:
    run.setup()
    plain = run.job()
    trace_file = run.dir / "trace.json"
    job = run.job(trace=trace_file)
    trace = json.loads(trace_file.read_text())
    metrics = per_layer(trace, plain["verify_s"], job["verify_s"])
    jobs = [plain, job]
    info = {"n": 1, "untraced_verify_s": plain["verify_s"],
            "overhead_ratio": metrics["trace.overhead_ratio"]["value"],
            "spans": len(trace["spans"])}
    if run.cache is not None:
        cold = run.job(cold=True)
        jobs.append(cold)
        same = verdicts(cold["rows"]) == verdicts(plain["rows"])
        info["cold_matches_warm"] = same
        if not same:
            cold["failed"] += 1
    return metrics, info, jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run = Run(args.workload, args.seed, f"trace{args.trace}")
        if args.trace:
            metrics, info, jobs = traced(run)
        else:
            metrics, info, jobs = end_to_end(run, args.seconds)
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    record = run.record(args.trace)
    record["stats"] = info
    record["checks_total"] = attempted
    record["checks_failed"] = failed
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (run.dir / "result.json").write_text(json.dumps(
        {"record": record, "result": result}, indent=1))
    print("record " + json.dumps(record))
    print("waiting: none (single process, no queues or threads)")
    for name, m in metrics.items():
        extra = ""
        if name in info and isinstance(info[name], dict):
            s = info[name]
            extra = f"  n={s['n']} min={s['min']:.4g} max={s['max']:.4g}"
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"checks_total {attempted}  checks_failed {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
