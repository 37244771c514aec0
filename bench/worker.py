"""One fresh benchmark process: start, import qlzero, optionally run one
`qlzero check`, report.

    python3 bench/worker.py ready  RESULT
    python3 bench/worker.py check  RESULT CONFIG OUT [--cache DIR] [--trace FILE]
                                                      [--ref COUNTER_FILE]

`src` must be on PYTHONPATH.  RESULT receives one JSON object:
`ready` is `time.monotonic()` right after the import (the parent compares
it with its own clock reading taken just before the spawn; CLOCK_MONOTONIC
is system-wide on Linux), `verify_s` and `check_cpu_s` the wall and CPU
time of `cli.main`, and `peak_rss_mb` the whole process's peak RSS.  With
`--trace` the tracer wraps qlzero before the check and its report goes to
FILE.  With `--ref`, `ref` holds the readings of the reference load
(bench/refload.py) just before and after `cli.main`.
"""

import time

import qlzero.cli  # set-up ends here

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from qlzero import hecke, level0  # noqa: E402  (already loaded by cli)


def main(argv):
    mode, result_path = argv[0], argv[1]
    out = {"ready": READY}
    if mode == "check":
        config, report = argv[2], argv[3]
        rest = argv[4:]
        cli_args = ["check", "--config", config, "--out", report]
        if "--cache" in rest:
            cli_args += ["--cache", rest[rest.index("--cache") + 1]]
        tracer = None
        if "--trace" in rest:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        ref = None
        if "--ref" in rest:
            import refload
            ref = refload.open_counter(rest[rest.index("--ref") + 1])
            ref0 = refload.read(ref)
        sink = io.StringIO()
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = qlzero.cli.main(cli_args)
        out["verify_s"] = time.perf_counter() - t0
        out["check_cpu_s"] = time.process_time() - c0
        if ref is not None:
            out["ref"] = [ref0, refload.read(ref)]
        out["rc"] = rc
        if tracer is not None:
            trace = tracer.report()
            trace["caches"] = {
                "hecke.g_mono_cache.entries": len(hecke._G_MONO_CACHE),
                "level0.y_image_cache.entries": len(level0._Y_IMAGE_CACHE),
            }
            with open(rest[rest.index("--trace") + 1], "w") as fh:
                json.dump(trace, fh)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
