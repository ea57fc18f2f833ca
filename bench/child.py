"""One benchmark job in a fresh interpreter.

    python3 bench/child.py WORKLOAD PAYLOAD OUTDIR SPAWNED_NS [--setup-only]
                           [--trace SPANS_PATH]

SPAWNED_NS is the parent's ``time.perf_counter_ns()`` taken just before it
started this process.  On Linux that clock is CLOCK_MONOTONIC, which every
process shares, so ``setup_s`` below is the time from spawn to job start:
interpreter start, ``import frobkit`` (with click and jsonschema) and the
workload's ``load`` step.  The job's report goes to OUTDIR; one JSON line with the
measurements goes to standard output.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    workload, payload_path, outdir, spawned_ns = argv[:4]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, SRC)
    import frobkit
    import frobkit.cli  # noqa: F401  (click and jsonschema are part of set-up)
    if not os.path.abspath(frobkit.__file__).startswith(SRC + os.sep):
        raise SystemExit("frobkit imported from %s, not from %s"
                         % (frobkit.__file__, SRC))
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    os.makedirs(outdir, exist_ok=True)
    loaded = spec["load"](payload_path, outdir)
    start = time.perf_counter_ns()
    result = {"setup_s": (start - int(spawned_ns)) / 1e9}
    if setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter_ns()
    try:
        status, blob = spec["run"](loaded, outdir)
    except Exception:
        result["problems"] = ["raised: " + traceback.format_exc()]
    else:
        result["wall_s"] = (time.perf_counter_ns() - start) / 1e9
        result["sha256"] = hashlib.sha256(blob).hexdigest()
        result["status"] = status
        result["problems"] = spec["check"](status, blob)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.dump(spans_path)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
