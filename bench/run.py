"""frobkit benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Runs certification jobs of one workload (or of each in turn), each in a
fresh child process (``bench/child.py``), one at a time: a closed loop with
one client.  The seed picks the inputs; the same seed gives the same inputs.

``--trace 0`` repeats rounds for ``--seconds``: it starts another round only
while one more round of the average length still ends in time, and always
runs at least two, so that their reports can be compared.  A round is three set-up probes (children that import
frobkit, load the payload and exit) followed by one job.  It reports the
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.

``--trace 1`` runs a traced job, an untraced job and a second traced job.
It reports the per-layer metrics of the traced jobs and
``trace.overhead_s`` (traced minus untraced ``wall_s``).  It fails unless
all three reports are byte-identical and both traced jobs give identical
counts.

Every job checks its known answer; a job that exits with the wrong status,
gets a wrong answer, raises, or writes a report whose sha256 differs from
that of the run's other jobs counts as failed.  Before the last line the
runner prints a table of every metric with its median, quartiles, sample
count and unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
PROBES_PER_ROUND = 3
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def spawn(workload, payload, outdir, *extra):
    """Run one child; return its measurement dict, or one with
    ``problems`` if it died."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, payload, outdir, str(spawned),
             *extra],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out after %d s" % CHILD_TIMEOUT_S]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": ["child exited with %d: %s"
                             % (proc.returncode, proc.stderr.strip()[-2000:])]}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def mark_mismatches(jobs):
    """A job whose report hash differs from the run's first good job
    fails."""
    good = [j for j in jobs if not j["problems"]]
    if not good:
        return
    ref = good[0]["sha256"]
    for j in good[1:]:
        if j["sha256"] != ref:
            j["problems"].append("report sha256 %s differs from %s"
                                 % (j["sha256"], ref))


def measure(workload, payload, rundir, seconds):
    jobs, setups = [], []
    start = time.perf_counter()
    # at least two jobs, so that their reports can be compared; after that,
    # another round only if one more of the average length still ends in time
    while len(jobs) < 2 or (time.perf_counter() - start) * (len(jobs) + 1) \
            / len(jobs) <= seconds:
        for _ in range(PROBES_PER_ROUND):
            probe = spawn(workload, payload, rundir, "--setup-only")
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
        job = spawn(workload, payload,
                    os.path.join(rundir, "job%d" % len(jobs)))
        jobs.append(job)
        if "setup_s" in job:
            setups.append(job["setup_s"])
    mark_mismatches(jobs)
    ok = [j for j in jobs if not j["problems"]]
    samples = {
        "wall_s": ([j["wall_s"] for j in ok], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([j["peak_rss_mb"] for j in ok], "MB"),
    }
    return jobs, samples


def traced(workload, payload, rundir, seconds):
    spans = os.path.join(rundir, "spans.json")
    extras = [["--trace", spans], [],
              ["--trace", os.path.join(rundir, "spans2.json")]]
    jobs = []
    for k, extra in enumerate(extras):
        jobs.append(spawn(workload, payload,
                          os.path.join(rundir, "job%d" % k), *extra))
    mark_mismatches(jobs)
    first, untraced, second = jobs
    for a, b in ((first, second), (second, first)):
        if a["problems"] or b["problems"]:
            continue
        drift = sorted(k for k, v in a["layers"].items()
                       if not k.endswith("_s") and b["layers"][k] != v)
        if drift:
            a["problems"].append("counts differ between traced runs: %s"
                                 % ", ".join(drift))
            break
    samples = {}
    if not any(j["problems"] for j in jobs):
        for key, value in first["layers"].items():
            if key.endswith("_s"):
                samples[key] = ([value, second["layers"][key]], "s")
            else:
                # counts (and ratios of counts) are equal in both runs
                unit = ("ratio" if key.endswith("_ratio") else
                        "bytes" if key.endswith("_bytes") else "count")
                samples[key] = ([value], unit)
        samples["trace.overhead_s"] = (
            [first["wall_s"] - untraced["wall_s"],
             second["wall_s"] - untraced["wall_s"]], "s")
        keep = os.path.join(WORK, "trace-%s.json" % workload)
        shutil.copyfile(spans, keep)
        print("spans of the first traced job: %s" % os.path.relpath(keep,
                                                                    ROOT))
    return jobs, samples


def run_workload(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, "run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        payload = os.path.join(rundir, "payload.json")
        with open(payload, "w") as fh:
            json.dump(WORKLOADS[workload]["make_payload"](seed), fh)
        jobs, samples = (traced if trace else measure)(
            workload, payload, rundir, seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = sum(1 for j in jobs if j["problems"])
    for k, j in enumerate(jobs):
        for p in j["problems"]:
            print("job %d failed: %s" % (k, p))
    shas = sorted({j["sha256"] for j in jobs if "sha256" in j})
    print("workload %s, seed %d, trace %d: %d jobs, report sha256 %s"
          % (workload, seed, trace, len(jobs), " ".join(shas)))
    print("%-34s %14s %14s %14s %4s  %s"
          % ("metric", "median", "q1", "q3", "n", "unit"))
    metrics = {}
    for name, (values, unit) in samples.items():
        if not values:
            continue
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        print("%-34s %14.10g %14.10g %14.10g %4d  %s"
              % (name, med, q1, q3, len(values), unit))
        metrics[name] = {"value": med, "unit": unit}
    print("%-34s %14.10g %14s %14s %4d  %s"
          % ("fail_rate", failed / len(jobs), "", "", len(jobs), "ratio"))
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "frobkit",
                                       "__init__.py")):
        print("no frobkit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        all_correct = all_correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
