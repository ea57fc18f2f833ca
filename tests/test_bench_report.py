import hashlib
import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the seed-1 `shift-reconstruct` report sha256 recorded in bench/README.md
SHIFT_SHA256 = ("43d0736b104203554d8696252de26bb8e287c5d41d0f747fd5bbda512e8"
                "ff2b1")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shift_reconstruct_report_is_pinned(tmp_path):
    # a refactor that changes one byte of the benchmark's report would
    # otherwise show up only as a failed `bench/run.py` job
    workloads = _load_workloads()
    assert SHIFT_SHA256 in (BENCH / "README.md").read_text()
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(workloads.shift_payload(1)))
    job = workloads.WORKLOADS["shift-reconstruct"]
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = job["load"](str(payload), str(outdir))
    assert argv[:2] == ["reconstruct", "--input"]
    assert argv[-3:] == ["--both-paths", "--order", "6"]
    status, blob = job["run"](argv, str(outdir))
    assert status == 0 and job["check"](status, blob) == []
    assert hashlib.sha256(blob).hexdigest() == SHIFT_SHA256
