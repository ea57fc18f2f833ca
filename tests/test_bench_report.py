import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from click.testing import CliRunner

from frobkit import cli, germ, pencil, structures
from frobkit.cli import main
from frobkit.series import SeriesMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the seed-1 report (certificate) sha256s recorded in bench/README.md
SHIFT_SHA256 = ("43d0736b104203554d8696252de26bb8e287c5d41d0f747fd5bbda512e8"
                "ff2b1")
CODIM_SHA256 = ("1ac44189f1bbf9177815665db2be4866bda5f1d7f3accb3492f4cc18af3"
                "3f73d")
QUINTIC_SHA256 = ("6274e95baf99435341203df38b46a7187496181194e6adcd5a0f846f9"
                  "e8a3b2d")


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


def test_codim_h2check_report_is_pinned(tmp_path):
    workloads = _load_workloads()
    assert CODIM_SHA256 in (BENCH / "README.md").read_text()
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(workloads.codim_payload(1)))
    job = workloads.WORKLOADS["codim-h2check"]
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = job["load"](str(payload), str(outdir))
    assert argv[:2] == ["h2check", "--input"]
    status, blob = job["run"](argv, str(outdir))
    assert status == 1 and job["check"](status, blob) == []
    assert hashlib.sha256(blob).hexdigest() == CODIM_SHA256


def test_quintic_gc_certificate_is_pinned(tmp_path):
    workloads = _load_workloads()
    assert QUINTIC_SHA256 in (BENCH / "README.md").read_text()
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(workloads.quintic_payload(1)))
    job = workloads.WORKLOADS["quintic-gc"]
    loaded = job["load"](str(payload), str(tmp_path))
    status, blob = job["run"](loaded, str(tmp_path))
    assert status == 0 and job["check"](status, blob) == []
    assert hashlib.sha256(blob).hexdigest() == QUINTIC_SHA256


def test_shift_reconstruct_checks_each_structure_once(tmp_path, monkeypatch):
    # InitialData.create certifies the axioms inside its one structure
    # connection, and frobenius_via_unfolding reuses that pencil at the
    # same order; the other check is filtration_to_ftype's
    calls = {"check_ftype_axioms": 0, "structure_connection": 0}
    for name, orig in (("check_ftype_axioms", structures.check_ftype_axioms),
                       ("structure_connection",
                        pencil.structure_connection)):
        def spy(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "frobkit"
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, spy)
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(_load_workloads().shift_payload(1)))
    result = CliRunner().invoke(main, [
        "reconstruct", "--input", str(payload), "--output",
        str(tmp_path / "out"), "--both-paths", "--order", "6"],
        catch_exceptions=False)
    assert result.exit_code == 0
    assert calls["check_ftype_axioms"] <= 2
    assert calls["structure_connection"] == 1


def test_shift_reconstruct_inverts_one_relation_matrix_per_degree(
        tmp_path, monkeypatch):
    # the generation relations of each positive Euler degree have weight-0
    # coefficients, so h2_reconstruct inverts their matrix G once, before
    # the first stage; its one other inverse is its flat chart's.  The
    # report normalizes each of its two germs once
    inverses, during, degrees, normalized = [0], [], [], []
    inverse, recon = SeriesMatrix.inverse_series, cli.h2_reconstruct
    normalize = germ.normalize_germ

    def counted_inverse(self):
        inverses[0] += 1
        return inverse(self)

    def counted_recon(*args, **kwargs):
        start = inverses[0]
        G = recon(*args, **kwargs)
        during.append(inverses[0] - start)
        degrees.extend(G.degrees)
        return G

    def counted_normalize(G):
        normalized.append(G.n)
        return normalize(G)

    monkeypatch.setattr(SeriesMatrix, "inverse_series", counted_inverse)
    monkeypatch.setattr(cli, "h2_reconstruct", counted_recon)
    for mod in (cli, germ):
        monkeypatch.setattr(mod, "normalize_germ", counted_normalize)
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(_load_workloads().shift_payload(1)))
    result = CliRunner().invoke(main, [
        "reconstruct", "--input", str(payload), "--output",
        str(tmp_path / "out"), "--both-paths", "--order", "6"],
        catch_exceptions=False)
    assert result.exit_code == 0
    assert len({d for d in degrees if d > 0}) == 8
    assert during == [8 + 1]
    assert normalized == [10, 10]
