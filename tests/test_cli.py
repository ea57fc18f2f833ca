import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from frobkit import cli
from frobkit.cli import main
from frobkit.pencil import PairingMatrix
from frobkit.series import SeriesError
from helpers import point_base_pencil, rank2_higgs_ftype

QUINTIC = {
    "num_vars": 5,
    "weights": ["1/5"] * 5,
    "terms": [[[5 if i == j else 0 for i in range(5)], "1/1"]
              for j in range(5)],
}
LEMMA = {
    "num_vars": 6,
    "weights": ["1/9", "1/9", "1/9", "2/9", "2/9", "2/9"],
    "terms": [[[9, 0, 0, 0, 0, 0], "1/1"], [[0, 9, 0, 0, 0, 0], "1/1"],
              [[0, 0, 9, 0, 0, 0], "1/1"], [[1, 0, 0, 4, 0, 0], "1/1"],
              [[0, 1, 0, 0, 4, 0], "1/1"], [[0, 0, 1, 0, 0, 4], "1/1"]],
}


def _run(tmp_path, command, payload, *extra):
    inp = tmp_path / ("%s_in.json" % command)
    out = tmp_path / ("%s_out" % command)
    inp.write_text(json.dumps(payload))
    runner = CliRunner()
    result = runner.invoke(main, [command, "--input", str(inp),
                                  "--output", str(out)] + list(extra),
                           catch_exceptions=False)
    report = None
    rp = out / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return result.exit_code, report, out


def test_jacobi_quintic_report(tmp_path):
    code, report, _ = _run(tmp_path, "jacobi", QUINTIC)
    assert code == 0
    assert report["milnor"] == 1024
    assert report["integer_dims"] == {"0": 1, "1": 101, "2": 101, "3": 1}
    assert report["order"] == 4 and report["z_order"] == 4


def test_h2check_codim_instance_exits_one(tmp_path):
    code, report, _ = _run(tmp_path, "h2check", LEMMA)
    assert code == 1
    assert report["generation"]["codimensions"] == {"2": 1, "3": 0, "4": 0}
    assert report["ok"] is False


def test_schema_violation_exits_two(tmp_path):
    code, report, _ = _run(tmp_path, "jacobi", {"nope": 1})
    assert code == 2


def test_ftype_check_roundtrip(tmp_path):
    FT = rank2_higgs_ftype(4)
    code, report, _ = _run(tmp_path, "ftype-check", FT.to_json())
    assert code == 0 and report["violations"] == []
    bad = FT.to_json()
    bad["v_endo"] = [["1/1", "0/1"], ["0/1", "0/1"]]
    code, report, _ = _run(tmp_path, "ftype-check", bad)
    assert code == 1
    assert any(v["check"] == "pairing-v-skew" for v in report["violations"])


def test_structure_connection_and_universal_unfold(tmp_path):
    FT = rank2_higgs_ftype(4)
    code, report, _ = _run(tmp_path, "structure-connection",
                           {"ftype": FT.to_json(), "weight": 1})
    assert code == 0
    pencil = report["pencil"]
    code, report2, _ = _run(tmp_path, "universal-unfold",
                            {"pencil": pencil})
    assert code == 0
    assert report2["chart_invertible"] is True
    assert len(report2["pencil"]["y_vars"]) == 1


def test_unfold_and_pairing_extend(tmp_path):
    P, g = point_base_pencil(4)
    f = [{"vars": ["y1", "y2"], "order": 5, "terms": [[[1, 0], "1/1"]]},
         {"vars": ["y1", "y2"], "order": 5, "terms": [[[0, 1], "1/1"]]}]
    code, report, _ = _run(tmp_path, "unfold",
                           {"pencil": P.to_json(), "y_vars": ["y1", "y2"],
                            "f": f})
    assert code == 0 and report["flat"] and report["reduced"]["passes"]
    R0 = PairingMatrix.constant(0, g, (), 4, 8)
    code, rep2, _ = _run(tmp_path, "pairing-extend",
                         {"pencil": report["pencil"],
                          "pairing": R0.to_json()})
    assert code == 0 and rep2["passes"]


def test_unfold_trace_flag(tmp_path):
    P, _ = point_base_pencil(2)
    f = [{"vars": ["y1"], "order": 3, "terms": [[[1], "1/1"]]},
         {"vars": ["y1"], "order": 3, "terms": []}]
    code, report, _ = _run(tmp_path, "unfold",
                           {"pencil": P.to_json(), "y_vars": ["y1"],
                            "f": f, "order": 2}, "--trace", "--order", "2")
    assert code == 0
    assert [st["y_degree"] for st in report["trace"]] == [0, 1, 2]


def test_reconstruct_both_paths_and_compare(tmp_path):
    payload = {"initial": {"kind": "shift-example", "weight": 5,
                           "b": [{"vars": ["t"], "order": 4,
                                  "terms": [[[0], "1/1"], [[1], "1/1"]]}]}}
    code, report, _ = _run(tmp_path, "reconstruct", payload, "--both-paths")
    assert code == 0
    assert report["two_path_comparison"]["equal"]
    germ = report["germ"]
    # the two normalized germ serializations are byte-identical
    assert (json.dumps(germ, sort_keys=True)
            == json.dumps(report["germ_recursion"], sort_keys=True))

    code2, rep2, _ = _run(tmp_path, "wdvv", germ)
    assert code2 == 0 and rep2["wdvv_violations"] == []

    code3, rep3, _ = _run(tmp_path, "compare",
                          {"left": germ, "right": germ})
    assert code3 == 0 and rep3["equal"]


def test_reconstruct_jacobi_kind(tmp_path):
    cubic = {
        "num_vars": 3,
        "weights": ["1/3"] * 3,
        "terms": [[[3, 0, 0], "1/1"], [[0, 3, 0], "1/1"],
                  [[0, 0, 3], "1/1"]],
    }
    payload = {"initial": {"kind": "jacobi", "polynomial": cubic}}
    code, report, _ = _run(tmp_path, "reconstruct", payload, "--both-paths")
    assert code == 0
    assert report["two_path_comparison"]["equal"]
    assert report["weight"] == 3


def _fermat_payload(nvars, d):
    return {"initial": {"kind": "jacobi", "polynomial": {
        "num_vars": nvars,
        "weights": ["1/%d" % d] * nvars,
        "terms": [[[d if i == j else 0 for i in range(nvars)], "1/1"]
                  for j in range(nvars)],
    }}}


@pytest.mark.parametrize("nvars, d", [(3, 3), (4, 4)],
                         ids=["cubic", "quartic-k3"])
def test_reconstruct_jacobi_kind_order_zero(tmp_path, nvars, d):
    code, report, _ = _run(tmp_path, "reconstruct", _fermat_payload(nvars, d),
                           "--order", "0", "--both-paths")
    assert code == 0
    assert report["order"] == 0 and report["weight"] == d
    assert report["two_path_comparison"]["equal"]


def test_reconstruct_k3_order_one_is_a_structured_rejection(tmp_path):
    # the family's normal forms exist at order 1; what fails is the flat
    # constant pairing, and the report says so
    code, report, _ = _run(tmp_path, "reconstruct", _fermat_payload(4, 4),
                           "--order", "1", "--both-paths")
    assert code == 1
    assert report["ok"] is False and report["order"] == 1
    assert report["error"].startswith("no nondegenerate flat pairing exists")
    assert "no constant pairing is flat" in report["error"]
    assert report["detail"] == {"solution_space_dim": 0, "order": 1}


def test_python_m_frobkit_matches_cli_main(tmp_path):
    _, _, out = _run(tmp_path, "h2check", QUINTIC)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    sub_out = tmp_path / "module_out"
    proc = subprocess.run(
        [sys.executable, "-m", "frobkit", "h2check",
         "--input", str(tmp_path / "h2check_in.json"),
         "--output", str(sub_out)],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ((sub_out / "report.json").read_bytes()
            == (out / "report.json").read_bytes())


def test_outputs_byte_identical_across_runs(tmp_path):
    code1, _, out1 = _run(tmp_path, "jacobi", QUINTIC)
    blob1 = (out1 / "report.json").read_bytes()
    os.rename(out1 / "report.json", out1 / "first.json")
    code2, _, out2 = _run(tmp_path, "jacobi", QUINTIC)
    assert (out1 / "first.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_reconstruct_report_ignores_thread_variable(tmp_path, monkeypatch):
    payload = {"initial": {"kind": "shift-example", "weight": 5,
                           "b": [{"vars": ["t"], "order": 4,
                                  "terms": [[[0], "1/1"], [[1], "1/1"]]}]}}
    blobs = []
    for threads in (None, "4"):
        if threads is None:
            monkeypatch.delenv("FROBKIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("FROBKIT_THREADS", threads)
        run_dir = tmp_path / ("threads-%s" % threads)
        run_dir.mkdir()
        code, _, out = _run(run_dir, "reconstruct", payload)
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("exc", [AssertionError("family is not flat"),
                                 SeriesError("variable lists differ")])
def test_internal_invariant_failure_exits_three(tmp_path, monkeypatch, exc):
    def broken(payload, order, z_order, trace, both):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "jacobi", broken)
    code, report, out = _run(tmp_path, "jacobi", QUINTIC, "--order", "2")
    assert code == 3
    assert report == {"error": str(exc), "error_type": type(exc).__name__,
                      "command": "jacobi", "order": 2, "z_order": 4,
                      "ok": False}
    assert (out / "summary.txt").read_text().startswith("internal error: ")


def test_malformed_payload_series_exits_two(tmp_path):
    # a one-variable series with a two-entry exponent passes the schema;
    # parsing it fails, and that is a malformed payload, not exit 3
    bad = {"vars": ["t"], "order": 4, "terms": [[[0, 0], "1/1"]]}
    code, report, _ = _run(
        tmp_path, "reconstruct",
        {"initial": {"kind": "shift-example", "weight": 5, "b": [bad]}})
    assert code == 2 and report is None
    P, _ = point_base_pencil(2)
    zero = {"vars": ["y1"], "order": 3, "terms": []}
    for first in ({"vars": ["y1"], "order": 3, "terms": [[[1, 2], "1/1"]]},
                  # well formed, but in a variable outside the context
                  {"vars": ["q"], "order": 3, "terms": [[[1], "1/1"]]}):
        code, report, _ = _run(tmp_path, "unfold",
                               {"pencil": P.to_json(), "y_vars": ["y1"],
                                "f": [first, zero]})
        assert code == 2 and report is None
