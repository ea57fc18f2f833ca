import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit import cli, pencil, unfold
from frobkit.cli import main
from frobkit.germ import (frobenius_via_unfolding, germ_to_ftype,
                          initial_from_filtration, normalize_germ)
from frobkit.jacobi import XPoly, build_jacobi
from frobkit.pencil import (PairingMatrix, flatness_residual, gc_check,
                            ic_check, structure_connection)
from frobkit.series import (MAX_INPUT_ORDER, SeriesError, SeriesMatrix,
                            TruncSeries, frac_from_str)
from frobkit.structures import (FrobeniusTypeStructure, filtration_to_ftype,
                                shift_example)
from frobkit.unfold import UnfoldProblem, solve
from helpers import (codim_one_polynomial, point_base_pencil,
                     rank1_log_pencil, rank2_higgs_ftype, socle_draws)

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


def test_h2check_rejects_witness_at_covered_degree(tmp_path):
    # x^6 + y^6 + x y z^2: the socle sits at scaled degree 10, and z^6 at
    # scaled degree 12 (where x and y are covered) survives every partial
    payload = {"num_vars": 3, "weights": ["1/6", "1/6", "1/3"],
               "terms": [[[6, 0, 0], "1/1"], [[0, 6, 0], "1/1"],
                         [[1, 1, 2], "1/1"]]}
    code, report, _ = _run(tmp_path, "h2check", payload)
    assert code == 1 and report["ok"] is False
    assert report["error"] == ("graded piece at weighted degree 2 is "
                               "nonzero above the socle bound")


def test_jacobi_rejects_witness_at_covered_degree(tmp_path):
    # the payload above: x^11 and y^11 lie in the ideal and z^6 does not, so
    # the degree-by-degree certificate names the first nonzero piece
    payload = {"num_vars": 3, "weights": ["1/6", "1/6", "1/3"],
               "terms": [[[6, 0, 0], "1/1"], [[0, 6, 0], "1/1"],
                         [[1, 1, 2], "1/1"]]}
    code, report, _ = _run(tmp_path, "jacobi", payload)
    assert code == 1 and report["ok"] is False
    assert report["error"] == ("graded piece at weighted degree 2 is "
                               "nonzero above the socle bound")


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


def test_unfold_evaluates_the_flatness_system_four_times(tmp_path,
                                                        monkeypatch):
    # solve checks its base and certifies its output; the reduced check
    # evaluates the unfolded pencil and its restriction to y = 0, and its
    # potential matrix needs only the closedness equations
    calls = []

    def counted(P):
        calls.append(P.vars)
        return flatness_residual(P)

    for module in (cli, pencil, unfold):
        monkeypatch.setattr(module, "flatness_residual", counted,
                            raising=False)
    P, _ = point_base_pencil(2)
    f = [TruncSeries(("y1", "y2"), 3, {e: 1}).to_json()
         for e in ((1, 0), (0, 1))]
    code, _, _ = _run(tmp_path, "unfold", {"pencil": P.to_json(), "f": f,
                                           "y_vars": ["y1", "y2"],
                                           "order": 2})
    assert code == 0 and len(calls) == 4


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


def test_reconstruct_ftype_weight_off_its_grading_is_a_rejection(tmp_path):
    # the rank-2 structure is graded, with eigenvalue 1/2 at its first frame
    # vector, so its germ has weight 3; another weight is a rejection, not a
    # broken invariant
    def payload(weight):
        return {"initial": {"kind": "ftype", "weight": weight,
                            "ftype": rank2_higgs_ftype(2).to_json()}}

    code, report, _ = _run(tmp_path, "reconstruct", payload(3), "--order", "2")
    assert code == 0 and report["weight"] == 3
    code, report, _ = _run(tmp_path, "reconstruct", payload(1), "--order", "2")
    assert code == 1
    assert report["error"] == "this graded structure needs weight 3, not 1"


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


def _rename_vars(obj, names):
    """The payload with every "vars" list renamed through names."""
    if isinstance(obj, dict):
        return {k: [names[v] for v in x] if k == "vars"
                else _rename_vars(x, names) for k, x in obj.items()}
    if isinstance(obj, list):
        return [_rename_vars(x, names) for x in obj]
    return obj


def test_renaming_base_variables_keeps_the_germ_bytes(tmp_path):
    # germ coordinates are always s1..sn, so base names that sort the other
    # way round change nothing in the report
    t = TruncSeries.var(("t",), 2, "t")
    shift, _ = filtration_to_ftype(shift_example(5, [t + 1], order=2))
    graded = frobenius_via_unfolding(initial_from_filtration(
        shift_example(4, [], order=2)))
    cases = [(shift.to_json(), {"t": "a"}, 5, ["--both-paths"]),
             (germ_to_ftype(graded).to_json(),
              {"s1": "c", "s2": "b", "s3": "a"}, 0, [])]
    for k, (ft, names, weight, flags) in enumerate(cases):
        payload = {"initial": {"kind": "ftype", "ftype": ft,
                               "weight": weight}}
        blobs = []
        for side, p in enumerate((payload, _rename_vars(payload, names))):
            d = tmp_path / ("%d-%d" % (k, side))
            d.mkdir()
            code, _, out = _run(d, "reconstruct", p, "--order", "2", *flags)
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1] and b'"s1"' in blobs[0]


def _h2check_payload(f, ws, perm):
    """The h2check payload of f with variable i moved to place perm[i]."""
    def move(seq):
        out = [0] * ws.nvars
        for i, v in zip(perm, seq):
            out[i] = v
        return out

    def text(c):
        return "%d/%d" % (c.numerator, c.denominator)

    return {"num_vars": ws.nvars, "weights": list(map(text, move(ws.weights))),
            "terms": [[move(e), text(c)] for e, c in sorted(f.terms.items())]}


def test_permuting_variables_keeps_the_h2check_bytes(tmp_path):
    """Permuting the variables, with exponents and weights permuted
    together, leaves report.json byte-identical: seeded algebras over both
    engines, and the codim-one polynomial."""
    rng = random.Random(7)
    engines = set()
    for k, A in enumerate(chain([build_jacobi(*codim_one_polynomial())],
                                socle_draws(32, 8))):
        n = A.ws.nvars
        perm = rng.sample(range(n), n)
        if perm == sorted(perm):
            perm.reverse()
        blobs = []
        for side, p in enumerate((range(n), perm)):
            d = tmp_path / ("%d-%d" % (k, side))
            d.mkdir()
            code, _, out = _run(d, "h2check", _h2check_payload(A.f, A.ws, p))
            assert code in (0, 1)
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]
        engines.add(A.piece(A.ws.scale)._uf is None)
    assert engines == {False, True}


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
    def broken(*args):
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


def test_repeated_exponent_in_a_series_payload_exits_two(tmp_path):
    # b_2 = t + 2t with t listed twice would parse as 2t if the last
    # coefficient won; a repeated exponent is a malformed payload
    twice = {"vars": ["t"], "order": 4,
             "terms": [[[1], "1/1"], [[1], "2/1"]]}
    payload = {"initial": {"kind": "shift-example", "weight": 5,
                           "b": [twice]}}
    code, report, _ = _run(tmp_path, "reconstruct", payload)
    assert code == 2 and report is None
    with pytest.raises(SeriesError, match=r"repeated exponent \[1\]"):
        TruncSeries.from_json(twice)


def test_repeated_exponent_in_a_polynomial_payload_exits_two(tmp_path):
    # x^3 - x^3 + y^3 is y^3, which has no isolated singularity; the last
    # coefficient of x^3 must not win and make it -x^3 + y^3
    payload = {"num_vars": 2, "weights": ["1/3", "1/3"],
               "terms": [[[3, 0], "1/1"], [[3, 0], "-1/1"],
                         [[0, 3], "1/1"]]}
    code, report, _ = _run(tmp_path, "h2check", payload)
    assert code == 2 and report is None
    with pytest.raises(ValueError, match=r"repeated exponent \[3, 0\]"):
        XPoly.from_json(2, payload["terms"])


def _wrong_shapes():
    cubic = _fermat_payload(3, 3)
    cubic["initial"]["pairing"] = [["1/1"]]
    # the frame of the cubic is its integer-degree part (rank 2), not the
    # whole algebra (Milnor number 8)
    milnor = _fermat_payload(3, 3)
    milnor["initial"]["pairing"] = [["1/1" if i + j == 7 else "0/1"
                                     for j in range(8)] for i in range(8)]
    ft = rank2_higgs_ftype(4).to_json()
    ragged = dict(ft, pairing=[["1/1", "0/1"], ["0/1"]])
    P, _ = structure_connection(rank2_higgs_ftype(4), 1)
    filtration = shift_example(5, [TruncSeries(("t",), 4, {(0,): 1})],
                               order=4).to_json()
    filtration["pairing"] = [["1/1"]]
    # rank-4 shift example (weight 5) with one level too few, and with a
    # 3 x 3 connection matrix
    shift = shift_example(5, [TruncSeries(("t",), 4, {(0,): 1})],
                          order=4).to_json()
    three = SeriesMatrix.identity(3, ("t",), 4).to_json()
    short_levels = dict(shift, levels=shift["levels"][:-1])
    small_gamma = dict(shift, gamma=[three])
    extra_higgs = dict(ft, higgs=ft["higgs"] + ft["higgs"])
    three_ft = SeriesMatrix.identity(3, tuple(ft["vars"]), 4).to_json()
    big_u = dict(ft, u_endo=three_ft)
    big_higgs = dict(ft, higgs=[three_ft] * len(ft["higgs"]))
    # 2 x 2 entries under a 3 x 3 header
    mislabelled_u = dict(ft, u_endo=dict(ft["u_endo"], rows=3, cols=3))
    # the rank-2 point pencil and its pairing with one 3 x 3 block each or
    # a block too many, the rank-2 pencil over t with a 3 x 3 C block, and
    # an unfolding of the point pencil with one first-column function
    point, g = point_base_pencil(2)
    pj = point.to_json()
    three_pt = SeriesMatrix.identity(3, (), 2).to_json()
    pairing = PairingMatrix.constant(0, g, (), 2, 8).to_json()
    big_coeff = dict(pairing, coeffs=[three_pt] + pairing["coeffs"][1:])
    pt = P.to_json()
    three_t = SeriesMatrix.identity(3, tuple(pt["t_vars"]), 4).to_json()

    def plane_cubic(**change):
        return dict({"num_vars": 2, "weights": ["1/3", "1/3"],
                     "terms": [[[3, 0], "1/1"], [[0, 3], "1/1"]]}, **change)

    # the point germ in one coordinate s1: the unit as multiplication, the
    # potential s1^3/6, and no Euler data in either form
    germ = {"coords": ["s1"], "rank": 1, "order": 3,
            "mult": [SeriesMatrix.identity(1, ("s1",), 3).to_json()],
            "metric": [["1/1"]],
            "potential": TruncSeries(("s1",), 3,
                                     {(3,): Fraction(1, 6)}).to_json()}
    return [
        ("reconstruct", cubic),
        ("reconstruct", milnor),
        ("reconstruct", {"initial": {"kind": "ftype", "ftype": ft,
                                     "zeta": ["1/1"]}}),
        ("reconstruct", {"initial": {"kind": "ftype", "ftype": ft,
                                     "zeta": ["1/1", "0/1", "0/1"]}}),
        ("ftype-check", ragged),
        ("universal-unfold", {"pencil": P.to_json(), "zeta": ["1/1"]}),
        ("universal-unfold", {"pencil": P.to_json(),
                              "zeta": ["1/1", "0/1", "0/1"]}),
        ("reconstruct", {"initial": {"kind": "filtration",
                                     "filtration": filtration}}),
        ("ftype-check", extra_higgs),
        ("reconstruct", {"initial": {"kind": "filtration",
                                     "filtration": short_levels}}),
        ("reconstruct", {"initial": {"kind": "filtration",
                                     "filtration": small_gamma}}),
        ("ftype-check", big_u),
        ("ftype-check", big_higgs),
        ("ftype-check", mislabelled_u),
        ("universal-unfold", {"pencil": dict(pj, U=three_pt)}),
        ("pairing-extend", {"pencil": pj, "pairing": big_coeff}),
        ("universal-unfold", {"pencil": dict(pt, C=[three_t])}),
        ("universal-unfold", {"pencil": dict(pj, V=three_pt)}),
        ("universal-unfold", {"pencil": dict(pj, W=three_pt)}),
        ("universal-unfold", {"pencil": dict(pj, y_vars=["y1"],
                                             F=[three_pt])}),
        ("universal-unfold", {"pencil": dict(pj, C=[pj["U"]])}),
        ("pairing-extend", {"pencil": dict(pj, F=[pj["U"]]),
                            "pairing": pairing}),
        ("unfold", {"pencil": pj, "y_vars": ["y1"],
                    "f": [TruncSeries(("y1",), 3, {(1,): 1}).to_json()]}),
        # polynomial and germ values that do not parse
        ("h2check", plane_cubic(terms=[[[3, 0, 1], "1/1"],
                                       [[0, 3], "1/1"]])),
        ("h2check", plane_cubic(terms=[[[3, -1], "1/1"], [[0, 3], "1/1"]])),
        ("jacobi", plane_cubic(weights=["abc", "1/3"])),
        ("h2check", plane_cubic(terms=[[[3, 0], "x"], [[0, 3], "1/1"]])),
        ("jacobi", plane_cubic(weights=["1/3"])),
        ("h2check", plane_cubic(weights=["2/3", "1/3"])),
        ("wdvv", germ),
        ("compare", {"left": germ, "right": germ}),
        # x^3 + y^2 is not weighted homogeneous of degree 1 for 1/3, 1/3,
        # and a polynomial whose only coefficient is 0 is zero
        ("h2check", plane_cubic(terms=[[[3, 0], "1/1"], [[0, 2], "1/1"]])),
        ("h2check", plane_cubic(terms=[[[3, 0], "0/1"]])),
        # the point germ with Euler degrees, and a two-entry exponent in its
        # mult matrix, or a 2 x 2 mult matrix at rank 1
        ("wdvv", dict(germ, euler_degrees=["-1/1"], mult=[dict(
            germ["mult"][0], entries=[[[[[0, 0], "1/1"]]]])])),
        ("wdvv", dict(germ, euler_degrees=["-1/1"], mult=[
            SeriesMatrix.identity(2, ("s1",), 3).to_json()])),
    ]


@pytest.mark.parametrize("command, payload", _wrong_shapes(),
                         ids=["jacobi-pairing-1x1", "jacobi-pairing-milnor",
                              "zeta-short", "zeta-long",
                              "ftype-pairing-ragged",
                              "unfold-zeta-short", "unfold-zeta-long",
                              "filtration-pairing-1x1", "ftype-extra-higgs",
                              "filtration-levels-short",
                              "filtration-gamma-3x3", "ftype-u-endo-3x3",
                              "ftype-higgs-3x3", "ftype-u-endo-header-3x3",
                              "pencil-u-3x3", "pairing-coeff-3x3",
                              "pencil-c-3x3", "pencil-v-3x3", "pencil-w-3x3",
                              "pencil-f-3x3", "pencil-extra-c",
                              "pencil-extra-f", "unfold-f-short",
                              "exponent-too-long", "exponent-negative",
                              "weight-abc", "coefficient-x", "weights-short",
                              "weight-out-of-range", "wdvv-no-euler",
                              "compare-no-euler", "not-homogeneous",
                              "zero-polynomial", "wdvv-exponent-too-long",
                              "wdvv-mult-2x2"])
def test_wrong_shape_payload_matrices_exit_two(tmp_path, command, payload):
    # each passes its schema; a pairing, v_endo, zeta, Higgs field, first
    # endomorphism, connection, level list, pencil block or pairing
    # coefficient of the wrong shape or count is a malformed payload, not a
    # failed certification, a traceback or exit 3
    code, report, _ = _run(tmp_path, command, payload)
    assert code == 2 and report is None


def _fuzz_bases():
    """A small valid payload for each of the ten commands."""
    ft = rank2_higgs_ftype(2).to_json()
    point, g = point_base_pencil(2)
    f = [TruncSeries(("y1",), 3, {(1,): 1}), TruncSeries(("y1",), 3, {})]
    unfolded = solve(UnfoldProblem(point, ("y1",), f, 2))
    sc, _ = structure_connection(rank2_higgs_ftype(2), 1)
    cubic = {"num_vars": 2, "weights": ["1/3", "1/3"],
             "terms": [[[3, 0], "1/1"], [[0, 3], "1/1"]]}
    shift = {"kind": "shift-example", "weight": 5,
             "b": [{"vars": ["t"], "order": 2, "terms": [[[0], "1/1"]]}]}
    germ = normalize_germ(frobenius_via_unfolding(
        initial_from_filtration(shift_example(4, [], order=2)))).to_json()
    return [
        ("jacobi", cubic),
        ("h2check", cubic),
        ("ftype-check", ft),
        ("structure-connection", {"ftype": ft, "weight": 1}),
        ("unfold", {"pencil": point.to_json(), "y_vars": ["y1"],
                    "f": [s.to_json() for s in f], "order": 2}),
        ("universal-unfold", {"pencil": sc.to_json(),
                              "zeta": ["1/1", "0/1"]}),
        ("pairing-extend", {"pencil": unfolded.to_json(), "pairing":
                            PairingMatrix.constant(0, g, (), 2, 6).to_json()}),
        ("reconstruct", {"initial": shift}),
        ("reconstruct", {"initial": {"kind": "ftype", "ftype": ft,
                                     "zeta": ["1/1", "0/1"], "weight": 3}}),
        ("wdvv", germ),
        ("compare", {"left": germ, "right": germ}),
    ]


def _paths(obj, path=()):
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutations(parent, value):
    """Each way to break the value under a key or at an index of parent."""
    out = [("replace", w) for w in (None, True, 2.5, "x", [], {})
           if type(w) is not type(value)]
    if isinstance(parent, dict):
        out.append(("drop",))
    if isinstance(value, list) and value:
        out += [("replace", value[:-1]), ("replace", value + value[-1:])]
    if isinstance(value, int) and not isinstance(value, bool):
        # a well-formed value can still be wrong: zero, or the largest order
        out += [("replace", w) for w in (-value, 0, MAX_INPUT_ORDER)]
    if isinstance(value, str):
        out += [("replace", bad) for bad in ("abc", "1/0", "")]
        if "/" in value:
            out.append(("replace", "0/1"))
    return out


FUZZ_BASES = _fuzz_bases()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_mutated_payloads_exit_zero_one_or_two(data):
    # a payload with one key dropped, or one value of the wrong type, list
    # length, sign or fraction, or a zero or the largest order in place of
    # a number, ends as a report or a rejected input, never as a broken
    # invariant (exit 3) or a traceback
    command, payload = data.draw(st.sampled_from(FUZZ_BASES))
    payload = json.loads(json.dumps(payload))
    path = data.draw(st.sampled_from(list(_paths(payload))[1:]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    change = data.draw(st.sampled_from(_mutations(parent, parent[path[-1]])))
    if change[0] == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = change[1]
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "in.json")
        with open(inp, "w") as fh:
            json.dump(payload, fh)
        result = CliRunner().invoke(
            main, [command, "--input", inp, "--output",
                   os.path.join(tmp, "out"), "--order", "2", "--z-order",
                   "2"], catch_exceptions=False)
    assert result.exit_code in (0, 1, 2), (command, path, change)


def test_zero_zeta_and_germs_in_other_coordinates_exit_one(tmp_path):
    # a zero distinguished vector is a rejection, as in universal-unfold;
    # two germs in differently named coordinates differ in their coords
    ft = rank2_higgs_ftype(2).to_json()
    code, report, _ = _run(tmp_path, "reconstruct", {"initial": {
        "kind": "ftype", "ftype": ft, "zeta": ["0/1", "0/1"]}})
    assert code == 1 and report["error"] == "distinguished vector is zero"
    germ = dict(FUZZ_BASES)["wdvv"]
    renamed = json.loads(json.dumps(germ).replace('"s', '"u'))
    code, report, _ = _run(tmp_path, "compare",
                           {"left": germ, "right": renamed})
    assert code == 1 and not report["equal"]
    assert [d["check"] for d in report["diffs"]] == ["coords"]


def test_reconstruct_and_universal_unfold_refuse_alike(tmp_path):
    # the rank-2 structure over t with C = U = V = 0 fails gc and ic at
    # the origin; both commands name generation, which is checked first,
    # with the same certificate
    Z = SeriesMatrix.zeros(2, 2, ("t",), 2)
    ident = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
    FT = FrobeniusTypeStructure(("t",), 2, [Z], Z, [[0, 0], [0, 0]], ident, 2)
    P, _ = structure_connection(FT, 2)
    assert not gc_check(P).ok and not ic_check(P)["ok"]
    code, rec, _ = _run(tmp_path, "reconstruct", {"initial": {
        "kind": "ftype", "ftype": FT.to_json()}}, "--order", "2")
    assert code == 1
    code, uni, _ = _run(tmp_path, "universal-unfold", {"pencil": P.to_json()})
    assert code == 1
    assert rec["error"] == uni["error"] == "generation condition fails"
    assert rec["detail"] == uni["detail"]


@pytest.mark.parametrize("command, flag", [("pairing-extend", "--z-order"),
                                           ("reconstruct", "--order")])
def test_negative_truncation_flags_exit_two(tmp_path, command, flag):
    # a negative order is a usage error, caught before any payload is read
    code, report, out = _run(tmp_path, command, dict(FUZZ_BASES)[command],
                             flag, "-1")
    assert code == 2 and report is None and not out.exists()


def test_order_beyond_the_exponent_field_exits_two(tmp_path):
    # series keys hold each exponent in a field of MAX_ORDER + 1 values, and
    # the constructors need three orders above their input
    code, report, out = _run(tmp_path, "reconstruct",
                             dict(FUZZ_BASES)["reconstruct"], "--order",
                             str(MAX_INPUT_ORDER + 1))
    assert code == 2 and report is None and not out.exists()
    P, _ = rank1_log_pencil(MAX_INPUT_ORDER + 1)
    code, report, out = _run(tmp_path, "universal-unfold",
                             {"pencil": P.to_json()})
    assert code == 2 and report is None and not out.exists()


def test_z_order_stops_at_the_top_input_order(tmp_path):
    # --z-order shares --order's range: a larger one would only write a
    # zero matrix per z-power
    payload = dict(FUZZ_BASES)["structure-connection"]
    code, report, _ = _run(tmp_path, "structure-connection", payload,
                           "--z-order", str(MAX_INPUT_ORDER))
    assert code == 0 and report["z_order"] == MAX_INPUT_ORDER
    (tmp_path / "over").mkdir()
    code, report, out = _run(tmp_path / "over", "structure-connection",
                             payload, "--z-order", str(MAX_INPUT_ORDER + 1))
    assert code == 2 and report is None and not out.exists()


@pytest.mark.parametrize("coefficient", [1.5, True])
def test_non_string_rational_in_a_polynomial_exits_two(tmp_path,
                                                       coefficient):
    # a rational is an int or a "num/den" string; JSON floats and booleans
    # are not exact rationals
    terms = [[[3, 0], coefficient], [[0, 3], "1/1"]]
    code, report, out = _run(tmp_path, "jacobi", {
        "num_vars": 2, "weights": ["1/3", "1/3"], "terms": terms})
    assert code == 2 and report is None and not out.exists()


def test_float_coefficient_in_a_series_payload_exits_two(tmp_path):
    b = {"vars": ["t"], "order": 4, "terms": [[[0], "1/1"], [[1], 0.1]]}
    code, report, out = _run(tmp_path, "reconstruct", {"initial": {
        "kind": "shift-example", "weight": 5, "b": [b]}})
    assert code == 2 and report is None and not out.exists()
    with pytest.raises(ValueError, match="must be an int or a string"):
        frac_from_str(0.1)


def test_universal_unfold_at_the_top_input_order_exits_zero(tmp_path):
    # the unfolding runs at order + 1 inside the exponent field
    P, _ = rank1_log_pencil(MAX_INPUT_ORDER)
    code, report, _ = _run(tmp_path, "universal-unfold",
                           {"pencil": P.to_json()})
    assert code == 0 and report["chart_invertible"]


def test_pairing_extension_check_rejects_a_negative_z_order():
    point, g = point_base_pencil(2)
    f = [TruncSeries(("y1",), 3, {(1,): 1}), TruncSeries(("y1",), 3, {})]
    unfolded = solve(UnfoldProblem(point, ("y1",), f, 2))
    with pytest.raises(SeriesError):
        pencil.pairing_extension_check(
            unfolded, PairingMatrix.constant(0, g, (), 2, 6), z_order=-1)


# --trace and --both-paths exist only on the one command each acts on
FLAG_OWNERS = {"--trace": "unfold", "--both-paths": "reconstruct"}


@pytest.mark.parametrize("command", sorted(cli.RUNNERS))
def test_flags_exist_only_where_they_act(tmp_path, command):
    usage = CliRunner().invoke(main, [command, "--help"]).output
    for flag, owner in FLAG_OWNERS.items():
        assert (flag in usage) == (command == owner)
        if command != owner:
            # a usage error before any payload is read: nothing is written
            code, report, out = _run(tmp_path, command,
                                     dict(FUZZ_BASES)[command], flag)
            assert code == 2 and report is None and not out.exists()


def test_restated_orders_must_agree_with_their_data(tmp_path):
    # an ftype that claims order 6 over order-2 series is malformed at any
    # --order (it broke an invariant at 4 and passed at 6), and so is a
    # pairing whose z_order is not its number of z-coefficients less one
    ft = dict(rank2_higgs_ftype(2).to_json(), order=6)
    for order in ("4", "6"):
        code, report, out = _run(tmp_path, "reconstruct", {
            "initial": {"kind": "ftype", "ftype": ft}}, "--order", order)
        assert code == 2 and report is None and not out.exists()
    payload = dict(FUZZ_BASES)["pairing-extend"]
    assert len(payload["pairing"]["coeffs"]) == 7
    code, report, out = _run(tmp_path, "pairing-extend", dict(
        payload, pairing=dict(payload["pairing"], z_order=99)))
    assert code == 2 and report is None and not out.exists()


def test_pairing_coefficients_are_read_to_the_pencil_order(tmp_path):
    # a coefficient below the pencil's order 2 is malformed (it broke an
    # invariant in the y-transport), and one above it is truncated to it
    payload = dict(FUZZ_BASES)["pairing-extend"]
    assert payload["pencil"]["order"] == 2
    code, base, _ = _run(tmp_path, "pairing-extend", payload)
    assert code == 0
    for order, want in ((0, 2), (1, 2), (MAX_INPUT_ORDER, 0)):
        coeffs = [dict(R, order=order) if k == 3 else R
                  for k, R in enumerate(payload["pairing"]["coeffs"])]
        (tmp_path / str(order)).mkdir()
        code, report, out = _run(tmp_path / str(order), "pairing-extend",
                                 dict(payload, pairing=dict(
                                     payload["pairing"], coeffs=coeffs)))
        assert code == want
        if want:
            assert report is None and not out.exists()
        else:
            assert report == base


def test_wdvv_checks_the_euler_field_of_an_ungraded_germ(tmp_path):
    # an ungraded germ keeps its Euler field as coordinates; adding s_1 to
    # its second one breaks the Euler identity of the multiplication
    from frobkit.germ import FrobeniusGermData
    from test_germ import point_rank2_init
    G = frobenius_via_unfolding(point_rank2_init(2))
    assert G.degrees is None
    code, _, out = _run(tmp_path, "wdvv", G.to_json())
    assert code == 0
    assert (out / "report.json").read_text() == json.dumps({
        "command": "wdvv", "euler_violations": [], "ok": True, "order": 4,
        "wdvv_violations": [], "z_order": 4}, indent=2) + "\n"
    euler = list(G.euler)
    euler[1] = euler[1] + TruncSeries.var(G.coords, G.order, G.coords[0])
    bad = FrobeniusGermData(G.coords, G.n, G.mult, G.metric, None, euler,
                            G.potential, G.order)
    code, report, _ = _run(tmp_path, "wdvv", bad.to_json())
    assert code == 1 and report["wdvv_violations"] == []
    assert {v["check"] for v in report["euler_violations"]} == {
        "euler-multiplication"}
