"""Every structured rejection of the CLI that no other test reaches.

Each case runs one command on a payload that parses but fails one named
condition, and checks the exit status and the message under ``error`` (or,
for ``pairing-extend``, the failed report key).  Inputs above the order
they need are truncated, so they must give the report of the payload
truncated beforehand.  The helper tests call the CLI's helpers directly,
for paths that no payload reaches: a kind the schema already refuses, a
report write that fails, and a Fraction left in a report.  The last test
perturbs flat pencils until the flatness system flags them: no command
certifies a non-flat pencil.
"""

import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobkit.cli import _atomic_write, _initial_data, _plain
from frobkit.germ import (frobenius_via_unfolding, initial_from_filtration,
                          normalize_germ)
from frobkit.jacobi import build_jacobi
from frobkit.pencil import (ConnectionPencil, PairingMatrix, flatness_residual,
                            structure_connection)
from frobkit.series import SeriesMatrix, TruncSeries, frac_to_str
from frobkit.structures import (FrobeniusTypeStructure, RejectionError,
                                filtration_to_ftype, jacobi_to_filtration,
                                shift_example)
from frobkit.unfold import UnfoldProblem, solve, universal_unfold
from helpers import (consts, fermat, point_base_pencil, rank2_higgs_ftype,
                     spanning_pencil)
from test_cli import _fermat_payload, _run

F = Fraction


def _series(vars, order, terms):
    return TruncSeries(vars, order, terms).to_json()


def _unfold(pencil, y_vars, f, order=2):
    return {"pencil": pencil.to_json(), "y_vars": list(y_vars), "f": f,
            "order": order}


POINT, GRAM = point_base_pencil(2)
# f_1 = y1, f_2 = 0: the one-direction unfolding of the point pencil
LINEAR = [_series(("y1",), 3, {(1,): 1}), _series(("y1",), 3, {})]
UNFOLDED = solve(UnfoldProblem(POINT, ("y1",),
                               [TruncSeries.from_json(s) for s in LINEAR], 2))


def _zero_pencil(y_vars=()):
    # rank 2 over a point with every block zero: flat, but U = 0 reaches
    # nothing from the unit, so generation fails
    zero = SeriesMatrix.zeros(2, 2, y_vars, 2)
    return ConnectionPencil((), y_vars, 2, [], [zero] * len(y_vars), zero,
                            zero, zero, 2)


def _deformed_shift_pencil():
    # the structure connection of the weight-5 shift example with
    # b_2 = 1 + t, whose Higgs block depends on t
    t = TruncSeries.var(("t",), 2, "t")
    ft, _ = filtration_to_ftype(shift_example(5, [t + 1], order=2))
    return structure_connection(ft, 5)[0]


def _ic_failing_ftype():
    # the rank-2 point structure with an idle t-direction: U generates the
    # fiber, and C_t = 0 sends t into the kernel of the injectivity map
    P, g = point_base_pencil(2)
    return FrobeniusTypeStructure(
        ("t",), 2, [SeriesMatrix.zeros(2, 2, ("t",), 2)],
        consts(P.U.at_origin(), ("t",), 2), [[F(0)] * 2] * 2, g, 2)


def _two_t_pencil():
    # rank 2 over (t1, t2) with C1 = I, C2 = [[0, t1], [1, 0]] and U = V =
    # W = 0: the t-directions span the fiber, and C2 moves with t1 where
    # C1 and U do not follow, so the pencil is not flat
    ts = ("t1", "t2")
    zero = SeriesMatrix.zeros(2, 2, ts, 2)
    C2 = SeriesMatrix.from_sparse(2, 2, ts, 2, {
        (0, 1): TruncSeries.var(ts, 2, "t1"), (1, 0): TruncSeries.one(ts, 2)})
    return ConnectionPencil(ts, (), 2, [SeriesMatrix.identity(2, ts, 2), C2],
                            [], zero, zero, zero, 2)


def _gc_failing_pencil():
    # rank 3 over one t-direction: C(0) sends e0 to e1 and kills e1 and
    # e2, so C e0 spans the base (ic) but e2 is never reached (gc)
    zero = SeriesMatrix.zeros(3, 3, ("t",), 2)
    C = consts([[0, 0, 0], [1, 0, 0], [0, 0, 0]], ("t",), 2)
    return ConnectionPencil(("t",), (), 3, [C], [], zero, zero, zero, 2)


FILTRATION = shift_example(4, [], order=2).to_json()
ASYMMETRIC = [row[:] for row in FILTRATION["pairing"]]
ASYMMETRIC[2][0] = "1/1"
RANK2 = rank2_higgs_ftype(2).to_json()


def _filtration(**change):
    return {"initial": {"kind": "filtration",
                        "filtration": dict(FILTRATION, **change)}}


def _k3_with_order_zero_pairing():
    # the flat pairing of the K3 family at order 0 is not flat at order 1
    D, _ = jacobi_to_filtration(build_jacobi(*fermat(4, 4)), order=0)
    payload = _fermat_payload(4, 4)
    payload["initial"]["pairing"] = [list(map(frac_to_str, row))
                                     for row in D.S]
    return payload


def _shift(order, terms):
    return {"initial": {"kind": "shift-example", "weight": 5,
                        "b": [{"vars": ["t"], "order": order,
                               "terms": terms}]}}


REJECTIONS = [
    ("unfold-base-has-y", "unfold", lambda: _unfold(
        UNFOLDED, ["y2"], [_series(("y2",), 3, {(1,): 1}),
                           _series(("y2",), 3, {})]), (),
     "base pencil must not already carry unfolding directions"),
    ("unfold-f-below-order", "unfold", lambda: _unfold(
        POINT, ["y1"], [dict(s, order=2) for s in LINEAR]), (),
     "f_1 carries too little precision (order 2 < 3)"),
    ("unfold-base-fails-gc", "unfold", lambda: _unfold(
        _zero_pencil(), ["y1"], LINEAR), (),
     "generation condition fails at the origin"),
    ("unfold-base-below-order", "unfold", lambda: _unfold(
        _deformed_shift_pencil(), ["y1"],
        [_series(("t", "y1"), 4, {(0, 1): 1} if k == 1 else {})
         for k in range(4)], order=3), (),
     "base pencil carries too little t-precision (order 2 < 3)"),
    ("structure-connection-axioms-fail", "structure-connection", lambda: {
        "ftype": dict(RANK2, v_endo=[["1/1", "0/1"], ["0/1", "0/1"]]),
        "weight": 1}, (), "structure axioms fail"),
    ("universal-unfold-base-has-y", "universal-unfold",
     lambda: {"pencil": UNFOLDED.to_json()}, (),
     "pencil already carries unfolding directions"),
    ("universal-unfold-zero-zeta", "universal-unfold", lambda: {
        "pencil": structure_connection(rank2_higgs_ftype(2), 1)[0].to_json(),
        "zeta": ["0/1", "0/1"]}, (), "distinguished vector is zero"),
    ("universal-unfold-fails-gc", "universal-unfold",
     lambda: {"pencil": _gc_failing_pencil().to_json()}, (),
     "generation condition fails"),
    ("universal-unfold-spanning-base-not-flat", "universal-unfold",
     lambda: {"pencil": _two_t_pencil().to_json()}, (),
     "base pencil is not flat"),
    ("reconstruct-half-integer-eigenvalue", "reconstruct", lambda: {
        "initial": {"kind": "ftype", "ftype": dict(
            RANK2, v_endo=[["1/4", "0/1"], ["0/1", "-1/4"]])}},
     ("--order", "2"),
     "eigenvalue 2*1/2 is not an integer; pass a weight explicitly"),
    ("reconstruct-fails-ic", "reconstruct", lambda: {
        "initial": {"kind": "ftype", "ftype": _ic_failing_ftype().to_json(),
                    "weight": 0}}, ("--order", "2"),
     "injectivity condition fails"),
    ("reconstruct-two-top-vectors", "reconstruct",
     lambda: _filtration(levels=[3, 3, 1]), ("--order", "2"),
     "top level is not one-dimensional"),
    ("reconstruct-top-vector-not-first", "reconstruct",
     lambda: _filtration(levels=[2, 3, 1]), ("--order", "2"),
     "top-level vector must come first in the frame; reorder the "
     "filtration data"),
    ("reconstruct-no-pairing", "reconstruct",
     lambda: _filtration(pairing=None), ("--order", "2"),
     "filtration data has no pairing"),
    ("reconstruct-asymmetric-pairing", "reconstruct",
     lambda: _filtration(pairing=ASYMMETRIC), ("--order", "2"),
     "derived metric is not symmetric"),
    ("reconstruct-shift-b-below-order", "reconstruct",
     lambda: _shift(2, [[[0], "1/1"], [[1], "1/1"]]), ("--order", "3"),
     "coefficient function b_2 carries too little precision (order 2 < 3)"),
    ("reconstruct-jacobi-not-straight", "reconstruct", lambda: {
        "initial": {"kind": "jacobi", "polynomial": {
            "num_vars": 2, "weights": ["1/2", "1/3"],
            "terms": [[[2, 0], "1/1"], [[0, 3], "1/1"]]}}}, ("--order", "2"),
     "only straight weight systems give projective hypersurfaces"),
    ("reconstruct-jacobi-pairing-not-flat", "reconstruct",
     _k3_with_order_zero_pairing, ("--order", "1"),
     "jacobi filtration data fails its invariants"),
    ("pairing-extend-few-z-coefficients", "pairing-extend", lambda: {
        "pencil": UNFOLDED.to_json(),
        "pairing": PairingMatrix.constant(0, GRAM, (), 2, 5).to_json()}, (),
     "base pairing carries 6 z-coefficients, need 7 for y-order 2"),
]


@pytest.mark.parametrize("command, payload, flags, error",
                         [case[1:] for case in REJECTIONS],
                         ids=[case[0] for case in REJECTIONS])
def test_rejection_exits_one_with_its_message(tmp_path, command, payload,
                                              flags, error):
    code, report, _ = _run(tmp_path, command, payload(), *flags)
    assert code == 1 and report["ok"] is False
    assert report["error"] == error


@pytest.mark.parametrize("pencil, gram, key", [
    (lambda: _zero_pencil(("y1",)), GRAM, "generation-condition"),
    (lambda: UNFOLDED, [[F(0), F(0)], [F(0), F(1)]], "base-gram-singular"),
], ids=["base-fails-gc", "singular-gram"])
def test_pairing_extend_reports_a_failed_base(tmp_path, pencil, gram, key):
    code, report, _ = _run(tmp_path, "pairing-extend", {
        "pencil": pencil().to_json(),
        "pairing": PairingMatrix.constant(0, gram, (), 2, 6).to_json()})
    assert code == 1 and report["passes"] is False and key in report


def test_inputs_above_their_order_are_truncated(tmp_path):
    # an f above order N + 1, or a b above --order, gives the report of
    # the payload truncated beforehand; over a t-direction, a pure-t term
    # of f above order N + 1 does not count against f vanishing at y = 0
    high = [_series(("y1",), 5, {(1,): 1, (4,): 1}),
            _series(("y1",), 5, {(5,): 2})]
    high_t, low_t = ([_series(("t", "y1"), order, terms if k == 1 else {})
                      for k in range(4)]
                     for order, terms in ((5, {(0, 1): 1, (4, 0): 1}),
                                          (3, {(0, 1): 1})))
    for command, payload, truncated, flags in (
            ("unfold", _unfold(POINT, ["y1"], high),
             _unfold(POINT, ["y1"], LINEAR), ()),
            ("unfold", _unfold(_deformed_shift_pencil(), ["y1"], high_t),
             _unfold(_deformed_shift_pencil(), ["y1"], low_t), ()),
            ("reconstruct", _shift(4, [[[0], "1/1"], [[1], "1/1"],
                                       [[4], "3/1"]]),
             _shift(2, [[[0], "1/1"], [[1], "1/1"]]), ("--order", "2")),
            # a base that spans adds no direction, and is still truncated
            ("universal-unfold", {"pencil": spanning_pencil(2, 4).to_json()},
             {"pencil": spanning_pencil(2).to_json()}, ())):
        (tmp_path / "high").mkdir(exist_ok=True)
        code, report, _ = _run(tmp_path / "high", command, payload, *flags)
        code2, want, _ = _run(tmp_path, command, truncated, *flags)
        assert code == code2 == 0 and report == want


def test_spanning_pencil_unfolds_to_itself(tmp_path):
    P = spanning_pencil(2)
    code, report, _ = _run(tmp_path, "universal-unfold",
                           {"pencil": P.to_json()})
    assert code == 0 and report["pencil"] == json.loads(json.dumps(
        P.to_json()))


def test_pairing_extend_refuses_a_non_flat_pencil(tmp_path):
    # the unfolding of the point pencil along f = (y1, y2), with y1*y2
    # added to entry (0, 1) of F[0]: the base checks pass, and the
    # y-transport of the pairing alone found no obstruction
    P, g = point_base_pencil(4)
    ys = ("y1", "y2")
    big = solve(UnfoldProblem(P, ys, [TruncSeries(ys, 5, {(1, 0): 1}),
                                      TruncSeries(ys, 5, {(0, 1): 1})], 4))
    bump = SeriesMatrix.from_sparse(2, 2, ys, 4, {
        (0, 1): TruncSeries(ys, 4, {(1, 1): 1})})
    bad = ConnectionPencil((), ys, 2, [], [big.F[0] + bump, big.F[1]],
                           big.U, big.V, big.W, 4)
    code, report, _ = _run(tmp_path, "pairing-extend", {
        "pencil": bad.to_json(),
        "pairing": PairingMatrix.constant(0, g, (), 4, 8).to_json()})
    assert code == 1 and report["passes"] is False
    assert sorted({r["check"] for r in report["pencil-flatness"]}) == [
        "higgs-commute-yy", "potential-yy", "u-commute-y", "u-transport-y"]


def test_unfold_without_directions_exits_zero(tmp_path):
    # no y-direction: the radial integral in y has nothing to integrate
    code, report, _ = _run(tmp_path, "unfold", _unfold(
        POINT, [], [_series((), 3, {})] * 2))
    assert code == 0 and report["flat"] is True
    assert report["pencil"]["y_vars"] == []


def test_compare_reports_rank_and_refuses_an_unnormalisable_metric(tmp_path):
    germs = [normalize_germ(frobenius_via_unfolding(initial_from_filtration(
        shift_example(w, [], order=2)))).to_json() for w in (3, 4)]
    code, report, _ = _run(tmp_path, "compare",
                           {"left": germs[1], "right": germs[0]})
    assert code == 1 and [d["check"] for d in report["diffs"]] == ["rank"]
    # the identity metric pairs the unit with itself, not the top vector
    eye = [["1/1" if i == j else "0/1" for j in range(3)] for i in range(3)]
    code, report, _ = _run(tmp_path, "compare",
                           {"left": dict(germs[1], metric=eye),
                            "right": germs[1]})
    assert code == 1 and report["error"] == (
        "metric does not pair the unit with the top frame vector; cannot "
        "normalize")


def test_unknown_initial_data_kind_is_a_rejection():
    # the reconstruct schema's enum stops this kind before the runner
    with pytest.raises(RejectionError,
                       match="unknown initial data kind 'torus'"):
        _initial_data({"kind": "torus"}, 2)


def test_failed_report_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        _atomic_write(str(tmp_path / "report.json"), "{}")
    assert os.listdir(tmp_path) == []


def test_plain_turns_fractions_into_strings():
    assert _plain({1: [Fraction(-1, 2), (Fraction(3), "x")]}) == {
        "1": ["-1/2", ["3/1", "x"]]}


HIGGS, _ = structure_connection(rank2_higgs_ftype(2), 1)


def _pairing(P, weight, gram):
    return {"pencil": P.to_json(), "pairing": PairingMatrix.constant(
        weight, gram, P.t_vars, 2, 6).to_json()}


# flat pencils, each with the command it goes to and the payload around it:
# two bases to unfold (one whose t-direction spans the fiber) and two
# unfoldings with a pairing at y = 0 that extends
FLAT = [
    ("unfold", HIGGS, lambda P: _unfold(P, ["y1"], [
        _series(("t", "y1"), 3, {(0, 1): 1}), _series(("t", "y1"), 3, {})])),
    ("universal-unfold", HIGGS, lambda P: {"pencil": P.to_json()}),
    ("universal-unfold", spanning_pencil(2), lambda P: {"pencil": P.to_json()}),
    ("pairing-extend", UNFOLDED, lambda P: _pairing(P, 0, GRAM)),
    ("pairing-extend", universal_unfold(HIGGS).pencil,
     lambda P: _pairing(P, 1, rank2_higgs_ftype(2).g)),
]


@pytest.mark.parametrize("command, P, payload", FLAT,
                         ids=["unfold", "universal-unfold",
                              "universal-unfold-spanning", "pairing-extend",
                              "pairing-extend-over-t"])
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_non_flat_pencils_never_certify(command, P, payload, data):
    # c*m added to one entry of one C or F block, m of degree >= 1 in the
    # base variables, leaves the data at the origin (so ic and gc) as it
    # was; a draw the flatness system flags is a rejection or a failed
    # report (exit 1), never a certificate and never a broken invariant
    blocks = list(P.C) + list(P.F)
    k = data.draw(st.integers(0, len(blocks) - 1))
    i, j = (data.draw(st.integers(0, P.n - 1)) for _ in range(2))
    m = [0] * len(P.vars)
    for _ in range(data.draw(st.integers(1, P.order))):
        m[data.draw(st.integers(0, len(m) - 1))] += 1
    c = data.draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2)]))
    blocks[k] = blocks[k] + SeriesMatrix.from_sparse(
        P.n, P.n, P.vars, P.order, {(i, j): TruncSeries(P.vars, P.order,
                                                         {tuple(m): c})})
    bad = ConnectionPencil(P.t_vars, P.y_vars, P.n, blocks[:len(P.C)],
                           blocks[len(P.C):], P.U, P.V, P.W, P.order)
    assume(flatness_residual(bad))
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _ = _run(Path(tmp), command, payload(bad))
    assert code == 1, (command, k, i, j, m, c)
