import json
from fractions import Fraction

import pytest

from frobkit.pencil import ConnectionPencil, flatness_residual, is_flat
from frobkit.series import SeriesMatrix, TruncSeries
from frobkit.structures import RejectionError
from frobkit.unfold import (UnfoldProblem, gc_check, ic_check, solve,
                            universal_unfold, zeta_frame)
from helpers import (brute_force_unfold, consts, corpus, point_base_pencil,
                     rank2_higgs_ftype, rank3_point_ftype)
from frobkit.pencil import structure_connection

F = Fraction
N = 4


def test_gc_point_example():
    P, _ = point_base_pencil(N)
    cert = gc_check(P)
    assert cert.ok
    assert cert.words == [(), ("U",)]


def test_gc_failure_without_generators():
    Z = SeriesMatrix.zeros(2, 2, (), N)
    P = ConnectionPencil((), (), 2, [], [], Z, Z, Z, N)
    cert = gc_check(P)
    assert not cert.ok and cert.rank == 1


def test_gc_jacobi_pencil():
    from helpers import cubic_init
    init = cubic_init(N)
    P, _ = structure_connection(init.ftype, init.weight)
    assert gc_check(P).ok


def test_gc_jacobi_quintic_rank_204():
    # generation of the full 204-dimensional fiber from the unit class
    # under the 101 degree-one multiplication operators
    from frobkit.jacobi import build_jacobi
    from frobkit.structures import jacobi_to_filtration
    from helpers import fermat
    A = build_jacobi(*fermat(5, 5))
    D, info = jacobi_to_filtration(A, order=0, with_pairing=False)
    Z = SeriesMatrix.zeros(D.n, D.n, D.vars, 0)
    P = ConnectionPencil(D.vars, (), D.n, list(D.Gamma), [], Z, Z, Z, 0)
    cert = gc_check(P)
    assert cert.ok and cert.rank == 204 == info["rank"]


def test_ic_point_base_vacuous():
    P, _ = point_base_pencil(N)
    assert ic_check(P) == {"ok": True, "rank": 0, "kernel": []}


def test_ic_single_direction():
    FT = rank2_higgs_ftype(N)
    P, _ = structure_connection(FT, 1)
    rep = ic_check(P)
    assert rep["ok"] and rep["rank"] == 1


def test_ic_failure_with_kernel():
    vars = ("t1", "t2")
    C = consts([[0, 0], [1, 0]], vars, N)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    P = ConnectionPencil(vars, (), 2, [C, C], [], Z, Z, Z, N)
    rep = ic_check(P)
    assert not rep["ok"] and rep["rank"] == 1
    # the kernel is the line through (1, -1)
    (vec,) = rep["kernel"]
    v = [Fraction(c) for c in vec]
    assert v[0] == -v[1] != 0


def test_solve_trivial_f_extends_base_constantly():
    P, _ = point_base_pencil(N)
    yv = ("y1", "y2")
    f = [TruncSeries.zero(yv, N + 1) for _ in range(2)]
    out = solve(UnfoldProblem(P, yv, f, N))
    assert out.U == SeriesMatrix.from_consts([[0, 0], [1, 1]], yv, N)
    assert all(Fa.is_zero() for Fa in out.F)


def test_solve_point_example_first_order():
    P, _ = point_base_pencil(N)
    yv = ("y1", "y2")
    f = [TruncSeries.var(yv, N + 1, "y1"), TruncSeries.var(yv, N + 1, "y2")]
    out = solve(UnfoldProblem(P, yv, f, N))
    assert out.F[0].at_origin() == [[F(1), F(0)], [F(0), F(1)]]
    assert out.F[1].at_origin() == [[F(0), F(0)], [F(1), F(1)]]
    # U = U0 - y1 id - y2 U0 exactly, to all computed orders
    y1 = TruncSeries.var(yv, N, "y1")
    y2 = TruncSeries.var(yv, N, "y2")
    U0 = SeriesMatrix.from_consts([[0, 0], [1, 1]], yv, N)
    want = (U0 - SeriesMatrix.identity(2, yv, N).scale_series(y1)
            - U0.scale_series(y2))
    assert out.U == want
    assert is_flat(out)


def test_solve_restriction_to_zero_is_base():
    for name, P, _ in corpus(order=3):
        res = universal_unfold(P)
        back = res.pencil.restrict_y0()
        rot = ConnectionPencil(
            P.t_vars, (), P.n,
            [C.conjugate_const(res.frame, _inv(res.frame)) for C in P.C],
            [],
            P.U.conjugate_const(res.frame, _inv(res.frame)),
            P.V.conjugate_const(res.frame, _inv(res.frame)),
            P.W.conjugate_const(res.frame, _inv(res.frame)), P.order)
        assert back.U == rot.U and back.V == rot.V and back.W == rot.W
        assert all(a == b for a, b in zip(back.C, rot.C))


def _inv(mat):
    from frobkit import linalg
    return linalg.mat_inverse(mat)


def test_first_column_contract_on_corpus():
    for name, P, _ in corpus(order=3):
        res = universal_unfold(P)
        big = res.pencil
        for a, yv in enumerate(big.y_vars):
            for i in range(big.n):
                want = res.f[i].partial(yv)
                got = big.F[a][i, 0]
                assert (got - want).is_zero(), (name, a, i)


def test_solve_is_deterministic_bit_identical():
    P, _ = point_base_pencil(N)
    yv = ("y1", "y2")
    f = [TruncSeries.var(yv, N + 1, "y1"), TruncSeries.var(yv, N + 1, "y2")]
    a = solve(UnfoldProblem(P, yv, f, N))
    b = solve(UnfoldProblem(P, yv, f, N))
    assert (json.dumps(a.to_json(), sort_keys=True)
            == json.dumps(b.to_json(), sort_keys=True))


def test_restriction_consistency_multi_parameter():
    # freezing the second unfolding variable reproduces the one-variable
    # solution
    P, _ = point_base_pencil(N)
    yv = ("y1", "y2")
    f2 = [TruncSeries.var(yv, N + 1, "y1"),
          TruncSeries.var(yv, N + 1, "y2")]
    out2 = solve(UnfoldProblem(P, yv, f2, N))
    frozen = ConnectionPencil(
        (), ("y1",), 2,
        [], [out2.F[0].restrict_zero(["y2"])],
        out2.U.restrict_zero(["y2"]), out2.V.restrict_zero(["y2"]),
        out2.W.restrict_zero(["y2"]), N)
    y1 = ("y1",)
    f1 = [TruncSeries.var(y1, N + 1, "y1"), TruncSeries.zero(y1, N + 1)]
    out1 = solve(UnfoldProblem(P, y1, f1, N))
    assert frozen.U == out1.U
    assert frozen.F[0] == out1.F[0]
    assert frozen.V == out1.V and frozen.W == out1.W


def test_solve_requires_flat_base():
    vars = ("t1", "t2")
    C1 = consts([[0, 1], [0, 0]], vars, N)
    C2 = consts([[0, 0], [1, 0]], vars, N)   # [C1, C2] != 0
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    bad = ConnectionPencil(vars, (), 2, [C1, C2], [], Z, Z, Z, N)
    with pytest.raises(RejectionError):
        solve(UnfoldProblem(bad, ("y1",),
                            [TruncSeries.var(vars + ("y1",), N + 1, "y1"),
                             TruncSeries.zero(vars + ("y1",), N + 1)], N))


def test_solve_requires_f_vanishing_at_zero():
    P, _ = point_base_pencil(N)
    yv = ("y1",)
    f = [TruncSeries.one(yv, N + 1), TruncSeries.zero(yv, N + 1)]
    with pytest.raises(RejectionError):
        solve(UnfoldProblem(P, yv, f, N))


def test_oracle_point_rank2():
    P, _ = point_base_pencil(order=2)
    yv = ("y1", "y2")
    f = [TruncSeries.var(yv, 3, "y1"), TruncSeries.var(yv, 3, "y2")]
    got = solve(UnfoldProblem(P, yv, f, 2))
    want = brute_force_unfold(P, yv, f, 2)
    _assert_pencils_equal(got, want)


def test_oracle_rank3_point():
    FT = rank3_point_ftype(order=2)
    P, _ = structure_connection(FT, 1)
    res = universal_unfold(P)
    got = res.pencil
    want = brute_force_unfold(P, res.y_vars, res.f, 2)
    _assert_pencils_equal(got, want)


def test_oracle_rank2_with_base_direction():
    FT = rank2_higgs_ftype(order=2)
    P, _ = structure_connection(FT, 1)
    res = universal_unfold(P)
    got = res.pencil
    want = brute_force_unfold(P, res.y_vars, res.f, 2)
    _assert_pencils_equal(got, want)


def _assert_pencils_equal(a, b):
    assert a.U == b.U and a.V == b.V and a.W == b.W
    assert all(x == y for x, y in zip(a.C, b.C))
    assert all(x == y for x, y in zip(a.F, b.F))


def test_universal_unfold_full_base_is_identity():
    # when the injectivity map is already onto, nothing unfolds
    FT = rank2_higgs_ftype(N)
    P, _ = structure_connection(FT, 1)
    res1 = universal_unfold(P)
    assert len(res1.y_vars) == 1   # rank 2, one base direction
    full = res1.pencil
    # now the unfolded pencil has a full base; it admits no new directions
    again = universal_unfold(ConnectionPencil(
        full.vars, (), full.n, list(full.C) + list(full.F), [],
        full.U, full.V, full.W, full.order))
    assert again.y_vars == ()
    assert again.pencil.U == full.U


def test_universal_unfold_shift_w5():
    from helpers import shift_inits
    init = shift_inits(N)[(5, "1+t")]
    P, _ = structure_connection(init.ftype, 5)
    res = universal_unfold(P)
    assert len(res.y_vars) == 3          # rank 4, one base direction
    assert res.jacobian_invertible()
    assert is_flat(res.pencil)


def test_wrong_transport_fails_the_flatness_certificate(monkeypatch):
    # the U and W transport integrate slice commutators; doubling them
    # must be caught by the one certificate on the finished pencil, which
    # names the equation and its lowest y-degree
    from frobkit import unfold
    from frobkit.germ import initial_from_filtration
    from frobkit.structures import shift_example
    t = TruncSeries.var(("t",), 3, "t")
    b = [c0 + c1 * t for c0, c1 in ((1, 1), (1, 2), (1, 3), (2, 1))]
    init = initial_from_filtration(shift_example(11, b, order=3))
    P, _ = structure_connection(init.ftype, 11)
    orig = unfold._slice_commutator
    monkeypatch.setattr(unfold, "_slice_commutator",
                        lambda A, B, s: orig(A, B, s) + orig(A, B, s))
    with pytest.raises(AssertionError,
                       match=r"u-transport-t at y-degree \d+"):
        universal_unfold(P)


def test_universal_unfold_rejects_ic_failure():
    vars = ("t1", "t2")
    C = consts([[0, 0], [1, 0]], vars, N)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    P = ConnectionPencil(vars, (), 2, [C, C], [], Z, Z, Z, N)
    with pytest.raises(RejectionError):
        universal_unfold(P)


def test_trace_reports_per_degree_blocks():
    P, _ = point_base_pencil(2)
    yv = ("y1", "y2")
    f = [TruncSeries.var(yv, 3, "y1"), TruncSeries.var(yv, 3, "y2")]
    tr = []
    solve(UnfoldProblem(P, yv, f, 2), trace=tr)
    assert [st["y_degree"] for st in tr] == [0, 1, 2]
    assert all("E" in st and "F" in st for st in tr)


# -- the slice-wise solve against the whole-series construction -------------


def _rotated_problem(P):
    """The problem universal_unfold hands to solve for the pencil P."""
    from frobkit import linalg
    res = universal_unfold(P)
    B, Binv = res.frame, linalg.mat_inverse(res.frame)
    rot = ConnectionPencil(
        P.t_vars, (), P.n, [C.conjugate_const(B, Binv) for C in P.C], [],
        P.U.conjugate_const(B, Binv), P.V.conjugate_const(B, Binv),
        P.W.conjugate_const(B, Binv), P.order)
    return UnfoldProblem(rot, res.y_vars, res.f, P.order)


def _point_two_y_problem(order):
    P, _ = point_base_pencil(order)
    yv = ("y1", "y2")
    f = [TruncSeries.var(yv, order + 1, "y1"),
         TruncSeries.var(yv, order + 1, "y2")]
    return UnfoldProblem(P, yv, f, order)


def _two_t_problem(order):
    """A new direction z over the full two-dimensional unfolding of the
    point base, whose (y1, y2) serve as t-directions, so that the t-t
    equations are re-proved at every stage."""
    full = solve(_point_two_y_problem(order))
    base = ConnectionPencil(full.vars, (), full.n, list(full.F), [],
                            full.U, full.V, full.W, order)
    vars = base.t_vars + ("z",)
    z = TruncSeries.var(vars, order + 1, "z")
    t1 = TruncSeries.var(vars, order + 1, "y1")
    return UnfoldProblem(base, ("z",), [z * (1 + t1), z * z - z], order)


def _shift_w5_problem(order):
    from helpers import shift_inits
    init = shift_inits(order)[(5, "1+t")]
    P, _ = structure_connection(init.ftype, 5)
    return _rotated_problem(P)


CORPUS_NAMES = [name for name, _, _ in corpus(order=1)]


def _differential_problem(name):
    if name == "point-two-y-order5":
        return _point_two_y_problem(5)
    if name == "two-t-directions":
        return _two_t_problem(4)
    (P,) = [P for nm, P, _ in corpus(order=4) if nm == name]
    return _rotated_problem(P)


@pytest.mark.parametrize(
    "name", CORPUS_NAMES + ["point-two-y-order5", "two-t-directions"])
def test_solve_matches_whole_series_reference(name):
    from helpers import reference_solve
    problem = _differential_problem(name)
    got_trace, want_trace = [], []
    got = solve(problem, trace=got_trace)
    want = reference_solve(problem, trace=want_trace)
    assert (json.dumps([got.to_json(), got_trace], sort_keys=True)
            == json.dumps([want.to_json(), want_trace], sort_keys=True))


@pytest.mark.parametrize("make", [_point_two_y_problem, _shift_w5_problem,
                                  _two_t_problem])
def test_solve_truncation_is_solve_at_lower_order(make):
    N = 4
    high = solve(make(N))
    low = dict(solve(make(N - 1)).all_blocks())
    for name, M in high.all_blocks():
        assert M.truncate(N - 1) == low[name], name


def test_trace_stage_is_final_f_cut_at_its_degree():
    problem = _point_two_y_problem(3)
    tr = []
    out = solve(problem, trace=tr)
    yv = problem.y_vars
    for st in tr:
        s = st["y_degree"]
        for a, Fa in enumerate(out.F):
            cut = Fa.graded_part(0, names=yv)
            for d in range(1, s + 1):
                cut = cut + Fa.graded_part(d, names=yv)
            assert SeriesMatrix.from_json(st["F"][a]) == cut
            part = Fa.graded_part(s, names=yv)
            assert st["nterms"]["F"][a] == sum(
                len(x.terms) for x in part.nonzero().values())


def test_solve_lifts_a_constant_base_to_the_target_order():
    # the point pencil at order 0 is constant, so it is exact at any order
    # and unfolds as the same pencil given at order 2 does
    f = [TruncSeries(("y1",), 3, {(1,): 1}), TruncSeries(("y1",), 3, {})]
    low, _ = point_base_pencil(0)
    high, _ = point_base_pencil(2)
    out = solve(UnfoldProblem(low, ("y1",), f, 2))
    assert out.order == 2
    assert out == solve(UnfoldProblem(high, ("y1",), f, 2))


def test_universal_unfold_puts_the_distinguished_vector_first():
    # zeta = e0 + e1 on the point pencil: the frame is [zeta | e0], and at
    # y = 0 the unfolding is the pencil in that frame
    P, _ = point_base_pencil(N)
    zeta = [F(1), F(1)]
    res = universal_unfold(P, zeta=zeta)
    B, Binv = zeta_frame(zeta, 2)
    assert res.frame == B == [[1, 1], [1, 0]]
    back = res.pencil.restrict_y0()
    assert back.U == P.U.conjugate_const(B, Binv) != P.U


def test_first_frame_vector_needs_no_rotation(monkeypatch):
    # zeta = e0 and no zeta are one case: neither conjugates the pencil
    def refuse(*args):
        raise AssertionError("conjugate_const called")

    monkeypatch.setattr(SeriesMatrix, "conjugate_const", refuse)
    for name, P, _ in corpus(order=2):
        e0 = [F(int(k == 0)) for k in range(P.n)]
        assert universal_unfold(P) == universal_unfold(P, zeta=e0), name


def test_zeta_frame_completes_a_nonzero_vector_only():
    B, Binv = zeta_frame([F(0), F(2)], 2)
    assert B == [[0, 1], [2, 0]] and Binv == [[0, F(1, 2)], [1, 0]]
    with pytest.raises(ValueError, match="columns are dependent"):
        zeta_frame([F(0)] * 2, 2)
