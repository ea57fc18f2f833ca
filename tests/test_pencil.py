import random
from fractions import Fraction

import pytest

from frobkit.pencil import (ConnectionPencil, PairingMatrix,
                            flatness_residual, gc_check, is_flat,
                            pairing_extension_check, pencil_to_ftype,
                            potential_matrix, reduced_flatness_check,
                            residual_report, structure_connection)
from frobkit.series import SeriesError, SeriesMatrix, TruncSeries
from frobkit.structures import RejectionError, check_ftype_axioms
from frobkit.unfold import UnfoldProblem, solve, universal_unfold
from helpers import (consts, corpus, ladder_pencil, point_base_pencil,
                     rank1_log_pencil, rank2_higgs_ftype, rank3_point_ftype,
                     reference_pairing_extension_check, shift_inits,
                     y_transport_pencil)

F = Fraction
N = 4


def test_zero_pencil_is_flat():
    Z = SeriesMatrix.zeros(2, 2, ("t",), N)
    P = ConnectionPencil(("t",), (), 2, [Z], [], Z, Z, Z, N)
    assert flatness_residual(P) == {}


def test_constant_commuting_higgs_leaves_u_transport():
    vars = ("t1", "t2")
    C1 = consts([[1, 0], [0, 0]], vars, N)
    C2 = consts([[0, 0], [0, 1]], vars, N)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    P = ConnectionPencil(vars, (), 2, [C1, C2], [], Z, Z, Z, N)
    res = flatness_residual(P)
    assert set(res) == {"u-transport-t"}
    residues = {idx: r for idx, r in res["u-transport-t"]}
    assert residues[(0,)] == C1.truncate(N - 1)
    assert residues[(1,)] == C2.truncate(N - 1)


def test_unfold_output_is_flat():
    P, _ = point_base_pencil(N)
    res = universal_unfold(P)
    assert is_flat(res.pencil)


def test_potential_matrix_linear():
    vars = ("t1",)
    c = consts([[2, 1], [0, 3]], vars, N)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    P = ConnectionPencil(vars, (), 2, [c], [], Z, Z, Z, N)
    A = potential_matrix(P)
    t = TruncSeries.var(vars, N + 1, "t1")
    assert A == c.truncate(N).mul_var("t1") or A[0, 0] == 2 * t


def test_potential_matrix_quadratic():
    vars = ("t",)
    t = TruncSeries.var(vars, N, "t")
    z = TruncSeries.zero(vars, N)
    C1 = SeriesMatrix([[z, z], [t, z]])
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    P = ConnectionPencil(vars, (), 2, [C1], [], Z, Z, Z, N)
    A = potential_matrix(P)
    assert A[1, 0].terms == {(2,): F(1, 2)}
    assert A[0, 0].is_zero()


def test_potential_matrix_requires_closedness():
    vars = ("t1", "t2")
    t2 = TruncSeries.var(vars, N, "t2")
    z = TruncSeries.zero(vars, N)
    C1 = SeriesMatrix([[t2, z], [z, z]])
    C2 = SeriesMatrix.zeros(2, 2, vars, N)
    P = ConnectionPencil(vars, (), 2, [C1, C2], [], C2, C2, C2, N)
    with pytest.raises(RejectionError):
        potential_matrix(P)


def test_unfold_first_columns_give_potential_columns():
    P, _ = point_base_pencil(N)
    res = universal_unfold(P)
    A = potential_matrix(res.pencil)
    for i in range(2):
        lhs = A[i, 0]
        assert lhs == res.f[i].truncate(lhs.order)


def test_reduced_check_on_unfolded_corpus():
    for name, P, R in corpus(order=3):
        res = universal_unfold(P)
        rep = reduced_flatness_check(res.pencil)
        assert rep["passes"], (name, rep)


def test_reduced_check_trivial_without_y():
    P, _ = point_base_pencil(N)
    rep = reduced_flatness_check(P)
    assert rep["passes"]


def test_reduced_check_detects_perturbed_u():
    P, _ = point_base_pencil(N)
    res = universal_unfold(P)
    big = res.pencil
    y = TruncSeries.var(big.vars, N, big.y_vars[0])
    pert = SeriesMatrix.identity(2, big.vars, N).scale_series(y)
    bad = ConnectionPencil(big.t_vars, big.y_vars, 2, big.C, big.F,
                           big.U + pert, big.V, big.W, N)
    rep = reduced_flatness_check(bad)
    assert not rep["passes"]
    assert "integrated-u-formula" in rep or "reduced-set-residuals" in rep


def test_reduced_set_tracks_full_set():
    # on flat pencils the reduced set passes; corrupting any block makes
    # both the full and the reduced evaluations fail
    P, _ = point_base_pencil(N)
    res = universal_unfold(P)
    assert reduced_flatness_check(res.pencil)["passes"]
    assert not flatness_residual(res.pencil)


def test_pairing_extension_on_corpus():
    K = 4
    for name, P, R0 in corpus(order=3):
        res = universal_unfold(P)
        rep = pairing_extension_check(res.pencil, R0, z_order=K)
        assert rep["passes"], (name, {k: v for k, v in rep.items()
                                      if k != "pairing"})
        R = rep["pairing"]
        assert R.z_order == K
        assert R.gram_invertible()
        assert R.symmetry_violations() == []
        # restriction to y = 0 reproduces the base coefficients
        back = R.restrict_y0(res.pencil.y_vars)
        for k in range(K + 1):
            want = R0.coeffs[k]
            got = back.coeffs[k].extend(want.vars).truncate(
                min(want.order, back.coeffs[k].order))
            assert (got - want.truncate(got.order)).is_zero(), (name, k)


def test_pairing_extension_y_independent_when_f_vanishes():
    P, g = point_base_pencil(N)
    yv = ("y1",)
    f = [TruncSeries.zero(yv, N + 1) for _ in range(2)]
    out = solve(UnfoldProblem(P, yv, f, N))
    R0 = PairingMatrix.constant(0, g, (), N, 4 + N)
    rep = pairing_extension_check(out, R0, z_order=4)
    assert rep["passes"]
    R = rep["pairing"]
    for k in range(5):
        assert R.coeffs[k].restrict_zero(yv).extend(()).is_constant()
        assert R.coeffs[k].partial("y1").is_zero() or N < 1


def test_pairing_extension_negative_control():
    # dropping the correction part of the F-blocks (keeping only the
    # prescribed first columns) breaks flatness of the pencil, so the
    # pairing is refused before its y-transport
    P, g = point_base_pencil(N)
    res = universal_unfold(P)
    big = res.pencil
    badF = []
    for a, Fa in enumerate(big.F):
        cols = [[TruncSeries.zero(big.vars, N) for _ in range(2)]
                for _ in range(2)]
        for i in range(2):
            cols[i][0] = Fa[i, 0]
        badF.append(SeriesMatrix(cols))
    bad = ConnectionPencil(big.t_vars, big.y_vars, 2, big.C, badF,
                           big.U, big.V, big.W, N)
    R0 = PairingMatrix.constant(0, g, (), N, 4 + N)
    rep = pairing_extension_check(bad, R0, z_order=4)
    assert not rep["passes"]
    assert rep["pencil-flatness"] == residual_report(flatness_residual(bad))
    assert set(rep) == {"passes", "weight", "z_order", "pencil-flatness"}


def test_pairing_base_consistency_rejects_wrong_gram():
    P, g = point_base_pencil(N)
    bad_g = [[F(1), F(0)], [F(0), F(1)]]   # not compatible with U
    R0 = PairingMatrix.constant(0, bad_g, (), N, 4 + N)
    rep = pairing_extension_check(P, R0, z_order=4)
    assert not rep["passes"]
    assert "base-z-transport" in rep


def test_rank1_three_pole_pairing_certifies():
    P, R0 = rank1_log_pencil(order=3, z_extra=7)
    res = universal_unfold(P)
    rep = pairing_extension_check(res.pencil, R0, z_order=4)
    assert rep["passes"]


def test_pairing_y_transport_moves_the_pairing():
    # the y-transport dR_k/dy = F^T R_(k+1) - R_(k+1) F moves R_0 to
    # [[(1 + y)^2, -1], [-1, 0]] (d/dy of R_0 is [[2, 0], [0, 0]] +
    # y [[2, 0], [0, 0]])
    order, y = 2, ("y",)
    P, R0 = y_transport_pencil(order)
    assert not flatness_residual(P)
    rep = pairing_extension_check(P, R0, z_order=2)
    assert rep["passes"], rep
    moved = TruncSeries(y, order, {(0,): 1, (1,): 2, (2,): 1})
    want = SeriesMatrix([[moved, TruncSeries.const(y, order, -1)],
                         [TruncSeries.const(y, order, -1),
                          TruncSeries.zero(y, order)]])
    assert rep["pairing"].coeffs[0] == want


def test_structure_connection_zero_structure():
    from frobkit.structures import FrobeniusTypeStructure
    Z = SeriesMatrix.zeros(2, 2, ("t",), N)
    ident = [[F(1), F(0)], [F(0), F(1)]]
    FT = FrobeniusTypeStructure(("t",), 2, [Z], Z, [[F(0)] * 2] * 2,
                                ident, N)
    P, R = structure_connection(FT, 2)
    assert P.U.is_zero() and P.W.is_zero()
    assert P.V.at_origin() == [[F(1), F(0)], [F(0), F(1)]]


def test_structure_connection_rank2_and_flatness():
    FT = rank2_higgs_ftype(N)
    P, R = structure_connection(FT, 1)
    assert P.V.at_origin() == [[F(0), F(0)], [F(0), F(1)]]
    assert P.U.is_zero()
    assert is_flat(P)


def test_structure_connection_roundtrip_exact():
    for FT, w in [(rank2_higgs_ftype(N), 1), (rank3_point_ftype(N), 1)]:
        P, R = structure_connection(FT, w)
        back = pencil_to_ftype(P, R)
        assert back.C == FT.C
        assert back.U == FT.U
        assert back.V == [[F(x) for x in row] for row in FT.V]
        assert back.g == [[F(x) for x in row] for row in FT.g]


def test_pencil_to_ftype_rejects_z1_pole():
    P, R0 = rank1_log_pencil(order=3, z_extra=7)
    with pytest.raises(RejectionError):
        pencil_to_ftype(P, PairingMatrix(2, R0.coeffs[:1]))


def test_residue_data_on_unfolded_pencils():
    # flatness holds the residues' flatness: w-transport is that of W at
    # z = 1, and v-transport plus w-transport that of V + W at infinity;
    # the residue at infinity is the constant -(V+W), here V+W = 2
    P, _ = rank1_log_pencil(order=3, z_extra=7)
    big = universal_unfold(P).pencil
    assert not flatness_residual(big)
    rep = reduced_flatness_check(big)
    assert rep["passes"] and rep["residue_at_infinity"] == [["2/1"]]
    assert big.W.at_origin() == [[F(1)]]


def test_pencil_serialization_roundtrip():
    P, _ = point_base_pencil(N)
    res = universal_unfold(P)
    blob = res.pencil.to_json()
    back = ConnectionPencil.from_json(blob)
    assert back.to_json() == blob
    assert back.U == res.pencil.U


def test_structure_connection_flatness_is_the_four_ftype_axioms():
    # with W = 0, constant V and no y-directions, the fourteen flatness
    # equations of the pencil are four ftype axioms or vanish identically;
    # so a pencil built without the axiom check fails exactly where they do
    from frobkit.germ import germ_to_ftype, h2_reconstruct
    from frobkit.structures import FrobeniusTypeStructure
    init = shift_inits(3)[(5, "1+t")]
    F0 = germ_to_ftype(h2_reconstruct(init))
    vars, n, order = F0.vars, F0.n, F0.order
    assert len(vars) == 4

    def e(i, j, c=1):
        return consts([[c if (a, b) == (i, j) else 0 for b in range(n)]
                       for a in range(n)], vars, order)

    s2 = TruncSeries.var(vars, order, vars[1])
    s1 = TruncSeries.var(vars, order, vars[0])
    C, U = list(F0.C), F0.U
    cases = {
        "valid": (C, U),
        "higgs-commute": ([C[0], C[1] + e(2, 3)] + C[2:], U),
        "higgs-potential": ([C[0] + e(3, 3).scale_series(s2)] + C[1:], U),
        "u-higgs-commute": (C, U + e(3, 1)),
        "u-transport": (C, U + SeriesMatrix.identity(n, vars, order)
                        .scale_series(s1)),
    }
    names = {"higgs-commute": "higgs-commute-tt",
             "higgs-potential": "potential-tt",
             "u-higgs-commute": "u-commute-t",
             "u-transport": "u-transport-t"}
    half = F(init.weight, 2)
    V = consts([[-F0.V[i][j] + (half if i == j else 0) for j in range(n)]
                for i in range(n)], vars, order)
    Z = SeriesMatrix.zeros(n, n, vars, order)
    for broken, (Cs, Us) in cases.items():
        FT = FrobeniusTypeStructure(vars, n, Cs, Us, F0.V, F0.g, order)
        want = [dict(v, check=names[v["check"]])
                for v in check_ftype_axioms(FT) if v["check"] in names]
        P = ConnectionPencil(vars, (), n, Cs, [], Us, V, Z, order)
        got = residual_report(flatness_residual(P))
        if broken == "valid":
            assert want == [] and got == []
        else:
            assert names[broken] in {v["check"] for v in got}

        def key(v):
            return v["check"], v["indices"]

        assert sorted(got, key=key) == sorted(want, key=key), broken


def test_reduced_check_files_full_and_base_residuals():
    # the universal unfolding of the rank-2 structure over t, with a
    # constant E_12 added to F_1 (breaking higgs-commute-ty in full) and to
    # U (breaking u-commute-t at y = 0)
    P, _ = structure_connection(rank2_higgs_ftype(2), 1)
    big = universal_unfold(P).pencil
    assert reduced_flatness_check(big)["passes"]
    E12 = consts([[0, 1], [0, 0]], big.vars, big.order)
    bent = ConnectionPencil(big.t_vars, big.y_vars, 2, big.C,
                            [big.F[0] + E12], big.U + E12, big.V, big.W,
                            big.order)
    rep = reduced_flatness_check(bent)
    assert rep["passes"] is False
    assert [(v["check"], v["indices"]) for v in
            rep["reduced-set-residuals"]] == [("higgs-commute-ty", [0, 0]),
                                              ("u-commute-t@y=0", [0])]


def test_pencil_refuses_a_block_below_its_order():
    P, _ = point_base_pencil(2)
    Z = SeriesMatrix.zeros(2, 2, (), 3)
    with pytest.raises(SeriesError, match="U carries order 2"):
        ConnectionPencil((), (), 2, [], [], P.U, Z, Z, 3)


def test_pencil_to_ftype_rejects_a_moving_residue_or_gram_matrix():
    P, R = structure_connection(rank2_higgs_ftype(N), 1)
    tI = SeriesMatrix.identity(2, P.vars, N).scale_series(
        TruncSeries.var(P.vars, N, "t"))
    moving_v = ConnectionPencil(P.t_vars, P.y_vars, 2, P.C, P.F, P.U,
                                P.V + tI, P.W, N)
    with pytest.raises(RejectionError, match="V block is not constant; "
                       "residue at infinity is not flat"):
        pencil_to_ftype(moving_v, R)
    moving_g = PairingMatrix(R.weight, [R.coeffs[0] + tI] + R.coeffs[1:])
    with pytest.raises(RejectionError, match="Gram matrix of the pairing is "
                       "not constant in the flat frame"):
        pencil_to_ftype(P, moving_g)


def test_pairing_extension_at_order_zero_has_no_base_derivatives():
    # a t-direction at order 0 carries nothing to differentiate
    P, R = structure_connection(rank2_higgs_ftype(0), 1, z_order=2)
    rep = pairing_extension_check(P, R, z_order=2)
    assert rep["passes"] and rep["pairing"].coeffs == R.coeffs


def test_gc_check_drops_cancelled_entries():
    # U e0 = e1 + e2, U e1 = e3 and U e2 = -e3, so U^2 e0 = 0: the word
    # U U adds nothing, and e3 is never reached
    Z = SeriesMatrix.zeros(4, 4, (), N)
    U = consts([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]],
               (), N)
    gc = gc_check(ConnectionPencil((), (), 4, [], [], U, Z, Z, N))
    assert (gc.ok, gc.rank, gc.words) == (False, 2, [(), ("U",)])


def test_pairing_extension_obstruction_over_a_flat_pencil():
    # the ladder's pairing is flat in z, but C^T g - g C != 0 is a z^(w-1)
    # term along t: the base transport fails at k = -1, where R_(-1) = 0
    # leaves the residual g C - C^T g.  Its unfolding along f = (0, y1, 0)
    # has the ladder as its base and fails there too
    P, R0 = ladder_pencil(2)
    rep = pairing_extension_check(P, R0, z_order=4)
    recs = rep["base-t-transport"]
    assert [r["indices"] for r in recs] == [[-1, "t"]]
    assert recs[0]["residual"] == consts(
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]], ("t",), 2).to_json()
    f = [TruncSeries(("t", "y1"), 3, {(0, 1): 1} if i == 1 else {})
         for i in range(3)]
    big = solve(UnfoldProblem(P, ("y1",), f, 2))
    assert not flatness_residual(big)
    rep = pairing_extension_check(big, R0, z_order=4)
    assert not rep["passes"]
    assert [r["indices"] for r in rep["base-t-transport"]] == [[-1, "t"]]


def test_z_transport_at_the_top_power_is_the_left_side_less_the_right():
    # nothing stands on the left at z^(w-1), so the record is
    # 0 - (U^T R_0 - R_0 U), with the sign of every z-transport record and
    # of base-transport at k = -1; here U^T - U = [[0, 1], [-1, 0]]
    P, _ = point_base_pencil(2)
    R0 = PairingMatrix.constant(0, [[F(1), F(0)], [F(0), F(1)]], (), 2, 6)
    rep = pairing_extension_check(P, R0, z_order=4)
    recs = rep["base-z-transport"]
    assert [r["indices"] for r in recs] == [[-1]]
    assert recs[0]["residual"] == consts([[0, -1], [1, 0]], (), 2).to_json()


def _perturbed(R0, rng):
    """R0 as it is, or with one constant or t-linear entry added to a
    random coefficient, mostly with its mirror entry."""
    if rng.random() < 0.3:
        return R0
    coeffs = list(R0.coeffs)
    k = rng.randrange(len(coeffs))
    R = coeffs[k]
    n, vars = R.rows, R.vars
    i, j = rng.randrange(n), rng.randrange(n)
    mono = [0] * len(vars)
    if vars and rng.random() < 0.5:
        mono[0] = 1
    c = TruncSeries(vars, R.order, {tuple(mono): rng.choice([-2, -1, 1, 2])})
    E = SeriesMatrix.from_sparse(n, n, vars, R.order, {(i, j): c})
    if rng.random() < 0.8:
        # E + (-1)^k E^T keeps R_k^T = (-1)^k R_k, so later checks run
        E = E + (E.transpose() if k % 2 == 0 else -E.transpose())
    coeffs[k] = R + E
    return PairingMatrix(R0.weight, coeffs)


def test_pairing_verdicts_match_the_frozen_extension_check():
    # seeded perturbations of valid and invalid pairings of the point,
    # ladder, rank-1 log and y-transport pencils, on each base and on its
    # unfoldings: one transport rule gives the frozen check's verdict and,
    # where it certifies, the same extended pairing
    rng = random.Random(32)
    order, K = 2, 2
    antidiag = [[F(int(i + j == 2)) for j in range(3)] for i in range(3)]
    point, g = point_base_pencil(order)
    ladder, bad = ladder_pencil(order)
    log, log_R = rank1_log_pencil(order)
    ypen, y_R = y_transport_pencil(order)
    f = [TruncSeries(("t", "y1"), order + 1, {(0, 1): 1} if i == 1 else {})
         for i in range(3)]
    good = PairingMatrix.constant(2, antidiag, ("t",), order, K + order)
    bases = [(point, PairingMatrix.constant(0, g, (), order, K + order)),
             (ladder, bad), (ladder, good), (log, log_R)]
    cases = [(ypen, y_R),
             (solve(UnfoldProblem(ladder, ("y1",), f, order)), good)]
    for P, R0 in bases:
        cases += [(P, R0), (universal_unfold(P).pencil, R0)]
    seen = set()
    for _ in range(6):
        for P, R0 in cases:
            R = _perturbed(R0, rng)
            got = pairing_extension_check(P, R, z_order=K)
            want = reference_pairing_extension_check(P, R, z_order=K)
            assert got["passes"] == want["passes"]
            if got["passes"]:
                assert got["pairing"] == want["pairing"]
            seen.add((bool(P.y_vars), got["passes"]))
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}
