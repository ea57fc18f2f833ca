import gc
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from frobkit import linalg
from frobkit.jacobi import JacobiFamily, WeightSystem, XPoly, build_jacobi
from frobkit.series import SeriesError, SeriesMatrix, TruncSeries
from frobkit.structures import (FiltrationData, FrobeniusTypeStructure,
                                RejectionError, _gauge_flat_frame,
                                _solve_pairing,
                                check_ftype_axioms,
                                check_filtration, shift_example,
                                filtration_to_ftype, ftype_to_filtration,
                                jacobi_to_filtration)
from helpers import (HESSE, consts, fermat, fermat_cubic_algebra,
                     reference_solve_pairing,
                     rank2_higgs_ftype)

F = Fraction
N = 4


def test_zero_structure_passes():
    vars = ("t",)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    ident = [[F(1), F(0)], [F(0), F(1)]]
    FT = FrobeniusTypeStructure(vars, 2, [Z], Z, [[F(0)] * 2] * 2, ident, N)
    assert check_ftype_axioms(FT) == []


def test_rank2_shift_structure_passes():
    assert check_ftype_axioms(rank2_higgs_ftype(N)) == []


def test_bad_flat_endomorphism_fails_skewness():
    FT = rank2_higgs_ftype(N)
    bad = FrobeniusTypeStructure(FT.vars, 2, FT.C, FT.U,
                                 [[F(1), F(0)], [F(0), F(0)]], FT.g, N)
    checks = {v["check"] for v in check_ftype_axioms(bad)}
    assert "pairing-v-skew" in checks


def test_u_transport_detects_wrong_sign():
    # flipping the Higgs sign breaks the transport equation at constant U
    FT = rank2_higgs_ftype(N)
    t = TruncSeries.var(FT.vars, N, "t")
    U = FT.C[0].scale_series(t)    # dU/dt = C_1, but the axiom needs 0
    bad = FrobeniusTypeStructure(FT.vars, 2, FT.C, U, FT.V, FT.g, N)
    checks = {v["check"] for v in check_ftype_axioms(bad)}
    assert "u-transport" in checks


def test_dictionary_roundtrip_rank2():
    FT = rank2_higgs_ftype(N)
    D = ftype_to_filtration(FT, 1)
    assert D.levels == [1, 0]
    assert D.S == [[F(0), F(-1)], [F(1), F(0)]]
    back, gauge = filtration_to_ftype(D)
    assert back.C == FT.C and back.V == FT.V and back.g == FT.g
    assert back.order == FT.order
    assert gauge.is_zero() is False


def test_zero_higgs_gives_flat_trivial_filtration():
    vars = ("t",)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    FT = FrobeniusTypeStructure(
        vars, 2, [Z], Z,
        [[F(1, 2), F(0)], [F(0), F(-1, 2)]],
        [[F(0), F(1)], [F(1), F(0)]], N)
    D = ftype_to_filtration(FT, 1)
    assert D.Gamma[0].is_zero()
    back, _ = filtration_to_ftype(D)
    assert back.C[0].is_zero()


def test_nonhalfinteger_spectrum_rejected():
    vars = ("t",)
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    FT = FrobeniusTypeStructure(
        vars, 2, [Z], Z,
        [[F(1, 3), F(0)], [F(0), F(-1, 3)]],
        [[F(0), F(1)], [F(1), F(0)]], N)
    with pytest.raises(RejectionError):
        ftype_to_filtration(FT, 1)


def test_non_diagonal_flat_endomorphism_is_diagonalised():
    # rank2_higgs_ftype in the frame P = [[1, 1], [0, 1]]: V = P^-1 V P is
    # no longer diagonal, so the levels come from its eigenvectors
    FT = rank2_higgs_ftype(N)
    P = [[F(1), F(1)], [F(0), F(1)]]
    Pinv = [[F(1), F(-1)], [F(0), F(1)]]
    V = [[F(1, 2), F(1)], [F(0), F(-1, 2)]]
    g = [[F(0), F(1)], [F(1), F(2)]]        # P^T g P
    rot = FrobeniusTypeStructure(FT.vars, 2,
                                 [C.conjugate_const(P, Pinv) for C in FT.C],
                                 FT.U, V, g, N)
    assert check_ftype_axioms(rot) == []
    D = ftype_to_filtration(rot, 1)
    assert D.levels == [0, 1]
    assert check_filtration(D) == []
    # a Jordan block has one eigenvector for two frame vectors
    Z = SeriesMatrix.zeros(2, 2, FT.vars, N)
    jordan = FrobeniusTypeStructure(FT.vars, 2, [Z], Z,
                                    [[F(1, 2), F(1)], [F(0), F(1, 2)]],
                                    FT.g, N)
    with pytest.raises(RejectionError, match="not semisimple"):
        ftype_to_filtration(jordan, 1)


def test_level_preserving_part_is_gauged_away():
    # the gauge G of filtration_to_ftype solves dG = -(sum B_i dt_i) G with
    # G(0) = id, which removes the level-preserving part B: G^-1 (B_i G +
    # d_i G) = 0.  Two base variables and B_i = d_i Phi for
    # Phi = t1 t2 X + t2^2 X^2, whose values all commute, so the equation is
    # integrable and G = exp(-Phi).
    vars = ("t1", "t2")
    t1, t2 = (TruncSeries.var(vars, N, v) for v in vars)
    X = consts([[1, 1, 0], [0, 1, 1], [0, 0, 1]], vars, N)
    X2 = X @ X
    Bs = [X.scale_series(t2), X.scale_series(t1) + X2.scale_series(t2 * 2)]
    assert Bs[0].commutator(Bs[1]).is_zero()
    G = _gauge_flat_frame(Bs, vars, N, 3)
    assert G.order == N
    assert G.at_origin() == [[F(int(i == j)) for j in range(3)]
                             for i in range(3)]
    ginv = G.inverse_series()
    for v, B in zip(vars, Bs):
        assert (G.partial(v) + B @ G).is_zero()
        assert (ginv @ (B @ G + G.partial(v))).is_zero()
    mPhi = -(X.scale_series(t1 * t2) + X2.scale_series(t2 * t2))
    exp, power = SeriesMatrix.identity(3, vars, N), None
    for k in range(1, N + 1):
        power = mPhi if power is None else power @ mPhi
        exp = exp + power.scale(Fraction(1, math.factorial(k)))
    assert G == exp
    # through the conversion: a level-preserving t on the middle level is
    # gauged away (else an AssertionError), and only the pairing, no
    # longer flat against the new connection, is rejected
    D = shift_example(4, [], order=N)
    t = TruncSeries.var(D.vars, N, "t")
    pert = [[TruncSeries.zero(D.vars, N) for _ in range(3)]
            for _ in range(3)]
    pert[1][1] = t
    D2 = FiltrationData(D.vars, 3, 4, D.levels,
                        [D.Gamma[0] + SeriesMatrix(pert)], D.S, N)
    with pytest.raises(RejectionError) as err:
        filtration_to_ftype(D2)
    assert {v["check"] for v in err.value.report["violations"]} == {
        "pairing-higgs"}


def test_griffiths_violation_reported():
    D = shift_example(4, [], order=N)
    bad = [[TruncSeries.zero(D.vars, N) for _ in range(3)]
           for _ in range(3)]
    bad[2][0] = TruncSeries.one(D.vars, N)   # drops two levels
    D2 = FiltrationData(D.vars, 3, 4, D.levels, [D.Gamma[0] +
                                                 SeriesMatrix(bad)],
                        D.S, N)
    with pytest.raises(RejectionError) as err:
        filtration_to_ftype(D2)
    assert "violations" in err.value.report


def test_example_w3_forced_vector():
    D = shift_example(3, [], order=N)
    assert D.n == 2
    G = D.Gamma[0]
    assert G[1, 0] == TruncSeries.one(D.vars, N)
    assert G[0, 1].is_zero() and G[0, 0].is_zero() and G[1, 1].is_zero()
    assert check_filtration(D) == []


def test_example_w4_mirror_rule():
    D = shift_example(4, [], order=N)
    bs = [D.Gamma[0][l + 1, l] for l in range(2)]
    assert [b.constant_term for b in bs] == [F(1), F(1)]


def test_example_w5_mirror_rule_and_structure():
    one = TruncSeries.one(("t",), N)
    t = TruncSeries.var(("t",), N, "t")
    D = shift_example(5, [one + t], order=N)
    bs = [D.Gamma[0][l + 1, l] for l in range(3)]
    assert bs[0] == one
    assert bs[1] == one + t
    assert bs[2] == one          # mirrored from b_1
    assert D.levels == [4, 3, 2, 1]
    # rank of the top filtration steps: one vector at the top level, one
    # more at the next (the base is one-dimensional)
    assert D.levels.count(4) == 1 and D.levels.count(3) == 1
    assert check_filtration(D) == []


def test_example_rejects_wrong_data():
    with pytest.raises(RejectionError):
        shift_example(5, [], order=N)          # missing b_2
    t = TruncSeries.var(("t",), N, "t")
    with pytest.raises(RejectionError):
        shift_example(5, [t], order=N)         # not a unit


def test_jacobi_filtration_cubic():
    D, info = jacobi_to_filtration(fermat_cubic_algebra(), order=N)
    assert info["weight"] == 3 and info["rank"] == 2
    assert info["base_dim"] == 1
    assert info["pairing_unique_up_to_scalar"]
    G = D.Gamma[0]
    assert G[1, 0] == TruncSeries.const(D.vars, N, -1)
    assert check_filtration(D) == []
    FT, _ = filtration_to_ftype(D)
    assert check_ftype_axioms(FT) == []


def test_jacobi_filtration_quintic_bookkeeping():
    A = build_jacobi(*fermat(5, 5))
    D, info = jacobi_to_filtration(A, order=0, with_pairing=False)
    assert info["weight"] == 5
    assert info["rank"] == 204
    assert info["base_dim"] == 101
    assert info["block_dims"] == [1, 101, 101, 1]
    assert sorted(set(D.levels), reverse=True) == [4, 3, 2, 1]


# sha256 of the JSON of [G.to_json() for G in D.Gamma], taken before the
# family echelon kept a column-occurrence index (the K3 at order 3 and the
# quintic at order 0: before the family normal forms were lifted from the
# algebra's cofactors); at order > 0 the family rows have several entries,
# which the order-0 benchmark job never builds
FAMILY_FIXTURES = [
    ((HESSE, WeightSystem.straight(3, 3)), 4,
     "1195a22de2af740a117aa7d2e86c64fdba4a7bfe1678550c838ad66752ee711b"),
    (fermat(4, 4), 2,
     "e662e7304345e2ac602b54fe202e43e8e9923dfe80d07108c2310ddb4f5a07d6"),
    (fermat(4, 4), 3,
     "1a5ccb9db99ba9c7ed47ebf873787cc7559c091d65a065b08a797c6e4bd4f5fe"),
    (fermat(5, 5), 0,
     "3d9576097c8da108439f507614e4f448312b1dbd9efff26c591b4b2fbd604ce0"),
]


def test_gamma_entries_hold_integer_terms():
    # a series stores int numerators, so a Gamma entry's term dict holds no
    # object the garbage collector tracks
    D, _ = jacobi_to_filtration(build_jacobi(*fermat(5, 5)), order=0,
                                with_pairing=False)
    entries = [x for G in D.Gamma for x in G.nonzero().values()]
    assert len(entries) == 3593
    assert not any(gc.is_tracked(x._t) for x in entries)


@pytest.mark.parametrize("poly, order, digest", FAMILY_FIXTURES,
                         ids=["hesse-cubic-4", "fermat-k3-2", "fermat-k3-3",
                              "fermat-quintic-0"])
def test_jacobi_filtration_family_regression(poly, order, digest):
    A = build_jacobi(*poly)
    D, info = jacobi_to_filtration(A, order=order, with_pairing=False)
    blob = json.dumps([G.to_json() for G in D.Gamma], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
    fam = JacobiFamily(A, D.vars, order)
    blocks, L = info["block_dims"], A.ws.scale
    offs = [sum(blocks[:q]) for q in range(len(blocks))]
    zero = TruncSeries.zero(D.vars, order)
    for a, G in enumerate(D.Gamma):
        for q in range(len(blocks)):
            entries = fam.mult_entries(a, q * L)
            nrows = A.dim_scaled((q + 1) * L)
            assert all(not x.is_zero() and 0 <= i < nrows
                       and 0 <= j < blocks[q] for (i, j), x in entries.items())
            assert fam.mult_matrix(a, q * L) == [
                [entries.get((i, j), zero) for j in range(blocks[q])]
                for i in range(nrows)]
            if q + 1 < len(blocks):
                assert all(G[offs[q + 1] + i, offs[q] + j] == -x
                           for (i, j), x in entries.items())


def test_jacobi_filtration_rejects_nondividing_degree():
    A = build_jacobi(*fermat(3, 2))   # d=2 does not divide n+1=3
    with pytest.raises(RejectionError):
        jacobi_to_filtration(A, order=1)


def test_dictionary_roundtrip_from_filtration_side():
    # filtration -> structure -> filtration is the identity on generated
    # instances (the flat endomorphism stays diagonal in frame order)
    one = TruncSeries.one(("t",), N)
    t = TruncSeries.var(("t",), N, "t")
    for D in [shift_example(3, [], order=N),
              shift_example(5, [one + t], order=N),
              jacobi_to_filtration(fermat_cubic_algebra(), order=N)[0]]:
        FT, gauge = filtration_to_ftype(D)
        # no level-preserving part, so no gauge and no lost order
        assert gauge == SeriesMatrix.identity(D.n, D.vars, D.order)
        back = ftype_to_filtration(FT, D.weight)
        assert back.levels == D.levels
        assert back.S == D.S
        assert all(a == b for a, b in zip(back.Gamma, D.Gamma))


def test_filtration_flatness_invariant_on_produced_data():
    one = TruncSeries.one(("t",), N)
    t = TruncSeries.var(("t",), N, "t")
    for D in [shift_example(3, [], order=N),
              shift_example(5, [one + t], order=N),
              jacobi_to_filtration(fermat_cubic_algebra(), order=N)[0]]:
        assert check_filtration(D) == []


def _two_parameter_filtration(a, b):
    # rank 2 over (t1, t2), each gamma lowering the level of e_0 onto e_1;
    # the two gammas commute, so flatness is d/dt1 b = d/dt2 a
    vars = ("t1", "t2")
    gammas = [SeriesMatrix.from_sparse(2, 2, vars, 2, {(1, 0): x})
              for x in (a, b)]
    return FiltrationData(vars, 2, 1, [1, 0], gammas, None, 2)


def test_check_filtration_differentiates_in_two_parameters():
    t1 = TruncSeries.var(("t1", "t2"), 2, "t1")
    t2 = TruncSeries.var(("t1", "t2"), 2, "t2")
    assert check_filtration(_two_parameter_filtration(t2, t1)) == []
    # d/dt2 of t2 is 1, d/dt1 of 2 t1 is 2: the curvature is the constant -1
    viol = check_filtration(_two_parameter_filtration(t2, t1 * 2))
    assert [(v["check"], v["indices"]) for v in viol] == [
        ("connection-flat", [0, 1])]
    assert viol[0]["residual"]["entries"][1][0] == [[[0, 0], "-1/1"]]


def test_constructors_refuse_series_below_their_order():
    F2 = rank2_higgs_ftype(2)
    with pytest.raises(SeriesError, match=r"higgs\[0\] carries order 2, "
                                          "below the order 3"):
        FrobeniusTypeStructure(F2.vars, 2, F2.C,
                               SeriesMatrix.zeros(2, 2, F2.vars, 3), F2.V,
                               F2.g, 3)
    with pytest.raises(SeriesError, match="u_endo carries order 1"):
        FrobeniusTypeStructure(F2.vars, 2, F2.C, F2.U.truncate(1), F2.V,
                               F2.g, 2)
    D = shift_example(4, [], order=2)
    with pytest.raises(SeriesError, match=r"gamma\[0\] carries order 2"):
        FiltrationData(D.vars, D.n, D.weight, D.levels, D.Gamma, D.S, 3)
    # more than the order is fine: it is truncated on use
    FiltrationData(D.vars, D.n, D.weight, D.levels, D.Gamma, D.S, 1)


# the flat-pairing solver against its frozen dense body: the same pairing
# and solution dimension, or the same rejection

def _pairing_outcome(solver, args):
    try:
        return solver(*args)
    except RejectionError as exc:
        return str(exc), exc.report


@pytest.mark.parametrize("name, order", [("cubic", 0), ("cubic", 1),
                                         ("k3", 0), ("k3", 1)],
                         ids=["cubic-0", "cubic-1", "k3-0", "k3-1"])
def test_solve_pairing_matches_dense_reference_on_jacobi_families(name,
                                                                  order):
    # the Fermat cubic has odd weight; the K3 quartic at order 1 is the
    # "no nondegenerate flat pairing" rejection
    algebra = (fermat_cubic_algebra() if name == "cubic"
               else build_jacobi(*fermat(4, 4)))
    D, _ = jacobi_to_filtration(algebra, order=order, with_pairing=False)
    args = (D.levels, D.weight, D.Gamma, D.n)
    got = _pairing_outcome(_solve_pairing, args)
    assert got == _pairing_outcome(reference_solve_pairing, args)
    assert isinstance(got[0], str) == ((name, order) == ("k3", 1))


def _seeded_pairing_inputs(seed=24, count=40):
    """(levels, w, Gammas, n) with levels in pairs p, w - p; each Gamma is
    either a few random entries or S0^-1 K f, which is flat against the
    matching pairing S0 for a (-1)^(w+1)-symmetric K and a series f."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        n, w = 2 * rng.randint(1, 3), rng.randint(1, 4)
        sign = (-1) ** (w % 2)
        levels = [0] * n
        S0 = [[0] * n for _ in range(n)]
        perm = rng.sample(range(n), n)
        for k, l in zip(perm[::2], perm[1::2]):
            p = rng.randint(0, w)
            levels[k], levels[l] = p, w - p
            S0[k][l], S0[l][k] = 1, sign
        vars = ("t1", "t2")[:rng.randint(1, 2)]
        order = rng.randint(0, 2)

        def series():
            return TruncSeries(vars, order, {
                tuple(rng.randint(0, 1) for _ in vars): rng.randint(-2, 2)
                for _ in range(2)})

        Gammas = []
        for _ in range(rng.randint(0, 2)):
            if trial % 2:
                entries = {(rng.randrange(n), rng.randrange(n)): series()
                           for _ in range(rng.randint(0, 3))}
            else:
                K = [[0] * n for _ in range(n)]
                for _ in range(rng.randint(1, 2)):
                    a, b = rng.randrange(n), rng.randrange(n)
                    c = rng.randint(1, 2)
                    if a != b or sign == -1:
                        K[a][b], K[b][a] = c, -sign * c
                f = series()
                entries = {(i, j): f * c for i, row in enumerate(
                    linalg.mat_mul(linalg.mat_inverse(S0), K))
                    for j, c in enumerate(row) if c}
            Gammas.append(SeriesMatrix.from_sparse(n, n, vars, order,
                                                   entries))
        out.append((levels, w, Gammas, n))
    return out


def test_solve_pairing_matches_dense_reference_on_seeded_inputs():
    reached = set()
    for args in _seeded_pairing_inputs():
        got = _pairing_outcome(_solve_pairing, args)
        assert got == _pairing_outcome(reference_solve_pairing, args), args
        if all(G.is_zero() for G in args[2]):
            reached.add("no equations")
        elif isinstance(got[0], str):
            reached.add("no invertible candidate")
        elif got[1] > 1:
            reached.add("solution space of dimension > 1")
    assert reached == {"no equations", "no invertible candidate",
                       "solution space of dimension > 1"}


def test_dictionary_refuses_nonzero_u_and_a_non_flat_result():
    FT = rank2_higgs_ftype(N)
    moved = FrobeniusTypeStructure(FT.vars, 2, FT.C, FT.C[0], FT.V, FT.g, N)
    with pytest.raises(RejectionError, match="first endomorphism must "
                       "vanish for the filtration dictionary"):
        ftype_to_filtration(moved, 1)
    # a second Higgs field that does not commute with the first makes the
    # converted connection non-flat
    vars = ("t1", "t2")
    C = [consts([[0, 0], [1, 0]], vars, N), consts([[0, 0], [0, 1]], vars, N)]
    two = FrobeniusTypeStructure(vars, 2, C, SeriesMatrix.zeros(
        2, 2, vars, N), FT.V, FT.g, N)
    with pytest.raises(RejectionError, match="converted data violates the "
                       "filtration conditions") as err:
        ftype_to_filtration(two, 1)
    assert "connection-flat" in {
        v["check"] for v in err.value.report["violations"]}
