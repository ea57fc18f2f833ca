import json
from fractions import Fraction

import pytest

from frobkit.germ import (FrobeniusGermData, InitialData, compare_germs,
                          euler_check, frobenius_via_unfolding, germ_to_ftype,
                          h2_reconstruct, initial_from_filtration,
                          invert_map, normalize_germ, potential_integrate,
                          rotate_zeta_first, wdvv_check)
from frobkit.pencil import pencil_to_ftype, structure_connection
from frobkit.series import SeriesError, SeriesMatrix, TruncSeries
from frobkit.structures import (FrobeniusTypeStructure, RejectionError,
                                check_ftype_axioms, filtration_to_ftype,
                                shift_example)
from helpers import (consts, cubic_init, point_base_pencil,
                     rank2_higgs_ftype, rank3_point_ftype, shift_inits)

F = Fraction
N = 4


def one_dim_init(order=N):
    FT = FrobeniusTypeStructure(
        (), 1, [], SeriesMatrix.zeros(1, 1, (), order),
        [[F(0)]], [[F(1)]], order)
    return InitialData.create(FT)


def scalar_u_init(u=F(1), order=N):
    FT = FrobeniusTypeStructure(
        (), 1, [], consts([[u]], (), order), [[F(0)]], [[F(1)]], order)
    return InitialData.create(FT)


def point_rank2_init(order=N):
    P, g = point_base_pencil(order)
    FT = FrobeniusTypeStructure((), 2, [], P.U, [[F(0)] * 2] * 2, g, order)
    return InitialData.create(FT, weight=0)


def test_one_dimensional_trivial_germ():
    germ = frobenius_via_unfolding(one_dim_init())
    assert germ.potential.terms == {(3,): F(1, 6)}
    assert germ.degrees == [F(-1)]
    other = h2_reconstruct(one_dim_init())
    assert compare_germs(germ, other)["equal"]


def test_one_dimensional_scalar_u_euler_shift():
    germ = frobenius_via_unfolding(scalar_u_init(F(1)))
    assert germ.potential.terms == {(3,): F(1, 6)}
    # Euler field is (u + s) d/ds: constant part = the eigenvalue
    (E,) = germ.euler
    assert E.constant_term == F(1)
    assert E.terms[(1,)] == F(1)
    assert euler_check(germ, dconst=F(0)) == []


def test_shift_examples_two_paths_agree():
    for (w, tag), init in shift_inits(N).items():
        a = frobenius_via_unfolding(init)
        b = h2_reconstruct(init)
        cmp = compare_germs(a, b)
        assert cmp["equal"], (w, tag, cmp["diffs"])
        assert a.degrees == [F(k) for k in range(-1, w - 2)]


def test_cubic_two_paths_agree():
    init = cubic_init(N)
    a = frobenius_via_unfolding(init)
    b = h2_reconstruct(init)
    assert compare_germs(a, b)["equal"]
    assert a.degrees == [F(-1), F(0)]
    # the elliptic-curve germ: potential is exactly s1^2 s2 / 2
    assert normalize_germ(a).potential.terms == {(2, 1): F(1, 2)}


def test_w5_deformed_differs_from_undeformed():
    inits = shift_inits(N)
    g1 = frobenius_via_unfolding(inits[(5, "1")])
    g2 = frobenius_via_unfolding(inits[(5, "1+t")])
    cmp = compare_germs(g1, g2)
    assert not cmp["equal"]
    # the constant terms of the multiplication agree; the first difference
    # appears in order >= 1 terms of some structure constant
    mult_diffs = [d for d in cmp["diffs"] if d["field"] == "mult"]
    assert mult_diffs
    for d in mult_diffs:
        i = d["index"]
        r = normalize_germ(g1).mult[i] - normalize_germ(g2).mult[i]
        assert r.at_origin() == [[F(0)] * 4 for _ in range(4)]
        assert not r.is_zero()


def test_h2_reconstruct_independent_of_generator_order(monkeypatch):
    # two base directions give more relations than unknowns, so the frozen
    # reference, scanning them in the opposite order, selects other ones;
    # the germ must be the same bytes
    import helpers
    from frobkit import germ as germ_module
    got, want = {}, {}
    solve, ref_solve = germ_module._solve_generated, helpers._solve_generated

    def spy(A, plan, stage, degrees, n, D):
        got[D] = set(plan[3])
        return solve(A, plan, stage, degrees, n, D)

    def ref_spy(*args):
        want[args[-1]] = set(args[3])
        return ref_solve(*args)

    monkeypatch.setattr(germ_module, "_solve_generated", spy)
    monkeypatch.setattr(helpers, "_solve_generated", ref_spy)
    for w1, w2, deformed in ((3, 3, False), (4, 3, True), (5, 4, True)):
        init = helpers.shift_product_init(w1, w2, deformed=deformed, order=3)
        a = h2_reconstruct(init)
        b = helpers.reference_h2_reconstruct(init, reverse_generation=True)
        assert any(got[D] != want[D] for D in got), (w1, w2)
        assert (json.dumps(a.to_json(), sort_keys=True)
                == json.dumps(b.to_json(), sort_keys=True)), (w1, w2)


def _shift_init(w, deformed, order=N):
    one = TruncSeries.one(("t",), order)
    t = TruncSeries.var(("t",), order, "t")
    b = [one + t * (k + 1) if deformed else one
         for k in range((w - 1) // 2 - 1)]
    return initial_from_filtration(shift_example(w, b, order=order))


@pytest.mark.parametrize("case", ["w3", "w5", "w5-b", "w7", "w7-b", "cubic"])
@pytest.mark.parametrize("reverse", [False, True])
def test_h2_reconstruct_matches_stage_by_stage_reference(case, reverse):
    # the frozen recursion with its own radial step and flat chart
    from helpers import reference_h2_reconstruct
    if case == "cubic":
        init = cubic_init(N)
    else:
        init = _shift_init(int(case[1]), case.endswith("-b"))
    got = h2_reconstruct(init)
    want = reference_h2_reconstruct(init, reverse_generation=reverse)
    assert (json.dumps(normalize_germ(got).to_json(), sort_keys=True)
            == json.dumps(normalize_germ(want).to_json(), sort_keys=True))


def _blob(germ):
    return json.dumps(normalize_germ(germ).to_json(), sort_keys=True)


@pytest.mark.parametrize("reverse", [False, True])
def test_h2_reconstruct_with_several_unknowns_matches_reference(reverse):
    # Euler degrees -1, 0, 0, 1, 1, 2, 2, 3: the generation solve has two
    # unknowns at degrees 1 and 2
    from helpers import reference_h2_reconstruct, shift_product_init
    init = shift_product_init(5, 3, order=3)
    assert init.frame_degrees() == [F(d) for d in (-1, 0, 0, 1, 1, 2, 2, 3)]
    got = h2_reconstruct(init)
    want = reference_h2_reconstruct(init, reverse_generation=reverse)
    assert _blob(got) == _blob(want)
    deformed = shift_product_init(5, 3, deformed=True, order=3)
    assert _blob(h2_reconstruct(deformed)) == (
        _blob(reference_h2_reconstruct(deformed, reverse_generation=reverse)))


@pytest.mark.parametrize("w1, w2, order", [(5, 3, 3), (3, 5, 3), (7, 3, 2)])
def test_h2_reconstruct_generation_solve_inverts_the_relations(
        monkeypatch, w1, w2, order):
    # with the two degree-zero frame vectors swapped, the deformed products
    # select relations whose coefficient matrix is not symmetric, so the
    # solve must apply G^-1 and not its transpose
    from frobkit import germ as germ_module
    from helpers import reference_h2_reconstruct, shift_product_init
    solve = germ_module._solve_generated
    asymmetric = []

    def spy(A, plan, *rest):
        _, _, gamma, selected, _ = plan
        G = SeriesMatrix([gamma[pr] for pr in selected])
        asymmetric.append(G != G.transpose())
        return solve(A, plan, *rest)

    monkeypatch.setattr(germ_module, "_solve_generated", spy)
    init = shift_product_init(w1, w2, deformed=True, order=order)
    n = init.ftype.n
    a, b = [k for k, d in enumerate(init.frame_degrees()) if d == 0]
    perm = list(range(n))
    perm[a], perm[b] = b, a
    B = [[F(int(perm[j] == i)) for j in range(n)] for i in range(n)]
    swapped = InitialData.create(rotate_zeta_first(init.ftype, B, B),
                                 weight=init.weight)
    got = h2_reconstruct(swapped)
    assert any(asymmetric)
    assert _blob(got) == _blob(reference_h2_reconstruct(swapped))
    assert compare_germs(frobenius_via_unfolding(swapped), got)["equal"]


def test_wdvv_passes_on_constructed_germs():
    init = shift_inits(N)[(5, "1+t")]
    germ = frobenius_via_unfolding(init)
    assert wdvv_check(germ) == []
    assert euler_check(germ, dconst=init.d_value) == []


def test_wdvv_detects_corruption():
    init = shift_inits(N)[(4, "1")]
    germ = frobenius_via_unfolding(init)
    bad_mult = [SeriesMatrix([[germ.mult[i][r, c] for c in range(3)]
                              for r in range(3)]) for i in range(3)]
    t = TruncSeries.var(germ.coords, germ.order, germ.coords[1])
    rows = [[bad_mult[1][r, c] for c in range(3)] for r in range(3)]
    rows[2][2] = rows[2][2] + t
    bad_mult[1] = SeriesMatrix(rows)
    bad = FrobeniusGermData(germ.coords, 3, bad_mult, germ.metric,
                            germ.degrees, None, germ.potential, germ.order)
    checks = {v["check"] for v in wdvv_check(bad)}
    assert checks   # at least one axiom must fire
    assert {"associativity", "commutativity", "potentiality",
            "metric-invariance",
            "potential-third-derivatives"} & checks
    echecks = {v["check"] for v in euler_check(bad, dconst=F(2))}
    assert "multiplication-grading" in echecks


def test_euler_degree_multiplicities():
    for (w, tag), init in shift_inits(N).items():
        germ = frobenius_via_unfolding(init)
        assert germ.degrees[0] == F(-1)
        assert all(F(-1) <= d <= F(w - 3) for d in germ.degrees)
        assert sum(1 for d in germ.degrees if d == 0) == 1  # dim M0 = 1


def test_general_u_rank2_germ():
    init = point_rank2_init()
    germ = frobenius_via_unfolding(init)
    assert germ.degrees is None
    assert wdvv_check(germ) == []
    assert euler_check(germ, dconst=F(0)) == []
    # the Euler constant part reflects the eigenvalues 0 and 1
    assert [e.constant_term for e in germ.euler] == [F(0), F(1)]


def _scaled_euler(germ, c):
    return FrobeniusGermData(germ.coords, germ.n, germ.mult, germ.metric,
                             None, [e * c for e in germ.euler],
                             germ.potential, germ.order)


@pytest.mark.parametrize("make", [
    lambda: point_rank2_init(4), lambda: point_rank2_init(5),
    lambda: scalar_u_init(F(1)), lambda: scalar_u_init(F(3))],
    ids=["point-rank2-4", "point-rank2-5", "scalar-u-1", "scalar-u-3"])
@pytest.mark.parametrize("scale", [F(2), F(1, 3)])
def test_general_euler_records_match_the_entrywise_reference(make, scale):
    # a scaled Euler field breaks both identities; the matrix sums must
    # file the same records, residuals included, as the entrywise loop
    from helpers import reference_euler_general
    init = make()
    germ = _scaled_euler(frobenius_via_unfolding(init), scale)
    for dconst in (None, F(1, 3), init.d_value):
        want = reference_euler_general(germ, dconst)
        assert want
        assert euler_check(germ, dconst) == want


@pytest.mark.parametrize("field", ["zero", "sheared"])
def test_general_euler_records_of_a_corrupted_germ_match_the_reference(
        field):
    from helpers import reference_euler_general
    from test_records import _corrupted_germ, _germ
    base = _germ()
    euler = [TruncSeries.zero(base.coords, base.order)] * base.n
    if field == "sheared":
        # the germ's own field plus s_2 d/ds_3: its derivative is neither
        # symmetric nor commutes with the multiplication
        euler = list(base.euler_coords())
        euler[2] = euler[2] + TruncSeries.var(base.coords, base.order,
                                              base.coords[1])
    germ = _corrupted_germ(degrees=False, euler=euler)
    want = reference_euler_general(germ, F(1, 2))
    assert want and euler_check(germ, F(1, 2)) == want


def test_h2_reconstruct_requires_vanishing_u():
    init = point_rank2_init()
    with pytest.raises(RejectionError):
        h2_reconstruct(init)


def test_h2_reconstruct_requires_graded_data():
    # U = 0 and certified, but the levels V_kk + w/2 are not integers
    vars = ("t",)
    FT = FrobeniusTypeStructure(
        vars, 2, [consts([[0, 0], [1, 0]], vars, N)],
        SeriesMatrix.zeros(2, 2, vars, N), [[F(1, 2), F(0)], [F(0), F(-1, 2)]],
        [[F(0), F(1)], [F(1), F(0)]], N)
    init = InitialData.create(FT, weight=4)
    assert init.gc.ok and init.ic["rank"] == 1 and not init.is_graded()
    assert frobenius_via_unfolding(init).n == 2
    with pytest.raises(RejectionError, match="diagonal flat endomorphism"):
        h2_reconstruct(init)


def test_potential_integrate_roundtrip():
    init = shift_inits(N)[(5, "1")]
    germ = frobenius_via_unfolding(init)
    pot = potential_integrate(germ.mult, germ.metric, germ.coords,
                              germ.order)
    assert pot == germ.potential
    # differentiating three times reproduces the tensor
    for i in range(germ.n):
        for j in range(germ.n):
            for k in range(germ.n):
                third = pot.partial(germ.coords[i]).partial(
                    germ.coords[j]).partial(germ.coords[k])
                r = third - germ.c_tensor(i, j, k)
                assert r.is_zero()


def test_potential_block_extension_shape():
    # extending a germ by a quadratic block reproduces the block metric:
    # adding F = t1 * (tau_1 tau_2) / 1 ... with the antidiagonal pairing
    # of the new directions
    init = one_dim_init()
    base = frobenius_via_unfolding(init)
    m_extra = 2
    coords = ("s1", "u1", "u2")
    order = base.order
    pot = base.potential.extend(coords)
    t1 = TruncSeries.var(coords, pot.order, "s1")
    u1 = TruncSeries.var(coords, pot.order, "u1")
    u2 = TruncSeries.var(coords, pot.order, "u2")
    pot = pot + (t1 * u1 * u2)      # (1/2) t1 (u1 u2 + u2 u1)
    third = pot.partial("s1").partial("u1").partial("u2")
    assert third.constant_term == F(1)
    # block metric read off the third derivatives with the unit direction
    g = [[F(0)] * 3 for _ in range(3)]
    names = list(coords)
    for i in range(3):
        for j in range(3):
            g[i][j] = pot.partial("s1").partial(names[i]).partial(
                names[j]).constant_term
    assert g == [[F(1), F(0), F(0)],
                 [F(0), F(0), F(1)],
                 [F(0), F(1), F(0)]]


def test_restriction_reproduces_base_higgs():
    # setting the nonzero-degree coordinates to zero recovers the input
    # multiplication on the small base (in flattened coordinates)
    init = shift_inits(N)[(5, "1+t")]
    germ = frobenius_via_unfolding(init)
    pos = [germ.coords[k] for k in range(germ.n)
           if germ.degrees[k] != 0 and k != 0]
    d0 = [k for k in range(germ.n) if germ.degrees[k] == 0]
    other = h2_reconstruct(init)
    for k in d0:
        a = germ.mult[k]
        b = other.mult[k]
        ra = a.restrict_zero(pos)
        rb = b.restrict_zero(pos)
        assert ra == rb
        assert not ra.is_zero()


def test_germ_to_ftype_roundtrip_via_structure_connection():
    # ten instances of rank <= 5: the full-germ tangent structures of all
    # corpus germs plus the point-base structures themselves
    count = 0
    inits = list(shift_inits(N).values()) + [
        cubic_init(N), one_dim_init(), scalar_u_init(), point_rank2_init()]
    for init in inits:
        germ = frobenius_via_unfolding(init)
        FT = germ_to_ftype(germ)
        assert check_ftype_axioms(FT) == []
        w = init.weight
        P, R = structure_connection(FT, w)
        back = pencil_to_ftype(P, R)
        assert back.C == FT.C and back.U == FT.U
        assert back.V == FT.V and back.g == FT.g
        count += 1
        # and the initial structures themselves round-trip
        P2, R2 = structure_connection(init.ftype, w)
        back2 = pencil_to_ftype(P2, R2)
        assert back2.C == init.ftype.C and back2.U == init.ftype.U
        assert (back2.V == [[F(x) for x in row] for row in init.ftype.V]
                and back2.g == [[F(x) for x in row]
                                for row in init.ftype.g])
        count += 1
    assert count >= 10


def test_invert_map_roundtrip():
    vars = ("a", "b")
    a = TruncSeries.var(vars, 4, "a")
    b = TruncSeries.var(vars, 4, "b")
    images = [a + b * b, b - a * b]
    inv = invert_map(images, ("x", "y"))
    x = TruncSeries.var(("x", "y"), 4, "x")
    y = TruncSeries.var(("x", "y"), 4, "y")
    got = [im.compose(dict(zip(vars, inv))) for im in images]
    assert got[0] == x and got[1] == y


def test_normalize_germ_scales_metric_and_potential():
    init = cubic_init(N)
    germ = frobenius_via_unfolding(init)
    doubled = FrobeniusGermData(
        germ.coords, germ.n, germ.mult,
        [[2 * c for c in row] for row in germ.metric],
        germ.degrees, None, germ.potential * 2, germ.order)
    assert compare_germs(germ, doubled)["equal"]


def test_truncation_commutes_with_both_constructors():
    # building at order M gives the order-N germ truncated to M, so no
    # stage of the recursion and no cap on its Euler weights depends on
    # the order beyond truncation
    one = TruncSeries.one(("t",), N)
    t = TruncSeries.var(("t",), N, "t")
    for w, b in [(5, [one + t]), (7, [one, one + t * 2])]:
        init = initial_from_filtration(shift_example(w, b, order=N))
        for ctor in (h2_reconstruct, frobenius_via_unfolding):
            germs = [normalize_germ(ctor(init, order=M))
                     for M in range(N + 1)]
            for M, small in enumerate(germs):
                assert small.order == M
                for big in germs[M + 1:]:
                    assert [A.truncate(M) for A in big.mult] == small.mult
                    assert (big.potential.truncate(small.potential.order)
                            == small.potential), (w, ctor.__name__, M)


def _ungenerated_ftype(w, b, k, order=N):
    # the shift example with its k-th connection entry vanishing at the
    # origin, so that generation at the origin stops below degree k
    one = TruncSeries.one(("t",), order)
    t = TruncSeries.var(("t",), order, "t")
    FT, _ = filtration_to_ftype(
        shift_example(w, [one + t * c for c in b], order=order))
    ent = FT.C[0].nonzero()
    ent[k + 1, k] = ent[k + 1, k] * t
    C = SeriesMatrix.from_sparse(FT.n, FT.n, FT.vars, order, ent)
    return FrobeniusTypeStructure(FT.vars, FT.n, [C], FT.U, FT.V, FT.g, order)


@pytest.mark.parametrize("w, b, k", [(5, [1], 1), (7, [1, 2], 2),
                                     (9, [1, 2, 3], 3)])
def test_ungenerated_data_never_reaches_the_constructors(w, b, k):
    FT = _ungenerated_ftype(w, b, k)
    with pytest.raises(RejectionError) as exc:
        InitialData.create(FT, weight=w)
    assert exc.value.args[0] == "generation condition fails"
    d = 2 * F(FT.V[0][0])
    with pytest.raises(TypeError):
        InitialData(FT, w, d, None, None)
    # a missing or failing certificate is refused with a pencil too
    other = _shift_init(w, True)
    assert InitialData(other.ftype, w, other.d_value, other.gc, other.ic,
                       other.pencil) == other
    for gc, ic in [(None, other.ic), (other.gc, None),
                   (other.gc, {"ok": False}), (other.gc, {})]:
        with pytest.raises(TypeError):
            InitialData(FT, w, d, gc, ic, other.pencil)


def test_rotating_zeta_gives_the_same_normalised_germ():
    # zeta = 2 e_0 rescales the first frame vector; normalisation absorbs
    # the scale the rotated pairing carries
    FT = rank2_higgs_ftype(N)
    plain = InitialData.create(FT)
    rotated = InitialData.create(FT, zeta=(2, 0))
    # the frame is B = diag(2, 1): g -> B^T g B and C -> B^-1 C B
    assert rotated.ftype.g == [[F(0), F(2)], [F(2), F(0)]]
    assert rotated.ftype.C[0].at_origin() == [[F(0), F(0)], [F(2), F(0)]]
    for ctor in (frobenius_via_unfolding, h2_reconstruct):
        assert compare_germs(ctor(plain), ctor(rotated))["equal"]
    with pytest.raises(RejectionError, match="not an eigenvector"):
        InitialData.create(FT, zeta=(1, 1))


def test_constructors_raise_the_order_of_constant_data_only():
    low = InitialData.create(rank2_higgs_ftype(order=1))
    full = InitialData.create(rank2_higgs_ftype(order=N))
    for ctor in (frobenius_via_unfolding, h2_reconstruct):
        got = ctor(low, order=N)
        assert got.order == N
        assert compare_germs(got, ctor(full))["equal"]
    one = TruncSeries.one(("t",), 1)
    t = TruncSeries.var(("t",), 1, "t")
    init = initial_from_filtration(shift_example(5, [one + t], order=1))
    for ctor in (frobenius_via_unfolding, h2_reconstruct):
        with pytest.raises(RejectionError) as exc:
            ctor(init, order=3)
        assert exc.value.args[0] == ("initial data carries too little "
                                     "precision (order 1 < 3)")


def test_shift_reconstruct_integrates_each_one_form_once(tmp_path,
                                                         monkeypatch):
    # both germ constructors read the flat chart off a one-form certified
    # closed upstream, and the potential takes one matrix integration per
    # index, so the seed-1 benchmark job checks closedness only inside the
    # unfolding's two flatness certificates; every substitution is a
    # matrix composition that forms each image's powers once
    import sys

    from click.testing import CliRunner

    from frobkit import pencil, series
    from frobkit.cli import main
    from test_bench_report import _load_workloads

    calls = dict.fromkeys(("closedness_residual", "potential_matrix",
                           "euler_integrate"), 0)
    for name, orig in ((n, getattr(pencil, n, None) or getattr(series, n))
                       for n in calls):
        def spy(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "frobkit"
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, spy)
    for name in ("__mul__", "compose"):
        calls[name] = 0

        def method(*args, _orig=getattr(TruncSeries, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(TruncSeries, name, method)
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps(_load_workloads().shift_payload(1)))
    result = CliRunner().invoke(main, [
        "reconstruct", "--input", str(payload), "--output",
        str(tmp_path / "out"), "--both-paths", "--order", "6"],
        catch_exceptions=False)
    assert result.exit_code == 0
    assert calls["closedness_residual"] <= 2
    assert calls["potential_matrix"] == 0
    assert calls["euler_integrate"] <= 35
    assert calls["__mul__"] <= 1500
    assert calls["compose"] == 0


def test_ungraded_germ_round_trips_and_compares():
    # U != 0 at the origin, so the germ keeps its Euler field as coordinates
    G = frobenius_via_unfolding(point_rank2_init(2))
    assert G.degrees is None and G.euler is not None
    blob = json.dumps(G.to_json(), sort_keys=True)
    assert "euler_coords" in blob and "euler_degrees" not in blob
    back = FrobeniusGermData.from_json(json.loads(blob))
    assert back == G
    assert compare_germs(G, back) == {"equal": True, "diffs": []}
    # without degrees the unit is paired with the last frame vector
    assert normalize_germ(G).metric[0][G.n - 1] == 1
    s1 = TruncSeries.var(G.coords, G.order, "s1")
    moved = FrobeniusGermData(G.coords, G.n, G.mult, G.metric, None,
                              [G.euler[0], G.euler[1] + s1], G.potential,
                              G.order)
    assert [(d["check"], d["indices"]) for d in
            compare_germs(G, moved)["diffs"]] == [("euler_coords", [1])]
    graded = frobenius_via_unfolding(
        initial_from_filtration(shift_example(3, [], order=2)))
    assert graded.n == G.n and graded.degrees is not None
    assert "euler_form" in [d["check"] for d in
                            compare_germs(G, graded)["diffs"]]


def test_germ_refuses_a_potential_below_its_order():
    G = frobenius_via_unfolding(shift_inits(2)[(4, "1")])
    with pytest.raises(SeriesError, match="potential carries order 1"):
        FrobeniusGermData(G.coords, G.n, G.mult, G.metric, G.degrees, None,
                          G.potential.truncate(1), G.order)


def test_ungraded_euler_checks_need_order_one():
    # at order 0 an ungraded germ has no derivatives to check
    G = frobenius_via_unfolding(point_rank2_init(0))
    assert G.degrees is None and G.order == 0
    assert euler_check(G) == []
    assert germ_to_ftype(G).V == [[F(0)] * 2] * 2
    # a quadratic Euler coordinate has a non-constant derivative
    G = frobenius_via_unfolding(point_rank2_init(2))
    s1 = TruncSeries.var(G.coords, G.order, "s1")
    bent = FrobeniusGermData(G.coords, G.n, G.mult, G.metric, None,
                             [G.euler[0], G.euler[1] + s1 * s1],
                             G.potential, G.order)
    with pytest.raises(RejectionError, match="Euler field is not "
                       "affine-linear in the flat coordinates"):
        germ_to_ftype(bent)


def test_off_diagonal_flat_endomorphism_is_not_graded():
    FT = rank2_higgs_ftype(N)
    P = [[F(1), F(1)], [F(0), F(1)]]
    Pinv = [[F(1), F(-1)], [F(0), F(1)]]
    # rank2_higgs_ftype in the frame P: V has an off-diagonal entry, and
    # its diagonal alone would pass the eigenvalue test
    rot = FrobeniusTypeStructure(
        FT.vars, 2, [C.conjugate_const(P, Pinv) for C in FT.C], FT.U,
        [[F(1, 2), F(1)], [F(0), F(-1, 2)]], [[F(0), F(1)], [F(1), F(2)]], N)
    assert not InitialData.create(rot, weight=1).is_graded()
    assert InitialData.create(FT).is_graded()
