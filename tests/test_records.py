"""Every reporter files its failed identities as {check, indices, residual}.

Each case feeds one reporter a corrupted input and collects the records it
returns (or puts in a rejection's detail); every record must have exactly
the three keys, plus ``lowest_degree`` and ``nterms`` when the residual is
a series or matrix (read back from its JSON), a list of indices, and
survive ``json.dumps``.
"""

import json
import random
from fractions import Fraction as F

import pytest

from frobkit.germ import (FrobeniusGermData, compare_germs, euler_check,
                          frobenius_via_unfolding, potential_integrate,
                          wdvv_check)
from frobkit.pencil import (ConnectionPencil, PairingMatrix,
                            pairing_extension_check, potential_matrix,
                            reduced_flatness_check)
from frobkit.series import SeriesMatrix, TruncSeries
from frobkit.structures import (FiltrationData, FrobeniusTypeStructure,
                                RejectionError, check_filtration,
                                check_ftype_axioms, filtration_to_ftype,
                                shift_example, violation)
from frobkit.unfold import UnfoldProblem, solve, universal_unfold
from helpers import (ladder_pencil, point_base_pencil, rank2_higgs_ftype,
                     reference_check_filtration, reference_euler_check,
                     reference_symmetry_records, reference_wdvv_check,
                     shift_inits)

N = 3
KEYS = {"check", "indices", "residual"}
SUMMARY = {"lowest_degree", "nterms"}


def _summary(residual) -> dict:
    """The summary of a series or matrix residual, from its JSON; {} for
    any other detail."""
    if not isinstance(residual, dict):
        return {}
    if "entries" in residual:
        terms = [t for row in residual["entries"] for entry in row
                 for t in entry]
    elif "terms" in residual:
        terms = residual["terms"]
    else:
        return {}
    return {"lowest_degree": min(sum(e) for e, _ in terms),
            "nterms": len(terms)}


def _assert_records(records):
    assert records
    for rec in records:
        summary = _summary(rec["residual"])
        assert set(rec) == KEYS | set(summary), rec
        assert {k: rec[k] for k in summary} == summary
        assert isinstance(rec["check"], str)
        assert isinstance(rec["indices"], list)
        json.dumps(rec)


def _rejection(fn, *args):
    with pytest.raises(RejectionError) as err:
        fn(*args)
    return err.value.report["violations"]


def _germ():
    return frobenius_via_unfolding(shift_inits(N)[(4, "1")])


def _corrupted_germ(degrees=True, euler=None):
    germ = _germ()
    mult = list(germ.mult)
    rows = [[mult[1][r, c] for c in range(3)] for r in range(3)]
    rows[2][2] = rows[2][2] + TruncSeries.var(germ.coords, germ.order,
                                              germ.coords[1])
    rows[0][0] = rows[0][0] + 1
    mult[1] = SeriesMatrix(rows)
    return FrobeniusGermData(germ.coords, 3, mult, germ.metric,
                             germ.degrees if degrees else None, euler,
                             germ.potential, germ.order)


def _unclosed_pencil():
    vars = ("t1", "t2")
    Z = SeriesMatrix.zeros(2, 2, vars, N)
    C1 = SeriesMatrix.identity(2, vars, N).scale_series(
        TruncSeries.var(vars, N, "t2"))
    return ConnectionPencil(vars, (), 2, [C1, Z], [], Z, Z, Z, N)


def _level_jump():
    D = shift_example(4, [], order=N)
    jump = [[TruncSeries.zero(D.vars, N) for _ in range(3)]
            for _ in range(3)]
    jump[2][0] = TruncSeries.one(D.vars, N)   # drops two levels
    return FiltrationData(D.vars, 3, 4, D.levels,
                          [D.Gamma[0] + SeriesMatrix(jump)], D.S, N)


def test_wdvv_records():
    recs = wdvv_check(_corrupted_germ())
    _assert_records(recs)
    assert {"unit-column", "commutativity"} <= {r["check"] for r in recs}


def test_euler_records_graded_branch():
    _assert_records(euler_check(_corrupted_germ(), dconst=F(2)))


def test_euler_records_general_branch():
    # a zero Euler field scales nothing, so both identities fail
    germ = _germ()
    zero = [TruncSeries.zero(germ.coords, germ.order)] * germ.n
    recs = euler_check(_corrupted_germ(degrees=False, euler=zero),
                       dconst=F(1, 2))
    _assert_records(recs)
    assert {r["check"] for r in recs} == {"euler-multiplication",
                                          "euler-metric"}


def test_ftype_axiom_records():
    FT = rank2_higgs_ftype(N)
    t = TruncSeries.var(FT.vars, N, "t")
    bad = FrobeniusTypeStructure(
        FT.vars, 2, FT.C, FT.C[0].scale_series(t),
        [[F(1), F(0)], [F(0), F(0)]], [[F(0), F(1)], [F(0), F(0)]], N)
    recs = check_ftype_axioms(bad)
    _assert_records(recs)
    assert {"pairing-symmetric", "pairing-invertible", "u-transport",
            "pairing-v-skew"} <= {r["check"] for r in recs}


def test_filtration_records():
    D = _level_jump()
    D.S = [[F(1), F(1), F(0)], [F(0)] * 3, [F(0)] * 3]
    recs = check_filtration(D)
    _assert_records(recs)
    assert {"griffiths-transversality", "pairing-weight-symmetric",
            "pairing-invertible", "pairing-level-orthogonal",
            "pairing-flat"} <= {r["check"] for r in recs}


def test_pairing_symmetry_records():
    R = SeriesMatrix.from_consts([[0, 1], [0, 0]], (), N)
    recs = PairingMatrix(0, [R, R]).symmetry_violations()
    _assert_records(recs)
    assert [r["indices"] for r in recs] == [[0], [1]]


def test_pairing_extension_records():
    P, _ = point_base_pencil(N)
    R0 = PairingMatrix.constant(0, [[F(1), F(0)], [F(0), F(1)]], (), N,
                                4 + N)
    rep = pairing_extension_check(P, R0, z_order=4)
    _assert_records(rep["base-z-transport"])
    # the universal unfolding without the correction part of its F-blocks
    # is not flat
    big = universal_unfold(P).pencil
    badF = [SeriesMatrix([[Fa[i, 0], TruncSeries.zero(big.vars, N)]
                          for i in range(2)]) for Fa in big.F]
    bad = ConnectionPencil(big.t_vars, big.y_vars, 2, big.C, badF,
                           big.U, big.V, big.W, N)
    _, g = point_base_pencil(N)
    rep = pairing_extension_check(
        bad, PairingMatrix.constant(0, g, (), N, 4 + N), z_order=4)
    _assert_records(rep["pencil-flatness"])
    # a flat pencil whose pairing has a z^(w-1) term along t
    P, R0 = ladder_pencil(N)
    rep = pairing_extension_check(P, R0, z_order=4)
    _assert_records(rep["base-t-transport"])


def test_reduced_check_records():
    P, _ = point_base_pencil(N)
    big = universal_unfold(P).pencil
    y = TruncSeries.var(big.vars, N, big.y_vars[0])
    pert = SeriesMatrix.identity(2, big.vars, N).scale_series(y)
    bad = ConnectionPencil(big.t_vars, big.y_vars, 2, big.C, big.F,
                           big.U + pert, big.V + pert, big.W, N)
    rep = reduced_flatness_check(bad)
    failed = [k for k in rep if k not in ("passes", "residue_at_infinity")]
    assert "residue-at-infinity-nonconstant" in failed
    for key in failed:
        _assert_records(rep[key])


def test_compare_germ_records():
    inits = shift_inits(N)
    cmp = compare_germs(frobenius_via_unfolding(inits[(5, "1")]),
                        frobenius_via_unfolding(inits[(5, "1+t")]))
    assert not cmp["equal"]
    # each diff is a record that also names its field (and its index, for
    # one-index fields), which acceptance criterion 9 reads
    _assert_records([{k: d[k] for k in d if k not in ("field", "index")}
                     for d in cmp["diffs"]])
    for d in cmp["diffs"]:
        assert d["field"] == d["check"]
        assert set(d) - KEYS - SUMMARY == ({"field", "index"} if d["indices"]
                                           else {"field"})
        if d["indices"]:
            assert [d["index"]] == d["indices"]


def test_rejection_details_are_records():
    _assert_records(_rejection(potential_matrix, _unclosed_pencil()))
    zero = TruncSeries.zero(("t1", "t2", "y1"), N + 1)
    _assert_records(_rejection(solve, UnfoldProblem(
        _unclosed_pencil(), ("y1",), [zero, zero], N)))
    recs = _rejection(filtration_to_ftype, _level_jump())
    _assert_records(recs)
    assert recs[0]["residual"] == {"from_level": 3, "to_level": 1}
    vars = ("s1", "s2")
    one = SeriesMatrix.identity(2, vars, N)
    nil = SeriesMatrix.from_consts([[0, 1], [0, 0]], vars, N)
    _assert_records(_rejection(potential_integrate, [one, nil],
                               [[F(1), F(0)], [F(0), F(1)]], vars, N))


def test_violation_drops_zero_residuals():
    out = []
    assert violation(out, "zero", (0,), TruncSeries.zero(("t",), 2)) is False
    assert violation(out, "zero", (),
                     SeriesMatrix.zeros(2, 2, ("t",), 2)) is False
    assert out == []
    one = TruncSeries.one(("t",), 2)
    assert violation(out, "one", (1, "t"), one) is True
    assert violation(out, "singular") is True
    assert out == [{"check": "one", "indices": [1, "t"],
                    "residual": one.to_json(), "lowest_degree": 0,
                    "nterms": 1},
                   {"check": "singular", "indices": [], "residual": None}]


def test_violation_summarises_series_and_matrix_residuals():
    vars = ("t", "y")
    # t^2 + 3 t y^2: lowest degree 2, two terms
    x = TruncSeries(vars, 4, {(2, 0): 1, (1, 2): 3})
    # entries y^3 and t - y: lowest degree 1 over both, three terms
    M = SeriesMatrix([[TruncSeries(vars, 4, {(0, 3): 1}),
                       TruncSeries.zero(vars, 4)],
                      [TruncSeries.zero(vars, 4),
                       TruncSeries(vars, 4, {(1, 0): 1, (0, 1): -1})]])
    out = []
    violation(out, "series", (), x)
    violation(out, "matrix", (), M)
    assert [(r["lowest_degree"], r["nterms"]) for r in out] == [(2, 2),
                                                               (1, 3)]
    _assert_records(out)


# the record lists of the checks that walk the stored nonzeros against the
# frozen loops that read every entry: the same records, in the same order

def _seeded_series(rng, vars, order):
    return TruncSeries(vars, order, {
        tuple(rng.randint(0, 1) for _ in vars): rng.randint(-2, 2)
        for _ in range(rng.randint(1, 2))})


def _perturbed(rng, M, count, order=None):
    """M with ``count`` random entries moved by a random series, at
    ``order`` (M's own by default)."""
    entries = dict(M.nonzero())
    zero = TruncSeries.zero(M.vars, M.order)
    for _ in range(count):
        ij = rng.randrange(M.rows), rng.randrange(M.cols)
        entries[ij] = (entries.get(ij, zero)
                       + _seeded_series(rng, M.vars, M.order))
    return SeriesMatrix.from_sparse(M.rows, M.cols, M.vars,
                                    M.order if order is None else order,
                                    entries)


def _seeded_corrupt_germs(seed=24, count=12):
    """Shift germs of ranks 3 and 4 with a few random entries moved; at
    germ order 2 some mult matrices keep order 3, so the orders are mixed,
    and every other germ trades its degrees for perturbed Euler
    coordinates."""
    rng = random.Random(seed)
    inits = shift_inits(N)
    bases = [frobenius_via_unfolding(inits[key])
             for key in ((4, "1"), (5, "1+t"))]
    out = []
    for trial in range(count):
        G = bases[trial % 2]
        mixed = trial % 3 == 0
        mult = [_perturbed(rng, M, rng.randint(0, 2),
                           N - 1 if mixed and rng.randint(0, 1) else None)
                for M in G.mult]
        euler = None
        if trial % 4 >= 2:
            euler = [e + _seeded_series(rng, G.coords, N) if rng.randint(0, 1)
                     else e for e in G.euler_coords()]
        out.append(FrobeniusGermData(
            G.coords, G.n, mult, G.metric, None if euler else G.degrees,
            euler, G.potential, N - 1 if mixed else N))
    return out


def _json(records):
    return json.dumps(records)


def test_germ_records_match_the_dense_loops():
    seen = set()
    for G in _seeded_corrupt_germs():
        for dconst in (None, F(1), F(2)):
            got = euler_check(G, dconst)
            assert _json(got) == _json(reference_euler_check(G, dconst))
            seen |= {r["check"] for r in got}
        got = wdvv_check(G)
        assert _json(got) == _json(reference_wdvv_check(G))
        seen |= {r["check"] for r in got}
        try:
            potential_integrate(G.mult, G.metric, G.coords, G.order)
            got = []
        except RejectionError as exc:
            got = exc.report["violations"]
        assert _json(got) == _json(reference_symmetry_records(
            G.mult, G.metric, G.coords, G.order))
        seen |= {r["check"] for r in got}
    assert {"commutativity", "multiplication-grading", "euler-multiplication",
            "euler-metric", "third-derivative-symmetric"} <= seen


def test_filtration_records_match_the_dense_loop():
    rng = random.Random(24)
    seen = set()
    for _ in range(8):
        D = _level_jump()
        D.Gamma = [_perturbed(rng, D.Gamma[0], rng.randint(0, 3))]
        got = check_filtration(D)
        assert _json(got) == _json(reference_check_filtration(D))
        seen |= {r["check"] for r in got}
    assert {"griffiths-transversality", "pairing-flat"} <= seen
