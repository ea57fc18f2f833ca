import json
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobkit.jacobi import (GradedPiece, JacobiFamily, NotIsolatedError,
                            RfClass, WeightSystem, XPoly, _SeriesEchelon,
                            build_jacobi, h2_generation_check,
                            jacobian_piece, multiply_rf, normal_form,
                            pack_key, unpack_key)
from frobkit.linalg import Echelon
from frobkit.series import TruncSeries
from helpers import (ReferenceSeriesEchelon, codim_one_polynomial, fermat,
                     fermat_cubic_algebra)

F = Fraction


def test_jacobian_piece_cubic_q1():
    f, ws = fermat(3, 3)
    jp = jacobian_piece(f, ws, 1)
    assert jp["dimension"] == 10
    assert jp["rank"] == 9
    assert jp["quotient_dim"] == 1


def test_jacobian_piece_q0_empty():
    f, ws = fermat(3, 3)
    jp = jacobian_piece(f, ws, 0)
    assert jp["rank"] == 0 and jp["quotient_dim"] == 1


def test_jacobian_piece_two_squares_half():
    ws = WeightSystem([F(1, 2), F(1, 2)])
    f = XPoly(2, {(2, 0): F(1), (0, 2): F(1)})
    jp = jacobian_piece(f, ws, F(1, 2))
    assert jp["dimension"] == 2 and jp["rank"] == 2


def test_build_quintic_dimensions_and_product_oracle():
    f, ws = fermat(5, 5)
    A = build_jacobi(f, ws)
    assert A.milnor == 1024 == (5 - 1) ** 5
    assert [A.dim_at(q) for q in range(4)] == [1, 101, 101, 1]
    # row-reduction oracle against the Hilbert-series dimensions
    for q in range(4):
        jp = jacobian_piece(f, ws, q)
        assert jp["quotient_dim"] == A.dim_at(q)


def test_build_cubic():
    A = fermat_cubic_algebra()
    assert A.milnor == 8 == (3 - 1) ** 3
    assert A.dim_at(0) == 1 and A.dim_at(1) == 1
    assert A.alpha1 == 1
    assert A.exponents[0] == 1


def test_one_variable_square():
    ws = WeightSystem([F(1, 2)])
    A = build_jacobi(XPoly(1, {(2,): F(1)}), ws)
    assert A.milnor == 1
    assert A.exponents == [F(1, 2)]


def test_milnor_product_oracle_fermat_family():
    for nvars, d in [(2, 3), (3, 4), (4, 3)]:
        f, ws = fermat(nvars, d)
        A = build_jacobi(f, ws)
        assert A.milnor == (d - 1) ** nvars


def test_exponent_symmetry():
    for make in (lambda: fermat_cubic_algebra(),
                 lambda: build_jacobi(*fermat(4, 4)),
                 lambda: build_jacobi(*codim_one_polynomial())):
        A = make()
        ex = A.exponents
        total = ex[0] + ex[-1]
        assert all(ex[i] + ex[-1 - i] == total for i in range(len(ex)))


def test_normal_form_examples():
    A = fermat_cubic_algebra()
    # basis monomials project to unit coordinate vectors
    piece = A.piece(3)
    for pos, mono in enumerate(piece.basis_monomials):
        nf = A.class_of_monomial(mono)
        assert nf.coords == {pos: F(1)}
    # x0^2 x1 lies in the ideal
    assert A.normal_form(XPoly(3, {(2, 1, 0): F(1)})).is_zero()
    assert A.normal_form(XPoly(3, {})).is_zero()
    with pytest.raises(ValueError):
        A.normal_form(XPoly(3, {(1, 0, 0): F(1), (2, 0, 0): F(1)}))


def test_normal_form_idempotent_and_linear():
    A = build_jacobi(*fermat(3, 4))
    p = XPoly(3, {(2, 1, 1): F(2), (0, 3, 1): F(-5), (4, 0, 0): F(1)})
    nf = A.normal_form(p)
    rep = XPoly(3, {})
    piece = A.piece(nf.sdeg)
    for pos, c in nf.coords.items():
        rep = rep + XPoly.monomial(3, piece.basis_monomials[pos], c)
    assert A.normal_form(rep).coords == nf.coords


def test_multiply_unit_and_socle():
    A = fermat_cubic_algebra()
    one = A.unit()
    h = A.class_of_monomial((1, 1, 1))
    assert multiply_rf(A, one, h).coords == h.coords
    assert multiply_rf(A, h, h).is_zero()   # degree-2 piece is empty


def test_multiply_commutative_associative():
    A = build_jacobi(*fermat(3, 4))
    xs = [A.class_of_monomial(m) for m in
          [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)]]
    for a in xs:
        for b in xs:
            assert multiply_rf(A, a, b).coords == multiply_rf(A, b, a).coords
            for c in xs:
                left = multiply_rf(A, multiply_rf(A, a, b), c)
                right = multiply_rf(A, a, multiply_rf(A, b, c))
                assert left.coords == right.coords


def test_h2_generation_quintic_passes():
    A = build_jacobi(*fermat(5, 5))
    rep = h2_generation_check(A)
    assert rep["passes"] and set(rep["codimensions"]) == {2, 3}
    assert all(v == 0 for v in rep["codimensions"].values())


def test_h2_generation_codim_one_instance():
    A = build_jacobi(*codim_one_polynomial())
    rep = h2_generation_check(A)
    assert rep["codimensions"][2] == 1
    assert all(v == 0 for q, v in rep["codimensions"].items() if q != 2)
    assert not rep["passes"]


def test_h2_generation_cubic_trivially_passes():
    rep = h2_generation_check(fermat_cubic_algebra())
    assert rep["passes"] and rep["codimensions"] == {}


def test_total_dimension_is_milnor():
    A = build_jacobi(*fermat(4, 4))
    total = sum(A.dim_scaled(s) for s in range(A.top_scaled() + 1))
    assert total == A.milnor


def test_non_isolated_rejected_with_witness():
    ws = WeightSystem([F(1, 3), F(1, 3)])
    f = XPoly(2, {(2, 1): F(1)})    # zero set contains a line
    with pytest.raises(NotIsolatedError) as err:
        build_jacobi(f, ws)
    assert err.value.degree == F(1)


def test_inhomogeneous_f_rejected():
    ws = WeightSystem([F(1, 3), F(1, 3)])
    with pytest.raises(ValueError):
        build_jacobi(XPoly(2, {(3, 0): F(1), (2, 0): F(1)}), ws)


def test_family_normal_forms_match_at_origin():
    A = fermat_cubic_algebra()
    fam = JacobiFamily(A, ("t1",), order=3)
    M = fam.mult_matrix(0, 0)   # multiplication by the degree-1 class
    assert len(M) == 1 and len(M[0]) == 1
    assert M[0][0].constant_term == 1
    # top-degree multiplication dies: the target piece above the socle
    piece1 = A.piece(3)
    assert fam.mult_matrix(0, 3) == []


def test_family_matches_blowup_of_unit():
    # for the quartic curve family the t=0 matrix equals the static one
    A = build_jacobi(*fermat(3, 4))
    m0 = A.dim_at(1)
    fam = JacobiFamily(A, tuple("t%d" % i for i in range(m0)), order=1)
    M = fam.mult_matrix(0, 0)
    stat = A.multiply(A.unit(), RfClass(0, {0: F(1)}))
    col = [M[i][0].constant_term for i in range(len(M))]
    ma = A.class_of_monomial(fam.deg1_monomials[0])
    want = [F(0)] * A.dim_at(1)
    for pos, c in ma.coords.items():
        want[pos] = c
    assert col == want


# ---------------------------------------------------------------------------
# the union-find engine against a full echelon over all generator products
# ---------------------------------------------------------------------------

def _echelon_reference(ws, gens, sdeg):
    """(dim, basis, normal forms) of the piece at sdeg from one echelon.

    Pivoting on the largest column leaves the lex-first independent
    complement as the non-pivot columns.
    """
    monos = ws.monomials(sdeg)
    index = {m: i for i, m in enumerate(monos)}
    ech = Echelon(pivot="max")
    for gen in gens:
        gdeg = sdeg - ws.scaled_degree(next(iter(gen.terms)))
        for g in ws.monomials(gdeg):
            ech.insert({index[tuple(a + b for a, b in zip(g, e))]: c
                        for e, c in gen.terms.items()})
    basis = [i for i in range(len(monos)) if i not in ech.pivots]
    pos = {b: k for k, b in enumerate(basis)}
    nfs = [{pos[c]: x for c, x in ech.reduce({i: F(1)}).items()}
           for i in range(len(monos))]
    return len(basis), basis, nfs


def _assert_matches_echelon(ws, gens, sdeg):
    piece = GradedPiece(ws, gens, sdeg)
    assert piece._uf is not None        # the union-find engine ran
    dim, basis, nfs = _echelon_reference(ws, gens, sdeg)
    assert (piece.dim, piece.basis) == (dim, basis)
    for i, key in enumerate(piece.keys):
        assert piece.nf_index(i) == nfs[i]
        assert piece.nf_key(key, F(-3, 2)) == {
            k: v * F(-3, 2) for k, v in nfs[i].items()}
    return piece


W3 = WeightSystem.straight(3, 3)


def _gen(*terms):
    return XPoly(3, {e: F(c) for e, c in terms})


X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_union_find_kill_free_dead_component():
    # x = 2y and x = 3y: every degree-2 relation chain closes inconsistently
    gens = [_gen((X, 1), (Y, -2)), _gen((X, 1), (Y, -3))]
    piece = _assert_matches_echelon(W3, gens, 2)
    # only z^2 survives; the x,y monomials die with no one-term generator
    assert piece.basis_monomials == [(0, 0, 2)]


def test_union_find_kill_and_cycle_in_one_component():
    # the consistent cycle x = y = 2z, joined to a kill of y^2
    gens = [_gen((X, 1), (Y, -1)), _gen((Y, 1), (Z, -2)),
            _gen((X, 1), (Z, -2)), _gen(((0, 2, 0), 1))]
    piece = _assert_matches_echelon(W3, gens, 2)
    assert piece.dim == 0
    # without the kill the cycle is consistent and spans one class
    piece = _assert_matches_echelon(W3, gens[:3], 2)
    assert piece.basis_monomials == [(0, 0, 2)]
    assert piece.nf_exps((2, 0, 0)) == {0: F(4)}


@st.composite
def binomial_generators(draw):
    weights = draw(st.sampled_from([
        [F(1, 3)] * 3, [F(1, 4)] * 2, [F(1, 5), F(1, 5), F(2, 5)],
        [F(1, 6), F(1, 3), F(1, 2)]]))
    ws = WeightSystem(weights)
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        gdeg = draw(st.integers(1, max(ws.scaled) + 1))
        monos = ws.monomials(gdeg)
        if not monos:
            continue
        size = min(draw(st.sampled_from([1, 2, 2, 2])), len(monos))
        picked = draw(st.lists(st.sampled_from(monos), min_size=size,
                               max_size=size, unique=True))
        coeffs = draw(st.lists(st.sampled_from([1, -1, 2, -3, 5]),
                               min_size=len(picked), max_size=len(picked)))
        gens.append(XPoly(ws.nvars, dict(zip(picked, map(F, coeffs)))))
    sdeg = draw(st.integers(0, 3 * max(ws.scaled) + 2))
    return ws, gens, sdeg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(binomial_generators())
@example((W3, [_gen((X, 1), (Y, -2)), _gen((X, 1), (Y, -3)),
               _gen(((0, 0, 1), 1))], 3))
@example((W3, [_gen((X, 1), (Y, 1)), _gen((Y, 1), (Z, 1)),
               _gen((X, 1), (Z, 1)), _gen(((0, 0, 2), 4)),
               _gen((X, 2), (Z, -1))], 3))
def test_union_find_matches_echelon(case):
    _assert_matches_echelon(*case)


def test_h2_generation_matches_brute_force_products():
    """Codimensions against the span of every q-fold product of degree-1
    basis monomials.  On the quintic, degree 2 reaches full rank before
    its last product and degree 3 still has to be spanned from it."""
    A = build_jacobi(*fermat(5, 5))
    L = A.ws.scale
    deg1 = A.piece(L).basis_monomials
    want = {}
    for q in range(2, A.top_scaled() // L + 1):
        piece = A.piece(q * L)
        ech = Echelon()
        for ms in combinations_with_replacement(deg1, q):
            ech.insert(piece.nf_exps(tuple(map(sum, zip(*ms)))))
        want[q] = A.dim_scaled(q * L) - ech.rank
    assert h2_generation_check(A)["codimensions"] == want == {2: 0, 3: 0}


def test_series_echelon_defers_rows_without_unit_entry():
    t = TruncSeries.var(("t",), 2, "t")
    one = TruncSeries.one(("t",), 2)
    # t*(e0 + e1) has no unit entry, but e0 and e1 come in later
    ech = _SeriesEchelon()
    assert not ech.insert({0: t, 1: t})
    assert ech.insert({0: one}) and ech.insert({1: one})
    ech.close()
    assert sorted(ech.rows) == [0, 1]
    # t*e0 is not in the span of e1: the family is not flat
    ech = _SeriesEchelon()
    assert not ech.insert({0: t})
    assert ech.insert({1: one})
    with pytest.raises(AssertionError, match="family is not flat"):
        ech.close()


# ---------------------------------------------------------------------------
# the indexed family echelon against the row-scan oracle
# ---------------------------------------------------------------------------

def _vec_json(vec):
    return json.dumps({str(c): x.to_json() for c, x in vec.items()},
                      sort_keys=True)


def _rows_json(rows):
    return json.dumps({str(p): _vec_json(r) for p, r in rows.items()},
                      sort_keys=True)


@st.composite
def series_rows(draw):
    vars = draw(st.sampled_from([("t",), ("t", "u")]))
    order = draw(st.integers(0, 2))
    exps = [e for e in product(range(order + 1), repeat=len(vars))
            if sum(e) <= order]
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1,
                             max_size=ncols, unique=True))
        rows.append({c: TruncSeries(vars, order, draw(st.dictionaries(
            st.sampled_from(exps), st.sampled_from([1, -1, 1, 2]),
            max_size=3))) for c in cols})
    return vars, order, ncols, rows


T1 = TruncSeries.var(("t",), 1, "t")
ONE1 = TruncSeries.one(("t",), 1)
T2, U2 = (TruncSeries.var(("t", "u"), 2, v) for v in ("t", "u"))
ONE2 = TruncSeries.one(("t", "u"), 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_rows())
# back-substitution cancels column 0 of the first row
@example((("t",), 1, 4, [{0: ONE1, 1: ONE1, 3: ONE1}, {1: ONE1, 0: ONE1}]))
# f * x vanishes by truncation: t * t at order 1, t*u * t at order 2
@example((("t",), 1, 3, [{2: ONE1, 1: T1}, {1: ONE1, 0: T1}]))
@example((("t", "u"), 2, 4, [{3: ONE2, 1: T2 * U2}, {1: ONE2, 0: T2},
                             {0: U2, 2: T2}]))
# deferred rows: one becomes redundant, one does not
@example((("t",), 1, 2, [{0: T1, 1: T1}, {0: ONE1}, {1: ONE1}]))
@example((("t",), 1, 2, [{0: T1}, {1: ONE1}]))
def test_series_echelon_matches_row_scan(case):
    vars, order, ncols, rows = case
    ech, ref = _SeriesEchelon(), ReferenceSeriesEchelon()
    for r in rows:
        assert ech.insert(r) == ref.insert(r)
    assert _rows_json(ech.rows) == _rows_json(ref.rows)
    assert ([_vec_json(v) for v in ech.deferred]
            == [_vec_json(v) for v in ref.deferred])
    # the occurrence index names exactly the rows holding each column
    for c in range(ncols):
        assert ech._occ.get(c, set()) == {
            p for p, r in ech.rows.items() if c in r and c != p}
    one = TruncSeries.one(vars, order)
    for vec in [{c: one} for c in range(ncols)] + rows:
        assert _vec_json(ech.reduce(vec)) == _vec_json(ref.reduce(vec))
    raised = []
    for e in (ech, ref):
        try:
            e.close()
            raised.append(False)
        except AssertionError:
            raised.append(True)
    assert raised[0] == raised[1]


# ---------------------------------------------------------------------------
# packed monomial keys against a brute-force enumeration
# ---------------------------------------------------------------------------

KEY_WEIGHTS = [[F(1, 2)], [F(2, 5)], [F(2, 5), F(1, 5)], [F(1, 3)] * 3,
               [F(1, 6), F(1, 3), F(1, 2)], [F(2, 7), F(3, 7), F(1, 7)],
               [F(1, 4), F(1, 6), F(1, 2), F(1, 3)],
               [F(1, 9), F(1, 9), F(2, 9), F(2, 9)]]


def _brute_monomials(ws, sdeg):
    """Exponent tuples of scaled degree sdeg in lex order: every tuple of
    the first n-1 exponents, the last one solved for."""
    *head, last = ws.scaled
    out = []
    for e in product(*(range(max(sdeg, -1) // d + 1) for d in head)):
        rest = sdeg - sum(a * d for a, d in zip(e, head))
        if rest >= 0 and rest % last == 0:
            out.append(e + (rest // last,))
    return sorted(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_monomial_keys_match_brute_force(data):
    ws = WeightSystem(data.draw(st.sampled_from(KEY_WEIGHTS)))
    top = ws.socle_scaled() + max(ws.scaled)
    # below zero, zero, inside the graded range and above the socle
    sdeg = data.draw(st.sampled_from([-2, -1, 0, top + 1, top + 3])
                     | st.integers(0, top + 3))
    want = _brute_monomials(ws, sdeg)
    assert ws.monomials(sdeg) == want
    st_ = ws.key_strides(max(sdeg, 0) + data.draw(st.integers(0, 3)))
    keys = ws.monomial_keys(sdeg, st_)
    assert keys == [pack_key(e, st_) for e in want]
    assert [unpack_key(k, st_) for k in keys] == want


def test_monomial_keys_codim_one_weights():
    # six variables, the last two of weight 2/9: the unrolled pair needs
    # an even remainder
    f, ws = codim_one_polynomial()
    for sdeg in (0, 1, 7, 8, 13):
        assert ws.monomials(sdeg) == _brute_monomials(ws, sdeg)


def _assert_basis_round_trips(piece):
    st_ = piece.strides
    assert piece.monomials == [unpack_key(k, st_) for k in piece.keys]
    assert piece.monomials == sorted(piece.monomials)
    for pos, mono in enumerate(piece.basis_monomials):
        assert pack_key(mono, st_) == piece.basis_keys[pos]
        assert piece.nf_exps(mono) == {pos: F(1)}


def test_basis_monomials_round_trip_through_nf_exps():
    # x^2 + y^3 + z^6: unequal weights 1/2, 1/3, 1/6
    brieskorn = (XPoly(3, {(2, 0, 0): F(1), (0, 3, 0): F(1),
                           (0, 0, 6): F(1)}),
                 WeightSystem([F(1, 2), F(1, 3), F(1, 6)]))
    for f, ws in (fermat(3, 4), brieskorn, THREE_TERM_CUBIC):
        A = build_jacobi(f, ws)
        for s in range(A.top_scaled() + 1):
            _assert_basis_round_trips(A.piece(s))


# ---------------------------------------------------------------------------
# the sparse-echelon engine (some generator has three or more terms)
# ---------------------------------------------------------------------------

# x^3 + y^3 + z^3 + x^2 y + x z^2: d/dx = 3x^2 + 2xy + z^2
THREE_TERM_CUBIC = (
    XPoly(3, {(3, 0, 0): F(1), (0, 3, 0): F(1), (0, 0, 3): F(1),
              (2, 1, 0): F(1), (1, 0, 2): F(1)}),
    W3)
# x^4 + y^4 + z^4 + w^4 + x^3 y + x^2 z^2: d/dx = 4x^3 + 3x^2 y + 2x z^2
THREE_TERM_QUARTIC = (
    XPoly(4, {(4, 0, 0, 0): F(1), (0, 4, 0, 0): F(1), (0, 0, 4, 0): F(1),
              (0, 0, 0, 4): F(1), (3, 1, 0, 0): F(1), (2, 0, 2, 0): F(1)}),
    WeightSystem.straight(4, 4))


def _assert_echelon_engine_matches(ws, gens, sdeg):
    piece = GradedPiece(ws, gens, sdeg)
    assert piece._uf is None            # the sparse-echelon engine ran
    dim, basis, nfs = _echelon_reference(ws, gens, sdeg)
    assert (piece.dim, piece.basis) == (dim, basis)
    for i, key in enumerate(piece.keys):
        assert piece.nf_index(i) == nfs[i]
        assert piece.nf_key(key, F(-3, 2)) == {
            k: v * F(-3, 2) for k, v in nfs[i].items()}
    _assert_basis_round_trips(piece)


@st.composite
def trinomial_generators(draw):
    ws = WeightSystem(draw(st.sampled_from([
        [F(1, 3)] * 3, [F(1, 5), F(1, 5), F(2, 5)],
        [F(1, 6), F(1, 3), F(1, 2)], [F(1, 4)] * 3])))
    top = max(ws.scaled)
    wide = [d for d in range(1, 2 * top + 2) if len(ws.monomials(d)) >= 3]
    gens, first = [], draw(st.sampled_from(wide))
    for k in range(draw(st.integers(1, 4))):
        gdeg = first if k == 0 else draw(st.integers(1, top + 1))
        monos = ws.monomials(gdeg)
        if not monos:
            continue
        size = 3 if k == 0 else draw(st.sampled_from([1, 2, 3, 4]))
        size = min(size, len(monos))
        picked = draw(st.lists(st.sampled_from(monos), min_size=size,
                               max_size=size, unique=True))
        coeffs = draw(st.lists(st.sampled_from([1, -1, 2, -3, 5]),
                               min_size=size, max_size=size))
        gens.append(XPoly(ws.nvars, dict(zip(picked, map(F, coeffs)))))
    # at or above the three-term generator's degree, so it takes part
    sdeg = draw(st.integers(first, first + 2 * top + 1))
    return ws, gens, sdeg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trinomial_generators())
@example((W3, [_gen((X, 1), (Y, 1), (Z, 1))], 1))
@example((W3, [_gen((X, 1), (Y, -1), (Z, 2)), _gen((X, 1), (Y, -1)),
               _gen(((0, 2, 0), 1))], 3))
def test_echelon_engine_matches_reference(case):
    _assert_echelon_engine_matches(*case)


def test_build_jacobi_with_three_term_partials():
    """The pieces at and above the partials' degree take the echelon
    engine; ``piece()`` checks each against the Hilbert series, and the
    certificate runs on echelon targets."""
    A = build_jacobi(*THREE_TERM_CUBIC)
    assert A.milnor == 8
    assert [A.piece(s).dim for s in range(4)] == [1, 3, 3, 1]
    assert [A.piece(s)._uf is None for s in range(4)] == [False, False,
                                                          True, True]
    A = build_jacobi(*THREE_TERM_QUARTIC)
    assert A.milnor == 81 == (4 - 1) ** 4
    L = A.ws.scale
    assert all(A.piece(s)._uf is None for s in range(3, A.top_scaled() + 1))
    # h2 on an echelon target against every product of degree-1 monomials
    deg1 = A.piece(L).basis_monomials
    piece = A.piece(2 * L)
    ech = Echelon()
    for ms in combinations_with_replacement(deg1, 2):
        ech.insert(piece.nf_exps(tuple(map(sum, zip(*ms)))))
    assert h2_generation_check(A)["codimensions"] == {
        2: A.dim_scaled(2 * L) - ech.rank} == {2: 0}
