import random
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobkit.jacobi import (GradedPiece, JacobiFamily, NotIsolatedError,
                            RfClass, WeightSystem, XPoly, _ideal_rows,
                            _binomial_component, _packed_partials,
                            build_jacobi, h2_generation_check,
                            jacobian_piece, multiply_rf, pack_key,
                            unpack_key)
from frobkit.linalg import Echelon, mat_rank
from helpers import (HESSE, SOCLE_BASES, codim_one_polynomial, fermat,
                     fermat_cubic_algebra, reference_family_entries,
                     reference_h2_generation_check,
                     reference_isolated_witness, socle_draws)

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


def test_jacobian_piece_rejects_variable_count_mismatch():
    two = XPoly(2, {(3, 0): F(1), (0, 3): F(1)})
    three = XPoly(3, {(3, 0, 0): F(1), (0, 3, 0): F(1), (0, 0, 3): F(1)})
    for f, ws in ((two, W3), (three, WeightSystem.straight(2, 3))):
        with pytest.raises(ValueError, match="^variable count mismatch$"):
            jacobian_piece(f, ws, 1)


def test_int_coefficients_are_stored_as_fractions():
    # x^3 + y^3 + x^2 y: the binomial ratios of the union-find engine are
    # quotients of coefficients, floats if the ints stayed ints
    ws = WeightSystem.straight(2, 3)
    exps = [(3, 0), (0, 3), (2, 1)]
    A_int = build_jacobi(XPoly(2, dict.fromkeys(exps, 1)), ws)
    A_frac = build_jacobi(XPoly(2, dict.fromkeys(exps, F(1))), ws)
    assert all(type(c) is F for c in A_int.f.terms.values())
    assert A_int.piece(2)._uf[1:] == [(0, F(9, 2)), (0, F(-3))]
    for s in range(A_int.top_scaled() + 1):
        got, want = A_int.piece(s), A_frac.piece(s)
        assert got.basis == want.basis
        assert [got.nf_key(k) for k in got.keys] == [
            want.nf_key(k) for k in want.keys]
        assert all(type(c) is F for k in got.keys
                   for c in got.nf_key(k).values())
    with pytest.raises(ValueError, match="not exact"):
        XPoly(2, {(3, 0): 1.5})


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
    assert rep == reference_h2_generation_check(A)
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


# x^6 + y^6 + x y z^2: B = 10, and at scaled degree 12 both x and y are
# covered (12 - 1 > B), leaving z^6 with every partial zero at x = y = 0
COVERED_WITNESS = (XPoly(3, {(6, 0, 0): F(1), (0, 6, 0): F(1),
                             (1, 1, 2): F(1)}),
                   WeightSystem([F(1, 6), F(1, 6), F(1, 3)]))
MIXED_WEIGHTS = [
    (F(1, 6), F(1, 6), F(1, 3)), (F(1, 8), F(1, 4), F(1, 2)),
    (F(1, 9), F(2, 9), F(1, 3)), (F(1, 6), F(1, 3), F(1, 2), F(1, 2))]


@st.composite
def mixed_weight_polynomials(draw):
    ws = WeightSystem(draw(st.sampled_from(MIXED_WEIGHTS)))
    monos = ws.monomials(ws.scale)
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5,
                           unique=True))
    coeffs = draw(st.lists(st.sampled_from([1, -1, 2, -3]),
                           min_size=len(picked), max_size=len(picked)))
    return XPoly(ws.nvars, dict(zip(picked, map(F, coeffs)))), ws


def _isolated_witness(f, ws):
    try:
        build_jacobi(f, ws)
    except NotIsolatedError as exc:
        return exc.degree
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mixed_weight_polynomials())
@example(COVERED_WITNESS)
def test_isolatedness_certificate_matches_full_pieces(case):
    """The certificate builds, at each degree above the socle, the piece in
    the variables not covered there; its verdict and witness degree are
    those of the full pieces."""
    f, ws = case
    partials = [f.partial(i) for i in range(ws.nvars)]
    assert _isolated_witness(f, ws) == reference_isolated_witness(ws,
                                                                  partials)


BINOMIAL_WEIGHTS = [
    (F(1, 3), F(1, 3)), (F(1, 4), F(1, 4)), (F(1, 5), F(2, 5)),
    (F(1, 3),) * 3, (F(1, 6), F(1, 6), F(1, 3)), (F(1, 8), F(1, 4), F(1, 2)),
    (F(1, 9), F(2, 9), F(1, 3)), (F(1, 6), F(1, 3), F(1, 2))]


@st.composite
def binomial_polynomials(draw):
    """f with every partial of at most two terms: the drawn pure powers,
    then drawn monomials, each kept while no variable lies in more than two
    kept terms (x_i in a term is one term of dF/dx_i).  Dropping a pure
    power is the common way to a non-isolated draw."""
    ws = WeightSystem(draw(st.sampled_from(BINOMIAL_WEIGHTS)))
    L, n = ws.scale, ws.nvars
    pure = [tuple(L // d if k == i else 0 for k in range(n))
            for i, d in enumerate(ws.scaled) if L % d == 0]
    kept = [m for m in pure if draw(st.integers(0, 3))]
    kept += draw(st.lists(st.sampled_from(ws.monomials(L)), min_size=1,
                          max_size=4))
    terms: dict = {}
    for m in kept:
        if m not in terms and all(
                sum(e[k] > 0 for e in terms) < 2 for k in range(n) if m[k]):
            terms[m] = F(draw(st.sampled_from([1, -1, 2, -3])))
    return XPoly(n, terms), ws


# (x + z)(x^2 - xz + z^2 + y^2): singular along the curve where both
# factors vanish, and x^4 survives in a nine-monomial component whose
# multipliers are not all +-1
TWO_COMPONENTS = (XPoly(3, {(3, 0, 0): F(1), (0, 0, 3): F(1),
                            (1, 2, 0): F(1), (0, 2, 1): F(1)}),
                  WeightSystem([F(1, 3)] * 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(binomial_polynomials())
@example(COVERED_WITNESS)
@example(TWO_COMPONENTS)
def test_pure_power_certificate_matches_full_pieces(case):
    """Over binomial partials the certificate first searches the component
    of each pure power x_i^N_i.  The verdict and witness degree are those of
    the full pieces, and each component is the one the union-find engine
    builds at degree N_i D_i: absent when the piece kills x_i^N_i, else the
    same monomials with the same multipliers."""
    f, ws = case
    partials = [f.partial(i) for i in range(ws.nvars)]
    assert _isolated_witness(f, ws) == reference_isolated_witness(ws,
                                                                  partials)
    B = ws.socle_scaled()
    rows = [list(p.terms.items()) for p in partials if p.terms]
    for i, d in enumerate(ws.scaled):
        start = tuple(B // d + 1 if k == i else 0 for k in range(ws.nvars))
        comp = _binomial_component(rows, start)
        piece = GradedPiece(ws, partials, (B // d + 1) * d)
        table = piece._uf
        entry = table[piece.index[pack_key(start, piece.strides)]]
        if comp is None:
            assert entry is None
            continue
        assert entry is not None
        pos, c0 = entry
        assert comp == {unpack_key(piece.keys[j], piece.strides): e[1] / c0
                        for j, e in enumerate(table)
                        if e is not None and e[0] == pos}


def _count_pieces(monkeypatch):
    built = []
    init = GradedPiece.__init__

    def counting(self, *args, **kwargs):
        built.append(args[2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedPiece, "__init__", counting)
    return built


# the D_4 singularity x^2 y + y^3: x^2 = -3 y^2 spans the socle, so only the
# power x^3 above it lies in J
D4 = (XPoly(2, {(2, 1): F(1), (0, 3): F(1)}), WeightSystem.straight(2, 3))


@pytest.mark.parametrize("case", [codim_one_polynomial(), fermat(5, 5), D4],
                         ids=["codim-one", "fermat-quintic", "D4"])
def test_isolated_binomial_input_builds_no_piece(case, monkeypatch):
    built = _count_pieces(monkeypatch)
    build_jacobi(*case)
    assert built == []


def test_covered_witness_falls_back_to_pieces(monkeypatch):
    # x^11 and y^11 lie in J and z^6 does not, so the degree-by-degree
    # certificate runs and finds the witness at scaled degree 12
    built = _count_pieces(monkeypatch)
    with pytest.raises(NotIsolatedError) as err:
        build_jacobi(*COVERED_WITNESS)
    assert err.value.degree == 2 and built == [11, 6]


def test_three_term_partial_takes_the_piece_certificate(monkeypatch):
    # x^8 + y^4 + z^2 + x^4 y^2 + x^2 y^3: dF/dx has three terms, so the
    # pieces above the socle B = 10 are certified; at 12 only y and z are
    # free, and at 13 and 14 only z, which has neither degree
    ws = WeightSystem([F(1, 8), F(1, 4), F(1, 2)])
    f = XPoly(3, dict.fromkeys([(8, 0, 0), (0, 4, 0), (0, 0, 2), (4, 2, 0),
                                (2, 3, 0)], F(1)))
    built = _count_pieces(monkeypatch)
    assert build_jacobi(f, ws).milnor == 21 and built == [11, 6]


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
        assert piece.nf_key(key) == nfs[i]
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


# an echelon piece at degree 2 whose span gains rank before its last unit
# row is multiplied out, so later unit rows reduce against the echelon
LATE_UNIT_ROWS = (
    XPoly(4, {(6, 0, 0, 0): F(1), (0, 6, 0, 0): F(1), (0, 0, 6, 0): F(1),
              (0, 0, 0, 3): F(1), (1, 0, 3, 1): F(1), (2, 0, 4, 0): F(-1),
              (4, 0, 2, 0): F(1)}),
    WeightSystem([F(1, 6), F(1, 6), F(1, 6), F(1, 3)]))


# x^5 + y^7 + z^8: no degree-1 classes, and integer degrees up to 2
NO_DEGREE_ONE = (
    XPoly(3, {(5, 0, 0): F(1), (0, 7, 0): F(1), (0, 0, 8): F(1)}),
    WeightSystem([F(1, 5), F(1, 7), F(1, 8)]))


def test_h2_generation_matches_frozen_per_product_loop():
    """The whole-row pass over a union-find target and the general loop
    over an echelon target give the span of one product at a time."""
    for f, ws in (fermat(4, 4), THREE_TERM_QUARTIC, LATE_UNIT_ROWS,
                  NO_DEGREE_ONE):
        A = build_jacobi(f, ws)
        assert h2_generation_check(A) == reference_h2_generation_check(A)
    A = build_jacobi(*NO_DEGREE_ONE)
    assert A.dim_scaled(A.ws.scale) == 0 and A.top_scaled() // A.ws.scale == 2
    A = build_jacobi(*fermat(4, 4))
    assert A.piece(2 * A.ws.scale)._uf is not None
    A = build_jacobi(*THREE_TERM_QUARTIC)
    assert A.piece(2 * A.ws.scale)._uf is None


def test_h2_generation_matches_frozen_check_on_socle_draws():
    """The socle rule against the frozen check, which builds the socle
    piece: seeded algebras with their socle at integer degree 2 or off the
    grid, over both engines, and the codim-one polynomial, whose socle at
    degree 4 lies above a nonzero codimension."""
    seen, nonzero = set(), False
    for A in chain([build_jacobi(*codim_one_polynomial())],
                   socle_draws(30, 16)):
        rep = h2_generation_check(A)
        assert rep == reference_h2_generation_check(A)
        nonzero |= any(rep["codimensions"].values())
        L = A.ws.scale
        seen.add((A.top_scaled() % L == 0, A.piece(L)._uf is None))
    assert nonzero and seen == set(product((False, True), repeat=2))


# x^6 + y^4 + z^3 + u^3 + v^3: the socle at 13/6, and the one-dimensional
# piece at the top integer degree 2 is built
OFF_GRID_SOCLE = (XPoly(5, dict.fromkeys(SOCLE_BASES[4][1], F(1))),
                  WeightSystem(SOCLE_BASES[4][0]))


@pytest.mark.parametrize("case, built", [
    (codim_one_polynomial(), {9, 18, 27}), (fermat(5, 5), {5, 10}),
    (OFF_GRID_SOCLE, {12, 24})], ids=["codim-one", "fermat-quintic",
                                      "off-grid"])
def test_h2_generation_builds_no_socle_piece(case, built):
    """The check builds the integer pieces from degree 1 up to the top
    integer degree, except the socle."""
    A = build_jacobi(*case)
    h2_generation_check(A)
    assert set(A._pieces) == built and A.top_scaled() not in built


def test_socle_pairing_is_perfect():
    """The fact the socle rule reads, on every piece: the Hilbert series is
    palindromic with top coefficient 1, and the products of the basis
    monomials of R_s and R_(top-s) into the socle have full rank."""
    engines = set()
    for A in socle_draws(31, 12):
        top = A.top_scaled()
        hilbert = [A.dim_scaled(s) for s in range(top + 1)]
        assert hilbert == hilbert[::-1] and hilbert[-1] == 1
        socle = A.piece(top)
        for s in range(top + 1):
            low, high = A.piece(s).basis_keys, A.piece(top - s).basis_keys
            products = [[socle.nf_key(a + b).get(0, F(0)) for b in high]
                        for a in low]
            assert mat_rank(products) == len(low)
        engines.add(socle._uf is None)
    assert engines == {False, True}


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
        assert piece.nf_key(key) == nfs[i]
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


@pytest.mark.parametrize("case, echelon", [
    (fermat(4, 4), False), (THREE_TERM_QUARTIC, True)],
    ids=["fermat-quartic", "three-term-quartic"])
def test_family_at_zero_is_the_algebra(case, echelon):
    """At t = 0 every multiplication matrix of the family is the algebra's:
    the family's ideal rows over series and the algebra's over Fractions
    (union-find or echelon) span the same pieces."""
    A = build_jacobi(*case)
    L = A.ws.scale
    assert (A.piece(L)._uf is None) == echelon
    fam = JacobiFamily(A, tuple("t%d" % a for a in range(A.dim_scaled(L))),
                       order=1)
    for a, m in enumerate(fam.deg1_monomials):
        m_a = A.class_of_monomial(m)
        for q in range(A.top_scaled() // L):
            entries = fam.mult_entries(a, q * L)
            for j in range(A.dim_scaled(q * L)):
                col = {i: c for (i, k), v in entries.items()
                       if k == j and (c := v.constant_term)}
                e_j = RfClass(q * L, {j: F(1)})
                assert col == A.multiply(m_a, e_j).coords


# ---------------------------------------------------------------------------
# family normal forms lifted from the cofactors, against the series echelon
# ---------------------------------------------------------------------------

# x^3 y + y^4: a one-term partial and a binomial one, so killed components
# reach their dead monomials through binomial rows
CHAIN_QUARTIC = (XPoly(2, {(3, 1): F(1), (0, 4): F(1)}),
                 WeightSystem.straight(2, 4))
# x^4 + y^4 + z^4 + x^2 y z: binomial partials, with inconsistent cycles
BINOMIAL_QUARTIC = (XPoly(3, {(4, 0, 0): F(1), (0, 4, 0): F(1),
                              (0, 0, 4): F(1), (2, 1, 1): F(1)}),
                    WeightSystem.straight(3, 4))


@pytest.mark.parametrize("case, deep_sources", [
    (fermat(3, 4), None), ((HESSE, W3), None), (BINOMIAL_QUARTIC, None),
    (THREE_TERM_QUARTIC, 1)],
    ids=["fermat-quartic", "hesse-cubic", "binomial-quartic",
         "three-term-quartic"])
def test_family_lift_matches_series_echelon(case, deep_sources):
    """Every multiplication matrix of the family at orders 0-3, from every
    source piece, is the one the series echelon gives: on every ideal
    monomial dead (the Fermat quartic), on binomial rows with inconsistent
    cycles (the Hesse cubic and a binomial quartic) and on echelon pieces
    (the three-term quartic).  The series echelon of the three-term
    quartic takes about a minute at order 3, so its orders 2 and 3 stop
    at the first ``deep_sources`` source pieces."""
    A = build_jacobi(*case)
    L = A.ws.scale
    t_vars = tuple("t%d" % a for a in range(A.dim_scaled(L)))
    for order in range(4):
        sources = range(A.top_scaled() + 1 - L)
        if order >= 2 and deep_sources is not None:
            sources = sources[:deep_sources]
        fam = JacobiFamily(A, t_vars, order)
        ref = reference_family_entries(A, t_vars, order)
        for a in range(len(t_vars)):
            for s in sources:
                assert fam.mult_entries(a, s) == ref(a, s)


def _record_kinds(piece, ws, gens):
    """The case each monomial of the piece stands in: "basis", "echelon"
    (a piece built with the sparse echelon) or, on a union-find piece,
    the kind of its component under the binomial rows: "kill-free" (it
    holds a basis monomial), "killed" (a one-term row kills one of its
    monomials) or "cycle" (an inconsistent cycle puts it in the ideal)."""
    n = len(piece.keys)
    if piece._uf is None:
        return ["basis" if m in piece._basis_pos else "echelon"
                for m in range(n)]
    adj, dead = [[] for _ in range(n)], set()
    packed = _packed_partials(ws, gens, piece.sdeg, piece.strides)
    for _, row in _ideal_rows(packed, piece.index):
        if len(row) == 1:
            dead.update(row)
        else:
            a, b = row
            adj[a].append(b)
            adj[b].append(a)
    kinds = [None] * n
    for b in range(n):
        if kinds[b] is not None:
            continue
        comp, stack = {b}, [b]
        while stack:
            for v in adj[stack.pop()]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        kind = ("kill-free" if piece._uf[b] is not None
                else "killed" if comp & dead else "cycle")
        for m in comp:
            kinds[m] = kind
    for b in piece.basis:
        kinds[b] = "basis"
    return kinds


def _assert_cofactors(piece, ws, gens):
    """m - NF(m) = sum_i h_i gens[i] for every monomial m of the piece,
    both sides expanded as polynomials; returns the kinds of monomial
    met."""
    cof, st_ = piece.cofactors(), piece.strides
    for m, key in enumerate(piece.keys):
        want = {unpack_key(key, st_): F(1)}
        for pos, c in piece.nf_key(key).items():
            e = unpack_key(piece.keys[piece.basis[pos]], st_)
            want[e] = want.get(e, 0) - c
        got = {}
        for c, g, i in cof[m] or ():
            ge = unpack_key(g, st_)
            for e, d in gens[i].terms.items():
                k = tuple(a + b for a, b in zip(ge, e))
                got[k] = got.get(k, 0) + c * d
        assert ({e: c for e, c in got.items() if c}
                == {e: c for e, c in want.items() if c})
    return set(_record_kinds(piece, ws, gens))


def test_cofactors_cover_every_kind_of_record():
    """One elimination with tagged origins gives the cofactors of every
    piece: an echelon piece and, on a union-find piece, kill-free,
    killed and cycle components alike."""
    kinds = set()
    for f, ws in (fermat(3, 4), (HESSE, W3), CHAIN_QUARTIC,
                  BINOMIAL_QUARTIC, THREE_TERM_CUBIC):
        A = build_jacobi(f, ws)
        for s in range(A.top_scaled() + 1):
            kinds |= _assert_cofactors(A.piece(s), ws, A.partials)
    assert kinds == {"basis", "kill-free", "killed", "cycle", "echelon"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(binomial_generators(), trinomial_generators()))
@example((W3, [_gen((X, 1), (Y, -2)), _gen((X, 1), (Y, -3))], 2))
@example((W3, [_gen((X, 1), (Y, -1)), _gen((Y, 1), (Z, -2)),
               _gen((X, 1), (Z, -2)), _gen(((0, 2, 0), 1))], 2))
def test_cofactors_expand_to_the_reduction(case):
    ws, gens, sdeg = case
    _assert_cofactors(GradedPiece(ws, gens, sdeg), ws, gens)


def test_h2_check_and_order_zero_family_compute_no_cofactors():
    """The cofactors are lazy: building the algebra, its h2 check and a
    family at order 0 never ask for them."""
    for case in (fermat(4, 4), (HESSE, W3), THREE_TERM_QUARTIC):
        A = build_jacobi(*case)
        h2_generation_check(A)
        L = A.ws.scale
        fam = JacobiFamily(
            A, tuple("t%d" % a for a in range(A.dim_scaled(L))), 0)
        for a in range(A.dim_scaled(L)):
            for s in range(A.top_scaled() + 1 - L):
                fam.mult_entries(a, s)
        assert A._pieces and all(p._cof is None for p in A._pieces.values())


def test_nf_exps_refuses_a_tuple_outside_the_piece():
    # strides (1, 3) at degree 2: (4, 0) packs to the key of x*y, (1, 1)
    quartic = XPoly(2, {(4, 0): F(1), (0, 4): F(1)})
    ws = WeightSystem.straight(2, 4)
    piece = GradedPiece(ws, [quartic.partial(i) for i in range(2)],
                        ws.to_scaled(F(1, 2)))
    assert piece.nf_exps((1, 1)) == {1: F(1)}
    for exps in ((4, 0), (2, 0, 0), (3, -1), (0, 1)):
        with pytest.raises(ValueError, match="not of scaled degree"):
            piece.nf_exps(exps)


@st.composite
def scaled_polynomials(draw):
    """A Fermat polynomial in 2-3 variables plus one or two monomials of
    its degree (so its partials have two terms, or three where both extra
    monomials reach one partial), and a nonzero constant."""
    ws = WeightSystem(draw(st.sampled_from([
        (F(1, 3),) * 2, (F(1, 4),) * 2, (F(1, 3),) * 3,
        (F(1, 6), F(1, 6), F(1, 3)), (F(1, 4), F(1, 4), F(1, 2))])))
    n = ws.nvars
    fermat_terms = [tuple(int(1 / w) if i == j else 0 for i in range(n))
                    for j, w in enumerate(ws.weights)]
    extra = draw(st.lists(st.sampled_from(
        [m for m in ws.monomials(ws.scale) if m not in fermat_terms]),
        min_size=1, max_size=2, unique=True))
    coeffs = draw(st.lists(st.sampled_from([1, -1, 2, -3]),
                           min_size=n + len(extra), max_size=n + len(extra)))
    f = XPoly(n, dict(zip(fermat_terms + extra, map(F, coeffs))))
    c = draw(st.sampled_from([F(-7, 3), F(2), F(-1), F(1, 5)]))
    return f, ws, c


@settings(max_examples=20, deadline=None, derandomize=True)
@given(scaled_polynomials())
@example((*THREE_TERM_CUBIC, F(-7, 3)))
def test_scaling_f_keeps_the_jacobi_algebra(case):
    """c f has the ideal of partials of f for c != 0: the same report,
    the same basis and normal forms in every piece and the same h2
    codimensions."""
    f, ws, c = case
    cf = XPoly(f.nvars, {e: c * v for e, v in f.terms.items()})
    try:
        A = build_jacobi(f, ws)
    except NotIsolatedError as exc:
        with pytest.raises(NotIsolatedError) as got:
            build_jacobi(cf, ws)
        assert got.value.degree == exc.degree
        return
    B = build_jacobi(cf, ws)
    assert B.report() == A.report()
    for s in range(A.top_scaled() + 1):
        a, b = A.piece(s), B.piece(s)
        assert b.basis_keys == a.basis_keys
        assert [b.nf_key(k) for k in b.keys] == [a.nf_key(k) for k in a.keys]
    assert h2_generation_check(B) == h2_generation_check(A)


def _straight_draws(seed, count):
    """Seeded straight-weight polynomials in 3-5 variables of degree 3 or
    4: a Fermat polynomial with random coefficients plus one or two random
    monomials of its degree."""
    rng = random.Random(seed)
    for _ in range(count):
        n, d = rng.choice([3, 4, 5]), rng.choice([3, 4])
        ws = WeightSystem.straight(n, d)
        terms = {tuple(d * (i == j) for i in range(n)):
                 F(rng.choice([1, -1, 2])) for j in range(n)}
        for m in rng.sample(ws.monomials(ws.scale), rng.randint(1, 2)):
            terms[m] = F(rng.choice([1, -1, 2, -3]))
        yield XPoly(n, terms), ws


def test_generation_holds_for_straight_weights():
    """Every monomial of degree q*d is a product of q monomials of degree
    d, so the degree-1 classes generate every integer-degree piece; this
    is why ``jacobi_to_filtration`` does not run the check."""
    isolated, echelon_spans = 0, set()
    for f, ws in _straight_draws(26, 30):
        try:
            A = build_jacobi(f, ws)
        except NotIsolatedError:
            continue
        isolated += 1
        gen = h2_generation_check(A)
        assert gen["passes"], f.terms
        if 2 in gen["codimensions"]:
            echelon_spans.add(A.piece(2 * ws.scale)._uf is None)
    # the draws reach degree 2 with both kinds of span
    assert isolated >= 25 and echelon_spans == {False, True}


@pytest.mark.parametrize("call, message", [
    (lambda: WeightSystem([]), "need at least one weight"),
    (lambda: W3.to_scaled(F(1, 2)), "degree 1/2 is not on the weight grid"),
    (lambda: JacobiFamily(fermat_cubic_algebra(), ("t1", "t2"), 1),
     "need one parameter per degree-1 basis class"),
], ids=["no-weights", "off-grid", "family-parameters"])
def test_jacobi_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_queries_off_the_grid_or_above_the_top_are_zero():
    A = fermat_cubic_algebra()
    assert A.dim_at(F(1, 2)) == 0 and A.dim_at(F(1, 3)) == 3
    built = set(A._pieces)
    # x^4 has scaled degree 4, above the socle degree 3: zero, and no
    # piece is built for it
    assert A.normal_form(XPoly(3, {(4, 0, 0): F(1)})) == RfClass(4, {})
    assert A.class_of_monomial((2, 2, 0)) == RfClass(4, {})
    assert set(A._pieces) == built


def test_sums_drop_cancelled_terms():
    x = XPoly(2, {(1, 0): F(1), (0, 1): F(2)})
    assert (x + XPoly(2, {(1, 0): F(-1)})).terms == {(0, 1): F(2)}
    piece = fermat_cubic_algebra().piece(3)
    k = piece.basis_keys[0]
    assert piece.nf_sum([(k, F(2)), (k, F(-2))]) == {}
    assert piece.nf_sum([(k, F(2)), (k, F(-1))]) == {0: F(1)}
