"""Shared fixtures: the pencil corpus, the unfolding oracles (brute force,
and the whole-series construction), frozen elimination engines, the
stage-by-stage germ recursion oracle, the frozen matrix product, the
frozen general Euler check, the frozen isolatedness certificate and h2
generation check, the frozen tuple-keyed series arithmetic, the frozen
dense flat-pairing solver and record loops, and the frozen pairing
extension check."""

import random
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, itemgetter

from frobkit import linalg
from frobkit.germ import (FrobeniusGermData, InitialData, _assert_clean,
                          _at_order, _c_matrices, _coords,
                          initial_from_filtration, invert_map,
                          potential_integrate)
from frobkit.jacobi import (GradedPiece, NotIsolatedError, WeightSystem,
                            XPoly, _ideal_rows, _packed_partials,
                            build_jacobi)
from frobkit.pencil import (ConnectionPencil, PairingMatrix,
                            flatness_residual, potential_matrix,
                            residual_report, structure_connection)
from frobkit.series import (SeriesError, SeriesMatrix, TruncSeries,
                            euler_integrate, exponent_strides, frac_to_str,
                            require_int, unpack_key)
from frobkit.structures import (FiltrationData, FrobeniusTypeStructure,
                                RejectionError, _const_to_json,
                                shift_example, filtration_to_ftype,
                                jacobi_to_filtration, violation)
from frobkit.unfold import gc_check


def F(x):
    return Fraction(x)


def consts(mat, vars, order):
    return SeriesMatrix.from_consts(mat, vars, order)


def fermat(nvars, d):
    ws = WeightSystem.straight(nvars, d)
    f = XPoly(nvars, {tuple(d if i == j else 0 for i in range(nvars)): F(1)
                      for j in range(nvars)})
    return f, ws


def fermat_cubic_algebra():
    f, ws = fermat(3, 3)
    return build_jacobi(f, ws)


# the Hesse cubic x^3 + y^3 + z^3 - 6xyz: every partial is a binomial
HESSE = XPoly(3, {(3, 0, 0): F(1), (0, 3, 0): F(1), (0, 0, 3): F(1),
                  (1, 1, 1): F(-6)})


def codim_one_polynomial():
    """The weight-(1,1,1,2,2,2)/9 polynomial with isolated singularity."""
    ws = WeightSystem([F("1/9")] * 3 + [F("2/9")] * 3)
    f = XPoly(6, {
        (9, 0, 0, 0, 0, 0): F(1), (0, 9, 0, 0, 0, 0): F(1),
        (0, 0, 9, 0, 0, 0): F(1), (1, 0, 0, 4, 0, 0): F(1),
        (0, 1, 0, 0, 4, 0): F(1), (0, 0, 1, 0, 0, 4): F(1)})
    return f, ws


# isolated polynomials with Milnor numbers 100-189: the first four have
# their socle at integer degree 2 (the chain x^6 y + y^5 z + z^5 has a
# single degree-1 class), the last two off the integer grid
SOCLE_BASES = [
    ([F("1/6")] * 3, [(6, 0, 0), (0, 6, 0), (0, 0, 6)]),
    ([F("1/3"), F("1/3"), F("1/6"), F("1/6")],
     [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6)]),
    ([F("7/50"), F("4/25"), F("1/5")], [(6, 1, 0), (0, 5, 1), (0, 0, 5)]),
    ([F("1/9"), F("2/9"), F("1/3"), F("1/3")],
     [(9, 0, 0, 0), (1, 4, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]),
    ([F("1/6"), F("1/4"), F("1/3"), F("1/3"), F("1/3")],
     [tuple(d * (i == j) for i in range(5)) for j, d in
      enumerate((6, 4, 3, 3, 3))]),
    ([F("1/4")] * 3 + [F("1/8")],
     [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 8)]),
]


def socle_draws(seed, count):
    """Seeded isolated algebras: a SOCLE_BASES polynomial with random
    coefficients plus up to two random monomials of its degree (a partial
    of three terms takes the echelon engine); draws that are not isolated
    are skipped."""
    rng = random.Random(seed)
    while count:
        weights, base = rng.choice(SOCLE_BASES)
        ws = WeightSystem(weights)
        terms = {e: F(rng.choice([1, -1, 2])) for e in base}
        for m in rng.sample(ws.monomials(ws.scale), rng.randint(0, 2)):
            terms[m] = F(rng.choice([1, -1, 2, -3]))
        try:
            algebra = build_jacobi(XPoly(ws.nvars, terms), ws)
        except NotIsolatedError:
            continue
        count -= 1
        yield algebra


def point_base_pencil(order=4):
    """The rank-2 base over a point with a regular first endomorphism and
    its weight-0 pairing."""
    U0 = consts([[0, 0], [1, 1]], (), order)
    Z = SeriesMatrix.zeros(2, 2, (), order)
    P = ConnectionPencil((), (), 2, [], [], U0, Z, Z, order)
    g = [[F(0), F(1)], [F(1), F(1)]]
    return P, g


def spanning_pencil(order=2, blocks=None):
    """Rank one over t with C = 1, U = -t and V = W = 0, held to ``order``
    with blocks at ``blocks`` (default ``order``): flat, and its t-direction
    spans the fiber, so its universal unfolding adds no direction."""
    blocks = order if blocks is None else blocks
    t = ("t",)
    Z = SeriesMatrix.zeros(1, 1, t, blocks)
    return ConnectionPencil(t, (), 1, [consts([[1]], t, blocks)], [],
                            SeriesMatrix([[-TruncSeries.var(t, blocks, "t")]]),
                            Z, Z, order)


def ladder_pencil(order=2):
    """Rank three over t with C = E_10 + E_21, V = diag(0, 1, 2) and
    U = W = 0, flat and generated from e_0, with the weight-2 pairing
    g = [[0, 0, 1], [0, 2, 0], [1, 0, 0]].  The pairing passes every base
    check of the extension, but C^T g != g C: it has a z^1 term along t."""
    t = ("t",)
    Z = SeriesMatrix.zeros(3, 3, t, order)
    P = ConnectionPencil(t, (), 3, [consts([[0, 0, 0], [1, 0, 0],
                                            [0, 1, 0]], t, order)], [],
                         Z, consts([[0, 0, 0], [0, 1, 0], [0, 0, 2]], t,
                                   order), Z, order)
    g = [[F(0), F(0), F(1)], [F(0), F(2), F(0)], [F(1), F(0), F(0)]]
    return P, PairingMatrix.constant(2, g, t, order, 4 + order)


def y_transport_pencil(order=2):
    """Rank two over one unfolding direction y, with a pole at z = 1
    (W = I): F = Nil, U = (1 + y) Nil and V = diag(-1, 1), where
    Nil e_0 = e_1, and the weight-0 pairing R_0 + R_1 z + ... + R_4 z^4,
    over the point, that solves the z-transport identities at y = 0.  W
    makes R_1 nonzero, so the y-transport moves R_0."""
    y = ("y",)
    nil = consts([[0, 0], [1, 0]], y, order)
    one_plus_y = TruncSeries(y, order, {(0,): 1, (1,): 1})
    P = ConnectionPencil((), y, 2, [], [nil], nil.scale_series(one_plus_y),
                         consts([[-1, 0], [0, 1]], y, order),
                         SeriesMatrix.identity(2, y, order), order)
    base = [[[1, -1], [-1, 0]], [[0, -1], [1, 0]], [[-1, 1], [1, -1]],
            [[0, 1], [-1, 0]], [[0, 0], [0, 1]]]
    return P, PairingMatrix(0, [consts(R, (), order) for R in base])


def rank1_log_pencil(order=4, z_extra=4):
    """Rank one with all three poles active; pairing z^2 (1 - z^2)."""
    U = consts([[F(1)]], (), order)
    V = consts([[F(1)]], (), order)
    W = consts([[F(1)]], (), order)
    P = ConnectionPencil((), (), 1, [], [], U, V, W, order)
    K = z_extra + order
    coeffs = []
    for k in range(K + 1):
        c = F(1) if k == 0 else (F(-1) if k == 2 else F(0))
        coeffs.append(consts([[c]], (), order))
    return P, PairingMatrix(2, coeffs)


def rank2_higgs_ftype(order=4):
    """The rank-2 structure over a one-dimensional base with shift Higgs
    field, half-integer spectrum and antidiagonal pairing."""
    vars = ("t",)
    C1 = consts([[0, 0], [1, 0]], vars, order)
    U = SeriesMatrix.zeros(2, 2, vars, order)
    V = [[F("1/2"), F(0)], [F(0), F("-1/2")]]
    g = [[F(0), F(1)], [F(1), F(0)]]
    return FrobeniusTypeStructure(vars, 2, [C1], U, V, g, order)


def rank3_point_ftype(order=4):
    """A rank-3 structure over a point with generation from the first
    frame vector; built as U = g^{-1} S with S symmetric."""
    g = [[F(0), F(0), F(1)], [F(0), F(1), F(0)], [F(1), F(0), F(0)]]
    # g is its own inverse; S symmetric with a generating orbit
    S = [[F(0), F(1), F(0)], [F(1), F(0), F(2)], [F(0), F(2), F(1)]]
    U = [[sum(g[i][k] * S[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    A = [[F(0), F(1), F(0)], [F(-1), F(0), F(0)], [F(0), F(0), F(0)]]
    V = [[sum(g[i][k] * A[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    FT = FrobeniusTypeStructure(
        (), 3, [], consts(U, (), order), V, g, order)
    return FT


def shift_inits(order=4, with_b2_deformed=True):
    """Initial data of the shift examples for weights 3, 4, 5."""
    one = TruncSeries.one(("t",), order)
    t = TruncSeries.var(("t",), order, "t")
    out = {
        (3, "1"): initial_from_filtration(shift_example(3, [], order=order)),
        (4, "1"): initial_from_filtration(shift_example(4, [], order=order)),
        (5, "1"): initial_from_filtration(shift_example(5, [one],
                                                      order=order)),
    }
    if with_b2_deformed:
        out[(5, "1+t")] = initial_from_filtration(
            shift_example(5, [one + t], order=order))
    return out


def shift_product_init(w1, w2, deformed=False, order=4):
    """Initial data of the product of the shift examples of weights w1 (in
    t) and w2 (in s): frame e_a (x) f_b in lex order, level p_a + q_b - 1,
    weight w1 + w2 - 2, Gamma_t = Gamma (x) 1, Gamma_s = 1 (x) Gamma' and
    pairing S (x) S'.  Its Euler degrees a + b - 1 repeat, so the
    generation solve of ``h2_reconstruct`` has several unknowns at a
    degree.  With ``deformed`` the free coefficients are 1 + (k + 1) t and
    1 + (k + 2) s."""
    Ds = []
    for w, var, lift in ((w1, "t", 1), (w2, "s", 2)):
        one = TruncSeries.one((var,), order)
        x = TruncSeries.var((var,), order, var)
        b = [one + x * (k + lift) if deformed else one
             for k in range((w - 1) // 2 - 1)]
        Ds.append(shift_example(w, b, order=order, var=var))
    D1, D2 = Ds
    vars = ("t", "s")
    n1, n2 = D1.n, D2.n
    n = n1 * n2
    gamma = [SeriesMatrix.from_sparse(n, n, vars, order, {
        (i * n2 + k, j * n2 + k): x.extend(vars)
        for (i, j), x in D1.Gamma[0].nonzero().items() for k in range(n2)})]
    gamma.append(SeriesMatrix.from_sparse(n, n, vars, order, {
        (i * n2 + k, i * n2 + l): x.extend(vars)
        for (k, l), x in D2.Gamma[0].nonzero().items() for i in range(n1)}))
    levels = [p + q - 1 for p in D1.levels for q in D2.levels]
    S = [[D1.S[i][j] * D2.S[k][l] for j in range(n1) for l in range(n2)]
         for i in range(n1) for k in range(n2)]
    return initial_from_filtration(FiltrationData(
        vars, n, w1 + w2 - 2, levels, gamma, S, order))


def cubic_init(order=4):
    D, _ = jacobi_to_filtration(fermat_cubic_algebra(), order=order)
    return initial_from_filtration(D)


def corpus(order=4, z_extra=None):
    """Named flat base pencils, each with an admissible pairing.

    z_extra controls how many spare z-coefficients the pairings carry
    beyond their certified window (the y-transport consumes one per
    degree); default is the order itself.
    """
    if z_extra is None:
        z_extra = order
    K = 4
    out = []

    P, g = point_base_pencil(order)
    out.append(("point-rank2",
                P, PairingMatrix.constant(0, g, (), order, K + z_extra)))

    P1, R1 = rank1_log_pencil(order, z_extra=K + z_extra - order)
    out.append(("rank1-three-poles", P1,
                PairingMatrix(2, R1.coeffs[:K + z_extra + 1])))

    Z1 = SeriesMatrix.zeros(1, 1, (), order)
    triv = ConnectionPencil((), (), 1, [], [], Z1,
                            consts([[F(1)]], (), order), Z1, order)
    out.append(("rank1-trivial", triv,
                PairingMatrix.constant(2, [[F(1)]], (), order,
                                       K + z_extra)))

    for (w, tag), init in sorted(shift_inits(order).items(),
                                 key=lambda kv: (kv[0][0], kv[0][1])):
        P, _ = structure_connection(init.ftype, w, z_order=K + z_extra)
        R = PairingMatrix.constant(w, init.ftype.g, init.ftype.vars, order,
                                   K + z_extra)
        out.append(("shift-w%d-b%s" % (w, tag), P, R))

    ci = cubic_init(order)
    P, _ = structure_connection(ci.ftype, ci.weight, z_order=K + z_extra)
    out.append(("fermat-cubic", P,
                PairingMatrix.constant(ci.weight, ci.ftype.g,
                                       ci.ftype.vars, order, K + z_extra)))

    F2 = rank2_higgs_ftype(order)
    P, _ = structure_connection(F2, 1)
    out.append(("rank2-higgs", P,
                PairingMatrix.constant(1, F2.g, F2.vars, order,
                                       K + z_extra)))

    F3 = rank3_point_ftype(order)
    P, _ = structure_connection(F3, 1)
    out.append(("rank3-point", P,
                PairingMatrix.constant(1, F3.g, F3.vars, order,
                                       K + z_extra)))

    for name, P, R in out:
        assert not flatness_residual(P), name
        assert gc_check(P).ok, name
    return out


# ---------------------------------------------------------------------------
# brute-force oracle for the unfolding
# ---------------------------------------------------------------------------


def _ydeg(e, nt):
    return sum(e[nt:])


def brute_force_unfold(base, y_vars, f, order):
    """Generic staged linear solve of the full flatness-plus-first-column
    system, independent of the production construction: at each y-degree
    the affine residual components are probed against unit perturbations
    of the unknown coefficients and the resulting exact linear system must
    have a unique solution.
    """
    from frobkit import linalg as la

    n = base.n
    t_vars = base.t_vars
    vars = t_vars + tuple(y_vars)
    nt = len(t_vars)
    N = order

    def blocks_to_pencil(blocks):
        m = len(t_vars)
        l = len(y_vars)
        return ConnectionPencil(
            t_vars, tuple(y_vars), n,
            blocks[:m], blocks[m:m + l],
            blocks[m + l], blocks[m + l + 1], blocks[m + l + 2], N)

    def monomials(ydeg):
        out = []

        def rec(i, e, rem):
            if i == len(vars):
                if _ydeg(tuple(e), nt) == ydeg:
                    out.append(tuple(e))
                return
            for k in range(rem + 1):
                e.append(k)
                rec(i + 1, e, rem - k)
                e.pop()

        rec(0, [], N)
        return [e for e in out]

    m, l = len(t_vars), len(y_vars)

    def prep(M):
        M = M.extend(vars)
        if M.order > N:
            return M.truncate(N)
        if M.order == N:
            return M
        assert M.is_constant()
        return SeriesMatrix.from_consts(M.at_origin(), vars, N)

    base_blocks = ([prep(M) for M in base.C]
                   + [SeriesMatrix.zeros(n, n, vars, N) for _ in range(l)]
                   + [prep(base.U), prep(base.V), prep(base.W)])

    state = [[[dict(M[i, j].terms) for j in range(n)] for i in range(n)]
             for M in base_blocks]

    def build(extra=None):
        mats = []
        for b in range(len(state)):
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    terms = dict(state[b][i][j])
                    if extra and extra[0] == (b, i, j):
                        terms[extra[1]] = terms.get(extra[1], F(0)) + extra[2]
                    row.append(TruncSeries(vars, N, terms))
                rows.append(row)
            mats.append(SeriesMatrix(rows))
        return blocks_to_pencil(mats)

    def residual_components(P, stage):
        """Flattened affine residual components for this stage."""
        out = []
        res = flatness_residual(P)

        def collect(eq, ydeg):
            for idx, r in res.get(eq, []):
                for i in range(n):
                    for j in range(n):
                        for e, c in sorted(r[i, j].terms.items()):
                            if _ydeg(e, nt) == ydeg:
                                out.append(((eq, idx, i, j, e), c))

        for eq in ("higgs-commute-ty", "u-commute-y", "potential-ty",
                   "u-transport-y", "w-transport-y", "v-transport-y"):
            collect(eq, stage)
        if stage >= 1:
            collect("potential-yy", stage - 1)
            collect("higgs-commute-yy", stage)
        for eq in ("higgs-commute-tt", "potential-tt", "u-commute-t",
                   "u-transport-t", "w-transport-t", "v-transport-t"):
            collect(eq, stage + 1)
        for a in range(l):
            Fa = P.F[a]
            for i in range(n):
                d = Fa[i, 0] - f[i].partial(y_vars[a])
                for e, c in sorted(d.terms.items()):
                    if _ydeg(e, nt) == stage:
                        out.append((("first-column", a, i, 0, e), c))
        return dict(out)

    for stage in range(N + 1):
        unknowns = []
        for a in range(l):
            for i in range(n):
                for j in range(n):
                    for e in monomials(stage):
                        unknowns.append((m + a, i, j, e))
        if stage + 1 <= N:
            for b in list(range(m)) + list(range(m + l, m + l + 3)):
                for i in range(n):
                    for j in range(n):
                        for e in monomials(stage + 1):
                            unknowns.append((b, i, j, e))
        if not unknowns:
            continue
        base_res = residual_components(build(), stage)
        keys = set(base_res)
        cols = []
        for u in unknowns:
            pert = residual_components(
                build(extra=((u[0], u[1], u[2]), u[3], F(1))), stage)
            keys |= set(pert)
            cols.append(pert)
        keys = sorted(keys)
        A = [[cols[c].get(k, F(0)) - base_res.get(k, F(0))
              for c in range(len(unknowns))] for k in keys]
        b_vec = [-base_res.get(k, F(0)) for k in keys]
        # exact least-structure solve: unique solution required
        rows = [A[r] + [b_vec[r]] for r in range(len(keys))]
        piv = _elim(rows, len(unknowns), augment=1)
        if len(piv) != len(unknowns):
            raise AssertionError("oracle system is underdetermined at "
                                 "y-degree %d" % stage)
        sol = [F(0)] * len(unknowns)
        for r, pc in enumerate(piv):
            sol[pc] = rows[r][len(unknowns)]
        for r in range(len(piv), len(rows)):
            if rows[r][len(unknowns)] != 0:
                raise AssertionError("oracle system is inconsistent at "
                                     "y-degree %d" % stage)
        for u, val in zip(unknowns, sol):
            if val:
                b, i, j, e = u
                cur = state[b][i][j].get(e, F(0)) + val
                if cur:
                    state[b][i][j][e] = cur
                else:
                    state[b][i][j].pop(e, None)
    out = build()
    assert not flatness_residual(out)
    return out


# ---------------------------------------------------------------------------
# whole-series oracle for the unfolding
# ---------------------------------------------------------------------------


def _nterms(M):
    return sum(len(M[i, j].terms) for i in range(M.rows)
               for j in range(M.cols))


def _ydeg_le(M, s, y_vars):
    """Drop every term of y-degree above s."""
    out = None
    for d in range(s + 1):
        part = M.graded_part(d, names=y_vars)
        out = part if out is None else out + part
    return out


def _word_matrix(word, label_to_matrix, identity):
    M = identity
    for label in word:
        M = label_to_matrix[label] @ M
    return M


def reference_solve(problem, trace=None):
    """Whole-series unfolding: at each y-degree s every word matrix, the
    first-column matrix and its inverse are rebuilt at the full order and
    cut back to y-degree <= s.

    This is the construction ``unfold.solve`` computed before it kept
    y-degree slices; it stays here only as a test oracle.  Its trace
    entries carry the same ``nterms`` record, counted from the graded parts
    of the accumulated blocks.
    """
    base = problem.base
    if base.y_vars:
        raise RejectionError("base pencil must not already carry unfolding "
                             "directions")
    res = flatness_residual(base)
    if res:
        raise RejectionError("base pencil is not flat",
                             {"residuals": residual_report(res)})
    n = base.n
    N = problem.order
    t_vars = base.t_vars
    y_vars = problem.y_vars
    vars = t_vars + y_vars
    fs = []
    for i, fi in enumerate(problem.f):
        fi = fi.extend(vars) if fi.vars != vars else fi
        # only the y-derivatives of the first-column functions enter, so
        # they must carry one more order than the target
        if fi.order < N + 1:
            raise RejectionError("f_%d carries too little precision "
                                 "(order %d < %d)" % (i + 1, fi.order, N + 1))
        if fi.order > N + 1:
            fi = fi.truncate(N + 1)
        if not fi.restrict_zero(y_vars).is_zero():
            raise RejectionError("f_%d does not vanish at y=0" % (i + 1))
        fs.append(fi)
    gc = gc_check(base)
    if not gc.ok:
        raise RejectionError("generation condition fails at the origin",
                             {"certificate": gc.to_json()})
    words = gc.words

    def prep(M: SeriesMatrix) -> SeriesMatrix:
        M = M.extend(vars)
        if M.order >= N:
            return M.truncate(N) if M.order > N else M
        if M.is_constant():
            return SeriesMatrix.from_consts(M.at_origin(), vars, N)
        raise RejectionError("base pencil carries too little t-precision "
                             "(order %d < %d)" % (M.order, N))

    C = [prep(M) for M in base.C]
    U, V, W = prep(base.U), prep(base.V), prep(base.W)
    F: list = []

    def e_system(s):
        """E-matrices with unit first columns inside the commutant, and the
        F-blocks they produce, valid to y-degree s."""
        label_to = {"C%d" % i: C[i] for i in range(len(C))}
        label_to["U"] = U
        ident = SeriesMatrix.identity(n, vars, U.order)
        wmats = [_word_matrix(w, label_to, ident) for w in words]
        M = SeriesMatrix([[wmats[j][i, 0] for j in range(n)]
                          for i in range(n)])
        X = M.inverse_series()
        Es = []
        for k in range(n):
            acc = None
            for j in range(n):
                piece = wmats[j].scale_series(X[j, k])
                acc = piece if acc is None else acc + piece
            Es.append(_ydeg_le(acc, s, y_vars))
        Fs = []
        for a, yv in enumerate(y_vars):
            acc = None
            for i in range(n):
                dfi = fs[i].partial(yv)
                piece = Es[i].scale_series(dfi)
                acc = piece if acc is None else acc + piece
            Fs.append(_ydeg_le(acc, s, y_vars))
        return Es, Fs

    def assert_zero(M, name, s):
        part = M.graded_part(s, names=y_vars)
        if not part.is_zero():
            raise AssertionError(
                "unfolding induction failed: %s has a nonzero residual at "
                "y-degree %d" % (name, s))

    for s in range(N + 1):
        Es, F = e_system(s)
        # the solved equations and the ones the construction must re-prove
        for a in range(len(y_vars)):
            for i in range(n):
                d = (F[a][i, 0] - fs[i].partial(y_vars[a]))
                assert_zero(SeriesMatrix([[d]]), "first-column contract", s)
            for i in range(len(t_vars)):
                assert_zero(C[i].commutator(F[a]), "higgs-commute-ty", s)
            assert_zero(F[a].commutator(U), "u-commute-y", s)
            for b in range(a + 1, len(y_vars)):
                assert_zero(F[a].commutator(F[b]), "higgs-commute-yy", s)
                if s >= 1:
                    assert_zero(F[a].partial(y_vars[b])
                                - F[b].partial(y_vars[a]),
                                "potential-yy", s - 1)
        if trace is not None:
            trace.append({
                "y_degree": s,
                "E": [E.to_json() for E in Es],
                "F": [Fa.to_json() for Fa in F],
                "nterms": {
                    "E": [_nterms(E.graded_part(s, names=y_vars))
                          for E in Es],
                    "F": [_nterms(Fa.graded_part(s, names=y_vars))
                          for Fa in F]},
            })
        if s == N:
            break
        # radial integration of the transport equations for degree s+1
        frac = Fraction(1, s + 1)

        def bump(parts):
            acc = None
            for a, yv in enumerate(y_vars):
                piece = parts[a].graded_part(s, names=y_vars).mul_var(yv)
                acc = piece if acc is None else acc + piece
            if acc is None:
                return None
            return acc.scale(frac)

        newC = []
        for i, tv in enumerate(t_vars):
            upd = bump([F[a].partial(tv) for a in range(len(y_vars))])
            newC.append(C[i] if upd is None else C[i] + upd.truncate(C[i].order))
        updU = bump([V.commutator(F[a]) - F[a] for a in range(len(y_vars))])
        updW = bump([W.commutator(F[a]) for a in range(len(y_vars))])
        C = newC
        if updU is not None:
            U = U + updU.truncate(U.order)
            W = W + updW.truncate(W.order)
            V = V - updW.truncate(V.order)
        # step (iii): the equations proved, not solved, by the induction
        for i in range(len(t_vars)):
            for j in range(i + 1, len(t_vars)):
                assert_zero(C[i].commutator(C[j]), "higgs-commute-tt", s + 1)
                assert_zero(C[i].partial(t_vars[j]) - C[j].partial(t_vars[i]),
                            "potential-tt", s)
            assert_zero(C[i].commutator(U), "u-commute-t", s + 1)
            assert_zero(U.partial(t_vars[i]) - V.commutator(C[i]) + C[i],
                        "u-transport-t", s)
            assert_zero(W.partial(t_vars[i]) - W.commutator(C[i]),
                        "w-transport-t", s)
            assert_zero(V.partial(t_vars[i]) + W.commutator(C[i]),
                        "v-transport-t", s)

    out = ConnectionPencil(t_vars, y_vars, n, C, F, U, V, W, N)
    leftover = flatness_residual(out)
    if leftover:
        raise AssertionError("unfolding left nonzero flatness residuals: %r"
                             % sorted(leftover))
    return out


# ---------------------------------------------------------------------------
# row-scan oracle for the family echelon
# ---------------------------------------------------------------------------


class ReferenceSeriesEchelon:
    """The family echelon over truncated series, as the package once ran
    it: units (a nonzero constant term) are the only pivots, the largest
    column first; every insert scans all pivot rows for the new pivot
    column, ``reduce`` repeats passes until no pivot column is left, and a
    row with no unit entry is deferred until ``close``.  It stays here only
    as the elimination of ``reference_family_entries``.
    """

    def __init__(self):
        self.rows = {}
        self.deferred = []

    def reduce(self, vec):
        v = {c: x for c, x in vec.items() if not x.is_zero()}
        changed = True
        while changed:
            changed = False
            for p in list(v):
                row = self.rows.get(p)
                if row is None:
                    continue
                f = v.pop(p)
                changed = True
                for c, x in row.items():
                    if c == p:
                        continue
                    s = (v.get(c) - f * x) if c in v else -(f * x)
                    if s.is_zero():
                        v.pop(c, None)
                    else:
                        v[c] = s
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        unit_cols = [c for c, x in v.items() if x.constant_term != 0]
        if not unit_cols:
            self.deferred.append(v)
            return False
        p = max(unit_cols)
        inv = v[p].inverse()
        row = {c: x * inv for c, x in v.items()}
        for other in self.rows.values():
            f = other.get(p)
            if f is not None and not f.is_zero():
                for c, x in row.items():
                    s = (other.get(c) - f * x) if c in other else -(f * x)
                    if s.is_zero():
                        other.pop(c, None)
                    else:
                        other[c] = s
        self.rows[p] = row
        return True

    def close(self):
        for v in self.deferred:
            if self.reduce(v):
                raise AssertionError("family is not flat: row with no unit "
                                     "entry")


# ---------------------------------------------------------------------------
# the family normal forms as the series echelon gave them
# ---------------------------------------------------------------------------


def reference_family_entries(algebra, t_vars, order):
    """``JacobiFamily.mult_entries`` as it was before the family normal
    forms were lifted from the algebra's cofactors: every ideal piece of
    F_t = f + sum_a t_a m_a is eliminated again over the series by a
    ``ReferenceSeriesEchelon`` (pivots on the largest column), whose
    non-pivot columns must be the t = 0 basis, and each product is reduced
    against it.  Returns the function
    (a, from_sdeg) -> {(row, col): series}."""
    ws = algebra.ws
    deg1 = algebra.piece(ws.scale)
    famf = XPoly(ws.nvars, {e: TruncSeries.const(t_vars, order, c)
                            for e, c in algebra.f.terms.items()})
    for a, m in enumerate(deg1.basis_monomials):
        tm = TruncSeries.var(t_vars, order, t_vars[a])
        famf = famf + XPoly(ws.nvars, {m: tm})
    partials = [famf.partial(i) for i in range(ws.nvars)]
    one = TruncSeries.one(t_vars, order)
    pieces = {}

    def family_piece(sdeg):
        if sdeg in pieces:
            return pieces[sdeg]
        base = algebra.piece(sdeg)
        packed = _packed_partials(ws, partials, sdeg, base.strides)
        ech = ReferenceSeriesEchelon()
        for _, row in _ideal_rows(packed, base.index):
            ech.insert(row)
        ech.close()
        pivots = set(ech.rows)
        basis = [i for i in range(len(base.keys)) if i not in pivots]
        if basis != base.basis:
            raise AssertionError("family basis at scaled degree %d deviates "
                                 "from the t=0 basis" % sdeg)
        pieces[sdeg] = ech
        return ech

    def mult_entries(a, from_sdeg):
        tdeg = from_sdeg + ws.scale
        if not algebra.dim_scaled(tdeg):
            return {}
        target = algebra.piece(tdeg)
        ech = family_piece(tdeg)
        index, pos = target.index, target._basis_pos
        ka = deg1.basis_keys[a]
        entries = {}
        for j, kj in enumerate(algebra.piece(from_sdeg).basis_keys):
            for c, v in ech.reduce({index[ka + kj]: one}).items():
                entries[pos[c], j] = v
        return entries

    return mult_entries


# ---------------------------------------------------------------------------
# frozen Fraction engine: the dense elimination and the Fraction echelon
# exactly as they were before the sparse ``linalg.Echelon`` and its
# column-occurrence index.  They are its oracle, and ``_elim`` keeps the
# brute-force unfolding oracle independent of the engine it checks.
# ---------------------------------------------------------------------------


def _elim(rows, ncols, augment=0):
    """In-place row reduction; returns list of pivot column indices.

    Pivots are chosen left to right; the first ``ncols`` columns are
    eliminated, any extra ``augment`` columns just come along for the ride.
    """
    piv_cols = []
    r = 0
    total = ncols + augment
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return piv_cols


def mat_rank(a) -> int:
    if not a:
        return 0
    rows = [list(map(Fraction, row)) for row in a]
    return len(_elim(rows, len(rows[0])))


def mat_inverse(a):
    n = len(a)
    rows = [list(map(Fraction, a[i])) + [Fraction(int(i == j))
                                         for j in range(n)] for i in range(n)]
    piv = _elim(rows, n, augment=n)
    if len(piv) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def nullspace(a):
    """Basis of the right kernel of a (rows = equations)."""
    if not a:
        return []
    ncols = len(a[0])
    rows = [list(map(Fraction, row)) for row in a]
    piv = _elim(rows, ncols)
    piv_set = set(piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


class Echelon:
    """Incremental reduced row echelon over sparse Fraction vectors.

    Vectors are dicts {column index: Fraction}.  ``insert`` reduces the
    vector against the current rows; if something survives it is added with
    its pivot (by default the smallest remaining column index) normalized
    to 1 and back-substituted into the existing rows.
    """

    def __init__(self, pivot: str = "min"):
        if pivot not in ("min", "max"):
            raise ValueError("pivot must be 'min' or 'max'")
        self._max = pivot == "max"
        self.rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self):
        return set(self.rows)

    def reduce(self, vec) -> dict:
        """Return vec reduced modulo the current row space (a fresh dict)."""
        v = {c: Fraction(x) for c, x in vec.items() if x}
        changed = True
        while changed:
            changed = False
            for p in list(v):
                row = self.rows.get(p)
                if row is None:
                    continue
                f = v.pop(p)
                changed = True
                for c, x in row.items():
                    if c == p:
                        continue
                    s = v.get(c, Fraction(0)) - f * x
                    if s:
                        v[c] = s
                    else:
                        v.pop(c, None)
        return v

    def insert(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = max(v) if self._max else min(v)
        inv = 1 / v[p]
        row = {c: x * inv for c, x in v.items()}
        for other in self.rows.values():
            f = other.get(p)
            if f:
                for c, x in row.items():
                    s = other.get(c, Fraction(0)) - f * x
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
        self.rows[p] = row
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)


# ---------------------------------------------------------------------------
# stage-by-stage oracle for the degree-by-degree germ constructor: the
# recursion of ``germ.h2_reconstruct`` exactly as it was while it kept its
# own radial step, its own flat chart of the base and ``wpart_mat``.  It
# stays here only as a test oracle; its ``Echelon`` is the frozen Fraction
# engine above.
# ---------------------------------------------------------------------------


def reference_h2_reconstruct(init: InitialData, order: int | None = None,
                             reverse_generation: bool = False
                             ) -> FrobeniusGermData:
    """Determine the structure constants directly from the restricted data.

    Stage by stage in the Euler weight: matrices of positive-degree fields
    are solved from generation by degree-zero fields (with the metric
    fixing the top block where generation does not reach), and the
    degree-zero matrices pick up their next weight by radial integration
    of the potentiality relation.  Entirely independent of the unfolding
    pipeline.

    reverse_generation reverses the order in which the generation
    relations are scanned; the output must not depend on it (the solver
    verifies every relation it did not use for pivoting).
    """
    F = init.ftype
    if not F.umat_is_zero():
        raise RejectionError("recursion requires vanishing first "
                             "endomorphism")
    if not init.is_graded():
        raise RejectionError("recursion requires a diagonal flat "
                             "endomorphism with integer levels")
    F = _at_order(F, order)
    N = F.order
    n = F.n
    w = init.weight
    degrees = init.frame_degrees()
    if degrees[0] != -1:
        raise RejectionError("first frame vector must have Euler degree -1")
    d0_idx = [k for k in range(n) if degrees[k] == 0]
    pos_idx = [k for k in range(n) if degrees[k] > 0]
    m0 = len(d0_idx)
    if len(F.vars) != m0:
        raise RejectionError("base dimension %d does not match the count "
                             "of degree-zero directions %d"
                             % (len(F.vars), m0))
    coords = _coords(n)
    g = [[Fraction(c) for c in row] for row in F.g]

    # --- flatten the base: degree-zero flat coordinates and matrices -----
    tvars = F.vars
    if m0:
        A0 = potential_matrix(ConnectionPencil(
            tvars, (), n, list(F.C), [],
            SeriesMatrix.zeros(n, n, tvars, N),
            SeriesMatrix.zeros(n, n, tvars, N),
            SeriesMatrix.zeros(n, n, tvars, N), N))
        tau0 = [-A0[k, 0] for k in d0_idx]
        d0_names = tuple(coords[k] for k in d0_idx)
        t_of_tau = invert_map([t.truncate(N) for t in tau0], d0_names)
        subst0 = dict(zip(tvars, t_of_tau))
        psi0S = SeriesMatrix([[-F.C[i][k, 0] for i in range(m0)]
                              for k in d0_idx])
        psi0_inv = psi0S.inverse_series()
        base_mult = {}
        for a, k in enumerate(d0_idx):
            acc = None
            for i in range(m0):
                piece = F.C[i].scale_series(-psi0_inv[i, a])
                acc = piece if acc is None else acc + piece
            base_mult[k] = acc.compose(subst0)
    else:
        base_mult = {}

    zero = TruncSeries.zero(coords, N)
    one = TruncSeries.one(coords, N)

    def zmat():
        return [[zero] * n for _ in range(n)]

    # mutable entry tables, assembled weight by weight; positive-degree
    # matrices start at zero and are filled entirely by the stages
    tab = {k: zmat() for k in range(n)}
    tab[0] = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in d0_idx:
        M = base_mult[k]
        for i in range(n):
            for j in range(n):
                e = M[i, j].extend(coords)
                if j == 0:
                    want = one if i == k else zero
                    if e != want:
                        raise AssertionError("flattened base does not fix "
                                             "the unit column")
                if not e.is_zero():
                    tab[k][i][j] = e

    wts = {coords[k]: int(degrees[k]) for k in range(n) if degrees[k] > 0}
    pos_names = tuple(coords[k] for k in pos_idx)
    top_deg = max([int(d) for d in degrees] + [0])
    top_idx = [k for k in range(n) if degrees[k] == top_deg]

    def wpart(s: TruncSeries, wgt: int) -> TruncSeries:
        """Weighted graded part in the positive-degree coordinates."""
        return s.graded_part(wgt, names=pos_names, weights=wts)

    def mat(k) -> SeriesMatrix:
        return SeriesMatrix(tab[k])

    def add_part(k, part: SeriesMatrix):
        for i in range(n):
            for j in range(n):
                e = part[i, j]
                if not e.is_zero():
                    tab[k][i][j] = tab[k][i][j] + e

    max_d = max([int(d) for d in degrees if d > 0] or [1])
    W_cap = min(max(w - 2, 0), N * max_d)
    pos_by_D: dict[int, list] = {}
    for k in pos_idx:
        pos_by_D.setdefault(int(degrees[k]), []).append(k)

    for stage in range(W_cap + 1):
        # (i) weight-`stage` parts of the positive-degree matrices
        for D in sorted(pos_by_D):
            unknown = pos_by_D[D]
            pairs = [(i, k) for i in d0_idx
                     for k in (d0_idx if D == 1 else pos_by_D.get(D - 1, []))]
            if reverse_generation:
                pairs = pairs[::-1]
            gamma = {}
            for (i, k) in pairs:
                gamma[(i, k)] = [wpart(tab[i][r][k], 0) for r in unknown]
            sel_ech = Echelon(pivot="min")
            selected = []
            for pr in pairs:
                consts = {a: c.constant_term for a, c in
                          enumerate(gamma[pr]) if c.constant_term}
                if consts and sel_ech.insert(consts):
                    selected.append(pr)
                if len(selected) == len(unknown):
                    break
            if len(selected) == len(unknown):
                _solve_generated(tab, gamma, pairs, selected, unknown,
                                 stage, degrees, coords, wpart, mat, n, D)
            else:
                _fill_ungenerated(tab, unknown, stage, degrees, g, w,
                                  top_idx, D, n, coords,
                                  span_rank=len(selected))
        # (ii) weight-(stage+1) parts of the degree-zero matrices
        if stage == W_cap or N < 1:
            break
        Wn = stage + 1
        for i in d0_idx:
            acc = None
            for j in pos_idx:
                dj = int(degrees[j])
                part = wpart_mat(mat(j), Wn - dj, wpart)
                if part is None:
                    continue
                der = part.partial(coords[i])
                upd = der.mul_var(coords[j]).scale(Fraction(dj, Wn))
                acc = upd if acc is None else acc + upd
            if acc is not None:
                add_part(i, acc.truncate(N))

    mult = [mat(k) for k in range(n)]
    pot = potential_integrate(mult, g, coords, N)
    germ = FrobeniusGermData(coords, n, mult, g, degrees, None, pot, N)
    _assert_clean(germ, init)
    return germ


def wpart_mat(M: SeriesMatrix, wgt: int, wpart):
    if wgt < 0:
        return None
    return SeriesMatrix([[wpart(M[i, j], wgt) for j in range(M.cols)]
                         for i in range(M.rows)])


def _solve_generated(tab, gamma, pairs, selected, unknown, stage, degrees,
                     coords, wpart, mat, n, D):
    """Solve the weight-`stage` parts of the degree-D matrices from the
    products of lower-degree matrices; verify the unselected relations."""
    q = len(unknown)

    def rhs_for(pr):
        i, k = pr
        prod = mat(i) @ mat(k)
        R = wpart_mat(prod, stage, wpart)
        # subtract the known contributions gamma_r * A_r for degrees > D
        for r in range(n):
            dr = degrees[r]
            if dr <= D or dr <= 0:
                continue
            gam = tab[i][r][k]
            if gam.is_zero():
                continue
            shift = stage - (int(dr) - D)
            part = wpart_mat(mat(r), shift, wpart)
            if part is None:
                continue
            R = R - part.scale_series(gam)
        return R

    G = SeriesMatrix([[gamma[pr][a] for a in range(q)] for pr in selected])
    G_inv = G.inverse_series()
    rhs = [rhs_for(pr) for pr in selected]
    sols = []
    for a in range(q):
        acc = None
        for b in range(q):
            piece = rhs[b].scale_series(G_inv[a, b])
            acc = piece if acc is None else acc + piece
        sols.append(acc)
    for a, r in enumerate(unknown):
        part = sols[a]
        for i in range(n):
            for j in range(n):
                e = part[i, j]
                if not e.is_zero():
                    tab[r][i][j] = tab[r][i][j] + e
    # the remaining generation relations must now hold
    for pr in pairs:
        if pr in selected:
            continue
        R = rhs_for(pr)
        for a, r in enumerate(unknown):
            X = wpart_mat(mat(r), stage, wpart)
            R = R - X.scale_series(gamma[pr][a])
        if not R.is_zero():
            raise AssertionError("generation relations are inconsistent at "
                                 "weight %d, degree %d" % (stage, D))


def _fill_ungenerated(tab, unknown, stage, degrees, g, w, top_idx, D, n,
                      coords, span_rank):
    """Entries the generation route cannot reach: symmetry against known
    matrices, metric pairing for the top block, vanishing elsewhere."""
    if D < Fraction(w - 4, 2):
        raise RejectionError(
            "generation fails below half the top degree: degree %d spans "
            "only %d of %d directions" % (D, span_rank, len(unknown)),
            {"degree": D, "rank": span_rank, "needed": len(unknown)})
    for r in unknown:
        for l in range(n):
            dl = degrees[l]
            if -1 < dl < D:
                # symmetry against the matrix of the l-th field, refreshed
                # every stage as that matrix accumulates weight parts
                for u in range(n):
                    tab[r][u][l] = tab[l][u][r]
    if stage > 0:
        return  # the remaining entries are constants, filled at stage 0
    if len(top_idx) != 1:
        raise RejectionError(
            "metric fallback needs a one-dimensional top degree",
            {"top_indices": top_idx})
    t = top_idx[0]
    gt1 = g[t][0]
    if gt1 == 0:
        raise RejectionError("metric does not pair the unit with the top "
                             "degree")
    for r in unknown:
        tab[r][r][0] = TruncSeries.one(coords, tab[r][r][0].order)
        for l in range(n):
            dl = degrees[l]
            if dl >= D and Fraction(degrees[r]) + dl == w - 4:
                tab[r][t][l] = TruncSeries.const(
                    coords, tab[r][t][l].order, g[r][l] / gt1)
            # other entries of such columns vanish by the grading


# ---------------------------------------------------------------------------
# frozen matrix product: ``SeriesMatrix.__matmul__`` (Gustavson's row-by-row
# product, one TruncSeries product and sum per term) and ``_combine``
# exactly as they were before the fused ``SeriesMatrix.sum_of_products``.
# They are the oracle for that kernel.
# ---------------------------------------------------------------------------


def frozen_matmul(self, other):
    if self.cols != other.rows:
        raise SeriesError("shape mismatch for product")
    right = other._data
    data = []
    for ra in self._data:
        acc: dict = {}
        for k, a in ra.items():
            for j, b in right[k].items():
                p = a * b
                s = acc.get(j)
                acc[j] = p if s is None else s + p
        data.append({j: acc[j] for j in sorted(acc) if acc[j].terms})
    return SeriesMatrix._make(self.rows, other.cols, self.vars,
                              min(self.order, other.order), data)


def frozen_combine(self, other, both, right):
    self._shape_like(other)
    zero = both(self._zero, other._zero)
    order = zero.order
    data = []
    for ra, rb in zip(self._data, other._data):
        out = {}
        for j in sorted(ra.keys() | rb.keys()):
            a = ra.get(j)
            b = rb.get(j)
            if b is None:
                x = a
            elif a is None:
                x = right(b)
            else:
                x = both(a, b)
            if x.order != order:
                x = x.truncate(order)
            if x.terms:
                out[j] = x
        data.append(out)
    return SeriesMatrix._make(self.rows, self.cols, zero.vars, order, data)


def frozen_sum_of_products(terms):
    """sum of sign * A @ B over (sign, A, B), one product and one matrix
    sum at a time, as callers formed it before the fused kernel."""
    acc = None
    for sign, A, B in terms:
        p = frozen_matmul(A, B)
        if acc is None:
            acc = p if sign > 0 else -p
        elif sign > 0:
            acc = frozen_combine(acc, p, TruncSeries.__add__, lambda b: b)
        else:
            acc = frozen_combine(acc, p, TruncSeries.__sub__,
                                 TruncSeries.__neg__)
    return acc


# ---------------------------------------------------------------------------
# frozen general Euler check: the branch of ``germ.euler_check`` for a germ
# with Euler coordinates, one entry (i, j, k) at a time, exactly as it was
# before it formed one matrix sum per i.  It is the oracle for that branch.
# ---------------------------------------------------------------------------


def reference_euler_general(G: FrobeniusGermData, dconst=None) -> list:
    out: list = []
    n = G.n
    if G.order < 1:
        return out
    E = G.euler
    coords = G.coords
    dE = [[E[k].partial(v) for v in coords] for k in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a = G.mult[i][k, j]
                acc = TruncSeries.zero(coords, a.order - 1)
                for l in range(n):
                    acc = acc + E[l] * a.partial(coords[l])
                    acc = acc - G.mult[i][l, j] * dE[k][l]
                    acc = acc + dE[l][i] * G.mult[l][k, j]
                    acc = acc + dE[l][j] * G.mult[i][k, l]
                violation(out, "euler-multiplication", (i, j, k), acc - a)
    if dconst is not None:
        for i in range(n):
            for j in range(n):
                acc = TruncSeries.zero(coords, G.order - 1 if G.order else 0)
                for l in range(n):
                    acc = acc + dE[l][i] * G.metric[l][j]
                    acc = acc + dE[l][j] * G.metric[i][l]
                violation(out, "euler-metric", (i, j), acc - (
                    2 - Fraction(dconst)) * TruncSeries.const(
                        coords, acc.order, G.metric[i][j]))
    return out


# ---------------------------------------------------------------------------
# frozen Jacobi certificates: the isolatedness certificate over full graded
# pieces, and the h2 generation check one product at a time, exactly as they
# were before the covered-variable reduction and the whole-row pass.  They
# are the oracles for ``JacobiAlgebra._certify_isolated`` and
# ``jacobi.h2_generation_check``.
# ---------------------------------------------------------------------------


def reference_isolated_witness(ws: WeightSystem, partials):
    """The first weighted degree in (B, B + max D_i] / L whose full graded
    piece of the quotient is nonzero, or None when every one is zero."""
    B = ws.socle_scaled()
    for s in range(B + 1, B + max(ws.scaled) + 1):
        if GradedPiece(ws, partials, s).dim:
            return Fraction(s, ws.scale)
    return None


def reference_h2_generation_check(algebra) -> dict:
    L = algebra.ws.scale
    top_int = algebra.top_scaled() // L
    report: dict[int, int] = {}
    if algebra.dim_scaled(L) == 0:
        for q in range(2, top_int + 1):
            report[q] = algebra.dim_scaled(q * L)
        return {"codimensions": report,
                "passes": all(v == 0 for v in report.values())}
    deg1 = algebra.piece(L)
    deg1_keys = deg1.basis_keys
    prev_keys = list(deg1_keys)
    one = Fraction(1)
    prev_rows: list[list] = [[(k, one)] for k in range(deg1.dim)]
    for q in range(2, top_int + 1):
        s = q * L
        dim = algebra.dim_scaled(s)
        if dim == 0:
            report[q] = 0
            prev_rows = []
            prev_keys = []
            continue
        target = algebra.piece(s)
        seen: set = set()
        ech = Echelon(pivot="min")
        nf_key = target.nf_key
        table, index = target._uf, target.index
        for items, kj in product(prev_rows, deg1_keys):
            if len(items) == 1 and items[0][1] == 1:
                if table is not None and not ech.rank:
                    entry = table[index[prev_keys[items[0][0]] + kj]]
                    if entry is not None:
                        seen.add(entry[0])
                        if len(seen) == dim:
                            break
                    continue
                vec = nf_key(prev_keys[items[0][0]] + kj)
            else:
                vec = {}
                for i, c in items:
                    for k, v in nf_key(prev_keys[i] + kj, c).items():
                        w = vec.get(k, Fraction(0)) + v
                        if w:
                            vec[k] = w
                        else:
                            del vec[k]
            vec = {k: c for k, c in vec.items() if k not in seen}
            if not vec:
                continue
            if len(vec) == 1 and ech.rank == 0:
                seen.add(next(iter(vec)))
            else:
                ech.insert(vec)
            if len(seen) + ech.rank == dim:
                break
        rank = len(seen) + ech.rank
        report[q] = dim - rank
        prev_rows = ([[(k, one)] for k in sorted(seen)]
                     + [list(r.items()) for r in ech.rows.values()])
        prev_keys = target.basis_keys
    return {"codimensions": report,
            "passes": all(v == 0 for v in report.values())}


# ---------------------------------------------------------------------------
# frozen tuple-keyed series: ``TruncSeries`` arithmetic, ``euler_integrate``
# on a series and the numerators of ``SeriesMatrix.sum_of_products`` exactly
# as they were while terms were keyed by exponent tuples, before the packed
# integer keys.  They are the oracle for the packed series, term order
# included.
# ---------------------------------------------------------------------------


class ReferenceSeries:
    """A truncated series with terms {exponent tuple: Fraction}."""

    __slots__ = ("vars", "order", "terms")

    def __init__(self, vars, order, terms=None):
        if order < 0:
            raise SeriesError("order bound must be >= 0")
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise SeriesError("duplicate variable names: %r" % (vars,))
        clean = {}
        if terms:
            nv = len(vars)
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nv or any(k < 0 for k in e):
                    raise SeriesError("bad exponent tuple %r" % (e,))
                if sum(e) > order:
                    continue
                c = Fraction(c)
                if c != 0:
                    clean[e] = c
        self.vars, self.order, self.terms = vars, order, clean

    @classmethod
    def _make(cls, vars, order, terms):
        out = cls(vars, order)
        out.terms = terms
        return out

    @classmethod
    def const(cls, vars, order, c):
        c = Fraction(c)
        return cls._make(tuple(vars), order,
                         {(0,) * len(vars): c} if c else {})

    @property
    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def is_zero(self):
        return not self.terms

    def __add__(self, other, negate=False):
        if isinstance(other, (int, Fraction)):
            other = ReferenceSeries.const(self.vars, self.order, other)
        order = min(self.order, other.order)
        if self.order == order:
            terms = dict(self.terms)
        else:
            terms = {e: c for e, c in self.terms.items() if sum(e) <= order}
        right = other.terms.items()
        if other.order != order:
            right = [(e, c) for e, c in right if sum(e) <= order]
        for e, c in right:
            if negate:
                c = -c
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s += c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return ReferenceSeries._make(self.vars, order, terms)

    def __neg__(self):
        return ReferenceSeries._make(self.vars, self.order,
                                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return ReferenceSeries._make(self.vars, self.order, {})
            return ReferenceSeries._make(
                self.vars, self.order,
                {e: c * v for e, v in self.terms.items()})
        order = min(self.order, other.order)
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        terms: dict = {}
        for e1, c1 in self.terms.items():
            room = order - sum(e1)
            if room < 0:
                continue
            for e2, d2, c2 in right:
                if d2 > room:
                    continue
                e = tuple(map(add, e1, e2))
                s = terms.get(e)
                if s is None:
                    terms[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return ReferenceSeries._make(self.vars, order, terms)

    def inverse(self):
        c0 = self.constant_term
        if c0 == 0:
            raise SeriesError("series is not a unit (zero constant term)")
        inv_c0 = 1 / c0
        rest = self - c0
        out = ReferenceSeries.const(self.vars, self.order, inv_c0)
        power = ReferenceSeries.const(self.vars, self.order, 1)
        sign = -1
        for _ in range(self.order):
            power = power * rest
            if power.is_zero():
                break
            out = out + power * (sign * inv_c0 ** (_ + 2))
            sign = -sign
        return out

    def partial(self, name):
        i = self.vars.index(name)
        terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                 for e, c in self.terms.items() if e[i]}
        return ReferenceSeries._make(self.vars, self.order - 1, terms)

    def mul_var(self, name):
        i = self.vars.index(name)
        terms = {e[:i] + (e[i] + 1,) + e[i + 1:]: c
                 for e, c in self.terms.items()}
        return ReferenceSeries._make(self.vars, self.order + 1, terms)

    def restrict_zero(self, names):
        drop = [self.vars.index(nm) for nm in names]
        keep = [i for i in range(len(self.vars)) if i not in drop]
        terms = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                continue
            terms[tuple(e[i] for i in keep)] = c
        return ReferenceSeries(tuple(self.vars[i] for i in keep), self.order,
                               terms)

    def extend(self, new_vars):
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * len(new_vars)
            for p, k in zip(pos, e):
                e2[p] = k
            terms[tuple(e2)] = c
        return ReferenceSeries(new_vars, self.order, terms)

    def truncate(self, order):
        if order == self.order:
            return self
        return ReferenceSeries(self.vars, order, self.terms)

    def graded_part(self, degree, names=None, weights=None):
        if names is None:
            idx = range(len(self.vars))
        else:
            idx = [self.vars.index(nm) for nm in names]
        wt = {}
        for i in idx:
            wt[i] = 1 if not weights else weights.get(self.vars[i], 1)
        terms = {e: c for e, c in self.terms.items()
                 if sum(e[i] * wt[i] for i in wt) == degree}
        return ReferenceSeries._make(self.vars, self.order, terms)

    def compose(self, mapping):
        images = [mapping[v] for v in self.vars]
        ctx = images[0].vars
        order = min([self.order] + [im.order for im in images])
        out = ReferenceSeries(ctx, order)
        pow_cache = [dict() for _ in images]

        def power(i, k):
            cache = pow_cache[i]
            if k not in cache:
                if k == 0:
                    cache[k] = ReferenceSeries.const(ctx, order, 1)
                else:
                    cache[k] = power(i, k - 1) * images[i]
            return cache[k]

        for e, c in self.terms.items():
            term = ReferenceSeries.const(ctx, order, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def to_json(self):
        return {"vars": list(self.vars), "order": self.order,
                "terms": [[list(e), "%d/%d" % (self.terms[e].numerator,
                                               self.terms[e].denominator)]
                          for e in sorted(self.terms)]}


def reference_euler_integrate(partials, weights=None):
    """``euler_integrate`` on a one-form of ReferenceSeries."""
    forms = list(partials.values())
    ctx = forms[0].vars
    if weights is None:
        weights = dict.fromkeys(partials, 1)
    wt = [(ctx.index(nm), w) for nm, w in weights.items()]
    order = min(p.order for p in forms)
    terms: dict = {}
    for nm, p in partials.items():
        i, w = ctx.index(nm), weights[nm]
        for e, c in p.terms.items():
            if sum(e) > order:
                continue
            e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
            d = sum(e2[k] * wk for k, wk in wt)
            terms[e2] = terms.get(e2, Fraction(0)) + c * w / d
    return ReferenceSeries(ctx, order + 1, terms)


def reference_sum_of_products(terms):
    """The entries {(i, j): {exponent tuple: Fraction}} of the fused
    ``SeriesMatrix.sum_of_products``, by its integer-numerator kernel over
    tuple keys."""
    _, A0, B0 = terms[0]
    order = min(min(A.order, B.order) for _, A, B in terms)
    split: dict = {}

    def numerators(x):
        got = split.get(id(x))
        if got is None:
            ratios = [(e, sum(e)) + c.as_integer_ratio()
                      for e, c in x.terms.items()]
            den = lcm(*[r[3] for r in ratios])
            got = split[id(x)] = (x, den, sorted(
                [(e, d, n * (den // q)) for e, d, n, q in ratios],
                key=itemgetter(1)))
        return got[1:]

    out = {}
    for i in range(A0.rows):
        acc: dict = {}
        for sign, A, B in terms:
            right = B._data
            for k, a in A._data[i].items():
                da, ta = numerators(a)
                for j, b in right[k].items():
                    db, tb = numerators(b)
                    t = acc.setdefault(j, {}).setdefault(da * db, {})
                    for e1, d1, n1 in ta:
                        room = order - d1
                        if room < 0:
                            break
                        n1 *= sign
                        for e2, d2, n2 in tb:
                            if d2 > room:
                                break
                            e = tuple(map(add, e1, e2))
                            t[e] = t.get(e, 0) + n1 * n2
        for j in sorted(acc):
            groups = acc[j]
            if len(groups) == 1:
                ((den, nums),) = groups.items()
            else:
                den = lcm(*groups)
                nums = {}
                for d, t in groups.items():
                    for e, n in t.items():
                        nums[e] = nums.get(e, 0) + n * (den // d)
            x = {e: Fraction(n, den) for e, n in nums.items() if n}
            if x:
                out[i, j] = x
    return out


# ---------------------------------------------------------------------------
# frozen dense index walks: the flat-pairing solver, which visited every
# (Gamma, k, l, m), and the record loops of ``wdvv_check``, ``euler_check``,
# the symmetry check of ``potential_integrate`` and ``check_filtration``,
# which read every entry (i, j, k) of their matrices, exactly as they were
# before they walked the stored nonzeros.  They are the oracles for those
# functions: the same pairing, the same rejections, and the same records in
# the same order.
# ---------------------------------------------------------------------------


def reference_solve_pairing(levels, w, Gammas, n):
    """Constant pairing with level orthogonality, (-1)^w symmetry and
    flatness against the given connection matrices; deterministic
    normalization of the scalar freedom."""
    sign = (-1) ** (w % 2)
    pairs = []
    pos = {}
    for k in range(n):
        for l in range(n):
            if levels[k] + levels[l] != w:
                continue
            if (l, k) in pos:
                continue
            if k == l and sign == -1:
                continue
            pos[(k, l)] = len(pairs)
            pairs.append((k, l))
    if not pairs:
        raise RejectionError("no admissible pairing support for weight %d"
                             % w)

    def entry_unknown(k, l):
        if (k, l) in pos:
            return pos[(k, l)], Fraction(1)
        if (l, k) in pos:
            return pos[(l, k)], Fraction(sign)
        return None

    rows = []
    for G in Gammas:
        for k in range(n):
            for l in range(n):
                # (G^T S + S G)_{kl} = sum_m G_{mk} S_{ml} + S_{km} G_{ml}
                acc: dict[int, dict] = {}
                for m in range(n):
                    for coeff_entry, uk in ((G[m, k], entry_unknown(m, l)),
                                            (G[m, l], entry_unknown(k, m))):
                        if uk is None or coeff_entry.is_zero():
                            continue
                        j, sgn = uk
                        for key, c in coeff_entry.packed_terms.items():
                            d = acc.setdefault(key, {})
                            d[j] = d.get(j, Fraction(0)) + sgn * c
                for e, d in acc.items():
                    row = [Fraction(0)] * len(pairs)
                    nz = False
                    for j, c in d.items():
                        if c:
                            row[j] = c
                            nz = True
                    if nz:
                        rows.append(row)
    sols = linalg.nullspace(rows) if rows else [
        [Fraction(int(i == j)) for i in range(len(pairs))]
        for j in range(len(pairs))]

    def build(vec):
        S = [[Fraction(0)] * n for _ in range(n)]
        for (k, l), j in pos.items():
            S[k][l] = vec[j]
            S[l][k] = sign * vec[j]
        return S

    candidates = sols + ([[sum(v[j] for v in sols) for j in range(len(pairs))]]
                         if len(sols) > 1 else [])
    chosen = next((S for S in map(build, candidates)
                   if linalg.mat_rank(S) == n), None)
    if chosen is None:
        order = Gammas[0].order if Gammas else 0
        raise RejectionError(
            "no nondegenerate flat pairing exists: no constant pairing is "
            "flat against the family's multiplication matrices at order %d"
            % order, {"solution_space_dim": len(sols), "order": order})
    # scalar normalization: first nonzero entry in row-major order becomes
    # (-1)^(level of its row)
    for k in range(n):
        done = False
        for l in range(n):
            if chosen[k][l] != 0:
                scale = Fraction((-1) ** levels[k]) / chosen[k][l]
                chosen = [[c * scale for c in row] for row in chosen]
                done = True
                break
        if done:
            break
    return chosen, len(sols)


def reference_check_filtration(D: FiltrationData) -> list:
    """Level structure, flatness and pairing conditions, exactly."""
    out = []
    lv = D.levels
    n = D.n
    for a, G in enumerate(D.Gamma):
        for k in range(n):
            for l in range(n):
                if G[k, l].is_zero():
                    continue
                if lv[k] not in (lv[l], lv[l] - 1):
                    violation(out, "griffiths-transversality", (a, k, l),
                              {"from_level": lv[l], "to_level": lv[k]})
    m = len(D.vars)
    for i in range(m):
        for j in range(i + 1, m):
            r = D.Gamma[i].commutator(D.Gamma[j])
            if D.order >= 1:
                r = (D.Gamma[i].partial(D.vars[j])
                     - D.Gamma[j].partial(D.vars[i]) + r)
            violation(out, "connection-flat", (i, j), r)
    if D.S is not None:
        S = D.S
        sign = 1 if D.weight % 2 == 0 else -1
        St = linalg.transpose(S)
        if St != [[sign * c for c in row] for row in S]:
            violation(out, "pairing-weight-symmetric", (), _const_to_json(S))
        if linalg.mat_rank(S) != n:
            violation(out, "pairing-invertible", (), "singular")
        for k in range(n):
            for l in range(n):
                if S[k][l] != 0 and lv[k] + lv[l] != D.weight:
                    violation(out, "pairing-level-orthogonal", (k, l),
                              frac_to_str(S[k][l]))
        SS = SeriesMatrix.from_consts(S, D.vars, D.order)
        for a, G in enumerate(D.Gamma):
            violation(out, "pairing-flat", (a,), SeriesMatrix.sum_of_products(
                [(1, G.transpose(), SS), (1, SS, G)]))
    return out


def reference_wdvv_check(G: FrobeniusGermData) -> list:
    """Associativity, unit, symmetry, potentiality, metric invariance."""
    out = []
    n = G.n
    A = G.mult
    violation(out, "unit-multiplication", (0,),
              A[0] - SeriesMatrix.identity(n, G.coords, G.order))
    for i in range(n):
        col = A[i].column(0)
        for k in range(n):
            violation(out, "unit-column", (i, k),
                      col[k] - Fraction(int(k == i)))
    for i in range(n):
        for j in range(i + 1, n):
            violation(out, "associativity", (i, j), A[i].commutator(A[j]))
            if G.order >= 1:
                violation(out, "potentiality", (i, j),
                          A[i].partial(G.coords[j])
                          - A[j].partial(G.coords[i]))
        for j in range(n):
            for k in range(n):
                if violation(out, "commutativity", (i, j, k),
                             A[i][k, j] - A[j][k, i]):
                    break
    gS = SeriesMatrix.from_consts(G.metric, G.coords, G.order)
    for i in range(n):
        violation(out, "metric-invariance", (i,),
                  SeriesMatrix.sum_of_products(
                      [(1, A[i].transpose(), gS), (-1, gS, A[i])]))
    # third derivatives of the potential against the structure tensor
    if G.potential is not None and G.order >= 3:
        T = _c_matrices(A, G.metric, G.coords, G.order)
        for i in range(n):
            for j in range(i, n):
                dij = G.potential.partial(G.coords[i]).partial(G.coords[j])
                for k in range(j, n):
                    violation(out, "potential-third-derivatives", (i, j, k),
                              dij.partial(G.coords[k]) - T[i][j, k])
    return out


def reference_euler_check(G: FrobeniusGermData, dconst=None) -> list:
    """Scaling behaviour of multiplication and metric along the Euler field.

    For graded germs the degree bookkeeping per term is equivalent and is
    checked exactly; otherwise the two Lie-derivative identities are
    evaluated on the stored Euler coordinates.
    """
    out = []
    n = G.n
    if G.degrees is not None:
        dg = [Fraction(d) for d in G.degrees]
        # metric grading: the metric pairs degrees summing to d - 2
        dsum = Fraction(dconst) - 2 if dconst is not None else None
        for i in range(n):
            for j in range(n):
                if G.metric[i][j] != 0:
                    s = dg[i] + dg[j]
                    if dsum is None:
                        dsum = s
                    elif dsum != s:
                        violation(out, "metric-grading", (i, j),
                                  {"expected": str(dsum), "got": str(s)})
        st = exponent_strides(len(G.coords))
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    e = G.mult[i][k, j]
                    if e.is_zero():
                        continue
                    want = dg[k] - dg[i] - dg[j] - 1
                    for key in e.packed_terms:
                        exps = unpack_key(key, st)[:-1]
                        got = sum(ex * d for ex, d in zip(exps, dg) if ex)
                        if got != want:
                            violation(out, "multiplication-grading",
                                      (i, j, k), {"expected": str(want),
                                                  "got": str(got)})
                            break
        return out
    # general Euler field: Lie derivative identities on the coordinates
    if G.order < 1:
        return out
    A, E, coords = G.mult, G.euler, G.coords
    dE = SeriesMatrix([[E[k].partial(v) for v in coords] for k in range(n)])
    for i in range(n):
        # Lie_E(A_i) - A_i, with dE[k, l] = d E_k / d s_l
        R = SeriesMatrix.sum_of_products(
            [(1, A[i].partial(coords[l]), E[l]) for l in range(n)]
            + [(1, A[l], dE[l, i]) for l in range(n)]
            + [(1, A[i], dE), (-1, dE, A[i]),
               (-1, A[i], TruncSeries.one(coords, A[i].order))])
        for j in range(n):
            for k in range(n):
                violation(out, "euler-multiplication", (i, j, k), R[k, j])
    if dconst is not None:
        g = SeriesMatrix.from_consts(G.metric, coords, G.order - 1)
        shift = TruncSeries.const(coords, G.order - 1, 2 - Fraction(dconst))
        R = SeriesMatrix.sum_of_products([
            (1, dE.transpose(), g), (1, g, dE),
            (-1, g, shift)])
        for i in range(n):
            for j in range(n):
                violation(out, "euler-metric", (i, j), R[i, j])
    return out


def reference_symmetry_records(mult, metric, coords, order) -> list:
    """The records of the symmetry check of ``potential_integrate``,
    one entry (i, j, k) at a time."""
    n = len(mult)
    T = _c_matrices(mult, metric, coords, order)
    viol: list = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                violation(viol, "third-derivative-symmetric", (i, j, k),
                          T[i][j, k] - T[i][k, j])
    return viol


# ---------------------------------------------------------------------------
# frozen pairing extension check: ``pencil.pairing_extension_check`` and its
# residual loops exactly as they were when the base check left out the
# z^(w-1) transport along t and two ``holomorphy-obstruction`` loops, one
# per y-degree and one per direction at the end, checked it instead.  It is
# the oracle for the verdict of the one transport rule.
# ---------------------------------------------------------------------------


def _reference_z_residuals(P, R):
    out = []
    w = R.weight
    Rs = R.coeffs
    U, V, W = P.U, P.V, P.W
    Ut, Vt, Wt = U.transpose(), V.transpose(), W.transpose()
    violation(out, "z-transport", (-1,),
              SeriesMatrix.sum_of_products([(1, Ut, Rs[0]), (-1, Rs[0], U)]))
    for k in range(R.z_order):
        terms = [(1, Rs[k], TruncSeries.const(Rs[k].vars, Rs[k].order, w + k)),
                 (-1, Ut, Rs[k + 1]), (1, Rs[k + 1], U),
                 (-1, Vt, Rs[k]), (-1, Rs[k], V)]
        for j in range(1, k + 1):
            terms += [(1, Wt, Rs[k - j]), (-1 if j % 2 else 1, Rs[k - j], W)]
        violation(out, "z-transport", (k,),
                  SeriesMatrix.sum_of_products(terms))
    return out


def _reference_base_residuals(P, R):
    out = []
    if P.order < 1:
        return out
    blocks = list(zip(P.vars, list(P.C) + list(P.F)))
    for k in range(R.z_order):
        for v, B in blocks:
            violation(out, "base-transport", (k, v), R.coeffs[k].partial(v)
                      - SeriesMatrix.sum_of_products(
                          [(1, B.transpose(), R.coeffs[k + 1]),
                           (-1, R.coeffs[k + 1], B)]))
    return out


def _fail(report, key, found):
    if not isinstance(found, list):
        records: list = []
        violation(records, key, (), found)
        found = records
    if found:
        report["passes"] = False
        report[key] = found


def reference_pairing_extension_check(P, R0, z_order):
    require_int("z_order", z_order, 0)
    report: dict = {"passes": True, "weight": R0.weight, "z_order": z_order}
    N = P.order
    need = z_order + N
    if R0.z_order < need:
        raise RejectionError(
            "base pairing carries %d z-coefficients, need %d for y-order %d"
            % (R0.z_order + 1, need + 1, N))
    base = P.restrict_y0()
    gc = gc_check(base)
    if not gc.ok:
        _fail(report, "generation-condition", gc.to_json())
        return report
    _fail(report, "base-symmetry", R0.symmetry_violations())
    if not R0.gram_invertible():
        _fail(report, "base-gram-singular", "singular")
    _fail(report, "base-z-transport", _reference_z_residuals(base, R0))
    _fail(report, "base-t-transport", _reference_base_residuals(base, R0))
    if not report["passes"]:
        return report
    _fail(report, "pencil-flatness", residual_report(flatness_residual(P)))
    if not report["passes"]:
        return report

    vars = P.vars
    ys = P.y_vars
    coeffs = [R.extend(vars) for R in R0.coeffs]
    if ys:
        for s in range(1, N + 1):
            top = need - s
            new = []
            for k in range(top + 1):
                grad = {}
                for a, v in enumerate(ys):
                    rhs = SeriesMatrix.sum_of_products(
                        [(1, P.F[a].transpose(), coeffs[k + 1]),
                         (-1, coeffs[k + 1], P.F[a])])
                    grad[v] = rhs.graded_part(s - 1, names=ys)
                upd = euler_integrate(grad)
                new.append(coeffs[k] + upd.truncate(coeffs[k].order))
            obs: list = []
            for a, v in enumerate(ys):
                violation(obs, "holomorphy-obstruction", (s, v),
                          SeriesMatrix.sum_of_products(
                              [(1, P.F[a].transpose(), new[0]),
                               (-1, new[0], P.F[a])])
                          .graded_part(s - 1, names=ys))
            _fail(report, "holomorphy-obstruction", obs)
            if not report["passes"]:
                return report
            coeffs = new + coeffs[top + 1:]
    R = PairingMatrix(R0.weight, coeffs[:z_order + 1])
    _fail(report, "extended-symmetry", R.symmetry_violations())
    _fail(report, "extended-z-transport", _reference_z_residuals(P, R))
    _fail(report, "extended-base-transport", _reference_base_residuals(P, R))
    obs = []
    for v, B in zip(vars, list(P.C) + list(P.F)):
        violation(obs, "holomorphy-obstruction", (v,),
                  SeriesMatrix.sum_of_products(
                      [(1, B.transpose(), coeffs[0]), (-1, coeffs[0], B)]))
    _fail(report, "holomorphy-obstruction", obs)
    if report["passes"]:
        report["pairing"] = R
    return report
