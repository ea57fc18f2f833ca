"""Order-by-order unfolding of flat pencils over new base directions.

Given a flat pencil in the t-directions and target first-column functions
f_1..f_n vanishing at y=0, the unique unfolding is built degree by degree
in y: at each total y-degree the new F-blocks are assembled inside the
commutative algebra generated by the current C-blocks and U (solving for
matrices with prescribed first columns), and the remaining blocks are
obtained by radial integration of their transport equations.  Every
equation the construction does not solve directly is re-evaluated and a
nonzero residual is a hard failure.

The generation certificate (span of the fiber by iterated applications of
the constant-term operators to the distinguished vector) and the
injectivity certificate for the base directions live here too, as does
the universal unfolding that picks coordinates making the period map the
identity chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .linalg import Echelon
from .pencil import ConnectionPencil, flatness_residual, residual_report
from .series import SeriesMatrix, TruncSeries
from .structures import RejectionError

__all__ = [
    "GCCertificate", "gc_check", "ic_check", "UnfoldProblem", "solve",
    "universal_unfold", "UnfoldResult",
]


@dataclass
class GCCertificate:
    ok: bool
    words: list
    rank: int
    n: int

    def to_json(self):
        return {"ok": self.ok, "rank": self.rank, "n": self.n,
                "words": [list(w) for w in self.words]}


def _unit_vector(n, k=0):
    return [Fraction(int(i == k)) for i in range(n)]


def gc_check(P: ConnectionPencil, with_u: bool = True,
             zeta=None) -> GCCertificate:
    """Breadth-first span of the fiber at the origin from the distinguished
    vector under the constant-term operators.

    Returns spanning words (sequences of generator labels, applied left to
    right) when the span is everything, or the reached rank otherwise.
    Generator matrices are applied sparsely, so large mostly-empty
    multiplication operators stay cheap.
    """
    n = P.n
    if zeta is None:
        zeta = _unit_vector(n)

    def sparse_cols(M):
        cols = [{} for _ in range(n)]
        for (i, j), x in M.nonzero().items():
            c = x.constant_term
            if c:
                cols[j][i] = c
        return cols

    gens = [("C%d" % i, sparse_cols(C)) for i, C in enumerate(P.C)]
    gens += [("F%d" % a, sparse_cols(F)) for a, F in enumerate(P.F)]
    if with_u:
        gens.append(("U", sparse_cols(P.U)))
    ech = Echelon(pivot="min")
    words = []
    queue = []
    vec = {i: c for i, c in enumerate(zeta) if c}
    if ech.insert(dict(vec)):
        words.append(())
        queue.append((vec, ()))
    while queue and ech.rank < n:
        v, word = queue.pop(0)
        for label, cols in gens:
            w: dict = {}
            for j, c in v.items():
                for i, x in cols[j].items():
                    s = w.get(i, Fraction(0)) + c * x
                    if s:
                        w[i] = s
                    else:
                        del w[i]
            if w and ech.insert(dict(w)):
                words.append(word + (label,))
                queue.append((w, word + (label,)))
    return GCCertificate(ech.rank == n, words, ech.rank, n)


def ic_check(P: ConnectionPencil) -> dict:
    """Rank of t-direction -> C(0) applied to the distinguished vector."""
    m = len(P.t_vars)
    if m == 0:
        return {"ok": True, "rank": 0, "kernel": []}
    rows = [linalg.mat_vec(C.at_origin(), _unit_vector(P.n)) for C in P.C]
    rank = linalg.mat_rank(rows)
    # kernel: combinations of base directions killed by the map
    kernel = (linalg.nullspace([list(col) for col in zip(*rows)])
              if rank < m else [])
    return {"ok": rank == m, "rank": rank,
            "kernel": [[str(c) for c in v] for v in kernel]}


@dataclass
class UnfoldProblem:
    base: ConnectionPencil
    y_vars: tuple
    f: list
    order: int

    def __post_init__(self):
        self.y_vars = tuple(self.y_vars)
        if len(self.f) != self.base.n:
            raise ValueError("need one first-column function per frame row")


def _ydeg_le(M: SeriesMatrix, s: int, y_vars) -> SeriesMatrix:
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


def solve(problem: UnfoldProblem, trace: list | None = None) -> ConnectionPencil:
    """The unique unfolding with the prescribed first columns.

    Output agrees with the base at y=0, satisfies the full flatness system
    modulo the truncation order, and carries the first-column contract on
    its F-blocks exactly.
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
    gc = gc_check(base, with_u=True)
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


@dataclass
class UnfoldResult:
    pencil: ConnectionPencil
    frame: list
    f: list
    gc: GCCertificate
    ic: dict
    jacobian: list
    y_vars: tuple

    def jacobian_invertible(self) -> bool:
        try:
            linalg.mat_inverse(self.jacobian)
        except ValueError:
            return False
        return True


def _complete_basis(cols, n):
    """Greedily extend independent columns by standard basis vectors."""
    ech = Echelon(pivot="min")
    for c in cols:
        if not ech.insert({i: x for i, x in enumerate(c) if x}):
            raise ValueError("columns are dependent")
    extra = []
    for k in range(n):
        e = _unit_vector(n, k)
        if ech.insert({k: Fraction(1)}):
            extra.append(e)
    return extra


def universal_unfold(P: ConnectionPencil, zeta=None,
                     y_prefix: str = "y") -> UnfoldResult:
    """Unfold to a full-dimensional base with the period map as chart.

    The frame is rotated so the distinguished vector comes first, the new
    first-column functions are linear coordinates spanning a complement of
    the image of the injectivity map, and the resulting chart Jacobian is
    certified invertible at the origin.
    """
    if P.y_vars:
        raise RejectionError("pencil already carries unfolding directions")
    n = P.n
    if zeta is None:
        zeta = _unit_vector(n)
    zeta = [Fraction(c) for c in zeta]
    if all(c == 0 for c in zeta):
        raise RejectionError("distinguished vector is zero")
    frame_cols = [list(zeta)] + _complete_basis([zeta], n)
    B = linalg.transpose(frame_cols)
    Binv = linalg.mat_inverse(B)
    rot = ConnectionPencil(
        P.t_vars, (), n,
        [C.conjugate_const(B, Binv) for C in P.C], [],
        P.U.conjugate_const(B, Binv),
        P.V.conjugate_const(B, Binv),
        P.W.conjugate_const(B, Binv),
        P.order)
    ic = ic_check(rot)
    if not ic["ok"]:
        raise RejectionError("injectivity condition fails", {"ic": ic})
    gc = gc_check(rot, with_u=True)
    if not gc.ok:
        raise RejectionError("generation condition fails",
                             {"certificate": gc.to_json()})
    m = len(P.t_vars)
    image = [linalg.mat_vec(C.at_origin(), _unit_vector(n)) for C in rot.C]
    comp = _complete_basis(image, n)
    l = n - m
    if len(comp) != l:
        raise AssertionError("complement dimension mismatch")
    y_vars = tuple("%s%d" % (y_prefix, a + 1) for a in range(l))
    vars = P.t_vars + y_vars
    f = []
    for i in range(n):
        terms = {}
        for a, u in enumerate(comp):
            if u[i]:
                e = [0] * len(vars)
                e[m + a] = 1
                terms[tuple(e)] = u[i]
        # linear, hence exact at any order; one above the target is enough
        f.append(TruncSeries(vars, P.order + 1, terms))
    if l == 0:
        out = rot
    else:
        out = solve(UnfoldProblem(rot, y_vars, f, P.order))
    jac = [[rot.C[i].at_origin()[k][0] for i in range(m)]
           + [comp[a][k] for a in range(l)] for k in range(n)]
    return UnfoldResult(out, B, f, gc, ic, jac, y_vars)
