"""Order-by-order unfolding of flat pencils over new base directions.

Given a flat pencil in the t-directions and target first-column functions
f_1..f_n vanishing at y=0, the unique unfolding is built degree by degree
in y: at each total y-degree the new F-blocks are assembled inside the
commutative algebra generated by the current C-blocks and U (solving for
matrices with prescribed first columns), and the remaining blocks are
obtained by radial integration of their transport equations.  Every block
is held as its list of y-degree slices, and stage s computes only slice s,
from products of lower slices (see ``solve``).  The finished pencil is
certified once, on all fourteen flatness equations, and a nonzero
residual is a hard failure.

The universal unfolding that picks coordinates making the period map the
identity chart lives here too.  ``solve`` requires a flat base with the
generation certificate of ``pencil``, and ``universal_unfold`` requires
the generation and injectivity certificates on its base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Echelon
from .pencil import (ConnectionPencil, GCCertificate, flatness_residual,
                     gc_check, ic_check, origin_certificates, residual_report)
from .series import (SeriesError, SeriesMatrix, TruncSeries, euler_integrate,
                     require_int, slice_sum, slice_terms)
from .structures import RejectionError

# the certificates live in ``pencil``; they are re-exported here, where
# they certify the base of an unfolding
__all__ = [
    "GCCertificate", "gc_check", "ic_check", "UnfoldProblem", "solve",
    "universal_unfold", "UnfoldResult", "zeta_frame", "zeta_rotation",
]


def _unit_vector(n, k=0):
    return [Fraction(int(i == k)) for i in range(n)]


@dataclass
class UnfoldProblem:
    base: ConnectionPencil
    y_vars: tuple
    f: list
    order: int

    def __post_init__(self):
        self.y_vars = tuple(self.y_vars)
        require_int("order", self.order, 0)
        if len(self.f) != self.base.n:
            raise SeriesError("need one first-column function per frame row")
        vars = self.base.t_vars + self.y_vars
        self.f = [fi if fi.vars == vars else fi.extend(vars)
                  for fi in self.f]


def _slice_mul(A, B, s):
    """Slice s of A @ B from the y-degree slices A[0..s] and B[0..s]."""
    return SeriesMatrix.sum_of_products(slice_terms(A, B, s))


def _slice_commutator(A, B, s):
    return SeriesMatrix.sum_of_products(slice_terms(A, B, s)
                                        + slice_terms(B, A, s, -1))


def _nterms(M: SeriesMatrix) -> int:
    return sum(len(x.packed_terms) for x in M.nonzero().values())


def _y_degree(M: SeriesMatrix, y_vars) -> int:
    """The lowest y-degree of a nonzero matrix."""
    d = 0
    while M.graded_part(d, names=y_vars).is_zero():
        d += 1
    return d


def solve(problem: UnfoldProblem, trace: list | None = None) -> ConnectionPencil:
    """The unique unfolding with the prescribed first columns.

    Output agrees with the base at y=0, satisfies the full flatness system
    modulo the truncation order, and carries the first-column contract on
    its F-blocks exactly.

    Every block is kept as its list of y-degree slices (slice d is the
    part of y-degree exactly d, at the full total order N), and stage s
    computes slice s only; the slices below it are final.  With A^(d) for
    slice d and W_w for the matrix of the generation word w:

    - W_w^(s) = sum_d L^(d) @ W_w'^(s-d) for w = w'.L (the words are
      prefix-closed, so w' comes first);
    - M^(s) holds the first columns of the W_w^(s);
    - X = M^-1: X^(0) = (M^(0))^-1 and, for s > 0,
      X^(s) = -X^(0) @ sum_{k=1..s} M^(k) @ X^(s-k);
    - E_k^(s) = sum_j sum_d W_j^(d) * X[j,k]^(s-d);
    - F_a^(s) = sum_i sum_d E_i^(d) * (df_i/dy_a)^(s-d).

    Radial integration then gives slice s+1 of C, U, V and W from slice s
    of their transport equations.  The output blocks are the sums of their
    slices.  The first-column contract is checked on each slice; every
    other equation is certified once, on the finished pencil, by all
    fourteen equations of ``flatness_residual``.  A failure raises an
    ``AssertionError`` naming each failing equation with its lowest
    y-degree.
    """
    base = problem.base
    if base.y_vars:
        raise RejectionError("base pencil must not already carry unfolding "
                             "directions")
    res = flatness_residual(base)
    if res:
        raise RejectionError("base pencil is not flat",
                             {"violations": residual_report(res)})
    n = base.n
    N = problem.order
    t_vars = base.t_vars
    y_vars = problem.y_vars
    vars = t_vars + y_vars
    for i, fi in enumerate(problem.f):
        # only the y-derivatives of the first-column functions enter, so
        # they must carry one more order than the target
        if fi.order < N + 1:
            raise RejectionError("f_%d carries too little precision "
                                 "(order %d < %d)" % (i + 1, fi.order, N + 1))
        # f counts up to order N + 1 only: a pure-t term above it is
        # dropped, not refused
        if not fi.restrict_zero(y_vars).truncate(N + 1).is_zero():
            raise RejectionError("f_%d does not vanish at y=0" % (i + 1))
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

    zero = SeriesMatrix.zeros(n, n, vars, N)
    C = [[prep(M)] for M in base.C]
    U, V, W = [prep(base.U)], [prep(base.V)], [prep(base.W)]
    F: list = [[] for _ in y_vars]
    E: list = [[] for _ in range(n)]
    X: list = []
    Ms: list = []
    label_to = {"C%d" % i: C[i] for i in range(len(C))}
    label_to["U"] = U
    wpos = {w: j for j, w in enumerate(words)}
    wmats: list = [[] for _ in words]
    # (df_i/dy_a)^(d) for every d <= N
    dfs = [[[d_ia.graded_part(d, names=y_vars) for d in range(N + 1)]
            for d_ia in (fi.partial(yv) for yv in y_vars)]
           for fi in problem.f]

    def bump(parts):
        """Radial integral in y of the slices parts[a] = d/dy_a."""
        if not y_vars:
            return zero
        return euler_integrate(dict(zip(y_vars, parts))).truncate(N)

    for s in range(N + 1):
        for wm, word in zip(wmats, words):
            if not word:
                wm.append(SeriesMatrix.identity(n, vars, N) if s == 0
                         else zero)
            else:
                wm.append(_slice_mul(label_to[word[-1]],
                                    wmats[wpos[word[:-1]]], s))
        Ms.append(SeriesMatrix([[wmats[j][s][i, 0] for j in range(n)]
                                for i in range(n)]))
        if s == 0:
            X.append(Ms[0].inverse_series())
        else:
            X.append(-(X[0] @ SeriesMatrix.sum_of_products(
                [(1, Ms[k], X[s - k]) for k in range(1, s + 1)])))
        for k in range(n):
            E[k].append(SeriesMatrix.sum_of_products(
                [(1, wmats[j][d], X[s - d][j, k])
                 for j in range(n) for d in range(s + 1)]))
        for a in range(len(y_vars)):
            F[a].append(SeriesMatrix.sum_of_products(
                [(1, E[i][d], dfs[i][a][s - d])
                 for i in range(n) for d in range(s + 1)]))
        if any(not (F[a][s][i, 0] - dfs[i][a][s]).is_zero()
               for a in range(len(y_vars)) for i in range(n)):
            raise AssertionError("unfolding induction failed: first-column "
                                 "contract at y-degree %d" % s)
        if trace is not None:
            trace.append({
                "y_degree": s,
                "E": [slice_sum(Ek).to_json() for Ek in E],
                "F": [slice_sum(Fa).to_json() for Fa in F],
                "nterms": {"E": [_nterms(Ek[s]) for Ek in E],
                           "F": [_nterms(Fa[s]) for Fa in F]},
            })
        if s == N:
            break
        # radial integration of the transport equations for degree s+1
        for i, tv in enumerate(t_vars):
            C[i].append(bump([Fa[s].partial(tv) for Fa in F]))
        updU = bump([_slice_commutator(V, Fa, s) - Fa[s] for Fa in F])
        updW = bump([_slice_commutator(W, Fa, s) for Fa in F])
        U.append(updU)
        W.append(updW)
        V.append(-updW)

    out = ConnectionPencil(t_vars, y_vars, n, [slice_sum(Ci) for Ci in C],
                           [slice_sum(Fa) for Fa in F], slice_sum(U),
                           slice_sum(V), slice_sum(W), N)
    leftover = flatness_residual(out)
    if leftover:
        raise AssertionError("unfolding induction failed: %s" % ", ".join(
            "%s at y-degree %d" % (eq, min(_y_degree(r, y_vars)
                                           for _, r in items))
            for eq, items in sorted(leftover.items())))
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
        return linalg.mat_rank(self.jacobian) == len(self.jacobian)


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


def zeta_frame(zeta, n):
    """The frame B = [zeta | standard completion] and its inverse."""
    B = linalg.transpose([list(zeta)] + _complete_basis([list(zeta)], n))
    return B, linalg.mat_inverse(B)


def zeta_rotation(zeta, n):
    """The frame (B, B^-1) of ``zeta_frame`` for a distinguished vector, or
    None when zeta is None or already the first frame vector, which needs
    no rotation; a zero vector is refused."""
    if zeta is None:
        return None
    zeta = [Fraction(c) for c in zeta]
    if not any(zeta):
        raise RejectionError("distinguished vector is zero")
    return None if zeta == _unit_vector(n) else zeta_frame(zeta, n)


def universal_unfold(P: ConnectionPencil, zeta=None) -> UnfoldResult:
    """Unfold to a full-dimensional base with the period map as chart.

    The frame is rotated so the distinguished vector comes first, the new
    first-column functions are linear coordinates spanning a complement of
    the image of the injectivity map, and the resulting chart Jacobian is
    certified invertible at the origin.
    """
    if P.y_vars:
        raise RejectionError("pencil already carries unfolding directions")
    n = P.n
    frame = zeta_rotation(zeta, n)
    if frame is None:
        rot, B = P, linalg.identity(n)
    else:
        B, Binv = frame
        rot = ConnectionPencil(
            P.t_vars, (), n,
            [C.conjugate_const(B, Binv) for C in P.C], [],
            P.U.conjugate_const(B, Binv),
            P.V.conjugate_const(B, Binv),
            P.W.conjugate_const(B, Binv),
            P.order)
    gc, ic = origin_certificates(rot)
    m = len(P.t_vars)
    image = [[x.constant_term for x in C.column(0)] for C in rot.C]
    comp = _complete_basis(image, n)
    l = n - m
    if len(comp) != l:
        raise AssertionError("complement dimension mismatch")
    y_vars = tuple("y%d" % (a + 1) for a in range(l))
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
    # with l == 0 too: solve certifies the base and truncates it to its order
    out = solve(UnfoldProblem(rot, y_vars, f, P.order))
    jac = linalg.transpose(image + comp)
    return UnfoldResult(out, B, f, gc, ic, jac, y_vars)
