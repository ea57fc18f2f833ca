"""Connection pencils on the projective line times a base germ.

A pencil stores the five named coefficient blocks of the connection form

    (1/z) sum_i C_i dt_i  +  (1/z) sum_a F_a dy_a
       +  (U/z^2 + V/z + W/(z-1)) dz

in a frame of global sections flat at infinity.  z never becomes a series
variable: the fourteen flatness equations are expanded symbolically in the
pole structure and evaluated exactly on the series coefficients.

The pairing companion stores the z-power coefficients of z^(-weight) times
the Gram matrix of the flat pairing in the same frame, again exactly.

The generation (gc) and injectivity (ic) certificates of a pencil at the
origin, which the unfoldings and the pairing extension require of their
base, live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Echelon
from .series import (SeriesError, SeriesMatrix, TruncSeries, euler_integrate,
                     frac_to_str, require_int, require_order, require_square)
from .structures import (FrobeniusTypeStructure, RejectionError,
                         check_ftype_axioms, pairing_transport, violation)

__all__ = [
    "ConnectionPencil", "PairingMatrix", "GCCertificate", "gc_check",
    "ic_check", "origin_certificates", "flatness_residual", "is_flat",
    "potential_matrix", "reduced_flatness_check", "pairing_extension_check",
    "structure_connection", "pencil_to_ftype",
]


@dataclass
class ConnectionPencil:
    """Coefficient blocks of a rank-n pencil over base (t_vars, y_vars)."""

    t_vars: tuple
    y_vars: tuple
    n: int
    C: list
    F: list
    U: SeriesMatrix
    V: SeriesMatrix
    W: SeriesMatrix
    order: int

    def __post_init__(self):
        self.t_vars = tuple(self.t_vars)
        self.y_vars = tuple(self.y_vars)
        require_int("rank", self.n, 1)
        require_int("order", self.order, 0)
        if len(self.C) != len(self.t_vars) or len(self.F) != len(self.y_vars):
            raise SeriesError("coefficient blocks do not match the variables")
        for name, M in self.all_blocks():
            require_square(name, M, self.n, self.vars)
        require_order(self.order, self.all_blocks())

    @property
    def vars(self):
        return self.t_vars + self.y_vars

    def all_blocks(self):
        named = [("C[%d]" % i, m) for i, m in enumerate(self.C)]
        named += [("F[%d]" % a, m) for a, m in enumerate(self.F)]
        named += [("U", self.U), ("V", self.V), ("W", self.W)]
        return named

    def restrict_y0(self) -> "ConnectionPencil":
        """Restriction to y = 0, dropping the unfolding directions."""
        ys = self.y_vars
        return ConnectionPencil(
            self.t_vars, (), self.n,
            [c.restrict_zero(ys) for c in self.C], [],
            self.U.restrict_zero(ys), self.V.restrict_zero(ys),
            self.W.restrict_zero(ys), self.order)

    def to_json(self):
        return {
            "t_vars": list(self.t_vars),
            "y_vars": list(self.y_vars),
            "rank": self.n,
            "order": self.order,
            "C": [m.to_json() for m in self.C],
            "F": [m.to_json() for m in self.F],
            "U": self.U.to_json(),
            "V": self.V.to_json(),
            "W": self.W.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            tuple(obj["t_vars"]), tuple(obj["y_vars"]), obj["rank"],
            [SeriesMatrix.from_json(m) for m in obj["C"]],
            [SeriesMatrix.from_json(m) for m in obj["F"]],
            SeriesMatrix.from_json(obj["U"]),
            SeriesMatrix.from_json(obj["V"]),
            SeriesMatrix.from_json(obj["W"]),
            obj["order"])


@dataclass
class PairingMatrix:
    """z-power coefficients R_0..R_K of z^(-weight) times the Gram matrix.

    coeffs[k] is a SeriesMatrix over the pencil base; the certified claim
    is that the pairing takes values in z^weight times holomorphic
    functions, coefficient by coefficient up to z-order K.
    """

    weight: int
    coeffs: list

    def __post_init__(self):
        require_int("weight", self.weight)
        if not self.coeffs:
            raise SeriesError("a pairing needs at least one z-coefficient")
        for k, R in enumerate(self.coeffs):
            require_square("pairing coefficient %d" % k, R,
                           self.coeffs[0].rows, self.coeffs[0].vars)

    @property
    def z_order(self):
        return len(self.coeffs) - 1

    def symmetry_violations(self):
        """R(-z)^T = (-1)^weight R(z) reads R_k^T = (-1)^k R_k here."""
        out = []
        for k, R in enumerate(self.coeffs):
            violation(out, "pairing-symmetry", (k,),
                      R.transpose() - (R if k % 2 == 0 else -R))
        return out

    def gram_invertible(self) -> bool:
        R0 = self.coeffs[0]
        return linalg.mat_rank(R0.at_origin()) == R0.rows

    def restrict_y0(self, y_vars):
        return PairingMatrix(self.weight,
                             [R.restrict_zero(y_vars) for R in self.coeffs])

    def to_json(self):
        return {"weight": self.weight,
                "z_order": self.z_order,
                "coeffs": [R.to_json() for R in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        out = cls(obj["weight"],
                  [SeriesMatrix.from_json(R) for R in obj["coeffs"]])
        if obj["z_order"] != out.z_order:
            raise SeriesError("z_order %r, but %d z-coefficients give z_order "
                              "%d" % (obj["z_order"], len(out.coeffs),
                                      out.z_order))
        return out

    @classmethod
    def constant(cls, weight, g, vars, order, z_order):
        """The pairing z^weight * g of a structure connection."""
        R0 = SeriesMatrix.from_consts(g, vars, order)
        Z = SeriesMatrix.zeros(len(g), len(g), vars, order)
        return cls(weight, [R0] + [Z] * z_order)


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------


def _put(res: dict, eq, idx, r):
    if not r.is_zero():
        res.setdefault(eq, []).append((idx, r))


def _direction_pairs(P: ConnectionPencil):
    """(kind, (i, j), u, A, v, B) for the pairs of base directions u, v with
    blocks A, B: kind "tt" or "yy" when i < j, "ty" for all t_i and y_j."""
    t = list(zip(P.t_vars, P.C))
    y = list(zip(P.y_vars, P.F))
    for kind, us, vs in (("tt", t, t), ("ty", t, y), ("yy", y, y)):
        for i, (u, A) in enumerate(us):
            for j, (v, B) in enumerate(vs):
                if kind == "ty" or i < j:
                    yield kind, (i, j), u, A, v, B


def closedness_residual(P: ConnectionPencil) -> dict:
    """The closedness equations potential-tt, -ty and -yy of the one-form
    sum_i C_i dt_i + sum_a F_a dy_a, three of the fourteen equations of
    ``flatness_residual`` and in its format; empty at order 0."""
    res: dict = {}
    if P.order >= 1:
        for kind, idx, u, A, v, B in _direction_pairs(P):
            _put(res, "potential-" + kind, idx, A.partial(v) - B.partial(u))
    return res


def flatness_residual(P: ConnectionPencil) -> dict:
    """All fourteen coefficient equations of the flatness of the pencil.

    Returns {equation id: [(indices, residual matrix), ...]} keeping only
    the nonzero residuals; an empty dict means flat modulo the order.
    """
    res = closedness_residual(P)
    U, V, W = P.U, P.V, P.W
    for kind, idx, _, A, _, B in _direction_pairs(P):
        _put(res, "higgs-commute-" + kind, idx, A.commutator(B))
    for kind, vs, blocks in (("t", P.t_vars, P.C), ("y", P.y_vars, P.F)):
        for i, (v, B) in enumerate(zip(vs, blocks)):
            _put(res, "u-commute-" + kind, (i,), B.commutator(U))
            if P.order >= 1:
                _put(res, "u-transport-" + kind, (i,),
                     U.partial(v) - V.commutator(B) + B)
                _put(res, "w-transport-" + kind, (i,),
                     W.partial(v) - W.commutator(B))
                _put(res, "v-transport-" + kind, (i,),
                     V.partial(v) + W.commutator(B))
    return res


def is_flat(P: ConnectionPencil) -> bool:
    return not flatness_residual(P)


def residual_report(res: dict) -> list:
    """The records of a residual dictionary, one per failed equation."""
    out = []
    for eq, items in sorted(res.items()):
        for idx, r in items:
            violation(out, eq, idx, r)
    return out


# ---------------------------------------------------------------------------
# generation and injectivity certificates at the origin
# ---------------------------------------------------------------------------


@dataclass
class GCCertificate:
    ok: bool
    words: list
    rank: int
    n: int

    def to_json(self):
        return {"ok": self.ok, "rank": self.rank, "n": self.n,
                "words": [list(w) for w in self.words]}


def gc_check(P: ConnectionPencil) -> GCCertificate:
    """Breadth-first span of the fiber at the origin from the distinguished
    (first) frame vector under the constant terms of the C, F and U blocks.

    Returns spanning words (sequences of generator labels, applied left to
    right) when the span is everything, or the reached rank otherwise.
    Generator matrices are applied sparsely, so large mostly-empty
    multiplication operators stay cheap.
    """
    n = P.n

    def sparse_cols(M):
        cols = [{} for _ in range(n)]
        for (i, j), x in M.nonzero().items():
            c = x.constant_term
            if c:
                cols[j][i] = c
        return cols

    gens = [("C%d" % i, sparse_cols(C)) for i, C in enumerate(P.C)]
    gens += [("F%d" % a, sparse_cols(F)) for a, F in enumerate(P.F)]
    gens.append(("U", sparse_cols(P.U)))
    ech = Echelon(pivot="min")
    ech.insert({0: Fraction(1)})
    words = [()]
    queue = [({0: Fraction(1)}, ())]
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
    rows = [[x.constant_term for x in C.column(0)] for C in P.C]
    rank = linalg.mat_rank(rows)
    # kernel: combinations of base directions killed by the map
    kernel = (linalg.nullspace([list(col) for col in zip(*rows)])
              if rank < m else [])
    return {"ok": rank == m, "rank": rank,
            "kernel": [[str(c) for c in v] for v in kernel]}


def origin_certificates(P: ConnectionPencil):
    """The gc and ic certificates of P, generation first; a failing one is
    refused, as the construction requires both of its base."""
    gc = gc_check(P)
    if not gc.ok:
        raise RejectionError("generation condition fails",
                             {"certificate": gc.to_json()})
    ic = ic_check(P)
    if not ic["ok"]:
        raise RejectionError("injectivity condition fails", {"ic": ic})
    return gc, ic


# ---------------------------------------------------------------------------
# potential matrix and the reduced equation set
# ---------------------------------------------------------------------------


def potential_matrix(P: ConnectionPencil) -> SeriesMatrix:
    """The unique A with A(0)=0, dA/dt_i = C_i and dA/dy_a = F_a.

    Requires the closedness equations among the fourteen; the result is
    exact one order beyond the pencil order.
    """
    viol = residual_report(closedness_residual(P))
    if viol:
        raise RejectionError("pencil one-form is not closed",
                             {"violations": viol})
    if not P.vars:
        return SeriesMatrix.zeros(P.n, P.n, P.vars, P.order)
    return euler_integrate(dict(zip(P.vars, list(P.C) + list(P.F))))


def reduced_flatness_check(P: ConnectionPencil) -> dict:
    """Constancy of V+W, the integrated form of U, and the reduced
    sufficient equation set.

    Returns a report dict; "passes" is True iff every part vanished.
    """
    report: dict = {"passes": True}
    VW = P.V + P.W
    res_inf = VW.at_origin()
    _fail(report, "residue-at-infinity-nonconstant",
          VW - SeriesMatrix.from_consts(res_inf, P.vars, VW.order))
    report["residue_at_infinity"] = [[frac_to_str(c) for c in row]
                                     for row in res_inf]

    A = potential_matrix(P)
    ys = P.y_vars
    if ys:
        def unfolded_part(M):
            return M - M.restrict_zero(ys).extend(P.vars)

        Ares = unfolded_part(A).truncate(P.order)
        RES = SeriesMatrix.from_consts(res_inf, P.vars, P.order)
        rhs = RES.commutator(Ares) - Ares - unfolded_part(P.W)
        _fail(report, "integrated-u-formula", unfolded_part(P.U) - rhs)
    # reduced sufficient set: the y-direction commutation and W-transport
    # equations in full, the rest restricted to y = 0
    full = flatness_residual(P)
    reduced: dict = {}
    for eq in ("higgs-commute-ty", "u-commute-y", "w-transport-y"):
        if eq in full:
            reduced[eq] = full[eq]
    base = flatness_residual(P.restrict_y0())
    for eq in ("higgs-commute-tt", "u-commute-t", "u-transport-t",
               "w-transport-t"):
        if eq in base:
            reduced[eq + "@y=0"] = base[eq]
    _fail(report, "reduced-set-residuals", residual_report(reduced))
    return report


# ---------------------------------------------------------------------------
# pairing transport
# ---------------------------------------------------------------------------


def _z_direction_residuals(P: ConnectionPencil, R: PairingMatrix) -> list:
    """Coefficients of the z-direction transport of the pairing.

    For each z-power k < K the identity reads

      (w + k) R_k = U^T R_{k+1} - R_{k+1} U + V^T R_k + R_k V
                    - sum_{j>=1} W^T R_{k-j} + sum_{j>=1} (-1)^(j-1) R_{k-j} W.
    """
    out = []
    w = R.weight
    Rs = R.coeffs
    U, V, W = P.U, P.V, P.W
    Vt, Wt = V.transpose(), W.transpose()
    # the z^(w-1) coefficient: nothing on the left, so the transport along
    # the irregular part must vanish outright
    violation(out, "z-transport", (-1,), -pairing_transport(U, Rs[0]))
    for k in range(R.z_order):
        # the left side less the right side: the U part is the transport
        # of R_(k+1) along U
        terms = [(1, Rs[k], TruncSeries.const(Rs[k].vars, Rs[k].order, w + k)),
                 (-1, Vt, Rs[k]), (-1, Rs[k], V)]
        for j in range(1, k + 1):
            terms += [(1, Wt, Rs[k - j]), (-1 if j % 2 else 1, Rs[k - j], W)]
        violation(out, "z-transport", (k,),
                  SeriesMatrix.sum_of_products(terms)
                  - pairing_transport(U, Rs[k + 1]))
    return out


def _base_direction_residuals(P: ConnectionPencil, R: PairingMatrix) -> list:
    """d/du R_k = B^T R_{k+1} - R_{k+1} B for every base coordinate u with
    block B and k = -1..K-1, where R_{-1} = 0: at k = -1 the transport
    must not create a z^(w-1) term.  At order 0 no derivative is left, so
    only k = -1 is checked."""
    out = []
    blocks = list(zip(P.vars, list(P.C) + list(P.F)))
    for k in range(-1, R.z_order if P.order >= 1 else 0):
        for v, B in blocks:
            rhs = pairing_transport(B, R.coeffs[k + 1])
            violation(out, "base-transport", (k, v),
                      R.coeffs[k].partial(v) - rhs if k >= 0 else -rhs)
    return out


def _fail(report: dict, key: str, found) -> None:
    """File failure records under report[key] and clear report["passes"].

    found is a list of records, or one residual that becomes the record
    of check key; an empty list or a zero residual files nothing.
    """
    if not isinstance(found, list):
        records: list = []
        violation(records, key, (), found)
        found = records
    if found:
        report["passes"] = False
        report[key] = found


def pairing_extension_check(P: ConnectionPencil, R0: PairingMatrix,
                            z_order: int) -> dict:
    """Extend a pairing given at y=0 over the unfolding directions and
    certify that it stays in z^weight times holomorphic.

    R0 must carry z-coefficients up to z_order + order (the transport in
    the unfolding directions consumes one z-order per y-degree).  Returns
    a report with the extended PairingMatrix on success; a failed base
    check or a non-flat pencil (``pencil-flatness``) stops the check, and
    the extended pairing is certified by the same transport checks as the
    base, among them the z^(weight-1) coefficient along every direction.
    """
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
    _fail(report, "base-z-transport", _z_direction_residuals(base, R0))
    _fail(report, "base-t-transport", _base_direction_residuals(base, R0))
    if not report["passes"]:
        return report
    _fail(report, "pencil-flatness", residual_report(flatness_residual(P)))
    if not report["passes"]:
        return report

    ys = P.y_vars
    coeffs = [R.extend(P.vars) for R in R0.coeffs]
    if ys:
        for s in range(1, N + 1):
            # slice s of R_k integrates slice s - 1 of its y-transport
            top = need - s
            new = []
            for k in range(top + 1):
                upd = euler_integrate({v: pairing_transport(Fa, coeffs[k + 1])
                                       .graded_part(s - 1, names=ys)
                                       for v, Fa in zip(ys, P.F)})
                new.append(coeffs[k] + upd.truncate(coeffs[k].order))
            coeffs = new + coeffs[top + 1:]
    # only the first z_order+1 coefficients are fully extended in y; the
    # deeper ones were consumed by the transport, so certification stops
    # at the requested window
    R = PairingMatrix(R0.weight, coeffs[:z_order + 1])
    _fail(report, "extended-symmetry", R.symmetry_violations())
    _fail(report, "extended-z-transport", _z_direction_residuals(P, R))
    _fail(report, "extended-base-transport", _base_direction_residuals(P, R))
    if report["passes"]:
        report["pairing"] = R
    return report


# ---------------------------------------------------------------------------
# structure connections (the pencil of a Frobenius type structure)
# ---------------------------------------------------------------------------


def _flip_v(V, w):
    """-V + (w/2) id: the V block of the structure connection of weight w
    from the flat endomorphism, and back (the map is an involution)."""
    half = Fraction(w, 2)
    return [[-Fraction(x) + (half if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(V)]


def structure_connection(F: FrobeniusTypeStructure, w: int, z_order: int = 0):
    """Pencil and pairing attached to a Frobenius type structure.

    In the flat frame: the t-blocks are the Higgs matrices, U is the first
    endomorphism, V = -(flat endomorphism) + (w/2) id, W = 0, and the
    pairing is z^w times the metric (all higher z-coefficients vanish, so
    any requested z_order is available exactly).  Flatness follows from
    the axioms checked here: with W = 0, constant V and no y-directions,
    each of the fourteen flatness equations is either one of the axioms
    higgs-commute, higgs-potential, u-higgs-commute and u-transport, or
    vanishes identically.
    """
    viol = check_ftype_axioms(F)
    if viol:
        raise RejectionError("structure axioms fail",
                             {"violations": viol})
    n = F.n
    vars = F.vars
    order = F.order
    P = ConnectionPencil(
        vars, (), n, list(F.C), [],
        F.U,
        SeriesMatrix.from_consts(_flip_v(F.V, w), vars, order),
        SeriesMatrix.zeros(n, n, vars, order),
        order)
    R = PairingMatrix.constant(w, F.g, vars, order, z_order=z_order)
    return P, R


def pencil_to_ftype(P: ConnectionPencil, R: PairingMatrix) -> FrobeniusTypeStructure:
    """Read the Frobenius type structure back off a structure connection.

    All base coordinates are treated uniformly; requires W = 0, constant V
    (flatness of the residue at infinity) and an invertible constant Gram
    matrix.
    """
    if not P.W.is_zero():
        raise RejectionError("pencil has a pole at z=1; not a structure "
                             "connection")
    if not P.V.is_constant():
        raise RejectionError("V block is not constant; residue at infinity "
                             "is not flat")
    g = R.coeffs[0]
    if not g.is_constant():
        raise RejectionError("Gram matrix of the pairing is not constant "
                             "in the flat frame")
    F = FrobeniusTypeStructure(
        P.vars, P.n, list(P.C) + list(P.F), P.U,
        _flip_v(P.V.at_origin(), R.weight), g.at_origin(),
        P.order)
    return F
