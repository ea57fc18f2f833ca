"""Frobenius type structures and variations of filtrations.

A Frobenius type structure lives on a trivialized bundle over a base germ:
in the flat frame the residual connection is the plain derivative, the
Higgs field is a tuple of series matrices, the two endomorphisms are a
series matrix and a constant matrix, and the pairing is a constant
symmetric matrix.  The filtration side of the dictionary keeps the same
frame with an integer level attached to each frame vector; the connection
matrix may move a level down by one (Higgs part) or preserve it
(residual part), and the constant pairing couples complementary levels.

Conversions both ways, the one-parameter shift-operator family of
filtration examples, and the bridge from graded Jacobi algebras are all
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .jacobi import JacobiAlgebra, JacobiFamily
from .series import (SeriesError, SeriesMatrix, TruncSeries,
                     euler_integrate, frac_from_str, frac_to_str, key_degree,
                     require_int, require_order, require_square)

__all__ = [
    "FrobeniusTypeStructure", "FiltrationData", "RejectionError",
    "violation", "pairing_transport", "check_ftype_axioms",
    "ftype_to_filtration", "filtration_to_ftype", "shift_example",
    "jacobi_to_filtration",
]


class RejectionError(ValueError):
    """A precondition of a conversion failed; carries a structured report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report or {}


def violation(out: list, check: str, indices=(), residual=None) -> bool:
    """Append the record {check, indices, residual} of a failed identity.

    This is the one place such a record is built.  A series or matrix
    residual is stored as its JSON, with its lowest total degree under
    ``lowest_degree`` and its number of terms under ``nterms``, and a zero
    one appends nothing; any other detail (a constant matrix, "singular",
    expected and observed values) is stored as given.  Returns whether a
    record was appended.
    """
    summary = {}
    if isinstance(residual, (TruncSeries, SeriesMatrix)):
        if residual.is_zero():
            return False
        entries = ([residual] if isinstance(residual, TruncSeries)
                   else residual.nonzero().values())
        keys = [k for x in entries for k in x.packed_terms]
        # keys sort by degree first, so the least key has the least degree
        summary = {"lowest_degree": key_degree(min(keys), len(residual.vars)),
                   "nterms": len(keys)}
        residual = residual.to_json()
    out.append({"check": check, "indices": list(indices),
                "residual": residual, **summary})
    return True


def pairing_transport(B: SeriesMatrix, R: SeriesMatrix) -> SeriesMatrix:
    """B^T R - R B, the transport of a pairing R along the endomorphism B;
    it vanishes exactly when B is self-adjoint for R."""
    return SeriesMatrix.sum_of_products([(1, B.transpose(), R), (-1, R, B)])


def _const_to_json(mat):
    return [[frac_to_str(Fraction(c)) for c in row] for row in mat]


def _const_from_json(obj):
    return [[frac_from_str(c) for c in row] for row in obj]


@dataclass
class FrobeniusTypeStructure:
    """(K, flat frame, C, U, V, g) over a base germ with coordinates vars.

    C has one matrix per base coordinate; V and g are constant (V is flat,
    g is flat) while U may genuinely depend on the base point.
    """

    vars: tuple
    n: int
    C: list
    U: SeriesMatrix
    V: list
    g: list
    order: int

    def __post_init__(self):
        self.vars = tuple(self.vars)
        n = require_int("rank", self.n, 1)
        require_int("order", self.order, 0)
        if len(self.C) != len(self.vars):
            raise SeriesError("need one Higgs matrix per base coordinate")
        for i, C in enumerate(self.C):
            require_square("higgs[%d]" % i, C, n, self.vars)
        require_square("u_endo", self.U, n, self.vars)
        require_square("v_endo", self.V, n)
        require_square("pairing", self.g, n)
        require_order(self.order, [("higgs[%d]" % i, C) for i, C in
                                   enumerate(self.C)] + [("u_endo", self.U)])

    def umat_is_zero(self) -> bool:
        return self.U.is_zero()

    def restrict_order(self, order):
        return FrobeniusTypeStructure(
            self.vars, self.n, [c.truncate(order) for c in self.C],
            self.U.truncate(order), self.V, self.g, order)

    def to_json(self):
        return {
            "vars": list(self.vars),
            "rank": self.n,
            "order": self.order,
            "higgs": [c.to_json() for c in self.C],
            "u_endo": self.U.to_json(),
            "v_endo": _const_to_json(self.V),
            "pairing": _const_to_json(self.g),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            tuple(obj["vars"]), obj["rank"],
            [SeriesMatrix.from_json(c) for c in obj["higgs"]],
            SeriesMatrix.from_json(obj["u_endo"]),
            _const_from_json(obj["v_endo"]),
            _const_from_json(obj["pairing"]),
            obj["order"])


@dataclass
class FiltrationData:
    """Flat bundle with level grading, connection Gamma and pairing S.

    levels[k] is the level of the k-th frame vector; Gamma has one matrix
    per base coordinate and must move levels down by at most one; S is the
    constant (-1)^weight-symmetric pairing coupling levels p and weight-p.
    """

    vars: tuple
    n: int
    weight: int
    levels: list
    Gamma: list
    S: list
    order: int

    def __post_init__(self):
        self.vars = tuple(self.vars)
        n = require_int("rank", self.n, 1)
        require_int("order", self.order, 0)
        require_int("weight", self.weight)
        if len(self.levels) != n:
            raise SeriesError("need one level per frame vector")
        for p in self.levels:
            require_int("level", p)
        if len(self.Gamma) != len(self.vars):
            raise SeriesError("need one gamma matrix per base coordinate")
        for i, G in enumerate(self.Gamma):
            require_square("gamma[%d]" % i, G, n, self.vars)
        require_order(self.order, [("gamma[%d]" % i, G)
                                   for i, G in enumerate(self.Gamma)])
        if self.S is not None:
            require_square("pairing", self.S, n)

    def to_json(self):
        return {
            "vars": list(self.vars),
            "rank": self.n,
            "weight": self.weight,
            "levels": list(self.levels),
            "order": self.order,
            "gamma": [g.to_json() for g in self.Gamma],
            "pairing": _const_to_json(self.S) if self.S is not None else None,
        }

    @classmethod
    def from_json(cls, obj):
        S = obj.get("pairing")
        return cls(
            tuple(obj["vars"]), obj["rank"], obj["weight"],
            list(obj["levels"]),
            [SeriesMatrix.from_json(g) for g in obj["gamma"]],
            _const_from_json(S) if S is not None else None,
            obj["order"])


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def check_ftype_axioms(F: FrobeniusTypeStructure) -> list:
    """Evaluate every defining identity exactly modulo the truncation order.

    Returns a list of violation records; empty means the structure is a
    Frobenius type structure to the stated order.
    """
    out = []
    g = F.g
    gt = linalg.transpose(g)
    if gt != g:
        violation(out, "pairing-symmetric", (), _const_to_json(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(gt, g)]))
    if linalg.mat_rank(g) != len(g):
        violation(out, "pairing-invertible", (), "singular")

    gS = SeriesMatrix.from_consts(g, F.vars, F.order)
    VS = SeriesMatrix.from_consts(F.V, F.vars, F.order)
    can_diff = F.order >= 1

    for i in range(len(F.vars)):
        for j in range(i + 1, len(F.vars)):
            violation(out, "higgs-commute", (i, j),
                      F.C[i].commutator(F.C[j]))
            if can_diff:
                violation(out, "higgs-potential", (i, j),
                          F.C[i].partial(F.vars[j])
                          - F.C[j].partial(F.vars[i]))
    for i in range(len(F.vars)):
        violation(out, "u-higgs-commute", (i,), F.C[i].commutator(F.U))
        # transport of the first endomorphism along the base
        if can_diff:
            violation(out, "u-transport", (i,), F.U.partial(F.vars[i])
                      - F.C[i].commutator(VS) + F.C[i])
        violation(out, "pairing-higgs", (i,), pairing_transport(F.C[i], gS))
    violation(out, "pairing-u", (), pairing_transport(F.U, gS))
    rv = [[a + b for a, b in zip(r1, r2)] for r1, r2 in
          zip(linalg.mat_mul(linalg.transpose(F.V), g),
              linalg.mat_mul(g, F.V))]
    if any(any(row) for row in rv):
        violation(out, "pairing-v-skew", (), _const_to_json(rv))
    return out


def check_filtration(D: FiltrationData) -> list:
    """Level structure, flatness and pairing conditions, exactly."""
    out = []
    lv = D.levels
    n = D.n
    for a, G in enumerate(D.Gamma):
        for k, l in G.nonzero():
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


# ---------------------------------------------------------------------------
# the dictionary between the two presentations
# ---------------------------------------------------------------------------


def _v_spectrum(V, w):
    """Eigen-decomposition of the constant matrix V, eigenvalues expected
    in w/2 + Z.  Returns (levels per new frame vector, basis, basis_inv)
    or raises with the observed spectrum."""
    n = len(V)
    if all(V[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        # already diagonal: keep the frame order untouched
        levels = []
        for i in range(n):
            lam = Fraction(V[i][i])
            p = lam + Fraction(w, 2)
            if p.denominator != 1:
                raise RejectionError(
                    "eigenvalue %s of the flat endomorphism is not in "
                    "weight/2 + Z" % lam,
                    {"spectrum": [frac_to_str(Fraction(V[k][k]))
                                  for k in range(n)]})
            levels.append(int(p))
        return levels, linalg.identity(n), linalg.identity(n)
    bound = max(sum(abs(c) for c in row) for row in V)
    cols = []
    levels = []
    k = 0
    klo = math.floor(-bound - Fraction(w, 2))
    khi = math.ceil(bound - Fraction(w, 2))
    for step in range(klo, khi + 1):
        lam = Fraction(w, 2) + step
        A = [[V[i][j] - (lam if i == j else 0) for j in range(n)]
             for i in range(n)]
        for vec in linalg.nullspace(A):
            cols.append(vec)
            levels.append(int(lam + Fraction(w, 2)))
            k += 1
        if k == n:
            break
    if k != n:
        raise RejectionError(
            "flat endomorphism is not semisimple with eigenvalues in "
            "weight/2 + Z (found %d of %d)" % (k, n),
            {"found": k, "rank": n})
    basis = linalg.transpose(cols)
    return levels, basis, linalg.mat_inverse(basis)


def ftype_to_filtration(F: FrobeniusTypeStructure, w: int) -> FiltrationData:
    """Dictionary direction that trades (U=0, semisimple V) for levels."""
    if not F.umat_is_zero():
        raise RejectionError("first endomorphism must vanish for the "
                             "filtration dictionary")
    levels, basis, basis_inv = _v_spectrum(F.V, w)
    Gamma = [c.conjugate_const(basis, basis_inv) for c in F.C]
    gp = linalg.mat_mul(linalg.mat_mul(linalg.transpose(basis), F.g), basis)
    S = [[(-1) ** levels[k] * gp[k][l] for l in range(F.n)]
         for k in range(F.n)]
    D = FiltrationData(F.vars, F.n, w, levels, Gamma, S, F.order)
    viol = check_filtration(D)
    if viol:
        raise RejectionError("converted data violates the filtration "
                             "conditions", {"violations": viol})
    return D


def _gauge_flat_frame(Bs, vars, order, n):
    """Solve dG = -(sum B_i dt_i) G with G(0) = id, degree by degree."""
    G = SeriesMatrix.identity(n, vars, order)
    for s in range(1, order + 1):
        G = G + euler_integrate({v: (-(B @ G)).graded_part(s - 1)
                                 for v, B in zip(vars, Bs)}).truncate(order)
    return G


def filtration_to_ftype(D: FiltrationData):
    """Split the connection into residual and Higgs parts and gauge the
    residual part away; returns (structure, gauge)."""
    if D.S is None:
        raise RejectionError("filtration data has no pairing")
    n, lv = D.n, D.levels
    lower, keep, bad = [], [], []
    for a, G in enumerate(D.Gamma):
        down, level = {}, {}
        for (k, l), e in G.nonzero().items():
            if lv[k] == lv[l] - 1:
                down[k, l] = e
            elif lv[k] == lv[l]:
                level[k, l] = e
            else:
                violation(bad, "griffiths-transversality", (a, k, l),
                          {"from_level": lv[l], "to_level": lv[k]})
        lower.append(SeriesMatrix.from_sparse(n, n, D.vars, D.order, down))
        keep.append(SeriesMatrix.from_sparse(n, n, D.vars, D.order, level))
    if bad:
        raise RejectionError("connection moves levels by more than one "
                             "step down", {"violations": bad})
    if all(B.is_zero() for B in keep):
        # connection already purely level-lowering: no gauge needed and no
        # order is lost
        gauge = SeriesMatrix.identity(n, D.vars, D.order)
        C = list(lower)
    else:
        gauge = _gauge_flat_frame(keep, D.vars, D.order, n)
        ginv = gauge.inverse_series()
        C = []
        for a, G in enumerate(D.Gamma):
            full = ginv @ (G @ gauge + gauge.partial(D.vars[a]))
            # the residual (level-preserving) part must be gone now
            if any(lv[k] == lv[l] for k, l in full.nonzero()):
                raise AssertionError("gauge did not remove the "
                                     "level-preserving part")
            C.append(full)
    V = [[Fraction(lv[k] * 2 - D.weight, 2) if k == l else Fraction(0)
          for l in range(n)] for k in range(n)]
    g = [[(-1) ** lv[k] * D.S[k][l] for l in range(n)] for k in range(n)]
    if linalg.transpose(g) != g:
        raise RejectionError("derived metric is not symmetric")
    order = C[0].order if C else D.order
    F = FrobeniusTypeStructure(
        D.vars, n, C,
        SeriesMatrix.zeros(n, n, D.vars, order), V, g, order)
    viol = check_ftype_axioms(F)
    if viol:
        raise RejectionError("converted data violates the structure axioms",
                             {"violations": viol})
    return F, gauge


# ---------------------------------------------------------------------------
# the shift-operator family of examples
# ---------------------------------------------------------------------------


def shift_example(w: int, b_free: Sequence[TruncSeries] = (),
                order: int = 4, var: str = "t") -> FiltrationData:
    """Rank w-1 filtration over a one-dimensional base from shift data.

    The connection sends the i-th frame vector to b_i times the next one;
    b_1 = 1 and b_{w-1} = 0 are forced, the free entries b_2..b_{(w-1)//2}
    must be units, and the remaining ones mirror the free ones so that the
    antidiagonal pairing stays flat.
    """
    if w < 3:
        raise RejectionError("weight must be at least 3")
    half = (w - 1) // 2
    nfree = max(0, half - 1)
    b_free = list(b_free)
    if len(b_free) != nfree:
        raise RejectionError("need %d free coefficient functions for "
                             "weight %d, got %d" % (nfree, w, len(b_free)))
    vars = (var,)
    one = TruncSeries.one(vars, order)
    b = {1: one}
    for k, s in enumerate(b_free, start=2):
        s = s.extend(vars) if s.vars != vars else s
        if s.order < order:
            raise RejectionError("coefficient function b_%d carries too "
                                 "little precision (order %d < %d)"
                                 % (k, s.order, order))
        if s.constant_term == 0:
            raise RejectionError("coefficient function b_%d is not a unit" % k)
        b[k] = s
    for k in range(half + 1, w - 1):
        b[k] = b[w - 1 - k]
    n = w - 1
    # b_{w-1} = 0: the last frame vector has no successor
    Gamma = SeriesMatrix.from_sparse(
        n, n, vars, order, {(l + 1, l): b[l + 1] for l in range(n - 1)})
    levels = [w - 1 - k for k in range(n)]
    S = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            if (k + 1) + (l + 1) == w:
                S[k][l] = Fraction((-1) ** (k + 1))
    D = FiltrationData(vars, n, w, levels, [Gamma], S, order)
    viol = check_filtration(D)
    if viol:
        raise AssertionError("shift example violates its own invariants: %r"
                             % viol)
    return D


# ---------------------------------------------------------------------------
# graded Jacobi algebras as variations of filtrations
# ---------------------------------------------------------------------------


def _solve_pairing(levels, w, Gammas, n):
    """Constant pairing with level orthogonality, (-1)^w symmetry and
    flatness against the given connection matrices; deterministic
    normalization of the scalar freedom."""
    sign = (-1) ** (w % 2)
    # the unknown u_j is S[k, l] for the j-th admissible k <= l, and
    # S[l, k] = sign * S[k, l], so a diagonal unknown needs an even weight;
    # the caller's unit (level w-1) and socle (level 1) always pair
    pairs = [(k, l) for k in range(n) for l in range(k, n)
             if levels[k] + levels[l] == w and (k != l or sign == 1)]
    # partners[a] lists (b, j, s) with S[a, b] = s * u_j
    partners: dict = {}
    for j, (k, l) in enumerate(pairs):
        partners.setdefault(k, []).append((l, j, 1))
        if k != l:
            partners.setdefault(l, []).append((k, j, sign))
    # (G^T S + S G)_{kl} = sum_m G_{mk} S_{ml} + S_{km} G_{ml}: the nonzero
    # G[m, c] enters equation (c, b) as G_{mc} S_{mb} and equation (b, c)
    # as S_{bm} G_{mc} = sign S_{mb} G_{mc}, one equation per term degree
    eqs: dict = {}
    for a, G in enumerate(Gammas):
        for (m, c), e in G.nonzero().items():
            for b, j, s in partners.get(m, ()):
                for kl, f in (((c, b), s), ((b, c), sign * s)):
                    for key, x in e.packed_terms.items():
                        d = eqs.setdefault((a, kl, key), {})
                        d[j] = d.get(j, 0) + f * x
    rows = [[d.get(j, 0) for j in range(len(pairs))] for d in eqs.values()]
    sols = linalg.nullspace(rows) if rows else linalg.identity(len(pairs))

    def build(vec):
        S = [[Fraction(0)] * n for _ in range(n)]
        for j, (k, l) in enumerate(pairs):
            S[k][l] = vec[j]
            S[l][k] = sign * vec[j]
        return S

    candidates = sols + ([list(map(sum, zip(*sols)))] if len(sols) > 1
                         else [])
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
    k, l = next((k, l) for k in range(n) for l in range(n) if chosen[k][l])
    scale = Fraction((-1) ** levels[k]) / chosen[k][l]
    return [[c * scale for c in row] for row in chosen], len(sols)


def jacobi_to_filtration(algebra: JacobiAlgebra, S=None, order: int = 3,
                         with_pairing: bool = True):
    """Integer-degree part of the graded quotient as a filtration variation.

    The frame is the integer-degree monomial basis; the connection in the
    degree-1 family directions is minus the multiplication by the moving
    degree-1 classes, recomputed against the deformed polynomial to the
    requested order.  Requires the straight weight system with d dividing
    the variable count.  The generation condition then holds by
    construction and is not checked: every monomial of degree q*d is a
    product of q monomials of degree d, so the degree-1 classes generate
    every integer-degree piece (when there are none, every degree-d
    monomial lies in the ideal, and so does every degree-q*d one).
    """
    ws = algebra.ws
    if len(set(ws.weights)) != 1:
        raise RejectionError("only straight weight systems give projective "
                             "hypersurfaces")
    d = ws.weights[0].denominator
    nvars = ws.nvars          # = n + 1 ambient homogeneous coordinates
    if nvars % d != 0:
        raise RejectionError(
            "degree %d does not divide the variable count %d" % (d, nvars),
            {"degree": d, "variables": nvars})
    w = nvars + 2 - 2 * nvars // d
    L = ws.scale
    Q = algebra.top_scaled() // L
    blocks = [algebra.piece(q * L).dim for q in range(Q + 1)]
    n = algebra.integer_rank()
    offs = [0]
    for bdim in blocks:
        offs.append(offs[-1] + bdim)
    levels = []
    for q in range(Q + 1):
        levels.extend([w - 1 - q] * blocks[q])
    m0 = blocks[1] if Q >= 1 else 0
    t_vars = tuple("t%d" % (a + 1) for a in range(m0))
    fam = JacobiFamily(algebra, t_vars, order)
    Gamma = []
    for a in range(m0):
        entries = {}
        for q in range(Q):
            for (i, j), x in fam.mult_entries(a, q * L).items():
                entries[offs[q + 1] + i, offs[q] + j] = -x
        Gamma.append(SeriesMatrix.from_sparse(n, n, t_vars, order, entries))
    info = {"weight": w, "rank": n, "base_dim": m0,
            "block_dims": blocks}
    if S is None and with_pairing:
        S, soldim = _solve_pairing(levels, w, Gamma, n)
        info["pairing_solution_dim"] = soldim
        info["pairing_unique_up_to_scalar"] = soldim == 1
    D = FiltrationData(t_vars, n, w, levels, Gamma, S, order)
    if S is not None:
        viol = check_filtration(D)
        if viol:
            raise RejectionError("jacobi filtration data fails its "
                                 "invariants", {"violations": viol})
    return D, info
