"""Synthesis and verification of germs of Frobenius manifolds.

Two independent constructors produce the same germ from the same initial
data and are tested against each other:

* ``frobenius_via_unfolding`` runs the full pipeline: structure connection
  of the initial structure, universal unfolding, then multiplication,
  metric, unit and Euler data are read off through the period-map chart.

* ``h2_reconstruct`` never touches the pencil: it determines the
  multiplication matrices degree by degree in the Euler grading, using
  generation by the degree-zero directions and radial integration of the
  potentiality relation.

Both take ``InitialData``, which only ``InitialData.create`` builds: it
certifies the axioms and the eigenvector, generation (gc) and injectivity
(ic) conditions of the paper's construction theorem, so generation reaches
every Euler degree of the data the constructors see.

Germ data is stored in flat coordinates s_1..s_n vanishing at the origin,
frame vector k at the origin being d/ds_k; structure constants are the
matrices of multiplication by the coordinate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .linalg import Echelon
from .pencil import (ConnectionPencil, GCCertificate, origin_certificates,
                     structure_connection)
from .series import (SeriesError, SeriesMatrix, TruncSeries,
                     euler_integrate, exponent_strides, frac_from_str,
                     frac_to_str, require_int, require_order, require_square,
                     slice_sum, slice_terms, unpack_key)
from .structures import (FiltrationData, FrobeniusTypeStructure,
                         RejectionError, filtration_to_ftype,
                         pairing_transport, violation)
from .unfold import universal_unfold, zeta_rotation

__all__ = [
    "FrobeniusGermData", "InitialData", "initial_from_filtration",
    "frobenius_via_unfolding", "h2_reconstruct", "wdvv_check", "euler_check",
    "potential_integrate", "normalize_germ", "compare_germs",
]


def _coords(n):
    return tuple("s%d" % (k + 1) for k in range(n))


@dataclass
class FrobeniusGermData:
    """Multiplication, metric, Euler data and potential in flat coordinates."""

    coords: tuple
    n: int
    mult: list
    metric: list
    degrees: list | None
    euler: list | None
    potential: TruncSeries
    order: int

    def __post_init__(self):
        self.coords = tuple(self.coords)
        n = require_int("rank", self.n, 1)
        require_int("order", self.order, 0)
        if self.degrees is None and self.euler is None:
            raise SeriesError("germ needs Euler data in one of the two forms")
        if any(x is not None and len(x) != n for x in
               (self.coords, self.mult, self.degrees, self.euler)):
            raise SeriesError("need one coordinate, mult matrix and Euler "
                              "entry per frame vector")
        for i, M in enumerate(self.mult):
            require_square("mult[%d]" % i, M, n, self.coords)
        require_square("metric", self.metric, n)
        if any(s.vars != self.coords
               for s in [self.potential] + list(self.euler or [])):
            raise SeriesError("potential and Euler coordinates must be "
                              "series over %r" % (self.coords,))
        require_order(self.order, [("mult[%d]" % i, M) for i, M in
                                   enumerate(self.mult)]
                      + [("potential", self.potential)]
                      + [("euler[%d]" % k, e) for k, e in
                         enumerate(self.euler or [])])

    def euler_coords(self):
        """Coordinates of the Euler field as series."""
        if self.euler is not None:
            return self.euler
        out = []
        for k, d in enumerate(self.degrees):
            s = TruncSeries.var(self.coords, self.order, self.coords[k])
            out.append(s * (-Fraction(d)))
        return out

    def c_tensor(self, i, j, k):
        """Third structure function g(s_i o s_j, s_k)."""
        return _c_matrices([self.mult[i]], self.metric, self.coords,
                           self.order)[0][j, k]

    def to_json(self):
        out = {
            "coords": list(self.coords),
            "rank": self.n,
            "order": self.order,
            "mult": [m.to_json() for m in self.mult],
            "metric": [[frac_to_str(c) for c in row] for row in self.metric],
            "potential": self.potential.to_json(),
        }
        if self.degrees is not None:
            out["euler_degrees"] = [frac_to_str(Fraction(d))
                                    for d in self.degrees]
        if self.euler is not None:
            out["euler_coords"] = [e.to_json() for e in self.euler]
        return out

    @classmethod
    def from_json(cls, obj):
        degrees = obj.get("euler_degrees")
        euler = obj.get("euler_coords")
        return cls(
            tuple(obj["coords"]), obj["rank"],
            [SeriesMatrix.from_json(m) for m in obj["mult"]],
            [[frac_from_str(c) for c in row] for row in obj["metric"]],
            [frac_from_str(d) for d in degrees] if degrees else None,
            [TruncSeries.from_json(e) for e in euler] if euler else None,
            TruncSeries.from_json(obj["potential"]),
            obj["order"])


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


@dataclass
class InitialData:
    """A Frobenius type structure with a distinguished eigenvector.

    The frame is normalized so the distinguished vector is the first frame
    vector.  ``create`` is the only constructor: it certifies the axioms
    and the eigenvector, generation and injectivity conditions, and keeps
    the structure connection it certified them on.  Construction refuses
    anything but passing certificates, so generation reaches every Euler
    degree of the data the germ constructors receive.
    """

    ftype: FrobeniusTypeStructure
    weight: int
    d_value: Fraction
    gc: GCCertificate
    ic: dict
    pencil: ConnectionPencil

    def __post_init__(self):
        if not (isinstance(self.gc, GCCertificate) and self.gc.ok
                and isinstance(self.ic, dict) and self.ic.get("ok") is True):
            raise TypeError("InitialData holds certified data only; build "
                            "it with InitialData.create")

    @classmethod
    def create(cls, ftype: FrobeniusTypeStructure, zeta=None,
               weight: int | None = None):
        n = ftype.n
        frame = zeta_rotation(zeta, n)
        if frame is not None:
            ftype = rotate_zeta_first(ftype, *frame)
        # eigenvector condition
        col = [Fraction(ftype.V[k][0]) for k in range(n)]
        if any(col[k] != 0 for k in range(1, n)):
            raise RejectionError("distinguished vector is not an "
                                 "eigenvector of the flat endomorphism",
                                 {"column": [str(c) for c in col]})
        d = 2 * col[0]
        if weight is None:
            if d.denominator != 1:
                raise RejectionError("eigenvalue 2*%s is not an integer; "
                                     "pass a weight explicitly" % d)
            weight = int(d) + 2
        # the structure connection checks the axioms
        P, _ = structure_connection(ftype, weight)
        init = cls(ftype, weight, d, *origin_certificates(P), P)
        if init.is_graded() and weight != d + 2:
            raise RejectionError("this graded structure needs weight %s, "
                                 "not %s" % (d + 2, weight))
        return init

    def is_graded(self) -> bool:
        """True when the first endomorphism vanishes and the flat one is
        diagonal with the eigenvalue ladder of an integer-graded germ."""
        F = self.ftype
        return (F.umat_is_zero()
                and not any(F.V[i][j] for i in range(F.n)
                            for j in range(F.n) if i != j)
                and all(d.denominator == 1 for d in self.frame_degrees()))

    def frame_degrees(self):
        """Euler degrees d_k = weight - 2 - level_k of the frame vectors,
        level_k = V_kk + weight/2."""
        half = Fraction(self.weight, 2)
        return [self.weight - 2 - (Fraction(row[k]) + half)
                for k, row in enumerate(self.ftype.V)]


def rotate_zeta_first(F: FrobeniusTypeStructure, B, Binv) -> FrobeniusTypeStructure:
    """The constant frame change B of ``zeta_rotation``, which makes the
    distinguished vector the first frame vector."""
    Bt = linalg.transpose(B)
    return FrobeniusTypeStructure(
        F.vars, F.n,
        [C.conjugate_const(B, Binv) for C in F.C],
        F.U.conjugate_const(B, Binv),
        linalg.mat_mul(Binv, linalg.mat_mul(F.V, B)),
        linalg.mat_mul(Bt, linalg.mat_mul(F.g, B)),
        F.order)


def initial_from_filtration(D: FiltrationData) -> InitialData:
    """Initial data of a filtration variation: the structure of the level
    dictionary with the (unique) top-level frame vector distinguished."""
    top = [k for k, p in enumerate(D.levels) if p == D.weight - 1]
    if len(top) != 1:
        raise RejectionError("top level is not one-dimensional",
                             {"top_indices": top})
    if top[0] != 0:
        raise RejectionError("top-level vector must come first in the "
                             "frame; reorder the filtration data")
    F, _ = filtration_to_ftype(D)
    return InitialData.create(F, weight=D.weight)


# ---------------------------------------------------------------------------
# series map inversion
# ---------------------------------------------------------------------------


def invert_map(images: Sequence[TruncSeries], new_vars) -> list:
    """Inverse of u -> tau(u) with tau(0)=0 and invertible linear part.

    images[k] is tau_k as a series in the old variables; the result lists
    the old variables as series in new_vars, to the same order.  Each
    chord step u <- u - J^-1 (tau(u) - s), J the linear part, gains one
    correct degree, so the error vanishes within ``order`` steps.
    """
    old_vars = images[0].vars
    order = min(im.order for im in images)
    if order == 0:
        # tau(0) = 0 leaves nothing to invert below degree 1
        return [TruncSeries.zero(new_vars, 0) for _ in images]
    jac = [[im.partial(v).constant_term for v in old_vars] for im in images]
    jac_inv = SeriesMatrix.from_consts(linalg.mat_inverse(jac), new_vars,
                                       order)
    tau = SeriesMatrix([[im] for im in images])
    s = SeriesMatrix([[TruncSeries.var(new_vars, order, v)] for v in new_vars])
    one = TruncSeries.one(new_vars, order)
    u = jac_inv @ s
    for _ in range(order):
        err = tau.compose(dict(zip(old_vars, u.column(0)))) - s
        if err.is_zero():
            return u.column(0)
        u = SeriesMatrix.sum_of_products([(1, u, one), (-1, jac_inv, err)])
    raise AssertionError("series inversion failed to converge")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def wdvv_check(G: FrobeniusGermData) -> list:
    """Associativity, unit, symmetry, potentiality, metric invariance."""
    out = []
    n = G.n
    A = G.mult
    violation(out, "unit-multiplication", (0,),
              A[0] - SeriesMatrix.identity(n, G.coords, G.order))
    # rows[i][j]: the rows k where column j of A_i holds an entry
    rows: list = [{} for _ in range(n)]
    for i in range(n):
        for k, j in A[i].nonzero():
            rows[i].setdefault(j, set()).add(k)
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
            for k in sorted(rows[i].get(j, set()) | rows[j].get(i, set())):
                if violation(out, "commutativity", (i, j, k),
                             A[i][k, j] - A[j][k, i]):
                    break
    gS = SeriesMatrix.from_consts(G.metric, G.coords, G.order)
    for i in range(n):
        violation(out, "metric-invariance", (i,), pairing_transport(A[i], gS))
    # third derivatives of the potential against the structure tensor
    if G.order >= 3:
        T = _c_matrices(A, G.metric, G.coords, G.order)
        for i in range(n):
            for j in range(i, n):
                dij = G.potential.partial(G.coords[i]).partial(G.coords[j])
                for k in range(j, n):
                    violation(out, "potential-third-derivatives", (i, j, k),
                              dij.partial(G.coords[k]) - T[i][j, k])
    return out


def euler_check(G: FrobeniusGermData, dconst=None) -> list:
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
            for (k, j), e in G.mult[i].nonzero().items():
                want = dg[k] - dg[i] - dg[j] - 1
                for key in e.packed_terms:
                    exps = unpack_key(key, st)[:-1]
                    got = sum(ex * d for ex, d in zip(exps, dg) if ex)
                    if got != want:
                        violation(out, "multiplication-grading", (i, j, k),
                                  {"expected": str(want), "got": str(got)})
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
        for (j, k), r in R.transpose().nonzero().items():
            violation(out, "euler-multiplication", (i, j, k), r)
    if dconst is not None:
        g = SeriesMatrix.from_consts(G.metric, coords, G.order - 1)
        shift = TruncSeries.const(coords, G.order - 1, 2 - Fraction(dconst))
        R = SeriesMatrix.sum_of_products([
            (1, dE.transpose(), g), (1, g, dE),
            (-1, g, shift)])
        for (i, j), r in R.nonzero().items():
            violation(out, "euler-metric", (i, j), r)
    return out


def _c_matrices(mult, metric, coords, order) -> list:
    """T_i = mult[i]^T g, so that T_i[j, k] = g(s_i o s_j, s_k) = c(i, j, k);
    g is lifted at ``order``, which bounds the order of each T_i."""
    g = SeriesMatrix.from_consts(metric, coords, order)
    return [M.transpose() @ g for M in mult]


def potential_integrate(mult, metric, coords, order) -> TruncSeries:
    """The potential with the given third derivatives, vanishing to second
    order at the origin; total symmetry of the tensor is required."""
    n = len(mult)
    T = _c_matrices(mult, metric, coords, order)
    viol: list = []
    for i in range(n):
        for (j, k), r in (T[i] - T[i].transpose()).nonzero().items():
            violation(viol, "third-derivative-symmetric", (i, j, k), r)
    if viol:
        raise RejectionError("third-derivative tensor is not symmetric",
                             {"violations": viol})
    # one matrix integration per index: of T_i[j, k], second[j, k], first[0, k]
    second = euler_integrate(dict(zip(coords, T)))
    first = euler_integrate({v: second.row(j) for j, v in enumerate(coords)})
    return euler_integrate({v: first[0, k] for k, v in enumerate(coords)})


# ---------------------------------------------------------------------------
# constructor 1: through the universal unfolding
# ---------------------------------------------------------------------------


def frobenius_via_unfolding(init: InitialData,
                            order: int | None = None) -> FrobeniusGermData:
    """Build the germ by unfolding the structure connection universally and
    shifting everything through the period-map chart."""
    F, P = _at_order(init.ftype, order), init.pencil
    N = F.order
    if N != init.ftype.order:
        # raising the order adds identities the certified order never saw
        P, _ = structure_connection(F, init.weight)
    big = universal_unfold(P).pencil
    n = big.n
    coords = _coords(n)
    # the unfolding's flatness certificate holds its closedness equations
    mult, subst = _flat_chart(big.vars, list(big.C) + list(big.F), range(n),
                              coords, N)
    metric = [[Fraction(c) for c in row] for row in F.g]
    ucol = SeriesMatrix([[x] for x in big.U.column(0)]).compose(
        subst).column(0)
    # transport of the Euler field: its covariant derivative in the flat
    # frame must equal the flat endomorphism shifted by (2-d)/2
    if N >= 1:
        shift = Fraction(2 - init.d_value, 2)
        for k in range(n):
            for i in range(n):
                want = Fraction(F.V[k][i]) + (shift if k == i else 0)
                r = ucol[k].partial(coords[i]) - want
                if not r.is_zero():
                    raise AssertionError("Euler transport identity fails "
                                         "on the synthesized germ")
    degrees = None
    euler = None
    if init.is_graded():
        degrees = init.frame_degrees()
        for k in range(n):
            want = TruncSeries.var(coords, ucol[k].order, coords[k]) * (
                -Fraction(degrees[k]))
            if not (ucol[k] - want).is_zero():
                raise AssertionError("Euler coordinates do not match the "
                                     "grading of the initial data")
    else:
        euler = ucol
    germ_order = mult[0].order
    pot = potential_integrate(mult, metric, coords, germ_order)
    germ = FrobeniusGermData(coords, n, mult, metric, degrees, euler, pot,
                             germ_order)
    _assert_clean(germ, init)
    return germ


def _flat_chart(vars, blocks, rows, names, N):
    """Multiplication in the flat chart of the potential's first column.

    A is the potential of the one-form sum_u blocks[u] d vars[u], which the
    caller has certified closed, and names[a] = -A[rows[a], 0] are flat
    coordinates on the base; psi[u, a] = -blocks[u][rows[a], 0] is their
    one-form.  Returns the matrices of multiplication by d/d names[a],
    each minus the combination of the blocks whose first column restricted
    to ``rows`` is the a-th unit vector, written in the flat coordinates;
    and the substitution that writes ``vars`` in them.
    """
    psi = SeriesMatrix([[-B[k, 0] for k in rows] for B in blocks])
    flat = euler_integrate({v: psi.row(u) for u, v in enumerate(vars)})
    subst = dict(zip(vars, invert_map(
        [flat[0, a].truncate(N) for a in range(len(rows))], names)))
    psi_inv = psi.inverse_series()
    mult = [SeriesMatrix.sum_of_products(
        [(-1, B, psi_inv[a, u]) for u, B in enumerate(blocks)]).compose(subst)
        for a in range(len(rows))]
    return mult, subst


def _at_order(F: FrobeniusTypeStructure, order) -> FrobeniusTypeStructure:
    """F at ``order`` (its own when None): truncated below its order, and
    raised above it only when its blocks are constant."""
    N = F.order if order is None else order
    if N == F.order:
        return F
    if N < F.order:
        return F.restrict_order(N)
    if all(c.is_constant() for c in F.C) and F.U.is_constant():
        return FrobeniusTypeStructure(
            F.vars, F.n,
            [SeriesMatrix.from_consts(c.at_origin(), F.vars, N) for c in F.C],
            SeriesMatrix.from_consts(F.U.at_origin(), F.vars, N),
            F.V, F.g, N)
    raise RejectionError("initial data carries too little precision "
                         "(order %d < %d)" % (F.order, N))


def _assert_clean(germ: FrobeniusGermData, init: InitialData):
    bad = wdvv_check(germ)
    if bad:
        raise AssertionError("synthesized germ fails the multiplication "
                             "axioms: %r" % [b["check"] for b in bad])
    bad = euler_check(germ, dconst=init.d_value)
    if bad:
        raise AssertionError("synthesized germ fails the Euler axioms: %r"
                             % [b["check"] for b in bad])


# ---------------------------------------------------------------------------
# constructor 2: degree-by-degree recursion in the Euler grading
# ---------------------------------------------------------------------------


def h2_reconstruct(init: InitialData,
                   order: int | None = None) -> FrobeniusGermData:
    """Determine the structure constants directly from the restricted data.

    Stage by stage in the Euler weight: matrices of positive-degree fields
    are solved from generation by degree-zero fields, which reaches every
    degree of certified data, and the degree-zero matrices pick up their
    next weight by radial integration of the potentiality relation.
    Entirely independent of the unfolding pipeline.  Each multiplication
    matrix A[k] is the list of its Euler-weight slices, as ``unfold.solve``
    holds its blocks by y-degree: slice 0 of a degree-zero matrix is the
    flattened base, and stage W appends slice W to each positive-degree
    matrix and slice W+1 to each degree-zero one.
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
    # certified graded data has w = d + 2, so the unit has Euler degree -1,
    # and by gc and ic the base directions are the degree-zero ones
    degrees = init.frame_degrees()
    d0_idx = [k for k in range(n) if degrees[k] == 0]
    pos_idx = [k for k in range(n) if degrees[k] > 0]
    coords = _coords(n)
    g = [[Fraction(c) for c in row] for row in F.g]

    # positive-degree matrices get every slice from the stages
    zero = SeriesMatrix.zeros(n, n, coords, N)
    A = {k: [] if degrees[k] > 0 else [zero] for k in range(n)}
    A[0] = [SeriesMatrix.identity(n, coords, N)]
    if d0_idx:
        # closed: the certified axioms hold higgs-potential
        base, _ = _flat_chart(F.vars, list(F.C), d0_idx,
                              tuple(coords[k] for k in d0_idx), N)
        for k, M in zip(d0_idx, base):
            A[k] = [M.extend(coords)]
            if A[k][0].column(0) != A[0][0].column(k):
                raise AssertionError("flattened base does not fix the unit "
                                     "column")

    wts = {coords[k]: int(degrees[k]) for k in pos_idx}

    max_d = max([int(d) for d in degrees if d > 0] or [1])
    W_cap = min(max(w - 2, 0), N * max_d)
    pos_by_D: dict[int, list] = {}
    for k in pos_idx:
        pos_by_D.setdefault(int(degrees[k]), []).append(k)

    # the coefficients gamma of the unknowns have weight 0, so slice 0 of
    # the degree-zero matrices fixes them, and each degree selects and
    # inverts its relations once, before the first stage
    plans = {}
    for D in sorted(pos_by_D):
        unknown = pos_by_D[D]
        pairs = [(i, k) for i in d0_idx
                 for k in (d0_idx if D == 1 else pos_by_D.get(D - 1, []))]
        gamma = {(i, k): [A[i][0][r, k] for r in unknown] for (i, k) in pairs}
        sel_ech = Echelon(pivot="min")
        selected = []
        for pr in pairs:
            consts = {a: c.constant_term for a, c in
                      enumerate(gamma[pr]) if c.constant_term}
            if consts and sel_ech.insert(consts):
                selected.append(pr)
            if len(selected) == len(unknown):
                break
        # gc spans the fiber from the unit under the C(0), each raising
        # the Euler degree by one, so every degree is reached
        if len(selected) < len(unknown):
            raise AssertionError("generation spans only %d of %d directions "
                                 "at degree %d"
                                 % (len(selected), len(unknown), D))
        G = SeriesMatrix([gamma[pr] for pr in selected])
        plans[D] = (unknown, pairs, gamma, selected, G.inverse_series())

    for stage in range(W_cap + 1):
        # (i) slice `stage` of the positive-degree matrices
        for D, plan in plans.items():
            _solve_generated(A, plan, stage, degrees, n, D)
        # (ii) slice stage+1 of the degree-zero matrices
        if stage == W_cap:
            break
        # by potentiality d/ds_j of A_i is d/ds_i of A_j
        Wn = stage + 1
        lower = {coords[j]: A[j][Wn - int(degrees[j])]
                 for j in pos_idx if degrees[j] <= Wn}
        for i in d0_idx:
            A[i].append(euler_integrate(
                {v: M.partial(coords[i]) for v, M in lower.items()},
                weights=wts).truncate(N) if lower else zero)

    mult = [slice_sum(A[k]) for k in range(n)]
    pot = potential_integrate(mult, g, coords, N)
    germ = FrobeniusGermData(coords, n, mult, g, degrees, None, pot, N)
    _assert_clean(germ, init)
    return germ


def _solve_generated(A, plan, stage, degrees, n, D):
    """Append slice `stage` of the degree-D matrices A[r], r in ``unknown``,
    solved from the generation relations A_i A_k = sum_r gamma_r A_r,
    gamma_r = A_i[r, k], of the ``selected`` pairs (i, k), whose weight-0
    coefficients gamma[(i, k)] of the unknowns form the invertible matrix
    G with inverse G_inv; then verify the unselected relations.  Slice
    `stage` of a relation takes gamma_r from slice deg_r - D of A_i, which
    is the whole entry by the Euler homogeneity that ``euler_check``
    certifies."""
    unknown, pairs, gamma, selected, G_inv = plan
    q = len(unknown)

    def relation(pr, solved=()):
        # slice `stage` of A_i A_k less the known contributions gamma_r A_r
        # of the degrees above D and the given solved terms
        i, k = pr
        terms = slice_terms(A[i], A[k], stage) + list(solved)
        for r in range(n):
            wt = int(degrees[r]) - D
            if 0 < wt <= stage:
                terms.append((-1, A[r][stage - wt], A[i][wt][r, k]))
        return SeriesMatrix.sum_of_products(terms)

    rhs = [relation(pr) for pr in selected]
    # rhs[b] = sum_a G[b, a] X_a, so X_a = sum_b rhs[b] * G^-1[a, b]
    for a, r in enumerate(unknown):
        A[r].append(SeriesMatrix.sum_of_products(
            [(1, rhs[b], G_inv[a, b]) for b in range(q)]))
    # the remaining generation relations must now hold
    for pr in pairs:
        if pr not in selected and not relation(pr, [
                (-1, A[r][stage], gamma[pr][a])
                for a, r in enumerate(unknown)]).is_zero():
            raise AssertionError("generation relations are inconsistent at "
                                 "weight %d, degree %d" % (stage, D))


def germ_to_ftype(G: FrobeniusGermData) -> FrobeniusTypeStructure:
    """Tangent-bundle structure of a germ over its own full base.

    The Higgs field is minus the multiplication, the first endomorphism is
    multiplication by the Euler field, the flat one is the covariant
    derivative of the Euler field shifted by (2-d)/2, and the pairing is
    the metric.
    """
    n = G.n
    E = G.euler_coords()
    dE = [[Fraction(0)] * n for _ in range(n)]
    if G.order >= 1:
        for k in range(n):
            for i, v in enumerate(G.coords):
                e = E[k].partial(v)
                if not e.is_constant():
                    raise RejectionError("Euler field is not affine-linear "
                                         "in the flat coordinates")
                dE[k][i] = e.constant_term
    # the metric scales as Lie_E(g) = (2-d) g, so the shift (2-d)/2 can be
    # read off its first nonzero entry
    i, j = next((i, j) for i in range(n) for j in range(n) if G.metric[i][j])
    lie = sum(Fraction(dE[l][i]) * G.metric[l][j]
              + Fraction(dE[l][j]) * G.metric[i][l] for l in range(n))
    shift = lie / G.metric[i][j] / 2
    V = [[Fraction(dE[k][i]) - (shift if k == i else 0) for i in range(n)]
         for k in range(n)]
    U = SeriesMatrix.sum_of_products(
        [(1, G.mult[k], E[k]) for k in range(n)])
    C = [(-G.mult[i]) for i in range(n)]
    return FrobeniusTypeStructure(G.coords, n, C, U, V,
                                  [list(map(Fraction, row))
                                   for row in G.metric], U.order)


# ---------------------------------------------------------------------------
# normalization and comparison
# ---------------------------------------------------------------------------


def normalize_germ(G: FrobeniusGermData) -> FrobeniusGermData:
    """Rescale the metric so the unit pairs to 1 with the last frame vector
    of maximal Euler degree (the scalar freedom of the metric)."""
    if G.degrees is not None:
        top = max(range(G.n), key=lambda k: (Fraction(G.degrees[k]), k))
    else:
        top = G.n - 1
    c = G.metric[0][top]
    if c == 0:
        raise RejectionError("metric does not pair the unit with the top "
                             "frame vector; cannot normalize")
    lam = 1 / c
    metric = [[x * lam for x in row] for row in G.metric]
    pot = G.potential * lam
    return FrobeniusGermData(G.coords, G.n, G.mult, metric, G.degrees,
                             G.euler, pot, G.order)


def compare_germs(G1: FrobeniusGermData, G2: FrobeniusGermData,
                  normalize: bool = True) -> dict:
    """Field-by-field diff after normalization; equal iff "equal": true."""
    if normalize:
        G1, G2 = normalize_germ(G1), normalize_germ(G2)
    diffs = []
    if G1.n != G2.n:
        violation(diffs, "rank", (), {"left": G1.n, "right": G2.n})
    elif G1.coords != G2.coords:
        violation(diffs, "coords", (), {"left": list(G1.coords),
                                        "right": list(G2.coords)})
    else:
        order = min(G1.order, G2.order)
        if G1.degrees != G2.degrees:
            violation(diffs, "euler_degrees", (), {
                "left": [str(d) for d in (G1.degrees or [])],
                "right": [str(d) for d in (G2.degrees or [])]})
        if G1.metric != G2.metric:
            violation(diffs, "metric")
        for i in range(G1.n):
            violation(diffs, "mult", (i,), G1.mult[i].truncate(order)
                      - G2.mult[i].truncate(order))
        porder = min(G1.potential.order, G2.potential.order)
        violation(diffs, "potential", (), G1.potential.truncate(porder)
                  - G2.potential.truncate(porder))
        e1, e2 = G1.euler, G2.euler
        if (e1 is None) != (e2 is None):
            violation(diffs, "euler_form")
        elif e1 is not None:
            for k in range(G1.n):
                violation(diffs, "euler_coords", (k,),
                          e1[k].truncate(order) - e2[k].truncate(order))
    # acceptance criterion 9 selects the structure-constant diffs by their
    # field and index
    for d in diffs:
        d["field"] = d["check"]
        if d["indices"]:
            d["index"], = d["indices"]
    return {"equal": not diffs, "diffs": diffs}
