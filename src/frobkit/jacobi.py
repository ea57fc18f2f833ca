"""Graded Jacobi algebras of weighted homogeneous polynomials.

The quotient of a polynomial ring by the partial derivatives of f is
handled degree by degree with exact rational linear algebra: each graded
piece gets a deterministic monomial basis (the lex-first independent
complement of the ideal piece) and a normal-form map onto it.  Two
reduction engines are used: a union-find engine when every ideal generator
product has at most two terms (Fermat-type and Sebastiani-Thom-type
polynomials, where pieces with 10^5 monomials stay cheap), and a sparse
echelon otherwise.

Monomials are packed integer keys throughout (one int per exponent
vector, the key of a product the sum of the keys; Monagan-Pearce 2007):
they are enumerated as keys, and exponent tuples are only decoded for
callers that ask for them.

The union-find engine runs in two phases.  An integer union-find (union by
size, path halving; Tarjan 1975) joins the monomials of every binomial
product, and each component that holds a monomial killed by a one-term
product is flagged; killed components lie in the ideal and need no
rational arithmetic.  Only the kill-free components then get rational
multipliers, by a search from their lex-first monomial, which also finds
the components an inconsistent cycle puts in the ideal.  The result is a
normal-form table with one entry per monomial.

Milnor number and graded dimensions come from the Koszul Hilbert series
once the singularity has been certified isolated; materialized pieces are
checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from typing import Sequence

from .linalg import Echelon
from .series import TruncSeries, frac_from_str, frac_to_str

__all__ = [
    "WeightSystem", "XPoly", "JacobiAlgebra", "RfClass",
    "build_jacobi", "jacobian_piece", "normal_form", "multiply_rf",
    "h2_generation_check", "NotIsolatedError", "JacobiFamily",
]


class NotIsolatedError(ValueError):
    """The singularity is not isolated; carries the witness degree."""

    def __init__(self, degree: Fraction):
        self.degree = degree
        super().__init__("graded piece at weighted degree %s is nonzero "
                         "above the socle bound" % degree)


class WeightSystem:
    """Weights w_0..w_n in (0, 1/2] with a common denominator.

    Degrees are handled internally as integers after scaling by L (the lcm
    of the weight denominators); weight(x_i) = D_i / L.
    """

    def __init__(self, weights: Sequence[Fraction]):
        weights = tuple(Fraction(w) for w in weights)
        if not weights:
            raise ValueError("need at least one weight")
        for w in weights:
            if not (0 < w <= Fraction(1, 2)):
                raise ValueError("weight %s outside (0, 1/2]" % w)
        self.weights = weights
        L = 1
        for w in weights:
            L = L * w.denominator // math.gcd(L, w.denominator)
        self.scale = L
        self.scaled = tuple(int(w * L) for w in weights)

    @classmethod
    def straight(cls, nvars: int, d: int) -> "WeightSystem":
        return cls([Fraction(1, d)] * nvars)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def scaled_degree(self, exps) -> int:
        return sum(e * d for e, d in zip(exps, self.scaled))

    def to_scaled(self, q: Fraction) -> int:
        s = Fraction(q) * self.scale
        if s.denominator != 1:
            raise ValueError("degree %s is not on the weight grid" % q)
        return int(s)

    def monomials(self, sdeg: int) -> list:
        """All exponent tuples of scaled degree sdeg, in lex order (a
        decoding view of ``monomial_keys``)."""
        st = self.key_strides(max(sdeg, 0))
        return [unpack_key(k, st) for k in self.monomial_keys(sdeg, st)]

    def monomial_keys(self, sdeg: int, strides) -> list:
        """Packed keys of all monomials of scaled degree sdeg, in the lex
        order of their exponent tuples; ``strides`` must separate them
        (``key_strides(b)`` for any b >= sdeg does).

        The lex recursion carries the partial key, not an exponent tuple,
        and stops three variables short of the end: the keys of the last
        three variables are tabulated per remaining degree (each entry
        built once from the next variable's entries) and shifted by each
        prefix's key.  Every entry is emitted, so the table never outgrows
        the output.
        """
        D = self.scaled
        n = len(D)
        if sdeg < 0:
            return []
        table: dict = {}

        def tail(i, rem):
            keys = table.get((i, rem))
            if keys is None:
                d, s = D[i], strides[i]
                if i == n - 1:
                    keys = [rem // d * s] if rem % d == 0 else []
                else:
                    keys = []
                    for k in range(rem // d + 1):
                        keys.extend(map((k * s).__add__,
                                        tail(i + 1, rem - k * d)))
                table[i, rem] = keys
            return keys

        out: list = []
        first = max(n - 3, 0)

        def rec(i, rem, acc):
            if i == first:
                out.extend(map(acc.__add__, tail(i, rem)))
                return
            d, s = D[i], strides[i]
            for k in range(rem // d + 1):
                rec(i + 1, rem - k * d, acc + k * s)

        rec(0, sdeg, 0)
        return out

    def key_strides(self, max_sdeg: int):
        """Strides for packing exponent tuples into single integers.

        Valid for all monomials of scaled degree <= max_sdeg; sums of two
        packed keys never collide as long as the summed degree stays within
        the bound used to build the strides.
        """
        base = max_sdeg + 1
        strides = []
        s = 1
        for _ in range(self.nvars):
            strides.append(s)
            s *= base
        return tuple(strides)

    def socle_scaled(self) -> int:
        return sum(self.scale - 2 * d for d in self.scaled)

    def to_json(self):
        return [frac_to_str(w) for w in self.weights]


class XPoly:
    """Exact polynomial in x_0..x_n; coefficients Fraction or TruncSeries."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in dict(terms).items():
                if _nonzero(c):
                    self.terms[tuple(e)] = c

    @classmethod
    def from_json(cls, nvars, term_list):
        return cls(nvars, {tuple(e): frac_from_str(c) for e, c in term_list})

    def to_json(self):
        return [[list(e), frac_to_str(self.terms[e])] for e in sorted(self.terms)]

    @classmethod
    def monomial(cls, nvars, exps, coeff=Fraction(1)):
        return cls(nvars, {tuple(exps): coeff})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if _nonzero(s):
                terms[e] = s
            else:
                terms.pop(e, None)
        return XPoly(self.nvars, terms)

    def scale(self, c):
        return XPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                p = c1 * c2
                s = p if s is None else s + p
                if _nonzero(s):
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return XPoly(self.nvars, terms)

    def partial(self, i: int) -> "XPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[e2] = c * e[i]
        return XPoly(self.nvars, terms)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "XPoly(%r)" % (self.terms,)


def _nonzero(c):
    if isinstance(c, TruncSeries):
        return not c.is_zero()
    return c != 0


def pack_key(exps, strides) -> int:
    """The packed key sum(e_i * strides[i]) of an exponent tuple."""
    return sum(e * s for e, s in zip(exps, strides))


def unpack_key(key: int, strides) -> tuple:
    """The exponent tuple of a packed key (strides as from key_strides)."""
    exps = []
    for s in reversed(strides):
        e, key = divmod(key, s)
        exps.append(e)
    return tuple(reversed(exps))


# ---------------------------------------------------------------------------
# reduction engines for one graded piece
# ---------------------------------------------------------------------------


class GradedPiece:
    """One graded piece of the quotient: basis plus normal-form map.

    Monomials exist here only as packed integer keys (via strides): ``keys``
    lists them in lex order, straight from ``WeightSystem.monomial_keys``,
    and the key of a product of monomials is the sum of their keys, so the
    inner loops over generator products run on int arithmetic alone.
    Exponent tuples are decoded on demand (``basis_monomials``, and the
    ``monomials`` view for callers outside the hot path).

    A union-find piece keeps its normal forms in ``_uf``, a table indexed by
    monomial: None for a monomial in the ideal, else (basis position,
    coefficient).  ``_uf`` is None exactly for pieces built with the sparse
    echelon, whose normal forms are reductions against ``_echelon``.
    """

    def __init__(self, ws: WeightSystem, partials, sdeg: int, strides=None):
        self.sdeg = sdeg
        self.strides = strides if strides is not None else ws.key_strides(sdeg)
        self.keys = ws.monomial_keys(sdeg, self.strides)
        self.index = dict(zip(self.keys, range(len(self.keys))))
        self._build(ws, partials, sdeg)

    def _build(self, ws, partials, sdeg):
        st = self.strides
        packed = []
        simple = True
        for dfi in partials:
            if dfi.is_zero():
                continue
            gdeg = sdeg - ws.scaled_degree(next(iter(dfi.terms)))
            if gdeg < 0:
                continue
            terms = [(pack_key(exp, st), c)
                     for exp, c in sorted(dfi.terms.items())]
            if len(terms) > 2:
                simple = False
            packed.append((gdeg, terms))
        gkeys_cache = {gdeg: ws.monomial_keys(gdeg, st) for gdeg, _ in packed}
        if simple:
            self._build_uf(packed, gkeys_cache)
        else:
            self._build_echelon(packed, gkeys_cache)

    def _build_uf(self, packed, gkeys_cache):
        n = len(self.keys)
        at = self.index.__getitem__
        # phase 1: integer union-find over all generator products (union by
        # size, path halving); a monomial hit by a one-term product is dead
        parent = list(range(n))
        size = [1] * n
        dead = bytearray(n)

        def find(i):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        binomials = []
        for gdeg, terms in packed:
            shifts = gkeys_cache[gdeg]
            if len(terms) == 1:
                for i in map(at, map(terms[0][0].__add__, shifts)):
                    dead[i] = 1
                continue
            (k1, c1), (k2, c2) = terms
            left = list(map(at, map(k1.__add__, shifts)))
            right = list(map(at, map(k2.__add__, shifts)))
            binomials.append((left, right, -c2 / c1))
            for a, b in zip(left, right):
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a == b:
                    continue
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
        # a component is killed (lies in the ideal) if it holds a dead
        # monomial
        root = list(map(find, range(n)))
        del parent, size
        killed = bytearray(n)
        for i in compress(range(n), dead):
            killed[root[i]] = 1
        # phase 2: rational multipliers on kill-free components only; a
        # binomial product imposes e_i = ratio * e_j modulo the ideal
        adj: dict[int, list] = {}
        for left, right, ratio in binomials:
            inv = 1 / ratio
            for i, j in zip(left, right):
                if killed[root[i]]:
                    continue
                adj.setdefault(i, []).append((j, inv))
                adj.setdefault(j, []).append((i, ratio))
        # each surviving component is spanned by its lex-first monomial b;
        # a search from b gives e_m = c_m * e_b, and an inconsistent cycle
        # puts e_b (so the whole component) in the span
        table: list = [None] * n
        basis = []
        one = Fraction(1)
        for b in range(n):
            r = root[b]
            if killed[r]:
                continue
            killed[r] = 1       # component visited
            coef = {b: one}
            stack = [b]
            consistent = True
            while stack and consistent:
                u = stack.pop()
                cu = coef[u]
                for v, ratio in adj.get(u, ()):
                    cv = cu * ratio
                    known = coef.get(v)
                    if known is None:
                        coef[v] = cv
                        stack.append(v)
                    elif known != cv:
                        consistent = False
                        break
            if consistent:
                pos = len(basis)
                basis.append(b)
                for m, c in coef.items():
                    table[m] = (pos, c)
        self._uf = table
        self._echelon = None
        self.basis = basis
        self.dim = len(basis)
        self._basis_pos = {b: k for k, b in enumerate(basis)}

    def _build_echelon(self, packed, gkeys_cache):
        ech = Echelon(pivot="max")
        index = self.index
        for gdeg, terms in packed:
            for g in gkeys_cache[gdeg]:
                vec: dict = {}
                for k, c in terms:
                    i = index[g + k]
                    s = vec.get(i, Fraction(0)) + c
                    if s:
                        vec[i] = s
                    else:
                        del vec[i]
                if vec:
                    ech.insert(vec)
        pivots = ech.pivots
        self.basis = [i for i in range(len(self.keys)) if i not in pivots]
        self.dim = len(self.basis)
        self._echelon = ech
        self._uf = None
        self._basis_pos = {b: k for k, b in enumerate(self.basis)}

    @property
    def monomials(self):
        st = self.strides
        return [unpack_key(k, st) for k in self.keys]

    @property
    def basis_monomials(self):
        st = self.strides
        return [unpack_key(self.keys[i], st) for i in self.basis]

    @property
    def basis_keys(self):
        return [self.keys[i] for i in self.basis]

    def ideal_rank(self) -> int:
        return len(self.keys) - self.dim

    def nf_index(self, i: int) -> dict:
        """Normal form of the i-th monomial: {basis position: Fraction}."""
        if self._uf is not None:
            entry = self._uf[i]
            return {} if entry is None else {entry[0]: entry[1]}
        red = self._echelon.reduce({i: Fraction(1)})
        return {self._basis_pos[c]: x for c, x in red.items()}

    def nf_key(self, key: int, coeff=Fraction(1)) -> dict:
        i = self.index.get(key)
        if i is None:
            raise ValueError("monomial key %d not of scaled degree %d"
                             % (key, self.sdeg))
        if self._uf is not None:
            entry = self._uf[i]
            return {} if entry is None else {entry[0]: entry[1] * coeff}
        return {k: v * coeff for k, v in self.nf_index(i).items()}

    def nf_exps(self, exps, coeff=Fraction(1)) -> dict:
        i = self.index.get(pack_key(exps, self.strides))
        if i is None:
            raise ValueError("monomial %r not of scaled degree %d"
                             % (exps, self.sdeg))
        out = self.nf_index(i)
        return {k: v * coeff for k, v in out.items()}


# ---------------------------------------------------------------------------
# Jacobi algebra
# ---------------------------------------------------------------------------


@dataclass
class RfClass:
    """A homogeneous element of the quotient in basis coordinates."""

    sdeg: int
    coords: dict = field(default_factory=dict)

    def is_zero(self):
        return not self.coords


class JacobiAlgebra:
    """Quotient of C[x] by the partial derivatives of a weighted
    homogeneous f with certified isolated singularity at 0."""

    def __init__(self, f: XPoly, ws: WeightSystem):
        if f.nvars != ws.nvars:
            raise ValueError("variable count mismatch")
        if f.is_zero():
            raise ValueError("f must be nonzero")
        degs = {ws.scaled_degree(e) for e in f.terms}
        if degs != {ws.scale}:
            raise ValueError("f is not weighted homogeneous of degree 1 "
                             "(scaled degrees %r)" % sorted(degs))
        self.f = f
        self.ws = ws
        self.partials = [f.partial(i) for i in range(ws.nvars)]
        self.strides = ws.key_strides(ws.socle_scaled() + max(ws.scaled))
        self._pieces: dict[int, GradedPiece] = {}
        self._certify_isolated()
        self._hilbert = self._hilbert_coeffs()
        self.milnor = sum(self._hilbert)
        self.alpha1 = sum(ws.weights)
        self.exponents = []
        for s, d in enumerate(self._hilbert):
            self.exponents.extend([self.alpha1 + Fraction(s, ws.scale)] * d)

    # -- construction helpers ----------------------------------------------

    def _certify_isolated(self):
        B = self.ws.socle_scaled()
        top_w = max(self.ws.scaled)
        for s in range(B + 1, B + top_w + 1):
            # no name keeps a piece alive while the next one is built
            if GradedPiece(self.ws, self.partials, s, self.strides).dim:
                raise NotIsolatedError(Fraction(s, self.ws.scale))

    def _hilbert_coeffs(self):
        """Coefficients of prod (1-u^(L-D_i)) / prod (1-u^(D_i))."""
        num = [1]
        for d in self.ws.scaled:
            k = self.ws.scale - d
            new = [0] * (len(num) + k)
            for i, c in enumerate(num):
                new[i] += c
                new[i + k] -= c
            num = new
        for d in self.ws.scaled:
            # synthetic division by (1 - u^d)
            width = max(len(num) - d, 0)
            out = [0] * width
            rem = list(num)
            for i in range(width):
                out[i] = rem[i]
                rem[i + d] += rem[i]
            if any(rem[width:]):
                raise AssertionError("Hilbert series division not exact")
            num = out if out else [0]
        while num and num[-1] == 0:
            num.pop()
        if any(c < 0 for c in num):
            raise AssertionError("negative Hilbert coefficient")
        return num

    # -- graded structure ----------------------------------------------------

    def dim_scaled(self, sdeg: int) -> int:
        if sdeg < 0 or sdeg >= len(self._hilbert):
            return 0
        return self._hilbert[sdeg]

    def dim_at(self, q) -> int:
        try:
            s = self.ws.to_scaled(q)
        except ValueError:
            return 0
        return self.dim_scaled(s)

    def piece(self, sdeg: int) -> GradedPiece:
        if sdeg not in self._pieces:
            p = GradedPiece(self.ws, self.partials, sdeg, self.strides)
            if p.dim != self.dim_scaled(sdeg):
                raise AssertionError(
                    "piece dimension %d at scaled degree %d disagrees with "
                    "the Hilbert series value %d"
                    % (p.dim, sdeg, self.dim_scaled(sdeg)))
            self._pieces[sdeg] = p
        return self._pieces[sdeg]

    def top_scaled(self) -> int:
        return len(self._hilbert) - 1

    def integer_degrees(self) -> list:
        """Integer points q with L*q inside the graded range."""
        L = self.ws.scale
        return [q for q in range(0, self.top_scaled() // L + 1)]

    # -- quotient operations -------------------------------------------------

    def normal_form(self, p: XPoly) -> RfClass:
        if p.is_zero():
            return RfClass(0, {})
        degs = {self.ws.scaled_degree(e) for e in p.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not weighted homogeneous")
        s = degs.pop()
        if s > self.top_scaled():
            return RfClass(s, {})
        piece = self.piece(s)
        coords: dict = {}
        for e, c in p.terms.items():
            for k, v in piece.nf_exps(e, c).items():
                w = coords.get(k, Fraction(0)) + v
                if w:
                    coords[k] = w
                else:
                    del coords[k]
        return RfClass(s, coords)

    def class_of_monomial(self, exps) -> RfClass:
        s = self.ws.scaled_degree(exps)
        if s > self.top_scaled():
            return RfClass(s, {})
        return RfClass(s, self.piece(s).nf_exps(exps))

    def multiply(self, a: RfClass, b: RfClass) -> RfClass:
        s = a.sdeg + b.sdeg
        if s > self.top_scaled() or a.is_zero() or b.is_zero():
            return RfClass(s, {})
        ka = self.piece(a.sdeg).basis_keys
        kb = self.piece(b.sdeg).basis_keys
        target = self.piece(s)
        coords: dict = {}
        for i, ca in a.coords.items():
            for j, cb in b.coords.items():
                for k, v in target.nf_key(ka[i] + kb[j], ca * cb).items():
                    w = coords.get(k, Fraction(0)) + v
                    if w:
                        coords[k] = w
                    else:
                        del coords[k]
        return RfClass(s, coords)

    def unit(self) -> RfClass:
        return RfClass(0, {0: Fraction(1)})

    # -- reports -------------------------------------------------------------

    def report(self) -> dict:
        L = self.ws.scale
        dims = {}
        for s, d in enumerate(self._hilbert):
            if d:
                dims[frac_to_str(Fraction(s, L))] = d
        return {
            "milnor": self.milnor,
            "weights": self.ws.to_json(),
            "dims": dims,
            "integer_dims": {q: self.dim_scaled(q * L)
                             for q in self.integer_degrees()},
            "exponents": [frac_to_str(a) for a in self.exponents],
        }


def build_jacobi(f: XPoly, ws: WeightSystem) -> JacobiAlgebra:
    return JacobiAlgebra(f, ws)


def jacobian_piece(f: XPoly, ws: WeightSystem, q) -> dict:
    """Row-reduced span of {g * df/dx_i} in degree q; independent of the
    Hilbert-series route, used as its oracle.

    Returns {"dimension": ambient dim, "rank": ideal rank,
             "quotient_dim": codimension}.
    """
    degs = {ws.scaled_degree(e) for e in f.terms}
    if degs != {ws.scale}:
        raise ValueError("f is not weighted homogeneous of degree 1")
    s = ws.to_scaled(q)
    partials = [f.partial(i) for i in range(ws.nvars)]
    piece = GradedPiece(ws, partials, s)
    return {
        "dimension": len(piece.keys),
        "rank": piece.ideal_rank(),
        "quotient_dim": piece.dim,
        "basis_monomials": piece.basis_monomials,
    }


def normal_form(algebra: JacobiAlgebra, p: XPoly) -> RfClass:
    return algebra.normal_form(p)


def multiply_rf(algebra: JacobiAlgebra, a: RfClass, b: RfClass) -> RfClass:
    return algebra.multiply(a, b)


def h2_generation_check(algebra: JacobiAlgebra) -> dict:
    """Codimension, per integer degree q >= 2, of the span of q-fold
    products of degree-1 classes; passes iff every codimension is 0.

    The span at degree q is grown incrementally: span_q = span_{q-1} *
    R^(1), with spanning vectors kept in reduced echelon form so product
    counts stay at rank * dim R^(1).  Multiplying stops once the span is
    the whole piece, and that full span is handed to the next degree.
    """
    L = algebra.ws.scale
    top_int = algebra.top_scaled() // L
    report: dict[int, int] = {}
    if algebra.dim_scaled(L) == 0:
        # no degree-1 classes: every nonzero higher integer piece is missed
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
        # span of the products, tracked as coordinate lines (`seen`, the
        # common case for union-find pieces: every product of basis
        # monomials reduces to a single line) plus a general echelon.
        seen: set = set()
        ech = Echelon(pivot="min")
        nf_key = target.nf_key
        table, index = target._uf, target.index
        for items, kj in product(prev_rows, deg1_keys):
            if len(items) == 1 and items[0][1] == 1:
                if table is not None and not ech.rank:
                    # a union-find normal form is one table entry, a
                    # single line (below a union-find piece every row is)
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
                # the products span the whole piece; later ones add nothing
                break
        rank = len(seen) + ech.rank
        report[q] = dim - rank
        prev_rows = ([[(k, one)] for k in sorted(seen)]
                     + [list(r.items()) for r in ech.rows.values()])
        prev_keys = target.basis_keys
    return {"codimensions": report,
            "passes": all(v == 0 for v in report.values())}


# ---------------------------------------------------------------------------
# one-parameter families F_t = f + sum t_a m_a (normal forms over series)
# ---------------------------------------------------------------------------


class _SeriesEchelon:
    """Row echelon with TruncSeries entries; pivots must be units.

    Rows are kept fully reduced: a pivot column occurs only in its own row.
    ``_occ`` maps every other column to the pivots whose rows hold it, so an
    insert back-substitutes into exactly the rows that hold the new pivot
    column, and ``reduce`` is one pass over the pivot columns of a vector
    (subtracting a reduced row brings in no pivot column).  All entries
    share one order bound, so a normalized pivot entry is exactly 1 and
    back-substitution clears the pivot column of a row by removing it.

    A row that reduces to one with no unit entry (a row in m*I, m the
    maximal ideal of the parameters) gets no pivot: it is kept aside, and
    ``close`` requires it to reduce to zero once every row is in.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, TruncSeries]] = {}
        self.deferred: list[dict] = []
        self._occ: dict[int, set[int]] = {}

    def reduce(self, vec: dict) -> dict:
        v = {c: x for c, x in vec.items() if not x.is_zero()}
        for p in [c for c in v if c in self.rows]:
            f = v.pop(p)
            for c, x in self.rows[p].items():
                if c == p:
                    continue
                # f * x can vanish by truncation, so s is tested even for
                # a column v does not hold
                s = (v[c] - f * x) if c in v else -(f * x)
                if s.is_zero():
                    v.pop(c, None)
                else:
                    v[c] = s
        return v

    def insert(self, vec: dict) -> bool:
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
        occ = self._occ
        for q in occ.pop(p, ()):
            other = self.rows[q]
            f = other.pop(p)
            for c, x in row.items():
                if c == p:
                    continue
                if c in other:
                    s = other[c] - f * x
                    if s.is_zero():
                        del other[c]
                        occ[c].remove(q)
                    else:
                        other[c] = s
                else:
                    s = -(f * x)
                    if not s.is_zero():
                        other[c] = s
                        occ.setdefault(c, set()).add(q)
        for c in row:
            if c != p:
                occ.setdefault(c, set()).add(p)
        self.rows[p] = row
        return True

    def close(self):
        """Require every deferred row to lie in the span of the pivot rows."""
        for v in self.deferred:
            if self.reduce(v):
                raise AssertionError("family is not flat: row with no unit "
                                     "entry")


class JacobiFamily:
    """F_t = f + sum_a t_a m_a over the degree-1 basis monomials m_a.

    Provides normal forms in R_{F_t} with TruncSeries coefficients, against
    the t=0 monomial basis (the family is flat, so the basis persists).
    """

    def __init__(self, algebra: JacobiAlgebra, t_vars: Sequence[str],
                 order: int):
        self.algebra = algebra
        ws = algebra.ws
        L = ws.scale
        deg1 = algebra.piece(L)
        if len(t_vars) != deg1.dim:
            raise ValueError("need one parameter per degree-1 basis class")
        self.t_vars = tuple(t_vars)
        self.order = order
        self.deg1_monomials = deg1.basis_monomials
        self.deg1_keys = deg1.basis_keys

        def lift(c):
            return TruncSeries.const(self.t_vars, order, c)

        famf = XPoly(ws.nvars, {e: lift(c) for e, c in algebra.f.terms.items()})
        for a, m in enumerate(self.deg1_monomials):
            tm = TruncSeries.var(self.t_vars, order, self.t_vars[a])
            famf = famf + XPoly(ws.nvars, {m: tm})
        self.F = famf
        self.partials = [famf.partial(i) for i in range(ws.nvars)]
        self._pieces: dict[int, _SeriesEchelon] = {}
        self._one = TruncSeries.one(self.t_vars, order)

    def _family_piece(self, sdeg: int):
        if sdeg in self._pieces:
            return self._pieces[sdeg]
        base = self.algebra.piece(sdeg)
        ws = self.algebra.ws
        st = base.strides
        zero = TruncSeries.zero(self.t_vars, self.order)
        ech = _SeriesEchelon()
        for dfi in self.partials:
            if dfi.is_zero():
                continue
            gdeg = sdeg - ws.scaled_degree(next(iter(dfi.terms)))
            if gdeg < 0:
                continue
            terms = [(pack_key(exp, st), c)
                     for exp, c in sorted(dfi.terms.items())]
            for gk in ws.monomial_keys(gdeg, st):
                vec: dict = {}
                for k, c in terms:
                    i = base.index[gk + k]
                    vec[i] = vec.get(i, zero) + c
                vec = {i: v for i, v in vec.items() if not v.is_zero()}
                if vec:
                    ech.insert(vec)
        ech.close()
        pivots = set(ech.rows)
        basis = [i for i in range(len(base.keys)) if i not in pivots]
        if basis != base.basis:
            raise AssertionError("family basis at scaled degree %d deviates "
                                 "from the t=0 basis" % sdeg)
        self._pieces[sdeg] = ech
        return ech

    def mult_entries(self, a: int, from_sdeg: int) -> dict:
        """Nonzero entries {(row, col): TruncSeries} of the matrix of
        multiplication by the degree-1 class m_a from the graded piece at
        from_sdeg to the one at from_sdeg + L.

        Entries are TruncSeries in the family parameters; rows are indexed
        by the target basis, columns by the source basis.  Normal forms
        hold no zero entries, so neither does the result.
        """
        tdeg = from_sdeg + self.algebra.ws.scale
        if not self.algebra.dim_scaled(tdeg):
            return {}
        target = self.algebra.piece(tdeg)
        ech = self._family_piece(tdeg)
        index, pos, one = target.index, target._basis_pos, self._one
        ka = self.deg1_keys[a]
        entries = {}
        for j, kj in enumerate(self.algebra.piece(from_sdeg).basis_keys):
            for c, v in ech.reduce({index[ka + kj]: one}).items():
                entries[pos[c], j] = v
        return entries

    def mult_matrix(self, a: int, from_sdeg: int):
        """Dense view of ``mult_entries``: a list of rows, absent entries
        zero."""
        nrows = self.algebra.dim_scaled(from_sdeg + self.algebra.ws.scale)
        ncols = self.algebra.piece(from_sdeg).dim
        entries = self.mult_entries(a, from_sdeg)
        zero = TruncSeries.zero(self.t_vars, self.order)
        return [[entries.get((i, j), zero) for j in range(ncols)]
                for i in range(nrows)]
