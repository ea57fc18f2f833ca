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
checked against it.  Over binomial partials the certificate searches the
union-find component of a pure power of each variable above the socle, and
all of them in the ideal prove the quotient finite.  Otherwise it walks the
degrees above the socle upwards, and at each one drops the variables x_i
whose cofactor degree already lies above the socle: those pieces are
certified zero, so x_i times any monomial of that degree is in the ideal,
and only the piece in the remaining variables, with every partial
restricted to them, is built.

The family F_t = f + sum_a t_a m_a over the degree-1 basis monomials is
not eliminated again.  Its normal forms are lifted in t from the
algebra's: each piece can write m - NF(m) as sum_i h_i dF/dx_i (its
ideal rows eliminated with their origins tagged), and then
m = NF(m) - sum_a t_a sum_i h_i dm_a/dx_i modulo the ideal of F_t, a
polynomial of the same degree, reduced again one t-degree higher.  The
t = 0 basis stays a basis: the partials of F_t lift a regular sequence, so
the quotient is free over the truncated series ring (the local flatness
criterion), and the lifted normal form is the only one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from typing import Sequence

from .linalg import Echelon
from .series import (TruncSeries, exponent_strides, frac_from_str,
                     frac_to_str, pack_key, require_context, unpack_key)

__all__ = [
    "WeightSystem", "XPoly", "JacobiAlgebra", "RfClass", "build_jacobi",
    "check_polynomial", "jacobian_piece", "multiply_rf",
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
    """Exact polynomial in x_0..x_n; coefficients Fraction or TruncSeries
    (an int coefficient is stored as a Fraction, anything else raises)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in dict(terms).items():
                e = tuple(e)
                if len(e) != nvars or any(not isinstance(k, int) or k < 0
                                          for k in e):
                    raise ValueError("bad exponent tuple %r for %d vars"
                                     % (e, nvars))
                if isinstance(c, int):
                    c = Fraction(c)
                elif not isinstance(c, (Fraction, TruncSeries)):
                    raise ValueError("coefficient %r of %r is not exact"
                                     % (c, e))
                if _nonzero(c):
                    self.terms[e] = c

    @classmethod
    def from_json(cls, nvars, term_list):
        terms = {}
        for e, c in term_list:
            e = tuple(e)
            if e in terms:
                raise ValueError("repeated exponent %r" % (list(e),))
            terms[e] = frac_from_str(c)
        return cls(nvars, terms)

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


# ---------------------------------------------------------------------------
# reduction engines for one graded piece
# ---------------------------------------------------------------------------


def _packed_partials(ws, partials, sdeg, strides) -> list:
    """(i, multiplier keys, [(packed key, coefficient)] in exponent order)
    for every nonzero partial dF/dx_i with multipliers g at scaled degree
    sdeg; the keys of the g are shared by the partials of one degree."""
    gkeys: dict = {}
    packed = []
    for i, dfi in enumerate(partials):
        if dfi.is_zero():
            continue
        gdeg = sdeg - ws.scaled_degree(next(iter(dfi.terms)))
        if gdeg < 0:
            continue
        shifts = gkeys.get(gdeg)
        if shifts is None:
            shifts = gkeys[gdeg] = ws.monomial_keys(gdeg, strides)
        packed.append((i, shifts, [(pack_key(exp, strides), c)
                                   for exp, c in sorted(dfi.terms.items())]))
    return packed


def _ideal_rows(packed, index):
    """The ideal rows g * dF/dx_i as ((g, i), {monomial index:
    coefficient}), g a packed key.

    Distinct exponents of one partial give distinct keys, and no
    coefficient is zero, so a row needs no accumulation.
    """
    for i, shifts, terms in packed:
        for g in shifts:
            yield (g, i), {index[g + k]: c for k, c in terms}


def _multipliers(start, edges):
    """{m: c} with e_m = c * e_start over the component of ``start``, found
    by a search along ``edges(u)``: the pairs (v, r) with e_v = r * e_u, or
    None when u is dead.  None when the search meets a dead monomial or an
    inconsistent cycle, either of which puts e_start in the ideal."""
    coef = {start: Fraction(1)}
    stack = [start]
    while stack:
        u = stack.pop()
        out = edges(u)
        if out is None:
            return None
        cu = coef[u]
        for v, ratio in out:
            cv = cu * ratio
            known = coef.get(v)
            if known is None:
                coef[v] = cv
                stack.append(v)
            elif known != cv:
                return None
    return coef


def _binomial_component(rows, start):
    """``_multipliers`` of the monomial ``start`` in the quotient by partials
    of at most two terms (``rows``, each a list of (exponent tuple,
    coefficient)): a one-term partial that divides a monomial kills it, and
    a row c*x^(g+e) + c'*x^(g+e') gives e_(g+e') = -c/c' * e_(g+e)."""
    def edges(m):
        out = []
        for terms in rows:
            for (e, c), (e2, c2) in zip(terms, reversed(terms)):
                g = [a - b for a, b in zip(m, e)]
                if min(g) < 0:
                    continue
                if len(terms) == 1:
                    return None
                out.append((tuple(a + b for a, b in zip(g, e2)), -c / c2))
        return out

    return _multipliers(start, edges)


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
    ``cofactors`` are computed from ``_source`` on first use only.
    """

    def __init__(self, ws: WeightSystem, partials, sdeg: int, strides=None):
        self.sdeg = sdeg
        self.strides = strides if strides is not None else ws.key_strides(sdeg)
        self.keys = ws.monomial_keys(sdeg, self.strides)
        self.index = dict(zip(self.keys, range(len(self.keys))))
        self._source = (ws, partials)
        self._cof = None
        self._build(ws, partials, sdeg)

    def _build(self, ws, partials, sdeg):
        packed = _packed_partials(ws, partials, sdeg, self.strides)
        if all(len(terms) <= 2 for _, _, terms in packed):
            self._build_uf(packed)
        else:
            self._build_echelon(packed)

    def _build_uf(self, packed):
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
        for _, shifts, terms in packed:
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
        adj: dict[int, list] = defaultdict(list)
        for left, right, ratio in binomials:
            inv = 1 / ratio
            for i, j in zip(left, right):
                if killed[root[i]]:
                    continue
                adj[i].append((j, inv))
                adj[j].append((i, ratio))
        # each surviving component is spanned by its lex-first monomial b;
        # a search from b gives e_m = c_m * e_b, and an inconsistent cycle
        # puts e_b (so the whole component) in the span
        table: list = [None] * n
        basis = []
        for b in range(n):
            r = root[b]
            if killed[r]:
                continue
            killed[r] = 1       # component visited
            coef = _multipliers(b, adj.__getitem__)
            if coef is not None:
                pos = len(basis)
                basis.append(b)
                for m, c in coef.items():
                    table[m] = (pos, c)
        self._uf = table
        self._echelon = None
        self.basis = basis
        self.dim = len(basis)
        self._basis_pos = {b: k for k, b in enumerate(basis)}

    def _build_echelon(self, packed):
        ech = Echelon(pivot="max")
        for _, row in _ideal_rows(packed, self.index):
            ech.insert(row)
        pivots = ech.pivots
        self.basis = [i for i in range(len(self.keys)) if i not in pivots]
        self.dim = len(self.basis)
        self._echelon = ech
        self._uf = None
        self._basis_pos = {b: k for k, b in enumerate(self.basis)}

    def cofactors(self) -> list:
        """Cofactors h with m - NF(m) = sum_i h_i * dF/dx_i, one per
        monomial index m: None for a basis monomial (h = 0), else the terms
        (c, g, i) of h = sum c * x^g * e_i (g a packed key).

        The ideal rows are eliminated again with each row's origin carried
        in its own negative column, as [A | I] carries the row operations;
        each pivot monomial's cofactor is read off its row's tags.  Columns
        below zero are never pivots, so the pivots are the build's: those
        of the echelon, and on a union-find piece every monomial but the
        lex-first one of a kill-free, consistent component, since there
        e_m - c_m e_b spans the rows and b is the largest column of none.
        """
        if self._cof is None:
            ech = Echelon(pivot="max")
            origin = []
            one = Fraction(1)
            packed = _packed_partials(*self._source, self.sdeg, self.strides)
            for gi, row in _ideal_rows(packed, self.index):
                row[-1 - len(origin)] = one
                origin.append(gi)
                row = ech.reduce(row)
                if max(row) >= 0:
                    ech.insert(row)
            cof: list = [None] * len(self.keys)
            for p, row in ech.rows.items():
                cof[p] = tuple((c, *origin[-1 - col])
                               for col, c in row.items() if col < 0)
            self._cof = cof
        return self._cof

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

    def nf_key(self, key: int, coeff=Fraction(1)) -> dict:
        """Normal form of coeff times the monomial with packed key ``key``:
        {basis position: Fraction}."""
        i = self.index.get(key)
        if i is None:
            raise ValueError("monomial key %d not of scaled degree %d"
                             % (key, self.sdeg))
        if self._uf is not None:
            entry = self._uf[i]
            return {} if entry is None else {entry[0]: entry[1] * coeff}
        pos = self._basis_pos
        return {pos[c]: x
                for c, x in self._echelon.reduce({i: coeff}).items()}

    def nf_sum(self, items) -> dict:
        """Normal form of sum c * m over (packed key of m, c) pairs, with
        no zero coordinates."""
        out: dict = {}
        for key, c in items:
            for k, v in self.nf_key(key, c).items():
                w = out.get(k, Fraction(0)) + v
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        return out

    def nf_exps(self, exps, coeff=Fraction(1)) -> dict:
        """``nf_key`` for a monomial given by its exponent tuple.  An
        exponent beyond the strides would pack to another monomial's key,
        so a tuple that does not unpack from its key is refused."""
        key = pack_key(exps, self.strides)
        if unpack_key(key, self.strides) != tuple(exps):
            raise ValueError("monomial %r not of scaled degree %d"
                             % (tuple(exps), self.sdeg))
        return self.nf_key(key, coeff)


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


def check_polynomial(f: XPoly, ws: WeightSystem) -> None:
    """Raise ValueError unless f is a nonzero polynomial in the variables of
    ws, weighted homogeneous of degree 1."""
    if f.nvars != ws.nvars:
        raise ValueError("variable count mismatch")
    if f.is_zero():
        raise ValueError("f must be nonzero")
    degs = {ws.scaled_degree(e) for e in f.terms}
    if degs != {ws.scale}:
        raise ValueError("f is not weighted homogeneous of degree 1 "
                         "(scaled degrees %r)" % sorted(degs))


class JacobiAlgebra:
    """Quotient of C[x] by the partial derivatives of a weighted
    homogeneous f with certified isolated singularity at 0."""

    def __init__(self, f: XPoly, ws: WeightSystem):
        check_polynomial(f, ws)
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
        """Certify that f is isolated, or raise NotIsolatedError with the
        lowest scaled degree in B+1..B+max D_i (B the socle degree) where
        the quotient is nonzero.

        C[x]/J is finite-dimensional exactly when a power of each variable
        lies in J (the Finiteness Theorem, Cox-Little-O'Shea ch. 5 section
        3), and then, f being weighted homogeneous, it vanishes above B.  So
        when every x_i^N_i with N_i = B // D_i + 1 lies in J, f is isolated
        and no piece is built.  Over partials of at most two terms each
        membership is one search (``_binomial_component``).

        Otherwise the pieces above B are certified zero, lowest first.  At
        degree s, x_i is covered when s - D_i > B.  The piece at
        s - D_i was certified zero earlier in this loop, so x_i times any
        monomial of that degree lies in J (x_i J_{s-D_i} is in J), and the
        degree-s piece of C[x]/J is that of C[x]/(J + (covered x_i)): the
        piece of C[free]/(every partial with the covered variables set to
        zero).  Only that smaller piece is built.  Straight weights never
        cover a variable: their range is B+1..B+D, so s - D <= B throughout.
        """
        ws = self.ws
        B = ws.socle_scaled()
        rows = [list(p.terms.items()) for p in self.partials if p.terms]
        if all(len(terms) <= 2 for terms in rows) and not any(
                _binomial_component(rows, tuple(
                    B // d + 1 if k == i else 0 for k in range(ws.nvars)))
                for i, d in enumerate(ws.scaled)):
            return
        for s in range(B + 1, B + max(ws.scaled) + 1):
            # no name keeps a piece alive while the next one is built
            if self._uncovered_dim(s, [s - d <= B for d in ws.scaled]):
                raise NotIsolatedError(Fraction(s, ws.scale))

    def _uncovered_dim(self, s: int, free) -> int:
        """Dimension at scaled degree s of the quotient by the partials and
        the variables not flagged in ``free``."""
        ws = self.ws
        sub = WeightSystem(list(compress(ws.weights, free)))
        t, off_grid = divmod(s * sub.scale, ws.scale)
        if off_grid:
            return 0        # no monomial in the free variables has degree s
        covered = [not x for x in free]
        partials = [XPoly(sub.nvars, {tuple(compress(e, free)): c
                                      for e, c in p.terms.items()
                                      if not any(compress(e, covered))})
                    for p in self.partials]
        return GradedPiece(sub, partials, t).dim

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
            width = len(num) - d
            out = [0] * width
            rem = list(num)
            for i in range(width):
                out[i] = rem[i]
                rem[i + d] += rem[i]
            if any(rem[width:]):
                raise AssertionError("Hilbert series division not exact")
            num = out
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

    def integer_rank(self) -> int:
        """Total dimension of the integer-degree pieces."""
        return sum(map(self.dim_at, self.integer_degrees()))

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
        st = piece.strides
        return RfClass(s, piece.nf_sum((pack_key(e, st), c)
                                       for e, c in p.terms.items()))

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
        return RfClass(s, self.piece(s).nf_sum(
            (ka[i] + kb[j], ca * cb)
            for i, ca in a.coords.items() for j, cb in b.coords.items()))

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
    check_polynomial(f, ws)
    s = ws.to_scaled(q)
    partials = [f.partial(i) for i in range(ws.nvars)]
    piece = GradedPiece(ws, partials, s)
    return {
        "dimension": len(piece.keys),
        "rank": piece.ideal_rank(),
        "quotient_dim": piece.dim,
        "basis_monomials": piece.basis_monomials,
    }


def multiply_rf(algebra: JacobiAlgebra, a: RfClass, b: RfClass) -> RfClass:
    return algebra.multiply(a, b)


def h2_generation_check(algebra: JacobiAlgebra) -> dict:
    """Codimension, per integer degree q >= 2, of the span of q-fold
    products of degree-1 classes; passes iff every codimension is 0.

    The span at degree q is grown incrementally: span_q = span_{q-1} *
    R^(1), with one basis of the span handed on, so product counts stay at
    rank * dim R^(1).  Multiplying stops once the span is the whole piece.
    Over an echelon piece the span is an ``Echelon``; over a union-find
    piece it is a set of coordinate lines, each row multiplied out a whole
    row at a time straight through the normal-form table.

    The socle piece is never built.  R is the Milnor algebra of an isolated
    singularity, a zero-dimensional complete intersection, hence Gorenstein
    (Eisenbud, Commutative Algebra, ch. 21): R_top is one-dimensional and
    the product pairing R_(top-L) x R_L -> R_top is perfect.  So when the
    socle is at an integer degree and the span below it is nonzero, some
    product of a spanning element with a degree-1 class is nonzero, and
    the codimension there is 0.  An empty span below still reports the
    socle's dimension.
    """
    L = algebra.ws.scale
    top_int = algebra.top_scaled() // L
    report: dict[int, int] = {}
    deg1 = algebra.piece(L)
    deg1_keys = deg1.basis_keys
    prev_keys = deg1_keys
    one = Fraction(1)
    prev_rows: list[list] = [[(k, one)] for k in range(deg1.dim)]
    for q in range(2, top_int + 1):
        s = q * L
        dim = algebra.dim_scaled(s)
        if dim == 0 or not prev_rows:
            # a zero piece, or no products to span anything in it (no
            # degree-1 classes, or a zero piece below)
            report[q] = dim
            prev_rows = []
            continue
        if s == algebra.top_scaled():
            # the socle: R is Gorenstein, so the nonzero span below pairs
            # onto the one-dimensional R_top
            report[q] = 0
            continue
        target = algebra.piece(s)
        table = target._uf
        if table is not None:
            # below a union-find piece every piece is union-find (a partial
            # counts at every degree from its own upwards), so every row is
            # a unit row and every product's normal form is one table
            # entry: the span is a set of coordinate lines, and each row
            # fills it in one pass
            seen: set = set()
            at = target.index.__getitem__
            for [(k, _)] in prev_rows:
                shifted = map(prev_keys[k].__add__, deg1_keys)
                seen.update(entry[0] for entry in
                            map(table.__getitem__, map(at, shifted))
                            if entry is not None)
                if len(seen) == dim:
                    # the products span the whole piece
                    break
            rank = len(seen)
            prev_rows = [[(k, one)] for k in sorted(seen)]
        else:
            ech = Echelon(pivot="min")
            nf_sum = target.nf_sum
            for items, kj in product(prev_rows, deg1_keys):
                ech.insert(nf_sum((prev_keys[i] + kj, c) for i, c in items))
                if ech.rank == dim:
                    # the products span the whole piece; later ones add
                    # nothing
                    break
            rank = ech.rank
            prev_rows = [list(r.items()) for r in ech.rows.values()]
        report[q] = dim - rank
        prev_keys = target.basis_keys
    return {"codimensions": report,
            "passes": all(v == 0 for v in report.values())}


# ---------------------------------------------------------------------------
# one-parameter families F_t = f + sum t_a m_a (normal forms lifted in t)
# ---------------------------------------------------------------------------


class JacobiFamily:
    """F_t = f + sum_a t_a m_a over the degree-1 basis monomials m_a.

    Provides normal forms in R_{F_t}, with TruncSeries coefficients in the
    t_a truncated at ``order``, against the t = 0 monomial basis, lifted
    from the algebra's own normal forms NF as Dixon lifts a solution
    p-adically (Numer. Math. 40, 1982).  If m - NF(m) = sum_i h_i dF/dx_i
    (the piece's ``cofactors``), then modulo the ideal of F_t

        m = NF(m) + T(m),   T(m) = -sum_a t_a sum_i h_i dm_a/dx_i,

    with T(m) of the degree of m and T zero on the basis; so
    NF_t = NF o sum_{k <= order} T^k.  Slice k of NF_t(m), its part of
    t-degree k, is NF(m) for k = 0, and for k >= 1 the sum of -c e t_a
    times slice k - 1 of x^g dm_a/dx_i = e x^(g + m_a - x_i) over the
    terms (c, g, i) of m's cofactor.
    Slices are memoised per target piece, t-degree and monomial; order 0
    reads NF alone and asks for no cofactors.

    Any choice of cofactors gives the same answer: the quotient is free
    over Q[t]/(t^(order + 1)) on the t = 0 basis, because the partials of
    F_t lift a regular sequence (the local flatness criterion; Matsumura,
    Commutative Ring Theory, section 22), so NF_t(m) is the only
    combination of basis monomials congruent to m.
    """

    def __init__(self, algebra: JacobiAlgebra, t_vars: Sequence[str],
                 order: int):
        self.algebra = algebra
        ws = algebra.ws
        deg1 = algebra.piece(ws.scale)
        if len(t_vars) != deg1.dim:
            raise ValueError("need one parameter per degree-1 basis class")
        self.t_vars = require_context(t_vars, order)
        self.order = order
        self.deg1_monomials = deg1.basis_monomials
        self.deg1_keys = deg1.basis_keys
        # per variable x_i, (series key of t_a, e, key of x^(m_a - x_i))
        # over the m_a with exponent e > 0 in x_i
        tst, xst = exponent_strides(len(self.t_vars)), algebra.strides
        self._moving = [[(tst[a] + tst[-1], m[i], k - xst[i])
                         for a, (m, k) in enumerate(zip(self.deg1_monomials,
                                                        self.deg1_keys))
                         if m[i]]
                        for i in range(ws.nvars)]
        # target scaled degree -> one {monomial index: slice} per t-degree
        self._slices: dict[int, list] = {}

    def _slice(self, piece, k: int, m: int) -> dict:
        """Slice k of the family normal form of the monomial with index m
        in ``piece``: {basis position: {series key: Fraction}}."""
        memo = self._slices.get(piece.sdeg)
        if memo is None:
            memo = self._slices[piece.sdeg] = [{} for _ in
                                               range(self.order + 1)]
        out = memo[k].get(m)
        if out is not None:
            return out
        if k == 0:
            out = {p: {0: c} for p, c in piece.nf_key(piece.keys[m]).items()}
        else:
            out = {}
            for c, g, i in piece.cofactors()[m] or ():
                for tkey, e, shift in self._moving[i]:
                    _add_scaled(out, -c * e, self._slice(
                        piece, k - 1, piece.index[g + shift]), tkey)
        memo[k][m] = out
        return out

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
        ka = self.deg1_keys[a]
        entries: dict = {}
        for j, kj in enumerate(self.algebra.piece(from_sdeg).basis_keys):
            m = target.index[ka + kj]
            for k in range(self.order + 1):
                for p, terms in self._slice(target, k, m).items():
                    entries.setdefault((p, j), {}).update(terms)
        return {pj: TruncSeries._from_fractions(self.t_vars, self.order, terms)
                for pj, terms in entries.items()}

    def mult_matrix(self, a: int, from_sdeg: int):
        """Dense view of ``mult_entries``: a list of rows, absent entries
        zero."""
        nrows = self.algebra.dim_scaled(from_sdeg + self.algebra.ws.scale)
        ncols = self.algebra.piece(from_sdeg).dim
        entries = self.mult_entries(a, from_sdeg)
        zero = TruncSeries.zero(self.t_vars, self.order)
        return [[entries.get((i, j), zero) for j in range(ncols)]
                for i in range(nrows)]


def _add_scaled(out: dict, c, vec: dict, shift: int) -> None:
    """out += c t^shift vec over {basis position: {series key: Fraction}}
    (shift a series key, c nonzero), dropping what cancels."""
    for p, terms in vec.items():
        acc = out.get(p)
        if acc is None:
            out[p] = {key + shift: c * x for key, x in terms.items()}
            continue
        for key, x in terms.items():
            key += shift
            y = acc.get(key, 0) + c * x
            if y:
                acc[key] = y
            else:
                del acc[key]
        if not acc:
            del out[p]
