"""Exact linear algebra: dense helpers and the package's one elimination.

``Echelon`` is an incremental reduced row echelon over sparse vectors with
entries in a coefficient ``Ring``.  Over ``FRACTIONS`` it gives the ranks,
inverses and kernels below, the spans of the graded quotient and
generation computations and the cofactors of the Jacobi pieces; over
``series.TRUNC_SERIES`` (defined in ``series``, which imports this module)
it serves only ``SeriesMatrix.solve_series``.  All results are exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, NamedTuple

__all__ = [
    "mat_mul", "identity", "mat_inverse", "mat_rank",
    "nullspace", "Echelon", "Ring", "FRACTIONS", "transpose",
]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for s in range(k):
            c = ai[s]
            if c:
                bs = b[s]
                for j in range(m):
                    if bs[j]:
                        oi[j] += c * bs[j]
    return out


class Ring(NamedTuple):
    """The coefficient ring of an ``Echelon``.

    ``entry`` converts an input entry into the ring; ``is_zero`` and
    ``is_unit`` test an element and ``inv`` inverts a unit.  Only units
    become pivots.  ``sub_mul(a, f, x)`` is the fused update a - f*x,
    where ``a`` None stands for zero.
    """

    is_zero: Callable
    is_unit: Callable
    inv: Callable
    entry: Callable
    sub_mul: Callable


def _frac_sub_mul(a, f, x):
    return -(f * x) if a is None else a - f * x


# every nonzero Fraction is a unit; Fraction(x) keeps ints exact
FRACTIONS = Ring(is_zero=operator.not_, is_unit=bool,
                 inv=lambda x: 1 / x, entry=Fraction,
                 sub_mul=_frac_sub_mul)


def _echelon(a, ncols):
    """Reduced row echelon of the rows of a dense matrix, pivots leftmost."""
    ech = Echelon(pivot="min")
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        ech.insert(dict(enumerate(row)))
    return ech


def mat_rank(a) -> int:
    if not a:
        return 0
    return _echelon(a, len(a[0])).rank


def mat_inverse(a):
    """Inverse of a square matrix, from the reduced echelon of [a | I];
    raises ValueError if a is singular, not square or ragged."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    ech = _echelon([list(row) + [int(i == j) for j in range(n)]
                    for i, row in enumerate(a)], 2 * n)
    # [a | I] has rank n; a is invertible iff every pivot lies in a
    if any(p >= n for p in ech.rows):
        raise ValueError("matrix is singular")
    zero = Fraction(0)
    return [[ech.rows[i].get(n + j, zero) for j in range(n)]
            for i in range(n)]


def nullspace(a):
    """Basis of the right kernel of a (rows = equations), one vector per
    non-pivot column, in increasing column order."""
    if not a:
        return []
    ncols = len(a[0])
    rows = _echelon(a, ncols).rows
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in rows:
            continue
        v = [zero] * ncols
        v[fc] = one
        for pc, row in rows.items():
            v[pc] = -row.get(fc, zero)
        basis.append(v)
    return basis


class Echelon:
    """Incremental reduced row echelon over sparse vectors with entries in
    ``ring`` (Fractions by default).

    Vectors are dicts {column index: entry}.  ``insert`` reduces a vector
    against the current rows; if something with a unit entry survives, it
    becomes a row whose pivot (the smallest or, with ``pivot="max"``, the
    largest unit column) is normalized to 1 and back-substituted into the
    existing rows.

    Rows are kept fully reduced: a pivot column occurs only in its own row.
    ``_occ`` maps every other column to the pivots whose rows hold it, so an
    insert back-substitutes into exactly the rows that hold the new pivot
    column, and ``reduce`` is one pass over the pivot columns of a vector
    (subtracting a reduced row brings in no pivot column).  A normalized
    pivot entry is exactly 1, so back-substitution clears the pivot column
    of a row by removing it.

    A row that reduces to one with no unit entry (over truncated series, a
    row in m*I, m the maximal ideal of the parameters) gets no pivot: it is
    kept aside in ``deferred``, and ``close`` requires it to reduce to zero
    once every row is in.  Over a field no row is ever deferred.
    """

    def __init__(self, pivot: str = "min", ring: Ring = FRACTIONS):
        if pivot not in ("min", "max"):
            raise ValueError("pivot must be 'min' or 'max'")
        self._max = pivot == "max"
        self.ring = ring
        self.rows: dict[int, dict] = {}
        self.deferred: list[dict] = []
        self._occ: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self):
        return set(self.rows)

    def reduce(self, vec) -> dict:
        """Return vec reduced modulo the current row space (a fresh dict)."""
        ring = self.ring
        is_zero, entry, sub_mul = ring.is_zero, ring.entry, ring.sub_mul
        rows = self.rows
        v = {c: entry(x) for c, x in vec.items() if not is_zero(x)}
        for p in [c for c in v if c in rows]:
            f = v.pop(p)
            for c, x in rows[p].items():
                if c == p:
                    continue
                # over series f * x can vanish by truncation, so s is
                # tested even for a column v does not hold
                s = sub_mul(v.get(c), f, x)
                if is_zero(s):
                    v.pop(c, None)
                else:
                    v[c] = s
        return v

    def insert(self, vec) -> bool:
        """Insert a vector; True if it became a new pivot row (False if it
        reduced to zero or was deferred)."""
        v = self.reduce(vec)
        if not v:
            return False
        ring = self.ring
        is_unit, is_zero, sub_mul = ring.is_unit, ring.is_zero, ring.sub_mul
        unit_cols = [c for c, x in v.items() if is_unit(x)]
        if not unit_cols:
            self.deferred.append(v)
            return False
        p = max(unit_cols) if self._max else min(unit_cols)
        inv = ring.inv(v[p])
        row = {c: x * inv for c, x in v.items()}
        occ = self._occ
        for q in occ.pop(p, ()):
            other = self.rows[q]
            f = other.pop(p)
            for c, x in row.items():
                if c == p:
                    continue
                a = other.get(c)
                s = sub_mul(a, f, x)
                if is_zero(s):
                    if a is not None:
                        del other[c]
                        occ[c].remove(q)
                elif a is None:
                    other[c] = s
                    occ.setdefault(c, set()).add(q)
                else:
                    other[c] = s
        for c in row:
            if c != p:
                occ.setdefault(c, set()).add(p)
        self.rows[p] = row
        return True

    def close(self):
        """Require every deferred row to lie in the span of the pivot rows
        (over series: the rows span a free module)."""
        for v in self.deferred:
            if self.reduce(v):
                raise AssertionError("family is not flat: row with no unit "
                                     "entry")
