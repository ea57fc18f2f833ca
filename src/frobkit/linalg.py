"""Exact linear algebra: dense helpers and the package's one elimination.

``Echelon`` is an incremental reduced row echelon over sparse vectors with
Fraction entries.  It gives the ranks, inverses and kernels below (an
inverse of A(0) starts the Newton iteration of
``series.SeriesMatrix.inverse_series``), the spans of the graded quotient
and generation computations and the cofactors of the Jacobi pieces.  All
results are exact.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "mat_mul", "identity", "mat_inverse", "mat_rank",
    "nullspace", "Echelon", "transpose",
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
    """Incremental reduced row echelon over sparse vectors with Fraction
    entries.

    Vectors are dicts {column index: entry}; entries enter as
    ``Fraction(x)``, so ints stay exact.  ``insert`` reduces a vector
    against the current rows; if something survives, it becomes a row
    whose pivot (its smallest or, with ``pivot="max"``, its largest column)
    is normalized to 1 and back-substituted into the existing rows.

    Rows are kept fully reduced: a pivot column occurs only in its own row.
    ``_occ`` maps every other column to the pivots whose rows hold it, so an
    insert back-substitutes into exactly the rows that hold the new pivot
    column, and ``reduce`` is one pass over the pivot columns of a vector
    (subtracting a reduced row brings in no pivot column).  A normalized
    pivot entry is exactly 1, so back-substitution clears the pivot column
    of a row by removing it.
    """

    def __init__(self, pivot: str = "min"):
        if pivot not in ("min", "max"):
            raise ValueError("pivot must be 'min' or 'max'")
        self._max = pivot == "max"
        self.rows: dict[int, dict] = {}
        self._occ: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self):
        return set(self.rows)

    def reduce(self, vec) -> dict:
        """Return vec reduced modulo the current row space (a fresh dict)."""
        rows = self.rows
        v = {c: Fraction(x) for c, x in vec.items() if x}
        for p in [c for c in v if c in rows]:
            f = v.pop(p)
            for c, x in rows[p].items():
                if c == p:
                    continue
                a = v.get(c)
                if a is None:
                    v[c] = -(f * x)
                else:
                    s = a - f * x
                    if s:
                        v[c] = s
                    else:
                        del v[c]
        return v

    def insert(self, vec) -> bool:
        """Insert a vector; True if it became a new pivot row (False if it
        reduced to zero)."""
        v = self.reduce(vec)
        if not v:
            return False
        p = max(v) if self._max else min(v)
        inv = 1 / v[p]
        row = {c: x * inv for c, x in v.items()}
        occ = self._occ
        for q in occ.pop(p, ()):
            other = self.rows[q]
            f = other.pop(p)
            for c, x in row.items():
                if c == p:
                    continue
                a = other.get(c)
                if a is None:
                    other[c] = -(f * x)
                    occ.setdefault(c, set()).add(q)
                else:
                    s = a - f * x
                    if s:
                        other[c] = s
                    else:
                        del other[c]
                        occ[c].remove(q)
        for c in row:
            if c != p:
                occ.setdefault(c, set()).add(p)
        self.rows[p] = row
        return True
