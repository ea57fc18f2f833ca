"""Exact linear algebra over Fractions: dense helpers and sparse echelons.

Everything here operates on plain Python lists/dicts of Fractions, so all
results are exact.  The sparse Echelon class is the workhorse for span and
rank bookkeeping in the graded quotient and generation computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "mat_mul", "mat_vec", "identity", "mat_inverse", "mat_rank",
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


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if c and x), Fraction(0))
            for row in a]


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
