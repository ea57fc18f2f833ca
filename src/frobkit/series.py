"""Exact truncated multivariate power series and matrices of them.

A TruncSeries is a polynomial with Fraction coefficients, known to be
correct up to a stated total-degree bound ``order``; everything of higher
degree has been discarded.  All arithmetic is exact on the retained part.
Matrices of series share one variable context and one order bound and are
the carriers for connection and Higgs data everywhere else in the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Frac",
    "TruncSeries",
    "SeriesMatrix",
    "frac_from_str",
    "frac_to_str",
]

Frac = Fraction
_ZERO = Fraction(0)
_new = object.__new__
_set = object.__setattr__


def frac_from_str(s) -> Fraction:
    """Parse "num/den" (or a bare integer string / int) into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def frac_to_str(x: Fraction) -> str:
    """Canonical "num/den" encoding, denominator always present."""
    return "%d/%d" % (x.numerator, x.denominator)


class SeriesError(ValueError):
    """Structural misuse: variable mismatch, unknown variable, bad shape."""


def _as_frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise SeriesError("coefficient must be an int or Fraction, got %r" % (c,))


class TruncSeries:
    """Formal power series in ``vars``, truncated at total degree ``order``.

    terms maps exponent tuples (one entry per variable) to nonzero
    Fractions; every stored exponent tuple has total degree <= order.
    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("vars", "order", "terms")

    def __init__(self, vars: Sequence[str], order: int,
                 terms: Mapping[tuple, Fraction] | None = None):
        if order < 0:
            raise SeriesError("order bound must be >= 0")
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise SeriesError("duplicate variable names: %r" % (vars,))
        clean = {}
        if terms:
            nv = len(vars)
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nv or any(k < 0 for k in e):
                    raise SeriesError("bad exponent tuple %r for %d vars" % (e, nv))
                if sum(e) > order:
                    continue
                c = _as_frac(c)
                if c != 0:
                    clean[e] = c
        _set(self, "vars", vars)
        _set(self, "order", order)
        _set(self, "terms", clean)

    @staticmethod
    def _make(vars: tuple, order: int, terms: dict) -> "TruncSeries":
        """Trusted constructor: wrap ``terms`` as is, with no checks or copy.

        The caller guarantees everything ``__init__`` would otherwise
        enforce: ``vars`` is a tuple of distinct names, ``order >= 0``, and
        ``terms`` is a dict of exponent tuples (``len(vars)`` nonnegative
        ints, total degree <= order) to nonzero Fractions.  The dict becomes
        the new series' own, so the caller must not touch it afterwards.
        Use it only for output that is clean by construction, such as the
        result of an operation on series that already hold the invariant.
        """
        out = _new(TruncSeries)
        _set(out, "vars", vars)
        _set(out, "order", order)
        _set(out, "terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, order):
        return cls(vars, order)

    @classmethod
    def const(cls, vars, order, c):
        # the checks of __init__, without its walk over the exponent tuple
        vars = tuple(vars)
        c = _as_frac(c)
        if order < 0:
            raise SeriesError("order bound must be >= 0")
        if len(set(vars)) != len(vars):
            raise SeriesError("duplicate variable names: %r" % (vars,))
        return cls._make(vars, order, {(0,) * len(vars): c} if c else {})

    @classmethod
    def one(cls, vars, order):
        return cls.const(vars, order, 1)

    @classmethod
    def var(cls, vars, order, name):
        vars = tuple(vars)
        if name not in vars:
            raise SeriesError("unknown variable %r" % name)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, order, {tuple(e): Fraction(1)})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Fraction:
        if not self.terms:
            return _ZERO
        return self.terms.get((0,) * len(self.vars), _ZERO)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.order, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<0 (order %d)>" % self.order
        bits = []
        for e in sorted(self.terms):
            mono = "*".join("%s^%d" % (v, k) for v, k in zip(self.vars, e) if k)
            c = self.terms[e]
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return "<" + " + ".join(bits) + " (order %d)>" % self.order

    def _like(self, other: "TruncSeries"):
        if self.vars != other.vars:
            raise SeriesError("variable lists differ: %r vs %r"
                              % (self.vars, other.vars))

    # -- ring operations ---------------------------------------------------
    # Binary operations align to the smaller order bound: the result is
    # only trustworthy where both inputs are.

    def __add__(self, other, negate=False):
        """self + other; with negate, self - other, by the same loop with
        -c for each term of other (the terms and key order of
        self + (-other), without building -other)."""
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.const(self.vars, self.order, other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._like(other)
        order = min(self.order, other.order)
        if self.order == order:
            terms = dict(self.terms)
        else:
            terms = {e: c for e, c in self.terms.items() if sum(e) <= order}
        right = other.terms.items()
        if other.order != order:
            right = [(e, c) for e, c in right if sum(e) <= order]
        for e, c in right:
            if negate:
                c = -c
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s += c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return TruncSeries._make(self.vars, order, terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make(self.vars, self.order,
                                 {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_frac(other)
            if c == 0:
                return TruncSeries._make(self.vars, self.order, {})
            return TruncSeries._make(self.vars, self.order,
                                     {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._like(other)
        order = min(self.order, other.order)
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        terms: dict = {}
        for e1, c1 in self.terms.items():
            room = order - sum(e1)
            if room < 0:
                continue
            for e2, d2, c2 in right:
                if d2 > room:
                    continue
                e = tuple(map(add, e1, e2))
                s = terms.get(e)
                if s is None:
                    terms[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return TruncSeries._make(self.vars, order, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("exponent must be a non-negative int")
        out = TruncSeries.one(self.vars, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.constant_term
        if c0 == 0:
            raise SeriesError("series is not a unit (zero constant term)")
        inv_c0 = 1 / c0
        # Newton-free iteration: u_{k+1} picks up one degree per step.
        rest = self - c0
        out = TruncSeries.const(self.vars, self.order, inv_c0)
        power = TruncSeries.one(self.vars, self.order)
        sign = -1
        for _ in range(self.order):
            power = power * rest
            if power.is_zero():
                break
            out = out + power * (sign * inv_c0 ** (_ + 2))
            sign = -sign
        return out

    # -- calculus and structural maps --------------------------------------

    def partial(self, name: str) -> "TruncSeries":
        """Formal d/d(name).  The result bound drops to order-1."""
        if name not in self.vars:
            raise SeriesError("unknown variable %r" % name)
        i = self.vars.index(name)
        if self.order == 0:
            raise SeriesError("cannot differentiate a series of order 0")
        # lowering e[i] is injective on the terms with e[i] > 0, and
        # c * e[i] stays nonzero, so the result is clean as built
        terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                 for e, c in self.terms.items() if e[i]}
        return TruncSeries._make(self.vars, self.order - 1, terms)

    def mul_var(self, name: str) -> "TruncSeries":
        """Multiply by a variable, raising the order bound by 1.

        Multiplication by an exact degree-1 monomial turns degree<=k
        information into degree<=k+1 information, so the bound may grow.
        """
        if name not in self.vars:
            raise SeriesError("unknown variable %r" % name)
        i = self.vars.index(name)
        terms = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in self.terms.items()}
        return TruncSeries._make(self.vars, self.order + 1, terms)

    def restrict_zero(self, names: Iterable[str]) -> "TruncSeries":
        """Set the listed variables to 0 and remove them from the context."""
        names = list(names)
        for nm in names:
            if nm not in self.vars:
                raise SeriesError("unknown variable %r" % nm)
        drop = [self.vars.index(nm) for nm in names]
        keep = [i for i in range(len(self.vars)) if i not in drop]
        new_vars = tuple(self.vars[i] for i in keep)
        terms = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                continue
            terms[tuple(e[i] for i in keep)] = c
        return TruncSeries(new_vars, self.order, terms)

    def extend(self, new_vars: Sequence[str]) -> "TruncSeries":
        """Reinterpret in a larger (or reordered) variable context."""
        new_vars = tuple(new_vars)
        pos = []
        for v in self.vars:
            if v not in new_vars:
                raise SeriesError("variable %r missing from new context" % v)
            pos.append(new_vars.index(v))
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * len(new_vars)
            for p, k in zip(pos, e):
                e2[p] = k
            terms[tuple(e2)] = c
        return TruncSeries(new_vars, self.order, terms)

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise SeriesError("cannot raise the order bound by truncation")
        return TruncSeries(self.vars, order, self.terms)

    def graded_part(self, degree: int, names: Iterable[str] | None = None,
                    weights: Mapping[str, int] | None = None) -> "TruncSeries":
        """Terms whose (weighted) degree in the listed variables equals degree.

        With names=None the total degree over all variables is used; weights
        maps variable name to a positive integer weight (default 1).
        """
        if names is None:
            idx = range(len(self.vars))
        else:
            idx = [self.vars.index(nm) for nm in names]
        wt = {}
        for i in idx:
            wt[i] = 1 if not weights else weights.get(self.vars[i], 1)
        terms = {e: c for e, c in self.terms.items()
                 if sum(e[i] * wt[i] for i in wt) == degree}
        return TruncSeries._make(self.vars, self.order, terms)

    def compose(self, mapping: Mapping[str, "TruncSeries"]) -> "TruncSeries":
        """Substitute a series (with zero constant term) for every variable.

        All images must share one variable context and order; the result
        lives in that context.
        """
        images = [mapping[v] for v in self.vars]
        if not images:
            raise SeriesError("composition needs at least one variable")
        ctx = images[0].vars
        order = min(im.order for im in images)
        for im in images:
            if im.vars != ctx:
                raise SeriesError("composition images disagree on context")
            if im.constant_term != 0:
                raise SeriesError("composition image has nonzero constant term")
        out = TruncSeries(ctx, order)
        pow_cache: list[dict[int, TruncSeries]] = [dict() for _ in images]

        def power(i, k):
            cache = pow_cache[i]
            if k not in cache:
                if k == 0:
                    cache[k] = TruncSeries.one(ctx, order)
                else:
                    cache[k] = power(i, k - 1) * images[i]
            return cache[k]

        for e, c in self.terms.items():
            term = TruncSeries.const(ctx, order, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "order": self.order,
            "terms": [[list(e), frac_to_str(self.terms[e])]
                      for e in sorted(self.terms)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries":
        terms = {tuple(e): frac_from_str(c) for e, c in obj.get("terms", [])}
        return cls(obj["vars"], obj["order"], terms)


def euler_integrate(partials: Mapping[str, TruncSeries],
                    names: Sequence[str] | None = None) -> TruncSeries:
    """The unique F with F(0)=0 and dF/d(name) = partials[name].

    Termwise radial integration; callers must guarantee closedness of the
    given one-form (mixed partials of the result are asserted elsewhere).
    When ``names`` covers only part of the context, the remaining variables
    are treated as constants and F is the part vanishing at names=0.
    """
    if not partials:
        raise SeriesError("nothing to integrate")
    some = next(iter(partials.values()))
    ctx = some.vars
    order = min(p.order for p in partials.values())
    if names is None:
        names = list(partials)
    idx = {nm: ctx.index(nm) for nm in names}
    terms: dict = {}
    for nm, p in partials.items():
        if p.vars != ctx:
            raise SeriesError("partials disagree on variable context")
        i = idx[nm]
        for e, c in p.terms.items():
            if sum(e) > order:
                continue
            e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
            d = sum(e2[idx[n]] for n in names)
            terms[e2] = terms.get(e2, Fraction(0)) + c / d
    return TruncSeries(ctx, order + 1, terms)


def _check_shape(rows, cols):
    if rows < 1 or cols < 1:
        raise SeriesError("matrix must be nonempty")


class SeriesMatrix:
    """Rectangular matrix of TruncSeries sharing one context and bound.

    Storage is sparse by rows: row i is a dict {column: entry} that holds
    only the nonzero entries, keyed in increasing column order, and is never
    mutated once the matrix exists (so matrices may share rows).  ``M[i, j]``
    returns a zero of the matrix's vars and order for an absent entry.
    Products run row by row over the nonzeros (Gustavson, ACM TOMS 1978),
    accumulating each entry in increasing inner index as a dense sweep
    would.
    """

    __slots__ = ("rows", "cols", "vars", "order", "_data", "_zero")

    def __init__(self, entries: Sequence[Sequence[TruncSeries]]):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise SeriesError("matrix must be nonempty")
        rows, cols = len(entries), len(entries[0])
        vars = entries[0][0].vars
        order = min(min(x.order for x in row) for row in entries)
        data = []
        for row in entries:
            if len(row) != cols:
                raise SeriesError("ragged matrix")
            out = {}
            for j, x in enumerate(row):
                if x.vars != vars:
                    raise SeriesError("matrix entries disagree on variables")
                if x.terms and x.order != order:
                    x = x.truncate(order)
                if x.terms:
                    out[j] = x
            data.append(out)
        SeriesMatrix._fill(self, rows, cols, vars, order, data)

    @staticmethod
    def _fill(m, rows, cols, vars, order, data):
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "vars", vars)
        _set(m, "order", order)
        _set(m, "_data", data)
        _set(m, "_zero", TruncSeries._make(vars, order, {}))

    @staticmethod
    def _make(rows, cols, vars, order, data) -> "SeriesMatrix":
        """Trusted constructor over sparse rows, with no checks or copy.

        ``data`` is a list of ``rows`` dicts as described in the class
        docstring; every stored entry is a nonzero TruncSeries over exactly
        ``vars`` with order exactly ``order``.
        """
        out = _new(SeriesMatrix)
        SeriesMatrix._fill(out, rows, cols, vars, order, data)
        return out

    def __setattr__(self, *a):
        raise AttributeError("SeriesMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n, m, vars, order):
        _check_shape(n, m)
        z = TruncSeries.zero(vars, order)
        return cls._make(n, m, z.vars, order, [{} for _ in range(n)])

    @classmethod
    def identity(cls, n, vars, order):
        _check_shape(n, n)
        o = TruncSeries.one(vars, order)
        return cls._make(n, n, o.vars, order, [{i: o} for i in range(n)])

    @classmethod
    def from_consts(cls, mat, vars, order):
        """Lift a rectangular array of ints/Fractions to constant series."""
        return cls([[TruncSeries.const(vars, order, c) for c in row]
                    for row in mat])

    @classmethod
    def from_sparse(cls, rows, cols, vars, order,
                    entries: Mapping[tuple, TruncSeries]) -> "SeriesMatrix":
        """Matrix from its entries {(i, j): series}; absent entries are zero.

        The result is the dense constructor's on the filled-in matrix: every
        entry must be a series in ``vars``, and the matrix order is the least
        of ``order`` and the entries' orders.
        """
        _check_shape(rows, cols)
        vars = TruncSeries.zero(vars, order).vars
        for (i, j), x in entries.items():
            if not (isinstance(i, int) and isinstance(j, int)
                    and 0 <= i < rows and 0 <= j < cols):
                raise SeriesError("entry (%r, %r) lies outside a %dx%d matrix"
                                  % (i, j, rows, cols))
            if not isinstance(x, TruncSeries) or x.vars != vars:
                raise SeriesError("entry (%d, %d) is not a series in %r"
                                  % (i, j, vars))
            order = min(order, x.order)
        data = [{} for _ in range(rows)]
        for i, j in sorted(entries):
            x = entries[i, j]
            if x.order != order:
                x = x.truncate(order)
            if x.terms:
                data[i][j] = x
        return cls._make(rows, cols, vars, order, data)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        row = self._data[i]
        if not -self.cols <= j < self.cols:
            raise IndexError("column index %r out of range" % (j,))
        return row.get(j % self.cols, self._zero)

    def nonzero(self) -> dict:
        """The stored entries as {(i, j): series}, in row-major order."""
        return {(i, j): x for i, row in enumerate(self._data)
                for j, x in row.items()}

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.vars == other.vars and self.order == other.order
                and self._data == other._data)

    def __repr__(self):
        return "SeriesMatrix(%dx%d over %r, order %d)" % (
            self.rows, self.cols, self.vars, self.order)

    def is_zero(self) -> bool:
        return not any(self._data)

    def is_constant(self) -> bool:
        return all(x.is_constant() for row in self._data
                   for x in row.values())

    def at_origin(self) -> list:
        """Constant-term matrix as a list of lists of Fractions."""
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for row, data in zip(out, self._data):
            for j, x in data.items():
                row[j] = x.constant_term
        return out

    def column(self, j) -> list:
        return [self[i, j] for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------------

    def _shape_like(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise SeriesError("shape mismatch %dx%d vs %dx%d"
                              % (self.rows, self.cols, other.rows, other.cols))

    def _map(self, f):
        """Apply f to every entry.  f(0) runs first: it raises whatever f
        raises on this context and gives the result's vars and order."""
        zero = f(self._zero)
        data = []
        for row in self._data:
            out = {}
            for j, x in row.items():
                y = f(x)
                if y.terms:
                    out[j] = y
            data.append(out)
        return SeriesMatrix._make(self.rows, self.cols, zero.vars, zero.order,
                                  data)

    def _combine(self, other, both, right):
        """Entrywise both(a, b) over the union of the nonzeros, with a
        stored entry of self kept as is and right(b) for one of other."""
        self._shape_like(other)
        zero = both(self._zero, other._zero)
        order = zero.order
        data = []
        for ra, rb in zip(self._data, other._data):
            out = {}
            for j in sorted(ra.keys() | rb.keys()):
                a = ra.get(j)
                b = rb.get(j)
                if b is None:
                    x = a
                elif a is None:
                    x = right(b)
                else:
                    x = both(a, b)
                if x.order != order:
                    x = x.truncate(order)
                if x.terms:
                    out[j] = x
            data.append(out)
        return SeriesMatrix._make(self.rows, self.cols, zero.vars, order,
                                  data)

    def __add__(self, other):
        return self._combine(other, TruncSeries.__add__, lambda b: b)

    def __sub__(self, other):
        return self._combine(other, TruncSeries.__sub__, TruncSeries.__neg__)

    def __neg__(self):
        return self._map(TruncSeries.__neg__)

    def scale(self, c):
        return self._map(lambda a: a * c)

    def scale_series(self, s: TruncSeries):
        return self._map(lambda a: a * s)

    def __matmul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SeriesError("shape mismatch for product")
        right = other._data
        data = []
        for ra in self._data:
            acc: dict = {}
            for k, a in ra.items():
                for j, b in right[k].items():
                    p = a * b
                    s = acc.get(j)
                    acc[j] = p if s is None else s + p
            data.append({j: acc[j] for j in sorted(acc) if acc[j].terms})
        return SeriesMatrix._make(self.rows, other.cols, self.vars,
                                  min(self.order, other.order), data)

    def commutator(self, other):
        return (self @ other) - (other @ self)

    def transpose(self):
        data = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row.items():
                data[j][i] = x
        return SeriesMatrix._make(self.cols, self.rows, self.vars, self.order,
                                  data)

    def partial(self, name: str):
        return self._map(lambda a: a.partial(name))

    def mul_var(self, name: str):
        return self._map(lambda a: a.mul_var(name))

    def restrict_zero(self, names):
        names = list(names)
        return self._map(lambda a: a.restrict_zero(names))

    def extend(self, new_vars):
        new_vars = tuple(new_vars)
        return self._map(lambda a: a.extend(new_vars))

    def truncate(self, order):
        return self._map(lambda a: a.truncate(order))

    def graded_part(self, degree, names=None, weights=None):
        if names is not None:
            names = list(names)
        return self._map(lambda a: a.graded_part(degree, names, weights))

    def compose(self, mapping):
        return self._map(lambda a: a.compose(mapping))

    def conjugate_const(self, basis, basis_inv):
        """basis_inv @ self @ basis with constant Fraction matrices."""
        n = self.rows
        b = SeriesMatrix.from_consts(basis, self.vars, self.order)
        binv = SeriesMatrix.from_consts(basis_inv, self.vars, self.order)
        if len(basis) != n:
            raise SeriesError("basis size mismatch")
        return binv @ self @ b

    def solve_series(self, rhs: "SeriesMatrix") -> "SeriesMatrix":
        """Solve self @ X = rhs; self must be square with an invertible
        constant term (pivots are chosen on unit entries only)."""
        if self.rows != self.cols:
            raise SeriesError("solve needs a square matrix")
        n = self.rows
        if rhs.rows != n:
            raise SeriesError("right-hand side needs %d rows" % n)
        zero = self._zero * rhs._zero
        order = zero.order
        A = self if self.order == order else self.truncate(order)
        B = rhs if rhs.order == order else rhs.truncate(order)
        # Sparse Gauss-Jordan on rows [A | B]; B's columns sit at n + j.
        work = []
        for ra, rb in zip(A._data, B._data):
            row = dict(ra)
            for j, x in rb.items():
                row[n + j] = x
            work.append(row)
        for col in range(n):
            piv = None
            for r in range(col, n):
                x = work[r].get(col)
                if x is not None and x.constant_term != 0:
                    piv = r
                    break
            if piv is None:
                raise SeriesError("matrix constant term is singular")
            work[col], work[piv] = work[piv], work[col]
            inv = work[col][col].inverse()
            prow = {}
            for j, x in work[col].items():
                y = x * inv
                if y.terms:
                    prow[j] = y
            work[col] = prow
            for r in range(n):
                row = work[r]
                f = row.get(col) if r != col else None
                if f is None:
                    continue
                for j, b in prow.items():
                    fb = f * b
                    a = row.get(j)
                    x = -fb if a is None else a - fb
                    if x.terms:
                        row[j] = x
                    else:
                        row.pop(j, None)
        data = [{j - n: x for j, x in sorted(row.items()) if j >= n}
                for row in work]
        return SeriesMatrix._make(n, B.cols, zero.vars, order, data)

    def inverse_series(self) -> "SeriesMatrix":
        return self.solve_series(
            SeriesMatrix.identity(self.rows, self.vars, self.order))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "vars": list(self.vars),
            "order": self.order,
            "entries": [[row[j].to_json()["terms"] if j in row else []
                         for j in range(self.cols)] for row in self._data],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SeriesMatrix":
        vars = obj["vars"]
        order = obj["order"]
        return cls([[TruncSeries.from_json({"vars": vars, "order": order,
                                            "terms": t})
                     for t in row] for row in obj["entries"]])
