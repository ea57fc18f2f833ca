"""Exact truncated multivariate power series and matrices of them.

A TruncSeries is a polynomial, with integer numerators over one denominator,
known exactly up to a total-degree bound ``order``; everything of higher
degree has been discarded, and all arithmetic is exact on the rest.
Matrices of series share one variable context and one order bound and are
the carriers for connection and Higgs data everywhere else in the package.

A series stores its terms under packed integer keys: every exponent gets one
``FIELD_BITS``-bit field, the same for every series in the same number of
variables, and the total degree takes the field above them.  Keys of terms
within an order bound add without carries, the degree of a key is one shift,
and a key is below ``(order + 1) << (FIELD_BITS * nvars)`` exactly when its
degree is at most ``order`` (Monagan and Pearce, *Polynomial division using
dynamic arrays, heaps, and packed exponent vectors*, CASC 2007).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .linalg import mat_inverse

__all__ = [
    "TruncSeries",
    "SeriesMatrix",
    "frac_from_str",
    "frac_to_str",
    "require_int",
    "require_context",
    "require_square",
    "require_order",
    "slice_terms",
    "slice_sum",
    "pack_key",
    "unpack_key",
    "exponent_strides",
    "key_degree",
    "FIELD_BITS",
    "MAX_ORDER",
    "MAX_INPUT_ORDER",
]

_ZERO = Fraction(0)
_new = object.__new__
_set = object.__setattr__


def frac_from_str(s) -> Fraction:
    """Parse "num/den" (or a bare integer string / int) into a Fraction."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError("rational must be an int or a string, got %r" % (s,))
    return Fraction(s)


def frac_to_str(x: Fraction) -> str:
    """Canonical "num/den" encoding, denominator always present."""
    return "%d/%d" % (x.numerator, x.denominator)


class SeriesError(ValueError):
    """Structural misuse: variable mismatch, unknown variable, bad shape."""


def require_int(what, value, minimum=None):
    """Return ``value`` after checking that it is an int (not a bool), at
    least ``minimum`` if one is given; raise SeriesError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        raise SeriesError("%s must be an int >= %s, got %r"
                          % (what, minimum, value))
    return value


def require_context(vars, order) -> tuple:
    """Return ``vars`` as a tuple after checking that they are distinct
    names and that ``order`` is a valid order bound; raise SeriesError
    otherwise."""
    _check_order(order)
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise SeriesError("duplicate variable names: %r" % (vars,))
    return vars


def pack_key(exps, strides) -> int:
    """The packed key sum(e_i * strides[i]) of an exponent tuple."""
    return sum(e * s for e, s in zip(exps, strides))


def unpack_key(key: int, strides) -> tuple:
    """The exponent tuple of a packed key (one entry per stride, the
    largest stride last)."""
    exps = []
    for s in reversed(strides):
        e, key = divmod(key, s)
        exps.append(e)
    return tuple(reversed(exps))


# The width of one exponent field of a series key; an order bound, and so
# every exponent and degree of a series, must fit in one field.
FIELD_BITS = 8
MAX_ORDER = (1 << FIELD_BITS) - 1
# The largest order an input may ask for.  The constructors raise the order
# bound by up to three: the germ constructors integrate the potential three
# times, each integration one degree up.
MAX_INPUT_ORDER = MAX_ORDER - 3


def exponent_strides(nvars: int) -> tuple:
    """The strides of the series keys in nvars variables: one field per
    exponent, then the total degree.  ``unpack_key`` with them gives the
    exponents followed by the degree."""
    return tuple(1 << (FIELD_BITS * i) for i in range(nvars + 1))


def key_degree(key: int, nvars: int) -> int:
    """The total degree of a series key in nvars variables."""
    return key >> (FIELD_BITS * nvars)


def _limit(nvars: int, order: int) -> int:
    """The least key of degree order + 1: a key is below it exactly when
    its degree is at most order."""
    return (order + 1) << (FIELD_BITS * nvars)


def _check_order(order):
    if order < 0:
        raise SeriesError("order bound must be >= 0")
    if order > MAX_ORDER:
        raise SeriesError("order bound %d exceeds the %d-bit exponent field "
                          "(at most %d)" % (order, FIELD_BITS, MAX_ORDER))


def _add_into(terms: dict, items) -> None:
    """Add the (key, value) pairs of ``items`` to ``terms`` in turn: a new
    key goes last, and a key whose sum is zero is deleted."""
    for k, c in items:
        s = terms.get(k)
        if s is None:
            terms[k] = c
        else:
            s += c
            if s:
                terms[k] = s
            else:
                del terms[k]


def _as_frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise SeriesError("coefficient must be an int or Fraction, got %r" % (c,))


class TruncSeries:
    """Formal power series in ``vars``, truncated at total degree ``order``.

    Stored as (den, {packed key: nonzero int}), every key of degree <=
    order, in lowest terms (den > 0, gcd 1, den 1 for zero) as FLINT's
    ``fmpq_poly`` (Hart, ICMS 2010); ``terms`` decodes it to exponent tuples
    and Fractions.  Instances are immutable; operations return new objects.
    """

    __slots__ = ("vars", "order", "_den", "_t")

    def __init__(self, vars: Sequence[str], order: int,
                 terms: Mapping[tuple, Fraction] | None = None):
        vars = require_context(vars, order)
        clean = {}
        if terms:
            nv = len(vars)
            st = exponent_strides(nv)
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nv or any(k < 0 for k in e):
                    raise SeriesError("bad exponent tuple %r for %d vars" % (e, nv))
                d = sum(e)
                if d > order:
                    continue
                c = _as_frac(c)
                if c != 0:
                    clean[pack_key(e, st) + d * st[-1]] = c
        x = TruncSeries._from_fractions(vars, order, clean)
        for a in TruncSeries.__slots__:
            _set(self, a, getattr(x, a))

    @staticmethod
    def _make(vars: tuple, order: int, terms: dict, den=1) -> "TruncSeries":
        """Trusted constructor: the numerators ``terms`` over ``den``, put
        in lowest terms by one gcd pass, and no other check or copy.

        The caller guarantees everything ``__init__`` would otherwise
        enforce: ``vars`` is a tuple of distinct names, 0 <= order <=
        MAX_ORDER, den > 0, and ``terms`` is a dict of packed keys in
        ``len(vars)`` variables, of total degree <= order, to nonzero ints.
        The dict may become the new series' own, so the caller must not
        touch it afterwards.  Use it only for output that is clean by
        construction, such as the result of an operation on series that
        already hold the invariant.
        """
        g = gcd(den, *terms.values()) if den != 1 else 1
        if g != 1:
            terms, den = {k: n // g for k, n in terms.items()}, den // g
        out = _new(TruncSeries)
        _set(out, "vars", vars)
        _set(out, "order", order)
        _set(out, "_den", den)
        _set(out, "_t", terms)
        return out

    @staticmethod
    def _from_fractions(vars: tuple, order: int, terms: dict):
        """_make over the lcm of the denominators of {key: Fraction != 0}."""
        den = lcm(*[c.denominator for c in terms.values()])
        return TruncSeries._make(vars, order, {
            k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den)

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    @property
    def terms(self) -> dict:
        """The terms as a fresh dict {exponent tuple: Fraction}, in the
        insertion order of the stored keys."""
        st = exponent_strides(len(self.vars))
        return {unpack_key(k, st)[:-1]: Fraction(n, self._den)
                for k, n in self._t.items()}

    @property
    def packed_terms(self) -> dict:
        """A fresh dict {packed key: Fraction} of the terms in stored order."""
        return {k: Fraction(n, self._den) for k, n in self._t.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, order):
        return cls(vars, order)

    @classmethod
    def const(cls, vars, order, c):
        c = _as_frac(c)
        return cls._from_fractions(require_context(vars, order), order,
                                   {0: c} if c else {})

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
        return not self._t

    @property
    def constant_term(self) -> Fraction:
        # the constant monomial has key 0 in any number of variables
        return Fraction(self._t.get(0, 0), self._den)

    def is_constant(self) -> bool:
        return not any(self._t)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self._den == other._den and self._t == other._t)

    def __hash__(self):
        return hash((self.order, self._den, frozenset(self._t.items())))

    def __repr__(self):
        if not self._t:
            return "<0 (order %d)>" % self.order
        terms = self.terms
        bits = []
        for e in sorted(terms):
            mono = "*".join("%s^%d" % (v, k) for v, k in zip(self.vars, e) if k)
            c = terms[e]
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return "<" + " + ".join(bits) + " (order %d)>" % self.order

    def _like(self, other: "TruncSeries"):
        if self.vars != other.vars:
            raise SeriesError("variable lists differ: %r vs %r"
                              % (self.vars, other.vars))

    def _field_shift(self, name: str) -> int:
        """The bit offset of the exponent field of variable ``name``."""
        if name not in self.vars:
            raise SeriesError("unknown variable %r" % name)
        return FIELD_BITS * self.vars.index(name)

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
        limit = _limit(len(self.vars), order)
        den = lcm(self._den, other._den)
        f, g = den // self._den, den // other._den * (-1 if negate else 1)
        terms = {k: c * f for k, c in self._t.items() if k < limit}
        _add_into(terms, ((k, c * g) for k, c in other._t.items()
                          if k < limit))
        return TruncSeries._make(self.vars, order, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make(self.vars, self.order, {
            k: -c for k, c in self._t.items()}, self._den)

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_frac(other)
            if c == 0:
                return TruncSeries._make(self.vars, self.order, {})
            return TruncSeries._make(self.vars, self.order, {
                k: c.numerator * v for k, v in self._t.items()},
                self._den * c.denominator)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._like(other)
        order = min(self.order, other.order)
        limit = _limit(len(self.vars), order)
        right = list(other._t.items())
        terms: dict = {}
        for k1, c1 in self._t.items():
            if k1 < limit:
                _add_into(terms, ((k1 + k2, c1 * c2) for k2, c2 in right
                                  if k1 + k2 < limit))
        return TruncSeries._make(self.vars, order, terms,
                                 self._den * other._den)

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
        if len(self._t) == 1:
            # a constant unit
            return TruncSeries.const(self.vars, self.order, inv_c0)
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
        b = self._field_shift(name)
        if self.order == 0:
            raise SeriesError("cannot differentiate a series of order 0")
        # lower the exponent of name and the degree by one; that is
        # injective on the terms with a positive exponent, and c * e stays
        # nonzero, so the result is clean as built
        down = (1 << b) + (1 << (FIELD_BITS * len(self.vars)))
        terms = {}
        for k, c in self._t.items():
            e = (k >> b) & MAX_ORDER
            if e:
                terms[k - down] = c * e
        return TruncSeries._make(self.vars, self.order - 1, terms, self._den)

    def mul_var(self, name: str) -> "TruncSeries":
        """Multiply by a variable, raising the order bound by 1.

        Multiplication by an exact degree-1 monomial turns degree<=k
        information into degree<=k+1 information, so the bound may grow.
        """
        b = self._field_shift(name)
        _check_order(self.order + 1)
        up = (1 << b) + (1 << (FIELD_BITS * len(self.vars)))
        return TruncSeries._make(self.vars, self.order + 1, {
            k + up: c for k, c in self._t.items()}, self._den)

    def _move_fields(self, moves, new_vars, skip=0) -> "TruncSeries":
        """The series in ``new_vars`` whose term keys carry field i of each
        key to field j for (i, j) in ``moves``, and the degree along; keys
        that meet the mask ``skip`` are left out.  The caller guarantees
        that no kept term has a nonzero field outside ``moves``."""
        moves = [(FIELD_BITS * i, FIELD_BITS * j) for i, j in moves]
        top, new_top = FIELD_BITS * len(self.vars), FIELD_BITS * len(new_vars)
        terms = {}
        for k, c in self._t.items():
            if k & skip:
                continue
            key = (k >> top) << new_top
            for b, nb in moves:
                key += ((k >> b) & MAX_ORDER) << nb
            terms[key] = c
        return TruncSeries._make(new_vars, self.order, terms, self._den)

    def restrict_zero(self, names: Iterable[str]) -> "TruncSeries":
        """Set the listed variables to 0 and remove them from the context."""
        names = list(names)
        for nm in names:
            if nm not in self.vars:
                raise SeriesError("unknown variable %r" % nm)
        drop = [self.vars.index(nm) for nm in names]
        keep = [i for i in range(len(self.vars)) if i not in drop]
        new_vars = tuple(self.vars[i] for i in keep)
        skip = sum(MAX_ORDER << (FIELD_BITS * i) for i in set(drop))
        return self._move_fields(list(zip(keep, range(len(keep)))), new_vars,
                                 skip)

    def extend(self, new_vars: Sequence[str]) -> "TruncSeries":
        """Reinterpret in a larger (or reordered) variable context."""
        new_vars = tuple(new_vars)
        if len(set(new_vars)) != len(new_vars):
            raise SeriesError("duplicate variable names: %r" % (new_vars,))
        pos = []
        for v in self.vars:
            if v not in new_vars:
                raise SeriesError("variable %r missing from new context" % v)
            pos.append(new_vars.index(v))
        return self._move_fields(list(enumerate(pos)), new_vars)

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise SeriesError("cannot raise the order bound by truncation")
        _check_order(order)
        limit = _limit(len(self.vars), order)
        return TruncSeries._make(self.vars, order,
                                 {k: c for k, c in self._t.items()
                                  if k < limit}, self._den)

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
        wt = [(FIELD_BITS * i, w) for i, w in wt.items()]
        terms = {k: c for k, c in self._t.items()
                 if sum(((k >> b) & MAX_ORDER) * w for b, w in wt) == degree}
        return TruncSeries._make(self.vars, self.order, terms, self._den)

    def compose(self, mapping: Mapping[str, "TruncSeries"]) -> "TruncSeries":
        """The one-entry case of ``SeriesMatrix.compose``."""
        return SeriesMatrix._make(1, 1, self.vars, self.order, [
            {0: self} if self._t else {}]).compose(mapping)[0, 0]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        terms = self.terms
        return {
            "vars": list(self.vars),
            "order": self.order,
            "terms": [[list(e), frac_to_str(terms[e])] for e in sorted(terms)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncSeries":
        terms = {}
        for e, c in obj.get("terms", []):
            e = tuple(e)
            if e in terms:
                raise SeriesError("repeated exponent %r" % (list(e),))
            terms[e] = frac_from_str(c)
        if not all(isinstance(k, int) for e in terms for k in e):
            raise SeriesError("exponents must be ints: %r" % list(terms))
        return cls(obj["vars"], require_int("order", obj["order"], 0), terms)


def euler_integrate(partials, weights: Mapping[str, int] | None = None):
    """The unique F with F(0)=0 and dF/d(name) = partials[name].

    Radial integration along the Euler field E = sum_v w_v v d/dv over the
    variables of ``weights`` (weight 1 on each key of ``partials`` by
    default): F = sum_v w_v v partials[v] with every term divided by its
    weighted degree, so E(F) = F termwise.  Callers must guarantee
    closedness of the given one-form (mixed partials of the result are
    asserted elsewhere).  Variables outside the Euler field are treated as
    constants, and F is the part vanishing where the Euler variables do.
    The result is exact one order beyond the partials.

    ``partials`` maps names to TruncSeries, or to SeriesMatrix; a matrix
    one-form is integrated entry by entry into a SeriesMatrix.
    """
    if not partials:
        raise SeriesError("nothing to integrate")
    forms = list(partials.values())
    ctx = forms[0].vars
    if any(p.vars != ctx for p in forms):
        raise SeriesError("partials disagree on variable context")
    if weights is None:
        weights = dict.fromkeys(partials, 1)
    elif not set(partials) <= set(weights):
        raise SeriesError("partials outside the Euler field: %r"
                          % sorted(set(partials) - set(weights)))
    for nm, w in weights.items():
        if nm not in ctx:
            raise SeriesError("unknown variable %r" % nm)
        if w <= 0:
            raise SeriesError("Euler weights must be positive")
    wt = [(FIELD_BITS * ctx.index(nm), w) for nm, w in weights.items()]
    order = min(p.order for p in forms)
    _check_order(order + 1)
    limit = _limit(len(ctx), order)
    # each slot raises the exponent of its variable and the degree by one
    top = 1 << (FIELD_BITS * len(ctx))
    slots = [((1 << (FIELD_BITS * ctx.index(nm))) + top, weights[nm], p)
             for nm, p in partials.items()]

    def integrate(entries) -> TruncSeries:
        terms: dict = {}
        for up, w, p in entries:
            for k, n in p._t.items():
                if k >= limit:
                    continue
                k += up
                d = sum(((k >> b) & MAX_ORDER) * wk for b, wk in wt)
                terms[k] = terms.get(k, _ZERO) + Fraction(n * w, d * p._den)
        return TruncSeries._from_fractions(
            ctx, order + 1, {k: c for k, c in terms.items() if c})

    if not isinstance(forms[0], SeriesMatrix):
        return integrate(slots)
    rows, cols = forms[0].rows, forms[0].cols
    for M in forms:
        forms[0]._shape_like(M)
    data = []
    for r in range(rows):
        out = {}
        for j in sorted(set().union(*(M._data[r] for M in forms))):
            x = integrate([(i, w, M._data[r][j]) for i, w, M in slots
                           if j in M._data[r]])
            if x._t:
                out[j] = x
        data.append(out)
    return SeriesMatrix._make(rows, cols, ctx, order + 1, data)


def slice_terms(A, B, s, sign=1):
    """The terms (sign, A[d], B[s - d]), d = 0..s, whose sum of products is
    sign times slice s of the product of two matrices given as lists of
    slices, slice d being the part of degree d in a grading by positively
    weighted variables.  Total-degree truncation keeps or drops each
    monomial on its own, so it commutes with the grading."""
    return [(sign, A[d], B[s - d]) for d in range(s + 1)]


def slice_sum(slices):
    """The matrix whose list of slices is ``slices``."""
    one = TruncSeries.one(slices[0].vars, slices[0].order)
    return SeriesMatrix.sum_of_products([(1, M, one) for M in slices])


def _check_shape(rows, cols):
    if rows < 1 or cols < 1:
        raise SeriesError("matrix must be nonempty")


def require_square(what, M, n, vars=None):
    """Return ``M`` after checking that it is n x n: a SeriesMatrix over
    exactly ``vars`` when those are given, else a constant matrix as n rows
    of n entries.  Raise SeriesError otherwise."""
    if vars is None:
        ok = len(M) == n and all(len(row) == n for row in M)
    else:
        ok = (isinstance(M, SeriesMatrix) and M.rows == M.cols == n
              and M.vars == tuple(vars))
    if not ok:
        raise SeriesError("%s must be %d x %d%s" % (
            what, n, n, "" if vars is None else " over %r" % (tuple(vars),)))
    return M


def require_order(order, named):
    """Check that every (name, series or matrix) of ``named`` carries at
    least the ``order`` of the object that holds it; raise SeriesError
    otherwise.  Truncating to that order would need terms it lacks."""
    for what, x in named:
        if x.order < order:
            raise SeriesError("%s carries order %d, below the order %d of "
                              "its object" % (what, x.order, order))


class SeriesMatrix:
    """Rectangular matrix of TruncSeries sharing one context and bound.

    Storage is sparse by rows: row i is a dict {column: entry} that holds
    only the nonzero entries, keyed in increasing column order, and is never
    mutated once the matrix exists (so matrices may share rows).  ``M[i, j]``
    returns a zero of the matrix's vars and order for an absent entry.
    Products, commutators, sums, differences and every linear combination
    of matrices with series coefficients run through one kernel,
    ``sum_of_products``, whose terms are products sign * A @ B and scaled
    terms sign * A * x (x a series; a zero x is dropped unread).  It walks
    each output row once over all the terms, reads each entry's integer
    numerators as stored, groups their products by denominator, and forms
    no Fraction.
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
                if x._t and x.order != order:
                    x = x.truncate(order)
                if x._t:
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
        return cls._make(n, m, require_context(vars, order), order,
                         [{} for _ in range(n)])

    @classmethod
    def identity(cls, n, vars, order):
        _check_shape(n, n)
        o = TruncSeries.one(vars, order)
        return cls._make(n, n, o.vars, order, [{i: o} for i in range(n)])

    @classmethod
    def from_consts(cls, mat, vars, order):
        """Lift a rectangular array of ints/Fractions to constant series."""
        mat = [[_as_frac(c) for c in row] for row in mat]
        if not mat or not mat[0]:
            raise SeriesError("matrix must be nonempty")
        if any(len(row) != len(mat[0]) for row in mat):
            raise SeriesError("ragged matrix")
        vars = require_context(vars, order)
        return cls._make(len(mat), len(mat[0]), vars, order, [
            {j: TruncSeries._from_fractions(vars, order, {0: c})
             for j, c in enumerate(row) if c} for row in mat])

    @classmethod
    def from_sparse(cls, rows, cols, vars, order,
                    entries: Mapping[tuple, TruncSeries]) -> "SeriesMatrix":
        """Matrix from its entries {(i, j): series}; absent entries are zero.

        The result is the dense constructor's on the filled-in matrix: every
        entry must be a series in ``vars``, and the matrix order is the least
        of ``order`` and the entries' orders.
        """
        _check_shape(rows, cols)
        vars = require_context(vars, order)
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
            if x._t:
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

    def row(self, i) -> "SeriesMatrix":
        """Row i as a 1 x cols matrix that shares the stored row."""
        return SeriesMatrix._make(1, self.cols, self.vars, self.order,
                                  [self._data[i]])

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
                if y._t:
                    out[j] = y
            data.append(out)
        return SeriesMatrix._make(self.rows, self.cols, zero.vars, zero.order,
                                  data)

    def _plus(self, other, sign):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        one = TruncSeries.one(self.vars, self.order)
        return SeriesMatrix.sum_of_products([(1, self, one),
                                             (sign, other, one)])

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._map(TruncSeries.__neg__)

    def scale(self, c):
        return self._map(lambda a: a * c)

    def scale_series(self, s: TruncSeries):
        return self._map(lambda a: a * s)

    def __matmul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return SeriesMatrix.sum_of_products([(1, self, other)])

    def commutator(self, other):
        return SeriesMatrix.sum_of_products([(1, self, other),
                                             (-1, other, self)])

    @staticmethod
    def sum_of_products(terms) -> "SeriesMatrix":
        """The sum of the (sign, A, B) of ``terms``: sign * A @ B for a
        matrix B, and the scaled term sign * A * x for a series B = x.

        Every sign is 1 or -1, and every A.cols equals its matrix B's rows
        (else SeriesError("shape mismatch for product")).  Every term has
        the shape of the first (a scaled term has A's shape), and every
        operand, x included, the variables of the first, whether or not a
        term is formed.  The result has the least order of the operands, x
        included.  A sum of matrices is the sum of their scaled terms by
        the unit series.

        Each output row is walked once over all the terms, row by row over
        the nonzeros (Gustavson, ACM TOMS 1978).  A scaled term sends each
        nonzero a of row i of A, in column k, to column k of the output as
        a * x, through the same inner loop as a product's a * B[k, j]; a
        term whose x is zero is dropped before any row is walked.  An entry
        is read as stored, integer numerators over one denominator, sorted
        by degree once per call; the product of two entries adds the
        products of their numerators to a dict kept for the product of
        their denominators.  No Fraction is formed, and no series until the
        end, when each output entry is summed over the lcm of its groups.
        """
        terms = list(terms)
        if not terms:
            raise SeriesError("sum of no products")
        _, A0, B0 = terms[0]
        rows, vars, order = A0.rows, A0.vars, A0.order
        cols = A0.cols if isinstance(B0, TruncSeries) else B0.cols
        walks = []
        for sign, A, B in terms:
            if sign != 1 and sign != -1:
                raise SeriesError("product sign must be 1 or -1")
            scaled = isinstance(B, TruncSeries)
            if not scaled and A.cols != B.rows:
                raise SeriesError("shape mismatch for product")
            width = A.cols if scaled else B.cols
            if A.rows != rows or width != cols:
                raise SeriesError("shape mismatch %dx%d vs %dx%d"
                                  % (rows, cols, A.rows, width))
            for M in (A, B):
                if M.vars != vars:
                    raise SeriesError("variable lists differ: %r vs %r"
                                      % (vars, M.vars))
                order = min(order, M.order)
            if not scaled:
                walks.append((sign, A._data, B._data, None))
            elif B._t:
                walks.append((sign, A._data, None, B))
        split: dict = {}
        top = FIELD_BITS * len(vars)

        def numerators(x):
            # (den, [(key, deg, numerator)] by degree); keyed by id, which
            # is stable while the operands are alive
            got = split.get(id(x))
            if got is None:
                got = split[id(x)] = (x._den, sorted(
                    [(k, k >> top, n) for k, n in x._t.items()],
                    key=itemgetter(1)))
            return got

        data = []
        for i in range(rows):
            acc: dict = {}
            for sign, left, right, x in walks:
                for k, a in left[i].items():
                    pairs = right[k].items() if x is None else ((k, x),)
                    if not pairs:
                        continue
                    da, ta = numerators(a)
                    for j, b in pairs:
                        db, tb = numerators(b)
                        t = acc.setdefault(j, {}).setdefault(da * db, {})
                        for e1, d1, n1 in ta:
                            room = order - d1
                            if room < 0:
                                break
                            n1 *= sign
                            for e2, d2, n2 in tb:
                                if d2 > room:
                                    break
                                e = e1 + e2
                                t[e] = t.get(e, 0) + n1 * n2
            out = {}
            for j in sorted(acc):
                den = lcm(*acc[j])
                nums: dict = {}
                for d, t in acc[j].items():
                    for e, n in t.items():
                        nums[e] = nums.get(e, 0) + n * (den // d)
                nums = {e: n for e, n in nums.items() if n}
                if nums:
                    out[j] = TruncSeries._make(vars, order, nums, den)
            data.append(out)
        return SeriesMatrix._make(rows, cols, vars, order, data)

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
        """Substitute a series (with zero constant term) for every variable
        of every entry.

        All images must share one variable context; the result lives in
        that context, at the least order of self and the images (an image
        has no constant term, so a term of degree d lands in degree >= d).
        Each image's powers are formed once per call and each monomial once,
        as the product of its variables' powers in variable order.
        """
        images = [mapping[v] for v in self.vars]
        if not images:
            raise SeriesError("composition needs at least one variable")
        ctx = images[0].vars
        order = min([self.order] + [im.order for im in images])
        for im in images:
            if im.vars != ctx:
                raise SeriesError("composition images disagree on context")
            if im.constant_term != 0:
                raise SeriesError("composition image has nonzero constant term")
        one = TruncSeries.one(ctx, order)
        powers = [[one, im.truncate(order)] for im in images]
        limit = _limit(len(images), order)
        monomials: dict = {0: one}

        def substitute(x):
            images = []
            for key, c in x._t.items():
                if key >= limit:
                    continue  # its image lies above the order
                got = monomials.get(key)
                if got is None:
                    for i, table in enumerate(powers):
                        k = (key >> (FIELD_BITS * i)) & MAX_ORDER
                        while len(table) <= k:
                            table.append(table[-1] * table[1])
                        if k:
                            got = table[k] if got is None else got * table[k]
                    monomials[key] = got
                images.append((c, got))
            den = lcm(*[got._den for _, got in images])
            terms: dict = {}
            for c, got in images:
                c *= den // got._den
                _add_into(terms, ((k, c * v) for k, v in got._t.items()))
            return TruncSeries._make(ctx, order, terms, den * x._den)

        return self._map(substitute)

    def conjugate_const(self, basis, basis_inv):
        """basis_inv @ self @ basis with constant Fraction matrices."""
        n = self.rows
        b = SeriesMatrix.from_consts(basis, self.vars, self.order)
        binv = SeriesMatrix.from_consts(basis_inv, self.vars, self.order)
        if len(basis) != n:
            raise SeriesError("basis size mismatch")
        return binv @ self @ b

    def solve_series(self, rhs: "SeriesMatrix") -> "SeriesMatrix":
        """Solve self @ X = rhs, as ``self.inverse_series() @ rhs``."""
        if rhs.rows != self.rows:
            raise SeriesError("right-hand side needs %d rows" % self.rows)
        return self.inverse_series() @ rhs

    def inverse_series(self) -> "SeriesMatrix":
        """The inverse, by Newton's iteration X <- X + X @ (I - self @ X)
        from X = self(0)^-1 (von zur Gathen and Gerhard, *Modern Computer
        Algebra*, 9.1); self must be square with an invertible constant
        term, else SeriesError("matrix constant term is singular").  If
        the residual R = I - self @ X has no terms below degree d, the next
        one is R @ R, with none below 2d, so each step doubles the degree
        up to which X is exact."""
        if self.rows != self.cols:
            raise SeriesError("solve needs a square matrix")
        try:
            x0 = mat_inverse(self.at_origin())
        except ValueError:
            raise SeriesError("matrix constant term is singular") from None
        vars, order = self.vars, self.order
        one = TruncSeries.one(vars, order)
        eye = SeriesMatrix.identity(self.rows, vars, order)
        X = SeriesMatrix.from_consts(x0, vars, order)
        exact = 1
        while exact <= order:
            R = SeriesMatrix.sum_of_products([(1, eye, one), (-1, self, X)])
            if R.is_zero():
                break
            X = SeriesMatrix.sum_of_products([(1, X, one), (1, X, R)])
            exact *= 2
        return X

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """The JSON form, for ``json.dumps`` or comparison; not to be
        changed in place: the absent entries of a row are one shared empty
        list, so a wide, mostly zero matrix allocates nothing per zero."""
        entries = []
        for row in self._data:
            out = [[]] * self.cols
            for j, x in row.items():
                out[j] = x.to_json()["terms"]
            entries.append(out)
        return {
            "rows": self.rows,
            "cols": self.cols,
            "vars": list(self.vars),
            "order": self.order,
            "entries": entries,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SeriesMatrix":
        M = cls([[TruncSeries.from_json(dict(obj, terms=t)) for t in row]
                 for row in obj["entries"]])
        if (M.rows, M.cols) != (obj["rows"], obj["cols"]):
            raise SeriesError("rows and cols do not match the entries")
        return M
