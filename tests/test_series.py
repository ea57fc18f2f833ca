import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.series import (SeriesMatrix, TruncSeries, euler_integrate,
                            frac_from_str, frac_to_str)
from frobkit.series import SeriesError

F = Fraction
V2 = ("t", "y")


def s(terms, vars=("t",), order=2):
    return TruncSeries(vars, order, terms)


def test_mul_difference_of_squares():
    one = TruncSeries.one(("t",), 2)
    t = TruncSeries.var(("t",), 2, "t")
    assert ((one + t) * (one - t)).terms == {(0,): F(1), (2,): F(-1)}


def test_mul_truncation_kills_top_degree():
    t = TruncSeries.var(("t",), 1, "t")
    assert (t * t).is_zero()


def test_mul_hand_example():
    one = TruncSeries.one(("t",), 2)
    t = TruncSeries.var(("t",), 2, "t")
    assert ((one + t + t * t) * (one + t)).terms == {
        (0,): F(1), (1,): F(2), (2,): F(2)}


def test_mul_variable_mismatch_is_error():
    with pytest.raises(SeriesError):
        TruncSeries.one(("t",), 2) * TruncSeries.one(("u",), 2)


def test_partial_basics():
    t2 = s({(2,): 1})
    assert t2.partial("t").terms == {(1,): F(2)}
    assert t2.partial("t").order == 1
    ty = TruncSeries(V2, 2, {(1, 0): 1})
    assert ty.partial("y").is_zero()
    mixed = TruncSeries(V2, 2, {(1, 1): 1, (2, 0): 1})
    assert mixed.partial("t").terms == {(0, 1): F(1), (1, 0): F(2)}


def test_partial_unknown_variable():
    with pytest.raises(SeriesError):
        s({(1,): 1}).partial("zz")


def test_restrict_zero():
    a = TruncSeries(V2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert a.restrict_zero(["y"]).terms == {(0,): F(1), (1,): F(1)}
    assert TruncSeries(V2, 2, {(0, 2): 1}).restrict_zero(["y"]).is_zero()
    b = TruncSeries(V2, 2, {(0, 0): 3, (1, 1): 2, (0, 1): 5})
    assert b.restrict_zero(["y"]).terms == {(0,): F(3)}


def test_matrix_commutator_examples():
    A = SeriesMatrix.from_consts([[1, 2], [3, 4]], ("t",), 2)
    assert A.commutator(A).is_zero()
    D = SeriesMatrix.from_consts([[0, 0], [0, 1]], ("t",), 2)
    U = SeriesMatrix.from_consts([[0, 0], [1, 1]], ("t",), 2)
    got = D.commutator(U).at_origin()
    # oracle: brute-force 2x2 product difference
    DU = [[sum(D.at_origin()[i][k] * U.at_origin()[k][j] for k in range(2))
           for j in range(2)] for i in range(2)]
    UD = [[sum(U.at_origin()[i][k] * D.at_origin()[k][j] for k in range(2))
           for j in range(2)] for i in range(2)]
    want = [[DU[i][j] - UD[i][j] for j in range(2)] for i in range(2)]
    assert got == want == [[F(0), F(0)], [F(1), F(0)]]


def test_transpose_involution():
    A = SeriesMatrix.from_consts([[1, 2], [3, 4]], ("t",), 2)
    assert A.transpose().transpose() == A


coeffs = st.fractions(max_denominator=7,
                      min_value=-4, max_value=4)


def small_series(vars=V2, order=3):
    exps = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda e: sum(e) <= order)
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: TruncSeries(vars, order, d))


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_series())
def test_mixed_partials_commute(a):
    left = a.partial("t").partial("y")
    right = a.partial("y").partial("t")
    assert left == right


@settings(max_examples=60, deadline=None)
@given(small_series(order=3), small_series(order=3))
def test_truncation_compatible_with_multiplication(a, b):
    # multiply at order 3 then cut to 2 = multiply the order-2 truncations
    hi = a * b
    lo = a.truncate(2) * b.truncate(2)
    assert hi.truncate(2) == lo


@settings(max_examples=40, deadline=None)
@given(small_series())
def test_serialization_roundtrip(a):
    blob = json.dumps(a.to_json(), sort_keys=True)
    back = TruncSeries.from_json(json.loads(blob))
    assert back == a
    assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_serialization_is_sorted_and_slash_form():
    a = TruncSeries(V2, 2, {(1, 1): F(1, 3), (0, 1): 2})
    obj = a.to_json()
    assert obj["terms"] == [[[0, 1], "2/1"], [[1, 1], "1/3"]]
    assert frac_from_str("1/3") == F(1, 3)
    assert frac_to_str(F(-2, 6)) == "-1/3"


def test_inverse_of_unit():
    one = TruncSeries.one(("t",), 3)
    t = TruncSeries.var(("t",), 3, "t")
    u = 2 * one + t
    assert (u * u.inverse() - one).is_zero()
    with pytest.raises(SeriesError):
        t.inverse()


def test_compose_substitution():
    # f(t) = t + t^2 composed with t = s^2 keeps only degree <= 3
    f = TruncSeries(("t",), 3, {(1,): 1, (2,): 1})
    sterm = TruncSeries(("s",), 3, {(2,): 1})
    assert f.compose({"t": sterm}).terms == {(2,): F(1)}


def test_euler_integrate_linear_and_quadratic():
    t = TruncSeries.var(("t",), 3, "t")
    A = euler_integrate({"t": t})
    assert A.terms == {(2,): F(1, 2)} and A.order == 4
    c = TruncSeries.const(("t",), 3, 5)
    assert euler_integrate({"t": c}).terms == {(1,): F(5)}


def test_mul_var_raises_order():
    t = TruncSeries.var(("t",), 1, "t")
    tt = t.mul_var("t")
    assert tt.order == 2 and tt.terms == {(2,): F(1)}


def test_graded_part_subsets():
    a = TruncSeries(V2, 3, {(1, 1): 1, (0, 2): 2, (3, 0): 3})
    assert a.graded_part(2).terms == {(1, 1): F(1), (0, 2): F(2)}
    assert a.graded_part(1, names=["y"]).terms == {(1, 1): F(1)}
    assert a.graded_part(4, names=["y"], weights={"y": 2}).terms == {
        (0, 2): F(2)}


def test_solve_series_matrix():
    vars = ("t",)
    t = TruncSeries.var(vars, 3, "t")
    one = TruncSeries.one(vars, 3)
    M = SeriesMatrix([[one, t], [TruncSeries.zero(vars, 3), one - t]])
    X = M.inverse_series()
    assert (M @ X - SeriesMatrix.identity(2, vars, 3)).is_zero()


# -- sparse SeriesMatrix against an entrywise dense reference ---------------

class Dense:
    """Dense reference matrix: a list of lists of TruncSeries, with every
    entry truncated to the least order among them, combined only through
    TruncSeries operations."""

    def __init__(self, rows):
        self.order = min(x.order for row in rows for x in row)
        self.vars = rows[0][0].vars
        self.rows = [[x.truncate(self.order) if x.order > self.order else x
                      for x in row] for row in rows]

    def map(self, f):
        return Dense([[f(x) for x in row] for row in self.rows])

    def zip(self, other, f):
        return Dense([[f(a, b) for a, b in zip(ra, rb)]
                      for ra, rb in zip(self.rows, other.rows)])

    def matmul(self, other):
        zero = TruncSeries.zero(self.vars, min(self.order, other.order))
        out = []
        for ra in self.rows:
            row = []
            for j in range(len(other.rows[0])):
                acc = zero
                for k, a in enumerate(ra):
                    acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Dense(out)

    def transpose(self):
        return Dense([list(col) for col in zip(*self.rows)])

    def solve(self, rhs):
        """Gauss-Jordan on [self | rhs], pivoting on unit entries."""
        n = len(self.rows)
        work = [list(a) + list(b) for a, b in zip(self.rows, rhs.rows)]
        for col in range(n):
            piv = next(r for r in range(col, n)
                       if work[r][col].constant_term != 0)
            work[col], work[piv] = work[piv], work[col]
            inv = work[col][col].inverse()
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                f = work[r][col]
                if r != col and not f.is_zero():
                    work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        return Dense([row[n:] for row in work])

    def to_json(self):
        return {"rows": len(self.rows), "cols": len(self.rows[0]),
                "vars": list(self.vars), "order": self.order,
                "entries": [[x.to_json()["terms"] for x in row]
                            for row in self.rows]}


def assert_same(M, D):
    assert (M.rows, M.cols) == (len(D.rows), len(D.rows[0]))
    assert (M.vars, M.order) == (D.vars, D.order)
    for i, row in enumerate(D.rows):
        for j, x in enumerate(row):
            assert M[i, j] == x
    assert M.to_json() == D.to_json()
    assert M.at_origin() == [[x.constant_term for x in row]
                             for row in D.rows]
    assert M.nonzero() == {(i, j): x for i, row in enumerate(D.rows)
                           for j, x in enumerate(row) if not x.is_zero()}
    assert M.is_zero() == all(x.is_zero() for row in D.rows for x in row)
    assert M.is_constant() == all(x.is_constant()
                                  for row in D.rows for x in row)


def positive_terms(order):
    """Terms of degree 1..order in V2."""
    exps = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda e: 1 <= sum(e) <= order)
    return st.dictionaries(exps, coeffs, max_size=3)


@st.composite
def dense_entries(draw, rows=None, cols=None, order=2, unit_at=None):
    """Zero-heavy rows x cols entries: all-zero matrices, blank rows and
    entries of order `order` or `order + 1`.  With unit_at (a permutation)
    entry (i, unit_at[i]) gets a nonzero constant term and every other
    entry none, so the constant-term matrix is invertible."""
    rows = rows or draw(st.integers(1, 3))
    cols = cols or draw(st.integers(1, 3))
    all_zero = unit_at is None and draw(st.integers(0, 4)) == 0
    blank = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1))
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            o = draw(st.sampled_from([order, order, order + 1]))
            terms = {}
            if not all_zero and i not in blank and draw(st.integers(0, 2)) == 0:
                terms = draw(positive_terms(o))
            if unit_at is not None and unit_at[i] == j:
                terms[(0, 0)] = draw(coeffs.filter(bool))
            row.append(TruncSeries(V2, o, terms))
        out.append(row)
    return out


matrix_settings = settings(max_examples=50, deadline=None)


@matrix_settings
@given(dense_entries())
def test_sparse_matrix_unary_ops_match_dense(rows):
    D = Dense(rows)
    M = SeriesMatrix(rows)
    assert_same(M, D)
    assert M == SeriesMatrix.from_sparse(
        M.rows, M.cols, V2, D.order,
        {(i, j): x for i, row in enumerate(rows)
         for j, x in enumerate(row) if not x.is_zero()})
    assert M == SeriesMatrix.from_sparse(M.rows, M.cols, M.vars, M.order,
                                         M.nonzero())
    assert SeriesMatrix.from_json(M.to_json()) == M
    for j in range(M.cols):
        assert M.column(j) == [row[j] for row in D.rows]
    s = TruncSeries(V2, 2, {(0, 0): 2, (0, 1): -1})
    img = {"t": TruncSeries(("u",), 2, {(1,): 1}),
           "y": TruncSeries(("u",), 2, {(1,): 3, (2,): 1})}
    cases = [
        (lambda X: -X, lambda x: -x),
        (lambda X: X.scale(F(2, 3)), lambda x: x * F(2, 3)),
        (lambda X: X.scale(0), lambda x: x * 0),
        (lambda X: X.scale_series(s), lambda x: x * s),
        (lambda X: X.partial("t"), lambda x: x.partial("t")),
        (lambda X: X.mul_var("y"), lambda x: x.mul_var("y")),
        (lambda X: X.restrict_zero(["y"]), lambda x: x.restrict_zero(["y"])),
        (lambda X: X.extend(("y", "s", "t")),
         lambda x: x.extend(("y", "s", "t"))),
        (lambda X: X.truncate(1), lambda x: x.truncate(1)),
        (lambda X: X.graded_part(1), lambda x: x.graded_part(1)),
        (lambda X: X.graded_part(2, names=["y"], weights={"y": 2}),
         lambda x: x.graded_part(2, names=["y"], weights={"y": 2})),
        (lambda X: X.compose(img), lambda x: x.compose(img)),
    ]
    for op, entrywise in cases:
        assert_same(op(M), D.map(entrywise))
    assert_same(M.transpose(), D.transpose())
    assert M.transpose().transpose() == M


@matrix_settings
@given(st.data())
def test_sparse_matrix_binary_ops_match_dense(data):
    r, c, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(dense_entries(r, c))
    b = data.draw(dense_entries(r, c, order=data.draw(st.integers(1, 3))))
    m = data.draw(dense_entries(c, k))
    sq = data.draw(dense_entries(r, r))
    A, B, C, S = (SeriesMatrix(x) for x in (a, b, m, sq))
    DA, DB, DC, DS = (Dense(x) for x in (a, b, m, sq))
    assert_same(A + B, DA.zip(DB, lambda x, y: x + y))
    assert_same(A - B, DA.zip(DB, lambda x, y: x - y))
    assert_same(A @ C, DA.matmul(DC))
    assert_same(S @ A, DS.matmul(DA))
    comm = DS.matmul(DS.transpose()).zip(DS.transpose().matmul(DS),
                                         lambda x, y: x - y)
    assert_same(S.commutator(S.transpose()), comm)
    assert (A + B == B + A) and (A - A).is_zero()


@matrix_settings
@given(st.data())
def test_sparse_matrix_solve_matches_dense(data):
    n = data.draw(st.integers(1, 3))
    perm = data.draw(st.permutations(range(n)))
    a = data.draw(dense_entries(n, n, unit_at=perm))
    rhs = data.draw(dense_entries(n, data.draw(st.integers(1, 3))))
    A, B = SeriesMatrix(a), SeriesMatrix(rhs)
    X = A.solve_series(B)
    assert_same(X, Dense(a).solve(Dense(rhs)))
    assert (A @ X - B).is_zero()
    eye = [[TruncSeries.const(V2, A.order, int(i == j)) for j in range(n)]
           for i in range(n)]
    assert_same(A.inverse_series(), Dense(a).solve(Dense(eye)))
    basis = [[F(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    basis_inv = [list(col) for col in zip(*basis)]
    P = Dense([[TruncSeries.const(V2, A.order, c) for c in row]
               for row in basis])
    Pinv = P.transpose()
    assert_same(A.conjugate_const(basis, basis_inv),
                Pinv.matmul(Dense(a)).matmul(P))


def test_sparse_matrix_order_and_errors():
    z1 = TruncSeries.zero(V2, 1)
    x3 = TruncSeries(V2, 3, {(0, 0): 1, (2, 1): 5})
    M = SeriesMatrix([[x3, z1], [x3, x3]])
    assert M.order == 1 and M[0, 0] == TruncSeries(V2, 1, {(0, 0): 1})
    assert M[0, 1] == z1 and M[-1, -1] == M[1, 1]
    with pytest.raises(IndexError):
        M[0, 2]
    Z0 = SeriesMatrix.zeros(2, 2, V2, 0)
    with pytest.raises(SeriesError):
        Z0.partial("t")
    for A in (Z0, M):
        with pytest.raises(SeriesError):
            A.truncate(A.order + 1)
        with pytest.raises(SeriesError):
            A.restrict_zero(["zz"])
        with pytest.raises(SeriesError):
            A.extend(("t",))
    for bad in ((2, 0), (0, -3), (-1, 0)):
        with pytest.raises(SeriesError):
            SeriesMatrix.from_sparse(2, 2, V2, 1, {bad: x3})
    with pytest.raises(SeriesError):
        SeriesMatrix.from_sparse(2, 2, V2, 1,
                                 {(0, 0): TruncSeries.one(("t",), 1)})
    with pytest.raises(SeriesError):
        SeriesMatrix.from_sparse(0, 2, V2, 1, {})
    # an explicit lower-order zero lowers the order, as in the constructor
    low = SeriesMatrix.from_sparse(2, 2, V2, 3, {(0, 0): x3, (1, 1): z1})
    assert low.order == 1
    assert low == SeriesMatrix.from_sparse(2, 2, V2, 1, {(0, 0): x3})


# -- the trusted constructor keeps the TruncSeries invariant ----------------

def assert_clean(x):
    assert TruncSeries(x.vars, x.order, x.terms) == x
    assert isinstance(x.vars, tuple) and x.order >= 0
    for e, c in x.terms.items():
        assert isinstance(e, tuple) and len(e) == len(x.vars)
        assert min(e) >= 0 and sum(e) <= x.order
        assert isinstance(c, Fraction) and c != 0


@settings(max_examples=80, deadline=None)
@given(small_series(order=2), small_series(order=3), coeffs,
       st.integers(0, 4))
def test_trusted_results_are_clean(a, b, c, d):
    for x in (a + b, b + a, a - b, b - a, a - a, -a, -b, a * b, b * a,
              a * a, a * c, c * b, a + 1, 2 - b, a * 0,
              a.graded_part(d), b.graded_part(d, names=["y"]),
              b.graded_part(d, names=["t"], weights={"t": 2})):
        assert_clean(x)
    assert_clean(SeriesMatrix.zeros(1, 1, V2, 2)[0, 0])
    assert TruncSeries.zero(V2, 2).constant_term == 0


@settings(max_examples=80, deadline=None)
@given(small_series(order=2), small_series(order=3))
def test_trusted_partial_and_mul_var_are_clean(a, b):
    for x in (a, b):
        for name in V2:
            assert_clean(x.partial(name))
            assert_clean(x.mul_var(name))
            # Leibniz: d/dv (v x) = x + v dx/dv
            assert (x.mul_var(name).partial(name)
                    == x + x.partial(name).mul_var(name))


def test_const_rejects_what_the_constructor_rejects():
    with pytest.raises(SeriesError, match="order bound"):
        TruncSeries.const(V2, -1, 1)
    with pytest.raises(SeriesError, match="duplicate"):
        TruncSeries.const(("t", "t"), 2, 1)
    with pytest.raises(SeriesError, match="coefficient"):
        TruncSeries.const(V2, 2, 0.5)
    with pytest.raises(SeriesError, match="order bound"):
        TruncSeries.one(("t",), -1)


@settings(max_examples=60, deadline=None)
@given(coeffs, st.integers(0, 4),
       st.sampled_from([("t",), V2, ["y", "t", "u"]]))
def test_const_is_clean(c, order, vars):
    for x in (TruncSeries.const(vars, order, c),
              TruncSeries.const(iter(vars), order, int(c)),
              TruncSeries.one(vars, order)):
        assert_clean(x)
    zero = TruncSeries.const(vars, order, 0)
    assert_clean(zero)
    assert zero.is_zero() and zero == TruncSeries.zero(vars, order)
    assert TruncSeries.const(vars, order, c).constant_term == c
    assert TruncSeries.const(vars, order, c) == TruncSeries(
        vars, order, {(0,) * len(vars): c})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_series(order=2), small_series(order=3), coeffs,
       st.integers(-3, 3))
def test_sub_is_add_of_negation(a, b, c, k):
    """a - b has the terms, the key order and the order of a + (-b), for
    operands of equal and of different orders and for number operands."""
    pairs = [(x, y) for x in (a, b) for y in (a, b, c, k)]
    for x, y in pairs + [(b.truncate(1), a), (a, b.truncate(0))]:
        got, want = x - y, x + (-y)
        assert list(got.terms.items()) == list(want.terms.items())
        assert (got.vars, got.order) == (want.vars, want.order)
        assert_clean(got)
