import gc
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.series import (SeriesMatrix, TruncSeries, euler_integrate,
                            frac_from_str, frac_to_str, slice_sum,
                            slice_terms)
from frobkit.series import SeriesError
from helpers import frozen_combine, frozen_matmul, frozen_sum_of_products

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
    # the result is known only to the order of f: x at order 1 composed
    # with t + t^2 at order 5 is t at order 1, not t + t^2 at order 5
    x = TruncSeries(("x",), 1, {(1,): 1})
    got = x.compose({"x": TruncSeries(("t",), 5, {(1,): 1, (2,): 1})})
    assert got == TruncSeries(("t",), 1, {(1,): 1}) and got.order == 1


def test_compose_rejects_what_it_cannot_substitute():
    # a series and a matrix raise the same errors: the series is the
    # matrix composition's one-entry case
    x = TruncSeries(("x", "y"), 2, {(1, 1): 1})
    s = TruncSeries.var(("s",), 2, "s")
    cases = [
        (x, {"x": s, "y": TruncSeries.var(("u",), 2, "u")},
         "composition images disagree on context"),
        (x, {"x": s, "y": s + 1}, "composition image has nonzero constant "
                                  "term"),
        (TruncSeries.one((), 2), {}, "composition needs at least one "
                                     "variable"),
    ]
    for f, mapping, message in cases:
        for target in (f, SeriesMatrix([[f, f]])):
            with pytest.raises(SeriesError) as exc:
                target.compose(mapping)
            assert exc.value.args == (message,)
    with pytest.raises(KeyError):
        x.compose({"x": s})


def test_euler_integrate_linear_and_quadratic():
    t = TruncSeries.var(("t",), 3, "t")
    A = euler_integrate({"t": t})
    assert A.terms == {(2,): F(1, 2)} and A.order == 4
    c = TruncSeries.const(("t",), 3, 5)
    assert euler_integrate({"t": c}).terms == {(1,): F(5)}
    # entrywise matrix form: entry (0, 0) is nonzero only in the t-partial,
    # (0, 1) only in the y-partial, (1, 0) in both and (1, 1) in neither
    t, y = (TruncSeries.var(V2, 3, v) for v in V2)
    zero = TruncSeries.zero(V2, 3)
    Mt = SeriesMatrix([[t, zero], [y, zero]])
    My = SeriesMatrix([[zero, y * y], [t, zero]])
    for weights in (None, {"t": 1, "y": 1}, {"t": 2, "y": 3}):
        got = euler_integrate({"t": Mt, "y": My}, weights)
        assert got == SeriesMatrix(
            [[euler_integrate({"t": Mt[i, j], "y": My[i, j]}, weights)
              for j in range(2)] for i in range(2)])
    assert euler_integrate({"t": Mt, "y": My})[1, 0].terms == {
        (1, 1): F(1)}
    assert euler_integrate({"t": Mt, "y": My}, {"t": 2, "y": 3})[0, 1] \
        == euler_integrate({"y": My[0, 1]})
    with pytest.raises(SeriesError):
        euler_integrate({"t": Mt}, weights={"y": 1})
    with pytest.raises(SeriesError):
        euler_integrate({"t": t}, weights={"t": 0})


@st.composite
def weighted_homogeneous(draw):
    """(F, weights): F in V2 with F(0) = 0, weighted-homogeneous for the
    drawn weights (all 1 in the unweighted case)."""
    w = {"t": draw(st.integers(1, 3)), "y": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        w = {"t": 1, "y": 1}
    order = draw(st.integers(1, 4))
    deg = draw(st.integers(1, order * max(w.values())))
    exps = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)
            if a * w["t"] + b * w["y"] == deg]
    terms = {e: draw(coeffs) for e in exps if draw(st.booleans())}
    return TruncSeries(V2, order, terms), w


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weighted_homogeneous(), st.data())
def test_euler_integrate_inverts_the_gradient(Fw, data):
    f, w = Fw
    grad = {v: f.partial(v) for v in V2}
    assert euler_integrate(grad, w) == f
    if w == {"t": 1, "y": 1}:
        assert euler_integrate(grad) == f
    # a one-variable Euler field treats the other variable as a constant
    v = data.draw(st.sampled_from(V2))
    rest = f.restrict_zero([v]).extend(V2)
    assert euler_integrate({v: grad[v]}, {v: w[v]}) == f - rest


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


def test_solve_series_rejects_singular_constant_term():
    vars = ("t",)
    t = TruncSeries.var(vars, 3, "t")
    one = TruncSeries.one(vars, 3)
    zero = TruncSeries.zero(vars, 3)
    # det = t: invertible over the fraction field, but A(0) = [[1, 1],
    # [1, 1]] is singular, so not over the series
    M = SeriesMatrix([[one + t, one], [one, one]])
    cases = [M.inverse_series,
             lambda: M.solve_series(SeriesMatrix([[one], [zero]])),
             # A(0) = diag(1, 0) is singular, though A @ X = B has the
             # series solution X = (1, 1)
             lambda: SeriesMatrix([[one, zero], [zero, t]]).solve_series(
                 SeriesMatrix([[one], [t]])),
             # A = A(0) has rank 1; B lies in its column space, so
             # A @ X = B has solutions, none of them unique
             lambda: SeriesMatrix([[one, one], [one, one]]).solve_series(
                 SeriesMatrix([[one], [one]]))]
    for solve in cases:
        with pytest.raises(SeriesError,
                           match="^matrix constant term is singular$"):
            solve()


def test_inverse_series_doubles_the_exact_degree(monkeypatch):
    """Each Newton step is one residual and one update: ceil(log2(order +
    1)) steps while the residual is nonzero, and one residual for a
    constant matrix, whose first residual is zero."""
    calls = []
    kernel = SeriesMatrix.sum_of_products
    monkeypatch.setattr(SeriesMatrix, "sum_of_products", staticmethod(
        lambda terms: calls.append(1) or kernel(terms)))
    for order, steps in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3),
                         (8, 4)]:
        one = TruncSeries.one(("t",), order)
        t = TruncSeries.var(("t",), order, "t")
        geometric = sum((t ** k for k in range(1, order + 1)), one)
        calls.clear()
        assert SeriesMatrix([[one - t]]).inverse_series() == SeriesMatrix(
            [[geometric]])
        assert len(calls) == 2 * steps
        calls.clear()
        assert SeriesMatrix([[one * 2]]).inverse_series() == SeriesMatrix(
            [[one * F(1, 2)]])
        assert len(calls) == (1 if order else 0)


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
    if order == 0:
        return st.just({})
    exps = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda e: 1 <= sum(e) <= order)
    return st.dictionaries(exps, coeffs, max_size=3)


@st.composite
def dense_entries(draw, rows=None, cols=None, order=2, at_origin=None):
    """Zero-heavy rows x cols entries: all-zero matrices, blank rows and
    entries of order `order` or `order + 1`.  With at_origin (a constant
    matrix) entry (i, j) gets the constant term at_origin[i][j], and with
    none no entry gets a constant term."""
    rows = rows or draw(st.integers(1, 3))
    cols = cols or draw(st.integers(1, 3))
    all_zero = at_origin is None and draw(st.integers(0, 4)) == 0
    blank = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1))
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            o = draw(st.sampled_from([order, order, order + 1]))
            terms = {}
            if not all_zero and i not in blank and draw(st.integers(0, 2)) == 0:
                terms = draw(positive_terms(o))
            if at_origin is not None and at_origin[i][j]:
                terms[(0, 0)] = at_origin[i][j]
            row.append(TruncSeries(V2, o, terms))
        out.append(row)
    return out


def _const_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def invertible_constants(draw, perm):
    """An invertible constant matrix: either D with nonzero entries at
    (i, perm[i]) only, or L @ D @ U with L unit lower and U unit upper
    triangular, which is every invertible matrix (the LPU decomposition)."""
    n = len(perm)
    d = [[draw(coeffs.filter(bool)) if perm[i] == j else F(0)
          for j in range(n)] for i in range(n)]
    if not draw(st.booleans()):
        return d
    low = [[draw(coeffs) if j < i else F(int(i == j)) for j in range(n)]
           for i in range(n)]
    up = [[draw(coeffs) if j > i else F(int(i == j)) for j in range(n)]
          for i in range(n)]
    return _const_product(_const_product(low, d), up)


matrix_settings = settings(max_examples=50, deadline=None)


@matrix_settings
@given(st.data())
def test_euler_integrate_matrix_is_entrywise(data):
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    Mt = SeriesMatrix(data.draw(dense_entries(r, c)))
    My = SeriesMatrix(data.draw(dense_entries(r, c)))
    w = data.draw(st.sampled_from([None, {"t": 1, "y": 1},
                                   {"t": 2, "y": 1}, {"t": 1, "y": 3}]))
    parts = data.draw(st.sampled_from([{"t": Mt}, {"y": My},
                                       {"t": Mt, "y": My}]))
    got = euler_integrate(parts, w)
    assert got == SeriesMatrix(
        [[euler_integrate({v: M[i, j] for v, M in parts.items()}, w)
          for j in range(c)] for i in range(r)])


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
    # orders 0..5: order 0 takes no Newton step, order 4 takes three
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 4))
    perm = data.draw(st.permutations(range(n)))
    a0 = data.draw(invertible_constants(perm))
    a = data.draw(dense_entries(n, n, order, at_origin=a0))
    rhs = data.draw(dense_entries(n, data.draw(st.integers(1, 3)), order))
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


# -- the fused sum-of-products kernel against the frozen matrix product -----

def assert_same_matrix(got, want):
    """Same JSON, vars, order, row key order and entry order, and every
    stored entry clean and of the matrix order."""
    assert got.to_json() == want.to_json()
    assert (got.rows, got.cols, got.vars, got.order) == (
        want.rows, want.cols, want.vars, want.order)
    assert [list(row) for row in got._data] == [list(row)
                                                for row in want._data]
    assert list(got.nonzero()) == list(want.nonzero())
    assert got == want
    for x in got.nonzero().values():
        assert_clean(x)
        assert x.order == got.order and not x.is_zero()


# few coefficients with coprime denominators, so that sums of products
# often meet on one exponent, and any two denominators have an lcm larger
# than both
kernel_coeffs = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(1, 3),
                                 F(-2, 3), F(3, 5), F(-1, 7)])


@st.composite
def kernel_operand(draw, rows, cols, order, vars=V2):
    """Zero-heavy rows x cols operand over ``vars`` with terms of degree
    0..order: all zero one time in five, blank rows, entries of order
    `order` or `order + 1`."""
    all_zero = draw(st.integers(0, 4)) == 0
    blank = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1))
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            o = draw(st.sampled_from([order, order, order + 1]))
            terms = {}
            if not all_zero and i not in blank and draw(st.booleans()):
                exps = st.tuples(*[st.integers(0, o)] * len(vars)).filter(
                    lambda e: sum(e) <= o)
                terms = draw(st.dictionaries(exps, kernel_coeffs,
                                             max_size=3))
            row.append(TruncSeries(vars, o, terms))
        out.append(row)
    return SeriesMatrix(out)


@st.composite
def kernel_scale(draw, order):
    """A series of order `order` over V2: zero one time in five, else one
    to three terms of degree 0..order."""
    if draw(st.integers(0, 4)) == 0:
        return TruncSeries.zero(V2, order)
    exps = st.tuples(*[st.integers(0, order)] * 2).filter(
        lambda e: sum(e) <= order)
    return TruncSeries(V2, order, draw(st.dictionaries(
        exps, kernel_coeffs, min_size=1, max_size=3)))


@st.composite
def product_sums(draw):
    """One to three signed terms that share an r x c result shape: products
    of operands of orders 1-3, and scaled terms A * x with x of order 0-3
    (so at times below A's) and zero one time in five.  Sometimes a term's
    twin of opposite sign, with the factor 1/2 moved from one operand to
    the other, cancels it across denominators."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            A = draw(kernel_operand(r, c, draw(st.integers(1, 3))))
            B = draw(kernel_scale(draw(st.integers(0, 3))))
            twice = B * 2
        else:
            k = draw(st.integers(1, 3))
            A = draw(kernel_operand(r, k, draw(st.integers(1, 3))))
            B = draw(kernel_operand(k, c, draw(st.integers(1, 3))))
            twice = B.scale(2)
        sign = draw(st.sampled_from([1, -1]))
        terms.append((sign, A, B))
        if draw(st.booleans()):
            terms.append((-sign, A.scale(F(1, 2)), twice))
    return terms


def written_out(terms):
    """The terms with each scaled term A * x written as the product of A
    and the diagonal matrix x I."""
    out = []
    for sign, A, B in terms:
        if isinstance(B, TruncSeries):
            B = SeriesMatrix.from_sparse(A.cols, A.cols, B.vars, B.order,
                                         {(k, k): B for k in range(A.cols)})
        out.append((sign, A, B))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(product_sums(), kernel_operand(2, 2, 2), kernel_operand(2, 2, 1))
def test_sum_of_products_matches_frozen_product(terms, S, T):
    assert_same_matrix(SeriesMatrix.sum_of_products(terms),
                       frozen_sum_of_products(written_out(terms)))
    _, A, B = terms[0]
    if isinstance(B, SeriesMatrix):
        assert_same_matrix(A @ B, frozen_matmul(A, B))
    assert_same_matrix(S.commutator(T), frozen_combine(
        frozen_matmul(S, T), frozen_matmul(T, S), TruncSeries.__sub__,
        TruncSeries.__neg__))


def test_sum_of_products_groups_and_cancels_denominators():
    t = TruncSeries.var(("t",), 3, "t")
    one = TruncSeries.one(("t",), 3)

    def row(*xs):
        return SeriesMatrix([list(xs)])

    def col(*xs):
        return SeriesMatrix([[x] for x in xs])

    # one exponent hit by products with denominators 2 and 3
    got = row(one * F(1, 2), one * F(1, 3)) @ col(one, one)
    assert got[0, 0].terms == {(0,): F(5, 6)}
    # t/2 * 2t/3 - t/3 * t cancels across denominators to exactly zero
    terms = [(1, row(t * F(1, 2)), col(t * F(2, 3))),
             (-1, row(t * F(1, 3)), col(t))]
    got = SeriesMatrix.sum_of_products(terms)
    assert got._data == [{}] and got.is_zero()
    assert got.to_json() == frozen_sum_of_products(terms).to_json()
    # a surviving term keeps only its nonzero part
    terms.append((1, row(one * F(1, 7), t), col(t * t, t * F(1, 5))))
    got = SeriesMatrix.sum_of_products(terms)
    assert got[0, 0].terms == {(2,): F(12, 35)}
    assert_same_matrix(got, frozen_sum_of_products(terms))


def test_sum_of_products_errors():
    A = SeriesMatrix.zeros(2, 3, V2, 2)
    B = SeriesMatrix.zeros(3, 2, V2, 2)
    with pytest.raises(SeriesError, match="^shape mismatch for product$"):
        A @ A
    with pytest.raises(SeriesError, match="^shape mismatch for product$"):
        SeriesMatrix.sum_of_products([(1, A, B), (1, B, B)])
    with pytest.raises(SeriesError, match="^shape mismatch 2x2 vs 3x3$"):
        A.commutator(B)
    with pytest.raises(SeriesError, match="sign"):
        SeriesMatrix.sum_of_products([(2, A, B)])
    with pytest.raises(SeriesError, match="no products"):
        SeriesMatrix.sum_of_products([])
    # a variable mismatch is an error even where no product term is formed
    other = SeriesMatrix.zeros(3, 2, ("t",), 2)
    with pytest.raises(SeriesError, match="variable lists differ"):
        A @ other
    with pytest.raises(SeriesError, match="variable lists differ"):
        SeriesMatrix.sum_of_products([(1, A, B), (-1, A, other)])
    with pytest.raises(TypeError):
        A @ 2
    # a scaled term has A's shape, and its scale the variables of the sum
    one = TruncSeries.one(V2, 2)
    with pytest.raises(SeriesError, match="^shape mismatch 2x2 vs 2x3$"):
        SeriesMatrix.sum_of_products([(1, A, B), (1, A, one)])
    with pytest.raises(SeriesError, match="variable lists differ"):
        SeriesMatrix.sum_of_products([(1, A, TruncSeries.one(("t",), 2))])
    with pytest.raises(SeriesError, match="variable lists differ"):
        A + SeriesMatrix.zeros(2, 3, ("t",), 2)
    for op in (lambda: A + 2, lambda: A - 2, lambda: 2 + A):
        with pytest.raises(TypeError):
            op()


def test_from_consts_is_the_dense_constructor_on_constants():
    mat = [[1, 0, F(2, 3)], [0, 0, 0]]
    M = SeriesMatrix.from_consts(mat, V2, 3)
    assert M == SeriesMatrix([[TruncSeries.const(V2, 3, c) for c in row]
                              for row in mat])
    assert list(M.nonzero()) == [(0, 0), (0, 2)]
    for bad, message in (([], "matrix must be nonempty"),
                         ([[]], "matrix must be nonempty"),
                         ([[1, 2], [3]], "ragged matrix"),
                         ([[1, 0], [0, "1/2"]], "coefficient must be")):
        with pytest.raises(SeriesError, match=message):
            SeriesMatrix.from_consts(bad, V2, 3)
    with pytest.raises(SeriesError, match="duplicate variable"):
        SeriesMatrix.from_consts([[1]], ("t", "t"), 3)


def test_scaled_term_is_scale_series():
    x = TruncSeries(V2, 2, {(0, 0): F(1, 2), (1, 0): 3})
    M = SeriesMatrix.from_consts([[1, 0, F(2, 3)], [0, 0, 0]], V2, 3)
    assert_same_matrix(SeriesMatrix.sum_of_products([(1, M, x)]),
                       M.scale_series(x))
    # a zero scale adds nothing but still bounds the order
    zero = TruncSeries.zero(V2, 1)
    got = SeriesMatrix.sum_of_products([(-1, M, zero)])
    assert got.is_zero() and got.order == 1 and (got.rows, got.cols) == (2, 3)
    assert_same_matrix(got, M.scale_series(zero))


V3 = ("x", "y", "z")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_slice_terms_give_the_graded_part_of_a_product(data):
    # both graded recursions (y-degree in unfold.solve, Euler weight in
    # h2_reconstruct) read slice s of a product off the slices of its
    # factors; here some of three variables carry positive weights and
    # the others none, as the degree-zero coordinates do
    order = data.draw(st.integers(1, 3))
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    A = data.draw(kernel_operand(r, k, order, V3))
    B = data.draw(kernel_operand(k, c, order, V3))
    S = data.draw(kernel_operand(k, k, order, V3))
    T = data.draw(kernel_operand(k, k, order, V3))
    names = data.draw(st.lists(st.sampled_from(V3), min_size=1, max_size=3,
                               unique=True))
    weights = {v: data.draw(st.integers(1, 3)) for v in names}
    top = (order + 1) * max(weights.values())

    def slices(M):
        return [M.graded_part(d, names, weights) for d in range(top + 1)]

    As, Bs, Ss, Ts = map(slices, (A, B, S, T))
    assert slice_sum(As) == A
    for s in range(top + 1):
        assert_same_matrix(
            SeriesMatrix.sum_of_products(slice_terms(As, Bs, s)),
            (A @ B).graded_part(s, names, weights))
        assert_same_matrix(
            SeriesMatrix.sum_of_products(slice_terms(Ss, Ts, s)
                                         + slice_terms(Ts, Ss, s, -1)),
            S.commutator(T).graded_part(s, names, weights))


T2 = TruncSeries.var(("t",), 2, "t")
M2 = SeriesMatrix.identity(2, ("t",), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: TruncSeries(("t", "t"), 2),
     r"duplicate variable names: \('t', 't'\)"),
    (lambda: TruncSeries.var(("t",), 2, "s"), "unknown variable 's'"),
    (lambda: T2 ** -1, "exponent must be a non-negative int"),
    (lambda: T2.extend(("y", "y")), r"duplicate variable names: \('y', 'y'\)"),
    (lambda: euler_integrate({}), "nothing to integrate"),
    (lambda: euler_integrate({"t": T2, "y": T2.extend(V2)}),
     "partials disagree on variable context"),
    (lambda: euler_integrate({"s": T2}), "unknown variable 's'"),
    (lambda: SeriesMatrix([[T2, T2.extend(V2)]]),
     "matrix entries disagree on variables"),
    (lambda: euler_integrate({"t": SeriesMatrix.identity(2, V2, 2),
                              "y": SeriesMatrix.identity(3, V2, 2)}),
     "shape mismatch 2x2 vs 3x3"),
    (lambda: M2.conjugate_const([[F(1)]], [[F(1)]]), "basis size mismatch"),
    (lambda: M2.solve_series(SeriesMatrix.zeros(3, 1, ("t",), 2)),
     "right-hand side needs 2 rows"),
    (lambda: SeriesMatrix.zeros(2, 3, ("t",), 2).inverse_series(),
     "solve needs a square matrix"),
], ids=["duplicate-vars", "var", "power", "extend", "integrate-nothing",
        "integrate-contexts", "integrate-unknown", "matrix-contexts",
        "integrate-shapes", "basis", "rhs-rows", "square"])
def test_series_input_checks(call, message):
    with pytest.raises(SeriesError, match=message):
        call()


# -- the stored form: integer numerators over one denominator ---------------

def assert_stored_form(x):
    """x holds (den, {key: int}) in lowest terms: den > 0, no zero
    numerator, gcd(den, numerators) = 1 and den = 1 for zero; a dict of
    ints leaves the garbage collector nothing to track."""
    den, nums = x._den, x._t
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert nums or den == 1
    assert not gc.is_tracked(nums)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_series(order=2), small_series(order=3), coeffs,
       st.integers(0, 3), product_sums())
def test_every_result_holds_the_stored_form(a, b, c, d, terms):
    u = TruncSeries(("u",), 3, {(1,): F(1, 2), (2,): F(-2, 3)})
    got = [a + b, b + a, a - b, a - a, -b, a * b, a * c, c * b, a * 0, a + c,
           b.mul_var("y"), b.truncate(1), b.restrict_zero(["y"]),
           a.extend(("u",) + V2),
           b.graded_part(d), b.graded_part(d, ["t"], {"t": 2}),
           a.compose({"t": u, "y": u * F(3, 5)}),
           euler_integrate({"t": a, "y": b}),
           euler_integrate({"t": b}, {"t": 2, "y": 3})]
    got += [x.partial(v) for x in (a, b) for v in V2]
    M = SeriesMatrix.sum_of_products(terms)
    for x in got + list(M.nonzero().values()) + [M[0, 0] * 0]:
        assert_stored_form(x)


def test_equal_series_from_different_paths_hash_equal():
    x = TruncSeries.var(V2, 3, "t")
    a = TruncSeries(V2, 3, {(1, 0): F(1, 2), (0, 2): F(-2, 3)})
    b = TruncSeries(V2, 3, {(0, 1): F(5, 6), (0, 2): F(1, 12)})
    zero = TruncSeries.zero(V2, 3)
    for got, want in [((x * F(1, 2)) * 2, x), ((a + b) - b, a),
                      (a * F(3, 7) * F(7, 3), a), (b - b, zero),
                      ((a * 6).partial("y") * F(1, 6), a.partial("y"))]:
        assert got == want and hash(got) == hash(want)
        assert_stored_form(got)
    assert len({a, (a + b) - b, x, (x * F(1, 2)) * 2, zero, b - b}) == 3
