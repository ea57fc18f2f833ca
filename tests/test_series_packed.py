"""The packed-key series against the frozen tuple-keyed arithmetic.

Every operation must give the terms of ``helpers.ReferenceSeries`` in the
same order, in 1, 3, 10 and 101 variables, at orders 0-6 and with operands
of different orders; and an order bound too large for an exponent field is
an error.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.series import (MAX_ORDER, SeriesError, SeriesMatrix,
                            TruncSeries, euler_integrate, exponent_strides,
                            key_degree, pack_key, unpack_key)
from helpers import (ReferenceSeries, reference_euler_integrate,
                     reference_sum_of_products)

CONTEXTS = {n: tuple("x%d" % i for i in range(n)) for n in (1, 3, 10, 101)}
coeffs = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(3, 5), F(2)])


@st.composite
def term_dicts(draw, nvars, order, min_size=0):
    """Up to five terms of degree <= order, each exponent spread over a
    few of the nvars variables."""
    terms = {}
    for _ in range(draw(st.integers(min_size, 5))):
        e = [0] * nvars
        for _ in range(draw(st.integers(0, order))):
            e[draw(st.integers(0, nvars - 1))] += 1
        terms[tuple(e)] = draw(coeffs)
    return terms


def pair(vars, order, terms):
    return TruncSeries(vars, order, terms), ReferenceSeries(vars, order, terms)


def same(got, want):
    assert (got.vars, got.order) == (want.vars, want.order)
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_packed_series_match_the_tuple_oracle(data):
    n = data.draw(st.sampled_from(sorted(CONTEXTS)))
    vars = CONTEXTS[n]
    oa, ob = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    a, ra = pair(vars, oa, data.draw(term_dicts(n, oa)))
    b, rb = pair(vars, ob, data.draw(term_dicts(n, ob)))
    c = data.draw(coeffs)
    name = data.draw(st.sampled_from(vars))
    for got, want in ((a + b, ra + rb), (b + a, rb + ra), (a - b, ra - rb),
                      (a * b, ra * rb), (b * a, rb * ra), (a * a, ra * ra),
                      (-a, -ra), (a + c, ra + c), (a * c, ra * c),
                      (a.mul_var(name), ra.mul_var(name))):
        same(got, want)
    # a unit of the same terms: its constant term moved to 1
    unit, runit = a - a.constant_term + 1, ra - ra.constant_term + 1
    same(unit.inverse(), runit.inverse())
    if oa:
        same(a.partial(name), ra.partial(name))
        low = data.draw(st.integers(0, oa - 1))
        same(a.truncate(low), ra.truncate(low))
    names = data.draw(st.lists(st.sampled_from(vars), max_size=3,
                               unique=True))
    weights = {v: data.draw(st.integers(1, 3)) for v in names}
    d = data.draw(st.integers(0, 8))
    same(a.graded_part(d), ra.graded_part(d))
    same(a.graded_part(d, names=names or None, weights=weights),
         ra.graded_part(d, names=names or None, weights=weights))
    same(a.graded_part(d, weights=weights), ra.graded_part(d, weights=weights))
    if names and len(names) < n:
        same(a.restrict_zero(names), ra.restrict_zero(names))
    # a reversed context with two new names in front
    wide = ("u", "v") + vars[::-1]
    same(a.extend(wide), ra.extend(wide))
    # images without constant term: each variable, or b's nonconstant part
    images = {v: TruncSeries.var(vars, ob, v) for v in vars}
    images[name] = b - b.constant_term
    rimages = {v: ReferenceSeries(vars, ob, x.terms)
               for v, x in images.items()}
    same(a.compose(images), ra.compose(rimages))
    # a one-form over the variables of ``names``, weighted or not
    if names:
        form = {v: a.mul_var(v) if i % 2 else b for i, v in enumerate(names)}
        rform = {v: ReferenceSeries(vars, x.order, x.terms)
                 for v, x in form.items()}
        same(euler_integrate(form), reference_euler_integrate(rform))
        same(euler_integrate(form, weights),
             reference_euler_integrate(rform, weights))
    for x, rx in ((a, ra), (b, rb)):
        assert x.to_json() == rx.to_json()
        assert TruncSeries.from_json(x.to_json()) == x


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_matrix_composition_matches_the_tuple_oracle_entrywise(data):
    # one power table serves every entry of a matrix composition, and
    # ``TruncSeries.compose`` is its one-entry case, so each entry is held
    # to the oracle's own substitution, terms in the same order
    n = data.draw(st.sampled_from(sorted(CONTEXTS)))
    vars = CONTEXTS[n]
    order, image_order = data.draw(st.integers(0, 6)), data.draw(
        st.integers(0, 6))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    M = SeriesMatrix([[TruncSeries(vars, order,
                                   data.draw(term_dicts(n, order)))
                       for _ in range(cols)] for _ in range(rows)])
    images = {v: TruncSeries.var(vars, image_order, v) for v in vars}
    for v in data.draw(st.lists(st.sampled_from(vars), max_size=3,
                                unique=True)):
        b = TruncSeries(vars, image_order,
                        data.draw(term_dicts(n, image_order)))
        images[v] = b - b.constant_term
    rimages = {v: ReferenceSeries(vars, x.order, x.terms)
               for v, x in images.items()}
    got = M.compose(images)
    assert (got.rows, got.cols) == (rows, cols)
    for i in range(rows):
        for j in range(cols):
            same(got[i, j], ReferenceSeries(vars, M.order, M[i, j].terms)
                 .compose(rimages))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_sum_of_products_matches_the_tuple_kernel(data):
    n = data.draw(st.sampled_from(sorted(CONTEXTS)))
    vars = CONTEXTS[n]

    def matrix(rows, cols):
        order = data.draw(st.integers(0, 6))
        return SeriesMatrix([[TruncSeries(vars, order,
                                          data.draw(term_dicts(n, order)))
                              for _ in range(cols)] for _ in range(rows)])

    terms = [(data.draw(st.sampled_from([1, -1])), matrix(2, k), matrix(k, 2))
             for k in data.draw(st.lists(st.integers(1, 3), min_size=1,
                                         max_size=2))]
    got = SeriesMatrix.sum_of_products(terms)
    want = reference_sum_of_products(terms)
    assert list(got.nonzero()) == list(want)
    for ij, x in got.nonzero().items():
        assert list(x.terms.items()) == list(want[ij].items())


def test_keys_carry_the_exponents_and_the_degree():
    st3 = exponent_strides(3)
    k = pack_key((2, 0, 1, 3), st3)
    assert unpack_key(k, st3) == (2, 0, 1, 3) and key_degree(k, 3) == 3
    x = TruncSeries(("a", "b", "c"), 3, {(2, 0, 1): 1, (0, 0, 0): 5})
    assert x.packed_terms == {k: F(1), 0: F(5)}
    assert x.terms == {(2, 0, 1): F(1), (0, 0, 0): F(5)}


def test_an_order_beyond_the_exponent_field_is_an_error():
    # the largest order fills the field: t^MAX_ORDER is kept, one more
    # degree is truncated away, and no field carries into the next
    t = TruncSeries.var(("t", "y"), MAX_ORDER, "t")
    top = t ** MAX_ORDER
    assert top.terms == {(MAX_ORDER, 0): F(1)}
    assert (top * t).is_zero() and (top * top).is_zero()
    assert top.partial("t").terms == {(MAX_ORDER - 1, 0): F(MAX_ORDER)}
    assert top.extend(("u", "y", "t")).terms == {(0, 0, MAX_ORDER): F(1)}
    assert top.restrict_zero(["y"]).terms == {(MAX_ORDER,): F(1)}
    s = TruncSeries.var(("t", "y"), MAX_ORDER - 1, "t")
    up = s.mul_var("y")
    assert up.order == MAX_ORDER and up.terms == {(1, 1): F(1)}
    assert up.partial("y") == s
    for bad in (lambda: TruncSeries(("t",), MAX_ORDER + 1),
                lambda: TruncSeries.const(("t",), MAX_ORDER + 1, 1),
                lambda: t.mul_var("t"),
                lambda: euler_integrate({"t": t}),
                lambda: TruncSeries.from_json(
                    {"vars": ["t"], "order": MAX_ORDER + 1, "terms": []})):
        with pytest.raises(SeriesError, match="exponent field"):
            bad()
