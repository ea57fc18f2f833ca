from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers as frozen
from frobkit import linalg

F = Fraction

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, 3, F(1, 2), F(-2, 3)])


@st.composite
def matrices(draw):
    """Small int/Fraction matrices, square half of the time, with zero
    rows and repeated rows mixed in."""
    ncols = draw(st.integers(1, 5))
    nrows = ncols if draw(st.booleans()) else draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=ncols,
                                      max_size=ncols)))
    return rows


def _items(vec):
    # repr keeps key order and tells a Fraction from an int
    return repr(list(vec.items()))


def _inverse_or_error(inverse, a):
    try:
        return repr(inverse(a))
    except ValueError:
        return "singular"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
@example([[0, 0], [0, 0]])
@example([[0, 0, 0]])
@example([[1, 2], [1, 2]])
@example([[0, 1], [1, 0]])
@example([[F(1, 2), 1, 0], [1, 2, 0], [0, 0, 0], [1, 2, 3]])
def test_echelon_matches_frozen_fraction_engine(a):
    ncols = len(a[0])
    units = [{c: 1} for c in range(ncols)]
    for pivot in ("min", "max"):
        new, old = linalg.Echelon(pivot), frozen.Echelon(pivot)
        for row in a:
            vec = dict(enumerate(row))
            assert new.insert(vec) == old.insert(vec)
        assert ([(p, _items(r)) for p, r in new.rows.items()]
                == [(p, _items(r)) for p, r in old.rows.items()])
        assert new.pivots == old.pivots and new.rank == old.rank
        for vec in units + [dict(enumerate(row)) for row in a]:
            assert _items(new.reduce(vec)) == _items(old.reduce(vec))
    assert linalg.mat_rank(a) == frozen.mat_rank(a)
    assert repr(linalg.nullspace(a)) == repr(frozen.nullspace(a))
    if len(a) == ncols:
        assert (_inverse_or_error(linalg.mat_inverse, a)
                == _inverse_or_error(frozen.mat_inverse, a))
        assert ((linalg.mat_rank(a) == ncols)
                == (_inverse_or_error(linalg.mat_inverse, a) != "singular"))


@pytest.mark.parametrize("a", [[[1, 2], [2, 4]],        # singular
                               [[1, 2, 3], [4, 5, 6]],  # not square
                               [[1, 2], [3]],           # ragged
                               [[1], [2, 3]]])
def test_mat_inverse_rejects_singular_and_misshapen(a):
    with pytest.raises(ValueError):
        linalg.mat_inverse(a)



@pytest.mark.parametrize("call, message", [
    (lambda: linalg.mat_rank([[1, 2], [3]]), "ragged matrix"),
    (lambda: linalg.Echelon(pivot="first"), "pivot must be 'min' or 'max'"),
], ids=["ragged", "pivot"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_matrix_has_rank_zero_and_no_kernel():
    assert linalg.mat_rank([]) == 0
    assert linalg.nullspace([]) == []
