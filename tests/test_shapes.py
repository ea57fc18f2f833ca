"""Each payload type checks its own shape when it is built.

Every case calls a constructor directly, with no command line involved,
on data of the wrong shape, size, variables or integer type, and expects
the ``SeriesError`` of that constructor.
"""

from fractions import Fraction as F

import pytest

from frobkit.germ import FrobeniusGermData
from frobkit.pencil import ConnectionPencil, PairingMatrix
from frobkit.series import SeriesError, SeriesMatrix, TruncSeries
from frobkit.structures import (FiltrationData, FrobeniusTypeStructure,
                                shift_example)
from frobkit.unfold import UnfoldProblem
from helpers import point_base_pencil, rank2_higgs_ftype

N = 3


def _cases():
    FT = rank2_higgs_ftype(N)
    t = FT.vars
    two = SeriesMatrix.zeros(2, 2, t, N)
    three = SeriesMatrix.zeros(3, 3, t, N)
    over_s = SeriesMatrix.zeros(2, 2, ("s",), N)
    P, g = point_base_pencil(N)
    Z = P.V
    D = shift_example(5, [TruncSeries(("t",), N, {(0,): 1})], order=N)
    D3 = SeriesMatrix.zeros(3, 3, D.vars, N)
    s1 = ("s1",)
    unit = SeriesMatrix.identity(1, s1, N)
    pot = TruncSeries(s1, N, {(3,): F(1, 6)})

    def germ(**change):
        args = dict(coords=s1, n=1, mult=[unit], metric=[[F(1)]],
                    degrees=[F(-1)], euler=None, potential=pot, order=N)
        args.update(change)
        return FrobeniusGermData(**args)

    def ftype(**change):
        args = dict(vars=t, n=2, C=FT.C, U=FT.U, V=FT.V, g=FT.g, order=N)
        args.update(change)
        return FrobeniusTypeStructure(**args)

    def filtration(**change):
        args = dict(vars=D.vars, n=D.n, weight=D.weight, levels=D.levels,
                    Gamma=D.Gamma, S=D.S, order=N)
        args.update(change)
        return FiltrationData(**args)

    header = dict(two.to_json(), rows=3, cols=3)
    return {
        "matrix-header-3x3": lambda: SeriesMatrix.from_json(header),
        "matrix-order-float": lambda: SeriesMatrix.from_json(
            dict(two.to_json(), order=2.5)),
        "pencil-u-3x3": lambda: ConnectionPencil(
            (), (), 2, [], [], SeriesMatrix.identity(3, (), N), Z, Z, N),
        "pencil-c-over-s": lambda: ConnectionPencil(
            t, (), 2, [over_s], [], two, two, two, N),
        "pencil-rank-str": lambda: ConnectionPencil(
            (), (), "2", [], [], P.U, Z, Z, N),
        "pairing-empty": lambda: PairingMatrix(0, []),
        "pairing-sizes-differ": lambda: PairingMatrix(0, [two, three]),
        "pairing-vars-differ": lambda: PairingMatrix(0, [two, over_s]),
        "pairing-weight-float": lambda: PairingMatrix(1.5, [two]),
        "ftype-u-3x3": lambda: ftype(U=three),
        "ftype-higgs-over-s": lambda: ftype(C=[over_s]),
        "ftype-v-1x1": lambda: ftype(V=[[F(0)]]),
        "ftype-pairing-ragged": lambda: ftype(g=[[F(0), F(1)], [F(1)]]),
        "ftype-order-negative": lambda: ftype(order=-1),
        "filtration-no-gamma": lambda: filtration(Gamma=[]),
        "filtration-gamma-3x3": lambda: filtration(Gamma=[D3]),
        "filtration-pairing-1x1": lambda: filtration(S=[[F(1)]]),
        "filtration-level-str": lambda: filtration(
            levels=["4"] + D.levels[1:]),
        "filtration-weight-float": lambda: filtration(weight=5.0),
        "germ-mult-2x2": lambda: germ(
            mult=[SeriesMatrix.identity(2, s1, N)]),
        "germ-two-mult": lambda: germ(mult=[unit, unit]),
        "germ-metric-2x2": lambda: germ(metric=[[F(1), F(0)], [F(0), F(1)]]),
        "germ-potential-over-t": lambda: germ(
            potential=TruncSeries(("t",), N, {(3,): F(1, 6)})),
        "germ-euler-over-t": lambda: germ(
            degrees=None, euler=[TruncSeries(("t",), N, {(1,): -1})]),
        "germ-two-degrees": lambda: germ(degrees=[F(-1), F(0)]),
        "unfold-order-negative": lambda: UnfoldProblem(
            P, ("y1",), [TruncSeries(("y1",), N, {})] * 2, -1),
    }


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_rejects_wrong_shape(name):
    with pytest.raises(SeriesError):
        CASES[name]()
