from fractions import Fraction
from itertools import product

import pytest

from grothpoly.algebra import ALPHA, BETA, RationalFunction
from grothpoly.models import (
    FERMIONIC_MODELS,
    LabelOutOfRange,
    RMatrixFamily,
    UndefinedAtBetaZero,
    WeightModel,
    rmatrix_entry,
    vertex_weight,
)
from grothpoly.transfer import TransferSpec, row_configuration_weight

ONE = RationalFunction.one()
X = RationalFunction.var("x1")
Y = RationalFunction.var("y1")
Z = RationalFunction.var("z1")


def Xfrac(x=X):
    return x / (ONE - ALPHA * x)


def Bfrac(x=X):
    return (ONE + BETA * x) / (ONE - ALPHA * x)


class TestVertexWeights:
    def test_row_G_tiles(self):
        assert vertex_weight(WeightModel.ROW_G, 1, 0, 0, 1, X) == Xfrac()
        assert vertex_weight(WeightModel.ROW_G, 0, 0, 0, 0, X) == ONE
        assert vertex_weight(WeightModel.ROW_G, 0, 3, 0, 3, X) == Bfrac()
        assert vertex_weight(WeightModel.ROW_G, 0, 3, 1, 2, X) == Bfrac()
        assert vertex_weight(WeightModel.ROW_G, 1, 2, 1, 2, X) == Xfrac()

    def test_row_dual_g_tiles(self):
        w = vertex_weight(WeightModel.ROW_DUAL_G, 2, 0, 0, 2, X)
        assert w == BETA * X
        assert vertex_weight(WeightModel.ROW_DUAL_G, 0, 5, 0, 5, X) == ONE
        assert vertex_weight(WeightModel.ROW_DUAL_G, 2, 0, 1, 1, X) == (
            (ALPHA + BETA) ** 0 * (X + ALPHA) * BETA
        )

    def test_col_dual_g_tiles(self):
        assert vertex_weight(WeightModel.COL_DUAL_G, 1, 0, 1, 0, X) == BETA
        assert vertex_weight(WeightModel.COL_DUAL_G, 2, 1, 1, 2, X) == X * (X + ALPHA)
        assert vertex_weight(WeightModel.COL_DUAL_G, 0, 2, 2, 0, X).is_zero() is False

    def test_col_G_support(self):
        assert vertex_weight(WeightModel.COL_G, 0, 1, 2, 0, X).is_zero()  # b < c
        assert vertex_weight(WeightModel.COL_G, 2, 1, 1, 2, X) == Xfrac() ** 2
        assert vertex_weight(WeightModel.COL_G, 1, 2, 0, 3, X) == Xfrac() * Bfrac()

    def test_j_row_tiles(self):
        assert vertex_weight(WeightModel.J_ROW, 1, 0, 1, 0, X) == X + ONE
        assert vertex_weight(WeightModel.J_ROW, 1, 2, 1, 2, X) == X
        assert vertex_weight(WeightModel.J_ROW, 1, 0, 0, 1, X) == X
        assert vertex_weight(WeightModel.J_ROW, 0, 2, 1, 1, X) == ONE

    def test_conservation(self):
        for model in WeightModel:
            aux = (0, 1) if model in FERMIONIC_MODELS else range(4)
            for a, c in product(aux, aux):
                for b, d in product(range(4), range(4)):
                    if a + b != c + d:
                        assert vertex_weight(model, a, b, c, d, X).is_zero()

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            vertex_weight(WeightModel.ROW_G, 2, 0, 0, 2, X)
        with pytest.raises(LabelOutOfRange):
            vertex_weight(WeightModel.COL_G, 1, -1, 0, 0, X)


# the dual tile tables written out explicitly: (a, b, c, d) -> weight
_ROW_G_DUAL_TILES = [
    (lambda m: (1, 0, 1, 0), lambda m, x: ONE, [0]),
    (lambda m: (1, m, 1, m), lambda m, x: Bfrac(x), [1, 2, 3]),
    (lambda m: (1, m - 1, 0, m), lambda m, x: Bfrac(x), [1, 2, 3]),
    (lambda m: (0, m + 1, 1, m), lambda m, x: Xfrac(x), [0, 1, 2]),
    (lambda m: (0, m, 0, m), lambda m, x: Xfrac(x), [0, 1, 2]),
]

_J_ROW_DUAL_TILES = [
    (lambda m: (1, m, 1, m), lambda m, x: ONE, [0, 1, 2]),
    (lambda m: (1, m, 0, m + 1), lambda m, x: ONE, [0, 1, 2]),
    (lambda m: (0, m, 1, m - 1), lambda m, x: x, [1, 2, 3]),
    (lambda m: (0, m, 0, m), lambda m, x: x, [1, 2, 3]),
    (lambda m: (0, 0, 0, 0), lambda m, x: x + ONE, [0]),
]


class TestDualTiles:
    @pytest.mark.parametrize("tiles,model", [
        (_ROW_G_DUAL_TILES, WeightModel.ROW_G_DUAL),
        (_J_ROW_DUAL_TILES, WeightModel.J_ROW_DUAL),
    ])
    def test_explicit_tables(self, tiles, model):
        for labels_of, weight_of, ms in tiles:
            for m in ms:
                a, b, c, d = labels_of(m)
                assert vertex_weight(model, a, b, c, d, X) == weight_of(m, X)

    def test_flip_construction(self):
        # upside-down flip with 0/1 swap on the auxiliary labels
        for a, c in product((0, 1), (0, 1)):
            for b in range(5):
                d = a + b - c
                if d < 0:
                    continue
                assert vertex_weight(WeightModel.ROW_G_DUAL, a, b, c, d, X) == (
                    vertex_weight(WeightModel.ROW_G, 1 - a, d, 1 - c, b, X)
                )
                assert vertex_weight(WeightModel.J_ROW_DUAL, a, b, c, d, X) == (
                    vertex_weight(WeightModel.J_ROW, 1 - a, d, 1 - c, b, X)
                )


class TestSpecializations:
    def test_j_row_equals_dual_g_at_one_zero(self):
        # single-row weights agree on every occupancy pair, <= 4 sites, entries <= 3
        spec_j = TransferSpec(WeightModel.J_ROW)
        spec_g = TransferSpec(WeightModel.ROW_DUAL_G, alpha=1, beta=0)
        for nsites in (1, 2, 3, 4):
            pad = (0,) * (nsites - min(nsites, 2))  # empty sites up to nsites
            for bottom in product(range(4), repeat=min(nsites, 2)):
                for top in product(range(4), repeat=min(nsites, 2)):
                    wj = row_configuration_weight(spec_j, bottom, top + pad, X)
                    wg = row_configuration_weight(spec_g, bottom, top + pad, X)
                    assert wj == wg, (nsites, bottom, top)


class TestInhomogeneous:
    def test_col_G_box_weight(self):
        w = vertex_weight(WeightModel.COL_G, 1, 0, 0, 1, X / Z)
        assert w.substitute({"a": RationalFunction.zero(), "b": -ONE}) == X / Z

    def test_vacuum_tiles(self):
        # dual tile sets have their weight-1 vacuum at auxiliary label 1
        from grothpoly.models import DUAL_BOUNDARY_MODELS

        for model in WeightModel:
            if model in DUAL_BOUNDARY_MODELS:
                assert vertex_weight(model, 1, 0, 1, 0, X / Z) == ONE
            else:
                assert vertex_weight(model, 0, 0, 0, 0, X / Z) == ONE

    def test_j_row_substitution(self):
        assert vertex_weight(WeightModel.J_ROW, 1, 0, 1, 0, X / Z) == X / Z + ONE


class TestRMatrixEntries:
    def test_five_vertex(self):
        cross = ((ONE + BETA * X) * Y) / ((ONE + BETA * Y) * X)
        assert rmatrix_entry(RMatrixFamily.FIVE_VERTEX_R, 0, 1, 0, 1, X, Y) == cross
        assert rmatrix_entry(RMatrixFamily.FIVE_VERTEX_R, 0, 0, 0, 0, X, Y) == ONE
        assert rmatrix_entry(RMatrixFamily.FIVE_VERTEX_R, 1, 0, 0, 1, X, Y) == ONE - cross
        assert rmatrix_entry(RMatrixFamily.FIVE_VERTEX_R, 0, 1, 1, 0, X, Y).is_zero()

    def test_five_vertex_column_sums(self):
        for ot, ob in product((0, 1), (0, 1)):
            total = RationalFunction.zero()
            for a in (0, 1):
                b = ot + ob - a
                if b in (0, 1):
                    total = total + rmatrix_entry(
                        RMatrixFamily.FIVE_VERTEX_R, a, b, ot, ob, X, Y
                    )
            assert total == ONE

    def test_mixed_cases(self):
        assert rmatrix_entry(RMatrixFamily.MIXED_R, 1, 0, 0, 1, X, Y) == ONE - X * Y
        assert rmatrix_entry(RMatrixFamily.MIXED_R, 0, 1, 0, 1, X, Y) == X * Y
        assert rmatrix_entry(RMatrixFamily.MIXED_R, 0, 0, 0, 0, X, Y) == ONE
        assert rmatrix_entry(RMatrixFamily.MIXED_R, 1, 2, 2, 1, X, Y) == ONE - X * BETA
        assert rmatrix_entry(RMatrixFamily.MIXED_R, 0, 2, 1, 1, X, Y) == X * BETA

    def test_col_dual_r_corner(self):
        assert rmatrix_entry(RMatrixFamily.COL_DUAL_R, 0, 0, 0, 0, X, Y) == ONE
        assert rmatrix_entry(RMatrixFamily.COL_DUAL_R, 0, 1, 0, 2, X, Y).is_zero()

    def test_j_r_is_beta_zero_limit(self):
        for labels in product((0, 1), repeat=4):
            five = rmatrix_entry(RMatrixFamily.FIVE_VERTEX_R, *labels, X, Y, beta=0)
            jj = rmatrix_entry(RMatrixFamily.J_R, *labels, X, Y)
            assert five == jj

    @pytest.mark.parametrize("param", [{"alpha": 0.1}, {"beta": 0.1}])
    def test_float_parameter_is_rejected(self, param):
        with pytest.raises(TypeError):
            rmatrix_entry(RMatrixFamily.COL_G_R, 1, 1, 1, 1, X, Y, **param)

    def test_beta_zero_guard(self):
        with pytest.raises(UndefinedAtBetaZero):
            rmatrix_entry(RMatrixFamily.ROW_DUAL_R, 1, 0, 1, 0, X, Y, beta=0)
        # other specializations are fine
        w = rmatrix_entry(RMatrixFamily.ROW_DUAL_R, 1, 0, 1, 0, X, Y, beta=Fraction(2))
        assert not w.is_zero()

    def test_conservation(self):
        for fam in RMatrixFamily:
            for labels in product(range(3), repeat=4):
                a, b, c, d = labels
                if a + b != c + d:
                    try:
                        w = rmatrix_entry(fam, a, b, c, d, X, Y)
                    except LabelOutOfRange:
                        continue
                    assert w.is_zero()

