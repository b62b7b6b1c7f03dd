import os
import subprocess
import sys

import pytest

from grothpoly.algebra import (
    ALPHA,
    BETA,
    MultiPoly,
    RationalFunction,
    as_rf,
)
from grothpoly.models import WeightModel
from grothpoly.partitions import (
    conjugate,
    contains,
    enumerate_partitions,
    is_horizontal_strip,
    is_vertical_strip,
    row_multiplicities,
    subpartitions,
)
from grothpoly.transfer import (
    DifferencePropertyViolation,
    TransferSpec,
    dual_groth_poly,
    generalized_poly,
    groth_poly,
    groth_poly_dual_route,
    j_poly,
    row_configuration_weight,
    skew_dual_groth_poly,
    skew_groth_poly,
    transfer_element,
)

ONE = RationalFunction.one()
ZERO = RationalFunction.zero()


def V(name):
    return RationalFunction.var(name)


def Xf(i):
    x = V(f"x{i}")
    return x / (ONE - ALPHA * x)


def Bf(i):
    x = V(f"x{i}")
    return (ONE + BETA * x) / (ONE - ALPHA * x)


X1, X2 = V("x1"), V("x2")
px = [None] + [MultiPoly.var(f"x{i}") for i in (1, 2, 3)]
pa, pb = MultiPoly.var("a"), MultiPoly.var("b")


class TestRowConfiguration:
    def test_single_box(self):
        spec = TransferSpec(WeightModel.ROW_G)
        w = row_configuration_weight(spec, (0,), (1,), X1)
        assert w == Xf(1)

    def test_empty_row_is_one(self):
        for model in (WeightModel.ROW_G, WeightModel.ROW_DUAL_G, WeightModel.COL_G,
                      WeightModel.COL_DUAL_G, WeightModel.J_ROW):
            spec = TransferSpec(model)
            assert row_configuration_weight(spec, (), (), X1) == ONE
            assert row_configuration_weight(spec, (0, 0, 0), (0, 0, 0), X1) == ONE

    def test_dual_g_single_step(self):
        # the closed skew formula gives x for (2)/(1): one box, one row, one
        # column, one component, so all deformation factors have exponent 0
        spec = TransferSpec(WeightModel.ROW_DUAL_G)
        w = row_configuration_weight(
            spec, row_multiplicities((1,), 2), row_multiplicities((2,), 2), X1
        )
        assert w == X1

    def test_inadmissible_configuration_is_zero(self):
        spec = TransferSpec(WeightModel.ROW_G)
        assert row_configuration_weight(spec, (0, 2), (0, 0), X1).is_zero()


class TestTransferElement:
    def test_skew_strip_element(self):
        spec = TransferSpec(WeightModel.ROW_G)
        e = transfer_element(spec, (3, 2, 2, 1), (4, 3, 2, 1), X1)
        assert e == Xf(1) ** 2 * Bf(1) ** 2

    def test_at_zero_is_identity(self):
        zero = RationalFunction.zero()
        for model in (WeightModel.ROW_G, WeightModel.ROW_DUAL_G, WeightModel.COL_G,
                      WeightModel.COL_DUAL_G, WeightModel.J_ROW):
            spec = TransferSpec(model)
            for lam in [(), (1,), (2, 1), (3, 1, 1)]:
                assert transfer_element(spec, lam, lam, zero) == ONE
                for mu in subpartitions(lam):
                    if mu != lam:
                        assert transfer_element(spec, mu, lam, zero).is_zero()

    def test_zero_off_strip(self):
        spec = TransferSpec(WeightModel.ROW_G)
        assert transfer_element(spec, (1,), (2, 2), X1).is_zero()

    def test_site_count_independence(self):
        for model in (WeightModel.ROW_G, WeightModel.ROW_DUAL_G, WeightModel.COL_G,
                      WeightModel.COL_DUAL_G, WeightModel.J_ROW):
            spec = TransferSpec(model)
            nsites = spec.min_sites((3, 2)) + 3
            for mu in subpartitions((3, 2)):
                assert transfer_element(spec, mu, (3, 2), X1) == row_configuration_weight(
                    spec, spec.encode(mu, nsites), spec.encode((3, 2), nsites), X1
                )

    def test_support_conditions(self):
        spec_G = TransferSpec(WeightModel.ROW_G)
        spec_Gc = TransferSpec(WeightModel.COL_G)
        spec_g = TransferSpec(WeightModel.ROW_DUAL_G)
        spec_j = TransferSpec(WeightModel.J_ROW)
        shapes = list(enumerate_partitions(5, 5, 5))
        for lam in shapes:
            for mu in shapes:
                if not transfer_element(spec_G, mu, lam, X1).is_zero():
                    assert is_horizontal_strip(lam, mu)
                if not transfer_element(spec_Gc, mu, lam, X1).is_zero():
                    assert is_horizontal_strip(lam, mu)
                if not transfer_element(spec_g, mu, lam, X1).is_zero():
                    assert contains(lam, mu)
                if not transfer_element(spec_j, mu, lam, X1).is_zero():
                    assert is_vertical_strip(lam, mu)

    @pytest.mark.parametrize("model", list(WeightModel))
    def test_steps_are_the_support(self, model):
        # a chain steps from lam to exactly the mu whose factor is nonzero
        spec = TransferSpec(model)
        shapes = list(enumerate_partitions(4, 4, 4))
        for lam in shapes:
            support = set()
            for mu in shapes:
                # a dual tile set's factor is <lam|T*(x)|mu>
                bra, ket = (lam, mu) if spec.dual else (mu, lam)
                if not transfer_element(spec, bra, ket, X1).is_zero():
                    support.add(mu)
            assert support == set(spec.steps(lam)), (model, lam)


class TestWorkedExamples:
    def test_groth_row_one_box(self):
        assert groth_poly((1,), 2) == Xf(1) * Bf(2) + Xf(2)

    def test_groth_row_two_boxes(self):
        expected = Xf(1) ** 2 * Bf(2) + Xf(1) * Xf(2) * Bf(2) + Xf(2) ** 2
        assert groth_poly((2,), 2) == expected

    def test_groth_row_column_shape(self):
        assert groth_poly((1, 1), 2) == Xf(1) * Xf(2)

    def test_groth_column_model(self):
        expected = Xf(1) ** 2 * Bf(2) + Xf(1) * Xf(2) * Bf(2) + Xf(2) ** 2
        assert groth_poly((2,), 2, encoding="column") == expected
        assert groth_poly((1, 1), 2, encoding="column") == Xf(1) * Xf(2)

    def test_dual_groth_examples(self):
        assert dual_groth_poly((1,), 2) == px[1] + px[2]
        assert dual_groth_poly((2,), 2) == (
            px[1] ** 2 + px[1] * px[2] + px[2] ** 2 + pa * (px[1] + px[2])
        )
        assert dual_groth_poly((1, 1), 2) == px[1] * px[2] + pb * (px[1] + px[2])

    def test_dual_groth_column_model(self):
        # the column route produces x1*(x1+a) + x1*x2 + x2*(x2+a) termwise
        assert dual_groth_poly((2,), 2, encoding="column") == dual_groth_poly((2,), 2)
        assert dual_groth_poly((1, 1), 2, encoding="column") == dual_groth_poly((1, 1), 2)

    def test_j_examples(self):
        assert j_poly((1,), 1) == px[1]
        assert j_poly((), 3) == MultiPoly.const(1)
        assert j_poly((1, 1), 2) == px[1] ** 2 + px[1] * px[2] + px[2] ** 2 + px[1] + px[2]

    def test_j_is_specialized_dual_of_conjugate(self):
        for lam in enumerate_partitions(5, 5, 5):
            g = dual_groth_poly(conjugate(lam), 2).substitute(
                {"a": ONE, "b": RationalFunction.zero()}
            )
            assert g == as_rf(j_poly(lam, 2))

    @pytest.mark.parametrize("route", ["direct", "dual"])
    def test_j_is_dual_of_conjugate_at_one_zero(self, route):
        # the paper's definition, with g specialized inside its chain sum
        for lam in enumerate_partitions(5, 5, 5):
            for n in range(4):
                j = j_poly(lam, n, route=route)
                assert j == dual_groth_poly(conjugate(lam), n, alpha=1, beta=0), (lam, n)
                assert not j.variables() & {"a", "b"}, (lam, n)


class TestRoutes:
    def test_dual_route_matches(self):
        assert groth_poly_dual_route((1,), 1) == groth_poly((1,), 1)
        assert groth_poly_dual_route((), 2) == ONE
        assert groth_poly_dual_route((2, 1), 2) == groth_poly((2, 1), 2)

    def test_j_dual_route_matches(self):
        for lam in [(), (1,), (2,), (1, 1), (2, 1)]:
            assert j_poly(lam, 2, route="dual") == j_poly(lam, 2)

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            j_poly((1,), 1, route="sideways")

    @pytest.mark.parametrize("build", [groth_poly, dual_groth_poly])
    def test_unknown_encoding(self, build):
        with pytest.raises(ValueError):
            build((2,), 2, encoding="Row")

    BUILDERS = [
        groth_poly, groth_poly_dual_route, dual_groth_poly, j_poly,
        pytest.param(lambda lam, n, **kw: generalized_poly("G", lam, n, **kw), id="generalized_poly"),
    ]

    @pytest.mark.parametrize("build", BUILDERS)
    def test_negative_nvars(self, build):
        for lam in [(1,), ()]:
            with pytest.raises(ValueError):
                build(lam, -1)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_variables_disagreeing_with_n(self, build):
        for lam, n, variables in [((1,), 3, ["y1"]), ((1,), 1, ["y1", "y2", "y3"]), ((), 0, ["y1"])]:
            with pytest.raises(ValueError):
                build(lam, n, variables=variables)
        assert build((2, 1), 2, variables=["x1", "x2"]) == build((2, 1), 2)


class TestInvariants:
    RANGE = list(enumerate_partitions(5, 5, 5))

    def test_symmetry_under_transpositions(self):
        for lam in self.RANGE:
            for val in (
                groth_poly(lam, 3),
                as_rf(dual_groth_poly(lam, 3)),
                as_rf(j_poly(lam, 3)),
            ):
                for i in (1, 2):
                    swapped = val.rename_vars({f"x{i}": f"x{i+1}", f"x{i+1}": f"x{i}"})
                    assert swapped == val, lam

    def test_stability_at_zero(self):
        zero = RationalFunction.zero()
        for lam in self.RANGE:
            assert groth_poly(lam, 3).substitute({"x3": zero}) == groth_poly(lam, 2)
            assert as_rf(dual_groth_poly(lam, 3)).substitute({"x3": zero}) == as_rf(
                dual_groth_poly(lam, 2)
            )
            assert as_rf(j_poly(lam, 3)).substitute({"x3": zero}) == as_rf(j_poly(lam, 2))

    def test_vanishing(self):
        for lam in self.RANGE:
            for n in (0, 1, 2):
                assert groth_poly(lam, n).is_zero() == (len(lam) > n)
                assert groth_poly(lam, n, encoding="column").is_zero() == (len(lam) > n)
                width = lam[0] if lam else 0
                assert (j_poly(lam, n) == MultiPoly()) == (width > n)

    def test_cross_model_agreement(self):
        for lam in self.RANGE:
            assert groth_poly(lam, 2) == groth_poly(lam, 2, encoding="column"), lam
            assert dual_groth_poly(lam, 2) == dual_groth_poly(lam, 2, encoding="column"), lam


class TestGeneralized:
    def test_one_box(self):
        assert generalized_poly("G", (1,), 1) == X1 / V("z1")

    def test_schur_row(self):
        z1, z2, z3 = V("z1"), V("z2"), V("z3")
        expected = (
            (X1**3 / (z1 * z2 * z3)) * (X2 / z1)
            + (X1**2 / (z1 * z2)) * (X2**2 / (z1 * z3))
            + (X1 / z1) * (X2**3 / (z1 * z2 * z3))
        )
        assert generalized_poly("s_r", (3, 1), 2) == expected

    def test_schur_column(self):
        z1, z2 = V("z1"), V("z2")
        expected = (
            (X1**2 / (z1 * z2)) * (X2 / z1) ** 2
            + (X1**3 / (z1**2 * z2)) * (X2 / z1)
            + (X1 / z2) * (X2 / z1) ** 3
        )
        assert generalized_poly("s_c", (3, 1), 2) == expected

    def test_generalized_groth_three_terms(self):
        z1, z2 = V("z1"), V("z2")
        u1, u2 = X1 / z1, X2 / z1
        expected = (
            (X1**2 / (z1 * z2)) * (ONE - u1) * u2**2
            + (X1**3 / (z1**2 * z2)) * u2
            + (ONE - u1) * (X1 / z2) * u2**3
        )
        assert generalized_poly("G", (3, 1), 2) == expected

    def test_schur_specialization_consistency(self):
        # at z = 1 the generalized Schur reduces to the alpha = beta = 0 limit
        zeros = {"a": RationalFunction.zero(), "b": RationalFunction.zero()}
        for lam in [(1,), (2,), (2, 1)]:
            plain = groth_poly(lam, 2).substitute(zeros)
            assert generalized_poly("s_r", lam, 2, z=[1, 1, 1]) == plain
            assert generalized_poly("s_c", lam, 2, z=[1, 1, 1]) == plain

    def test_unknown_kind(self):
        with pytest.raises(DifferencePropertyViolation):
            generalized_poly("Q", (1,), 1)

    def test_too_few_inhomogeneities(self):
        with pytest.raises(ValueError):
            generalized_poly("G", (2, 2), 2, z=[1])

    def test_nvars_zero(self):
        for kind in ("G", "g", "J", "j", "s_r", "s_c"):
            assert generalized_poly(kind, (), 0) == ONE
            assert generalized_poly(kind, (1,), 0).is_zero()


class TestSkewChains:
    def test_skew_reduces_to_straight(self):
        assert skew_groth_poly((2, 1), (), ["x1", "x2"]) == groth_poly((2, 1), 2)
        assert skew_dual_groth_poly((2, 1), (), ["x1", "x2"]) == as_rf(
            dual_groth_poly((2, 1), 2)
        )

    def test_skew_single_step_matches_element(self):
        spec = TransferSpec(WeightModel.ROW_G)
        assert skew_groth_poly((3, 1), (1,), ["x1"]) == transfer_element(
            spec, (1,), (3, 1), X1
        )

    def test_diagonal_skew(self):
        lam = (2, 1)
        val = skew_groth_poly(lam, lam, ["x1"])
        assert val == Bf(1) ** 2  # two distinct part sizes


class TestReservedPlaceholder:
    """The chain sum builds each element at the placeholder x0 and renames
    it to the step's variable, so a value naming x0 would be renamed too."""

    def test_alpha_naming_x0_is_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            groth_poly((1,), 1, alpha=V("x0"))

    def test_inhomogeneity_naming_x0_is_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            generalized_poly("G", (1,), 1, z=["x0"])

    def test_x0_as_a_variable_is_renamed_correctly(self):
        mapping = {"x1": "x0", "x2": "x1"}
        for lam in ((1,), (2, 1)):
            expected = groth_poly(lam, 2).rename_vars(mapping)
            assert groth_poly(lam, 2, variables=["x0", "x1"]) == expected


def test_chains_deeper_than_the_recursion_limit():
    # a fresh interpreter: the variable table is process-wide and never
    # shrinks, and a thousand new variable names would widen every later key
    script = (
        "from grothpoly.algebra import MultiPoly, as_rf\n"
        "from grothpoly.transfer import dual_groth_poly, groth_poly, j_poly\n"
        "assert groth_poly((), 3000) == as_rf(1)\n"
        "total = sum((MultiPoly.var(f'x{i}') for i in range(1, 1101)), MultiPoly())\n"
        "assert dual_groth_poly((1,), 1100) == total\n"
        "assert j_poly((1,), 1100) == total\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
