from itertools import product

import pytest

from grothpoly import identities
from grothpoly.algebra import RationalFunction
from grothpoly.factored import as_ffrac
from grothpoly.identities import (
    RLL_PAIRS,
    CheckReport,
    check_G_at_z,
    check_cauchy_1,
    check_cauchy_2,
    check_commutation,
    check_eigenvector,
    check_gen_cauchy,
    check_inversion_G,
    check_inversion_dual,
    check_rll,
    check_skew_cauchy,
    check_unitary,
    check_dual_sum_rule,
    laurent_reduce,
    run_suite,
)
from grothpoly.models import RMatrixFamily, WeightModel, vertex_weight
from grothpoly.algebra import ALPHA, MultiPoly
from grothpoly.partitions import conjugate, contains, enumerate_partitions
from grothpoly.transfer import groth_poly


class TestRll:
    @pytest.mark.parametrize("pair", sorted(RLL_PAIRS))
    def test_passes_at_small_bounds(self, pair):
        rep = check_rll(pair, aux_max=2, phys_max=2)
        assert rep.passed, rep.counterexample
        assert rep.parameters["cases"] > 0

    def test_detects_a_broken_table(self, monkeypatch):
        # perturb one weight; the relation must fail with a counterexample
        original = identities.factored_weight

        def broken(model, a, b, c, d, *rest):
            w = original(model, a, b, c, d, *rest)
            if model is WeightModel.ROW_G and (a, b, c, d) == (1, 0, 0, 1):
                return w * as_ffrac(2)
            return w

        monkeypatch.setattr(identities, "factored_weight", broken)
        rep = check_rll("row-G", aux_max=1, phys_max=2)
        assert not rep.passed
        assert rep.counterexample is not None
        assert "lhs" in rep.counterexample and "rhs" in rep.counterexample


class TestRllClosedForms:
    def test_col_G_equal_boundary_case(self):
        # with b = c and d > a both sides collapse to the closed value
        # ((1+bx)/(1-ax)) (x/(1-ax))^(a+c') (y/(1-ay))^(d-a)
        from grothpoly.algebra import ALPHA, BETA
        from grothpoly.models import rmatrix_entry

        X, Y = RationalFunction.var("x1"), RationalFunction.var("y1")
        one = RationalFunction.one()
        Xf, Yf = X / (one - ALPHA * X), Y / (one - ALPHA * Y)
        Bx = (one + BETA * X) / (one - ALPHA * X)

        def lhs(a, a2, b, c, c2, d):
            total = RationalFunction.zero()
            for g in range(a + a2 + 1):
                gy, mid = a + a2 - g, g + b - c
                if mid < 0:
                    continue
                t = rmatrix_entry(RMatrixFamily.COL_G_R, a, a2, gy, g, X, Y)
                t = t * vertex_weight(WeightModel.COL_G, g, b, c, mid, X)
                t = t * vertex_weight(WeightModel.COL_G, gy, mid, c2, d, Y)
                total = total + t
            return total

        def rhs(a, a2, b, c, c2, d):
            total = RationalFunction.zero()
            for g in range(c + c2 + 1):
                gy, mid = c + c2 - g, g + d - a
                if mid < 0:
                    continue
                t = vertex_weight(WeightModel.COL_G, a2, b, gy, mid, Y)
                t = t * vertex_weight(WeightModel.COL_G, a, mid, g, d, X)
                t = t * rmatrix_entry(RMatrixFamily.COL_G_R, g, gy, c2, c, X, Y)
                total = total + t
            return total

        for a, c2, d, b in [(1, 2, 3, 2), (0, 1, 2, 0), (2, 0, 3, 1)]:
            a2, c = c2 + d - a, b
            expected = Bx * Xf ** (a + c2) * Yf ** (d - a)
            assert lhs(a, a2, b, c, c2, d) == expected
            assert rhs(a, a2, b, c, c2, d) == expected


class TestEigenvector:
    @pytest.mark.parametrize(
        "family",
        [
            RMatrixFamily.FIVE_VERTEX_R,
            RMatrixFamily.ROW_DUAL_R,
            RMatrixFamily.COL_G_R,
            RMatrixFamily.COL_DUAL_R,
        ],
    )
    def test_partition_function_is_one(self, family):
        rep = check_eigenvector(family, max_label=3)
        assert rep.passed, rep.counterexample

    def test_mixed_rejected(self):
        with pytest.raises(ValueError):
            check_eigenvector(RMatrixFamily.MIXED_R)

    def test_detects_a_wrong_entry(self, monkeypatch):
        # double one col-G-R entry; the column sum it enters is no longer 1
        original = identities.factored_entry

        def broken(family, a, b, c, d, *rest):
            e = original(family, a, b, c, d, *rest)
            if family is RMatrixFamily.COL_G_R and (a, b, c, d) == (1, 1, 1, 1):
                return e * as_ffrac(2)
            return e

        monkeypatch.setattr(identities, "factored_entry", broken)
        rep = check_eigenvector(RMatrixFamily.COL_G_R, max_label=3)
        assert not rep.passed
        cex = rep.counterexample
        assert cex["labels"] == {"out_top": 1, "out_bottom": 1}
        assert cex["rhs"] == "1" and cex["lhs"] not in ("", "1")
        # outgoing labels run (0, 0), (0, 1), ..., (1, 1): the sixth failed
        assert rep.parameters["cases"] == 6


def test_unitary_small():
    rep = check_unitary(max_label=2)
    assert rep.passed, rep.counterexample


class TestInversion:
    @pytest.mark.parametrize("with_z", [False, True])
    def test_groth(self, with_z):
        rep = check_inversion_G(sites=2, occ_max=2, with_z=with_z)
        assert rep.passed, rep.counterexample

    @pytest.mark.parametrize("with_z", [False, True])
    def test_dual(self, with_z):
        rep = check_inversion_dual(sites=2, occ_max=2, with_z=with_z)
        assert rep.passed, rep.counterexample


class TestCommutation:
    @pytest.mark.parametrize("kind", ["TT", "tt", "TtildeTtilde", "ttildettilde"])
    def test_exact_kinds(self, kind):
        rep = check_commutation(kind, sites=2, occ_max=2)
        assert rep.passed, rep.counterexample

    def test_mixed_series(self):
        rep = check_commutation("mixed", sites=1, occ_max=1, degree_bound=5)
        assert rep.passed, rep.counterexample


class TestCauchy:
    def test_product_kernel_one_one(self):
        rep = check_cauchy_1(1, 1, degree_bound=3)
        assert rep.passed, rep.counterexample

    def test_product_kernel_rectangular(self):
        # m != n exercises the summation range over long shapes
        rep = check_cauchy_1(2, 1, degree_bound=3)
        assert rep.passed, rep.counterexample

    def test_binomial_kernel(self):
        rep = check_cauchy_2(1, 1)
        assert rep.passed, rep.counterexample
        rep = check_cauchy_2(2, 1)
        assert rep.passed, rep.counterexample

    def test_binomial_kernel_substitutes_nothing(self, monkeypatch):
        def refuse(self, bindings):
            raise AssertionError("RationalFunction.substitute called")

        monkeypatch.setattr(RationalFunction, "substitute", refuse)
        rep = check_cauchy_2(2, 2)
        assert rep.passed, rep.counterexample

    def test_binomial_kernel_specializes_early(self):
        # G at alpha = 0, beta = -alpha from the chain sum equals the
        # finished formal G substituted afterwards, for every shape summed
        xs = ["x1", "x2"]
        for lam in enumerate_partitions(4, 2, 2):
            mu = conjugate(lam)
            late = groth_poly(mu, 2, variables=xs).substitute(
                {"a": RationalFunction.const(0), "b": -ALPHA}
            )
            assert groth_poly(mu, 2, variables=xs, alpha=0, beta=-ALPHA) == late, lam

    def test_skew(self):
        rep = check_skew_cauchy((1,), (1,), 2, 2, degree_bound=3)
        assert rep.passed, rep.counterexample
        rep = check_skew_cauchy((2, 1), (1,), 1, 1, degree_bound=3)
        assert rep.passed, rep.counterexample

    @pytest.mark.parametrize(
        "lam, mu", [((), (2,)), ((1,), ()), ((2, 1), (1, 1)), ((3,), (1, 1, 1)), ((2, 2), (3, 1))]
    )
    def test_skew_counts_every_shape_both_contain(self, monkeypatch, lam, mu):
        # with G zero the check sums nothing, but still counts its shapes
        monkeypatch.setattr(identities, "skew_groth_poly", lambda *a, **kw: RationalFunction.zero())
        D = 2
        wide = max(sum(lam), sum(mu)) + D
        below = [
            nu for nu in enumerate_partitions(wide, wide, wide)
            if contains(lam, nu) and contains(mu, nu)
        ]
        above = [
            nu for nu in enumerate_partitions(sum(lam) + D, wide, wide)
            if contains(nu, lam) and contains(nu, mu)
        ]
        rep = check_skew_cauchy(lam, mu, 1, 1, degree_bound=D)
        assert rep.parameters["cases"] == len(above) + len(below)

    def test_generalized_pairs(self):
        for kind in ("Gg", "Jj"):
            rep = check_gen_cauchy(kind, 1, 1, degree_bound=3)
            assert rep.passed, rep.counterexample

    def test_generalized_unknown(self):
        with pytest.raises(ValueError):
            check_gen_cauchy("gG", 1, 1)

    def test_dual_sum_rule(self):
        rep = check_dual_sum_rule(1, 1, degree_bound=3)
        assert rep.passed, rep.counterexample

    def test_G_at_z(self):
        for lam in [(), (1,), (2,), (1, 1), (2, 1)]:
            rep = check_G_at_z(lam, 2 if len(lam) <= 2 else 3)
            assert rep.passed, (lam, rep.counterexample)

    def test_G_at_z_needs_enough_variables(self):
        with pytest.raises(ValueError):
            check_G_at_z((1, 1, 1), 2)


def test_laurent_reduce():
    z, w = MultiPoly.var("z1"), MultiPoly.var("w1")
    assert laurent_reduce(z * w) == MultiPoly.const(1)
    assert laurent_reduce(z**3 * w) == MultiPoly.var("z1", 2)
    assert laurent_reduce(z * MultiPoly.var("w2")) == z * MultiPoly.var("w2")


def test_report_shape():
    rep = CheckReport(name="demo", parameters={"k": 1})
    d = rep.to_dict()
    assert set(d) == {"name", "passed", "params", "counterexample"}
    assert d["passed"] and d["counterexample"] is None


@pytest.mark.parametrize("failing", [None, 1])
def test_run_counts_comparisons_up_to_the_first_mismatch(failing):
    def comparisons():
        for i in range(3):
            if failing is not None and i > failing:
                raise AssertionError("a comparison after the first mismatch was built")
            yield {"labels": {"i": i}}, as_ffrac(2 if i == failing else 1), as_ffrac(1)

    rep = identities._run("demo", {"k": 1}, comparisons())
    if failing is None:
        assert rep.passed and rep.counterexample is None
        assert rep.parameters == {"k": 1, "cases": 3}
    else:
        assert not rep.passed
        assert rep.counterexample == {"labels": {"i": 1}, "lhs": "2", "rhs": "1"}
        assert rep.parameters == {"k": 1, "cases": 2}


def test_run_suite_names():
    reports = run_suite("unitarity", max_label=2)
    assert [r.name for r in reports] == ["unitary/col-G-R"]
    for unknown in (
        lambda: run_suite("nonsense"), lambda: check_rll("nope"), lambda: check_commutation("nope")
    ):
        with pytest.raises(ValueError):
            unknown()


@pytest.mark.parametrize("sites,occ_max,budget", [(1, 2, 0), (2, 2, 4), (2, 1, 6), (3, 2, 3), (0, 0, 5)])
def test_near_equals_the_filtered_product(sites, occ_max, budget):
    # the level-by-level enumeration prunes; the plain product does not
    nsites = sites + budget
    for u in product(range(occ_max + 1), repeat=sites):
        upad = u + (0,) * budget
        brute = [
            w for w in product(*(range(max(0, x - 1), x + 2) for x in upad))
            if sum((i + 1) * (w[i] - upad[i]) for i in range(nsites)) <= budget
        ]
        assert identities._near(u, nsites, budget) == brute, u
