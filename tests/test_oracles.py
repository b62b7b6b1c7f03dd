import pytest

from grothpoly import factored
from grothpoly.algebra import ALPHA, BETA, MultiPoly, RationalFunction, as_rf
from grothpoly.oracles import _skew_parts, branch_poly, skew_weight
from grothpoly.partitions import (
    enumerate_partitions,
    horizontal_strip_subs,
    outer_row_stat,
    size,
    skew_stats,
    subpartitions,
)
from grothpoly.transfer import clear_chain_memo, dual_groth_poly, groth_poly, j_poly

ONE = RationalFunction.one()
X = RationalFunction.var("x1")


def Xf(x=X):
    return x / (ONE - ALPHA * x)


def Bf(x=X):
    return (ONE + BETA * x) / (ONE - ALPHA * x)


class TestSkewWeights:
    def test_G_two_box_strip(self):
        assert skew_weight("G", (4, 3, 2, 1), (3, 2, 2, 1), X) == Xf() ** 2 * Bf() ** 2

    def test_G_diagonal(self):
        # lam/lam carries one factor per distinct part size
        assert skew_weight("G", (2, 1), (2, 1), X) == Bf() ** 2
        assert skew_weight("G", (3, 3), (3, 3), X) == Bf()

    def test_G_outside_support(self):
        assert skew_weight("G", (2, 2), (1,), X).is_zero()

    def test_g_single_box(self):
        assert skew_weight("g", (2,), (1,), X) == X
        assert skew_weight("g", (1, 1), (1,), X) == X

    def test_g_row(self):
        assert skew_weight("g", (2,), (), X) == X * (X + ALPHA)

    def test_g_column(self):
        assert skew_weight("g", (1, 1), (), X) == BETA * X

    def test_g_outside_support(self):
        assert skew_weight("g", (1,), (2,), X).is_zero()

    def test_j_single_box(self):
        assert skew_weight("j", (1, 1), (1,), X) == X

    def test_j_column(self):
        for h in (1, 2, 3):
            lam = tuple([1] * h)
            assert skew_weight("j", lam, (), X) == X * (ONE + X) ** (h - 1)

    def test_j_outside_support(self):
        assert skew_weight("j", (2,), (), X).is_zero()

    def test_g_transcription_guard(self):
        # re-evaluate the displayed closed form directly from the statistics
        for lam in enumerate_partitions(6, 6, 6):
            for mu in subpartitions(lam):
                r, c, b = skew_stats(lam, mu)
                boxes = size(lam) - size(mu)
                direct = (
                    BETA ** (r - b)
                    * (ALPHA + BETA) ** (boxes - r - c + b)
                    * X**b
                    * (X + ALPHA) ** (c - b)
                )
                assert skew_weight("g", lam, mu, X) == direct

    def test_G_denominator_power_at_most_first_part(self):
        # branch_poly sums every G step over (1 - a*x)**lam_1
        x = MultiPoly.var("x1")
        for lam in enumerate_partitions(8, 8, 8):
            for mu in horizontal_strip_subs(lam):
                assert _skew_parts("G", lam, mu, x)[1] <= (lam[0] if lam else 0), (lam, mu)

    def test_G_exponents_from_stats(self):
        lam, mu = (5, 3, 1), (4, 2)
        boxes = size(lam) - size(mu)
        assert skew_weight("G", lam, mu, X) == Xf() ** boxes * Bf() ** outer_row_stat(lam, mu)


class TestBranching:
    def test_G_two_boxes(self):
        def F(i):
            x = RationalFunction.var(f"x{i}")
            return x / (ONE - ALPHA * x)

        def B(i):
            x = RationalFunction.var(f"x{i}")
            return (ONE + BETA * x) / (ONE - ALPHA * x)

        expected = F(1) ** 2 * B(2) + F(1) * F(2) * B(2) + F(2) ** 2
        assert branch_poly("G", (2,), 2) == expected

    def test_g_two_boxes(self):
        x1, x2, a = MultiPoly.var("x1"), MultiPoly.var("x2"), MultiPoly.var("a")
        assert branch_poly("g", (2,), 2) == as_rf(
            x1**2 + x1 * x2 + x2**2 + a * (x1 + x2)
        )

    def test_g_column_route_reading(self):
        # the column-model decomposition x1(x1+a) + x1 x2 + x2(x2+a)
        x1, x2 = RationalFunction.var("x1"), RationalFunction.var("x2")
        assert branch_poly("g", (2,), 2) == x1 * (x1 + ALPHA) + x1 * x2 + x2 * (x2 + ALPHA)

    def test_empty_cases(self):
        assert branch_poly("G", (), 0) == ONE
        assert branch_poly("g", (2,), 0).is_zero()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            branch_poly("Q", (1,), 1)

    @pytest.mark.parametrize("kind", ["G", "g", "j"])
    def test_negative_nvars(self, kind):
        for lam in [(1,), ()]:
            with pytest.raises(ValueError):
                branch_poly(kind, lam, -1)


class TestOracleLatticeEquivalence:
    def test_small_range(self):
        for lam in enumerate_partitions(5, 5, 5):
            for n in (1, 2, 3):
                assert branch_poly("G", lam, n) == groth_poly(lam, n), (lam, n)
                assert branch_poly("g", lam, n) == as_rf(dual_groth_poly(lam, n)), (lam, n)
                assert branch_poly("j", lam, n) == as_rf(j_poly(lam, n)), (lam, n)

    def test_a_fault_in_the_factored_sum_shows(self, monkeypatch):
        # the oracle shares no code with factored: a lift that drops one
        # atom power must make some lattice value differ from the oracle's
        lift = factored._lift

        def drop_one(num, powers, target):
            have = dict(powers)
            for i in sorted(target):
                if target[i] > have.get(i, 0):
                    return lift(num, powers, {**target, i: target[i] - 1})
            return lift(num, powers, target)

        monkeypatch.setattr(factored, "_lift", drop_one)
        clear_chain_memo()
        try:
            differ = [
                (lam, n)
                for lam in enumerate_partitions(4, 4, 4)
                for n in (1, 2, 3)
                if groth_poly(lam, n) != branch_poly("G", lam, n)
            ]
        finally:
            clear_chain_memo()  # no value summed by the faulty lift outlives the test
        assert differ
