"""Specialization inside the chain sum (alpha, beta substituted once per
vertex weight) against the reference route: the formal polynomial with
alpha, beta substituted into the finished result.  Also: every spelling
of one alpha, beta or inhomogeneity value gives one TransferSpec and one
set of chain-memo entries."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grothpoly.algebra import ALPHA, BETA, RationalFunction, as_rf
from grothpoly.models import WeightModel
from grothpoly.oracles import branch_poly
from grothpoly.partitions import contains, enumerate_partitions
from grothpoly.transfer import (
    TransferSpec,
    chain_memo_stats,
    clear_chain_memo,
    dual_groth_poly,
    generalized_poly,
    groth_poly,
    groth_poly_dual_route,
    j_poly,
    skew_groth_poly,
)

SHAPES = list(enumerate_partitions(4, 4, 4))

ROUTES = {
    "G/row": lambda lam, n, **ab: groth_poly(lam, n, **ab),
    "G/column": lambda lam, n, **ab: groth_poly(lam, n, encoding="column", **ab),
    "G/dual": lambda lam, n, **ab: groth_poly_dual_route(lam, n, **ab),
    "g/row": lambda lam, n, **ab: as_rf(dual_groth_poly(lam, n, **ab)),
    "g/column": lambda lam, n, **ab: as_rf(dual_groth_poly(lam, n, encoding="column", **ab)),
    # j has no alpha or beta: it ignores them, as the CLI does
    "j/direct": lambda lam, n, **ab: as_rf(j_poly(lam, n, route="direct")),
    "j/dual": lambda lam, n, **ab: as_rf(j_poly(lam, n, route="dual")),
}

small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
values = st.one_of(st.none(), st.just(Fraction(0)), small_rationals)


def equals_late(early, formal, alpha, beta) -> bool:
    """early equals formal with alpha, beta substituted afterwards.  The
    substituted numerator and denominator are compared by cross-multiplying:
    reducing their quotient, as RationalFunction.substitute does, spends
    seconds in poly_gcd on G of (4) at three variables."""
    subs = {v: as_rf(x) for v, x in (("a", alpha), ("b", beta)) if x is not None}
    num = formal.num.substitute(subs).as_poly()
    den = formal.den.substitute(subs).as_poly()
    assert not den.is_zero()
    return early.num * den == num * early.den


@settings(max_examples=80, deadline=None)
@given(
    route=st.sampled_from(sorted(ROUTES)),
    lam=st.sampled_from(SHAPES),
    n=st.integers(min_value=0, max_value=3),
    alpha=values,
    beta=values,
    cancel=st.booleans(),
)
def test_early_specialization_equals_late(route, lam, n, alpha, beta, cancel):
    if cancel and alpha is not None:
        # beta = -alpha: (1 + beta x) and (1 - alpha x) cancel in the weights
        beta = -alpha
    build = ROUTES[route]
    assert equals_late(build(lam, n, alpha=alpha, beta=beta), build(lam, n), alpha, beta)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(("G", "g", "j", "J")),
    lam=st.sampled_from(SHAPES),
    n=st.integers(min_value=0, max_value=3),
    alpha=st.one_of(st.just(Fraction(0)), small_rationals),
)
def test_generalized_alpha_inside_equals_after(kind, lam, n, alpha):
    z = [1] * max(len(lam), lam[0] if lam else 0, 1)
    formal = generalized_poly(kind, lam, n, z=z, alpha=ALPHA)
    assert equals_late(generalized_poly(kind, lam, n, z=z, alpha=alpha), formal, alpha, None)


def test_G4_three_variables_specialized_matches_oracle():
    # the shape whose late substitution takes seconds: in reach now
    alpha, beta = Fraction(1, 2), Fraction(-1, 3)
    val = groth_poly((4,), 3, alpha=alpha, beta=beta)
    oracle = branch_poly("G", (4,), 3)
    for point in (
        {"x1": Fraction(1, 3), "x2": Fraction(-2, 5), "x3": Fraction(3, 7)},
        {"x1": Fraction(-5, 2), "x2": Fraction(7, 11), "x3": Fraction(1, 9)},
    ):
        assert val.evaluate(point) == oracle.evaluate({**point, "a": alpha, "b": beta})


# the routes and (alpha, beta) points at which the checks specialize
NEG_AB, NEG_BA = (-ALPHA, -BETA), (-BETA, -ALPHA)
CHECK_POINTS = [
    *((route, point) for route in ("G/row", "G/column", "G/dual") for point in (NEG_AB, NEG_BA)),
    ("g/row", (None, 0)),
    ("g/column", (None, 0)),
]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CHECK_POINTS),
    lam=st.sampled_from(SHAPES),
    n=st.integers(min_value=0, max_value=3),
)
def test_check_points_inside_equal_substituted_after(case, lam, n):
    route, (alpha, beta) = case
    build = ROUTES[route]
    assert equals_late(build(lam, n, alpha=alpha, beta=beta), build(lam, n), alpha, beta)


@settings(max_examples=40, deadline=None)
@given(
    outer=st.sampled_from(SHAPES),
    inner=st.sampled_from(SHAPES),
    n=st.integers(min_value=0, max_value=3),
)
def test_skew_negated_parameters_inside_equal_substituted_after(outer, inner, n):
    if not contains(outer, inner):
        outer, inner = inner, outer
    assume(contains(outer, inner))
    xs = [f"x{i}" for i in range(1, n + 1)]
    early = skew_groth_poly(outer, inner, xs, alpha=-ALPHA, beta=-BETA)
    assert equals_late(early, skew_groth_poly(outer, inner, xs), -ALPHA, -BETA)


def test_spellings_of_one_value_give_one_spec():
    for model in (WeightModel.ROW_G, WeightModel.COL_DUAL_G):
        specs = [
            TransferSpec(model, alpha=v, beta=w)
            for v in (1, Fraction(1), RationalFunction.const(1))
            for w in (0, Fraction(0), RationalFunction.zero())
        ]
        # the formal symbol given as a value is the formal spec itself, and
        # inhomogeneities given as any sequence are one tuple of values
        specs_formal = [TransferSpec(model), TransferSpec(model, alpha=ALPHA, beta=BETA)]
        specs_z = [
            TransferSpec(model, inhomogeneities=zs)
            for zs in ([1, Fraction(2)], (1, 2), (as_rf(1), as_rf(2)))
        ]
        for group in (specs, specs_formal, specs_z):
            assert all(spec == group[0] for spec in group)
            assert len({hash(spec) for spec in group}) == 1
    assert TransferSpec(WeightModel.ROW_G, alpha=-ALPHA) == TransferSpec(
        WeightModel.ROW_G, alpha=as_rf(-1) * ALPHA
    )
    assert TransferSpec(WeightModel.ROW_G, alpha=1) != TransferSpec(WeightModel.ROW_G, beta=1)
    assert TransferSpec(WeightModel.ROW_G, alpha=0) != TransferSpec(WeightModel.ROW_G)
    assert TransferSpec(WeightModel.ROW_G, alpha=BETA) != TransferSpec(WeightModel.ROW_G)


def test_the_formal_symbol_shares_the_formal_memo_entries():
    clear_chain_memo()
    groth_poly((2, 1), 3)
    first = chain_memo_stats()
    groth_poly((2, 1), 3, alpha=ALPHA, beta=BETA)
    second = chain_memo_stats()
    clear_chain_memo()
    assert (second["hits"] - first["hits"], second["misses"] - first["misses"]) == (1, 0)


def test_spellings_of_one_value_share_memo_entries():
    lam, n = (2, 1), 3
    for second, shares in ((Fraction(1), True), (RationalFunction.const(1), True), (2, False)):
        clear_chain_memo()
        groth_poly(lam, n - 1, alpha=1)
        hits = chain_memo_stats()["hits"]
        groth_poly(lam, n, alpha=second)
        assert (chain_memo_stats()["hits"] > hits) is shares, second
    clear_chain_memo()
