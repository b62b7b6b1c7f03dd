"""Packed monomial keys: an exponent above the slot limit raises on every
way in and never carries into the next variable's slot, and term dicts of
all-int polynomials are left out of cyclic garbage collection."""

import gc

import pytest

from grothpoly import transfer
from grothpoly.algebra import MAX_EXPONENT, ExponentOverflow, Monomial, MultiPoly
from grothpoly.factored import as_ffrac
from grothpoly.transfer import dual_groth_poly, groth_poly, groth_poly_dual_route, j_poly

x1, x2, a = MultiPoly.var("x1"), MultiPoly.var("x2"), MultiPoly.var("a")
TOP = MultiPoly.var("x1", MAX_EXPONENT)


# -- the exponent guard -----------------------------------------------------------


def test_the_largest_exponent_fits_next_to_another_variable():
    p = TOP * x2 * a
    assert dict(p.items()) == {Monomial({"x1": MAX_EXPONENT, "x2": 1, "a": 1}): 1}
    assert p.degree_in("x1") == MAX_EXPONENT and p.degree_in("x2") == 1
    assert issubclass(ExponentOverflow, ValueError)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Monomial({"x1": MAX_EXPONENT + 1}),
        # 2**16 + 1 would carry past the guard bit into the next slot
        lambda: Monomial({"x1": (1 << 16) + 1}),
        lambda: Monomial([("x1", MAX_EXPONENT), ("x1", 1)]),
        lambda: MultiPoly.var("x2", MAX_EXPONENT + 1),
    ],
)
def test_constructor_rejects_an_exponent_above_the_limit(make):
    with pytest.raises(ExponentOverflow):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: TOP * x1,
        lambda: (TOP + x2) * (x1 + 1),
        lambda: TOP.mul_monomial(Monomial({"x1": 1})),
        lambda: (TOP * x2).rename_vars({"x2": "x1"}),
        lambda: (TOP * x2).substitute({"x2": x1}),
    ],
)
def test_product_rejects_an_exponent_above_the_limit(make):
    with pytest.raises(ExponentOverflow):
        make()


def test_power_rejects_an_exponent_above_the_limit():
    half = MultiPoly.var("x1", 1 << 14)
    with pytest.raises(ExponentOverflow):
        half**2
    with pytest.raises(ExponentOverflow):
        (half * x2 + a) ** 2
    below = MultiPoly.var("x1", (1 << 14) - 1) + x2
    assert (below**2).degree_in("x1") == (1 << 15) - 2


# -- term dicts out of the collector --------------------------------------------------


def tracked(p: MultiPoly) -> bool:
    return gc.is_tracked(p.terms)


def test_all_int_results_are_not_tracked():
    p, q = 3 * x1 * x2 - a + 2, x1 - 5 * a * x2
    results = [p + q, p - q, p * q, p**3, (2 * p).quo(2), p.rename_vars({"x1": "x2", "x2": "x1"})]
    assert all(type(c) is int for r in results for c in r.terms.values())
    assert not any(map(tracked, results))
    f, g = as_ffrac(p), as_ffrac(x1 - a * x2) / as_ffrac(1 - a * x1)
    for r in (f + g, f * g, f - g, (f * g) / g, g.rename_vars({"x1": "x3"})):
        assert not tracked(r.num)


def test_chain_memo_numerators_are_not_tracked():
    transfer.clear_chain_memo()
    for lam in ((2, 1), (3, 1), (2, 2), (3, 2, 1)):
        for n in (2, 3, 4):
            groth_poly(lam, n)
            groth_poly(lam, n, encoding="column")
            groth_poly_dual_route(lam, n)
            dual_groth_poly(lam, n)
            j_poly(lam, n, route="dual")
    values = [value for value, _ in transfer._MEMO.values()]
    assert len(values) > 100
    assert not any(tracked(v.num) for v in values)
