"""The process-wide chain memo of transfer._chain_sum: a value served from
the memo equals the value computed without it, the term budget holds after
every insertion with least-recently-used eviction, a repeated request does
no chain arithmetic, and a chain sum leaves no reference cycles behind."""

import contextlib
import gc
import io
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import factored, transfer
from grothpoly.algebra import MultiPoly, as_rf
from grothpoly.cli import main
from grothpoly.factored import FFrac
from grothpoly.partitions import enumerate_partitions
from grothpoly.transfer import (
    chain_memo_stats,
    clear_chain_memo,
    dual_groth_poly,
    generalized_poly,
    groth_poly,
    groth_poly_dual_route,
    j_poly,
    skew_dual_groth_poly,
    skew_groth_poly,
)

ROUTES = {
    "G/row": lambda lam, n, **ab: groth_poly(lam, n, **ab),
    "G/column": lambda lam, n, **ab: groth_poly(lam, n, encoding="column", **ab),
    "G/dual": lambda lam, n, **ab: groth_poly_dual_route(lam, n, **ab),
    "g/row": lambda lam, n, **ab: as_rf(dual_groth_poly(lam, n, **ab)),
    "g/column": lambda lam, n, **ab: as_rf(dual_groth_poly(lam, n, encoding="column", **ab)),
    "j/direct": lambda lam, n, **ab: as_rf(j_poly(lam, n, route="direct", **ab)),
    "j/dual": lambda lam, n, **ab: as_rf(j_poly(lam, n, route="dual", **ab)),
}

SHAPES = list(enumerate_partitions(5, 5, 5))
values = st.one_of(
    st.none(), st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


def _stored_terms() -> int:
    """The terms charged to the stored values, after checking each charge
    against what the value keeps alive now."""
    for value, terms in transfer._MEMO.values():
        assert terms == max(1, value.terms_held())
    return sum(terms for _, terms in transfer._MEMO.values())


@settings(max_examples=60, deadline=None)
@given(
    route=st.sampled_from(sorted(ROUTES)),
    lam=st.sampled_from(SHAPES),
    n=st.integers(min_value=0, max_value=3),
    alpha=values,
    beta=values,
    budget=st.sampled_from([0, 40, 400, transfer.CHAIN_MEMO_TERMS]),
)
def test_memo_value_equals_cold_value(route, lam, n, alpha, beta, budget):
    compute = ROUTES[route]
    with mock.patch.object(transfer, "CHAIN_MEMO_TERMS", budget):
        # warm the memo with the request's chain predecessors at n - 1
        # variables, then serve it; earlier examples leave entries too
        if n:
            compute(lam, n - 1, alpha=alpha, beta=beta)
        warm = compute(lam, n, alpha=alpha, beta=beta)
        assert _stored_terms() == chain_memo_stats()["stored_terms"]
        if n:  # n = 0 stores nothing, so entries from a larger budget may stay
            assert chain_memo_stats()["stored_terms"] <= budget
    clear_chain_memo()
    assert compute(lam, n, alpha=alpha, beta=beta) == warm


MIX = [
    ["compute", "--kind", "G", "--lambda", "2,1", "--nvars", "3"],
    ["compute", "--kind", "G", "--lambda", "2", "--nvars", "2"],
    ["compute", "--kind", "G", "--lambda", "2,1", "--nvars", "2", "--route", "dual"],
    ["compute", "--kind", "G", "--lambda", "3,1", "--nvars", "3", "--encoding", "column"],
    ["compute", "--kind", "g", "--lambda", "2,1", "--nvars", "3"],
    ["compute", "--kind", "g", "--lambda", "2", "--nvars", "2", "--encoding", "column"],
    ["compute", "--kind", "j", "--lambda", "2,2", "--nvars", "3", "--route", "dual"],
    ["compute", "--kind", "j", "--lambda", "2,1", "--nvars", "2"],
    ["compute", "--kind", "G", "--lambda", "2,1", "--nvars", "3", "--alpha=1/2", "--beta=-1"],
    ["compute", "--kind", "G", "--lambda", "2", "--nvars", "2", "--alpha=1/2", "--beta=-1"],
    ["compute", "--kind", "J", "--lambda", "2,1", "--nvars", "2", "--format", "plain"],
    ["compute", "--kind", "s_c", "--lambda", "2", "--nvars", "2", "--format", "latex"],
]


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("budget", [50, transfer.CHAIN_MEMO_TERMS])
def test_request_order_does_not_change_output(monkeypatch, budget):
    monkeypatch.setattr(transfer, "CHAIN_MEMO_TERMS", budget)
    clear_chain_memo()
    forward = [_stdout(argv) for argv in MIX + MIX]
    clear_chain_memo()
    backward = [_stdout(argv) for argv in reversed(MIX + MIX)][::-1]
    assert forward == backward
    assert forward[: len(MIX)] == forward[len(MIX) :]
    assert chain_memo_stats()["hits"] > 0


def _value(terms: int) -> FFrac:
    return FFrac(sum((MultiPoly.var(f"x{i + 1}") for i in range(terms)), MultiPoly()))


def test_budget_holds_after_every_insertion(monkeypatch):
    monkeypatch.setattr(transfer, "CHAIN_MEMO_TERMS", 60)
    put = transfer._memo_put

    def checked_put(key, value):
        put(key, value)
        assert _stored_terms() == chain_memo_stats()["stored_terms"] <= 60

    monkeypatch.setattr(transfer, "_memo_put", checked_put)
    clear_chain_memo()
    for argv in MIX:
        _stdout(argv)
    stats = chain_memo_stats()
    assert stats["evictions"] > 0 and stats["hits"] > 0


def test_oversized_entry_is_not_stored(monkeypatch):
    monkeypatch.setattr(transfer, "CHAIN_MEMO_TERMS", 5)
    clear_chain_memo()
    transfer._memo_put("small", _value(2))
    transfer._memo_put("big", _value(6))
    assert list(transfer._MEMO) == ["small"]
    assert chain_memo_stats() == {"hits": 0, "misses": 0, "evictions": 0, "stored_terms": 2}


def test_least_recently_used_goes_first(monkeypatch):
    monkeypatch.setattr(transfer, "CHAIN_MEMO_TERMS", 6)
    clear_chain_memo()
    for key in "abc":
        transfer._memo_put(key, _value(2))
    assert transfer._memo_get("a") is not None  # b is now least recently used
    transfer._memo_put("d", _value(2))
    assert list(transfer._MEMO) == ["c", "a", "d"]
    transfer._memo_put("e", _value(3))
    assert list(transfer._MEMO) == ["d", "e"]
    assert chain_memo_stats() == {"hits": 1, "misses": 0, "evictions": 3, "stored_terms": 5}


def test_zero_value_is_charged_one_term(monkeypatch):
    monkeypatch.setattr(transfer, "CHAIN_MEMO_TERMS", 2)
    clear_chain_memo()
    for key in "abc":
        transfer._memo_put(key, factored.ZERO)
    assert list(transfer._MEMO) == ["b", "c"]
    assert chain_memo_stats()["stored_terms"] == 2


@pytest.mark.parametrize(
    "compute",
    [
        lambda: groth_poly((3, 1), 3),
        lambda: groth_poly((2, 1), 3, alpha=Fraction(1, 2), beta=-1),
        lambda: dual_groth_poly((2, 1), 3, encoding="column"),
        lambda: j_poly((2, 1), 3, route="dual"),
        lambda: generalized_poly("G", (2, 1), 2),
    ],
)
def test_repeated_request_is_a_top_level_hit(monkeypatch, compute):
    clear_chain_memo()
    first = compute()
    before = chain_memo_stats()

    def fail(*args):
        raise AssertionError("chain arithmetic or trial division on a repeated request")

    monkeypatch.setattr(FFrac, "__mul__", fail)
    monkeypatch.setattr(factored, "poly_try_div", fail)
    assert compute() == first
    after = chain_memo_stats()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_smaller_request_reuses_a_larger_one():
    clear_chain_memo()
    groth_poly((2, 1), 3)
    before = chain_memo_stats()
    # G of (2, 1) at two variables is value((2, 1), 2) of the call above
    groth_poly((2, 1), 2)
    after = chain_memo_stats()
    assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])


CONSTRUCTORS = [
    lambda: groth_poly((3, 2), 3),
    lambda: groth_poly((3, 2), 3, encoding="column"),
    lambda: groth_poly_dual_route((2, 1), 3),
    lambda: dual_groth_poly((2, 1), 3),
    lambda: j_poly((2, 1), 3, route="direct"),
    lambda: j_poly((2, 1), 3, route="dual"),
    lambda: generalized_poly("g", (2, 1), 2),
    lambda: skew_groth_poly((3, 1), (1,), ["x1", "x2"]),
    lambda: skew_dual_groth_poly((2, 1), (1,), ["x1", "x2"]),
]


@pytest.mark.parametrize("index", range(len(CONSTRUCTORS)))
def test_constructors_leave_no_reference_cycles(index):
    clear_chain_memo()
    gc.collect()
    gc.disable()
    try:
        CONSTRUCTORS[index]()
        assert gc.collect() == 0
    finally:
        gc.enable()
