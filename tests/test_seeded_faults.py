"""Seeded faults: every check kind, run on a deliberately broken vertex
weight, R-matrix entry or polynomial, fails and reports its first
counterexample exactly as recorded in data/seeded_faults.json, with the
number of cases it checked.

Weights reach the transfer-matrix checks through transfer.factored_weight,
entries reach the R-matrix checks through identities.factored_entry, and
the Cauchy checks call the constructors imported into identities; each
fault patches one of those names.  The chain memo is emptied around every
test, so no broken value outlives it.
"""

import json
from pathlib import Path

import pytest

from grothpoly import identities, transfer
from grothpoly.factored import ONE
from grothpoly.models import RMatrixFamily, WeightModel
from grothpoly.transfer import clear_chain_memo

EXPECTED = json.loads((Path(__file__).parent / "data" / "seeded_faults.json").read_text())


@pytest.fixture(autouse=True)
def fresh_chain_memo():
    clear_chain_memo()
    yield
    clear_chain_memo()


def _bump_weight(monkeypatch, model, labels):
    """Add 1 to one vertex weight of one model."""
    original = transfer.factored_weight

    def broken(m, a, b, c, d, *rest):
        w = original(m, a, b, c, d, *rest)
        return w + ONE if (m, (a, b, c, d)) == (model, labels) else w

    monkeypatch.setattr(transfer, "factored_weight", broken)


def _double_poly(monkeypatch, name, when):
    """Double the polynomials the named constructor returns when asked
    for arguments accepted by when."""
    original = getattr(identities, name)

    def broken(*args, **kw):
        p = original(*args, **kw)
        return p * 2 if when(*args, **kw) else p

    monkeypatch.setattr(identities, name, broken)


def _unitary(mp):
    original = identities.factored_entry

    def broken(f, a, b, c, d, *rest):
        e = original(f, a, b, c, d, *rest)
        return e + ONE if (f, (a, b, c, d)) == (RMatrixFamily.COL_G_R, (1, 1, 1, 1)) else e

    mp.setattr(identities, "factored_entry", broken)
    return identities.check_unitary(max_label=2)


def _inversion(check, model, with_z):
    def run(mp):
        _bump_weight(mp, model, (1, 0, 0, 1))
        return check(2, 1, with_z=with_z)

    return run


def _commutation(kind, model):
    def run(mp):
        _bump_weight(mp, model, (1, 0, 0, 1))
        return identities.check_commutation(kind, 2, 1)

    return run


def _mixed(mp):
    _bump_weight(mp, WeightModel.ROW_DUAL_G, (1, 0, 0, 1))
    return identities.check_commutation("mixed", 1, 1, degree_bound=3)


def _product_kernel(mp):
    _double_poly(mp, "dual_groth_poly", lambda lam, n, **kw: lam == (1,))
    return identities.check_cauchy_1(1, 1, degree_bound=2)


def _binomial_kernel(mp):
    # only the exact part at beta = 0 passes alpha = 0
    _double_poly(mp, "groth_poly", lambda lam, m, **kw: lam == (1,) and kw.get("alpha") == 0)
    return identities.check_cauchy_2(1, 1)


def _skew(mp):
    _double_poly(mp, "skew_dual_groth_poly", lambda outer, inner, ys: outer == (2,))
    return identities.check_skew_cauchy((1,), (1,), 1, 1, degree_bound=2)


def _generalized(kind, dual_kind):
    def run(mp):
        _double_poly(mp, "generalized_poly", lambda k, lam, n, **kw: (k, lam) == (dual_kind, (1,)))
        return identities.check_gen_cauchy(kind, 1, 1, degree_bound=2)

    return run


def _dual_sum_rule(mp):
    _double_poly(mp, "generalized_poly", lambda k, lam, n, **kw: (k, lam) == ("g", (1,)))
    return identities.check_dual_sum_rule(1, 1, degree_bound=2)


def _G_at_z(mp):
    _double_poly(mp, "generalized_poly", lambda k, lam, n, **kw: k == "G")
    return identities.check_G_at_z((1,), 1)


def _rll_internal_range(mp):
    # every vanishing col-G-R entry that conserves labels becomes 1, so a
    # term outside the stated internal range survives
    original = identities.factored_entry

    def broken(f, a, b, c, d, *rest):
        e = original(f, a, b, c, d, *rest)
        if f is RMatrixFamily.COL_G_R and a + b == c + d and e.is_zero():
            return ONE
        return e

    mp.setattr(identities, "factored_entry", broken)
    return identities.check_rll("col-G", aux_max=1, phys_max=1)


FAULTS = {
    "unitarity": _unitary,
    "inversion/groth-homogeneous": _inversion(identities.check_inversion_G, WeightModel.ROW_G, False),
    "inversion/groth-with-z": _inversion(identities.check_inversion_G, WeightModel.ROW_G, True),
    "inversion/dual-homogeneous": _inversion(identities.check_inversion_dual, WeightModel.J_ROW, False),
    "inversion/dual-with-z": _inversion(identities.check_inversion_dual, WeightModel.J_ROW, True),
    "commutation/TT": _commutation("TT", WeightModel.ROW_G),
    "commutation/tt": _commutation("tt", WeightModel.ROW_DUAL_G),
    "commutation/TtildeTtilde": _commutation("TtildeTtilde", WeightModel.COL_G),
    "commutation/ttildettilde": _commutation("ttildettilde", WeightModel.COL_DUAL_G),
    "commutation/mixed": _mixed,
    "cauchy/product-kernel": _product_kernel,
    "cauchy/binomial-kernel": _binomial_kernel,
    "cauchy/skew": _skew,
    "cauchy/generalized-Gg": _generalized("Gg", "g"),
    "cauchy/generalized-Jj": _generalized("Jj", "j"),
    "cauchy/dual-sum-rule": _dual_sum_rule,
    "cauchy/G-at-z": _G_at_z,
    "rll/col-G-internal-range": _rll_internal_range,
}


def test_every_fault_has_a_recorded_counterexample():
    assert sorted(FAULTS) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_seeded_fault_reports_its_counterexample(name, monkeypatch):
    report = FAULTS[name](monkeypatch)
    assert not report.passed
    assert report.counterexample == EXPECTED[name]
    assert report.parameters["cases"] >= 1
