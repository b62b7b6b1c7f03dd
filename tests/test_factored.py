"""The weight and R-matrix tables written over factored fractions, against
the RationalFunction formulas they replaced (kept here as the reference),
the atom table they build, and the product rules: a product by a unit and
factored.product_of.

The reference evaluates each formula with formal alpha and beta and then
substitutes their values, the way the tables were specialized before;
the factored tables take the values as arguments.  Spectral arguments are
x, -x/z and x/(z + (alpha - beta) x), with the argument built at the same
alpha and beta as the table.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grothpoly import factored
from grothpoly.algebra import (
    ALPHA,
    BETA,
    Monomial,
    MultiPoly,
    RationalFunction,
    monomial_content,
    poly_from_json,
    poly_gcd,
    poly_to_json,
)
from grothpoly.factored import FFrac, as_ffrac
from grothpoly.models import (
    FERMIONIC_MODELS,
    RMatrixFamily,
    UndefinedAtBetaZero,
    WeightModel,
    factored_entry,
    factored_weight,
    rmatrix_line_types,
)
from grothpoly.transfer import generalized_poly

ONE = RationalFunction.one()
ZERO = RationalFunction.zero()


def ref_weight(model, a, b, c, d, x):
    if a + b != c + d:
        return ZERO
    if model is WeightModel.ROW_G:
        if a == b == c == d == 0:
            return ONE
        if a == 1:
            return x / (ONE - ALPHA * x)
        return (ONE + BETA * x) / (ONE - ALPHA * x)
    if model is WeightModel.ROW_G_DUAL:
        return ref_weight(WeightModel.ROW_G, 1 - a, d, 1 - c, b, x)
    if model is WeightModel.ROW_DUAL_G:
        if a == 0:
            return ONE
        if a > d:
            return (ALPHA + BETA) ** (a - d - 1) * (x + ALPHA) * BETA**d
        return BETA ** (a - 1) * x
    if model is WeightModel.COL_G:
        if b < c:
            return ZERO
        w = (x / (ONE - ALPHA * x)) ** a
        if b > c:
            w = w * (ONE + BETA * x) / (ONE - ALPHA * x)
        return w
    if model is WeightModel.COL_DUAL_G:
        if a == 0:
            return ONE
        if a > d:
            return (ALPHA + BETA) ** (a - d - 1) * BETA * (x + ALPHA) ** d
        return x * (x + ALPHA) ** (a - 1)
    if model is WeightModel.J_ROW:
        if a == 0:
            return ONE
        if d == 0:
            return x + ONE
        return x
    assert model is WeightModel.J_ROW_DUAL
    return ref_weight(WeightModel.J_ROW, 1 - a, d, 1 - c, b, x)


def ref_entry(family, a, b, c, d, x, y):
    if a + b != c + d:
        return ZERO
    if family in (RMatrixFamily.FIVE_VERTEX_R, RMatrixFamily.J_R):
        if a == b == c == d == 0 or a == b == c == d == 1:
            return ONE
        if family is RMatrixFamily.FIVE_VERTEX_R:
            cross = ((ONE + BETA * x) * y) / ((ONE + BETA * y) * x)
        else:
            cross = y / x
        return {(0, 1, 0, 1): cross, (1, 0, 1, 0): ONE, (1, 0, 0, 1): ONE - cross}.get(
            (a, b, c, d), ZERO
        )
    if family is RMatrixFamily.ROW_DUAL_R:
        if b > d:
            return ZERO
        if b == d == 0:
            return ONE
        if b == d:
            return y / x
        tail = (ONE - y / x) * (ONE - y / BETA) ** (a - c - 1)
        return tail if b == 0 else tail * (y / BETA)
    if family is RMatrixFamily.COL_G_R:
        if b < d:
            return ZERO
        X, Y = x / (ONE - ALPHA * x), y / (ONE - ALPHA * y)
        pref = (X / Y) ** a
        return pref if b == d else pref * (ONE - X / Y)
    if family is RMatrixFamily.COL_DUAL_R:
        if b < d:
            return ZERO
        if a == c == 0:
            return ONE
        ratio = (y + ALPHA) / (x + ALPHA)
        if a == c:
            return (x / y) * ratio ** (1 - a)
        if a == 0:
            return ONE - x / y
        return (x / y) * (ratio - ONE) * ratio ** (-a)
    assert family is RMatrixFamily.MIXED_R
    if a == b == c == d == 0:
        return ONE
    if d == 1 and a == 1 and b == 0 and c == 0:
        return ONE - x * y
    if a == 0 and c == 0 and b == 1 and d == 1:
        return x * y
    return ONE - x * BETA if a == 1 else x * BETA


# (alpha, beta) as rational functions; None keeps both formal
PARAMS = [
    None,
    (-ALPHA, -BETA),
    (ZERO, ZERO),
    (RationalFunction.const(Fraction(1, 2)), RationalFunction.const(Fraction(-2, 3))),
    (RationalFunction.const(2), ZERO),
    (ZERO, RationalFunction.const(Fraction(3, 4))),
    (RationalFunction.const(Fraction(-1, 2)), RationalFunction.const(Fraction(1, 2))),
    (-BETA, BETA),
]
ARGS = ("x", "-x/z", "x/(z+(a-b)x)")


def spectral(kind, name, alpha, beta):
    x = RationalFunction.var(name)
    z = RationalFunction.var({"x1": "z1", "y1": "z2"}[name])
    if kind == "x":
        return x
    if kind == "-x/z":
        return -x / z
    return x / (z + (alpha - beta) * x)


def compare(factored_fn, ref_fn, labels, names, kind, params):
    alpha, beta = params or (ALPHA, BETA)
    args = [spectral(kind, n, alpha, beta) for n in names]
    formal_args = [spectral(kind, n, ALPHA, BETA) for n in names]
    got = factored_fn(*labels, *map(as_ffrac, args), as_ffrac(alpha), as_ffrac(beta)).to_rf()
    want = ref_fn(*labels, *formal_args)
    if params is not None and not want.is_zero():
        want = want.substitute({"a": alpha, "b": beta})
    assert got == want, (labels, kind, params)


def weight_labels(model, top=5):
    aux = (0, 1) if model in FERMIONIC_MODELS else range(top + 1)
    for a, c, b in product(aux, aux, range(top + 1)):
        if 0 <= a + b - c <= top:
            yield a, b, c, a + b - c


def entry_labels(family, top=5):
    top_f, bot_f = rmatrix_line_types(family)
    ar = (0, 1) if top_f else range(top + 1)
    br = (0, 1) if bot_f else range(top + 1)
    for a, b, c in product(ar, br, br):
        d = a + b - c
        if 0 <= d <= top and (not top_f or d <= 1):
            yield a, b, c, d


@pytest.mark.parametrize("kind", ARGS)
@pytest.mark.parametrize("model", list(WeightModel))
def test_weights_match_reference_at_formal_parameters(model, kind):
    for labels in weight_labels(model):
        compare(lambda *a: factored_weight(model, *a), lambda *a: ref_weight(model, *a),
                labels, ["x1"], kind, None)


@pytest.mark.parametrize("kind", ARGS)
@pytest.mark.parametrize("family", list(RMatrixFamily))
def test_entries_match_reference_at_formal_parameters(family, kind):
    for labels in entry_labels(family):
        compare(lambda *a: factored_entry(family, *a), lambda *a: ref_entry(family, *a),
                labels, ["x1", "y1"], kind, None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weights_and_entries_match_reference_at_specializations(data):
    kind = data.draw(st.sampled_from(ARGS))
    params = data.draw(st.sampled_from(PARAMS[1:]))
    if data.draw(st.booleans()):
        model = data.draw(st.sampled_from(list(WeightModel)))
        labels = data.draw(st.sampled_from(list(weight_labels(model))))
        compare(lambda *a: factored_weight(model, *a), lambda *a: ref_weight(model, *a),
                labels, ["x1"], kind, params)
        return
    family = data.draw(st.sampled_from(list(RMatrixFamily)))
    labels = data.draw(st.sampled_from(list(entry_labels(family))))
    if family is RMatrixFamily.ROW_DUAL_R and params[1] == ZERO:
        with pytest.raises(UndefinedAtBetaZero):
            factored_entry(family, *labels, as_ffrac("x1"), as_ffrac("y1"), *map(as_ffrac, params))
        return
    compare(lambda *a: factored_entry(family, *a), lambda *a: ref_entry(family, *a),
            labels, ["x1", "y1"], kind, params)


def test_atoms_after_a_small_suite_are_primitive_and_provably_irreducible():
    # a fresh interpreter, so the table holds exactly what the suite built
    script = (
        "import json\n"
        "from grothpoly.algebra import poly_to_json\n"
        "from grothpoly.identities import run_suite\n"
        "from grothpoly import factored\n"
        "reps = run_suite('all', aux_max=2, phys_max=2, sites=2, occ_max=1,"
        " max_label=2, degree_bound=2)\n"
        "assert all(r.passed for r in reps)\n"
        "print(json.dumps([poly_to_json(a) for a in factored._ATOMS]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    atoms = [poly_from_json(a) for a in json.loads(out.stdout)]
    assert len(atoms) > 10
    for atom in atoms:
        assert not atom.is_constant(), atom
        # primitive: coprime integer coefficients, positive leading one
        assert all(c.denominator == 1 for c in atom.terms.values()), atom
        assert reduce(gcd, (c.numerator for c in atom.terms.values())) in (1, -1), atom
        assert Fraction(poly_to_json(atom)[0]["coeff"]) > 0, atom
        # no monomial content: a variable is an atom, and divides no other
        assert len(atom.terms) == 1 or not any(
            all(dict(m.exps).get(v, 0) for m, _ in atom.items()) for v in atom.variables()
        ), atom
        # degree 1 in some variable with a constant coefficient or remainder
        assert any(
            atom.degree_in(v) == 1
            and (atom.coeff_in(v, 1).is_constant()
                 or (atom.coeff_in(v, 0).is_constant() and not atom.coeff_in(v, 0).is_zero()))
            for v in atom.variables()
        ), atom


def test_one_coefficient_proves_the_col_dual_r_atom_with_no_gcd(monkeypatch):
    # x1*(1 + a^2 - a*b) + a*z1, met at the argument x/(z + (alpha - beta)*x):
    # no variable has a constant coefficient or remainder, one has a single term
    def no_gcd(*args):
        raise AssertionError("poly_gcd called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "grothpoly" and getattr(module, "poly_gcd", None) is poly_gcd:
            monkeypatch.setattr(module, "poly_gcd", no_gcd)
    x1, z1, a, b = map(MultiPoly.var, ("x1", "z1", "a", "b"))
    assert factored._degree_one(x1 * (1 + a * a - a * b) + a * z1)


# polynomials in z1, a, b: a coefficient and a remainder in x1
free_of_x1 = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.tuples(*[st.integers(0, 2)] * 3)),
    min_size=1, max_size=4,
).map(lambda ts: MultiPoly({Monomial(dict(zip(("z1", "a", "b"), e))): c for c, e in ts}))


@settings(max_examples=200, deadline=None)
@given(free_of_x1, free_of_x1)
def test_one_coefficient_rule_implies_coprime_coefficient_and_remainder(c, r):
    # the proof of _degree_one, against the gcd test it replaced: with no
    # monomial content, a single-term coefficient or remainder in a variable
    # of degree 1 is coprime to the other
    q = c * MultiPoly.var("x1") + r
    assume(q and not monomial_content(q).degree())
    for v in q.variables():
        cv, rv = q.coeff_in(v, 1), q.coeff_in(v, 0)
        if q.degree_in(v) == 1 and 1 in (len(cv.terms), len(rv.terms)):
            assert poly_gcd(cv, rv).is_constant(), (q, v)
            assert factored._degree_one(q), q


def test_non_linear_inhomogeneity_takes_the_gcd_fallback():
    z1, z2 = MultiPoly.var("z1"), MultiPoly.var("z2")
    zs = [z1 * z1 + MultiPoly.const(1), z2 * z2 + MultiPoly.const(2)]
    got = generalized_poly("G", (2, 1), 2, z=zs, alpha=Fraction(1, 2))
    formal = generalized_poly("G", (2, 1), 2, alpha=Fraction(1, 2))
    assert got == formal.substitute({"z1": zs[0], "z2": zs[1]})
    assert any(atom == zs[0] for atom in factored._ATOMS)


def _counted(cls, name):
    """Patch cls.name to count its calls; returns the patcher and the list
    that grows by one per call."""
    calls, real = [], getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    return mock.patch.object(cls, name, counted), calls


@pytest.mark.parametrize("unit", [factored.ONE, FFrac(MultiPoly.const(1))], ids=["shared", "fresh"])
def test_product_by_a_unit_is_a_copy_with_no_polynomial_product(unit):
    x, a, b = (MultiPoly.var(v) for v in "xab")
    f = as_ffrac(x + b) / as_ffrac(MultiPoly.const(1) - a * x)
    assert f.powers
    patch, calls = _counted(MultiPoly, "__mul__")
    with patch:
        got = [unit * f, f * unit, unit * unit]
    assert not calls
    for g, want in zip(got, (f, f, unit)):
        # a copy, never the operand: a chain value reached through a unit
        # step must not be the very object stored for its predecessor
        assert g is not want and g is not unit
        assert (g.num, g.powers) == (want.num, want.powers)


def _product_values():
    x, a, b = (MultiPoly.var(v) for v in "xab")
    one = MultiPoly.const(1)
    return [
        factored.ZERO, factored.ONE, FFrac(one), as_ffrac(2), as_ffrac(Fraction(-1, 3)),
        as_ffrac("x"), as_ffrac(x + b), factored.ONE / as_ffrac(one - a * x),
        as_ffrac(one + b * x) / as_ffrac(x),
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=6))
def test_product_of_is_the_left_to_right_product_and_stops_at_a_zero(picks):
    pool = _product_values()
    values = [pool[i] for i in picks]
    drawn = []

    def recording():
        for v in values:
            drawn.append(v)
            yield v

    patch, calls = _counted(FFrac, "__mul__")
    with patch:
        got = factored.product_of(recording())
    zero = next((i for i, v in enumerate(values) if v.is_zero()), None)
    if zero is None:
        # started at the first value: one product fewer than values
        assert len(drawn) == len(values) and len(calls) == max(len(values) - 1, 0)
        want = reduce(mul, values) if values else factored.ONE
        assert got.to_rf() == want.to_rf()
    else:
        assert drawn == values[: zero + 1] and not calls
        assert got.is_zero()
