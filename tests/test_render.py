"""The renderer against a reference: JSON, plain and LaTeX text of random
polynomials and rational functions must equal what the reference writes.

The reference is the per-term output path kept here: terms sorted by an
explicit graded-lex key over exponent dicts, each monomial's factors sorted
for display, the JSON built as dicts and written by ``json.dumps`` with
``sort_keys``.  A polynomial keeps its JSON text once rendered: the kept
text must be what a fresh render of an equal polynomial writes.  A last
test checks that output does not depend on how many variables the process
has named before.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothpoly import algebra
from grothpoly.algebra import (
    Monomial,
    MultiPoly,
    RationalFunction,
    poly_from_json,
    poly_to_latex,
    poly_to_str,
    rf_to_json,
    rf_to_json_text,
    rf_to_latex,
    rf_to_str,
    var_key,
)

# string order differs from var_key order: x10 < x2, w1 < x1 < y1 < z1, a < x1
NAMES = ["x1", "x2", "x10", "y1", "y2", "z1", "w1", "w3", "a", "b"]

exponent_dicts = st.dictionaries(
    st.sampled_from(NAMES), st.integers(min_value=0, max_value=12), max_size=5
)
coeffs = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
).filter(bool)
polys = st.lists(st.tuples(exponent_dicts, coeffs), max_size=12).map(
    lambda terms: MultiPoly([(Monomial(m), c) for m, c in terms])
)
# zero, constants, single variables and monomials, and the general case
small_polys = st.one_of(
    st.just(MultiPoly()),
    coeffs.map(MultiPoly.const),
    st.sampled_from(NAMES).map(MultiPoly.var),
    st.tuples(exponent_dicts, coeffs).map(lambda t: MultiPoly({Monomial(t[0]): t[1]})),
    polys,
)


def rational(num: MultiPoly, den: MultiPoly) -> RationalFunction:
    """num/den as written, without the gcd: the renderer reads num and den
    only, and a random pair need not be reduced to be rendered."""
    f = RationalFunction.__new__(RationalFunction)
    f.num, f.den = num, den
    return f


rationals = st.tuples(small_polys, st.one_of(st.just(MultiPoly.const(1)), small_polys)).map(
    lambda nd: rational(nd[0], nd[1] or MultiPoly.const(1))
)


# -- reference ------------------------------------------------------------------


def ref_sorted_terms(p: MultiPoly):
    """(exponent pairs in var_key order, coefficient), largest monomial first."""
    terms = [(tuple(sorted(dict(m.exps).items(), key=lambda ve: var_key(ve[0]))), c)
             for m, c in p.items()]
    names = sorted({v for pairs, _ in terms for v, _ in pairs}, key=var_key)

    def key(term):
        d = dict(term[0])
        return sum(d.values()), [d.get(v, 0) for v in names]

    return sorted(terms, key=key, reverse=True)


def ref_display_factors(pairs):
    # parameters a, b print first, like coefficients; series variables after
    return sorted(pairs, key=lambda p: (p[0][0] not in ("a", "b"), var_key(p[0])))


def ref_poly_to_str(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for pairs, c in ref_sorted_terms(p):
        if not pairs:
            body = str(abs(c))
        else:
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in ref_display_factors(pairs))
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ref_rf_to_str(f) -> str:
    if f.is_polynomial():
        return ref_poly_to_str(f.num)
    return f"({ref_poly_to_str(f.num)})/({ref_poly_to_str(f.den)})"


def ref_latex_var(v: str) -> str:
    return {"a": r"\alpha", "b": r"\beta"}.get(v) or f"{v[0]}_{{{v[1:]}}}"


def ref_poly_to_latex(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for pairs, c in ref_sorted_terms(p):
        if not pairs:
            body = str(abs(c))
        else:
            mono = " ".join(
                ref_latex_var(v) if e == 1 else f"{ref_latex_var(v)}^{{{e}}}"
                for v, e in ref_display_factors(pairs)
            )
            body = mono if abs(c) == 1 else f"{abs(c)} {mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ref_rf_to_latex(f) -> str:
    if f.is_polynomial():
        return ref_poly_to_latex(f.num)
    return rf"\frac{{{ref_poly_to_latex(f.num)}}}{{{ref_poly_to_latex(f.den)}}}"


def ref_poly_to_json(p: MultiPoly) -> list:
    return [{"coeff": str(c), "exps": dict(pairs)} for pairs, c in ref_sorted_terms(p)]


def ref_rf_to_json(f) -> dict:
    return {"num": ref_poly_to_json(f.num), "den": ref_poly_to_json(f.den)}


# -- the renderer against the reference ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(rationals)
@example(rational(MultiPoly(), MultiPoly.const(1)))
@example(rational(MultiPoly.const(Fraction(-7, 3)), MultiPoly.const(1)))
@example(rational(MultiPoly.var("x10") - MultiPoly.var("x2"), MultiPoly.var("a") + 2))
def test_json_text_equals_the_reference(f):
    text = rf_to_json_text(f)
    assert text == json.dumps(ref_rf_to_json(f), sort_keys=True)
    assert text == json.dumps(rf_to_json(f), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(rationals)
@example(rational(MultiPoly.var("b") * MultiPoly.var("w1") - 1, MultiPoly.var("x2") ** 3))
def test_plain_and_latex_equal_the_reference(f):
    assert rf_to_str(f) == ref_rf_to_str(f)
    assert rf_to_latex(f) == ref_rf_to_latex(f)


@settings(max_examples=200, deadline=None)
@given(small_polys)
def test_dict_output_and_term_order_equal_the_reference(p):
    f = rational(p, MultiPoly.const(1))
    assert rf_to_json(f) == ref_rf_to_json(f)
    assert poly_to_str(p) == ref_poly_to_str(p)
    assert poly_to_latex(p) == ref_poly_to_latex(p)


# -- the kept JSON text --------------------------------------------------------------


def test_a_polynomial_is_rendered_once():
    f = rational(MultiPoly.var("x10") * 3 - MultiPoly.var("a") ** 2, MultiPoly.var("x2") + Fraction(1, 2))
    with mock.patch.object(algebra, "_terms_text", wraps=algebra._terms_text) as spy:
        first = rf_to_json_text(f)
        assert rf_to_json_text(f) == first
        assert rf_to_json(f) == json.loads(first)
    # the numerator once and the denominator once
    assert spy.call_count == 2


@settings(max_examples=200, deadline=None)
@given(small_polys)
def test_kept_text_is_a_fresh_render_and_reads_back(p):
    kept = algebra._poly_json_text(p)
    assert algebra._poly_json_text(p) is kept
    copy = MultiPoly(dict(p.items()))
    assert getattr(copy, "_json", None) is None
    assert algebra._poly_json_text(copy) == kept
    assert poly_from_json(json.loads(kept)) == p


RENDER_SCRIPT = """
import sys
from grothpoly.algebra import MultiPoly
from grothpoly.cli import main
if sys.argv[1] == "grown":
    for i in range(1, 301):
        MultiPoly.var(f"y{i}")
for fmt in ("json", "plain", "latex"):
    for argv in (["--kind", "G", "--lambda", "2,1", "--nvars", "3"],
                 ["--kind", "g", "--lambda", "1,1", "--nvars", "11"],
                 ["--kind", "G", "--lambda", "2", "--nvars", "2", "--alpha=1/2", "--beta=-1/3"],
                 ["--kind", "s_r", "--lambda", "2,1", "--nvars", "2", "--z", "formal"]):
        assert main(["compute", *argv, "--format", fmt]) == 0
"""


def test_output_does_not_depend_on_the_variables_named_before():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = [
        subprocess.run(
            [sys.executable, "-c", RENDER_SCRIPT, mode], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=600,
        )
        for mode in ("fresh", "grown")
    ]
    assert all(out.returncode == 0 for out in outs), [out.stderr for out in outs]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.count("\n") == 12
