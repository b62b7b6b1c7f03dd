"""Exhaustive finite verification of the model relations: RLL intertwining
for all six (weights, R-matrix) pairs, eigenvector and unitarity properties,
inversion relations between row and column transfer matrices, commutation
relations, and the Cauchy identities.

Every check compares canonical rational functions or exact truncated series;
no floating point and no load-bearing random evaluation anywhere.  Every
check yields its comparisons to _run, which counts them, compares each
through _mismatch and reports the first mismatch in one counterexample
format (the offending labels and both sides); matrix products go through
_compose, and the Cauchy sums through _series_sum.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from itertools import product

from .algebra import (
    ALPHA,
    BETA,
    Monomial,
    MultiPoly,
    RationalFunction,
    TruncatedSeries,
    as_rf,
    rf_to_str,
    poly_to_str,
    series_from_rf,
)
from .factored import ONE as _ONE, ZERO as _ZERO, FFrac, as_ffrac, product_of
from .models import (
    FERMIONIC_MODELS,
    FORMAL_ALPHA,
    FORMAL_BETA,
    RMatrixFamily,
    WeightModel,
    factored_entry,
    factored_weight,
    rmatrix_line_types,
)
from .partitions import check_partition, conjugate, contains, enumerate_partitions
from .transfer import (
    TransferSpec,
    dual_groth_poly,
    generalized_poly,
    groth_poly,
    row_scanner,
    skew_dual_groth_poly,
    skew_groth_poly,
)

ONE = RationalFunction.one()
ZERO = RationalFunction.zero()
_X = as_ffrac("x1")
_Y = as_ffrac("y1")


@dataclass
class CheckReport:
    """Outcome of one finite verification; failed checks carry the labels
    and both sides of the first mismatch."""

    name: str
    parameters: dict = field(default_factory=dict)
    passed: bool = True
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "params": self.parameters,
            "counterexample": self.counterexample,
        }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _occupancies(sites: int, occ_max: int):
    return list(product(range(occ_max + 1), repeat=sites))


def _mismatch(lhs, rhs) -> dict | None:
    """None when the two sides (factored fractions, rational functions or
    truncated series) agree, else the counterexample: both sides, and for
    series the first monomial in canonical order whose coefficients differ."""
    if isinstance(lhs, FFrac):
        if (lhs - rhs).is_zero():
            return None
        lhs, rhs = lhs.to_rf(), rhs.to_rf()
    elif lhs == rhs:
        return None
    if isinstance(lhs, TruncatedSeries):
        m = min((lhs - rhs).monomials(), key=Monomial.key)
        left, right = lhs.coefficient(m), rhs.coefficient(m)
        return {"monomial": repr(m), "lhs": poly_to_str(left), "rhs": poly_to_str(right)}
    return {"lhs": rf_to_str(lhs), "rhs": rf_to_str(rhs)}


def _run(name: str, params: dict, comparisons, cases: int | None = None) -> CheckReport:
    """Compare each (where, lhs, rhs) of comparisons, stopping at the first
    mismatch, and report: failed with {**where, **mismatch} there, and with
    params["cases"] set either way to the comparisons made, or to cases
    when the check counts its own (the Cauchy checks count shapes)."""
    made, counterexample = 0, None
    for where, lhs, rhs in comparisons:
        made += 1
        cex = _mismatch(lhs, rhs)
        if cex:
            counterexample = {**where, **cex}
            break
    params["cases"] = made if cases is None else cases
    return CheckReport(name, params, counterexample is None, counterexample)


def _row(entry, v, cands):
    """The nonzero entries of row v of a matrix, as (w, entry(v, w)) pairs
    in the order of cands."""
    return [(w, e) for w in cands if not (e := entry(v, w)).is_zero()]


def _compose(firsts, second, u, total):
    """total plus entry u of a row times a matrix: the sum of value * second(w, u)
    over the row's nonzero (w, value) pairs in order, skipping zero seconds."""
    for w, value in firsts:
        s = second(w, u)
        if not s.is_zero():
            total = total + value * s
    return total


def _pairs(occs, sides):
    """The comparisons lhs, rhs = sides(v)(u) on every pair of occupancies,
    bottom v outermost so that sides(v) builds v's rows once."""
    for v in occs:
        at = sides(v)
        for u in occs:
            yield ({"labels": {"bottom": list(v), "top": list(u)}}, *at(u))


def laurent_reduce(p: MultiPoly) -> MultiPoly:
    """Normal form modulo the relations z_j * w_j = 1."""
    out: dict = {}
    for m, c in p.items():
        d = dict(m.exps)
        for v in list(d):
            if v[0] == "z":
                wv = "w" + v[1:]
                k = min(d.get(v, 0), d.get(wv, 0))
                if k:
                    d[v] -= k
                    d[wv] -= k
        nm = Monomial(d)
        out[nm] = out.get(nm, 0) + c
    return MultiPoly(out)


# ---------------------------------------------------------------------------
# RLL relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RllPair:
    wx: WeightModel
    wy: WeightModel
    rfam: RMatrixFamily
    wx_ab: tuple = ()  # alpha, beta of the x-line tiles when not formal


RLL_PAIRS = {
    "row-G": _RllPair(WeightModel.ROW_G, WeightModel.ROW_G, RMatrixFamily.FIVE_VERTEX_R),
    "row-dual-g": _RllPair(WeightModel.ROW_DUAL_G, WeightModel.ROW_DUAL_G, RMatrixFamily.ROW_DUAL_R),
    "col-G": _RllPair(WeightModel.COL_G, WeightModel.COL_G, RMatrixFamily.COL_G_R),
    "col-dual-g": _RllPair(WeightModel.COL_DUAL_G, WeightModel.COL_DUAL_G, RMatrixFamily.COL_DUAL_R),
    "j": _RllPair(WeightModel.J_ROW, WeightModel.J_ROW, RMatrixFamily.J_R),
    "mixed": _RllPair(
        WeightModel.ROW_G_DUAL, WeightModel.ROW_DUAL_G, RMatrixFamily.MIXED_R,
        wx_ab=(-FORMAL_ALPHA, -FORMAL_BETA),
    ),
}


def check_rll(pair: str, aux_max: int = 3, phys_max: int = 4) -> CheckReport:
    """Replay the RLL relation R L(x) L(y) = L(y) L(x) R elementwise: for all
    admissible external labels, the internal sums on both sides agree as
    rational functions in x, y, alpha, beta."""
    if pair not in RLL_PAIRS:
        raise ValueError(f"unknown RLL pair {pair!r}")
    cfg = RLL_PAIRS[pair]
    wx = functools.cache(lambda a, b, c, d: factored_weight(cfg.wx, a, b, c, d, _X, *cfg.wx_ab))
    wy = functools.cache(lambda a, b, c, d: factored_weight(cfg.wy, a, b, c, d, _Y))
    rmat = functools.cache(lambda a, b, c, d: factored_entry(cfg.rfam, a, b, c, d, _X, _Y))

    # a fermionic auxiliary line carries 0 or 1, a bosonic one any count
    x_fermionic, y_fermionic = cfg.wx in FERMIONIC_MODELS, cfg.wy in FERMIONIC_MODELS
    xr = (0, 1) if x_fermionic else tuple(range(aux_max + 1))
    yr = (0, 1) if y_fermionic else tuple(range(aux_max + 1))

    def comparisons():
        for a, a2, c, c2, b in product(xr, yr, xr, yr, range(phys_max + 1)):
            d = a + a2 + b - c - c2
            if not 0 <= d <= phys_max:
                continue
            labels = {"a": a, "a'": a2, "b": b, "c": c, "c'": c2, "d": d}
            # each side sums over the internal x-line label g, with y-line
            # label lines - g and internal physical label g + shift; lo <= g
            # <= hi is the side's stated internal range
            sides = []
            for lines, shift, lo, hi, factors in (
                (a + a2, b - c, c + c2 - b, a2, lambda g, gy, mid: (
                    (rmat, (a, a2, gy, g)), (wx, (g, b, c, mid)), (wy, (gy, mid, c2, d)))),
                (c + c2, d - a, a + a2 - d, c2, lambda g, gy, mid: (
                    (wy, (a2, b, gy, mid)), (wx, (a, mid, g, d)), (rmat, (g, gy, c2, c)))),
            ):
                total = _ZERO
                for g in range(lines + 1):
                    gy, mid = lines - g, g + shift
                    if mid < 0 or (x_fermionic and g > 1) or (y_fermionic and gy > 1):
                        continue
                    t = product_of(fn(*labels) for fn, labels in factors(g, gy, mid))
                    if t.is_zero():
                        continue
                    if pair == "col-G" and not lo <= g <= hi:
                        # terms outside the stated internal range for this
                        # pair must vanish, which the support conditions
                        # guarantee; t is a nonzero product, so this fails
                        yield {"kind": "internal-range", "labels": {**labels, "g": g}}, t, _ZERO
                    total = total + t
                sides.append(total)
            yield ({"labels": labels}, *sides)

    return _run(f"rll/{pair}", {"aux_max": aux_max, "phys_max": phys_max}, comparisons())


# ---------------------------------------------------------------------------
# eigenvector and unitarity properties
# ---------------------------------------------------------------------------


def check_eigenvector(family, max_label: int = 5) -> CheckReport:
    """The all-states covector is a left eigenvector with eigenvalue 1: for
    fixed outgoing labels, the entries over all incoming labels sum to 1."""
    fam = RMatrixFamily(family)
    if fam is RMatrixFamily.MIXED_R:
        raise ValueError("the mixed R-matrix is covered by its own RLL check")
    top_f, bot_f = rmatrix_line_types(fam)
    out_tops = (0, 1) if bot_f else tuple(range(max_label + 1))
    out_bots = (0, 1) if top_f else tuple(range(max_label + 1))

    def comparisons():
        for ot, ob in product(out_tops, out_bots):
            total = _ZERO
            for a in (0, 1) if top_f else range(ot + ob + 1):
                bb = ot + ob - a
                if bb < 0 or (bot_f and bb > 1):
                    continue
                total = total + factored_entry(fam, a, bb, ot, ob, _X, _Y)
            yield {"labels": {"out_top": ot, "out_bottom": ob}}, total, _ONE

    return _run(f"eigenvector/{fam.value}", {"max_label": max_label}, comparisons())


def check_unitary(max_label: int = 4) -> CheckReport:
    """Composing the column-model R-matrix with arguments swapped gives the
    identity on all label pairs."""
    fam = RMatrixFamily.COL_G_R

    # entries indexed by (top, bottom) label pairs in and out
    f2 = functools.cache(lambda w, u: factored_entry(fam, *w, *u, _Y, _X))
    rng = range(max_label + 1)

    def comparisons():
        for v in product(rng, rng):
            n = sum(v)
            cands = [(t, n - t) for t in range(n + 1)]
            firsts = _row(lambda v, w: factored_entry(fam, *v, *w, _X, _Y), v, cands)
            for u in product(rng, rng):
                if sum(u) == n:
                    labels = {"in_top": v[0], "in_bottom": v[1], "out_top": u[0], "out_bottom": u[1]}
                    yield {"labels": labels}, _compose(firsts, f2, u, _ZERO), _ONE if u == v else _ZERO

    return _run("unitary/col-G-R", {"max_label": max_label}, comparisons())


# ---------------------------------------------------------------------------
# inversion relations
# ---------------------------------------------------------------------------


def _fermionic_mids(v):
    """Every occupancy a fermionic row can reach from v: within 1 per site."""
    return list(product(*(range(max(0, vi - 1), vi + 2) for vi in v)))


def _check_inversion(kind, sites, occ_max, with_z, row_model, col_spec, col_x) -> CheckReport:
    """The fermionic-row transfer matrix of row_model at -x composed with the
    column transfer matrix col_spec at col_x(z) acts as the identity on
    every pair of occupancies up to occ_max, where z is the site's
    inhomogeneity z_j (1 unless with_z)."""
    zs = [as_ffrac(f"z{j}") for j in range(1, sites + 1)] if with_z else [_ONE] * sites
    row1 = row_scanner(TransferSpec(row_model), [-_X / z for z in zs])
    row2 = row_scanner(col_spec, [col_x(z) for z in zs])

    def sides(v):
        firsts = _row(row1, v, _fermionic_mids(v))
        return lambda u: (_compose(firsts, row2, u, _ZERO), _ONE if u == v else _ZERO)

    name = f"inversion/{kind}-" + ("with-z" if with_z else "homogeneous")
    return _run(name, {"sites": sites, "occ_max": occ_max}, _pairs(_occupancies(sites, occ_max), sides))


def check_inversion_G(sites: int = 3, occ_max: int = 3, with_z: bool = True) -> CheckReport:
    """Row G-transfer at -x composed with the column G-transfer at the
    reparameterized argument x/(1 + (alpha-beta) x) acts as the identity."""
    return _check_inversion(
        "groth", sites, occ_max, with_z, WeightModel.ROW_G, TransferSpec(WeightModel.COL_G),
        # x/(1+(alpha-beta)x) per site with its inhomogeneity z_j folded in
        lambda z: _X / (z + (FORMAL_ALPHA - FORMAL_BETA) * _X),
    )


def check_inversion_dual(sites: int = 3, occ_max: int = 3, with_z: bool = True) -> CheckReport:
    """Fermionic-row transfer at -x composed with the column dual-g transfer
    specialized to (alpha, beta) = (0, 1) acts as the identity."""
    return _check_inversion(
        "dual", sites, occ_max, with_z, WeightModel.J_ROW,
        TransferSpec(WeightModel.COL_DUAL_G, alpha=0, beta=1), lambda z: _X / z,
    )


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------

_COMM_MODELS = {
    "TT": WeightModel.ROW_G,
    "tt": WeightModel.ROW_DUAL_G,
    "TtildeTtilde": WeightModel.COL_G,
    "ttildettilde": WeightModel.COL_DUAL_G,
}


def check_commutation(kind: str, sites: int = 2, occ_max: int = 2, degree_bound: int = 6) -> CheckReport:
    """Transfer matrices with different spectral parameters commute; the
    mixed pair satisfies t(y) T*(x) (1 - x y) = T*(x) t(y).

    The four same-model relations are exact finite identities on the
    truncated occupancy space.  The mixed relation involves an infinite
    intermediate sum (a geometric series in xy), so it is verified as an
    exact truncated-series identity at the given degree bound.
    """
    if kind == "mixed":
        return _check_commutation_mixed(sites, occ_max, degree_bound)
    if kind not in _COMM_MODELS:
        raise ValueError(f"unknown commutation relation {kind!r}")
    spec = TransferSpec(_COMM_MODELS[kind])
    rowx = row_scanner(spec, [_X] * sites)
    rowy = row_scanner(spec, [_Y] * sites)
    # a bosonic row into u starts at 0 on the right, so every suffix sum of
    # its bottom w is at most u's: no part of w exceeds u's total
    boxes = list(product(range(sites * occ_max + 1), repeat=sites))

    def sides(v):
        mids = _fermionic_mids(v) if spec.fermionic else boxes
        xs, ys = _row(rowx, v, mids), _row(rowy, v, mids)
        return lambda u: (_compose(xs, rowy, u, _ZERO), _compose(ys, rowx, u, _ZERO))

    params = {"sites": sites, "occ_max": occ_max}
    return _run(f"commutation/{kind}", params, _pairs(_occupancies(sites, occ_max), sides))


def _near(u, nsites: int, budget: int) -> list:
    """Occupancies w of nsites sites, per site within 1 of u (padded), whose
    net box count over u is at most budget (terms beyond that bound start
    at x-degree above the truncation), in lexicographic order."""
    level = [((), 0)]
    for i in range(nsites):
        ui = u[i] if i < len(u) else 0
        # past the end of u the count only grows: drop a prefix over budget
        level = [
            (prefix + (wi,), ndiff)
            for prefix, diff in level
            for wi in range(max(0, ui - 1), ui + 2)
            if (ndiff := diff + (i + 1) * (wi - ui)) <= budget or i < len(u)
        ]
    return [w for w, diff in level if diff <= budget]


def _check_commutation_mixed(sites: int, occ_max: int, degree_bound: int) -> CheckReport:
    D = degree_bound
    nsites = sites + D
    svars = {"x1", "y1"}
    # the T* tiles sit at (-alpha, -beta)
    spec_t = TransferSpec(WeightModel.ROW_DUAL_G)
    spec_T = TransferSpec(WeightModel.ROW_G_DUAL, alpha=-ALPHA, beta=-BETA)
    zero = TruncatedSeries(D)

    def series_of(spec, x):
        row = row_scanner(spec, [x] * nsites)

        def get(bottom, top):
            w = row(bottom, top)
            return zero if w.is_zero() else series_from_rf(w.to_rf(), svars, D)

        return functools.cache(get)

    # the t row is bosonic from boundary 0, so its scan alone is 0 where the
    # top's suffix sums fall below the bottom's
    t_series, T_series = series_of(spec_t, _Y), series_of(spec_T, _X)

    occs = _occupancies(sites, occ_max)
    near = {u: _near(u, nsites, D) for u in occs}
    # lhs: t(y) times the columns of T*(x), built once per top u; rhs:
    # T*(x) into the w near v
    cols = {u: _row(lambda u, w: T_series(w, u), u, near[u]) for u in occs}
    one_minus_xy = TruncatedSeries.from_poly(
        MultiPoly.const(1) - MultiPoly.var("x1") * MultiPoly.var("y1"), svars, D
    )

    def sides(v):
        Ts = _row(T_series, v, near[v])
        return lambda u: (
            _compose(cols[u], lambda w, v: t_series(v, w), v, zero) * one_minus_xy,
            _compose(Ts, t_series, u, zero),
        )

    params = {"sites": sites, "occ_max": occ_max, "degree_bound": D}
    return _run("commutation/mixed", params, _pairs(occs, sides))


# ---------------------------------------------------------------------------
# Cauchy identities
# ---------------------------------------------------------------------------


def _vars(prefix: str, n: int):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _geometric_kernel(xs, ys, sv, D) -> TruncatedSeries:
    """The product kernel, prod 1/(1 - x y) over x in xs and y in ys, as a
    series in the variables sv truncated at degree D: one expansion of
    1 over the product of the denominators."""
    den = functools.reduce(operator.mul, (
        MultiPoly.const(1) - MultiPoly.var(xv) * MultiPoly.var(yv) for xv in xs for yv in ys
    ))
    return series_from_rf(RationalFunction(MultiPoly.const(1), den), sv, D)


def _series_sum(terms, sv, D) -> TruncatedSeries:
    """The sum over terms, each a pair of factors (or one factor), of their
    product as series in the variables sv truncated at degree D; a factor
    is a rational function or a polynomial, and a term with a zero factor
    adds nothing."""
    total = TruncatedSeries(D)
    for factors in terms:
        if not any(f.is_zero() for f in factors):
            series = (
                series_from_rf(f, sv, D) if isinstance(f, RationalFunction)
                else TruncatedSeries.from_poly(f, sv, D)
                for f in factors
            )
            total = total + functools.reduce(operator.mul, series)
    return total


def check_cauchy_1(m: int, n: int, degree_bound: int = 4) -> CheckReport:
    """Sum of G at (-alpha,-beta) against dual g equals the product kernel
    1/(1 - x_i y_j), as exact truncated series in Q[alpha, beta]."""
    D = degree_bound
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    lams = list(enumerate_partitions(D, m, D))
    lhs = _series_sum(
        (
            (groth_poly(lam, m, variables=xs, alpha=-ALPHA, beta=-BETA),
             dual_groth_poly(lam, n, variables=ys))
            for lam in lams
        ),
        sv, D,
    )
    comparison = ({}, lhs, _geometric_kernel(xs, ys, sv, D))
    return _run("cauchy/product-kernel", {"m": m, "n": n, "degree_bound": D}, [comparison], len(lams))


def check_cauchy_2(m: int, n: int, degree_bound: int | None = None) -> CheckReport:
    """Sum of G at (-beta,-alpha) of the conjugate against dual g equals the
    binomial kernel prod (1 + x_i y_j).

    The sum over partitions is infinite for formal beta (dual polynomials do
    not vanish for long shapes), so two sound finite forms are verified: the
    exact rational identity at beta = 0, where the sum genuinely terminates,
    and the truncated-series identity at formal alpha, beta.
    """
    D = degree_bound if degree_bound is not None else 2 * m * n + 1
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    binom = MultiPoly.const(1)
    for xv in xs:
        for yv in ys:
            binom = binom * (MultiPoly.const(1) + MultiPoly.var(xv) * MultiPoly.var(yv))
    exact_lams = list(enumerate_partitions(m * n, n, m))
    lams = list(enumerate_partitions(D, D, m))

    def comparisons():
        # exact finite identity at beta = 0
        lhs0 = ZERO
        for lam in exact_lams:
            Gc = groth_poly(conjugate(lam), m, variables=xs, alpha=0, beta=-ALPHA)
            gl = dual_groth_poly(lam, n, variables=ys, beta=0)
            lhs0 = lhs0 + Gc * gl
        yield {"part": "exact-beta-zero"}, lhs0, as_rf(binom)
        # truncated series at formal alpha, beta
        lhs = _series_sum(
            (
                (groth_poly(conjugate(lam), m, variables=xs, alpha=-BETA, beta=-ALPHA),
                 dual_groth_poly(lam, n, variables=ys))
                for lam in lams
            ),
            sv, D,
        )
        yield {}, lhs, TruncatedSeries.from_poly(binom, sv, D)

    params = {"m": m, "n": n, "degree_bound": D, "exact_at_beta_zero": True}
    return _run("cauchy/binomial-kernel", params, comparisons(), len(exact_lams) + len(lams))


def check_skew_cauchy(lam, mu, m: int = 2, n: int = 2, degree_bound: int = 4) -> CheckReport:
    """Skew version of the product-kernel Cauchy identity for fixed shapes."""
    lam, mu = check_partition(lam), check_partition(mu)
    D = degree_bound
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    width = max(lam[0] if lam else 0, mu[0] if mu else 0) + D
    length = max(len(lam), len(mu)) + D
    above = [
        nu for nu in enumerate_partitions(sum(lam) + D, length, width)
        if contains(nu, lam) and contains(nu, mu)
    ]
    below = [
        nu for nu in enumerate_partitions(
            min(sum(lam), sum(mu)), min(len(lam), len(mu)),
            min(lam[0] if lam else 0, mu[0] if mu else 0),
        )
        if contains(lam, nu) and contains(mu, nu)
    ]

    def pairing(skews):
        """The (G(x), g(y)) pairs of ((G outer, inner), (g outer, inner))
        shapes; g is built only where G is nonzero."""
        for G_shapes, g_shapes in skews:
            G = skew_groth_poly(*G_shapes, xs, alpha=-ALPHA, beta=-BETA)
            if not G.is_zero():
                yield G, skew_dual_groth_poly(*g_shapes, ys)

    lhs = _series_sum(pairing(((nu, lam), (nu, mu)) for nu in above), sv, D)
    rhs_sum = _series_sum(pairing(((mu, nu), (lam, nu)) for nu in below), sv, D)
    comparison = ({}, lhs, _geometric_kernel(xs, ys, sv, D) * rhs_sum)
    params = {"lam": list(lam), "mu": list(mu), "m": m, "n": n, "degree_bound": D}
    return _run("cauchy/skew", params, [comparison], len(above) + len(below))


def check_gen_cauchy(kind: str, m: int, n: int, degree_bound: int = 3) -> CheckReport:
    """Generalised Cauchy identities with column variables z and 1/z: the
    G/g pairing and the J/j pairing both produce the product kernel."""
    D = degree_bound
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    if kind == "Gg":
        zcount = m
        lams = list(enumerate_partitions(D, m, D))
    elif kind == "Jj":
        zcount = D
        lams = list(enumerate_partitions(D, D, min(m, n)))
    else:
        raise ValueError(f"unknown generalised pairing {kind!r}")
    inv_w = [ONE / RationalFunction.var(f"w{j}") for j in range(1, zcount + 1)]
    inv_z = [ONE / RationalFunction.var(f"z{j}") for j in range(1, zcount + 1)]
    # kind names the pairing: G against g, or J against j
    lhs = _series_sum(
        (
            (generalized_poly(kind[0], lam, m, z=inv_w, variables=xs),
             generalized_poly(kind[1], lam, n, z=inv_z, variables=ys))
            for lam in lams
        ),
        sv, D,
    )
    # z and w are never series variables: reduce every coefficient at once
    lhs = TruncatedSeries.from_poly(laurent_reduce(lhs.poly), sv, D)
    comparison = ({}, lhs, _geometric_kernel(xs, ys, sv, D))
    return _run(f"cauchy/generalized-{kind}", {"m": m, "n": n, "degree_bound": D}, [comparison], len(lams))


def check_G_at_z(lam, m: int) -> CheckReport:
    """Generalised Grothendieck polynomials evaluate to exactly 1 at x = z."""
    lam = check_partition(lam)
    if len(lam) > m:
        raise ValueError(f"need at least {len(lam)} variables for {lam}")
    inv_w = [ONE / RationalFunction.var(f"w{j}") for j in range(1, m + 1)]
    zs = _vars("z", m)
    val = generalized_poly("G", lam, m, z=inv_w, variables=zs)
    # equal to 1 modulo z_j * w_j = 1; a counterexample shows val unreduced
    ok = val.is_polynomial() and laurent_reduce(val.num) == MultiPoly.const(1)
    return _run("cauchy/G-at-z", {"lam": list(lam), "m": m}, [({}, ONE if ok else val, ONE)])


def check_dual_sum_rule(m: int, n: int, degree_bound: int = 3) -> CheckReport:
    """Summing generalised dual polynomials over all shapes of bounded length
    gives the product kernel 1/(1 - z_i y_j)."""
    D = degree_bound
    ys = _vars("y", n)
    sv = set(ys)
    inv_z = [ONE / RationalFunction.var(f"z{j}") for j in range(1, m + 1)]
    lams = list(enumerate_partitions(m * D, m, D))
    lhs = _series_sum(((generalized_poly("g", lam, n, z=inv_z, variables=ys),) for lam in lams), sv, D)
    comparison = ({}, lhs, _geometric_kernel(_vars("z", m), ys, sv, D))
    return _run("cauchy/dual-sum-rule", {"m": m, "n": n, "degree_bound": D}, [comparison], len(lams))


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def run_suite(
    suite: str,
    *,
    aux_max: int = 3,
    phys_max: int = 4,
    sites: int = 3,
    occ_max: int = 3,
    max_label: int = 5,
    degree_bound: int = 4,
) -> list[CheckReport]:
    """Run one named suite (or 'all') at the given bounds."""
    reports: list[CheckReport] = []
    if suite in ("rll", "all"):
        for pair in RLL_PAIRS:
            reports.append(check_rll(pair, aux_max=aux_max, phys_max=phys_max))
    if suite in ("eigenvector", "all"):
        for fam in (
            RMatrixFamily.FIVE_VERTEX_R,
            RMatrixFamily.ROW_DUAL_R,
            RMatrixFamily.COL_G_R,
            RMatrixFamily.COL_DUAL_R,
        ):
            reports.append(check_eigenvector(fam, max_label=max_label))
    if suite in ("unitarity", "all"):
        reports.append(check_unitary(max_label=max_label))
    if suite in ("inversion", "all"):
        reports.append(check_inversion_G(sites, occ_max, with_z=False))
        reports.append(check_inversion_G(sites, occ_max, with_z=True))
        reports.append(check_inversion_dual(sites, occ_max, with_z=False))
        reports.append(check_inversion_dual(sites, occ_max, with_z=True))
    if suite in ("commutation", "all"):
        # bosonic intermediate sums grow as (total occupancy)^sites, so this
        # suite stays at two sites and occupancy 2 unless asked for less
        comm_sites, comm_occ = min(sites, 2), min(occ_max, 2)
        for kind in ("TT", "tt", "TtildeTtilde", "ttildettilde", "mixed"):
            reports.append(check_commutation(kind, comm_sites, comm_occ))
    if suite in ("cauchy", "all"):
        reports.append(check_cauchy_1(2, 2, degree_bound=degree_bound))
        reports.append(check_cauchy_2(2, 2))
        reports.append(check_skew_cauchy((1,), (1,), 2, 2, degree_bound=degree_bound))
        reports.append(check_gen_cauchy("Gg", 1, 1, degree_bound=3))
        reports.append(check_gen_cauchy("Jj", 1, 1, degree_bound=3))
        reports.append(check_dual_sum_rule(2, 1, degree_bound=3))
        for lam in enumerate_partitions(4, 3, 3):
            reports.append(check_G_at_z(lam, 3))
    if not reports:
        raise ValueError(f"unknown suite {suite!r}")
    return reports


SUITES = ("rll", "eigenvector", "unitarity", "inversion", "commutation", "cauchy", "all")
