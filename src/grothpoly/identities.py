"""Exhaustive finite verification of the model relations: RLL intertwining
for all six (weights, R-matrix) pairs, eigenvector and unitarity properties,
inversion relations between row and column transfer matrices, commutation
relations, and the Cauchy identities.

Every check compares canonical rational functions or exact truncated series;
no floating point and no load-bearing random evaluation anywhere.  Failures
carry a minimal counterexample (the offending labels and both sides).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product

from .algebra import (
    ALPHA,
    Monomial,
    MultiPoly,
    RationalFunction,
    TruncatedSeries,
    rf_to_str,
    poly_to_str,
    series_from_rf,
)
from .factored import ONE as _ONE, ZERO as _ZERO, as_ffrac
from .models import (
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
    row_configuration_weight,
    scan_row,
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


def _cached(fn):
    """fn on labels, memoized as a factored fraction."""
    return functools.cache(lambda *labels: as_ffrac(fn(*labels)))


def _row_scanner(spec: TransferSpec, spectrals):
    """Single-row configuration weight with per-site spectral parameters and
    a shared per-site vertex cache; bottom/top are occupancy tuples."""
    vertex = _cached(lambda i, a, b, c, d: spec.vertex(i, a, b, c, d, spectrals[i]))
    return lambda bottom, top: scan_row(spec, bottom, top, len(spectrals), vertex)


def _first_series_mismatch(lhs: TruncatedSeries, rhs: TruncatedSeries):
    monos = set(lhs.terms) | set(rhs.terms)
    for m in sorted(monos, key=Monomial.key):
        if lhs.coefficient(m) != rhs.coefficient(m):
            return {
                "monomial": repr(m),
                "lhs": poly_to_str(lhs.coefficient(m)),
                "rhs": poly_to_str(rhs.coefficient(m)),
            }
    return None


def laurent_reduce(p: MultiPoly) -> MultiPoly:
    """Normal form modulo the relations z_j * w_j = 1."""
    out: dict = {}
    for m, c in p.terms.items():
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

# the mixed pair's T* tiles sit at (-alpha, -beta)
_NEG_AB = (("a", -FORMAL_ALPHA), ("b", -FORMAL_BETA))


@dataclass(frozen=True)
class _RllPair:
    wx: WeightModel
    wy: WeightModel
    rfam: RMatrixFamily
    x_fermionic: bool
    y_fermionic: bool
    wx_ab: tuple = ()  # alpha, beta of the x-line tiles when not formal


RLL_PAIRS = {
    "row-G": _RllPair(WeightModel.ROW_G, WeightModel.ROW_G, RMatrixFamily.FIVE_VERTEX_R, True, True),
    "row-dual-g": _RllPair(WeightModel.ROW_DUAL_G, WeightModel.ROW_DUAL_G, RMatrixFamily.ROW_DUAL_R, False, False),
    "col-G": _RllPair(WeightModel.COL_G, WeightModel.COL_G, RMatrixFamily.COL_G_R, False, False),
    "col-dual-g": _RllPair(WeightModel.COL_DUAL_G, WeightModel.COL_DUAL_G, RMatrixFamily.COL_DUAL_R, False, False),
    "j": _RllPair(WeightModel.J_ROW, WeightModel.J_ROW, RMatrixFamily.J_R, True, True),
    "mixed": _RllPair(
        WeightModel.ROW_G_DUAL, WeightModel.ROW_DUAL_G, RMatrixFamily.MIXED_R,
        True, False, wx_ab=(-FORMAL_ALPHA, -FORMAL_BETA),
    ),
}


def check_rll(pair: str, aux_max: int = 3, phys_max: int = 4) -> CheckReport:
    """Replay the RLL relation R L(x) L(y) = L(y) L(x) R elementwise: for all
    admissible external labels, the internal sums on both sides agree as
    rational functions in x, y, alpha, beta."""
    cfg = RLL_PAIRS[pair]
    wx = _cached(lambda a, b, c, d: factored_weight(cfg.wx, a, b, c, d, _X, *cfg.wx_ab))
    wy = _cached(lambda a, b, c, d: factored_weight(cfg.wy, a, b, c, d, _Y))
    rmat = _cached(lambda a, b, c, d: factored_entry(cfg.rfam, a, b, c, d, _X, _Y))

    def xline_ok(v):
        return v >= 0 and (not cfg.x_fermionic or v <= 1)

    def yline_ok(v):
        return v >= 0 and (not cfg.y_fermionic or v <= 1)

    xr = (0, 1) if cfg.x_fermionic else tuple(range(aux_max + 1))
    yr = (0, 1) if cfg.y_fermionic else tuple(range(aux_max + 1))

    report = CheckReport(
        name=f"rll/{pair}", parameters={"aux_max": aux_max, "phys_max": phys_max}
    )
    cases = 0
    for a, a2, c, c2, b in product(xr, yr, xr, yr, range(phys_max + 1)):
        d = a + a2 + b - c - c2
        if not 0 <= d <= phys_max:
            continue
        cases += 1
        lhs = _ZERO
        for g in range(a + a2 + 1):
            gy = a + a2 - g
            mid = g + b - c
            if mid < 0 or not xline_ok(g) or not yline_ok(gy):
                continue
            t = rmat(a, a2, gy, g)
            if t.is_zero():
                continue
            t = t * wx(g, b, c, mid)
            if t.is_zero():
                continue
            t = t * wy(gy, mid, c2, d)
            if t.is_zero():
                continue
            if pair == "col-G" and not (c + c2 - b <= g <= a2):
                # the stated internal range for this pair: terms outside it
                # must vanish, which the support conditions guarantee
                report.passed = False
                report.counterexample = {
                    "kind": "internal-range",
                    "labels": {"a": a, "a'": a2, "b": b, "c": c, "c'": c2, "d": d, "g": g},
                    "lhs": rf_to_str(t.to_rf()),
                    "rhs": "0",
                }
                return report
            lhs = lhs + t
        rhs = _ZERO
        for g in range(c + c2 + 1):
            gy = c + c2 - g
            mid = g + d - a
            if mid < 0 or not xline_ok(g) or not yline_ok(gy):
                continue
            t = wy(a2, b, gy, mid)
            if t.is_zero():
                continue
            t = t * wx(a, mid, g, d)
            if t.is_zero():
                continue
            t = t * rmat(g, gy, c2, c)
            if t.is_zero():
                continue
            if pair == "col-G" and not (a + a2 - d <= g <= c2):
                report.passed = False
                report.counterexample = {
                    "kind": "internal-range",
                    "labels": {"a": a, "a'": a2, "b": b, "c": c, "c'": c2, "d": d, "g": g},
                    "lhs": rf_to_str(t.to_rf()),
                    "rhs": "0",
                }
                return report
            rhs = rhs + t
        if not (lhs - rhs).is_zero():
            report.passed = False
            report.counterexample = {
                "labels": {"a": a, "a'": a2, "b": b, "c": c, "c'": c2, "d": d},
                "lhs": rf_to_str(lhs.to_rf()),
                "rhs": rf_to_str(rhs.to_rf()),
            }
            return report
    report.parameters["cases"] = cases
    return report


# ---------------------------------------------------------------------------
# eigenvector and unitarity properties
# ---------------------------------------------------------------------------


def check_eigenvector(family, max_label: int = 5) -> CheckReport:
    """The all-states covector is a left eigenvector with eigenvalue 1: for
    fixed outgoing labels, the entries over all incoming labels sum to 1."""
    fam = RMatrixFamily(family) if not isinstance(family, RMatrixFamily) else family
    if fam is RMatrixFamily.MIXED_R:
        raise ValueError("the mixed R-matrix is covered by its own RLL check")
    top_f, bot_f = rmatrix_line_types(fam)
    out_tops = (0, 1) if bot_f else tuple(range(max_label + 1))
    out_bots = (0, 1) if top_f else tuple(range(max_label + 1))

    entry = _cached(lambda a, b, c, d: factored_entry(fam, a, b, c, d, _X, _Y))
    report = CheckReport(name=f"eigenvector/{fam.value}", parameters={"max_label": max_label})
    for ot, ob in product(out_tops, out_bots):
        total = _ZERO
        for a in (0, 1) if top_f else range(ot + ob + 1):
            bb = ot + ob - a
            if bb < 0 or (bot_f and bb > 1):
                continue
            total = total + entry(a, bb, ot, ob)
        if not (total - _ONE).is_zero():
            report.passed = False
            report.counterexample = {
                "labels": {"out_top": ot, "out_bottom": ob},
                "lhs": rf_to_str(total.to_rf()),
                "rhs": "1",
            }
            return report
    report.parameters["cases"] = len(out_tops) * len(out_bots)
    return report


def check_unitary(max_label: int = 4) -> CheckReport:
    """Composing the column-model R-matrix with arguments swapped gives the
    identity on all label pairs."""
    fam = RMatrixFamily.COL_G_R

    f1 = _cached(lambda a, b, c, d: factored_entry(fam, a, b, c, d, _X, _Y))
    f2 = _cached(lambda a, b, c, d: factored_entry(fam, a, b, c, d, _Y, _X))
    report = CheckReport(name="unitary/col-G-R", parameters={"max_label": max_label})
    rng = range(max_label + 1)
    cases = 0
    for a, a2, bt, bb in product(rng, rng, rng, rng):
        if a + a2 != bt + bb:
            continue
        cases += 1
        total = _ZERO
        for t in range(a + a2 + 1):
            u = a + a2 - t
            term = f1(a, a2, t, u)
            if term.is_zero():
                continue
            term = term * f2(t, u, bt, bb)
            if not term.is_zero():
                total = total + term
        expected = _ONE if (bt, bb) == (a, a2) else _ZERO
        if not (total - expected).is_zero():
            report.passed = False
            report.counterexample = {
                "labels": {"in_top": a, "in_bottom": a2, "out_top": bt, "out_bottom": bb},
                "lhs": rf_to_str(total.to_rf()),
                "rhs": "1" if (bt, bb) == (a, a2) else "0",
            }
            return report
    report.parameters["cases"] = cases
    return report


# ---------------------------------------------------------------------------
# inversion relations
# ---------------------------------------------------------------------------


def _fermionic_mid_range(v_i):
    return range(max(0, v_i - 1), v_i + 2)


def _check_inversion(name, sites, occ_max, first, second) -> CheckReport:
    """The fermionic-row transfer matrix first = (spec, per-site spectral
    parameters) composed with the column transfer matrix second acts as the
    identity on every pair of occupancies up to occ_max."""
    row1 = _row_scanner(*first)
    row2 = _row_scanner(*second)
    report = CheckReport(name=name, parameters={"sites": sites, "occ_max": occ_max})
    occs = _occupancies(sites, occ_max)
    row2_cache: dict = {}
    for v in occs:
        rows1 = {}
        for w in product(*(_fermionic_mid_range(vi) for vi in v)):
            r1 = row1(v, w)
            if not r1.is_zero():
                rows1[w] = r1
        for u in occs:
            total = _ZERO
            for w, r1 in rows1.items():
                r2 = row2_cache.get((w, u))
                if r2 is None:
                    r2 = row2_cache[(w, u)] = row2(w, u)
                if not r2.is_zero():
                    total = total + r1 * r2
            expected = _ONE if u == v else _ZERO
            if not (total - expected).is_zero():
                report.passed = False
                report.counterexample = {
                    "labels": {"bottom": list(v), "top": list(u)},
                    "lhs": rf_to_str(total.to_rf()),
                    "rhs": "1" if u == v else "0",
                }
                return report
    report.parameters["cases"] = len(occs) ** 2
    return report


def _inhomogeneities(sites: int, with_z: bool):
    if with_z:
        return [as_ffrac(f"z{j}") for j in range(1, sites + 1)]
    return [_ONE] * sites


def check_inversion_G(sites: int = 3, occ_max: int = 3, with_z: bool = True) -> CheckReport:
    """Row G-transfer at -x composed with the column G-transfer at the
    reparameterized argument x/(1 + (alpha-beta) x) acts as the identity."""
    zs = _inhomogeneities(sites, with_z)
    return _check_inversion(
        "inversion/groth-" + ("with-z" if with_z else "homogeneous"), sites, occ_max,
        (TransferSpec(WeightModel.ROW_G), [-_X / z for z in zs]),
        # x/(1+(alpha-beta)x) per site with its inhomogeneity z_j folded in
        (TransferSpec(WeightModel.COL_G), [_X / (z + (FORMAL_ALPHA - FORMAL_BETA) * _X) for z in zs]),
    )


def check_inversion_dual(sites: int = 3, occ_max: int = 3, with_z: bool = True) -> CheckReport:
    """Fermionic-row transfer at -x composed with the column dual-g transfer
    specialized to (alpha, beta) = (0, 1) acts as the identity."""
    zs = _inhomogeneities(sites, with_z)
    return _check_inversion(
        "inversion/dual-" + ("with-z" if with_z else "homogeneous"), sites, occ_max,
        (TransferSpec(WeightModel.J_ROW), [-_X / z for z in zs]),
        (TransferSpec(WeightModel.COL_DUAL_G, specialize=(("a", ZERO), ("b", ONE))), [_X / z for z in zs]),
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
    spec = TransferSpec(_COMM_MODELS[kind])
    rowx = _row_scanner(spec, [_X] * sites)
    rowy = _row_scanner(spec, [_Y] * sites)
    report = CheckReport(name=f"commutation/{kind}", parameters={"sites": sites, "occ_max": occ_max})
    occs = _occupancies(sites, occ_max)
    for v, u in product(occs, occs):
        if spec.fermionic:
            wcands = [
                w
                for w in product(*(_fermionic_mid_range(vi) for vi in v))
                if all(abs(w[i] - u[i]) <= 1 for i in range(sites))
            ]
        else:
            bound = sum(u)
            wcands = list(product(range(bound + 1), repeat=sites))
        lhs = _ZERO
        rhs = _ZERO
        for w in wcands:
            t1 = rowx(v, w)
            if not t1.is_zero():
                t2 = rowy(w, u)
                if not t2.is_zero():
                    lhs = lhs + t1 * t2
            s1 = rowy(v, w)
            if not s1.is_zero():
                s2 = rowx(w, u)
                if not s2.is_zero():
                    rhs = rhs + s1 * s2
        if not (lhs - rhs).is_zero():
            report.passed = False
            report.counterexample = {
                "labels": {"bottom": list(v), "top": list(u)},
                "lhs": rf_to_str(lhs.to_rf()),
                "rhs": rf_to_str(rhs.to_rf()),
            }
            return report
    report.parameters["cases"] = len(occs) ** 2
    return report


def _dominates(w, v) -> bool:
    """Right-to-left partial sums of w dominate those of v (v fits under w)."""
    acc = 0
    for i in range(max(len(w), len(v)) - 1, -1, -1):
        acc += (w[i] if i < len(w) else 0) - (v[i] if i < len(v) else 0)
        if acc < 0:
            return False
    return True


def _check_commutation_mixed(sites: int, occ_max: int, degree_bound: int) -> CheckReport:
    D = degree_bound
    nsites = sites + D
    svars = {"x1", "y1"}
    spec_t = TransferSpec(WeightModel.ROW_DUAL_G, sites=nsites)
    spec_T = TransferSpec(
        WeightModel.ROW_G, dual=True, sites=nsites,
        specialize=_NEG_AB,
    )

    def series_of(spec, x):
        cache: dict = {}

        def get(bottom, top):
            if (bottom, top) not in cache:
                w = row_configuration_weight(spec, bottom, top, x)
                cache[(bottom, top)] = None if w.is_zero() else series_from_rf(w, svars, D)
            return cache[(bottom, top)]

        return get

    t_series = series_of(spec_t, _Y)
    T_series = series_of(spec_T, _X)
    one_minus_xy = TruncatedSeries.from_poly(
        MultiPoly.const(1) - MultiPoly.var("x1") * MultiPoly.var("y1"), svars, D
    )
    report = CheckReport(
        name="commutation/mixed",
        parameters={"sites": sites, "occ_max": occ_max, "degree_bound": D},
    )
    occs = _occupancies(sites, occ_max)

    def wcands(u, budget):
        """Occupancies per-site within 1 of u (padded), with the net box
        count over u bounded by the series degree (terms beyond that bound
        start at x-degree above the truncation)."""
        upad = [u[i] if i < len(u) else 0 for i in range(nsites)]
        # largest box deficit still achievable from site i onward
        suffix_deficit = [0] * (nsites + 1)
        for i in range(nsites - 1, -1, -1):
            suffix_deficit[i] = suffix_deficit[i + 1] + (i + 1) * min(upad[i], 1)
        out = []

        def rec(prefix, i, diff):
            if i == nsites:
                if diff <= budget:
                    out.append(tuple(prefix))
                return
            ui = upad[i]
            for wi in range(max(0, ui - 1), ui + 2):
                ndiff = diff + (i + 1) * (wi - ui)
                if ndiff - suffix_deficit[i + 1] > budget:
                    continue
                prefix.append(wi)
                rec(prefix, i + 1, ndiff)
                prefix.pop()

        rec([], 0, 0)
        return out

    zero_series = TruncatedSeries(D)
    for v, u in product(occs, occs):
        lhs = zero_series
        for w in wcands(u, D):
            if not _dominates(w, v):
                continue
            ts = t_series(v, w)
            if ts is None:
                continue
            Ts = T_series(w, u)
            if Ts is None:
                continue
            lhs = lhs + ts * Ts
        lhs = lhs * one_minus_xy
        rhs = zero_series
        for w in wcands(v, D):
            if not _dominates(u, w):
                continue
            Ts = T_series(v, w)
            if Ts is None:
                continue
            ts = t_series(w, u)
            if ts is None:
                continue
            rhs = rhs + Ts * ts
        if lhs != rhs:
            report.passed = False
            report.counterexample = {
                "labels": {"bottom": list(v), "top": list(u)},
                **(_first_series_mismatch(lhs, rhs) or {}),
            }
            return report
    report.parameters["cases"] = len(occs) ** 2
    return report


# ---------------------------------------------------------------------------
# Cauchy identities
# ---------------------------------------------------------------------------


def _vars(prefix: str, n: int):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _geometric_kernel(xs, ys, D) -> TruncatedSeries:
    sv = set(xs) | set(ys)
    out = TruncatedSeries.one(D)
    for xv in xs:
        for yv in ys:
            den = MultiPoly.const(1) - MultiPoly.var(xv) * MultiPoly.var(yv)
            out = out * series_from_rf(RationalFunction(MultiPoly.const(1), den), sv, D)
    return out


def check_cauchy_1(m: int, n: int, degree_bound: int = 4) -> CheckReport:
    """Sum of G at (-alpha,-beta) against dual g equals the product kernel
    1/(1 - x_i y_j), as exact truncated series in Q[alpha, beta]."""
    D = degree_bound
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    lhs = TruncatedSeries(D)
    cases = 0
    for lam in enumerate_partitions(D, m, D):
        G = groth_poly(lam, m, variables=xs).scale_vars({"a": -1, "b": -1})
        g = dual_groth_poly(lam, n, variables=ys)
        lhs = lhs + series_from_rf(G, sv, D) * TruncatedSeries.from_poly(g, sv, D)
        cases += 1
    rhs = _geometric_kernel(xs, ys, D)
    report = CheckReport(
        name="cauchy/product-kernel",
        parameters={"m": m, "n": n, "degree_bound": D, "cases": cases},
    )
    if lhs != rhs:
        report.passed = False
        report.counterexample = _first_series_mismatch(lhs, rhs)
    return report


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
    report = CheckReport(
        name="cauchy/binomial-kernel",
        parameters={"m": m, "n": n, "degree_bound": D, "exact_at_beta_zero": True},
    )

    # exact finite identity at beta = 0
    lhs0 = ZERO
    cases = 0
    for lam in enumerate_partitions(m * n, n, m):
        Gc = groth_poly(conjugate(lam), m, variables=xs, alpha=0, beta=-ALPHA)
        gl = dual_groth_poly(lam, n, variables=ys).scale_vars({"b": 0})
        lhs0 = lhs0 + Gc * RationalFunction(gl, _norm=False)
        cases += 1
    report.parameters["cases"] = cases
    rhs0 = ONE
    for xv in xs:
        for yv in ys:
            rhs0 = rhs0 * (ONE + RationalFunction.var(xv) * RationalFunction.var(yv))
    if lhs0 != rhs0:
        report.passed = False
        report.counterexample = {
            "part": "exact-beta-zero", "lhs": rf_to_str(lhs0), "rhs": rf_to_str(rhs0)
        }
        return report

    # truncated series at formal alpha, beta
    sv = set(xs) | set(ys)
    lhs = TruncatedSeries(D)
    for lam in enumerate_partitions(D, D, m):
        G = (
            groth_poly(conjugate(lam), m, variables=xs)
            .rename_vars({"a": "b", "b": "a"})
            .scale_vars({"a": -1, "b": -1})
        )
        g = dual_groth_poly(lam, n, variables=ys)
        lhs = lhs + series_from_rf(G, sv, D) * TruncatedSeries.from_poly(g, sv, D)
        cases += 1
    report.parameters["cases"] = cases
    binom = MultiPoly.const(1)
    for xv in xs:
        for yv in ys:
            binom = binom * (MultiPoly.const(1) + MultiPoly.var(xv) * MultiPoly.var(yv))
    rhs = TruncatedSeries.from_poly(binom, sv, D)
    if lhs != rhs:
        report.passed = False
        report.counterexample = _first_series_mismatch(lhs, rhs)
    return report


def check_skew_cauchy(lam, mu, m: int = 2, n: int = 2, degree_bound: int = 4) -> CheckReport:
    """Skew version of the product-kernel Cauchy identity for fixed shapes."""
    lam, mu = check_partition(lam), check_partition(mu)
    D = degree_bound
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    width = max(lam[0] if lam else 0, mu[0] if mu else 0) + D
    length = max(len(lam), len(mu)) + D
    lhs = TruncatedSeries(D)
    cases = 0
    for nu in enumerate_partitions(sum(lam) + D, length, width):
        if not (contains(nu, lam) and contains(nu, mu)):
            continue
        cases += 1
        G = skew_groth_poly(nu, lam, xs).scale_vars({"a": -1, "b": -1})
        if G.is_zero():
            continue
        g = skew_dual_groth_poly(nu, mu, ys)
        if g.is_zero():
            continue
        lhs = lhs + series_from_rf(G, sv, D) * series_from_rf(g, sv, D)
    rhs_sum = TruncatedSeries(D)
    for nu in enumerate_partitions(min(sum(lam), sum(mu)), 99, 99):
        if not (contains(lam, nu) and contains(mu, nu)):
            continue
        cases += 1
        G = skew_groth_poly(mu, nu, xs).scale_vars({"a": -1, "b": -1})
        if G.is_zero():
            continue
        g = skew_dual_groth_poly(lam, nu, ys)
        if g.is_zero():
            continue
        rhs_sum = rhs_sum + series_from_rf(G, sv, D) * series_from_rf(g, sv, D)
    rhs = _geometric_kernel(xs, ys, D) * rhs_sum
    report = CheckReport(
        name="cauchy/skew",
        parameters={
            "lam": list(lam), "mu": list(mu), "m": m, "n": n, "degree_bound": D,
            "cases": cases,
        },
    )
    if lhs != rhs:
        report.passed = False
        report.counterexample = _first_series_mismatch(lhs, rhs)
    return report


def check_gen_cauchy(kind: str, m: int, n: int, degree_bound: int = 3) -> CheckReport:
    """Generalised Cauchy identities with column variables z and 1/z: the
    G/g pairing and the J/j pairing both produce the product kernel."""
    D = degree_bound
    xs, ys = _vars("x", m), _vars("y", n)
    sv = set(xs) | set(ys)
    lhs = TruncatedSeries(D)
    if kind == "Gg":
        zcount = m
        lams = [lam for lam in enumerate_partitions(D, m, D)]
    elif kind == "Jj":
        zcount = D
        lams = [lam for lam in enumerate_partitions(D, D, min(m, n))]
    else:
        raise ValueError(f"unknown generalised pairing {kind!r}")
    inv_w = [ONE / RationalFunction.var(f"w{j}") for j in range(1, zcount + 1)]
    inv_z = [ONE / RationalFunction.var(f"z{j}") for j in range(1, zcount + 1)]
    for lam in lams:
        if kind == "Gg":
            first = generalized_poly("G", lam, m, z=inv_w, variables=xs)
            second = generalized_poly("g", lam, n, z=inv_z, variables=ys)
        else:
            first = generalized_poly("J", lam, m, z=inv_w, variables=xs)
            second = generalized_poly("j", lam, n, z=inv_z, variables=ys)
        if first.is_zero() or second.is_zero():
            continue
        lhs = lhs + series_from_rf(first, sv, D) * series_from_rf(second, sv, D)
    lhs = lhs.map_coefficients(laurent_reduce)
    rhs = _geometric_kernel(xs, ys, D)
    report = CheckReport(
        name=f"cauchy/generalized-{kind}",
        parameters={"m": m, "n": n, "degree_bound": D, "cases": len(lams)},
    )
    if lhs != rhs:
        report.passed = False
        report.counterexample = _first_series_mismatch(lhs, rhs)
    return report


def check_G_at_z(lam, m: int) -> CheckReport:
    """Generalised Grothendieck polynomials evaluate to exactly 1 at x = z."""
    lam = check_partition(lam)
    if len(lam) > m:
        raise ValueError(f"need at least {len(lam)} variables for {lam}")
    inv_w = [ONE / RationalFunction.var(f"w{j}") for j in range(1, m + 1)]
    zs = _vars("z", m)
    val = generalized_poly("G", lam, m, z=inv_w, variables=zs)
    report = CheckReport(
        name="cauchy/G-at-z", parameters={"lam": list(lam), "m": m, "cases": 1}
    )
    ok = val.is_polynomial() and laurent_reduce(val.num) == MultiPoly.const(1)
    if not ok:
        report.passed = False
        report.counterexample = {"lhs": rf_to_str(val), "rhs": "1"}
    return report


def check_dual_sum_rule(m: int, n: int, degree_bound: int = 3) -> CheckReport:
    """Summing generalised dual polynomials over all shapes of bounded length
    gives the product kernel 1/(1 - z_i y_j)."""
    D = degree_bound
    ys = _vars("y", n)
    sv = set(ys)
    inv_z = [ONE / RationalFunction.var(f"z{j}") for j in range(1, m + 1)]
    lhs = TruncatedSeries(D)
    cases = 0
    for lam in enumerate_partitions(m * D, m, D):
        g = generalized_poly("g", lam, n, z=inv_z, variables=ys)
        if not g.is_zero():
            lhs = lhs + series_from_rf(g, sv, D)
        cases += 1
    rhs = TruncatedSeries.one(D)
    for i in range(1, m + 1):
        for yv in ys:
            den = MultiPoly.const(1) - MultiPoly.var(f"z{i}") * MultiPoly.var(yv)
            rhs = rhs * series_from_rf(RationalFunction(MultiPoly.const(1), den), sv, D)
    report = CheckReport(
        name="cauchy/dual-sum-rule",
        parameters={"m": m, "n": n, "degree_bound": D, "cases": cases},
    )
    if lhs != rhs:
        report.passed = False
        report.counterexample = _first_series_mismatch(lhs, rhs)
    return report


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
