"""Single-row transfer-matrix elements and the polynomial constructors built
from them: canonical Grothendieck polynomials (row and column models), their
duals, the weak dual family, and the inhomogeneous generalised variants.

A single row is scanned right to left.  The right boundary label is 0 (or 1
for the dual tile sets); local conservation then determines every left label
as a = c + d - b, and the configuration weight is the product of vertex
weights.  Matrix elements read <mu|T(x)|lam> = row weight with bottom
occupancies encoding mu and top occupancies encoding lam.  The n-variable
polynomials are sums over chains of partitions, empty = mu0 <= mu1 <= ... <=
mun = lam, of products of single-row elements.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

from .algebra import MultiPoly, RationalFunction, as_rf
from .factored import ONE, ZERO, FFrac, as_ffrac
from .models import (
    COLUMN_ENCODED_MODELS,
    DUAL_BOUNDARY_MODELS,
    FERMIONIC_MODELS,
    FORMAL_ALPHA,
    FORMAL_BETA,
    WeightModel,
    factored_weight,
)
from .partitions import (
    check_partition,
    column_multiplicities,
    conjugate,
    horizontal_strip_subs,
    row_multiplicities,
    subpartitions,
    vertical_strip_subs,
)

_DUAL_OF = {WeightModel.ROW_G: WeightModel.ROW_G_DUAL, WeightModel.J_ROW: WeightModel.J_ROW_DUAL}

# The chain memo: the values of _chain_sum, shared by every call in the
# process, least recently used first.  CHAIN_MEMO_TERMS bounds the
# polynomial terms its values keep alive (FFrac.terms_held; a zero value
# counts as one term, so the entry count is bounded too).  At 6,000 terms
# it adds at most 1.7 MB (8.5%) to the peak RSS of a perfbench workload.
# Like the atom table in factored, it takes no lock: one thread at a time.
CHAIN_MEMO_TERMS = 6000
_MEMO: OrderedDict = OrderedDict()  # key -> (value, terms charged)
_MEMO_STATS = dict.fromkeys(("hits", "misses", "evictions", "stored_terms"), 0)


class DifferencePropertyViolation(ValueError):
    """Inhomogeneities requested for a model without the difference property."""


class TooFewInhomogeneities(ValueError):
    """Fewer inhomogeneities given than the shape has vertical lines."""


@dataclass(frozen=True)
class TransferSpec:
    """One transfer matrix: weight family, tile set, site count, and optional
    per-site inhomogeneities and alpha/beta values.  The dual tile set also
    reverses a chain step: its factor is <nxt|T*(x)|prev>."""

    model: WeightModel
    dual: bool = False
    sites: int | None = None
    inhomogeneities: tuple | None = None
    specialize: tuple | None = None  # pairs (var, value) for var in "a", "b"

    def __post_init__(self):
        if self.dual and self.model not in _DUAL_OF:
            raise ValueError(f"{self.model.value} has no dual tile set")
        if {var for var, _ in self.specialize or ()} - {"a", "b"}:
            raise ValueError("only alpha (a) and beta (b) can be specialized")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing the specialized values walks their terms: do it once, as
        # every chain-memo key holds the spec
        return hash((self.model, self.dual, self.sites, self.inhomogeneities, self.specialize))

    @property
    def weight_model(self) -> WeightModel:
        return _DUAL_OF[self.model] if self.dual else self.model

    @property
    def right_boundary(self) -> int:
        return 1 if self.weight_model in DUAL_BOUNDARY_MODELS else 0

    @property
    def fermionic(self) -> bool:
        return self.weight_model in FERMIONIC_MODELS

    def encode(self, lam, nsites):
        if self.model in COLUMN_ENCODED_MODELS:
            return column_multiplicities(lam, nsites)
        return row_multiplicities(lam, nsites)

    def min_sites(self, lam) -> int:
        if self.model in COLUMN_ENCODED_MODELS:
            return len(lam)
        return lam[0] if lam else 0

    @cached_property
    def _values(self):
        """alpha, beta and the inhomogeneities as factored values."""
        ab = {"a": FORMAL_ALPHA, "b": FORMAL_BETA, **dict(self.specialize or ())}
        zs = self.inhomogeneities
        return as_ffrac(ab["a"]), as_ffrac(ab["b"]), None if zs is None else tuple(map(as_ffrac, zs))

    def vertex(self, site: int, a: int, b: int, c: int, d: int, x: FFrac) -> FFrac:
        """Factored vertex weight at one site: spectral parameter x over the
        site's inhomogeneity, alpha and beta passed in as values."""
        alpha, beta, zs = self._values
        if zs is not None:
            x = x / zs[site]
        return factored_weight(self.weight_model, a, b, c, d, x, alpha, beta)


def scan_row(spec: TransferSpec, bottom, top, nsites: int, vertex):
    """Product of the factored weights vertex(site, a, b, c, d) over the
    unique single-row configuration with the given bottom and top
    occupancies, scanned right to left from the spec's boundary label; 0
    when some label leaves the admissible range."""
    fermionic = spec.fermionic
    out = ONE
    c = spec.right_boundary
    for i in range(nsites - 1, -1, -1):
        b = bottom[i] if i < len(bottom) else 0
        d = top[i] if i < len(top) else 0
        a = c + d - b
        if a < 0 or (fermionic and a > 1):
            return ZERO
        w = vertex(i, a, b, c, d)
        if w.is_zero():
            return ZERO
        out = out * w
        c = a
    return out


def row_configuration_weight(spec: TransferSpec, bottom, top, x) -> RationalFunction:
    """Weight of the unique single-row configuration with the given bottom
    and top occupancies; 0 when some label leaves the admissible range."""
    x = as_ffrac(x)
    nsites = max(len(bottom), len(top), spec.sites or 0)
    return scan_row(
        spec, bottom, top, nsites, lambda i, a, b, c, d: spec.vertex(i, a, b, c, d, x)
    ).to_rf()


def transfer_element(spec: TransferSpec, mu, lam, x) -> RationalFunction:
    """Matrix element <mu|T(x)|lam> under the spec's encoding."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    nsites = max(spec.min_sites(mu), spec.min_sites(lam), spec.sites or 0)
    return row_configuration_weight(
        spec, spec.encode(mu, nsites), spec.encode(lam, nsites), x
    )


def chain_memo_stats() -> dict:
    """Counters of the chain memo since the process started or the memo was
    last cleared: lookups that hit and that missed, entries evicted, and
    the terms now stored.  They depend only on the requests served."""
    return dict(_MEMO_STATS)


def clear_chain_memo() -> None:
    """Empty the chain memo and zero its counters."""
    _MEMO.clear()
    for name in _MEMO_STATS:
        _MEMO_STATS[name] = 0


def _memo_get(key):
    got = _MEMO.get(key)
    if got is None:
        _MEMO_STATS["misses"] += 1
        return None
    _MEMO_STATS["hits"] += 1
    _MEMO.move_to_end(key)
    return got[0]


def _memo_put(key, value: FFrac) -> None:
    """Store value under key, or charge it again after its to_rf was
    cached, then evict least recently used entries down to the budget.  A
    value larger than the whole budget is not stored."""
    old = _MEMO.pop(key, None)
    stored = _MEMO_STATS["stored_terms"] - (old[1] if old else 0)
    terms = max(1, value.terms_held())
    if terms <= CHAIN_MEMO_TERMS:
        _MEMO[key] = (value, terms)
        stored += terms
    while stored > CHAIN_MEMO_TERMS:
        stored -= _MEMO.popitem(last=False)[1][1]
        _MEMO_STATS["evictions"] += 1
    _MEMO_STATS["stored_terms"] = stored


def _chain_sum(spec: TransferSpec, steps_fn, lam, variables, inner=()):
    """Sum over chains inner = mu0 <= ... <= mun = lam of products of
    single-row elements, the k-th step at spectral parameter variables[k-1].

    value(mu, k), the sum over the chains that reach mu in k steps, is a
    whole answer to a smaller request: it depends only on the spec, the
    step function, inner, the site count, mu and variables[:k].  A value is
    looked up in the call's own dict, then in the process-wide chain memo
    under that key, and computed only when both miss; a repeated request is
    a hit at the top and does no chain arithmetic.

    A computed value sums below * element over the steps into mu.  Every
    element is built once per call, at a shared spectral parameter x0,
    from the call's vertex weights (keyed by site only when there are
    inhomogeneities), and renamed to each step's variable; alpha and beta
    enter the weight tables as values, never substituted.  Weights,
    elements and values are factored fractions over the process-wide atom
    table, so additions and products align exponents instead of running
    polynomial gcds, and a value means the same in every later call.
    """
    x0 = as_ffrac("x0")
    site_key = spec.inhomogeneities is not None
    vcache: dict = {}

    def vertex(i, a, b, c, d):
        key = (i if site_key else 0, a, b, c, d)
        got = vcache.get(key)
        if got is None:
            got = vcache[key] = spec.vertex(i, a, b, c, d, x0)
        return got

    nsites = max(spec.min_sites(lam), spec.sites or 0)
    at_x0: dict = {}

    def elem(prev, mu, k):
        e = at_x0.get((prev, mu))
        if e is None:
            bottom, top = (mu, prev) if spec.dual else (prev, mu)
            e = at_x0[(prev, mu)] = scan_row(
                spec, spec.encode(bottom, nsites), spec.encode(top, nsites), nsites, vertex
            )
        return e.rename_vars({"x0": variables[k - 1]})

    base = (spec, steps_fn, inner, nsites)
    prefixes = [tuple(variables[:k]) for k in range(len(variables) + 1)]
    memo: dict = {}

    def value(mu, k):
        if k == 0:
            return ONE if mu == inner else ZERO
        got = memo.get((mu, k))
        if got is not None:
            return got
        key = (base, mu, prefixes[k])
        got = _memo_get(key)
        if got is None:
            got = ZERO
            for prev in steps_fn(mu):
                below = value(prev, k - 1)
                if below.is_zero():
                    continue
                e = elem(prev, mu, k)
                if e.is_zero():
                    continue
                got = got + below * e
            _memo_put(key, got)
        memo[(mu, k)] = got
        return got

    n = len(variables)
    try:
        top = value(lam, n)
    finally:
        del value  # value refers to itself: break the cycle now, not at a GC pass
    rf = top.to_rf()
    if n:
        _memo_put((base, lam, prefixes[n]), top)
    return rf


def _default_vars(n: int, variables=None):
    if variables is not None:
        return list(variables)
    return [f"x{i}" for i in range(1, n + 1)]


def _specialization(alpha, beta):
    subs = tuple((v, as_rf(val)) for v, val in (("a", alpha), ("b", beta)) if val is not None)
    return subs or None


def groth_poly(
    lam, n: int, encoding: str = "row", variables=None, *, alpha=None, beta=None
) -> RationalFunction:
    """Canonical Grothendieck polynomial in n variables; alpha and beta stay
    formal unless given as exact values."""
    model = WeightModel.ROW_G if encoding == "row" else WeightModel.COL_G
    spec = TransferSpec(model, specialize=_specialization(alpha, beta))
    return _chain_sum(spec, horizontal_strip_subs, check_partition(lam), _default_vars(n, variables))


def groth_poly_dual_route(lam, n: int, variables=None, *, alpha=None, beta=None) -> RationalFunction:
    """Same polynomial via the dual tiles and right boundary 1."""
    spec = TransferSpec(WeightModel.ROW_G, dual=True, specialize=_specialization(alpha, beta))
    return _chain_sum(spec, horizontal_strip_subs, check_partition(lam), _default_vars(n, variables))


def dual_groth_poly(
    lam, n: int, encoding: str = "row", variables=None, *, alpha=None, beta=None
) -> MultiPoly:
    """Dual canonical Grothendieck polynomial; always a polynomial."""
    model = WeightModel.ROW_DUAL_G if encoding == "row" else WeightModel.COL_DUAL_G
    spec = TransferSpec(model, specialize=_specialization(alpha, beta))
    return _chain_sum(spec, subpartitions, check_partition(lam), _default_vars(n, variables)).as_poly()


def j_poly(lam, n: int, route: str = "direct", variables=None, *, alpha=None, beta=None) -> MultiPoly:
    """Weak dual Grothendieck polynomial j_lam = g^(1,0) of the conjugate."""
    if route not in ("direct", "dual"):
        raise ValueError(f"unknown route {route!r}")
    spec = TransferSpec(WeightModel.J_ROW, dual=route == "dual", specialize=_specialization(alpha, beta))
    return _chain_sum(spec, vertical_strip_subs, check_partition(lam), _default_vars(n, variables)).as_poly()


# kind -> (model, chain steps, on the conjugate?, (alpha, beta) per unit of alpha)
_GENERALIZED = {
    "G": (WeightModel.COL_G, horizontal_strip_subs, False, (0, -1)),
    "g": (WeightModel.COL_DUAL_G, subpartitions, False, (0, 1)),
    "J": (WeightModel.ROW_G, horizontal_strip_subs, True, (-1, 0)),
    "j": (WeightModel.ROW_DUAL_G, subpartitions, True, (1, 0)),
    "s_r": (WeightModel.ROW_G, horizontal_strip_subs, False, (0, 0)),
    "s_c": (WeightModel.COL_G, horizontal_strip_subs, False, (0, 0)),
}


def generalized_poly(kind: str, lam, n: int, z=None, alpha=1, variables=None) -> RationalFunction:
    """Inhomogeneous generalised polynomials: variables z_j attach to the
    vertical lines, entering every weight through the ratio x/z_j.

    Pairings (model, alpha/beta specialization, encoding target):
      G   column G-model at (0, -alpha) on lam;
      g   column g-model at (0, alpha) on lam;
      J   row G-model at (-alpha, 0) on the conjugate;
      j   row g-model at (alpha, 0) on the conjugate;
      s_r row G-model at (0, 0) on lam;
      s_c column G-model at (0, 0) on lam.
    """
    if kind not in _GENERALIZED:
        raise DifferencePropertyViolation(
            f"kind {kind!r} is not one of the admissible pairings {tuple(_GENERALIZED)}"
        )
    lam = check_partition(lam)
    model, steps, conj, (ka, kb) = _GENERALIZED[kind]
    target = conjugate(lam) if conj else lam
    al = as_rf(alpha)
    nsites = TransferSpec(model).min_sites(target)
    if z is None:
        zs = tuple(RationalFunction.var(f"z{j}") for j in range(1, nsites + 1))
    else:
        zs = tuple(as_rf(v) for v in z)
        if len(zs) < nsites:
            raise TooFewInhomogeneities(f"need at least {nsites} inhomogeneities for {lam}")
    spec = TransferSpec(
        model, inhomogeneities=zs[:nsites], specialize=(("a", ka * al), ("b", kb * al))
    )
    return _chain_sum(spec, steps, target, _default_vars(n, variables))


def skew_groth_poly(outer, inner, variables, encoding: str = "row") -> RationalFunction:
    """Multivariable skew canonical Grothendieck polynomial: chain sum of
    horizontal strips from inner to outer."""
    outer, inner = check_partition(outer), check_partition(inner)
    model = WeightModel.ROW_G if encoding == "row" else WeightModel.COL_G
    return _chain_sum(TransferSpec(model), horizontal_strip_subs, outer, list(variables), inner=inner)


def skew_dual_groth_poly(outer, inner, variables, encoding: str = "row") -> RationalFunction:
    """Multivariable skew dual polynomial: chain sum over subpartition steps."""
    outer, inner = check_partition(outer), check_partition(inner)
    model = WeightModel.ROW_DUAL_G if encoding == "row" else WeightModel.COL_DUAL_G
    return _chain_sum(TransferSpec(model), subpartitions, outer, list(variables), inner=inner)
