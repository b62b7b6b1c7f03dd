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
from functools import cache, cached_property

from .algebra import ALPHA, BETA, DivisionByZero, MultiPoly, RationalFunction, as_rf
from .factored import ONE, ZERO, FFrac, as_ffrac, product_of
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

_X0 = as_ffrac("x0")

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
    """One transfer matrix: weight model (which names the tile set and the
    chain step), and optional per-site inhomogeneities and alpha/beta values
    (None: formal).  A dual tile set (DUAL_BOUNDARY_MODELS) also reverses a
    chain step: its factor is <nxt|T*(x)|prev>."""

    model: WeightModel
    inhomogeneities: tuple | None = None
    alpha: RationalFunction | None = None
    beta: RationalFunction | None = None

    def __post_init__(self):
        # one spelling per value, so equal specs share chain-memo entries:
        # a rational function, and None for the formal symbol itself
        for name, formal in (("alpha", ALPHA), ("beta", BETA)):
            if (value := getattr(self, name)) is not None:
                value = as_rf(value)
                object.__setattr__(self, name, None if value == formal else value)
        if self.inhomogeneities is not None:
            zs = tuple(map(as_rf, self.inhomogeneities))
            # a weight reads x/z_j: reject z_j = 0 whether or not one is built
            if not all(zs):
                raise DivisionByZero("division by zero")
            object.__setattr__(self, "inhomogeneities", zs)
        # _chain_sum renames x0, its spectral placeholder, in every element
        for value in (self.alpha, self.beta, *(self.inhomogeneities or ())):
            if value is not None and "x0" in value.num.variables() | value.den.variables():
                raise ValueError("alpha, beta and inhomogeneities may not use x0, a reserved variable")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing the specialized values walks their terms: do it once, as
        # every chain-memo key holds the spec
        return hash((self.model, self.inhomogeneities, self.alpha, self.beta))

    @property
    def dual(self) -> bool:
        return self.model in DUAL_BOUNDARY_MODELS

    @property
    def fermionic(self) -> bool:
        return self.model in FERMIONIC_MODELS

    @property
    def steps(self):
        """The partitions one row can step between, as a function of the
        larger shape: horizontal strips for G, any subshape for g, vertical
        strips for j.  Read from the module globals when asked for, so a
        rebound step function is the one a chain calls."""
        if self.model in (WeightModel.ROW_DUAL_G, WeightModel.COL_DUAL_G):
            return subpartitions
        if self.model in (WeightModel.J_ROW, WeightModel.J_ROW_DUAL):
            return vertical_strip_subs
        return horizontal_strip_subs

    def encode(self, lam, nsites):
        if self.model in COLUMN_ENCODED_MODELS:
            return column_multiplicities(lam, nsites)
        return row_multiplicities(lam, nsites)

    def min_sites(self, lam) -> int:
        if self.model in COLUMN_ENCODED_MODELS:
            return len(lam)
        return lam[0] if lam else 0


def row_scanner(spec: TransferSpec, spectrals):
    """The single-row configuration weight, a cached function of (bottom,
    top) occupancy tuples to factored fractions, over len(spectrals) sites
    with site i at spectral parameter spectrals[i] over its inhomogeneity.

    The row is scanned right to left from the spec's boundary label; the
    weight is 0 when some label leaves the admissible range.  Every label is
    derived before any weight is fetched, and product_of multiplies the
    weights only when all of them are nonzero.  Each vertex weight is built
    once, with alpha and beta entering as values, and keyed by site only
    when the sites' spectral parameters over their inhomogeneities differ.
    """
    xs = [as_ffrac(x) for x in spectrals]
    zs = spec.inhomogeneities
    if zs is not None:
        xs = [x / as_ffrac(zs[i]) for i, x in enumerate(xs)]
    by_site = any((x.num, x.powers) != (xs[0].num, xs[0].powers) for x in xs)
    nsites = len(xs)
    model, fermionic, right = spec.model, spec.fermionic, 1 if spec.dual else 0
    alpha = FORMAL_ALPHA if spec.alpha is None else as_ffrac(spec.alpha)
    beta = FORMAL_BETA if spec.beta is None else as_ffrac(spec.beta)
    weights: dict = {}

    def vertex(i, a, b, c, d):
        key = (i if by_site else 0, a, b, c, d)
        w = weights.get(key)
        if w is None:
            w = weights[key] = factored_weight(model, a, b, c, d, xs[i], alpha, beta)
        return w

    @cache
    def scan(bottom, top) -> FFrac:
        labels = []
        c = right
        for i in range(nsites - 1, -1, -1):
            b = bottom[i] if i < len(bottom) else 0
            d = top[i] if i < len(top) else 0
            a = c + d - b
            if a < 0 or (fermionic and a > 1):
                return ZERO
            labels.append((i, a, b, c, d))
            c = a
        return product_of(vertex(*label) for label in labels)

    return scan


def row_configuration_weight(spec: TransferSpec, bottom, top, x) -> RationalFunction:
    """Weight of the unique single-row configuration with the given bottom
    and top occupancies; 0 when some label leaves the admissible range."""
    nsites = max(len(bottom), len(top))
    return row_scanner(spec, [x] * nsites)(tuple(bottom), tuple(top)).to_rf()


def transfer_element(spec: TransferSpec, mu, lam, x) -> RationalFunction:
    """Matrix element <mu|T(x)|lam> under the spec's encoding."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    nsites = max(spec.min_sites(mu), spec.min_sites(lam))
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


def _chain_sum(spec: TransferSpec, lam, variables, inner=()):
    """Sum over chains inner = mu0 <= ... <= mun = lam of products of
    single-row elements, the k-th step at spectral parameter variables[k-1]
    and each step one of spec.steps.

    The value of mu at level k, the sum over the chains that reach mu in k
    steps, is a whole answer to a smaller request: it depends only on the
    spec, inner, the site count, mu and variables[:k], the key it has in
    the process-wide chain memo.  Going down from (lam, n), each shape a
    level needs is looked up once: a hit is its value, a miss needs its
    steps one level down.  Going back up, each miss sums below * element
    over its steps.  A repeated request is a hit at the top and does no
    chain arithmetic.

    Every element is built once per call, by one row scanner at a shared
    spectral parameter x0 (made only when the top misses), held in that
    scanner's cache and renamed to each step's variable; alpha and beta
    enter the weight tables as values, never substituted.  Weights,
    elements and values are factored fractions over the process-wide atom
    table, so additions and products align exponents instead of running
    polynomial gcds, and a value means the same in every later call.
    """
    nsites = spec.min_sites(lam)
    steps = spec.steps
    base = (spec, inner, nsites)
    n = len(variables)
    prefixes = [tuple(variables[:k]) for k in range(n + 1)]
    values: dict = {}  # (mu, k) -> the value of mu at level k, a hit or a sum
    misses = []  # (mu, k, the steps into mu), level by level from n down
    shapes = {lam: None}  # the shapes level k needs, in the order first needed
    for k in range(n, 0, -1):
        needed: dict = {}
        for mu in shapes:
            got = _memo_get((base, mu, prefixes[k]))
            if got is None:
                prevs = list(steps(mu))  # read here and again on the way up
                misses.append((mu, k, prevs))
                needed.update(dict.fromkeys(prevs))
            else:
                values[mu, k] = got
        shapes = needed
    for mu in shapes:
        values[mu, 0] = ONE if mu == inner else ZERO
    if misses:
        scan = row_scanner(spec, [_X0] * nsites)
        # a shape is asked for at every step into and out of it
        encode = cache(lambda p: spec.encode(p, nsites))
    # reversed, every level is summed after the level below it
    for mu, k, prevs in reversed(misses):
        got = ZERO
        for prev in prevs:
            below = values[prev, k - 1]
            if below.is_zero():
                continue
            bottom, top = (mu, prev) if spec.dual else (prev, mu)
            e = scan(encode(bottom), encode(top)).rename_vars({"x0": variables[k - 1]})
            if e.is_zero():
                continue
            got = got + below * e
        _memo_put((base, mu, prefixes[k]), got)
        values[mu, k] = got
    value = values[lam, n]
    rf = value.to_rf()
    if n:
        # a hit too: this charges the cached to_rf and applies the current budget
        _memo_put((base, lam, prefixes[n]), value)
    return rf


def _default_vars(n: int, variables=None):
    if n < 0:
        raise ValueError(f"negative number of variables: {n}")
    if variables is None:
        return [f"x{i}" for i in range(1, n + 1)]
    variables = list(variables)
    if len(variables) != n:
        raise ValueError(f"{len(variables)} variables given for n = {n}")
    return variables


def groth_poly(
    lam, n: int, encoding: str = "row", variables=None, *, alpha=None, beta=None
) -> RationalFunction:
    """Canonical Grothendieck polynomial in n variables; alpha and beta stay
    formal unless given as exact values."""
    if encoding not in ("row", "column"):
        raise ValueError(f"unknown encoding {encoding!r}")
    model = WeightModel.ROW_G if encoding == "row" else WeightModel.COL_G
    spec = TransferSpec(model, alpha=alpha, beta=beta)
    return _chain_sum(spec, check_partition(lam), _default_vars(n, variables))


def groth_poly_dual_route(lam, n: int, variables=None, *, alpha=None, beta=None) -> RationalFunction:
    """Same polynomial via the dual tiles and right boundary 1."""
    spec = TransferSpec(WeightModel.ROW_G_DUAL, alpha=alpha, beta=beta)
    return _chain_sum(spec, check_partition(lam), _default_vars(n, variables))


def dual_groth_poly(
    lam, n: int, encoding: str = "row", variables=None, *, alpha=None, beta=None
) -> MultiPoly:
    """Dual canonical Grothendieck polynomial; always a polynomial."""
    if encoding not in ("row", "column"):
        raise ValueError(f"unknown encoding {encoding!r}")
    model = WeightModel.ROW_DUAL_G if encoding == "row" else WeightModel.COL_DUAL_G
    spec = TransferSpec(model, alpha=alpha, beta=beta)
    return _chain_sum(spec, check_partition(lam), _default_vars(n, variables)).as_poly()


def j_poly(lam, n: int, route: str = "direct", variables=None) -> MultiPoly:
    """Weak dual Grothendieck polynomial j_lam = g^(1,0) of the conjugate."""
    if route not in ("direct", "dual"):
        raise ValueError(f"unknown route {route!r}")
    spec = TransferSpec(WeightModel.J_ROW_DUAL if route == "dual" else WeightModel.J_ROW)
    return _chain_sum(spec, check_partition(lam), _default_vars(n, variables)).as_poly()


# kind -> (model, on the conjugate?, (alpha, beta) per unit of alpha)
_GENERALIZED = {
    "G": (WeightModel.COL_G, False, (0, -1)),
    "g": (WeightModel.COL_DUAL_G, False, (0, 1)),
    "J": (WeightModel.ROW_G, True, (-1, 0)),
    "j": (WeightModel.ROW_DUAL_G, True, (1, 0)),
    "s_r": (WeightModel.ROW_G, False, (0, 0)),
    "s_c": (WeightModel.COL_G, False, (0, 0)),
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
    model, conj, (ka, kb) = _GENERALIZED[kind]
    target = conjugate(lam) if conj else lam
    al = as_rf(alpha)
    nsites = TransferSpec(model).min_sites(target)
    if z is None:
        zs = tuple(RationalFunction.var(f"z{j}") for j in range(1, nsites + 1))
    else:
        zs = tuple(z)
        if len(zs) < nsites:
            raise TooFewInhomogeneities(f"need at least {nsites} inhomogeneities for {lam}")
    spec = TransferSpec(model, inhomogeneities=zs[:nsites], alpha=ka * al, beta=kb * al)
    return _chain_sum(spec, target, _default_vars(n, variables))


def skew_groth_poly(outer, inner, variables, *, alpha=None, beta=None) -> RationalFunction:
    """Multivariable skew canonical Grothendieck polynomial: chain sum of
    horizontal strips from inner to outer; alpha and beta stay formal
    unless given as exact values."""
    outer, inner = check_partition(outer), check_partition(inner)
    spec = TransferSpec(WeightModel.ROW_G, alpha=alpha, beta=beta)
    return _chain_sum(spec, outer, list(variables), inner=inner)


def skew_dual_groth_poly(outer, inner, variables) -> RationalFunction:
    """Multivariable skew dual polynomial: chain sum over subpartition steps."""
    outer, inner = check_partition(outer), check_partition(inner)
    return _chain_sum(TransferSpec(WeightModel.ROW_DUAL_G), outer, list(variables), inner=inner)
