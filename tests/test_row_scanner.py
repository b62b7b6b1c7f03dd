"""transfer.row_scanner against a plain scan kept here, which builds every
vertex weight afresh at its own site: all seven weight models (the two
dual tile sets among them), occupancies shorter than the row (padded
with 0), per-site inhomogeneities, per-site spectral parameters and
specialized alpha, beta.

The scanner caches each vertex weight, keyed by site only when the
spectral parameters over their inhomogeneities differ from site to site;
keying every weight by site 0 fails these tests (a weight built at one
site is served at another)."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothpoly import transfer
from grothpoly.algebra import ALPHA, RationalFunction
from grothpoly.factored import ONE, ZERO, as_ffrac
from grothpoly.models import DUAL_BOUNDARY_MODELS, FORMAL_ALPHA, FORMAL_BETA, WeightModel, factored_weight
from grothpoly.transfer import TransferSpec, row_configuration_weight, row_scanner

OCC_MAX = 2


def plain_scan(spec: TransferSpec, spectrals, bottom, top):
    """The row weight with nothing cached: site i (scanned right to left)
    at spectrals[i] over its inhomogeneity, alpha and beta as values."""
    alpha = FORMAL_ALPHA if spec.alpha is None else as_ffrac(spec.alpha)
    beta = FORMAL_BETA if spec.beta is None else as_ffrac(spec.beta)
    out = ONE
    c = 1 if spec.model in DUAL_BOUNDARY_MODELS else 0
    for i in reversed(range(len(spectrals))):
        b = bottom[i] if i < len(bottom) else 0
        d = top[i] if i < len(top) else 0
        a = c + d - b
        if a < 0 or (spec.fermionic and a > 1):
            return ZERO
        x = as_ffrac(spectrals[i])
        if spec.inhomogeneities is not None:
            x = x / as_ffrac(spec.inhomogeneities[i])
        out = out * factored_weight(spec.model, a, b, c, d, x, alpha, beta)
        c = a
    return out


def occupancies(length: int):
    return list(product(range(OCC_MAX + 1), repeat=length))


def assert_scanner_matches(spec, spectrals, length):
    """One scanner over every pair of occupancies of the given length, so
    that a weight cached at one site is asked for at every other."""
    scan = row_scanner(spec, spectrals)
    for bottom in occupancies(length):
        for top in occupancies(length):
            got, want = scan(bottom, top), plain_scan(spec, spectrals, bottom, top)
            assert (got - want).is_zero(), (spec, spectrals, bottom, top)


spectral_sets = st.sampled_from(("shared", "per-site", "repeated"))
inhomogeneity_sets = st.sampled_from((None, "variables", "rationals", "equal"))
values = st.sampled_from((None, 0, Fraction(-1, 2), -ALPHA))


def make_spectrals(kind: str, nsites: int):
    if kind == "shared":
        return ["x1"] * nsites
    if kind == "per-site":
        return [f"x{i}" for i in range(1, nsites + 1)]
    # the same value at every site but the last
    return ["x1"] * (nsites - 1) + [RationalFunction.var("x1") * 2]


def make_inhomogeneities(kind, nsites: int):
    if kind is None:
        return None
    if kind == "variables":
        return tuple(RationalFunction.var(f"z{i}") for i in range(1, nsites + 1))
    if kind == "rationals":
        return tuple(Fraction(i + 1, 2) for i in range(nsites))
    return (Fraction(1, 3),) * nsites


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(list(WeightModel)),
    nsites=st.integers(min_value=1, max_value=3),
    pad=st.integers(min_value=0, max_value=2),
    spectrals=spectral_sets,
    zs=inhomogeneity_sets,
    alpha=values,
    beta=values,
)
def test_scanner_matches_plain_scan(model, nsites, pad, spectrals, zs, alpha, beta):
    spec = TransferSpec(
        model, inhomogeneities=make_inhomogeneities(zs, nsites), alpha=alpha, beta=beta
    )
    assert_scanner_matches(spec, make_spectrals(spectrals, nsites), max(0, nsites - pad))


@pytest.mark.parametrize("model", list(WeightModel))
def test_inhomogeneities_with_identical_spectrals(model):
    # the spectrals alone would share one weight per label across sites
    zs = tuple(RationalFunction.var(f"z{i}") for i in (1, 2, 3))
    assert_scanner_matches(TransferSpec(model, inhomogeneities=zs), ["x1"] * 3, 3)


@pytest.mark.parametrize("model", list(WeightModel))
def test_sites_pad_row_configuration_weight(model):
    # the longer occupancy tuple sets the site count; the shorter is padded with 0
    spec = TransferSpec(model)
    for sites in (2, 3):
        for bottom in occupancies(1):
            for top in occupancies(sites):
                want = plain_scan(spec, ["x1"] * sites, bottom, top).to_rf()
                assert row_configuration_weight(spec, bottom, top, "x1") == want


@pytest.mark.parametrize("spectrals", [["x1"] * 3, ["x1", "x2", "x3"]])
def test_each_vertex_weight_is_built_once(monkeypatch, spectrals):
    built = []
    original = transfer.factored_weight

    def counting(model, a, b, c, d, x, *rest):
        built.append((x.num, a, b, c, d))
        return original(model, a, b, c, d, x, *rest)

    monkeypatch.setattr(transfer, "factored_weight", counting)
    scan = row_scanner(TransferSpec(WeightModel.ROW_DUAL_G), spectrals)
    for bottom in occupancies(3):
        for top in occupancies(3):
            scan(bottom, top)
    assert built and len(built) == len(set(built))


def occupancy_pairs(sites):
    occs = st.tuples(*[st.integers(0, 3)] * sites)
    return st.tuples(occs, occs)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(occupancy_pairs))
def test_the_dual_g_row_is_zero_exactly_where_the_top_fails_to_dominate(pair):
    # a bosonic row from right boundary 0 carries the suffix sum of top
    # minus bottom leftward, so no admissibility test is needed before a
    # scan of it (the mixed commutation check relies on this)
    bottom, top = pair
    scan = row_scanner(TransferSpec(WeightModel.ROW_DUAL_G), ["x1"] * len(bottom))
    below = any(sum(top[i:]) < sum(bottom[i:]) for i in range(len(bottom)))
    assert scan(bottom, top).is_zero() is below
