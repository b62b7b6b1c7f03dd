"""Command-line surface: compute polynomials, dump weight tables, and run
the verification suites, with deterministic machine-readable output.

Exit codes: 0 success, 1 a verification check failed, 2 usage error.
Output carries no color codes, so NO_COLOR needs no special handling.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .algebra import (
    ExponentOverflow,
    RationalFunction,
    as_rf,
    rf_to_json,
    rf_to_json_text,
    rf_to_latex,
    rf_to_str,
)
from .identities import SUITES, run_suite
from .models import FERMIONIC_MODELS, WeightModel, vertex_weight
from .partitions import check_partition
from .transfer import (
    TooFewInhomogeneities,
    dual_groth_poly,
    generalized_poly,
    groth_poly,
    groth_poly_dual_route,
    j_poly,
)


def _parse_partition(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return check_partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not an exact rational: {text!r}") from exc


# Flags each kind reads besides --lambda and --nvars; any other flag given
# explicitly is a usage error.  Any kind given --z, and the inherently
# inhomogeneous kinds J, s_r, s_c, are computed by generalized_poly.
_READS = {
    "G": ("encoding", "route", "alpha", "beta"),
    "g": ("encoding", "alpha", "beta"),
    "j": ("route", "alpha", "beta"),
}
_READS_WITH_Z = {
    **{kind: ("alpha", "z") for kind in ("G", "g", "j", "J")},
    "s_r": ("z",),
    "s_c": ("z",),
}

# (kind, route) -> constructor(lam, n, encoding, alpha=..., beta=...); j
# drops alpha and beta, being g at (1, 0) of the conjugate
_HOMOGENEOUS = {
    ("G", "direct"): lambda lam, n, enc, **ab: groth_poly(lam, n, encoding=enc, **ab),
    ("G", "dual"): lambda lam, n, enc, **ab: groth_poly_dual_route(lam, n, **ab),
    ("g", "direct"): lambda lam, n, enc, **ab: as_rf(dual_groth_poly(lam, n, encoding=enc, **ab)),
    ("j", "direct"): lambda lam, n, enc, **ab: as_rf(j_poly(lam, n, route="direct")),
    ("j", "dual"): lambda lam, n, enc, **ab: as_rf(j_poly(lam, n, route="dual")),
}


def _compute_value(args) -> RationalFunction:
    lam = _parse_partition(args.lam)
    n = args.nvars
    if n < 0:
        raise UsageError("--nvars must be nonnegative")
    with_z = args.z is not None or args.kind not in _READS
    reads = _READS_WITH_Z[args.kind] if with_z else _READS[args.kind]
    for flag in ("encoding", "route", "alpha", "beta", "z"):
        if getattr(args, flag) is not None and flag not in reads:
            where = f"--kind {args.kind}" + (" with --z" if args.z is not None else "")
            raise UsageError(f"--{flag} has no effect for {where}")
    if args.route == "dual" and args.encoding == "column":
        raise UsageError("--route dual uses the row encoding; drop --encoding column")
    alpha = None if args.alpha is None else _parse_rational(args.alpha)
    beta = None if args.beta is None else _parse_rational(args.beta)
    if not with_z:
        build = _HOMOGENEOUS[(args.kind, args.route or "direct")]
        return build(lam, n, args.encoding or "row", alpha=alpha, beta=beta)
    if args.z is None:
        # inherently inhomogeneous kinds default to all z_j = 1
        z = [1] * max(len(lam), lam[0] if lam else 0, 1)
    elif args.z == "formal":
        z = None
    else:
        z = [_parse_rational(t) for t in args.z.split(",")]
    return generalized_poly(args.kind, lam, n, z=z, alpha=1 if alpha is None else alpha)


def _cmd_compute(args, out) -> int:
    try:
        val = _compute_value(args)
    except (ZeroDivisionError, TooFewInhomogeneities) as exc:
        raise UsageError(f"cannot compute at the given values: {exc}") from exc
    except ExponentOverflow as exc:
        raise UsageError(f"the result is out of range: {exc}") from exc
    if args.format == "plain":
        out.write(rf_to_str(val) + "\n")
    elif args.format == "latex":
        out.write(rf_to_latex(val) + "\n")
    else:
        out.write(rf_to_json_text(val) + "\n")
    return 0


_BOUNDS = ("aux_max", "phys_max", "max_label", "occ_max", "degree_bound")


def _cmd_verify(args, out) -> int:
    for name in _BOUNDS:
        if getattr(args, name) < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be nonnegative")
    if args.sites < 1:
        raise UsageError("--sites must be at least 1")
    reports = []
    for suite in args.suite.split(","):
        if suite not in SUITES:
            raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
        reports.extend(
            run_suite(
                suite,
                aux_max=args.aux_max,
                phys_max=args.phys_max,
                sites=args.sites,
                occ_max=args.occ_max,
                max_label=args.max_label,
                degree_bound=args.degree_bound,
            )
        )
    empty = [rep.name for rep in reports if rep.parameters.get("cases") == 0]
    if empty:
        raise UsageError(f"no cases to check at these bounds: {', '.join(empty)}")
    failed = 0
    for rep in reports:
        out.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")
        if not rep.passed:
            failed += 1
    return 1 if failed else 0


def _cmd_dump_weights(args, out) -> int:
    try:
        model = WeightModel(args.family)
    except ValueError as exc:
        names = ", ".join(m.value for m in WeightModel)
        raise UsageError(f"unknown family {args.family!r}; choose from {names}") from exc
    k = args.max_label
    if k < 0:
        raise UsageError("--max-label must be nonnegative")
    x = RationalFunction.var("x1")
    entries = []
    aux = (0, 1) if model in FERMIONIC_MODELS else range(k + 1)
    for a in aux:
        for b in range(k + 1):
            for c in aux:
                d = a + b - c
                if d < 0 or d > k:
                    continue
                w = vertex_weight(model, a, b, c, d, x)
                if w.is_zero():
                    continue
                entries.append({"a": a, "b": b, "c": c, "d": d, "weight": rf_to_json(w)})
    out.write(
        json.dumps(
            {"family": model.value, "max_label": k, "entries": entries}, sort_keys=True
        )
        + "\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grothpoly",
        description=(
            "Exact computation of canonical Grothendieck polynomials and their "
            "duals from solvable lattice models, plus mechanical verification "
            "of the model relations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one polynomial")
    pc.add_argument("--kind", required=True, choices=tuple(_READS_WITH_Z))
    pc.add_argument("--lambda", dest="lam", default="", help="comma-separated parts; empty = empty partition")
    pc.add_argument("--nvars", type=int, required=True)
    pc.add_argument("--encoding", choices=("row", "column"), default=None, help="G, g: row (default) or column model")
    pc.add_argument("--route", choices=("direct", "dual"), default=None, help="G, j: direct (default) or dual tile set")
    pc.add_argument("--alpha", default=None, help="exact rational specialization of alpha")
    pc.add_argument("--beta", default=None, help="exact rational specialization of beta")
    pc.add_argument("--z", default=None, help="'formal' or comma-separated exact rationals")
    pc.add_argument("--format", choices=("json", "plain", "latex"), default="json")

    pv = sub.add_parser("verify", help="run verification suites, JSON line per check")
    pv.add_argument("--suite", default="all", help="comma-separated suite names")
    pv.add_argument("--aux-max", dest="aux_max", type=int, default=3, help="read by rll")
    pv.add_argument("--phys-max", dest="phys_max", type=int, default=4, help="read by rll")
    capped = "read by inversion, and by commutation capped at 2"
    pv.add_argument("--sites", type=int, default=3, help=capped)
    pv.add_argument("--occ-max", dest="occ_max", type=int, default=3, help=capped)
    pv.add_argument("--max-label", dest="max_label", type=int, default=5, help="read by eigenvector and unitarity")
    pv.add_argument("--degree-bound", dest="degree_bound", type=int, default=4, help=(
        "read by cauchy/product-kernel and cauchy/skew only; commutation/mixed fixes 6, "
        "cauchy/binomial-kernel 2mn+1, and the generalized and dual-sum-rule checks 3"))

    pd = sub.add_parser("dump-weights", help="emit one weight table as JSON")
    pd.add_argument("--family", required=True)
    pd.add_argument("--max-label", dest="max_label", type=int, default=3)

    return parser


def _join_negative_values(argv):
    """Rewrite "--alpha -1/3" as "--alpha=-1/3" (likewise --beta, --z):
    argparse would read a value like -1/3 or -1,2 as an unknown flag."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--alpha", "--beta", "--z") and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing leaves it unchanged, and a
    fresh namespace per call keeps one call's flags out of the next."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = sys.stdout
    try:
        if args.command == "compute":
            return _cmd_compute(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "dump-weights":
            return _cmd_dump_weights(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2
