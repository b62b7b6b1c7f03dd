"""Correctness checks on CLI output, run outside every timed window.

Formal outputs must equal the independent branching-formula oracle
(``grothpoly.oracles.branch_poly``) exactly, term by term.  Specialized
outputs are compared at seeded exact rational points: the output is
evaluated at x, the formal oracle at x together with the request's alpha and
beta.  Substituting into the oracle would pay the gcd cost the workload is
there to measure.

Polynomials are read from the CLI's JSON into plain dictionaries here, so
the comparison does not depend on the package's own parsing or arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

POINTS_PER_REQUEST = 2


def poly_from_terms(terms) -> dict:
    """{sorted (var, exp) pairs: Fraction} from the CLI's JSON term list."""
    out = {}
    for t in terms:
        mono = tuple(sorted((v, int(e)) for v, e in t["exps"].items()))
        if mono in out:
            raise ValueError(f"monomial {mono} listed twice")
        c = Fraction(t["coeff"])
        if c == 0:
            raise ValueError(f"zero coefficient listed for {mono}")
        out[mono] = c
    return out


def rf_from_output(text: str):
    data = json.loads(text)
    return poly_from_terms(data["num"]), poly_from_terms(data["den"])


def evaluate(poly: dict, point: dict) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        for v, e in mono:
            c *= point[v] ** e
        total += c
    return total


class Oracle:
    """Formal branching-formula values, computed once per (kind, lam, n).

    Values are kept in a JSON file named by a hash of the package source,
    so later runs on the same source skip recomputing them and any change
    to the source recomputes them all."""

    def __init__(self, src_dir: str, cache_dir: str):
        from grothpoly.algebra import rf_to_json
        from grothpoly.oracles import branch_poly

        self._branch_poly = branch_poly
        self._rf_to_json = rf_to_json
        digest = hashlib.sha256()
        for name in sorted(os.listdir(src_dir)):
            if name.endswith(".py"):
                with open(os.path.join(src_dir, name), "rb") as f:
                    digest.update(name.encode() + b"\0" + f.read())
        self._path = os.path.join(cache_dir, f"oracle-{digest.hexdigest()[:16]}.json")
        self._json: dict = {}
        if os.path.exists(self._path):
            with open(self._path) as f:
                self._json = json.load(f)
        self._added = False
        self._memo: dict = {}

    def value(self, kind: str, lam: tuple, n: int):
        key = f"{kind}|{','.join(map(str, lam))}|{n}"
        got = self._memo.get(key)
        if got is None:
            data = self._json.get(key)
            if data is None:
                data = self._json[key] = self._rf_to_json(self._branch_poly(kind, lam, n))
                self._added = True
            got = (poly_from_terms(data["num"]), poly_from_terms(data["den"]))
            self._memo[key] = got
        return got

    def save(self) -> None:
        if self._added:
            os.makedirs(os.path.dirname(self._path), exist_ok=True)
            tmp = self._path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(self._json, f)
            os.replace(tmp, self._path)


def check_compute(req, text: str, oracle: Oracle, key: str) -> str | None:
    """None when the output is right, else a one-line reason; key seeds
    the evaluation points."""
    try:
        num, den = rf_from_output(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    onum, oden = oracle.value(req.kind, req.lam, req.nvars)
    if req.alpha is None and req.beta is None:
        if (num, den) != (onum, oden):
            return "differs from the oracle"
        return None
    rng = random.Random(key)
    spec = {"a": req.alpha, "b": req.beta}
    checked = 0
    for _ in range(20 * POINTS_PER_REQUEST):
        x = {
            f"x{i}": Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for i in range(1, req.nvars + 1)
        }
        oden_at = evaluate(oden, {**x, **spec})
        try:
            den_at = evaluate(den, x)
            num_at = evaluate(num, x)
        except KeyError as exc:
            return f"output keeps the variable {exc}"
        if oden_at == 0 or den_at == 0:
            continue
        if num_at / den_at != evaluate(onum, {**x, **spec}) / oden_at:
            return f"differs from the oracle at {x}"
        checked += 1
        if checked == POINTS_PER_REQUEST:
            return None
    return "no evaluation point avoids the poles"


def check_verify(text: str) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, names of failed checks)."""
    attempted = failed = 0
    names = []
    for line in text.splitlines():
        if not line.strip():
            continue
        attempted += 1
        try:
            rep = json.loads(line)
        except ValueError:
            failed += 1
            names.append("<unreadable line>")
            continue
        if rep.get("passed") is not True:
            failed += 1
            names.append(str(rep.get("name")))
    return attempted, failed, names
