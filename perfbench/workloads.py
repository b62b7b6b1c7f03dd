"""Seeded request generators for the four benchmark workloads.

Every compute workload is served in *passes*.  A pass is a fixed multiset of
requests; the seed decides their order (and the evaluation points of the
correctness check), not which requests a pass holds.  Runs therefore compare
like with like across seeds and across commits.

Within a pass the order is a stratified deal: requests are grouped into
strata of similar cost, each stratum is shuffled, and the deal always takes
next from the stratum furthest behind its proportional share.  Any prefix of
a pass therefore holds every stratum in proportion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

WORKLOADS = ("compute-formal", "compute-specialized", "compute-repeat", "verify-all")

# Routes that compute the same value; the first is the CLI default.
ROUTES = {
    "G": (("--encoding", "row"), ("--encoding", "column"), ("--route", "dual")),
    "g": (("--encoding", "row"), ("--encoding", "column")),
    "j": (("--route", "direct"), ("--route", "dual")),
}

NVARS = (2, 3, 4)
MAX_SIZE = 6

# Left out of compute-formal for run time: together these two requests cost
# about 8 s of compute and 8 s of oracle per pass on a 2-vCPU x86 VM at 2.1 GHz,
# while (5) at four variables and (6) at three keep wide one-row shapes in.
FORMAL_EXCLUDED = {("G", (6,), 4), ("G", (5, 1), 4)}

# Nonzero specializations: negative, fractional and integral values.
ALPHAS_NONZERO = (
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3),
    Fraction(3, 2), Fraction(-3, 2), Fraction(2), Fraction(-2),
)
BETAS = (
    Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3),
    Fraction(2), Fraction(3, 4), Fraction(-2), Fraction(0),
)

# compute-repeat: (kind, lambda, nvars) per family, most popular first.
REPEAT_FAMILIES = (
    ("G", (3, 2), 3),
    ("g", (3, 2, 1), 3),
    ("j", (3, 2, 1), 4),
    ("G", (2, 2, 1), 4),
    ("g", (4, 2), 4),
    ("G", (4, 1), 3),
    ("j", (3, 3), 3),
    ("g", (2, 2, 2), 4),
)
ZIPF_S = 1.1
REPEAT_PASS_LEN = 300


@dataclass(frozen=True)
class Request:
    """One CLI call plus what the checker needs to know about it."""

    kind: str
    lam: tuple
    nvars: int
    route: tuple
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def argv(self) -> list[str]:
        argv = [
            "compute", "--kind", self.kind,
            "--lambda", ",".join(map(str, self.lam)),
            "--nvars", str(self.nvars), *self.route,
        ]
        # the '=' form: argparse reads "--beta -1/3" as two flags
        if self.alpha is not None:
            argv.append(f"--alpha={self.alpha}")
        if self.beta is not None:
            argv.append(f"--beta={self.beta}")
        return argv


def partitions_upto(max_size: int):
    """All partitions of size at most max_size, in a fixed order."""
    out = []

    def rec(prefix, remaining, bound):
        out.append(tuple(prefix))
        for v in range(min(bound, remaining), 0, -1):
            prefix.append(v)
            rec(prefix, remaining - v, v)
            prefix.pop()

    rec([], max_size, max_size)
    return sorted(out, key=lambda lam: (sum(lam), [-v for v in lam]))


def _stratum(kind, lam, n):
    return (kind, n, lam[0] if lam else 0, sum(lam))


def stratified_deal(items, key, rng):
    """Order items so every prefix holds each stratum in proportion."""
    groups: dict = {}
    for it in items:
        groups.setdefault(key(it), []).append(it)
    strata = [groups[k] for k in sorted(groups)]
    for g in strata:
        rng.shuffle(g)
    taken = [0] * len(strata)
    out = []
    for _ in range(len(items)):
        i = min(
            (i for i, g in enumerate(strata) if taken[i] < len(g)),
            key=lambda i: ((taken[i] + 0.5) / len(strata[i]), i),
        )
        out.append(strata[i][taken[i]])
        taken[i] += 1
    return out


def formal_templates():
    return [
        (kind, lam, n)
        for lam in partitions_upto(MAX_SIZE)
        for n in NVARS
        for kind in ("G", "g", "j")
        if (kind, lam, n) not in FORMAL_EXCLUDED
    ]


def specialized_templates():
    """G pays the gcd cliff, so its shapes are smaller: at most four boxes
    and first part plus variables at most 6, which keeps (3) at three
    variables (about 12x its formal cost) and drops (4) at three (~6 s)."""
    out = []
    for kind, lam, n in formal_templates():
        if kind == "G" and (sum(lam) > 4 or (lam[0] if lam else 0) + n > 6):
            continue
        for alpha_zero in (True, False):
            out.append((kind, lam, n, alpha_zero))
    return out


class Stream:
    """The passes of one compute workload for one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        if workload == "compute-formal":
            self.templates = stratified_deal(
                formal_templates(), lambda t: _stratum(*t), self.rng
            )
            # every further pass takes each shape's next route; after
            # the smallest route count, requests would repeat
            self.max_passes = min(len(r) for r in ROUTES.values())
        elif workload == "compute-specialized":
            self.templates = stratified_deal(
                specialized_templates(), lambda t: (*_stratum(*t[:3]), t[3]), self.rng
            )
            self.max_passes = None
            # Values, like routes, are fixed per shape and pass rather than
            # seeded: the gcd cost depends on them.  Each (kind, alpha = 0)
            # group cycles through every value in turn.
            self.value_index = {}
            counters: dict = {}
            for t in sorted(self.templates, key=repr):
                group = (t[0], t[3])
                self.value_index[t] = counters.get(group, 0)
                counters[group] = self.value_index[t] + 1
        elif workload == "compute-repeat":
            self.families = [_family_members(*f) for f in REPEAT_FAMILIES]
            for members in self.families:
                self.rng.shuffle(members)
            self.max_passes = None
        else:
            raise ValueError(f"not a compute workload: {workload!r}")
        if workload != "compute-repeat":
            # First-pass route per shape: fixed, not seeded, and spread
            # evenly over the routes.  Routes differ in cost by up to a
            # third on the heavier G shapes, so a seeded choice would move
            # the tail from seed to seed.
            self.route0 = {t: i for i, t in enumerate(sorted(self.templates, key=repr))}

    def pass_requests(self, p: int) -> list[Request]:
        if self.workload == "compute-formal":
            return [
                Request(t[0], t[1], t[2], _route(t[0], self.route0[t] + p))
                for t in self.templates
            ]
        if self.workload == "compute-specialized":
            return self._specialized_pass(p)
        return self._repeat_pass(p)

    def _specialized_pass(self, p: int) -> list[Request]:
        out = []
        for t in self.templates:
            kind, lam, n, alpha_zero = t
            k = self.value_index[t] + p
            alpha = Fraction(0) if alpha_zero else ALPHAS_NONZERO[k % len(ALPHAS_NONZERO)]
            beta = BETAS[(k + k // len(BETAS)) % len(BETAS)]
            out.append(Request(kind, lam, n, _route(kind, self.route0[t] + p), alpha, beta))
        return out

    def _repeat_pass(self, p: int) -> list[Request]:
        weights = [1 / (rank + 1) ** ZIPF_S for rank in range(len(self.families))]
        total = sum(weights)
        served = [0] * len(self.families)
        phase = self.rng.random()
        out = []
        for i in range(REPEAT_PASS_LEN):
            # deal the family furthest behind its Zipf share
            k = min(
                range(len(self.families)),
                key=lambda k: ((served[k] + phase) * total / weights[k], k),
            )
            members = self.families[k]
            out.append(members[(served[k] + p * REPEAT_PASS_LEN) % len(members)])
            served[k] += 1
        return out


def _route(kind: str, index: int) -> tuple:
    routes = ROUTES[kind]
    return routes[index % len(routes)]


def _steps(kind: str, lam: tuple):
    """Chain predecessors of lam: the shapes whose values its chain sum
    builds first (horizontal strips for G, all subshapes for g, vertical
    strips for j)."""
    if kind == "j":
        conj = _conjugate(lam)
        return sorted({_conjugate(m) for m in _hstrip(conj)})
    if kind == "G":
        return sorted(set(_hstrip(lam)))
    return sorted(
        tuple(v for v in choice if v)
        for choice in product(*(range(v + 1) for v in lam))
        if all(a >= b for a, b in zip(choice, choice[1:]))
    )


def _hstrip(lam):
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, lam[i] + 1) for i in range(len(lam))]
    return [tuple(v for v in c if v) for c in product(*ranges)]


def _conjugate(lam):
    return tuple(sum(1 for v in lam if v > i) for i in range(lam[0])) if lam else ()


def _family_members(kind, lam, n):
    """lam at n variables through every route, plus its chain predecessors
    at n - 1 variables through the default route."""
    members = [Request(kind, lam, n, route) for route in ROUTES[kind]]
    for mu in _steps(kind, lam):
        if mu and mu != lam:
            members.append(Request(kind, mu, n - 1, ROUTES[kind][0]))
    return members
