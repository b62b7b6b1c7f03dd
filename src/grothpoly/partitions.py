"""Integer-partition combinatorics: Young-diagram encodings into occupancy
vectors, strip predicates, and the skew statistics used by the branching
rules.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Occupancy vectors are tuples of
nonnegative integers indexed by site 1..N (trailing zeros implied).
"""

from __future__ import annotations

from itertools import product


class NotContained(ValueError):
    """The inner shape is not contained in the outer shape."""


class NotHorizontalStrip(ValueError):
    """The skew shape is not a horizontal strip."""


Partition = tuple


def check_partition(parts) -> Partition:
    """Validate and normalize to a tuple (drops trailing zeros)."""
    given = tuple(int(v) for v in parts)
    p = given
    while p and p[-1] == 0:
        p = p[:-1]
    for i, v in enumerate(p):
        if v <= 0:
            raise ValueError(f"partition parts must be positive: {list(given)}")
        if i and p[i - 1] < v:
            raise ValueError(f"partition parts must weakly decrease: {list(given)}")
    return p


def part(lam: Partition, i: int) -> int:
    """1-indexed part, 0 beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam: Partition) -> int:
    return sum(lam)


def contains(lam: Partition, mu: Partition) -> bool:
    """mu is contained in lam as Young diagrams."""
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for v in lam:
        for j in range(v):
            cols[j] += 1
    return tuple(cols)


def row_multiplicities(lam: Partition, nsites: int | None = None) -> tuple:
    """Occupancies m_i = number of rows of lam of size i, i = 1..nsites."""
    n = nsites if nsites is not None else (lam[0] if lam else 0)
    occ = [0] * n
    for v in lam:
        if v > n:
            raise ValueError(f"site count {n} too small for partition {lam}")
        occ[v - 1] += 1
    return tuple(occ)


def column_multiplicities(lam: Partition, nsites: int | None = None) -> tuple:
    """Occupancies m_i = number of columns of lam of size i."""
    return row_multiplicities(conjugate(lam), nsites)


def is_horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """lam/mu has at most one box per column (and mu is contained in lam)."""
    if not contains(lam, mu):
        return False
    return all(part(lam, i + 1) <= part(mu, i) for i in range(1, len(lam) + 1))


def is_vertical_strip(lam: Partition, mu: Partition) -> bool:
    """lam/mu has at most one box per row."""
    return is_horizontal_strip(conjugate(lam), conjugate(mu))


def skew_boxes(lam: Partition, mu: Partition) -> list:
    """Boxes (row, col), 1-indexed, of the skew diagram lam/mu."""
    if not contains(lam, mu):
        raise NotContained(f"{mu} is not contained in {lam}")
    return [
        (i, j)
        for i in range(1, len(lam) + 1)
        for j in range(part(mu, i) + 1, part(lam, i) + 1)
    ]


def skew_stats(lam: Partition, mu: Partition) -> tuple[int, int, int]:
    """(r, c, b): nonzero rows, nonzero columns, connected components of
    lam/mu, with boxes adjacent when they share an edge."""
    boxes = skew_boxes(lam, mu)
    rows = {i for i, _ in boxes}
    cols = {j for _, j in boxes}
    # union-find on edge-adjacent boxes
    parent = {box: box for box in boxes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    box_set = set(boxes)
    for i, j in boxes:
        for nb in ((i, j + 1), (i + 1, j)):
            if nb in box_set:
                ra, rb = find((i, j)), find(nb)
                if ra != rb:
                    parent[ra] = rb
    comps = {find(box) for box in boxes}
    return (len(rows), len(cols), len(comps))


def outer_row_stat(lam: Partition, mu: Partition) -> int:
    """Number of nonzero rows of mu/lam-bar, where lam-bar drops the first
    part of lam; defined for horizontal strips lam/mu."""
    if not is_horizontal_strip(lam, mu):
        raise NotHorizontalStrip(f"{lam}/{mu} is not a horizontal strip")
    return sum(1 for i in range(1, len(mu) + 1) if part(mu, i) > part(lam, i + 1))


def _partition_sort_key(lam: Partition):
    # by size, then reverse-lexicographic (larger first part first)
    return (sum(lam), tuple(-v for v in lam))


def enumerate_partitions(max_size: int, max_length: int, max_width: int):
    """All partitions with size, length, and width within the bounds, each
    exactly once, in deterministic (size, then reverse-lex) order."""
    found = [[] for _ in range(max_size + 1)]
    # an explicit stack, not a recursive closure: the closure would refer
    # to itself and live until a cyclic garbage collection
    stack = [((), 0, min(max_width, max_size))]
    while stack:
        prefix, size, bound = stack.pop()
        found[size].append(prefix)
        if len(prefix) < max_length:
            stack.extend(
                (prefix + (v,), size + v, v) for v in range(1, min(bound, max_size - size) + 1)
            )
    for bucket in found:
        bucket.sort(key=_partition_sort_key)
        yield from bucket


def horizontal_strip_subs(lam: Partition):
    """All mu with lam/mu a horizontal strip, in deterministic order."""
    n = len(lam)
    # row i (1-indexed) of mu ranges over [lam_{i+1}, lam_i]
    ranges = [range(part(lam, i + 2), lam[i] + 1) for i in range(n)]
    out = []
    for choice in product(*ranges):
        mu = tuple(v for v in choice if v > 0)
        # choices are automatically weakly decreasing: mu_i >= lam_{i+1} >= mu_{i+1}
        out.append(mu)
    out.sort(key=_partition_sort_key)
    return out


def vertical_strip_subs(lam: Partition):
    """All mu with lam/mu a vertical strip."""
    out = [conjugate(m) for m in horizontal_strip_subs(conjugate(lam))]
    out.sort(key=_partition_sort_key)
    return out


def subpartitions(lam: Partition):
    """All mu contained in lam."""
    out = []
    stack = [()]  # an explicit stack, as in enumerate_partitions
    while stack:
        mu = stack.pop()
        out.append(mu)
        i = len(mu)
        if i < len(lam):
            stack.extend(mu + (v,) for v in range(1, min(mu[-1] if mu else lam[0], lam[i]) + 1))
    out.sort(key=_partition_sort_key)
    return out
