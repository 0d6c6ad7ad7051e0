"""Seeded inputs of the four workloads; plain Python, no speclab imports.

Query workloads are cut into rounds.  Every round covers the same strata
(host order, shape parameter, query kind) with fresh random hosts, so
two seeds give comparable work and a run's length only changes how many
rounds it completes.  Round r of a seed is the same on every run.
"""

from __future__ import annotations

import random

SEARCH_WORKERS = {"search-fs1-n8": 1, "search-fs1-n8-w2": 2}
QUERY_WORKLOADS = ("closure-fs2", "minor-fuzz")
WORKLOADS = tuple(SEARCH_WORKERS) + QUERY_WORKLOADS

SEARCH_CONSTRAINT = "fs-minor-free:s=1"
CLOSURE_BUDGET = 100_000_000
FUZZ_DENSITIES = (0.1, 0.2, 0.35, 0.5, 0.7)
# (query kind, parameter): the minor engine on F_1, F_2, Q_1 and the two
# subgraph witness searches
FUZZ_KINDS = (
    ("fs-minor", 1),
    ("fs-minor", 2),
    ("qt-minor", 1),
    ("fs-subgraph", 2),
    ("qt-subgraph", 1),
)


def sizes(smoke: bool) -> dict:
    """Problem sizes: full, or small enough for the benchmark's own tests."""
    if smoke:
        return {"search_n": 6, "closure_order": 7, "fuzz_max_n": 6}
    return {"search_n": 8, "closure_order": 10, "fuzz_max_n": 10}


def random_host(rng, n, p):
    """G(n, p) as adjacency rows, the generator of acceptance criterion 6."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def pendant_host(rng, side, m, pendants):
    """K_{side,m} plus a random pendant tree, as in acceptance criterion 9."""
    n = side + m + pendants
    rows = [0] * n

    def add(u, v):
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    for i in range(side):
        for j in range(m):
            add(i, side + j)
    for k in range(side + m, n):
        add(k, rng.randrange(k))
    return tuple(rows)


def round_rng(workload, seed, r):
    return random.Random(f"{workload}/{seed}/{r}")


def closure_round(seed, r, order):
    """Six F_2 closures of the hubs of K_{2,m} plus pendants, two Q_1 closures.

    A query is (mode, param, host rows, clique members).  Every F_2 host
    is K_{2,m} with m = order - 5 plus three pendant vertices, so the
    F_2 latencies form one cluster and their median does not jump
    between shapes of different cost; the seed places the pendants.  The
    Q_1 hosts close two leaves of a star with the fewest and the most
    leaves the order allows (at most six pendants).
    """
    rng = round_rng("closure-fs2", seed, r)
    m = order - 5
    queries = [("fs", 2, pendant_host(rng, 2, m, 3), (0, 1)) for _ in range(6)]
    for leaves in (max(2, order - 7), order - 1):
        queries.append(("qt", 1, pendant_host(rng, 1, leaves, order - 1 - leaves), (1, 2)))
    return queries


def fuzz_round(seed, r, max_n):
    """One query of every kind on a fresh G(n, p) host for each n and p."""
    rng = round_rng("minor-fuzz", seed, r)
    return [
        (kind, param, random_host(rng, n, p))
        for n in range(1, max_n + 1)
        for p in FUZZ_DENSITIES
        for kind, param in FUZZ_KINDS
    ]
