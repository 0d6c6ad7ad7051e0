"""Answer checks that share no code with the engine under test.

Graphs are plain adjacency rows (bit v of rows[u] set iff u ~ v), so
these functions import nothing from speclab.  Each check returns a list
of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math

# connected graphs (OEIS A001349), unlabeled trees (A000055), and the
# canonical graph6 code of the star K_1 v I_{n-1}, by order
SEARCH_EXPECTED = {
    6: {"enumerated": 112, "feasible": 6, "star": "E?Bw"},
    8: {"enumerated": 11117, "feasible": 23, "star": "G???F{"},
}


def friendship_edges(s):
    """F_s: hub 0, triangle pair i on vertices 2i+1, 2i+2."""
    edges = []
    for i in range(s):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return 2 * s + 1, edges


def quadrilaterals_edges(t):
    """Q_t: hub 0, arm j is the path 3j+1, 3j+2, 3j+3 with both ends on the hub."""
    edges = []
    for j in range(t):
        x, y, z = 3 * j + 1, 3 * j + 2, 3 * j + 3
        edges += [(0, x), (x, y), (y, z), (0, z)]
    return 3 * t + 1, edges


def _adjacent(rows, u, v):
    return bool((rows[u] >> v) & 1)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def components(rows):
    n = len(rows)
    seen = 0
    count = 0
    for root in range(n):
        if (seen >> root) & 1:
            continue
        count += 1
        frontier = 1 << root
        seen |= frontier
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~seen
            seen |= frontier
    return count


def cyclomatic_number(rows):
    """m - n + c, which no edge deletion or contraction increases."""
    m = sum(r.bit_count() for r in rows) // 2
    return m - len(rows) + components(rows)


def has_cycle(rows):
    """Any cycle at all, i.e. a triangle (F_1) minor."""
    return cyclomatic_number(rows) > 0


def has_long_cycle(rows):
    """A cycle of length >= 4, i.e. a C_4 (Q_1) minor.

    A 2-connected block on k >= 4 vertices always holds a cycle of length
    at least 4 (extend a triangle through a fan from an outside vertex),
    and blocks on at most 3 vertices are bridges or triangles.
    """
    n = len(rows)
    disc = [-1] * n
    low = [0] * n
    clock = 0
    stack: list[tuple[int, int]] = []

    def visit(u, parent):
        nonlocal clock
        disc[u] = low[u] = clock
        clock += 1
        for v in _bits(rows[u]):
            if v == parent:
                continue
            if disc[v] < 0:
                stack.append((u, v))
                if visit(v, u):
                    return True
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = set()
                    while True:
                        a, b = stack.pop()
                        block |= {a, b}
                        if (a, b) == (u, v):
                            break
                    if len(block) >= 4:
                        return True
            elif disc[v] < disc[u]:
                stack.append((u, v))
                low[u] = min(low[u], disc[v])
        return False

    return any(disc[r] < 0 and visit(r, -1) for r in range(n))


def check_model(rows, pattern, branch_sets):
    """Disjoint nonempty connected branch sets realizing every pattern edge."""
    order, edges = pattern
    problems = []
    if len(branch_sets) != order:
        return [f"{len(branch_sets)} branch sets for a pattern on {order} vertices"]
    used = 0
    masks = []
    for i, members in enumerate(branch_sets):
        mask = 0
        for v in members:
            if not 0 <= v < len(rows):
                return [f"branch set {i} names vertex {v} outside the host"]
            mask |= 1 << v
        if not mask:
            problems.append(f"branch set {i} is empty")
        if mask & used:
            problems.append(f"branch set {i} overlaps an earlier one")
        used |= mask
        reach = mask & -mask
        while True:
            grown = reach
            for v in _bits(reach):
                grown |= rows[v] & mask
            if grown == reach:
                break
            reach = grown
        if reach != mask:
            problems.append(f"branch set {i} is not connected")
        masks.append(mask)
    for a, b in edges:
        if not any(rows[v] & masks[b] for v in _bits(masks[a])):
            problems.append(f"pattern edge {a}-{b} has no host edge")
    return problems


def check_fs_witness(rows, s, center, pairs):
    """Hub plus s disjoint edges inside its neighbourhood."""
    verts = [center] + [v for p in pairs for v in p]
    problems = []
    if len(pairs) != s or len(set(verts)) != 2 * s + 1:
        problems.append("witness vertices are not 2s+1 distinct vertices")
    for a, b in pairs:
        for u, v in ((center, a), (center, b), (a, b)):
            if not _adjacent(rows, u, v):
                problems.append(f"witness edge {u}-{v} missing from host")
    return problems


def check_qt_witness(rows, t, center, arms):
    """Hub plus t disjoint arms x-y-z with x and z on the hub."""
    verts = [center] + [v for arm in arms for v in arm]
    problems = []
    if len(arms) != t or len(set(verts)) != 3 * t + 1:
        problems.append("witness vertices are not 3t+1 distinct vertices")
    for x, y, z in arms:
        for u, v in ((center, x), (x, y), (y, z), (z, center)):
            if not _adjacent(rows, u, v):
                problems.append(f"witness edge {u}-{v} missing from host")
    return problems


def has_fs_subgraph(rows, s):
    """Brute force: some vertex sees s pairwise disjoint edges among its neighbours."""

    def disjoint_edges(mask, need):
        if need == 0:
            return True
        for u in _bits(mask):
            rest = mask & ~(1 << u)
            for v in _bits(rows[u] & rest):
                if disjoint_edges(rest & ~(1 << v), need - 1):
                    return True
            mask = rest
        return False

    return any(disjoint_edges(rows[c], s) for c in range(len(rows)))


def has_c4_subgraph(rows):
    """Some two vertices share at least two neighbours."""
    n = len(rows)
    return any((rows[u] & rows[v]).bit_count() >= 2 for u in range(n) for v in range(u + 1, n))


def check_search_report(report, n):
    """The exhaustive fs-minor-free:s=1 search against known counts."""
    want = SEARCH_EXPECTED[n]
    problems = []
    for key in ("enumerated", "feasible"):
        if report[key] != want[key]:
            problems.append(f"{key} = {report[key]}, expected {want[key]}")
    if report["maximizers"] != [want["star"]]:
        problems.append(f"maximizers {report['maximizers']}, expected [{want['star']!r}]")
    rho = report["best_rho"]
    if rho is None or abs(rho - math.sqrt(n - 1)) > 1e-9:
        problems.append(f"best_rho {rho} is not sqrt({n - 1}) within 1e-9")
    if report["exhausted_count"] != 0:
        problems.append(f"exhausted_count = {report['exhausted_count']}")
    return problems
