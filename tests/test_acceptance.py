"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with plain pytest; the summary lines bypass capture so they always
appear in the run log.  Each criterion asserts its stated tolerance and
time budget.
"""

import math
import random
import time

from speclab.enumerate import enumerate_connected
from speclab.families import FamilySpec, construct
from speclab.graph import Graph, canonical_code, g6_encode
from speclab.minor import (
    FOUND,
    NOT_FOUND,
    clique_closure_check,
    find_minor_model,
    fs_subgraph_witness,
    has_fs_minor,
    has_qt_minor,
    verify_model,
)
from speclab.search import parse_constraint, verify_theorem_small_n
from speclab.spectral import rho_closed_form, spectral_radius, verify_perron_bound


def announce(capsys, k, label, ok, elapsed, detail):
    line = (
        f"criterion {k} ({label}): {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.1f}s] {detail}"
    )
    with capsys.disabled():
        print(line, flush=True)


def union_find_has_cycle(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False


def longest_cycle(g):
    best = 0
    for root in range(g.n):
        path = [root]
        on = {root}

        def walk():
            nonlocal best
            v = path[-1]
            for w in range(g.n):
                if not g.has_edge(v, w) or w < root:
                    continue
                if w == root and len(path) >= 3:
                    best = max(best, len(path))
                elif w not in on:
                    on.add(w)
                    path.append(w)
                    walk()
                    path.pop()
                    on.remove(w)

        walk()
    return best


def random_host(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(tuple(rows))


def test_criterion_1_closed_forms(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for s in range(1, 5):
        for n in (20, 50, 100, 200):
            g, _ = construct(FamilySpec("ks-join-independent", s=s, n=n))
            rho = spectral_radius(g).rho
            root = ((s - 1) + math.sqrt((s - 1) ** 2 + 4 * s * (n - s))) / 2
            worst = max(worst, abs(rho - root))
            cases += 1
    for t in range(1, 5):
        for n in (20, 21, 50, 51, 100, 101, 200, 201):  # both parities of n-t
            spec = FamilySpec("kt-join-matching", t=t, n=n)
            g, _ = construct(spec)
            worst = max(worst, abs(spectral_radius(g).rho - rho_closed_form(spec)))
            cases += 1
    for a in range(1, 5):
        for n in (20, 50, 100, 200):
            g, _ = construct(FamilySpec("complete-bipartite", a=a, b=n - a))
            worst = max(worst, abs(spectral_radius(g).rho - math.sqrt(a * (n - a))))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    announce(capsys, 1, "closed forms", ok, elapsed, f"{cases} cases, worst delta {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_edge_extremal_subgraph_free(capsys):
    t0 = time.perf_counter()
    g3, _ = construct(FamilySpec("efgg", s=3, n=450))
    e3 = g3.edge_count
    w3 = fs_subgraph_witness(g3, 3)
    g2, _ = construct(FamilySpec("efgg", s=2, n=12))
    e2 = g2.edge_count
    w2 = fs_subgraph_witness(g2, 2)
    elapsed = time.perf_counter() - t0
    ok = e3 == 50631 and w3 is None and e2 == 37 and w2 is None and elapsed < 10.0
    announce(
        capsys, 2, "edge-extremal graphs", ok, elapsed,
        f"e(450)={e3}, e(12)={e2}, witnesses {w3}/{w2}",
    )
    assert e3 == 450 * 450 // 4 + 6 == 50631
    assert w3 is None
    assert e2 == 37
    assert w2 is None
    assert elapsed < 10.0


def test_criterion_3_constructions_minor_free(capsys):
    t0 = time.perf_counter()
    statuses = []
    for s in (1, 2):
        for n in range(6, 13):
            g, _ = construct(FamilySpec("ks-join-independent", s=s, n=n))
            statuses.append(has_fs_minor(g, s).status)
    for n in range(5, 13):
        g, _ = construct(FamilySpec("kt-join-matching", t=1, n=n))
        statuses.append(has_qt_minor(g, 1).status)
    elapsed = time.perf_counter() - t0
    ok = all(st == NOT_FOUND for st in statuses) and elapsed < 60.0
    announce(
        capsys, 3, "join constructions minor-free", ok, elapsed,
        f"{len(statuses)} hosts, statuses {sorted(set(statuses))}",
    )
    assert all(st == NOT_FOUND for st in statuses)
    assert elapsed < 60.0


def test_criterion_4_small_n_search_s1(capsys):
    t0 = time.perf_counter()
    reports = verify_theorem_small_n(parse_constraint("fs:s=1"), (4, 9), workers=1)
    elapsed = time.perf_counter() - t0
    problems = []
    for r in reports:
        star, _ = construct(FamilySpec("ks-join-independent", s=1, n=r.n))
        want = (canonical_code(star).decode("ascii"),)
        if not r.match:
            problems.append(f"n={r.n} no match")
        if r.maximizers != want:
            problems.append(f"n={r.n} maximizers {r.maximizers}")
        if abs(r.best_rho - math.sqrt(r.n - 1)) > 1e-9:
            problems.append(f"n={r.n} rho {r.best_rho}")
        if r.exhausted_count:
            problems.append(f"n={r.n} exhausted {r.exhausted_count}")
    ok = not problems and elapsed < 600.0
    announce(
        capsys, 4, "exhaustive search s=1, n=4..9", ok, elapsed,
        problems or f"all {len(reports)} star maximizers confirmed, "
        f"{reports[-1].enumerated} classes at n=9",
    )
    assert not problems, problems
    assert elapsed < 600.0


def test_criterion_5_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    checked = 0
    disagreements = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            cyc = union_find_has_cycle(g)
            long = longest_cycle(g) >= 4
            f1 = has_fs_minor(g, 1).status == FOUND
            q1 = has_qt_minor(g, 1).status == FOUND
            if f1 != cyc or q1 != long:
                disagreements.append(g6_encode(g))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 120.0
    announce(
        capsys, 5, "cycle oracle equivalence n<=7", ok, elapsed,
        f"{checked} graphs, {len(disagreements)} disagreements",
    )
    assert not disagreements, disagreements[:5]
    assert elapsed < 120.0


def test_criterion_6_certificate_fuzz(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    patterns = {
        "fs1": construct(FamilySpec("friendship", s=1))[0],
        "fs2": construct(FamilySpec("friendship", s=2))[0],
        "qt1": construct(FamilySpec("intersecting-c4", t=1))[0],
    }
    found = not_found = 0
    bad = []
    for i in range(10_000):
        host = random_host(rng, rng.randint(1, 10), rng.choice((0.1, 0.2, 0.35, 0.5, 0.7)))
        kind = rng.choice(("fs1", "fs2", "qt1"))
        if kind == "qt1":
            answer = has_qt_minor(host, 1)
        else:
            answer = has_fs_minor(host, int(kind[-1]))
        if answer.status == FOUND:
            found += 1
            if not verify_model(host, answer.model):
                bad.append(("certificate", i))
        elif answer.status == NOT_FOUND:
            not_found += 1
            cross = find_minor_model(host, patterns[kind])
            if cross.status != NOT_FOUND:
                bad.append(("cross", i))
        else:
            bad.append(("exhausted", i))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    announce(
        capsys, 6, "certificate fuzz 10k", ok, elapsed,
        f"{found} found all verified, {not_found} absences cross-checked, issues {bad[:3]}",
    )
    assert not bad, bad[:5]
    assert elapsed < 300.0


def test_criterion_7_counterexample_regression(capsys):
    t0 = time.perf_counter()
    g, _ = construct(FamilySpec("complete-bipartite", a=3, b=2))
    fs = has_fs_minor(g, 2).status
    self_minor = find_minor_model(g, g).status
    elapsed = time.perf_counter() - t0
    ok = fs == NOT_FOUND and self_minor == FOUND
    announce(
        capsys, 7, "K_{3,2} regression", ok, elapsed,
        f"double-pair minor {fs}, self minor {self_minor}",
    )
    assert fs == NOT_FOUND
    assert self_minor == FOUND


def test_criterion_8_perron_entry_bound(capsys):
    t0 = time.perf_counter()
    cases = 0
    worst = None
    failures = []
    for s in (1, 2, 3):
        for n in range(s + 2, 101):
            for kind, key in (("ks-join-independent", "s"), ("kt-join-matching", "t")):
                spec = FamilySpec(kind, n=n, **{key: s})
                g, _ = construct(spec)
                rep = verify_perron_bound(g)
                cases += 1
                slack = rep.min_entry - (rep.bound - 1e-8)
                if worst is None or slack < worst:
                    worst = slack
                if rep.min_entry < rep.bound - 1e-8:
                    failures.append(spec.text())
    elapsed = time.perf_counter() - t0
    ok = not failures
    announce(
        capsys, 8, "Perron entry bound", ok, elapsed,
        f"{cases} join graphs, min slack {worst:.2e}, failures {failures[:3]}",
    )
    assert not failures, failures[:5]


def pendant_tree_host(rng, side):
    m = rng.randint(max(side, 2), 10)
    edges = [(i, side + j) for i in range(side) for j in range(m)]
    n = side + m
    for _ in range(rng.randint(0, 6)):
        edges.append((n, rng.randrange(n)))
        n += 1
    return Graph.from_edges(n, edges), list(range(side))


def test_criterion_9_clique_closure(capsys):
    t0 = time.perf_counter()
    rng = random.Random(3454)
    # with the kernel peel and the cycle-rank check the hardest absence
    # proof here (F_2 on K_{2,10} plus one pendant) takes 371,237 nodes,
    # under the default budget; this bound predates both rules and stays
    budget = 100_000_000
    bad = []
    for i in range(50):
        side = rng.choice((1, 2))
        g, A = pendant_tree_host(rng, side)
        rep = clique_closure_check(g, A, "fs", side, node_budget=budget)
        if rep.base.status != NOT_FOUND or rep.closed.status != NOT_FOUND:
            bad.append(("fs", i, rep.base.status, rep.closed.status))
    for i in range(50):
        # two star leaves: closing them adds one edge, a triangle, no C_4
        g, _ = pendant_tree_host(rng, 1)
        rep = clique_closure_check(g, [1, 2], "qt", 1, node_budget=budget)
        if rep.base.status != NOT_FOUND or rep.closed.status != NOT_FOUND:
            bad.append(("qt", i, rep.base.status, rep.closed.status))
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(
        capsys, 9, "clique closure on 100 hosts", ok, elapsed,
        f"issues {bad[:3]}" if bad else "all (not_found, not_found)",
    )
    assert not bad, bad[:5]
