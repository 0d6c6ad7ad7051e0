import hashlib
import itertools
import json
import random

import pytest

from speclab.errors import (
    BudgetExhausted,
    IndexOutOfRange,
    OverlappingSets,
    PatternTooLarge,
    PreconditionFailed,
)
from speclab.enumerate import enumerate_connected
from speclab.families import FamilySpec, construct
from speclab import minor
from speclab.graph import Graph
from speclab.minor import (
    EXHAUSTED,
    FOUND,
    NOT_FOUND,
    MinorAnswer,
    MinorModel,
    _Engine,
    _Plan,
    _arm_seed_filter,
    _ends_first,
    check_structure_fs,
    check_structure_qt,
    clique_closure_check,
    find_minor_model,
    fs_subgraph_witness,
    has_fs_minor,
    has_qt_minor,
    qt_subgraph_witness,
    verify_model,
)


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def has_cycle(g):
    """Union-find oracle, no shared code with the engine."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def longest_cycle(g):
    """DFS over simple paths; cycles are rooted at their smallest vertex."""
    best = 0

    def dfs(start, v, mask, length):
        nonlocal best
        for w in g.neighbors(v):
            if w == start and length >= 3:
                best = max(best, length)
            elif w > start and not (mask >> w) & 1:
                dfs(start, w, mask | 1 << w, length + 1)

    for start in range(g.n):
        dfs(start, start, 1 << start, 1)
    return best


def friendship(s):
    g, _ = construct(FamilySpec("friendship", s=s))
    return g


def quadrilaterals(t):
    g, _ = construct(FamilySpec("intersecting-c4", t=t))
    return g


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def with_pendants(g, k, rng):
    """g plus k vertices, each hung on an earlier one, labels shuffled."""
    edges = list(g.edges())
    n = g.n
    for _ in range(k):
        edges.append((n, rng.randrange(n)))
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, edges).relabel(perm)


def kernel_corpus():
    """100 random hosts with up to three pendant vertices each."""
    rng = random.Random(988)
    hosts = []
    for _ in range(100):
        base = random_graph(rng.randint(2, 9), rng.choice([0.2, 0.35, 0.5, 0.7]), rng)
        hosts.append(with_pendants(base, rng.randint(0, 3), rng))
    return hosts


# The per-pattern seed filters that _arm_seed_filter replaced, verbatim.
def _fs_seed_filter(k, v, seeds):
    # hub at position 0, arm pair i at positions 2i+1, 2i+2; pair ends are
    # interchangeable and so are whole pairs, force seeds ascending
    if k == 0:
        return True
    if k % 2 == 1:
        return k == 1 or v > seeds[k - 2]
    return v > seeds[k - 1]


def _qt_seed_filter(k, v, seeds):
    # hub at 0, arm j at positions 3j+1 (end), 3j+2 (middle), 3j+3 (end);
    # the two ends are interchangeable and so are whole arms
    if k == 0:
        return True
    r = (k - 1) % 3
    if r == 0:
        return k == 1 or v > seeds[k - 3]
    if r == 2:
        return v > seeds[k - 2]
    return True


class TestVerifyModel:
    def test_examples(self):
        k4 = complete(4)
        k3 = complete(3)
        model = MinorModel(4, k3, (frozenset({0}), frozenset({1}), frozenset({2, 3})))
        assert verify_model(k4, model)
        c5 = cycle(5)
        model = MinorModel(5, k3, (frozenset({0}), frozenset({1}), frozenset({2})))
        assert not verify_model(c5, model)
        k32 = complete_bipartite(3, 2)
        c4 = cycle(4)
        model = MinorModel(
            5, c4, (frozenset({0}), frozenset({3}), frozenset({1}), frozenset({4}))
        )
        assert verify_model(k32, model)

    def test_rejections(self):
        k4 = complete(4)
        k3 = complete(3)
        overlap = MinorModel(4, k3, (frozenset({0, 1}), frozenset({1}), frozenset({2})))
        assert not verify_model(k4, overlap)
        empty = MinorModel(4, k3, (frozenset(), frozenset({1}), frozenset({2})))
        assert not verify_model(k4, empty)
        short = MinorModel(4, k3, (frozenset({0}), frozenset({1})))
        assert not verify_model(k4, short)
        p = Graph.from_edges(4, [(0, 1), (2, 3)])  # 0,2 not adjacent
        disconnected_set = MinorModel(
            4, complete(2), (frozenset({0, 2}), frozenset({1}))
        )
        assert not verify_model(p, disconnected_set)

    def test_errors(self):
        k4 = complete(4)
        k3 = complete(3)
        with pytest.raises(IndexOutOfRange):
            verify_model(k4, MinorModel(5, k3, (frozenset({0}),) * 1))
        with pytest.raises(IndexOutOfRange):
            verify_model(
                k4, MinorModel(4, k3, (frozenset({0}), frozenset({1}), frozenset({9})))
            )


class TestGenericSearch:
    def test_examples(self):
        assert find_minor_model(complete(4), complete(3)).status == FOUND
        assert find_minor_model(complete_bipartite(1, 9), complete(3)).status == NOT_FOUND
        assert find_minor_model(complete_bipartite(3, 2), friendship(2)).status == NOT_FOUND

    def test_found_models_verify(self):
        rng = random.Random(911)
        patterns = [complete(3), cycle(4), complete(4), friendship(1)]
        for _ in range(150):
            g = random_graph(rng.randint(4, 9), rng.choice([0.3, 0.5, 0.8]), rng)
            pat = rng.choice(patterns)
            ans = find_minor_model(g, pat)
            if ans.status == FOUND:
                assert verify_model(g, ans.model)
                assert ans.model.pattern == pat

    def test_trivial_patterns(self):
        g = complete(3)
        ans = find_minor_model(g, Graph.empty(0))
        assert ans.status == FOUND and ans.model.branch_sets == ()
        assert find_minor_model(g, Graph.empty(1)).status == FOUND
        assert find_minor_model(Graph.empty(2), complete(3)).status == NOT_FOUND
        # quick reject: pattern needs more edges than the host has
        assert find_minor_model(cycle(5), complete(4)).status == NOT_FOUND

    def test_pattern_too_large(self):
        with pytest.raises(PatternTooLarge):
            find_minor_model(complete(14), complete(13))

    def test_self_minor(self):
        k32 = complete_bipartite(3, 2)
        ans = find_minor_model(k32, k32)
        assert ans.status == FOUND
        assert all(len(s) == 1 for s in ans.model.branch_sets)


class TestBridgeRegression:
    def test_hub_needs_both_bridge_ends(self):
        # bridge 0-1; 0 sees the pair {2,3}, 1 sees {4,5}; the only
        # friendship-minor hub is the merged set {0,1}, so the search must
        # be able to grow the earlier-seeded endpoint of an obligation
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5)]
        )
        ans = has_fs_minor(g, 2)
        assert ans.status == FOUND
        hub = next(s for s in ans.model.branch_sets if len(s) > 1)
        assert hub == frozenset({0, 1})
        assert find_minor_model(g, friendship(2)).status == FOUND


class TestSpecializedSearches:
    def test_fs_examples(self):
        g, _ = construct(FamilySpec("ks-join-independent", s=2, n=8))
        assert has_fs_minor(g, 2).status == NOT_FOUND
        g, _ = construct(FamilySpec("ks-join-independent", s=3, n=10))
        ans = has_fs_minor(g, 2)
        assert ans.status == FOUND and verify_model(g, ans.model)

    def test_fs_on_forests(self):
        rng = random.Random(922)
        for n in (2, 5, 9):
            star = complete_bipartite(1, n)
            assert has_fs_minor(star, 1).status == NOT_FOUND
            path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            assert has_fs_minor(path, 1).status == NOT_FOUND
        for _ in range(20):
            n = rng.randint(2, 9)
            perm = list(range(1, n))
            rng.shuffle(perm)
            tree = Graph.from_edges(
                n, [(v, rng.randint(0, min(v - 1, n - 1))) for v in range(1, n)]
            )
            assert has_fs_minor(tree, 1).status == NOT_FOUND

    def test_qt_examples(self):
        assert has_qt_minor(friendship(3), 1).status == NOT_FOUND
        ans = has_qt_minor(complete_bipartite(2, 3), 1)
        assert ans.status == FOUND
        ans = has_qt_minor(cycle(6), 1)
        assert ans.status == FOUND
        assert sum(len(s) for s in ans.model.branch_sets) == 6  # two contractions

    def test_k32_guard(self):
        k32 = complete_bipartite(3, 2)
        assert has_fs_minor(k32, 2).status == NOT_FOUND
        assert find_minor_model(k32, k32).status == FOUND

    def test_agree_with_generic(self):
        rng = random.Random(933)
        for _ in range(120):
            g = random_graph(rng.randint(3, 7), rng.choice([0.3, 0.5, 0.7]), rng)
            for s in (1, 2):
                a = has_fs_minor(g, s)
                b = find_minor_model(g, friendship(s))
                assert a.status == b.status, (g.rows, s)
            qa = has_qt_minor(g, 1)
            qb = find_minor_model(g, cycle(4))
            assert qa.status == qb.status

    def test_budget_exhaustion(self):
        g = complete(8)
        ans = has_fs_minor(g, 2, node_budget=3)
        assert ans.status == EXHAUSTED and ans.model is None
        assert ans.nodes_used >= 3

    def test_param_validation(self):
        with pytest.raises(ValueError):
            has_fs_minor(complete(3), 0)
        with pytest.raises(ValueError):
            has_qt_minor(complete(3), 0)
        with pytest.raises(PatternTooLarge):
            has_fs_minor(complete(3), 6)
        with pytest.raises(PatternTooLarge):
            has_qt_minor(complete(3), 4)


class TestKernelAndRank:
    """The cycle-rank reject and the degree <= 1 peel against the bare engine."""

    def test_differential_against_unpruned_engine(self):
        # (pruned entry point, pattern, search order, seed filter)
        cases = [
            (lambda g, s=s: has_fs_minor(g, s), friendship(s),
             tuple(range(2 * s + 1)), _fs_seed_filter)
            for s in (1, 2)
        ] + [
            (lambda g, t=t: has_qt_minor(g, t), quadrilaterals(t),
             tuple(range(3 * t + 1)), _qt_seed_filter)
            for t in (1, 2)
        ]
        # P_4 has leaves, so the peel must be skipped for it
        for pat in (complete(4), cycle(5), complete_bipartite(2, 3), path_graph(4)):
            order = tuple(sorted(range(pat.n), key=lambda v: (-pat.degree(v), v)))
            cases.append((lambda g, pat=pat: find_minor_model(g, pat), pat, order, None))
        pruned_nodes = ref_nodes = queries = 0
        for g in kernel_corpus():
            for run, pat, order, seed_filter in cases:
                ans = run(g)
                ref = _Engine(g, _Plan(pat, order), 10**7, seed_filter).run()
                assert ans.status == ref.status != EXHAUSTED, (g.rows, pat.rows)
                if ans.status == FOUND:
                    assert verify_model(g, ans.model)
                else:
                    # a pruned absence proof walks part of the reference tree
                    assert ans.nodes_used <= ref.nodes_used
                pruned_nodes += ans.nodes_used
                ref_nodes += ref.nodes_used
                queries += 1
        assert queries == 800 and pruned_nodes < ref_nodes

    def test_arm_filter_matches_per_pattern_filters(self):
        cases = [(friendship(s), 2, _fs_seed_filter) for s in (1, 2)] + [
            (quadrilaterals(t), 3, _qt_seed_filter) for t in (1, 2)
        ]
        for g in kernel_corpus():
            for pat, size, ref_filter in cases:
                plan = _Plan(pat, tuple(range(pat.n)))
                got = _Engine(g, plan, 10**7, _arm_seed_filter(size)).run()
                want = _Engine(g, plan, 10**7, ref_filter).run()
                assert got.status == want.status, (g.rows, pat.rows)
                assert got.nodes_used == want.nodes_used, (g.rows, pat.rows)

    def test_tree_host_rejected_by_rank(self):
        rng = random.Random(989)
        tree = with_pendants(Graph.empty(1), 11, rng)
        for ans in (has_fs_minor(tree, 1), has_qt_minor(tree, 1),
                    find_minor_model(tree, cycle(3))):
            assert ans.status == NOT_FOUND and ans.nodes_used == 0

    def test_pendants_cost_no_nodes(self):
        bare = complete_bipartite(2, 10)
        # a pendant on a hub and a three-vertex path hung on the other side
        g = Graph.from_edges(
            16, list(bare.edges()) + [(12, 0), (13, 5), (14, 13), (15, 14)]
        )
        want = has_fs_minor(bare, 2)
        got = has_fs_minor(g, 2)
        assert want.status == got.status == NOT_FOUND
        assert got.nodes_used == want.nodes_used


def cycle_rank(g):
    """m - n + c by union-find, no shared code with the engine."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    components = g.n
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return g.edge_count - g.n + components


def rebuilt(g, pattern, order, seed_filter):
    """The search with its plan built for this call alone, its exits
    decided here and a fresh answer at each of them."""
    if pattern.n > g.n or pattern.edge_count > g.edge_count or cycle_rank(g) < cycle_rank(pattern):
        return MinorAnswer(NOT_FOUND, None, 0)
    peel = min(row.bit_count() for row in pattern.rows) >= 2
    blocked = minor._peel(g) if peel else 0
    return _Engine(g, _Plan(pattern, order), 10**7, seed_filter, blocked).run()


def first_fs_center(g, s):
    """The first vertex whose neighbourhood holds s <= 2 disjoint edges,
    by brute force, or None."""
    for v in range(g.n):
        inner = [(x, y) for x, y in g.edges() if g.rows[v] >> x & g.rows[v] >> y & 1]
        pairs = itertools.combinations(inner, 2)
        if inner and (s == 1 or any(not {a, b} & {c, d} for (a, b), (c, d) in pairs)):
            return v
    return None


def has_c4(g):
    return any(
        (g.rows[u] & g.rows[w]).bit_count() >= 2 for u in range(g.n) for w in range(u)
    )


def plan_hosts():
    """Every connected graph with n <= 7 and 150 G(n, p) hosts with n <= 10."""
    hosts = [g for n in range(1, 8) for g in enumerate_connected(n)]
    rng = random.Random(2707)
    for _ in range(150):
        hosts.append(random_graph(rng.randint(1, 10), rng.choice((0.1, 0.2, 0.35, 0.5, 0.7)), rng))
    return hosts


class TestPlans:
    """Pattern plans built once and shared trivial answers (module
    docstring, per-call work) against searches that share nothing."""

    def test_differential_against_rebuilt_plans(self):
        # (query, pattern, search order, seed filter); the anchors are the
        # last rival-free positions: F_s's first arm end, Q_t's last middle
        hub = [("fs", s, friendship(s), _arm_seed_filter(2), 1) for s in (1, 2)]
        hub += [("qt", t, quadrilaterals(t), _arm_seed_filter(3), 3 * t - 1) for t in (1, 2)]
        generic = [(complete(4), None), (cycle(5), None)]
        shared = searched = 0
        for g in plan_hosts():
            pairs = []
            for mode, param, pat, admit, anchor in hub:
                order = tuple(range(pat.n))
                run = HUB_SEARCH[mode]
                pairs.append((run(g, param), rebuilt(g, pat, order, admit)))
                bound = 2
                anchored = minor._anchored_filter(admit, anchor, bound)
                pairs.append((run(g, param, least_below=bound), rebuilt(g, pat, order, anchored)))
            for pat, order in generic:
                pairs.append((find_minor_model(g, pat), rebuilt(g, pat, order, None)))
            for got, want in pairs:
                assert got.status == want.status != EXHAUSTED, g.rows
                assert got.nodes_used == want.nodes_used, g.rows
                assert got.model == want.model, g.rows
                assert (got is minor._NOT_FOUND) == (want.nodes_used == 0), g.rows
                shared += got is minor._NOT_FOUND
                searched += got.nodes_used > 0
            for s in (1, 2):
                w = fs_subgraph_witness(g, s)
                if w is not None:
                    check_fs_witness(g, s, w)
                assert (w.center if w else None) == first_fs_center(g, s), g.rows
            for t in (1, 2):
                ans = qt_subgraph_witness(g, t)
                centers = g.n >= 3 * t + 1 and any(row.bit_count() >= 2 * t for row in g.rows)
                assert (ans is minor._NO_WITNESS) == (not centers), g.rows
                assert ans.status != EXHAUSTED and (ans.nodes_used > 0) == centers, g.rows
                if ans.status == FOUND:
                    check_qt_witness(g, t, ans.witness)
                if t == 1:
                    assert (ans.status == FOUND) == has_c4(g), g.rows
        assert shared > 1000 and searched > 1000

    def test_pattern_setup_once_per_pattern(self, monkeypatch):
        hosts = plan_hosts()
        ranked = []  # every graph whose cycle rank is computed
        real_rank = minor._cycle_rank
        monkeypatch.setattr(minor, "_cycle_rank", lambda g: ranked.append(g) or real_rank(g))
        tables = []  # the position tables of every engine, kept alive

        class Engine(_Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append((self.pos_edges, self.pos_degree))

        monkeypatch.setattr(minor, "_Engine", Engine)
        minor._hub_plan.cache_clear()
        for g in hosts:
            for s in (1, 2):
                has_fs_minor(g, s)
                has_fs_minor(g, s, least_below=2)
            for t in (1, 2):
                has_qt_minor(g, t)
        host_ids = {id(g) for g in hosts}
        assert sum(id(g) not in host_ids for g in ranked) == 4
        assert len(tables) > 1000
        assert len({id(e) for e, _ in tables}) == len({id(d) for _, d in tables}) == 4


def closure_hosts():
    """K_{2,5} plus three pendants, shaped like the benchmark's closure
    inputs, each without and with the edge between the two hubs."""
    rng = random.Random(990)
    hosts = []
    for _ in range(8):
        edges = [(u, v) for u in range(2) for v in range(2, 7)]
        edges += [(k, rng.randrange(k)) for k in range(7, 10)]
        hosts.append(Graph.from_edges(10, edges))
        hosts.append(Graph.from_edges(10, edges + [(0, 1)]))
    return hosts


class TestSearchTree:
    # sha256 over every (status, nodes_used, branch sets) below, computed
    # at commit 512ac0d, with the engine as it stood before the seeding
    # loop walked the free mask and attach/detach became methods; any
    # change to seed order, obligation order or path order moves
    # nodes_used or a model
    DIGEST = "148f4193f32596eca4683e838a4c0aac897ac3158b869fa0497bac61c56297c4"

    def test_node_counts_and_models_pinned(self):
        queries = [lambda g, s=s: has_fs_minor(g, s) for s in (1, 2)]
        queries += [lambda g, t=t: has_qt_minor(g, t) for t in (1, 2)]
        queries += [lambda g, p=p: find_minor_model(g, p) for p in (complete(4), cycle(5))]
        h = hashlib.sha256()
        for g in kernel_corpus() + closure_hosts():
            for query in queries:
                ans = query(g)
                sets = [sorted(s) for s in ans.model.branch_sets] if ans.model else None
                h.update(repr((ans.status, ans.nodes_used, sets)).encode())
        assert h.hexdigest() == self.DIGEST


class TestCycleOracles:
    def test_f1_equals_cycle_small(self):
        for n in (3, 4):
            for bits in range(1 << (n * (n - 1) // 2)):
                edges = []
                k = 0
                for u in range(n):
                    for v in range(u + 1, n):
                        if (bits >> k) & 1:
                            edges.append((u, v))
                        k += 1
                g = Graph.from_edges(n, edges)
                assert (has_fs_minor(g, 1).status == FOUND) == has_cycle(g)
                assert (has_qt_minor(g, 1).status == FOUND) == (longest_cycle(g) >= 4)

    def test_f1_equals_cycle_random(self):
        rng = random.Random(944)
        for _ in range(200):
            g = random_graph(rng.randint(5, 7), rng.choice([0.2, 0.35, 0.5]), rng)
            assert (has_fs_minor(g, 1).status == FOUND) == has_cycle(g)
            assert (has_qt_minor(g, 1).status == FOUND) == (longest_cycle(g) >= 4)


def block_sizes(g):
    """The vertex counts of the blocks of a connected graph, by a
    Hopcroft-Tarjan depth-first search; no shared code with the engine."""
    depth = [-1] * g.n
    low = [0] * g.n
    edges = []  # tree and back edges of the blocks not yet closed
    sizes = []

    def visit(u, parent):
        for v in g.neighbors(u):
            if depth[v] < 0:
                edges.append((u, v))
                depth[v] = low[v] = depth[u] + 1
                visit(v, u)
                low[u] = min(low[u], low[v])
                if low[v] >= depth[u]:  # u cuts v's subtree off: one block
                    block, edge = set(), None
                    while edge != (u, v):
                        edge = edges.pop()
                        block.update(edge)
                    sizes.append(len(block))
            elif v != parent and depth[v] < depth[u]:
                edges.append((u, v))
                low[u] = min(low[u], depth[v])

    depth[0] = 0
    visit(0, -1)
    return sizes


def check_absence_oracles(n):
    """On every connected class of order n: no K_3 minor iff a forest (a
    connected graph with n - 1 edges), no C_4 minor iff every block has at
    most 3 vertices (C_4 is 2-connected, so it is a minor of a block, and
    a 2-connected block on 4 or more vertices has a cycle that long)."""
    for g in enumerate_connected(n):
        assert has_fs_minor(g, 1).status == (NOT_FOUND if g.edge_count == n - 1 else FOUND)
        large_block = any(size > 3 for size in block_sizes(g))
        assert has_qt_minor(g, 1).status == (FOUND if large_block else NOT_FOUND)


class TestAbsenceOracles:
    def test_block_sizes(self):
        assert block_sizes(Graph.empty(1)) == []
        assert sorted(block_sizes(friendship(2))) == [3, 3]
        assert sorted(block_sizes(path_graph(4))) == [2, 2, 2]
        assert block_sizes(cycle(5)) == [5]
        # a C_4 and a triangle joined by a path of two edges
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)])
        assert sorted(block_sizes(g)) == [2, 2, 3, 4]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_class_up_to_7(self, n):
        check_absence_oracles(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [8, 9])
    def test_every_class_at_8_and_9(self, n):
        check_absence_oracles(n)


class TestMonotonicity:
    def test_minor_free_closed_under_deletion(self):
        rng = random.Random(955)
        checked = 0
        while checked < 200:
            g = random_graph(rng.randint(4, 8), rng.choice([0.25, 0.4]), rng)
            s = rng.choice([1, 2])
            if has_fs_minor(g, s).status != NOT_FOUND:
                continue
            checked += 1
            edges = list(g.edges())
            if edges:
                u, v = rng.choice(edges)
                assert has_fs_minor(g.delete_edge(u, v), s).status == NOT_FOUND
            w = rng.randrange(g.n)
            assert has_fs_minor(g.delete_vertex(w), s).status == NOT_FOUND


def check_fs_witness(g, s, w):
    assert len(w.pairs) == s
    seen = {w.center}
    for x, y in w.pairs:
        assert g.has_edge(x, y)
        assert g.has_edge(w.center, x) and g.has_edge(w.center, y)
        assert x not in seen and y not in seen
        seen |= {x, y}


def check_qt_witness(g, t, w):
    assert len(w.arms) == t
    seen = {w.center}
    for x, y, z in w.arms:
        assert g.has_edge(w.center, x) and g.has_edge(w.center, z)
        assert g.has_edge(x, y) and g.has_edge(y, z)
        assert not seen & {x, y, z}
        seen |= {x, y, z}


class TestSubgraphWitnesses:
    def test_fs_examples(self):
        assert fs_subgraph_witness(complete(4), 2) is None
        w = fs_subgraph_witness(complete(5), 2)
        check_fs_witness(complete(5), 2, w)
        g, _ = construct(FamilySpec("efgg", s=3, n=30))
        assert fs_subgraph_witness(g, 3) is None
        w = fs_subgraph_witness(g, 2)
        check_fs_witness(g, 2, w)

    def test_qt_examples(self):
        ans = qt_subgraph_witness(cycle(4), 1)
        assert ans.status == FOUND
        check_qt_witness(cycle(4), 1, ans.witness)
        assert qt_subgraph_witness(complete_bipartite(2, 3), 2).status == NOT_FOUND
        g = complete_bipartite(3, 4)
        ans = qt_subgraph_witness(g, 2)
        assert ans.status == FOUND
        check_qt_witness(g, 2, ans.witness)

    def test_subgraph_implies_minor(self):
        rng = random.Random(966)
        hits = 0
        for _ in range(150):
            g = random_graph(rng.randint(4, 8), rng.choice([0.4, 0.6]), rng)
            for s in (1, 2):
                w = fs_subgraph_witness(g, s)
                if w is not None:
                    check_fs_witness(g, s, w)
                    assert has_fs_minor(g, s).status == FOUND
                    hits += 1
            q = qt_subgraph_witness(g, 1)
            if q.status == FOUND:
                check_qt_witness(g, 1, q.witness)
                assert has_qt_minor(g, 1).status == FOUND
        assert hits > 30

    def test_witness_none_cases(self):
        assert fs_subgraph_witness(cycle(5), 1) is None  # C_5 has no triangle
        assert qt_subgraph_witness(complete(3), 1).status == NOT_FOUND


class TestStructureCheckers:
    def test_fs_extremal_example(self):
        g, _ = construct(FamilySpec("ks-join-independent", s=2, n=8))
        rep = check_structure_fs(g, {0, 1}, set(range(2, 8)))
        assert rep.bipartite_complete and rep.b_path_free
        assert rep.R == frozenset() and len(rep.D) == 6
        assert rep.max_outside_b_neighbors == 0
        assert abs(rep.delta - 0.25) < 1e-12
        assert abs(rep.d_threshold - 4.0) < 1e-12
        assert rep.d_meets_threshold

    def test_fs_planted_edge(self):
        g = complete_bipartite(2, 6).with_edge(2, 3)
        rep = check_structure_fs(g, {0, 1}, set(range(2, 8)))
        assert not rep.b_path_free

    def test_fs_outside_vertex(self):
        base = complete_bipartite(2, 6)
        g = Graph.from_edges(9, list(base.edges()) + [(8, 2), (8, 3)])
        rep = check_structure_fs(g, {0, 1}, set(range(2, 8)))
        assert rep.max_outside_b_neighbors == 2
        assert rep.R == frozenset({8})
        assert rep.D == frozenset(range(4, 8))
        assert has_fs_minor(g, 2).status == FOUND

    def test_qt_examples(self):
        g, _ = construct(FamilySpec("kt-join-matching", t=1, n=9))
        rep = check_structure_qt(g, {0}, set(range(1, 9)))
        assert rep.b_path_free and rep.bipartite_complete
        assert rep.R == frozenset()
        planted = complete_bipartite(1, 8).with_edge(1, 2).with_edge(2, 3)
        rep = check_structure_qt(planted, {0}, set(range(1, 9)))
        assert not rep.b_path_free
        two = complete_bipartite(2, 8)
        rep = check_structure_qt(two, {0, 1}, set(range(2, 10)))
        assert rep.b_path_free

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSets):
            check_structure_fs(complete(4), {0, 1}, {1, 2})
        with pytest.raises(IndexOutOfRange):
            check_structure_qt(complete(4), {0}, {9})


class TestCliqueClosure:
    def test_bipartite_base(self):
        g = complete_bipartite(2, 10)
        rep = clique_closure_check(g, {0, 1}, "fs", 2)
        assert rep.base.status == NOT_FOUND and rep.closed.status == NOT_FOUND
        assert rep.ok

    def test_pendant_variant(self):
        base = complete_bipartite(2, 10)
        g = Graph.from_edges(13, list(base.edges()) + [(12, 2)])
        rep = clique_closure_check(g, {0, 1}, "fs", 2)
        assert rep.ok

    def test_identity_closure(self):
        g = complete_bipartite(1, 9)
        rep = clique_closure_check(g, {0}, "qt", 1)
        assert rep.ok and g.with_clique({0}) == g

    def test_closure_adding_no_edge_repeats_no_proof(self):
        # 0 and 2 are already adjacent, so the closed host is the base host
        g = complete_bipartite(2, 5)
        rep = clique_closure_check(g, {0, 2}, "fs", 2)
        assert rep.base.status == NOT_FOUND and rep.base.nodes_used > 0
        assert (rep.closed.status, rep.closed.model, rep.closed.nodes_used) == (NOT_FOUND, None, 0)
        assert rep.ok

    @pytest.mark.parametrize("g,A,mode,param", [
        (complete_bipartite(1, 4), {3, 4}, "fs", 1),  # a triangle on the hub
        (path_graph(5), {0, 3}, "qt", 1),  # a C_4 on 0-1-2-3
    ])
    def test_found_model_in_original_labels(self, g, A, mode, param):
        rep = clique_closure_check(g, A, mode, param)
        assert rep.base.status == NOT_FOUND and not rep.ok
        assert rep.closed.status == FOUND
        assert verify_model(g.with_clique(A), rep.closed.model)

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            clique_closure_check(complete(5), {0, 1}, "fs", 2)
        with pytest.raises(BudgetExhausted):
            clique_closure_check(complete_bipartite(2, 10), {0, 1}, "fs", 2, node_budget=2)
        # A is checked before the base search could use up the budget
        with pytest.raises(IndexOutOfRange):
            clique_closure_check(complete_bipartite(2, 10), {0, 99}, "fs", 2, node_budget=2)
        with pytest.raises(ValueError):
            clique_closure_check(complete(3), {0}, "zz", 1)


HUB_SEARCH = {"fs": has_fs_minor, "qt": has_qt_minor}


def closure_cases(rng, count, max_n, kinds, max_a):
    """(host, mode, param, A) for random hosts free of the pattern; half
    the time A is drawn from the highest labels, where relabelling moves
    the ends of added edges furthest."""
    cases = []
    while len(cases) < count:
        n = rng.randint(5, max_n)
        mode, param = rng.choice(kinds)
        g = random_graph(n, rng.choice((0.15, 0.25, 0.35)), rng)
        if HUB_SEARCH[mode](g, param).status != NOT_FOUND:
            continue
        size = rng.randint(1, min(max_a, n))
        low = n - size - rng.randint(0, 2) if rng.random() < 0.5 else 0
        cases.append((g, mode, param, rng.sample(range(max(low, 0), n), size)))
    return cases


def check_anchored_closures(cases):
    """The anchored closed answer against the plain search of G + K_A;
    returns how many closures created the pattern."""
    found = 0
    for g, mode, param, A in cases:
        run = HUB_SEARCH[mode]
        closed = g.with_clique(A)
        got = clique_closure_check(g, A, mode, param).closed
        want = run(closed, param)
        assert got.status == want.status, (mode, param, g.rows, A)
        if got.status == FOUND:
            assert verify_model(closed, got.model), (mode, param, g.rows, A)
            found += 1
        else:
            # the anchored tree is part of the plain tree on the same host
            host, _, _ = _ends_first(g, A)
            assert got.nodes_used <= run(host, param).nodes_used, (mode, param, g.rows, A)
    return found


class TestAnchoredClosure:
    """The closed search after relabelling the ends of added edges first
    (module docstring, anchored closure) against the plain search."""

    def test_ends_first(self):
        # closing {1, 3, 4} in the path 0-1-2-3-4 adds 1-3 and 1-4, not 3-4
        host, old_label, k = _ends_first(path_graph(5), [4, 3, 1])
        assert (old_label, k) == ([1, 3, 4, 0, 2], 3)
        assert host == path_graph(5).with_clique([1, 3, 4]).relabel([3, 0, 4, 1, 2])

    def test_differential_against_plain_search(self):
        kinds = [("fs", 1), ("fs", 2), ("fs", 3), ("qt", 1), ("qt", 2)]
        cases = closure_cases(random.Random(2301), 800, 9, kinds, 5)
        assert check_anchored_closures(cases) > 100

    @pytest.mark.slow
    def test_differential_sweep(self):
        kinds = [("fs", 2), ("fs", 3), ("qt", 1), ("qt", 2)]
        cases = closure_cases(random.Random(6008), 4000, 10, kinds, 6)
        assert check_anchored_closures(cases) > 500


class TestCertificates:
    def test_round_trip(self):
        g, _ = construct(FamilySpec("ks-join-independent", s=3, n=10))
        ans = has_fs_minor(g, 2)
        assert ans.status == FOUND
        blob = json.dumps(ans.model.as_dict())
        back = MinorModel.from_dict(json.loads(blob))
        assert back == ans.model
        assert verify_model(g, back)

    def test_dict_shape(self):
        model = MinorModel(
            4, complete(3), (frozenset({0}), frozenset({1}), frozenset({2, 3}))
        )
        d = model.as_dict()
        assert set(d) == {"pattern_g6", "host_n", "branch_sets"}
        assert d["branch_sets"] == [[0], [1], [2, 3]]
