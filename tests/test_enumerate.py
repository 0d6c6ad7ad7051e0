import hashlib
from itertools import permutations

import pytest

from speclab.enumerate import (
    _aut_generators,
    enumerate_connected,
    enumerate_connected_slice,
)
from speclab.errors import SizeLimitExceeded
from speclab.graph import Graph, canonical_code, is_connected


def labeled_connected_classes(n):
    """Brute force over all labeled graphs, deduplicated by canonical code."""
    codes = set()
    pair_count = n * (n - 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << pair_count):
        rows = [0] * n
        for k, (u, v) in enumerate(pairs):
            if (bits >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(tuple(rows))
        if is_connected(g):
            codes.add(canonical_code(g))
    return codes


class TestEnumeration:
    def test_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, want in expected.items():
            assert sum(1 for _ in enumerate_connected(n)) == want

    def test_count_n8(self):
        assert sum(1 for _ in enumerate_connected(8)) == 11117

    def test_exact_class_sets_small(self):
        for n in range(1, 7):
            want = labeled_connected_classes(n)
            got = [canonical_code(g) for g in enumerate_connected(n)]
            assert len(got) == len(set(got))  # no duplicates
            assert set(got) == want  # nothing missing, nothing extra

    def test_outputs_are_connected_on_n_vertices(self):
        for g in enumerate_connected(7):
            assert g.n == 7
            assert is_connected(g)

    def test_no_duplicates_n7(self):
        codes = [canonical_code(g) for g in enumerate_connected(7)]
        assert len(codes) == len(set(codes))

    def test_tree_and_regular_counts(self):
        # unlabeled trees on 7 vertices, and cubic graphs on 8
        trees = [g for g in enumerate_connected(7) if g.edge_count == 6]
        assert len(trees) == 11
        cubic = [
            g
            for g in enumerate_connected(8)
            if all(g.degree(v) == 3 for v in range(g.n))
        ]
        assert len(cubic) == 5

    def test_deterministic_order(self):
        first = [g.rows for g in enumerate_connected(6)]
        second = [g.rows for g in enumerate_connected(6)]
        assert first == second

    def test_limits(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(0))
        with pytest.raises(SizeLimitExceeded):
            enumerate_connected(11)

    def test_pinned_order(self):
        # graphs and order as produced by per-child canonical-code dedup
        pinned = {
            7: "1a20657b3241ba8f62a20aecd97a5f6ed8d215248f6f3ca2ef6643ead6cbcbb8",
            8: "da10e8f78685a54d1e7303af17645375a7b8f99161a8377ffaef38763ccea922",
        }
        for n, digest in pinned.items():
            rows = [g.rows for g in enumerate_connected(n)]
            assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("parts", [2, 3])
    def test_slices_partition(self, n, parts):
        full = [g.rows for g in enumerate_connected(n)]
        sliced = [g.rows for k in range(parts) for g in enumerate_connected_slice(n, k, parts)]
        assert sorted(sliced) == sorted(full)

    def test_slice_limits(self):
        for part, parts in [(0, 0), (2, 2), (-1, 2)]:
            with pytest.raises(ValueError):
                enumerate_connected_slice(5, part, parts)
        assert [g.rows for g in enumerate_connected_slice(1, 1, 2)] == []


def unpruned_children(rows):
    """Every connected one-vertex extension, no acceptance test, no dedup."""
    m = len(rows)
    for subset in range(1, 1 << m):
        child = [r | (1 << m) if (subset >> i) & 1 else r for i, r in enumerate(rows)]
        yield Graph(tuple(child) + (subset,))


def brute_force_aut_count(g):
    edges = set(g.edges())
    return sum(
        1
        for p in permutations(range(g.n))
        if all(tuple(sorted((p[u], p[v]))) in edges for u, v in edges)
    )


def group_closure(gens, n):
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[h[v]] for v in range(n))
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


class TestOrbitDedup:
    def test_differential_against_unpruned_n7(self):
        # every connected 7-vertex graph has a non-cut vertex, so it is a
        # child of some connected 6-vertex graph
        unpruned = {canonical_code(c) for g in enumerate_connected(6) for c in unpruned_children(g.rows)}
        got = [canonical_code(g) for g in enumerate_connected(7)]
        assert len(got) == len(set(got))
        assert set(got) == unpruned

    def test_generators_close_to_full_group(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                gens = _aut_generators(g.rows, n)
                for p in gens:
                    assert g.relabel(p) == g
                assert len(group_closure(gens, n)) == brute_force_aut_count(g)
