"""Graph value type: construction invariants, copy-editing operations.

The contraction and deletion cases are checked against an independent
set-based oracle (explicit label remapping on Python sets) so the bit-row
implementation never certifies itself.
"""

import itertools
import random

import pytest

from speclab.errors import IndexOutOfRange, NotAnEdge, SizeLimitExceeded
from speclab.graph import (
    Graph,
    component_masks,
    disjoint_union,
    is_connected,
    iter_bits,
    join,
)


# -- independent oracle: graphs as frozensets of edge pairs ----------------


def oracle_contract(n, edges, u, v):
    """Contract u-v on an edge set; returns (n', edge set) with shift-down labels."""
    assert (u, v) in edges or (v, u) in edges
    a, b = min(u, v), max(u, v)

    def remap(w):
        if w in (u, v):
            w = a
        if w > b:
            w -= 1
        return w

    out = set()
    for x, y in edges:
        if {x, y} == {u, v}:
            continue
        p, q = remap(x), remap(y)
        assert p != q
        out.add((min(p, q), max(p, q)))
    return n - 1, out

def oracle_delete_vertex(n, edges, u):
    out = set()
    for x, y in edges:
        if u in (x, y):
            continue
        p = x - 1 if x > u else x
        q = y - 1 if y > u else y
        out.add((min(p, q), max(p, q)))
    return n - 1, out

def edge_set(g):
    return set(g.edges())

def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def edge_by_edge_graph(rows):
    """The edge count Graph(rows) gives, by the checker Graph used before
    its transpose test: each bit above the diagonal looks up its mirror,
    and the bit total catches an unmirrored bit below it."""
    n = len(rows)
    total = edge_count = 0
    for u, r in enumerate(rows):
        if r < 0 or r >> n:
            raise ValueError(f"row {u} has bits outside 0..{n - 1}")
        if (r >> u) & 1:
            raise ValueError(f"loop at vertex {u}")
        total += r.bit_count()
        m = r >> (u + 1) << (u + 1)
        edge_count += m.bit_count()
        for v in iter_bits(m):
            if not (rows[v] >> u) & 1:
                raise ValueError(f"edge {u}-{v} present in one direction only")
    if total != 2 * edge_count:
        raise ValueError("adjacency rows are not symmetric")
    return edge_count


def outcome(build, rows):
    try:
        got = build(rows)
    except ValueError as exc:
        return type(exc), str(exc)
    return got.edge_count if isinstance(got, Graph) else got


# -- construction ----------------------------------------------------------


class TestConstruction:
    def test_from_edges_counts(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
        assert g.n == 4
        assert g.edge_count == 3  # duplicate collapses
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph([0b010, 0b000, 0b000])
        # an unmirrored bit above the diagonal fails the walk itself
        with pytest.raises(ValueError, match="one direction only"):
            Graph([0b110, 0b000, 0b000])
        # vertex 2 lists 0 and 1, neither lists 2: the bit count, 4, is even,
        # but the walk above the diagonal counts only the edge 0-1
        with pytest.raises(ValueError, match="not symmetric"):
            Graph([0b010, 0b001, 0b011])

    @pytest.mark.parametrize("fault", ["none", "flips", "loop", "wide", "negative"])
    def test_matches_edge_by_edge_checker(self, fault):
        # one kind of fault per row set, so both checkers meet the same one
        rng = random.Random(f"symmetry/{fault}")
        for n in range(0 if fault == "none" else 2, 65):
            for _ in range(8):
                rows = list(random_graph(rng, n, rng.choice((0.1, 0.5, 0.9))).rows)
                u = rng.randrange(n) if n else 0
                if fault == "flips":
                    for _ in range(rng.randint(1, 3)):
                        u, v = rng.sample(range(n), 2)
                        rows[u] ^= 1 << v
                elif fault == "loop":
                    rows[u] |= 1 << u
                elif fault == "wide":
                    rows[u] |= 1 << rng.choice((n, n + 1, n + 9, 2 * n + 70))
                elif fault == "negative":
                    rows[u] = -1 - rows[u]
                got, want = outcome(Graph, rows), outcome(edge_by_edge_graph, rows)
                if fault == "negative":
                    # the negative row also breaks the mirrors of the rows
                    # before it, which the edge-by-edge checker meets first
                    got, want = got[0], want[0]
                assert got == want, rows

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph([0b001, 0b000, 0b000])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph([0b100, 0b000])  # bit beyond n

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            Graph.empty(4097)

    def test_equality_and_hash(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.from_edges(3, [(1, 0)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != Graph.from_edges(3, [(0, 2)])

    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


# -- operations against the oracle -----------------------------------------


class TestContract:
    def test_triangle_to_edge(self):
        g = complete(3).contract_edge(0, 1)
        assert g.n == 2 and g.edge_count == 1

    def test_c4_to_triangle(self):
        g = cycle(4).contract_edge(0, 1)
        assert g.n == 3 and g.edge_count == 3
        assert g == complete(3)

    def test_k32_example(self):
        # a1 = vertex 0 (3-side), b1 = vertex 3 (2-side)
        g = complete_bipartite(3, 2).contract_edge(0, 3)
        assert g.n == 4
        assert g.edge_count == 5
        assert g.degree_sequence() == (3, 3, 2, 2)

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            complete_bipartite(2, 2).contract_edge(0, 1)
        with pytest.raises(IndexOutOfRange):
            complete(3).contract_edge(0, 5)

    def test_edge_count_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            es = list(g.edges())
            if not es:
                continue
            u, v = es[rng.randrange(len(es))]
            common = (g.rows[u] & g.rows[v]).bit_count()
            h = g.contract_edge(u, v)
            assert h.edge_count == g.edge_count - 1 - common

    def test_matches_oracle(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            es = list(g.edges())
            if not es:
                continue
            u, v = es[rng.randrange(len(es))]
            if rng.random() < 0.5:
                u, v = v, u
            _, expect = oracle_contract(n, edge_set(g), u, v)
            assert edge_set(g.contract_edge(u, v)) == expect


class TestDelete:
    def test_delete_vertex_shiftdown(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).delete_vertex(1)
        assert g.n == 3
        assert edge_set(g) == {(1, 2)}  # old 2-3 becomes 1-2

    def test_delete_vertex_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            u = rng.randrange(n)
            _, expect = oracle_delete_vertex(n, edge_set(g), u)
            assert edge_set(g.delete_vertex(u)) == expect

    def test_delete_edge(self):
        g = complete(3).delete_edge(0, 2)
        assert g.edge_count == 2
        with pytest.raises(NotAnEdge):
            g.delete_edge(0, 2)

    def test_with_edge_and_clique(self):
        g = Graph.empty(4).with_edge(0, 1).with_edge(0, 1)
        assert g.edge_count == 1
        h = g.with_clique([1, 2, 3])
        assert h.edge_count == 4
        with pytest.raises(NotAnEdge):
            g.with_edge(2, 2)


class TestJoinUnion:
    def test_union_sizes(self):
        g = disjoint_union(complete(3), cycle(4))
        assert g.n == 7 and g.edge_count == 7
        assert not g.has_edge(0, 5)

    def test_join_is_complete_bipartite_on_empties(self):
        g = join(Graph.empty(3), Graph.empty(4))
        assert g == complete_bipartite(3, 4)
        assert g.edge_count == 12

    def test_join_friendship_shape(self):
        # K_1 joined with two disjoint edges: 5 vertices, 6 edges
        pairs = Graph.from_edges(4, [(0, 1), (2, 3)])
        g = join(Graph.empty(1), pairs)
        assert g.n == 5 and g.edge_count == 6
        assert g.degree(0) == 4

    def test_join_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            join(Graph.empty(4000), Graph.empty(100))

    def test_induced_subgraph(self):
        g = cycle(5)
        h, labels = g.induced_subgraph([0, 1, 3])
        assert labels == (0, 1, 3)
        assert edge_set(h) == {(0, 1)}
        rng = random.Random(43)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12), 0.5)
            members = [v for v in range(g.n) if rng.random() < 0.6]
            h, labels = g.induced_subgraph(members)
            assert labels == tuple(members)
            pairs = itertools.combinations(range(h.n), 2)
            assert edge_set(h) == {(i, j) for i, j in pairs if g.has_edge(labels[i], labels[j])}

    def test_relabel_preserves_structure(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert h.edge_count == g.edge_count
            for u, v in g.edges():
                assert h.has_edge(perm[u], perm[v])


class TestConnectivity:
    def test_components(self):
        g = disjoint_union(complete(3), Graph.empty(2))
        masks = component_masks(g.rows, (1 << g.n) - 1)
        assert masks == [0b00111, 0b01000, 0b10000]
        # within: g minus vertex 1, and the path 0-1-2-3-4 minus vertex 2
        assert component_masks(g.rows, 0b11101) == [0b00101, 0b01000, 0b10000]
        p = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert component_masks(p.rows, 0b11011) == [0b00011, 0b11000]
        assert not is_connected(g)
        assert is_connected(complete(3))
        assert is_connected(Graph.empty(1))
        assert is_connected(Graph.empty(0))

    def test_operation_outputs_validate(self):
        # every op output passes construction checks by construction; spot
        # check symmetry and counts survive a chain of edits
        rng = random.Random(41)
        g = random_graph(rng, 9, 0.4)
        for _ in range(50):
            es = list(g.edges())
            move = rng.randrange(3)
            if move == 0 and es:
                u, v = es[rng.randrange(len(es))]
                g = g.contract_edge(u, v)
            elif move == 1 and g.n > 1:
                g = g.delete_vertex(rng.randrange(g.n))
            elif es:
                u, v = es[rng.randrange(len(es))]
                g = g.delete_edge(u, v)
            if g.n < 4:
                g = disjoint_union(g, random_graph(rng, 5, 0.5))
            total = sum(r.bit_count() for r in g.rows)
            assert total == 2 * g.edge_count
