"""Immutable simple-graph values on dense bit-row adjacency.

A graph on n vertices (n <= 4096) is stored as a tuple of n Python ints;
bit v of ``rows[u]`` is set iff u and v are adjacent.  Arbitrary-precision
ints make row union, intersection and popcount cheap, which is what the
minor search and the enumeration machinery lean on.  Values are immutable:
every operation returns a fresh Graph, and vertex deletion or contraction
repacks the surviving indices downward in a fixed way, so certificates
built against an operation's output are reproducible byte-for-byte.

The module also carries the graph6 codec (one-byte header for n <= 62,
'~'-prefixed 18-bit header above that, upper-triangle column-major bit
order, zero padding) and a canonical code for n <= 10: the minimum g6
string over all relabelings, found by a pruned permutation descent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    IndexOutOfRange,
    MalformedGraph6,
    NotAnEdge,
    SizeLimitExceeded,
)

MAX_VERTICES = 4096
CANONICAL_MAX_VERTICES = 10


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph; no loops, no multi-edges, vertices 0..n-1."""

    __slots__ = ("n", "rows", "edge_count")

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        n = len(rows)
        if n > MAX_VERTICES:
            raise SizeLimitExceeded(f"{n} vertices exceeds the cap of {MAX_VERTICES}")
        total = 0
        edge_count = 0
        for u, r in enumerate(rows):
            if r < 0 or r >> n:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (r >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
            total += r.bit_count()
            # every bit above the diagonal needs its mirror; the total check
            # below then leaves no room for an unmirrored bit under it
            m = r >> (u + 1) << (u + 1)
            edge_count += m.bit_count()
            while m:
                low = m & -m
                v = low.bit_length() - 1
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"edge {u}-{v} present in one direction only")
                m ^= low
        if total != 2 * edge_count:
            raise ValueError("adjacency rows are not symmetric")
        self.n = n
        self.rows = rows
        self.edge_count = edge_count

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls([0] * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows)

    # -- queries -----------------------------------------------------------

    def check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise IndexOutOfRange(f"vertex {u} outside 0..{self.n - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        self.check_vertex(u)
        return self.rows[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        self.check_vertex(u)
        return list(iter_bits(self.rows[u]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                yield (u, low.bit_length() - 1)
                m ^= low

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count})"

    # -- single-graph operations ------------------------------------------

    def delete_vertex(self, u: int) -> "Graph":
        """Remove u; vertices above u shift down by one."""
        self.check_vertex(u)
        low = (1 << u) - 1
        rows = []
        for w in range(self.n):
            if w == u:
                continue
            r = self.rows[w]
            rows.append((r & low) | ((r >> (u + 1)) << u))
        return Graph(rows)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise NotAnEdge(f"{u}-{v} is not an edge")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(rows)

    def with_edge(self, u: int, v: int) -> "Graph":
        """Add edge u-v (idempotent)."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise NotAnEdge("cannot add a loop")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(rows)

    def with_clique(self, members: Iterable[int]) -> "Graph":
        """Add all edges among members (idempotent)."""
        mem = list(members)
        for u in mem:
            self.check_vertex(u)
        rows = list(self.rows)
        mask = 0
        for u in mem:
            mask |= 1 << u
        for u in mem:
            rows[u] |= mask & ~(1 << u)
        return Graph(rows)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of edge u-v.

        The merged vertex sits at min(u, v); max(u, v) is removed and the
        higher indices shift down.  Parallel edges collapse, so the result
        has exactly e - 1 - |N(u) & N(v)| edges.
        """
        if not self.has_edge(u, v):
            raise NotAnEdge(f"{u}-{v} is not an edge")
        a, b = (u, v) if u < v else (v, u)
        merged = (self.rows[u] | self.rows[v]) & ~(1 << u) & ~(1 << v)
        low = (1 << b) - 1
        rows = []
        for w in range(self.n):
            if w == b:
                continue
            r = merged if w == a else self.rows[w]
            if w != a:
                adj = (r >> a) & 1 | (r >> b) & 1
                r = (r & ~(1 << a) & ~(1 << b)) | (adj << a)
            rows.append((r & low) | ((r >> (b + 1)) << b))
        return Graph(rows)

    def induced_subgraph(self, members: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced on members; returns (graph, new-to-old labels)."""
        order = sorted(set(members))
        for u in order:
            self.check_vertex(u)
        pos = {u: i for i, u in enumerate(order)}
        rows = [0] * len(order)
        for i, u in enumerate(order):
            for w in iter_bits(self.rows[u]):
                j = pos.get(w)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(rows), tuple(order)

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Relabel with perm[old] = new; perm must be a permutation of 0..n-1."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex range")
        rows = [0] * self.n
        for u in range(self.n):
            r = 0
            for w in iter_bits(self.rows[u]):
                r |= 1 << perm[w]
            rows[perm[u]] = r
        return Graph(rows)


# -- two-graph operations --------------------------------------------------


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 + g2 on disjoint vertex sets; g2's labels shift up by g1.n."""
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return Graph(rows)

def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << g2.n) - 1) << g1.n
    rows = [r | mask2 for r in g1.rows]
    rows += [(r << g1.n) | mask1 for r in g2.rows]
    return Graph(rows)


# -- connectivity ----------------------------------------------------------


def reachable_mask(rows: tuple[int, ...], start_mask: int, within: int) -> int:
    """All vertices of `within` reachable from start_mask inside `within`."""
    seen = start_mask & within
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen

def component_masks(rows: tuple[int, ...], within: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced on `within`,
    by smallest member."""
    comps = []
    while within:
        comp = reachable_mask(rows, within & -within, within)
        comps.append(comp)
        within &= ~comp
    return comps

def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    full = (1 << g.n) - 1
    return reachable_mask(g.rows, 1, full) == full


# -- graph6 codec ----------------------------------------------------------


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 18-bit size, three 6-bit groups, covers everything up to the cap
    return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])


# graph6 payload byte <-> its six bits, most significant first
_BYTE_OF_CHUNK = {format(x, "06b"): 63 + x for x in range(64)}
_CHUNK_OF_BYTE = {63 + x: format(x, "06b") for x in range(64)}


def g6_encode(g: Graph) -> bytes:
    """graph6 bytes: header, then upper-triangle bits column by column.

    Column v is the low v bits of rows[v], bit (0,v) first, so each is one
    reversed binary string and the payload is linear in n(n-1)/2.
    """
    n = g.n
    bits = "".join(
        format(g.rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)
    )
    bits += "0" * (-len(bits) % 6)
    payload = bytes([_BYTE_OF_CHUNK[bits[i : i + 6]] for i in range(0, len(bits), 6)])
    return _g6_header(n) + payload


def g6_decode(data: bytes | str) -> Graph:
    """Inverse of g6_encode; rejects bad bytes and nonzero padding."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if not data:
        raise MalformedGraph6("empty input")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise MalformedGraph6("36-bit sizes exceed the supported cap")
        if len(data) < 4:
            raise MalformedGraph6("truncated multi-byte size")
        parts = [b - 63 for b in data[1:4]]
        if any(p < 0 or p > 63 for p in parts):
            raise MalformedGraph6("size byte out of range")
        n = (parts[0] << 12) | (parts[1] << 6) | parts[2]
        if n <= 62:
            raise MalformedGraph6("multi-byte size used for a small graph")
        body = data[4:]
    else:
        n = data[0] - 63
        if n < 0:
            raise MalformedGraph6("size byte out of range")
        body = data[1:]
    if n > MAX_VERTICES:
        raise SizeLimitExceeded(f"{n} vertices exceeds the cap of {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise MalformedGraph6(f"expected {expect} payload bytes, got {len(body)}")
    try:
        bits = "".join([_CHUNK_OF_BYTE[b] for b in body])
    except KeyError:
        raise MalformedGraph6("payload byte out of range") from None
    if "1" in bits[nbits:]:
        raise MalformedGraph6("nonzero padding bits")
    # the lower triangle as an n x n string: line v is column v (bit u at
    # index u) padded with zeros, so grid[v::n] is the rest of row v
    lines = []
    at = 0
    for v in range(n):
        lines.append(bits[at : at + v] + "0" * (n - v))
        at += v
    grid = "".join(lines)
    rows = [int(lines[v][::-1], 2) | int(grid[v::n][::-1], 2) for v in range(n)]
    return Graph(rows)


# -- canonical code --------------------------------------------------------


def canonical_perm(g: Graph) -> tuple[int, ...]:
    """A relabeling old->position realizing the canonical (minimum) g6 code.

    Positions are filled left to right; at each position only the vertices
    whose adjacency column against the placed prefix is lexicographically
    minimal can continue (an earlier larger column dominates everything
    after it), interchangeable twins are explored once, and subtrees that
    fall behind the incumbent are cut.
    """
    n = g.n
    if n > CANONICAL_MAX_VERTICES:
        raise SizeLimitExceeded(
            f"canonical code supports up to {CANONICAL_MAX_VERTICES} vertices, got {n}"
        )
    if n <= 1:
        return tuple(range(n))
    rows = g.rows
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    placed: list[int] = []
    cols: list[int] = []

    def descend(free: int) -> None:
        nonlocal best_cols, best_perm
        k = len(placed)
        if k == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols.copy()
                best_perm = placed.copy()
            return
        mincol = None
        cands: list[int] = []
        m = free
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rv = rows[v]
            col = 0
            for p in placed:
                col = (col << 1) | ((rv >> p) & 1)
            if mincol is None or col < mincol:
                mincol = col
                cands = [v]
            elif col == mincol:
                cands.append(v)
        # the path prefix is never lexicographically above the incumbent
        # (improvements while inside this node come from its own subtree,
        # which shares the prefix), so only the tight case needs a cut
        if best_cols is not None and cols == best_cols[:k] and mincol > best_cols[k]:
            return
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        cols.append(mincol)
        for v in cands:
            om = rows[v] & free
            cm = om | (1 << v)
            if om in seen_open or cm in seen_closed:
                continue
            seen_open.add(om)
            seen_closed.add(cm)
            placed.append(v)
            descend(free ^ (1 << v))
            placed.pop()
        cols.pop()

    descend((1 << n) - 1)
    assert best_perm is not None
    out = [0] * n
    for pos, v in enumerate(best_perm):
        out[v] = pos
    return tuple(out)

def canonical_code(g: Graph) -> bytes:
    """Minimum g6 code over all relabelings; equal iff isomorphic (n <= 10)."""
    return g6_encode(g.relabel(canonical_perm(g)))
