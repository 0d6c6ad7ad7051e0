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

from itertools import repeat
from operator import add
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


def _transpose_masks(size: int) -> tuple:
    """What transposes a size x size bit matrix packed row by row, size
    bits a row, for size a power of two >= 8: the delta swaps (shift,
    mask) that exchange the upper right and lower left b x b blocks of
    every 2b x 2b block, for b = size/2 down to 1 (Warren, Hacker's
    Delight, 2nd ed., section 7-3), and the mask of the diagonal."""
    width = size // 8
    swaps = []
    b = size // 2
    while b:
        blocks = size // (2 * b)
        # columns c with c mod 2b >= b, on the rows r with r mod 2b < b
        row = int(("1" * b + "0" * b) * blocks, 2).to_bytes(width, "little")
        mask = int.from_bytes((row * b + bytes(width * b)) * blocks, "little")
        swaps.append((b * (size - 1), mask))
        b //= 2
    diagonal = int("1" + ("0" * size + "1") * (size - 1), 2)
    return tuple(swaps), diagonal


# the masks of small matrices, which every enumerated graph needs; larger
# ones are built per call, in time linear in their size
_TRANSPOSE_MASKS = {size: _transpose_masks(size) for size in (8, 16, 32, 64)}


def _invalid_rows(rows: tuple, transpose: int | None, size: int) -> ValueError:
    """The error for rows that Graph rejects, given the transpose of their
    packed matrix, which is None when a row did not fit size bits."""
    n = len(rows)
    for u, r in enumerate(rows):
        if r < 0 or r >> n:
            return ValueError(f"row {u} has bits outside 0..{n - 1}")
        if (r >> u) & 1:
            return ValueError(f"loop at vertex {u}")
    width = size // 8
    packed = transpose.to_bytes(size * width, "little")
    for u, r in enumerate(rows):
        column = int.from_bytes(packed[u * width : (u + 1) * width], "little")
        lone = (r & ~column) >> (u + 1)
        if lone:
            v = u + (lone & -lone).bit_length()
            return ValueError(f"edge {u}-{v} present in one direction only")
    return ValueError("adjacency rows are not symmetric")


class Graph:
    """Simple undirected graph; no loops, no multi-edges, vertices 0..n-1."""

    __slots__ = ("n", "rows", "edge_count")

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        n = len(rows)
        if n > MAX_VERTICES:
            raise SizeLimitExceeded(f"{n} vertices exceeds the cap of {MAX_VERTICES}")
        # the matrix as one int, row u at bits u*size.., padded with empty
        # rows to size x size, equals its transpose iff it is symmetric and
        # no row has a bit in columns n..size-1; to_bytes rejects a
        # negative row or one wider than size bits
        size = max(8, 1 << (n - 1).bit_length())
        swaps, diagonal = _TRANSPOSE_MASKS.get(size) or _transpose_masks(size)
        try:
            packed = b"".join(map(int.to_bytes, rows, repeat(size // 8), repeat("little")))
        except OverflowError:
            raise _invalid_rows(rows, None, size) from None
        m = t = int.from_bytes(packed, "little")
        for shift, mask in swaps:
            d = (t ^ (t >> shift)) & mask
            t ^= d | (d << shift)
        if t != m or m & diagonal:
            raise _invalid_rows(rows, t, size)
        self.n = n
        self.rows = rows
        self.edge_count = m.bit_count() // 2

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
        keep = sum(1 << u for u in order)
        rows = [0] * len(order)
        for i, u in enumerate(order):
            for w in iter_bits(self.rows[u] & keep):
                rows[i] |= 1 << pos[w]
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


def component_masks(rows: tuple[int, ...], within: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced on `within`,
    by smallest member, from a breadth-first search over set bits."""
    comps = []
    while within:
        comp = frontier = within & -within
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & within & ~comp
            comp |= frontier
        comps.append(comp)
        within ^= comp
    return comps

def is_connected(g: Graph) -> bool:
    return len(component_masks(g.rows, (1 << g.n) - 1)) <= 1


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
#
# Under a labelling, graph6 lists each position's column: its adjacency to
# the positions before it, the first position first.  Read as ints, the
# column lists of two graphs of one order compare as their graph6 codes do.


def _descent(rows: tuple[int, ...], bound: list[int] | None = None):
    """The pruned permutation descent behind the canonical code.

    Positions are filled left to right; at each position only the vertices
    whose column against the placed prefix is least can continue (an
    earlier larger column dominates everything after it), interchangeable
    twins are explored once, and subtrees that fall behind the incumbent
    are cut.  Each free vertex's column grows by one bit per placement.

    Without bound it returns the least column list and the first
    labelling reaching it, as the vertices in position order.  Given
    bound, the column list of a graph of the same order, it returns the
    sign of the least column list minus bound: -1 as soon as a least
    column falls below bound's, 0 on reaching a full labelling equal to
    bound, 1 once every branch has gone above it.
    """
    n = len(rows)
    if n > CANONICAL_MAX_VERTICES:
        raise SizeLimitExceeded(
            f"canonical code supports up to {CANONICAL_MAX_VERTICES} vertices, got {n}"
        )
    best = bound
    best_perm: list[int] | None = None
    placed: list[int] = []
    cols: list[int] = []
    adj = [[r >> v & 1 for r in rows] for v in range(n)]  # adj[v][u]: u ~ v

    def descend(free: list[int], mask: int, col: list[int]) -> int | None:
        # free: the unplaced vertices, ascending, and mask their bits;
        # col[v]: v's column against the placed prefix.  Returns the sign
        # once a bounded descent is decided, else None.
        nonlocal best, best_perm
        k = len(placed)
        if k == n:
            if bound is not None:
                return 0
            if best is None or cols < best:
                best = cols.copy()
                best_perm = placed.copy()
            return None
        mincol = min(map(col.__getitem__, free))
        # the path prefix is never lexicographically above the incumbent
        # (improvements while inside this node come from its own subtree,
        # which shares the prefix), so only the tight case needs a cut; a
        # bounded descent stops below bound, so its every node is tight
        if bound is not None or best is not None and cols == best[:k]:
            if mincol > best[k]:
                return None
            if mincol < best[k] and bound is not None:
                return -1
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        cols.append(mincol)
        for i, v in enumerate(free):
            if col[v] != mincol:
                continue
            om = rows[v] & mask
            cm = om | (1 << v)
            if om in seen_open or cm in seen_closed:
                continue
            seen_open.add(om)
            seen_closed.add(cm)
            placed.append(v)
            # every column gains v's bit: 2 col + adj[v]
            grown = list(map(add, col, map(add, col, adj[v])))
            sign = descend(free[:i] + free[i + 1 :], mask ^ (1 << v), grown)
            if sign is not None:
                return sign
            placed.pop()
        cols.pop()
        return None

    sign = descend(list(range(n)), (1 << n) - 1, [0] * n)
    if bound is not None:
        return 1 if sign is None else sign
    return best, best_perm


def least_columns(rows: tuple[int, ...]) -> list[int]:
    """The column list of the canonical labelling, the least over all
    relabelings (n <= 10)."""
    return _descent(rows)[0]


def compare_least(rows: tuple[int, ...], bound: list[int]) -> int:
    """The sign of least_columns(rows) minus bound, the least column list
    of a graph of the same order, compared as lists, that is of their
    canonical codes compared as bytes; the descent stops at the first
    least column below bound's and follows no branch above it."""
    return _descent(rows, bound)


def canonical_perm(g: Graph) -> tuple[int, ...]:
    """A relabeling old->position realizing the canonical (minimum) g6 code."""
    _, order = _descent(g.rows)
    out = [0] * g.n
    for pos, v in enumerate(order):
        out[v] = pos
    return tuple(out)


def canonical_code(g: Graph) -> bytes:
    """Minimum g6 code over all relabelings; equal iff isomorphic (n <= 10)."""
    return g6_encode(g.relabel(canonical_perm(g)))
