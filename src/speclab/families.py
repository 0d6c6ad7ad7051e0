"""Named graph families and the extremal constructions.

Families are addressed by a FamilySpec (kind plus integer parameters,
with a canonical text form like ``friendship:s=3`` or
``kt-join-matching:t=2,n=40``).  construct() returns the graph together
with a Layout naming the vertex blocks, labeled deterministically:
hub/clique vertices first, then the remaining blocks in order.

The windmill family ``friendship`` (s triangles sharing one hub, K_1
joined with s disjoint edges) and ``intersecting-c4`` (t quadrilaterals
sharing one hub) are the forbidden patterns; ``ks-join-independent``
(K_s joined with an independent set) and ``kt-join-matching`` (K_t
joined with a near-perfect matching) are the conjectured spectral
maximizers among hosts excluding them as minors.  ``efgg`` and ``zlx``
are the edge-extremal constructions: a balanced complete bipartite graph
with a small graph embedded in one side - two disjoint cliques K_s for
odd s, and for even s either a near-regular graph on 2s-1 vertices
(degree sequence (s-1, ..., s-1, s-2), realized by a deterministic
Havel-Hakimi pass) or the hand-built ``hstar`` graph with the same size
and edge count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpec
from .graph import Graph, join

# which parameters each kind takes, in canonical text order
_PARAMS = {
    "complete": ("n",),
    "independent": ("n",),
    "complete-bipartite": ("a", "b"),
    "path": ("n",),
    "cycle": ("n",),
    "matching": ("t",),
    "friendship": ("s",),
    "intersecting-c4": ("t",),
    "ks-join-independent": ("s", "n"),
    "kt-join-matching": ("t", "n"),
    "efgg": ("s", "n"),
    "hstar": ("s",),
    "zlx": ("s", "n"),
    "near-regular": ("s",),
}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    s: int | None = None
    t: int | None = None
    n: int | None = None
    a: int | None = None
    b: int | None = None

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise InvalidSpec(f"unknown family kind {self.kind!r}")
        want = _PARAMS[self.kind]
        for name in ("s", "t", "n", "a", "b"):
            val = getattr(self, name)
            if name in want:
                if not isinstance(val, int):
                    raise InvalidSpec(f"{self.kind} requires integer {name}")
            elif val is not None:
                raise InvalidSpec(f"{self.kind} takes no parameter {name}")
        _check_ranges(self)

    def text(self) -> str:
        parts = ",".join(f"{p}={getattr(self, p)}" for p in _PARAMS[self.kind])
        return f"{self.kind}:{parts}" if parts else self.kind


def _check_ranges(spec: FamilySpec) -> None:
    k = spec.kind
    if k in ("complete", "independent", "path"):
        if spec.n < 0:
            raise InvalidSpec(f"{k} needs n >= 0")
    elif k == "cycle":
        if spec.n < 3:
            raise InvalidSpec("cycle needs n >= 3")
    elif k == "matching":
        if spec.t < 1:
            raise InvalidSpec("matching needs t >= 1")
    elif k == "friendship":
        if spec.s < 1:
            raise InvalidSpec("friendship needs s >= 1")
    elif k == "intersecting-c4":
        if spec.t < 1:
            raise InvalidSpec("intersecting-c4 needs t >= 1")
    elif k == "complete-bipartite":
        if spec.a < 1 or spec.b < 1:
            raise InvalidSpec("complete-bipartite needs a, b >= 1")
    elif k == "ks-join-independent":
        if not 1 <= spec.s < spec.n:
            raise InvalidSpec("ks-join-independent needs 1 <= s < n")
    elif k == "kt-join-matching":
        if not 1 <= spec.t < spec.n:
            raise InvalidSpec("kt-join-matching needs 1 <= t < n")
    elif k == "efgg":
        if spec.s < 1:
            raise InvalidSpec("efgg needs s >= 1")
        if spec.s % 2 == 1 and spec.n < 4 * spec.s:
            raise InvalidSpec("efgg with odd s needs n >= 4s")
        if spec.s % 2 == 0 and spec.n < 2 * (2 * spec.s - 1):
            raise InvalidSpec("efgg with even s needs n >= 2(2s-1)")
    elif k in ("hstar", "near-regular"):
        if spec.s < 2 or spec.s % 2:
            raise InvalidSpec(f"{k} needs even s >= 2")
    elif k == "zlx":
        if spec.s < 1:
            raise InvalidSpec("zlx needs s >= 1")
        if spec.n < 2 * (2 * spec.s - 1) or spec.n < 4 * spec.s:
            raise InvalidSpec("zlx needs n >= 2(2s-1) and n >= 4s")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form, e.g. ``efgg:s=3,n=450``."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            name, eq, val = item.partition("=")
            name = name.strip()
            if not eq or name not in ("s", "t", "n", "a", "b"):
                raise InvalidSpec(f"bad parameter {item!r} in {text!r}")
            if name in kwargs:
                raise InvalidSpec(f"repeated parameter {name!r} in {text!r}")
            try:
                kwargs[name] = int(val)
            except ValueError:
                raise InvalidSpec(f"non-integer value in {item!r}") from None
    return FamilySpec(kind, **kwargs)


@dataclass(frozen=True)
class Layout:
    """Named vertex blocks of a constructed graph; regions partition 0..n-1."""

    n: int
    regions: dict[str, frozenset[int]]

    def __post_init__(self):
        seen: set[int] = set()
        for name, members in self.regions.items():
            if seen & members:
                raise InvalidSpec(f"layout region {name} overlaps another region")
            if any(not 0 <= v < self.n for v in members):
                raise InvalidSpec(f"layout region {name} outside 0..{self.n - 1}")
            seen |= members
        if len(seen) != self.n:
            raise InvalidSpec("layout regions do not cover the vertex range")

    def as_dict(self) -> dict[str, list[int]]:
        return {name: sorted(members) for name, members in self.regions.items()}


def _layout(n: int, **regions) -> Layout:
    return Layout(n, {name: frozenset(members) for name, members in regions.items()})

def _matching_graph(m: int) -> Graph:
    """floor(m/2) disjoint edges on m vertices; odd m leaves the last isolated."""
    return Graph.from_edges(m, [(2 * i, 2 * i + 1) for i in range(m // 2)])

def near_regular(s: int) -> Graph:
    """Near-regular graph on 2s-1 vertices for even s: degrees (s-1, ..., s-1, s-2).

    Realized by a batch Havel-Hakimi pass: repeatedly take the vertex with
    the highest residual degree (ties by lowest index) and connect it to
    the next-highest residual vertices (ties by lowest index).  The last
    index carries the s-2 target, so the outcome is a fixed graph.
    """
    spec = FamilySpec("near-regular", s=s)
    m = 2 * spec.s - 1
    residual = [spec.s - 1] * (m - 1) + [spec.s - 2]
    rows = [0] * m
    while True:
        v = max(range(m), key=lambda i: (residual[i], -i))
        d = residual[v]
        if d == 0:
            break
        partners = sorted(
            (u for u in range(m) if u != v), key=lambda i: (-residual[i], i)
        )[:d]
        for u in partners:
            assert residual[u] > 0 and not (rows[v] >> u) & 1
            rows[v] |= 1 << u
            rows[u] |= 1 << v
            residual[u] -= 1
        residual[v] = 0
    return Graph(rows)

def hstar(s: int) -> tuple[Graph, Layout]:
    """Hand-built alternative to near_regular(s) with the same size and count.

    On 2s-1 vertices: w0 sees exactly the clique A = A1+A2 (|A| = s-2);
    u0 sends s-1 edges to A1+B1; B2 is matched vertex-by-vertex to A2;
    B1+B2 is a clique.  |A1| = |A2| = |B2| = (s-2)/2 and |B1| = s/2.
    Degenerate at s = 2 (A empty, w0 isolated): the empty regions stay in
    the Layout to make that visible.
    """
    spec = FamilySpec("hstar", s=s)
    s = spec.s
    k = (s - 2) // 2
    w0 = 0
    a1 = list(range(1, 1 + k))
    a2 = list(range(1 + k, 1 + 2 * k))
    u0 = 1 + 2 * k
    b1 = list(range(2 + 2 * k, 2 + 2 * k + s // 2))
    b2 = list(range(2 + 2 * k + s // 2, 2 * s - 1))
    edges = [(w0, x) for x in a1 + a2]
    edges += [(u0, x) for x in a1 + b1]
    edges += list(zip(a2, b2))
    aa = a1 + a2
    edges += [(x, y) for i, x in enumerate(aa) for y in aa[i + 1 :]]
    bb = b1 + b2
    edges += [(x, y) for i, x in enumerate(bb) for y in bb[i + 1 :]]
    g = Graph.from_edges(2 * s - 1, edges)
    layout = _layout(2 * s - 1, w0=[w0], A1=a1, A2=a2, u0=[u0], B1=b1, B2=b2)
    return g, layout

def _bipartite_with_embed(n: int, embed: Graph) -> tuple[Graph, Layout]:
    """K_{floor(n/2), ceil(n/2)} with `embed` on the lowest indices of the small side."""
    h = n // 2
    assert embed.n <= h
    edges = [(u, v) for u in range(h) for v in range(h, n)]
    edges += list(embed.edges())
    g = Graph.from_edges(n, edges)
    layout = _layout(
        n,
        embed=range(embed.n),
        side0=range(embed.n, h),
        side1=range(h, n),
    )
    return g, layout

def _two_cliques(s: int) -> Graph:
    """Two disjoint K_s on 2s vertices: the odd-s embedding of efgg and zlx."""
    ks = [(u, v) for u in range(s) for v in range(u + 1, s)]
    return Graph.from_edges(2 * s, ks + [(u + s, v + s) for u, v in ks])


def efgg_extremal(s: int, n: int) -> tuple[Graph, Layout]:
    """Edge-extremal construction for hosts with no friendship subgraph.

    Balanced complete bipartite plus, inside one side, two disjoint K_s
    for odd s or the near-regular graph for even s.  Edge count is
    floor(n^2/4) + s^2 - s (odd s) or floor(n^2/4) + s^2 - 3s/2 (even s).
    """
    spec = FamilySpec("efgg", s=s, n=n)
    s, n = spec.s, spec.n
    embed = _two_cliques(s) if s % 2 else near_regular(s)
    return _bipartite_with_embed(n, embed)

def zlx_extremal(s: int, n: int) -> tuple[Graph, Layout]:
    """Edge-extremal construction for hosts with no friendship minor.

    Same bipartite-plus-embedding shape; the even-s embedding is the
    hand-built hstar graph instead of the Havel-Hakimi realization.
    """
    spec = FamilySpec("zlx", s=s, n=n)
    s, n = spec.s, spec.n
    embed = _two_cliques(s) if s % 2 else hstar(s)[0]
    return _bipartite_with_embed(n, embed)


def construct(spec: FamilySpec) -> tuple[Graph, Layout]:
    """Build the family member with its deterministic labeling and Layout."""
    k = spec.kind
    if k == "complete":
        n = spec.n
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        return g, _layout(n, V=range(n))
    if k == "independent":
        return Graph.empty(spec.n), _layout(spec.n, V=range(spec.n))
    if k == "complete-bipartite":
        a, b = spec.a, spec.b
        g = join(Graph.empty(a), Graph.empty(b))
        return g, _layout(a + b, A=range(a), B=range(a, a + b))
    if k == "path":
        n = spec.n
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        return g, _layout(n, V=range(n))
    if k == "cycle":
        n = spec.n
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        return g, _layout(n, V=range(n))
    if k == "matching":
        return _matching_graph(spec.t), _layout(spec.t, V=range(spec.t))
    if k == "friendship":
        s = spec.s
        g = join(Graph.empty(1), _matching_graph(2 * s))
        return g, _layout(2 * s + 1, center=[0], B=range(1, 2 * s + 1))
    if k == "intersecting-c4":
        t = spec.t
        edges = []
        for j in range(t):
            x, y, z = 3 * j + 1, 3 * j + 2, 3 * j + 3
            edges += [(0, x), (x, y), (y, z), (z, 0)]
        g = Graph.from_edges(3 * t + 1, edges)
        return g, _layout(3 * t + 1, center=[0], B=range(1, 3 * t + 1))
    if k == "ks-join-independent":
        s, n = spec.s, spec.n
        kclq = Graph.from_edges(s, [(u, v) for u in range(s) for v in range(u + 1, s)])
        g = join(kclq, Graph.empty(n - s))
        return g, _layout(n, A=range(s), B=range(s, n))
    if k == "kt-join-matching":
        t, n = spec.t, spec.n
        kclq = Graph.from_edges(t, [(u, v) for u in range(t) for v in range(u + 1, t)])
        g = join(kclq, _matching_graph(n - t))
        return g, _layout(n, A=range(t), B=range(t, n))
    if k == "efgg":
        return efgg_extremal(spec.s, spec.n)
    if k == "zlx":
        return zlx_extremal(spec.s, spec.n)
    if k == "hstar":
        return hstar(spec.s)
    if k == "near-regular":
        g = near_regular(spec.s)
        return g, _layout(g.n, V=range(g.n))
    raise InvalidSpec(f"unknown family kind {k!r}")


def expected_edge_count(spec: FamilySpec) -> int:
    """Closed-form edge count of the family member."""
    k = spec.kind
    if k == "complete":
        return spec.n * (spec.n - 1) // 2
    if k == "independent":
        return 0
    if k == "complete-bipartite":
        return spec.a * spec.b
    if k == "path":
        return max(spec.n - 1, 0)
    if k == "cycle":
        return spec.n
    if k == "matching":
        return spec.t // 2
    if k == "friendship":
        return 3 * spec.s
    if k == "intersecting-c4":
        return 4 * spec.t
    if k == "ks-join-independent":
        s, n = spec.s, spec.n
        return s * (s - 1) // 2 + s * (n - s)
    if k == "kt-join-matching":
        t, n = spec.t, spec.n
        return t * (t - 1) // 2 + t * (n - t) + (n - t) // 2
    if k in ("efgg", "zlx"):
        s, n = spec.s, spec.n
        extra = s * s - s if s % 2 else s * s - 3 * s // 2
        return n * n // 4 + extra
    if k in ("hstar", "near-regular"):
        s = spec.s
        return s * s - 3 * s // 2
    raise InvalidSpec(f"unknown family kind {k!r}")
