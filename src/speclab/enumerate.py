"""Connected graphs up to isomorphism by canonical augmentation.

Level m+1 is built from level m by attaching a new vertex m to a
nonempty subset S of a representative P, giving the child P+S, and
keeping the child only when m sits in its canonical deletion orbit.
That orbit is selected isomorphism-invariantly among the vertices whose
removal keeps the graph connected: smallest refinement color first, then
orbit identity, then smallest canonical code of the deleted graph, and
for the rare pseudo-similar tie the orbit holding the vertex placed
earliest by the canonical labeling.  A child accepted from one parent
representative can then never be accepted from another.  Among siblings
only one subset per Aut(P)-orbit is tested, which is sound because:

1. Two accepted children P+S and P+T are isomorphic iff T = g(S) for
   some g in Aut(P), and acceptance is constant on orbits.  Such a g,
   extended to fix m, is an isomorphism P+S -> P+T.  Conversely an
   isomorphism f maps canonical deletion orbit onto canonical deletion
   orbit and both contain m, so some automorphism a of P+T has
   a(f(m)) = m; then a.f fixes m, restricts to an automorphism of P,
   and maps N(m) = S onto N(m) = T.
2. Walking subsets in ascending order, testing an unmarked subset and
   marking its whole orbit tests exactly the smallest member of every
   orbit: a smaller member was visited first, and the orbit then marked
   was this one.  By 1 that member is where a walk deduplicating
   accepted siblings by canonical code first meets its class, so both
   walks yield the same graphs in the same order.
3. Orbits need only generators of Aut(P), not its elements (K_8 has
   40,320).  Let G_i fix 0..i-1 pointwise.  For every v > i in the
   G_i-orbit of i, _aut_generators keeps one t_v in G_i with t_v(i) = v.
   Any h in G_i equals t_{h(i)} h' with h' in G_{i+1} (t_i = 1), so by
   induction down from G_m = 1 the kept elements generate G_0 = Aut(P),
   and |Aut(P)| is the product of the G_i-orbit sizes of i.

Refinement colors are assigned by sorted signature, so two isomorphic
graphs get identical color vectors up to the isomorphism; color order
refines degree order, which justifies the degree shortcuts.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .errors import SizeLimitExceeded
from .graph import (
    CANONICAL_MAX_VERTICES,
    Graph,
    canonical_code,
    canonical_perm,
    iter_bits,
    reachable_mask,
)

def _wl(rows, n):
    """Stable refinement colors, identical across isomorphic graphs."""
    colors = [rows[v].bit_count() for v in range(n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(rows[v]))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _automorphism(rows, n, colors, src, dst, fixed=0):
    """An automorphism fixing 0..fixed-1 and taking src to dst, or None.

    Both src and dst must be >= fixed.
    """
    if colors[src] != colors[dst]:
        return None
    if src == dst:
        return list(range(n))
    rest = sorted((v for v in range(fixed, n) if v != src), key=lambda v: (colors[v], v))
    order = [*range(fixed), src, *rest]
    perm = [-1] * n
    used = [False] * n

    def bt(i):
        if i == n:
            return True
        w = order[i]
        rw = rows[w]
        for x in [w] if w < fixed else [dst] if w == src else range(n):
            if used[x] or colors[x] != colors[w]:
                continue
            if any((rw >> p) & 1 != (rows[x] >> perm[p]) & 1 for p in order[:i]):
                continue
            perm[w] = x
            used[x] = True
            if bt(i + 1):
                return True
            used[x] = False
        return False

    return perm if bt(0) else None


def _aut_generators(rows, n):
    """Generators of Aut: for each i, one automorphism fixing 0..i-1 and
    taking i to each v > i it can reach (stabiliser-chain transversals)."""
    colors = _wl(rows, n)
    found = (_automorphism(rows, n, colors, i, v, i) for i in range(n) for v in range(i + 1, n))
    return [g for g in found if g is not None]


def _components_minus(rows, n, w):
    rem = ((1 << n) - 1) & ~(1 << w)
    comps = []
    todo = rem
    while todo:
        v = (todo & -todo).bit_length() - 1
        comp = reachable_mask(rows, 1 << v, rem)
        comps.append(comp)
        todo &= ~comp
    return comps


def _accept(child, n, w_set):
    """Does the new vertex (index n-1) lie in the canonical deletion orbit?"""
    vnew = n - 1
    colors = _wl(child, n)
    cmin = min(colors[w] for w in w_set)
    if colors[vnew] != cmin:
        return False
    w1 = [w for w in w_set if colors[w] == cmin]
    if len(w1) == 1:
        return True
    root = {w: w for w in w1}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i in range(len(w1)):
        for j in range(i + 1, len(w1)):
            a, b = find(w1[i]), find(w1[j])
            if a != b and _automorphism(child, n, colors, w1[i], w1[j]) is not None:
                root[b] = a
    orbits: dict[int, list[int]] = {}
    for w in w1:
        orbits.setdefault(find(w), []).append(w)
    if len(orbits) == 1:
        return True
    g = Graph(child)
    codes = {r: canonical_code(g.delete_vertex(min(ws))) for r, ws in orbits.items()}
    best = min(codes.values())
    mine = find(vnew)
    if codes[mine] != best:
        return False
    tied = [r for r, c in codes.items() if c == best]
    if len(tied) == 1:
        return True
    # pseudo-similar orbits: break the tie by canonical position
    perm = canonical_perm(g)
    pool = [w for r in tied for w in orbits[r]]
    d = min(pool, key=lambda w: perm[w])
    return find(d) == mine


def _children(parent: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    m = len(parent)
    n = m + 1
    bit_new = 1 << m
    comps_per_w = [_components_minus(parent, m, w) for w in range(m)]
    pdeg = [parent[w].bit_count() for w in range(m)]
    images = []  # images[k][s]: subset s moved by generator k
    for g in _aut_generators(parent, m):
        img = [0]
        for u in range(m):
            bit = 1 << g[u]
            img += [s | bit for s in img]
        images.append(img)
    marked = bytearray(1 << m)
    for subset in range(1, 1 << m):
        if marked[subset]:
            continue
        marked[subset] = 1
        todo = [subset]
        while todo:
            s = todo.pop()
            for img in images:
                t = img[s]
                if not marked[t]:
                    marked[t] = 1
                    todo.append(t)
        child = list(parent)
        for i in iter_bits(subset):
            child[i] |= bit_new
        child.append(subset)
        child = tuple(child)
        w_set = [
            w
            for w in range(m)
            if all(c & subset & ~(1 << w) for c in comps_per_w[w])
        ]
        deg_new = subset.bit_count()
        low = min(pdeg[w] + ((subset >> w) & 1) for w in w_set)
        if deg_new > low:
            continue
        w_set.append(m)
        # strictly smallest degree is strictly smallest color
        if deg_new < low or _accept(child, n, w_set):
            yield child


def _iter_level(m: int) -> Iterator[tuple[int, ...]]:
    if m == 1:
        yield (0,)
        return
    for parent in _iter_level(m - 1):
        yield from _children(parent)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    return enumerate_connected_slice(n, 0, 1)


def enumerate_connected_slice(n: int, part: int, parts: int) -> Iterator[Graph]:
    """Slice `part` of `parts` of enumerate_connected(n), split by final
    augmentation branch (children of every parts-th (n-1)-vertex parent).

    The slices are disjoint and their union over part = 0..parts-1 is
    exactly enumerate_connected(n); slicing never changes which graphs
    appear, only which worker produces them.
    """
    if parts < 1 or not 0 <= part < parts:
        raise ValueError("need 0 <= part < parts")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CANONICAL_MAX_VERTICES:
        raise SizeLimitExceeded(
            f"enumeration limited to {CANONICAL_MAX_VERTICES} vertices, got {n}"
        )
    if n == 1:
        return iter([Graph((0,))] if part == 0 else [])
    parents = islice(_iter_level(n - 1), part, None, parts)
    return (Graph(rows) for p in parents for rows in _children(p))
