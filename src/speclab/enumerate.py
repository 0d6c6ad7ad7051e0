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
graphs get identical color vectors up to the isomorphism.  Most subsets
are rejected before the child is built or fully refined, which changes
no decision because:

4. Each round ranks the signature (previous color, sorted neighbour
   colors), so a color strictly smaller than another stays strictly
   smaller in every later round: each round refines the last without
   reordering it.  The first round is the degree, so color order refines
   degree order.  Hence _accept may return False at the first round in
   which m's color exceeds the minimum over the candidates, and the
   stable colors, which it then needs, are those of the last round.
5. A vertex w of P is non-cut in P+S iff every component of P-w meets
   S minus w, and its degree there is deg_P(w) + [w in S].  By 4, m is
   rejected when such a w has degree below |S|, and accepted without
   refinement when all have larger degree; vertices of larger degree
   never reach the minimum color, so only the ties go to _accept.  Since
   deg_P(w) + [w in S] > |S| once deg_P(w) > |S|, a scan of P's vertices
   by ascending degree stops there.
6. A non-cut vertex w of P stays non-cut in P+S unless S = {w}, with
   degree at most deg_P(w) + 1.  So with cap = 1 + the least degree of a
   non-cut vertex of P, every S with |S| > cap (hence S != {w}) is
   rejected by 5.  Automorphisms of P preserve |S|, so the cap skips
   whole orbits; leaving them unmarked touches no mark of another orbit,
   and 2 still tests the smallest member of every orbit it walks.
7. _accept decides the rule of the first paragraph while finding only
   m's orbit O, by one _automorphism(m, w) query per tied vertex w.
   Automorphisms keep degree, cut status and stable color, so all of O
   lies in w_set with m's color, and the other tied vertices fall into
   whole orbits.  Members of one orbit have isomorphic deletions, hence
   one deletion code per orbit: O's code is the least iff no tied vertex
   has a smaller one, and the vertices whose code equals m's are exactly
   the orbits tied with O.  The canonical labeling places each vertex
   at its own position, so the earliest of those vertices lies in O iff
   O's earliest comes before every tied vertex outside O.
8. The first round after degrees ranks (degree, sorted neighbour
   degrees) by an order-preserving map, so among vertices of one degree
   it orders them as their sorted neighbour-degree lists, which have
   equal length.  In P+S a vertex u of P has degree deg_P(u) + [u in S]
   and m has degree |S|, so the lists of m and of the ties of 5 come from
   P's degrees and S alone, before the child is built, and comparing them
   decides exactly _accept's first round.  By 4, a tie whose list is
   smaller than m's keeps a smaller color in every later round, so the
   subset is rejected; one whose list is larger keeps a larger color, so
   it never sets the minimum while m does nor joins the vertices tied
   with m, and dropping it from w_set changes no answer of _accept; when
   none is left, m alone has the least color and is accepted.  The
   set-bit table _BITS that replaces iter_bits in these loops has one
   entry per mask below 2^CANONICAL_MAX_VERTICES, so raising that limit
   grows it too (1,024 entries at 10, 16,384 at 14).
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

# _BITS[mask]: the set bit positions of mask, ascending (module docstring, 8)
_BITS = tuple(tuple(iter_bits(x)) for x in range(1 << CANONICAL_MAX_VERTICES))


def _wl_rounds(rows, n):
    """Refinement colors round by round, starting from degrees; each round
    refines the last (module docstring, 4), and the last is stable and
    identical across isomorphic graphs."""
    nbrs = [_BITS[rows[v]] for v in range(n)]
    colors = [len(nb) for nb in nbrs]
    while True:
        yield colors
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return
        colors = new


def _automorphism(rows, n, colors, src, dst, fixed=0):
    """An automorphism fixing 0..fixed-1 and taking src to dst, or None.

    Both src and dst must be >= fixed.  The search places the vertices of
    order one by one; since the images placed so far are distinct, x may
    take w iff rows[x] & placed == img[w], the images of w's placed
    neighbours, which is the pairwise edge check against every placed
    vertex.
    """
    if colors[src] != colors[dst]:
        return None
    if src == dst:
        return list(range(n))
    rest = sorted((v for v in range(fixed, n) if v != src), key=lambda v: (colors[v], v))
    order = [*range(fixed), src, *rest]
    perm = [-1] * n
    img = [0] * n  # img[w]: the images of w's placed neighbours

    def bt(i, placed):  # placed: the images of order[:i]
        if i == n:
            return True
        w = order[i]
        want = img[w]
        for x in [w] if w < fixed else [dst] if w == src else range(n):
            bit = 1 << x
            if placed & bit or colors[x] != colors[w] or rows[x] & placed != want:
                continue
            perm[w] = x
            nbrs = _BITS[rows[w]]
            for u in nbrs:
                img[u] |= bit
            if bt(i + 1, placed | bit):
                return True
            for u in nbrs:
                img[u] ^= bit
        return False

    return perm if bt(0, 0) else None


def _aut_generators(rows, n):
    """Generators of Aut: for each i, one automorphism fixing 0..i-1 and
    taking i to each v > i it can reach (stabiliser-chain transversals)."""
    *_, colors = _wl_rounds(rows, n)
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
    """Does the new vertex (index n-1) lie in the canonical deletion orbit?

    w_set is the new vertex and the non-cut vertices of its degree
    (module docstring, 5), less any whose first-round color exceeds the
    new vertex's (8).
    """
    vnew = n - 1
    for colors in _wl_rounds(child, n):
        cmin = min(colors[w] for w in w_set)
        if colors[vnew] != cmin:
            return False
    w1 = [w for w in w_set if w != vnew and colors[w] == cmin]
    if not w1:
        return True
    # m's orbit and the other tied vertices (module docstring, 7)
    orbit = [vnew] + [w for w in w1 if _automorphism(child, n, colors, vnew, w) is not None]
    others = [w for w in w1 if w not in orbit]
    if not others:
        return True
    g = Graph(child)
    mine = canonical_code(g.delete_vertex(vnew))
    tied = []  # pseudo-similar to m: same deletion code, other orbit
    for w in others:
        code = canonical_code(g.delete_vertex(w))
        if code < mine:
            return False
        if code == mine:
            tied.append(w)
    if not tied:
        return True
    # break the tie by canonical position
    perm = canonical_perm(g)
    return min(perm[w] for w in orbit) < min(perm[w] for w in tied)


def _first_round(nbrs, pdeg, subset, ties):
    """m (ties[0]) and the ties whose first-round signature, the sorted
    degrees of their neighbours in P+S, equals m's; None when one is
    smaller (module docstring, 8).  nbrs and pdeg describe the parent P."""
    mine = sorted(pdeg[u] + 1 for u in _BITS[subset])
    kept = [ties[0]]
    for w in ties[1:]:
        sig = [pdeg[u] + ((subset >> u) & 1) for u in nbrs[w]]
        if (subset >> w) & 1:
            sig.append(len(mine))
        sig.sort()
        if sig < mine:
            return None
        if sig == mine:
            kept.append(w)
    return kept


def _children(parent: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    m = len(parent)
    n = m + 1
    bit_new = 1 << m
    nbrs = [_BITS[r] for r in parent]
    comps_per_w = [_components_minus(parent, m, w) for w in range(m)]
    pdeg = [len(nb) for nb in nbrs]
    by_degree = sorted(range(m), key=pdeg.__getitem__)
    cap = 1 + min(pdeg[w] for w in range(m) if len(comps_per_w[w]) <= 1)
    gens = [[1 << v for v in g] for g in _aut_generators(parent, m)]  # g[u]: bit of u's image
    marked = bytearray(1 << m)
    for subset in range(1, 1 << m):
        deg_new = subset.bit_count()
        if deg_new > cap or marked[subset]:
            continue
        marked[subset] = 1
        todo = [subset]
        while todo:
            bits = _BITS[todo.pop()]
            for g in gens:
                t = 0
                for u in bits:
                    t |= g[u]
                if not marked[t]:
                    marked[t] = 1
                    todo.append(t)
        # m and the non-cut vertices of P+S of its degree; a non-cut vertex
        # of smaller degree rejects the subset (module docstring, 5)
        ties = [m]
        for w in by_degree:
            if pdeg[w] > deg_new:
                break
            d = pdeg[w] + ((subset >> w) & 1)
            if d <= deg_new and all(c & subset & ~(1 << w) for c in comps_per_w[w]):
                if d < deg_new:
                    ties = None
                    break
                ties.append(w)
        if ties is None:
            continue
        if len(ties) > 1:
            ties = _first_round(nbrs, pdeg, subset, ties)
            if ties is None:
                continue
        child = list(parent)
        for i in _BITS[subset]:
            child[i] |= bit_new
        child.append(subset)
        child = tuple(child)
        # strictly smallest color after the first round (module docstring, 8)
        if len(ties) == 1 or _accept(child, n, ties):
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
