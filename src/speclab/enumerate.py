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
   walks yield the same graphs in the same order.  When Aut(P) is
   trivial every orbit is a single subset, so the walk tests every
   subset it visits and marks none.
3. Orbits need only generators of Aut(P), not its elements (K_8 has
   40,320).  Let G_i fix 0..i-1 pointwise, so G_{m-1} = 1.
   _aut_generators walks i from m-2 down to 0; suppose the elements H
   kept so far generate G_{i+1}.  It visits v > i in ascending order,
   skips v already in the H-orbit of i, and otherwise keeps a t in G_i
   with t(i) = v, if there is one, and updates that orbit.  Afterwards
   every v in the G_i-orbit of i is in the H-orbit of i.  Schreier step:
   for h in G_i pick t in H with t(i) = h(i); then t^-1 h fixes 0..i, so
   it lies in G_{i+1}, which H generates, and h lies in <H>.  Hence H
   generates G_i, and by induction Aut(P) = G_0.  Every kept t grows the
   orbit, so level i keeps fewer elements than the orbit has points:
   K_m keeps one per level, m-1 in all.

Refinement colors are ranks of signatures (4, 10), so two isomorphic
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
   S (none holds w), and its degree there is deg_P(w) + [w in S].  By 4,
   m is rejected when such a w has degree below |S|, and accepted
   without refinement when all have larger degree; vertices of larger
   degree never reach the minimum color, so only the ties go on, to 8.
   Since deg_P(w) + [w in S] > |S| once deg_P(w) > |S|, one scan of
   P's vertices of degree at most |S| collects the ties and stops at
   the first non-cut vertex of smaller degree, rejecting S.
6. A non-cut vertex w of P stays non-cut in P+S unless S = {w}, with
   degree at most deg_P(w) + 1.  So with cap = 1 + the least degree of a
   non-cut vertex of P, every S with |S| > cap (hence S != {w}) is
   rejected by 5.  Automorphisms of P preserve |S|, so every orbit lies
   wholly among the subsets of at most cap elements or wholly outside.
   _children walks only those subsets, in ascending order, from a list
   built once per (m, cap); leaving the others out touches no mark of a
   walked orbit, and by 2 the walk tests the smallest member of every
   orbit it meets, the same subsets the walk over all of them tests.
7. _accept decides the rule of the first paragraph while finding only
   m's orbit O, by one _automorphism(m, w) query per tied vertex w
   that is not a twin of m (9).
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
   decides exactly _accept's first round.  The scan of 5 compares each
   tie's list with m's where it meets the tie, building m's list at the
   first one.  By 4, a tie whose list is smaller than m's keeps a smaller
   color in every later round, so the subset is rejected there, whatever
   the rest of the scan holds; one whose list is larger keeps a larger
   color, so it never sets the minimum while m does nor joins the
   vertices tied with m, and leaving it out of w_set changes no answer of
   _accept; when no tie is kept, m alone has the least color and is
   accepted.  The set-bit table _BITS that replaces iter_bits in these
   loops has one entry per mask below 2^CANONICAL_MAX_VERTICES, so
   raising that limit grows it too (1,024 entries at 10, 16,384 at 14).
9. A tied vertex w with N(m) minus w equal to N(w) minus m is a twin of
   m: the transposition (m w) is an automorphism of P+S, so w lies in
   m's orbit O.  When every vertex of w_set is a twin of m, O holds all
   of w_set, so m's stable color is the least there and no tied vertex
   lies outside O; by 7 m is accepted, and _accept returns True before
   refining.  Otherwise _accept counts the twins into O without an
   _automorphism query.
10. Within one previous color all vertices have equal degree (4), so
    their sorted neighbour-color lists have equal length.  Colors lie in
    0..n-1 (degrees at first, ranks after), so such a list is fixed by
    the count c_k of each color k, and c_k <= n-1.  Of two such lists
    the smaller has more copies of the least color whose counts differ.
    Read as base-n digits, S = sum of n^(n-1-color(u)) over neighbours
    u = sum of c_k n^(n-1-k) orders the lists in reverse, and S < n^n.
    So ranking color(v) n^n - S gives the ranks of the signatures of 4,
    round by round, without sorting a list per vertex.

Three more shortcuts skip work whose outcome is already decided:

11. Let low be the least degree of a non-cut vertex of P, so cap =
    low + 1 (6), and let W be the non-cut vertices of P of degree low.
    A subset S of cap elements that misses some w in W leaves w non-cut
    in P+S (P-w is connected and holds S), with degree low < |S|, so 5
    rejects S.  _children skips such subsets before marking them.
    Automorphisms of P map W onto W and keep |S|, so the skipped subsets
    form whole orbits; as in 6, leaving them out touches no mark of a
    walked orbit, and by 2 the walk tests the same subsets.
12. Automorphisms keep stable colors, so _aut_generators skips every v
    whose color differs from i's without an _automorphism query.  When i
    and v are twins (N(i) minus v equals N(v) minus i), the transposition
    (i v) is an automorphism; it moves only i and v, so with v > i it
    fixes 0..i-1 and is a t of 3, taken without a search.
13. The component test of 5 fails for a non-cut vertex w of P only when
    S misses P-w, which is connected (empty when P has one vertex), so
    only when S = {w}.  Then |S| = 1 while w has degree deg_P(w) + 1 >= 2
    in P+S, since a connected P on two or more vertices has no isolated
    vertex, so the scan of 5 has already skipped w for its degree.
    _children therefore runs the component test only for cut vertices
    of P.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .errors import SizeLimitExceeded
from .graph import (
    CANONICAL_MAX_VERTICES,
    Graph,
    canonical_code,
    canonical_perm,
    component_masks,
    iter_bits,
)

# _BITS[mask]: the set bit positions of mask, ascending (module docstring, 8)
_BITS = tuple(tuple(iter_bits(x)) for x in range(1 << CANONICAL_MAX_VERTICES))


def _wl_rounds(rows, n):
    """Refinement colors round by round, starting from degrees; each round
    refines the last (module docstring, 4), and the last is stable and
    identical across isomorphic graphs.  A round ranks one integer key
    per vertex in place of its sorted signature (10)."""
    nbrs = [_BITS[rows[v]] for v in range(n)]
    colors = [len(nb) for nb in nbrs]
    digit = [n ** (n - 1 - c) for c in range(n)]
    top = n**n
    while True:
        yield colors
        weight = [digit[c] for c in colors]
        keys = [colors[v] * top - sum(map(weight.__getitem__, nbrs[v])) for v in range(n)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
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
    """Generators of Aut (module docstring, 3): for i from n-1 down, one
    automorphism fixing 0..i-1 and taking i to each v > i outside the
    orbit of i under the automorphisms kept so far."""
    *_, colors = _wl_rounds(rows, n)
    gens = []
    for i in range(n - 2, -1, -1):
        orbit = {i}
        for v in range(i + 1, n):
            if v in orbit or colors[v] != colors[i]:
                continue
            if rows[i] & ~(1 << v) == rows[v] & ~(1 << i):
                g = list(range(n))  # twins: the transposition (i v) (12)
                g[i], g[v] = v, i
            else:
                g = _automorphism(rows, n, colors, i, v, i)
                if g is None:
                    continue
            gens.append(g)
            todo = list(orbit)
            while todo:
                x = todo.pop()
                for h in gens:
                    if h[x] not in orbit:
                        orbit.add(h[x])
                        todo.append(h[x])
    return gens


def _accept(child, n, w_set):
    """Does the new vertex (index n-1) lie in the canonical deletion orbit?

    w_set is the new vertex and the non-cut vertices of its degree
    (module docstring, 5), less any whose first-round color exceeds the
    new vertex's (8).
    """
    vnew = n - 1
    # twins of m, m included, lie in its orbit (module docstring, 9)
    twins = {w for w in w_set if child[vnew] & ~(1 << w) == child[w] & ~(1 << vnew)}
    if len(twins) == len(w_set):
        return True
    for colors in _wl_rounds(child, n):
        cmin = min(colors[w] for w in w_set)
        if colors[vnew] != cmin:
            return False
    w1 = [w for w in w_set if w != vnew and colors[w] == cmin]
    if not w1:
        return True
    # m's orbit and the other tied vertices (module docstring, 7)
    orbit = [vnew] + [
        w for w in w1 if w in twins or _automorphism(child, n, colors, vnew, w) is not None
    ]
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


@cache
def _subsets(m, cap):
    """The nonempty subsets of range(m) with at most cap elements, as
    masks in ascending order (module docstring, 6)."""
    return tuple(s for s in range(1, 1 << m) if s.bit_count() <= cap)


def _children(parent: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    m = len(parent)
    n = m + 1
    bit_new = 1 << m
    nbrs = [_BITS[r] for r in parent]
    # splits[w]: the components of P-w for a cut vertex w, () for a
    # non-cut one, which the component test of 5 never rejects once its
    # degree is at most |S| (module docstring, 13)
    splits = [component_masks(parent, (bit_new - 1) ^ (1 << w)) for w in range(m)]
    splits = [comps if len(comps) > 1 else () for comps in splits]
    pdeg = [len(nb) for nb in nbrs]
    low = min(pdeg[w] for w in range(m) if not splits[w])
    cap = 1 + low
    # the least-degree non-cut vertices, all in every walked subset of
    # cap elements (11)
    must = sum(1 << w for w in range(m) if not splits[w] and pdeg[w] == low)
    # by_degree[d]: P's vertices of degree <= d, by ascending degree
    order = sorted(range(m), key=pdeg.__getitem__)
    by_degree = [[w for w in order if pdeg[w] <= d] for d in range(cap + 1)]
    gens = [[1 << v for v in g] for g in _aut_generators(parent, m)]  # g[u]: bit of u's image
    marked = bytearray(1 << m)
    for subset in _subsets(m, cap):
        deg_new = subset.bit_count()
        if deg_new == cap and subset & must != must:
            continue
        if gens:  # with Aut(P) trivial every orbit is one subset (module docstring, 2)
            if marked[subset]:
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
        # m and the non-cut vertices of P+S of its degree whose first-round
        # signature equals m's; one of smaller degree or signature rejects
        # the subset, one of larger signature is dropped (module docstring,
        # 5 and 8)
        ties = [m]
        mine = None
        for w in by_degree[deg_new]:
            d = pdeg[w] + ((subset >> w) & 1)
            if d > deg_new or splits[w] and not all(c & subset for c in splits[w]):
                continue
            if d < deg_new:
                break
            if mine is None:
                mine = sorted(pdeg[u] + 1 for u in _BITS[subset])
            sig = [pdeg[u] + ((subset >> u) & 1) for u in nbrs[w]]
            if (subset >> w) & 1:
                sig.append(deg_new)
            sig.sort()
            if sig < mine:
                break
            if sig == mine:
                ties.append(w)
        else:
            child = list(parent)
            for i in _BITS[subset]:
                child[i] |= bit_new
            child.append(subset)
            child = tuple(child)
            # strictly smallest color after the first round (module docstring, 8)
            if len(ties) == 1 or _accept(child, n, ties):
                yield child


def enumerate_connected(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return map(Graph, connected_rows(n))


def connected_rows(n: int, holds=None):
    """The rows of enumerate_connected(n), in the same order, from a lazy
    chain of n slices that starts at level 0, the empty graph ().  Given
    holds, a test on rows, it yields (rows, inherited) pairs instead, with
    inherited true when holds is true of an ancestor: the graph less its
    last k >= 1 vertices, built k levels earlier with the same labels.
    holds runs once on each graph of levels 1..n-1 with no such ancestor,
    as the chain reaches it, and never on level n."""
    if n > CANONICAL_MAX_VERTICES:
        raise SizeLimitExceeded(
            f"enumeration limited to {CANONICAL_MAX_VERTICES} vertices, got {n}"
        )
    level = [((), False)]  # the empty graph has no ancestor
    for _ in range(n):
        level = enumerate_connected_slice(level, holds)
    return level if holds is not None else (rows for rows, _ in level)


def enumerate_connected_slice(level, holds=None) -> Iterator[tuple]:
    """The next level, as (rows, inherited) pairs like those of level, the
    children parent by parent; the empty graph () has the one child (0,).
    A child inherits when its parent did or holds, if given, is true of
    the parent; holds runs once on each nonempty parent that did not
    inherit, just before its first child.  perfbench/spans.py counts
    classes through search.enumerate_connected_slice, so the name
    outlives the slicing by workers."""
    for parent, inherited in level:
        if parent and holds is not None and not inherited:
            inherited = holds(parent)
        for rows in _children(parent) if parent else [(0,)]:
            yield rows, inherited
