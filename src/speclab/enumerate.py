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
   which m's color exceeds the minimum over the other candidates, and
   True at the first in which it is below that minimum: m then has the
   least stable color alone, so no tied vertex lies outside its orbit
   and 7 accepts.  When a round splits no class of the last one, its
   colors are the last ones mapped by an increasing function, so the
   next round's keys are this round's mapped likewise and split nothing
   either: the classes and their order are stable from the last round
   on, so _wl_rounds stops there without yielding the new one.  When the
   degrees are already equitable, the degrees are the stable colors.
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
   built once per (m, cap, must) that leaves out the subsets of 11 too;
   leaving the others out touches no mark of a walked orbit, and by 2
   the walk tests the smallest member of every orbit it meets, the same
   subsets the walk over all of them tests.
7. _accept decides the rule of the first paragraph while finding only
   m's orbit O, by one _automorphism(m, w) query per tied vertex w
   that is not a twin of m (9).
   Automorphisms keep degree, cut status and stable color, so all of O
   lies in w_set with m's color, and the other tied vertices fall into
   whole orbits.  Members of one orbit have isomorphic deletions, hence
   one deletion code per orbit: O's code is the least iff no tied vertex
   has a smaller one, and the vertices whose code equals m's are exactly
   the orbits tied with O (15 compares the codes).  The canonical
   labeling places each vertex at its own position, so the earliest of
   those vertices lies in O iff O's earliest comes before every tied
   vertex outside O.
   No graph with n <= 10 reaches that tie-break: in the walk to n = 10
   none of the 7,630 deletion codes of other orbits compared with m's
   equals it, so only a CANONICAL_MAX_VERTICES above 10 can reach it.
8. The first round after degrees ranks (degree, sorted neighbour
   degrees) by an order-preserving map, so among vertices of one degree
   it orders them as their sorted neighbour-degree lists, which have
   equal length.  In P+S a vertex u of P has degree deg_P(u) + [u in S]
   and m has degree |S|, so the lists of m and of the ties of 5 come from
   P's degrees and S alone, before the child is built, and comparing them
   decides exactly _accept's first round.  The scan of 5 compares each
   tie's list with m's where it meets the tie, through their keys of 10
   for order n = m+1, which are larger for smaller lists: m's is the
   weight n^(n-1-d) of deg_P(u) + 1 summed over u in S, computed at the
   first tie, and a tie's is the sum over its neighbours of the weight
   of deg_P, taken once per parent, plus the change for those in S, plus
   the weight of |S| when it is in S itself.  By 4, a tie whose list is smaller than m's keeps a smaller
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
    rejects S.  The subset list of 6 leaves such subsets out.
    Automorphisms of P map W onto W and keep |S|, so the skipped subsets
    form whole orbits; as in 6, leaving them out touches no mark of a
    walked orbit, and by 2 the walk tests the same subsets.
12. Automorphisms keep stable colors, so _aut_generators walks only the
    v of i's color class, without an _automorphism query for the others.  When i
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

Two more make the remaining queries cheaper without changing an answer:

14. An automorphism keeps stable colors, so _automorphism tries for each
    vertex only the members of its color class, in ascending order: the
    candidates, in the order, that a scan of all vertices checking the
    color would leave, so it finds the same automorphism.  Vertices
    0..fixed-1 are fixed by definition, and each placed on itself passes
    every check it would meet (its placed neighbours' images are those
    neighbours), so the search starts with them placed.  The class lists
    and the search order (by color, then index) depend only on the graph
    and its stable colors, so _accept and _aut_generators build them once
    per graph (_classes).
15. G - m is the parent P itself, m being the last vertex, so m's
    deletion code in 7 is P's, and _children finds P's least column list
    once, at the first child that needs it.  Codes of one order compare
    as least column lists (graph.py), and graph.compare_least compares
    G - w with P by a descent on G - w cut at P's list.  The least list
    of G - w lies on a descent path that takes a least column at every
    position, since a larger column at the first position where two
    lists differ makes the whole list larger, and twins give equal
    subtrees.  The cut descent follows only the paths whose prefix equals
    P's list: a least column below P's there means a smaller list (-1), a
    full labelling reached means an equal one (0), and when every branch
    goes above, every list of G - w is larger (1).  That is the sign of
    the byte comparison of the two canonical codes, which 7 needs.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .errors import SizeLimitExceeded
from .graph import (
    CANONICAL_MAX_VERTICES,
    Graph,
    canonical_code,  # unused here; perfbench/spans.py wraps it by this name
    canonical_perm,
    compare_least,
    component_masks,
    iter_bits,
    least_columns,
)

# _BITS[mask]: the set bit positions of mask, ascending (module docstring, 8)
_BITS = tuple(tuple(iter_bits(x)) for x in range(1 << CANONICAL_MAX_VERTICES))
# _DIGITS[n][c]: n^(n-1-c), the weight of color c in a key of order n (10)
_DIGITS = [[n ** (n - 1 - c) for c in range(n)] for n in range(CANONICAL_MAX_VERTICES + 1)]


def _wl_rounds(rows, n):
    """Refinement colors round by round, starting from degrees; each round
    refines the last (module docstring, 4), and the last, the first round
    that the next one would not split, is stable and identical across
    isomorphic graphs.  A round ranks one integer key per vertex in place
    of its sorted signature (10)."""
    nbrs = list(map(_BITS.__getitem__, rows))
    colors = list(map(len, nbrs))
    classes = len(set(colors))
    digit = _DIGITS[n]
    top = n**n
    while True:
        yield colors
        weight = list(map(digit.__getitem__, colors)).__getitem__
        keys = [c * top - sum(map(weight, nb)) for c, nb in zip(colors, nbrs)]
        distinct = set(keys)
        if len(distinct) == classes:
            return
        classes = len(distinct)
        rank = dict(zip(sorted(distinct), range(classes)))
        colors = list(map(rank.__getitem__, keys))


def _classes(colors):
    """The vertices of each color in ascending order, indexed by color,
    and every vertex by (color, index): the candidates and the search
    order of _automorphism (module docstring, 14)."""
    cells = [[] for _ in colors]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells, [v for cell in cells for v in cell]


def _automorphism(rows, colors, cells, order, dst, fixed=0):
    """An automorphism fixing 0..fixed-1 and taking order[0] to dst, or None.

    order[0] and dst must be >= fixed; the rest of order is every other
    vertex >= fixed by (color, index), and cells[c] the vertices of color
    c, ascending (_classes).  The search starts with 0..fixed-1 placed on
    themselves, places order[0] on dst, then the rest of order, each on a
    member of its color class, tried in ascending order (module
    docstring, 14).  Since the images placed so far are distinct, x may
    take w iff rows[x] & placed == img[w], the images of w's placed
    neighbours, which is the pairwise edge check against every placed
    vertex.
    """
    src = order[0]
    if colors[src] != colors[dst]:
        return None
    n = len(rows)
    if src == dst:
        return list(range(n))
    prefix = (1 << fixed) - 1
    perm = [*range(fixed), *[-1] * (n - fixed)]
    img = [r & prefix for r in rows]  # img[w]: the images of w's placed neighbours

    def bt(i, placed):  # placed: the images of the prefix and order[:i]
        if i == len(order):
            return True
        w = order[i]
        want = img[w]
        for x in cells[colors[w]] if i else [dst]:
            bit = 1 << x
            if placed & bit or rows[x] & placed != want:
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

    return perm if bt(0, prefix) else None


def _aut_generators(rows, n):
    """Generators of Aut (module docstring, 3): for i from n-1 down, one
    automorphism fixing 0..i-1 and taking i to each v > i outside the
    orbit of i under the automorphisms kept so far."""
    *_, colors = _wl_rounds(rows, n)
    cells, ranked = _classes(colors)
    gens = []
    for i in range(n - 2, -1, -1):
        cell = cells[colors[i]]  # the v of i's own class (12)
        if cell[-1] == i:
            continue
        order = [i] + [v for v in ranked if v > i]
        orbit = {i}
        for v in cell:
            if v <= i or v in orbit:
                continue
            if rows[i] & ~(1 << v) == rows[v] & ~(1 << i):
                g = list(range(n))  # twins: the transposition (i v) (12)
                g[i], g[v] = v, i
            else:
                g = _automorphism(rows, colors, cells, order, v, i)
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


def _accept(child, n, w_set, least):
    """Does the new vertex (index n-1) lie in the canonical deletion orbit?

    w_set is the new vertex, first, and the non-cut vertices of its
    degree (module docstring, 5), less any whose first-round color
    exceeds the new vertex's (8).  least is shared by the children of one
    parent P = child - m: empty, or holding P's least column list, which
    the deletion-code step puts there at its first use (7).
    """
    vnew = n - 1
    ties = w_set[1:]
    # twins of m lie in its orbit (module docstring, 9)
    twins = {w for w in ties if child[vnew] & ~(1 << w) == child[w] & ~(1 << vnew)}
    if len(twins) == len(ties):
        return True
    for colors in _wl_rounds(child, n):
        cmin = min(map(colors.__getitem__, ties))
        if colors[vnew] > cmin:
            return False
        if colors[vnew] < cmin:  # m alone has the least color in every later round (4)
            return True
    # m's orbit and the other tied vertices (module docstring, 7)
    w1 = [w for w in ties if colors[w] == cmin]
    cells, ranked = _classes(colors)
    order = [vnew] + [v for v in ranked if v != vnew]
    orbit = [vnew] + [
        w for w in w1 if w in twins or _automorphism(child, colors, cells, order, w) is not None
    ]
    others = [w for w in w1 if w not in orbit]
    if not others:
        return True
    if not least:
        least.append(least_columns(tuple(r & ~(1 << vnew) for r in child[:vnew])))
    tied = []  # pseudo-similar to m: same deletion code, other orbit
    for w in others:
        low = (1 << w) - 1
        deleted = [(r & low) | (r >> (w + 1) << w) for v, r in enumerate(child) if v != w]
        sign = compare_least(deleted, least[0])
        if sign < 0:
            return False
        if sign == 0:
            tied.append(w)
    if not tied:
        return True
    # break the tie by canonical position
    perm = canonical_perm(Graph(child))
    return min(perm[w] for w in orbit) < min(perm[w] for w in tied)


@cache
def _subsets(m, cap, must):
    """The nonempty subsets of range(m) with fewer than cap elements or
    with cap elements including must, as masks in ascending order (module
    docstring, 6 and 11)."""
    return tuple(
        s
        for s in range(1, 1 << m)
        if (size := s.bit_count()) < cap or size == cap and s & must == must
    )


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
    # the weights of P's degrees in P+S for u outside S and in S, and each
    # vertex's key with no neighbour in S (module docstring, 8)
    digit = _DIGITS[n]
    out_weight = list(map(digit.__getitem__, pdeg))
    in_weight = [digit[d + 1] for d in pdeg]
    gain = [a - b for a, b in zip(in_weight, out_weight)]
    base = [sum(map(out_weight.__getitem__, nb)) for nb in nbrs]
    gens = [[1 << v for v in g] for g in _aut_generators(parent, m)]  # g[u]: bit of u's image
    marked = bytearray(1 << m)
    least = []  # P's least column list, once a child needs it (7)
    for subset in _subsets(m, cap, must):
        deg_new = subset.bit_count()
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
                mine = sum(map(in_weight.__getitem__, _BITS[subset]))
            key = base[w] + sum(map(gain.__getitem__, _BITS[parent[w] & subset]))
            if (subset >> w) & 1:
                key += digit[deg_new]
            if key > mine:  # a smaller signature
                break
            if key == mine:
                ties.append(w)
        else:
            child = list(parent)
            for i in _BITS[subset]:
                child[i] |= bit_new
            child.append(subset)
            child = tuple(child)
            # strictly smallest color after the first round (module docstring, 8)
            if len(ties) == 1 or _accept(child, n, ties, least):
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
