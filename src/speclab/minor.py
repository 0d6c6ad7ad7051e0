"""Minor containment with certificates, witness searches, structure checkers.

The engine looks for a minor model: disjoint connected branch sets in the
host, one per pattern vertex, with a host edge behind every pattern edge.
Pattern vertices are seeded in descending-degree order, each branch set
starting as a single host vertex; sets grow only when some pattern edge
is not yet realized.  An unmet obligation (a, b) is resolved by
enumerating simple paths of free host vertices leading from set a to set
b and branching over every split of the path into a prefix absorbed by a
and a suffix absorbed by b.  The extreme splits let one set swallow the
whole path, which is necessary: with a two-vertex bridge u-v where u
sees one triangle pair and v the other, the only hub branch set is
{u, v}, so the earlier-seeded side must be able to grow too.

Completeness: suppose a model M with B_i subseteq M_i exists at some
node.  Either every obligation is met, or the unmet pair (a, b) has a
crossing edge x-y in M; a shortest path from B_a to x inside M_a,
followed by y and a shortest path to B_b inside M_b, is one of the
enumerated paths, and splitting at the crossing keeps B_i subseteq M_i
while growing the state.  Induction on the slack sum |M_i| - |B_i| does
the rest.  Budgets cap the node count, with "exhausted" as an explicit
third answer.

Two exact reductions run before the search.

Cycle rank: r(G) = m - n + c, with c the number of components, never
grows under taking minors, so a host with r(H) < r(P) is answered
not_found at once.  Deleting an edge lowers m by one and raises c by at
most one.  Deleting a vertex of degree d lowers m by d and n by one and
changes c by at most d - 1 (by -1 when d = 0), so r does not grow.
Contracting an edge u-v in a simple graph merges u and v, keeps c,
lowers n by one and lowers m by one plus the number of common
neighbours of u and v, so r does not grow either.  F_s has rank s and
Q_t has rank t.

Kernel peel: when every pattern vertex has degree >= 2, a host vertex v
of degree <= 1 can be deleted.  Take any model M of P in H.  If v lies
in no branch set, M is a model in H - v.  If v lies in M_i with
|M_i| >= 2, connectivity of M_i gives v a neighbour inside M_i, which is
then its only neighbour: v is a leaf of H[M_i], so M_i - v stays
connected, and no edge from v reaches another branch set, so every
pattern edge keeps its host edge.  If M_i = {v}, pattern vertex i has
at least two neighbours, each needing a host edge from v into a
different branch set, which a vertex of degree <= 1 does not have.  So
H has a P-model iff H - v has one, and repeating the deletion gives the
kernel.  The engine receives the deleted vertices as already used, so
seeds and paths never touch them, and branch sets keep the host's own
labels; verify_model still checks every model on the whole host.

Hub-and-arms cut: F_s is a hub joined to both ends of s arms u-v, and
Q_t a hub joined to both ends of t arms x-y-z.  Their searches seed the
hub first and then each arm's positions in turn, its ends first and
last, and admit an arm's last-end seed only above that arm's first-end
seed, and an arm's first-end seed only above the previous arm's.  Take
any model M and the least vertex of each branch set; disjoint sets have
distinct least vertices.  Swapping the two ends of every arm whose last
end has the smaller one, then ordering the arms by their first ends'
least vertices, is an automorphism of the pattern, and it maps M to a
model M' whose least vertices the filter admits as seeds.  The filter
reads only the seeds, which growing a set never changes, so the branch
that seeds every position with the least vertex of its M' set is
searched, and the completeness argument, which allows any seed
B_i subseteq M_i, applies to it unchanged.

Anchored closure: clique_closure_check searches G + K_A only after the
base host G is certified free of the pattern, so every model M in
G + K_A uses an added edge, inside a branch set or between two, and
holds both of its ends.  The closed host is relabelled with the k ends
of added edges first (labels 0..k-1), so M holds two vertices below k,
and the least vertex of M is below k - 1.  That vertex is the least of
its branch set, so in the model M' that the hub-and-arms cut searches
it is the least seed.  Each seed exceeds its rival's, and rivals sit
at earlier positions, so following rivals from any position ends at a
rival-free position, which is no later than the last rival-free
position p (the first arm's first end for F_s, the last arm's middle
for Q_t), with a smaller seed.  So the least seed of M' sits at a
rival-free position <= p, and when every seed before p is at least
k - 1, the seed at p is below k - 1.  The anchored search admits at p
only such seeds in that case; the filter still reads only seeds, so
the branch of M' is searched as before.  The restriction only removes
seed branches, so an anchored absence proof visits part of the plain
search's tree on the same relabelled host.  A found model is mapped
back to the original labels and verified there.  With a new vertex
relabelled to 0 and bound 1 the same rule anchors a pruned walk, whose
parents are all free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BudgetExhausted,
    IndexOutOfRange,
    OverlappingSets,
    PatternTooLarge,
    PreconditionFailed,
    VerificationFailed,
)
from .families import FamilySpec, construct
from .graph import (
    Graph,
    component_masks,
    g6_decode,
    g6_encode,
    iter_bits,
    reachable_mask,
)
from .matching import max_matching
from .record import Record

DEFAULT_NODE_BUDGET = 10_000_000
MAX_PATTERN_VERTICES = 12

FOUND = "found"
NOT_FOUND = "not_found"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class MinorModel:
    host_n: int
    pattern: Graph
    branch_sets: tuple[frozenset[int], ...]

    def as_dict(self) -> dict:
        return {
            "pattern_g6": g6_encode(self.pattern).decode("ascii"),
            "host_n": self.host_n,
            "branch_sets": [sorted(s) for s in self.branch_sets],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MinorModel":
        return cls(
            host_n=int(d["host_n"]),
            pattern=g6_decode(d["pattern_g6"]),
            branch_sets=tuple(frozenset(map(int, s)) for s in d["branch_sets"]),
        )


@dataclass(frozen=True)
class MinorAnswer(Record):
    status: str
    model: MinorModel | None
    nodes_used: int


def verify_model(host: Graph, model: MinorModel) -> bool:
    """True iff the branch sets really are a model of the pattern in the host."""
    if model.host_n != host.n:
        raise IndexOutOfRange(
            f"model claims host on {model.host_n} vertices, got {host.n}"
        )
    for s in model.branch_sets:
        for v in s:
            host.check_vertex(v)
    if len(model.branch_sets) != model.pattern.n:
        return False
    masks = []
    seen = 0
    for s in model.branch_sets:
        if not s:
            return False
        m = 0
        for v in s:
            m |= 1 << v
        if m & seen:
            return False
        seen |= m
        masks.append(m)
    for m in masks:
        start = 1 << next(iter_bits(m))
        if reachable_mask(host.rows, start, m) != m:
            return False
    nbr = [0] * len(masks)
    for i, m in enumerate(masks):
        for v in iter_bits(m):
            nbr[i] |= host.rows[v]
    for i, j in model.pattern.edges():
        if not nbr[i] & masks[j]:
            return False
    return True


class _Budget(Exception):
    pass


class _Engine:
    """Branch-set search for one (host, pattern) pair; single use."""

    def __init__(self, host, pattern, order, budget, seed_filter=None, blocked=0):
        self.host = host
        self.pattern = pattern
        self.order = order
        self.budget = budget
        self.seed_filter = seed_filter
        self.nodes = 0
        # pattern adjacency rewritten in search-position indices
        self.pos_edges = []
        pos_of = {v: k for k, v in enumerate(order)}
        for u, v in pattern.edges():
            a, b = sorted((pos_of[u], pos_of[v]))
            self.pos_edges.append((a, b))
        self.pos_edges.sort()
        self.pos_degree = [pattern.degree(v) for v in order]
        self.sets: list[int] = []
        self.nbrs: list[int] = []  # union of host rows over each set
        self.seeds: list[int] = []
        self.used = blocked  # host vertices no branch set may take

    def _first_unmet(self):
        k = len(self.sets)
        for a, b in self.pos_edges:
            if b < k and not self.nbrs[a] & self.sets[b]:
                return a, b
        return None

    def _attach(self, side: int, verts) -> tuple:
        """Grow set `side` by verts; returns what _detach needs to undo it."""
        rows = self.host.rows
        mask = 0
        nbr = self.nbrs[side]
        for v in verts:
            mask |= 1 << v
            nbr |= rows[v]
        saved = (side, self.sets[side], self.nbrs[side], mask)
        self.sets[side] |= mask
        self.nbrs[side] = nbr
        self.used |= mask
        return saved

    def _detach(self, saved: tuple) -> None:
        side, old_set, old_nbr, mask = saved
        self.sets[side] = old_set
        self.nbrs[side] = old_nbr
        self.used &= ~mask

    def _dfs(self) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget
        ob = self._first_unmet()
        if ob is None:
            k = len(self.sets)
            if k == len(self.order):
                return True
            free = ((1 << self.host.n) - 1) & ~self.used
            if free.bit_count() < len(self.order) - k:
                return False
            pdeg = self.pos_degree[k]
            while free:  # free vertices in ascending order
                bit = free & -free
                free ^= bit
                v = bit.bit_length() - 1
                if pdeg > 0 and not self.host.rows[v]:
                    continue
                if self.seed_filter and not self.seed_filter(k, v, self.seeds):
                    continue
                self.sets.append(bit)
                self.nbrs.append(self.host.rows[v])
                self.seeds.append(v)
                self.used |= bit
                if self._dfs():
                    return True
                self.used &= ~bit
                self.sets.pop()
                self.nbrs.pop()
                self.seeds.pop()
            return False
        a, b = ob
        rows = self.host.rows
        path: list[int] = []

        def try_splits() -> bool:
            for i in range(len(path) + 1):
                ta = self._attach(a, path[:i])
                tb = self._attach(b, path[i:])
                if self._dfs():
                    return True
                self._detach(tb)
                self._detach(ta)
            return False

        def extend(pmask: int) -> bool:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            frontier = self.nbrs[a] if not path else rows[path[-1]]
            for v in iter_bits(frontier & ~self.used & ~pmask):
                path.append(v)
                done = bool(rows[v] & self.sets[b]) and try_splits()
                if not done:
                    done = extend(pmask | (1 << v))
                path.pop()
                if done:
                    return True
            return False

        return extend(0)

    def run(self) -> MinorAnswer:
        try:
            found = self._dfs()
        except _Budget:
            return MinorAnswer(EXHAUSTED, None, self.nodes)
        if not found:
            return MinorAnswer(NOT_FOUND, None, self.nodes)
        branch_sets = [frozenset()] * self.pattern.n
        for k, v in enumerate(self.order):
            branch_sets[v] = frozenset(iter_bits(self.sets[k]))
        model = MinorModel(self.host.n, self.pattern, tuple(branch_sets))
        if not verify_model(self.host, model):
            raise VerificationFailed("search produced a model that does not verify")
        return MinorAnswer(FOUND, model, self.nodes)


def _cycle_rank(g: Graph) -> int:
    return g.edge_count - g.n + len(component_masks(g.rows, (1 << g.n) - 1))


def _peel(g: Graph) -> int:
    """Mask of the vertices that repeatedly deleting degree <= 1 removes."""
    rows = g.rows
    gone = 0
    while True:
        # deleting one low vertex only lowers the others' degrees, so a
        # whole round of them can go at once
        low = 0
        for v in range(g.n):
            if not gone >> v & 1 and (rows[v] & ~gone).bit_count() <= 1:
                low |= 1 << v
        if not low:
            return gone
        gone |= low


def _run_search(host, pattern, budget, order=None, seed_filter=None) -> MinorAnswer:
    if pattern.n > MAX_PATTERN_VERTICES:
        raise PatternTooLarge(
            f"pattern has {pattern.n} vertices, limit {MAX_PATTERN_VERTICES}"
        )
    if pattern.n == 0:
        return MinorAnswer(FOUND, MinorModel(host.n, pattern, ()), 0)
    if pattern.n > host.n or pattern.edge_count > host.edge_count:
        return MinorAnswer(NOT_FOUND, None, 0)
    if _cycle_rank(host) < _cycle_rank(pattern):
        return MinorAnswer(NOT_FOUND, None, 0)
    blocked = 0
    if min(row.bit_count() for row in pattern.rows) >= 2:
        blocked = _peel(host)
    if order is None:
        order = tuple(
            sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
        )
    return _Engine(host, pattern, order, budget, seed_filter, blocked).run()


def find_minor_model(
    host: Graph, pattern: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> MinorAnswer:
    """Generic minor-model search; sound always, complete within budget."""
    return _run_search(host, pattern, node_budget)


def _arm_rivals(size):
    """rival[k]: the position whose seed the seed at position k must
    exceed, or -1, for a hub at position 0 followed by arms of `size`
    positions, each arm's two ends first and last."""
    rival = [-1] * MAX_PATTERN_VERTICES
    for k in range(2, MAX_PATTERN_VERTICES):
        r = (k - 1) % size
        if r == 0:
            rival[k] = k - size  # an arm's first end: the previous arm's
        elif r == size - 1:
            rival[k] = k - size + 1  # an arm's last end: its first end
    return rival


def _arm_seed_filter(size):
    """The seed filter of the hub-and-arms cut (module docstring)."""
    rival = _arm_rivals(size)

    def admit(k, v, seeds):
        j = rival[k]
        return j < 0 or v > seeds[j]

    return admit


def _anchored_filter(admit, anchor, bound):
    """admit, narrowed to models whose least vertex is below bound: at
    position anchor, while no earlier seed is below bound, only seeds
    below bound pass (module docstring, anchored closure)."""

    def anchored(k, v, seeds):
        if k == anchor and v >= bound and min(seeds) >= bound:
            return False
        return admit(k, v, seeds)

    return anchored


@lru_cache(maxsize=16, typed=True)
def _hub_search(kind: str, param: int):
    # built once per (kind, param), spec included, since a search asks for
    # them on every graph; typed, so a param of another type still meets
    # FamilySpec's check.  The constructed labels put the hub first and
    # each arm contiguously, the positions the seed filter assumes
    if kind == "friendship":
        spec, arm_size = FamilySpec(kind, s=param), 2
    else:
        spec, arm_size = FamilySpec(kind, t=param), 3
    pattern, _ = construct(spec)
    # the last position whose seed no rival bounds from below; a pattern
    # over the size limit is refused later, by _run_search
    anchor = max(k for k, j in enumerate(_arm_rivals(arm_size)[: pattern.n]) if j < 0)
    return pattern, _arm_seed_filter(arm_size), anchor


def _hub_minor(host, kind, param, node_budget, least_below) -> MinorAnswer:
    pattern, seed_filter, anchor = _hub_search(kind, param)
    if least_below is not None:
        seed_filter = _anchored_filter(seed_filter, anchor, least_below)
    return _run_search(host, pattern, node_budget, tuple(range(pattern.n)), seed_filter)


def has_fs_minor(
    host: Graph, s: int, node_budget: int = DEFAULT_NODE_BUDGET, *, least_below: int | None = None
) -> MinorAnswer:
    """Search for a minor made of s triangles sharing one hub vertex.

    With least_below, only models holding a vertex below that label are
    looked for, so not_found says only that no such model exists; the
    clique closure uses this (module docstring, anchored closure).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return _hub_minor(host, "friendship", s, node_budget, least_below)


def has_qt_minor(
    host: Graph, t: int, node_budget: int = DEFAULT_NODE_BUDGET, *, least_below: int | None = None
) -> MinorAnswer:
    """Search for a minor made of t quadrilaterals sharing one hub vertex.

    least_below narrows the search as in has_fs_minor.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return _hub_minor(host, "intersecting-c4", t, node_budget, least_below)


@dataclass(frozen=True)
class FsWitness(Record):
    center: int
    pairs: tuple[tuple[int, int], ...]


def fs_subgraph_witness(g: Graph, s: int) -> FsWitness | None:
    """First vertex whose neighborhood holds a matching of size s, or None.

    A friendship subgraph with hub v is exactly v plus s disjoint edges
    inside G[N(v)].
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    for v in range(g.n):
        if g.degree(v) < 2 * s:
            continue
        sub, labels = g.induced_subgraph(g.neighbors(v))
        size, match = max_matching(sub, stop_at=s)
        if size < s:
            continue
        pairs = []
        for i, w in enumerate(match):
            if w > i:
                pairs.append((labels[i], labels[w]))
            if len(pairs) == s:
                break
        return FsWitness(center=v, pairs=tuple(pairs))
    return None


@dataclass(frozen=True)
class QtWitness(Record):
    center: int
    arms: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class WitnessAnswer(Record):
    status: str
    witness: QtWitness | None
    nodes_used: int


def qt_subgraph_witness(
    g: Graph, t: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> WitnessAnswer:
    """Center plus t vertex-disjoint x-y-z paths with x, z next to the center.

    The middle vertex y may be any vertex other than the center; chords do
    not matter, only the four cycle edges per arm.  Arm ends are forced
    x < z and arm starts ascend across arms.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    nodes = 0

    def search(center: int) -> QtWitness | None:
        nonlocal nodes
        cmask = g.rows[center]
        arms: list[tuple[int, int, int]] = []
        used = 1 << center

        def extend(min_x: int) -> bool:
            nonlocal nodes, used
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            if len(arms) == t:
                return True
            for x in iter_bits(cmask & ~used):
                if x <= min_x:
                    continue
                for y in iter_bits(g.rows[x] & ~used & ~(1 << x)):
                    zmask = cmask & g.rows[y] & ~used & ~(1 << x) & ~(1 << y)
                    for z in iter_bits(zmask):
                        if z <= x:
                            continue
                        arms.append((x, y, z))
                        used |= (1 << x) | (1 << y) | (1 << z)
                        if extend(x):
                            return True
                        used &= ~((1 << x) | (1 << y) | (1 << z))
                        arms.pop()
            return False

        if extend(-1):
            return QtWitness(center=center, arms=tuple(arms))
        return None

    if g.n >= 3 * t + 1:
        try:
            for center in range(g.n):
                if g.degree(center) < 2 * t:
                    continue
                w = search(center)
                if w is not None:
                    return WitnessAnswer(FOUND, w, nodes)
        except _Budget:
            return WitnessAnswer(EXHAUSTED, None, nodes)
    return WitnessAnswer(NOT_FOUND, None, nodes)


@dataclass(frozen=True)
class StructureReport(Record):
    """Partition facts for a candidate hub set A and bipartite side B.

    R is everything outside A and B; D holds the members of B with no
    neighbor in R.  delta = 1 - |B|/n, and the recorded threshold is
    (1 - 2*delta)n for the triangle flavor, (1 - 3*delta)n for the
    quadrilateral flavor.
    """

    mode: str
    A: frozenset[int]
    B: frozenset[int]
    R: frozenset[int]
    D: frozenset[int]
    bipartite_complete: bool
    b_path_free: bool
    max_outside_b_neighbors: int
    delta: float
    d_threshold: float
    d_meets_threshold: bool


def _structure(g, A, B, mode, delta_mult):
    a_set = frozenset(A)
    b_set = frozenset(B)
    for v in a_set | b_set:
        g.check_vertex(v)
    if a_set & b_set:
        raise OverlappingSets(f"A and B share {sorted(a_set & b_set)}")
    amask = bmask = 0
    for v in a_set:
        amask |= 1 << v
    for v in b_set:
        bmask |= 1 << v
    rmask = ((1 << g.n) - 1) & ~amask & ~bmask
    bipartite_complete = all((g.rows[v] & bmask) == bmask for v in a_set)
    if mode == "fs":
        b_path_free = all(not g.rows[v] & bmask for v in b_set)
    else:
        b_path_free = all((g.rows[v] & bmask).bit_count() <= 1 for v in b_set)
    max_outside = max(
        ((g.rows[v] & bmask).bit_count() for v in iter_bits(rmask)), default=0
    )
    d_set = frozenset(v for v in b_set if not g.rows[v] & rmask)
    delta = 1.0 - len(b_set) / g.n if g.n else 0.0
    threshold = (1.0 - delta_mult * delta) * g.n
    return StructureReport(
        mode=mode,
        A=a_set,
        B=b_set,
        R=frozenset(iter_bits(rmask)),
        D=d_set,
        bipartite_complete=bipartite_complete,
        b_path_free=b_path_free,
        max_outside_b_neighbors=max_outside,
        delta=delta,
        d_threshold=threshold,
        d_meets_threshold=len(d_set) >= threshold - 1e-9,
    )


def check_structure_fs(g: Graph, A, B) -> StructureReport:
    """Triangle-flavor structure facts: B must induce no edge at all."""
    return _structure(g, A, B, "fs", 2)


def check_structure_qt(g: Graph, A, B) -> StructureReport:
    """Quadrilateral flavor: components of G[B] may be single vertices or edges."""
    return _structure(g, A, B, "qt", 3)


def _ends_first(g: Graph, members) -> tuple[Graph, list[int], int]:
    """G + K_A relabelled with the k ends of added edges first, each part
    in ascending order; returns (host, old label of each new label, k)."""
    amask = 0
    for v in members:
        amask |= 1 << v
    ends = 0
    for v in iter_bits(amask):
        if amask & ~g.rows[v] & ~(1 << v):
            ends |= 1 << v
    old_label = list(iter_bits(ends)) + list(iter_bits(((1 << g.n) - 1) & ~ends))
    perm = [0] * g.n
    for new, old in enumerate(old_label):
        perm[old] = new
    return g.with_clique(members).relabel(perm), old_label, ends.bit_count()


@dataclass(frozen=True)
class ClosureReport(Record):
    mode: str
    param: int
    base: MinorAnswer
    closed: MinorAnswer
    ok: bool


def clique_closure_check(
    g: Graph, A, mode: str, param: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> ClosureReport:
    """Completing A into a clique should not create the forbidden minor.

    The host must already be minor-free (PreconditionFailed otherwise,
    or its subclass BudgetExhausted when the budget runs out before that
    is settled).  Reports the
    pre- and post-closure answers; ok means the closed graph is still
    clean.  A closure that adds no edge leaves the host as it is, so its
    closed answer is the base certificate's not_found at no further
    node.  Otherwise the closed search looks only for models that use an
    added edge (module docstring, anchored closure), and a found model
    carries the original labels.
    """
    if mode not in ("fs", "qt"):
        raise ValueError("mode must be 'fs' or 'qt'")
    members = list(A)
    for v in members:  # before the base search, which can take the whole budget
        g.check_vertex(v)
    run = has_fs_minor if mode == "fs" else has_qt_minor
    base = run(g, param, node_budget)
    if base.status == FOUND:
        raise PreconditionFailed("host already contains the forbidden minor")
    if base.status == EXHAUSTED:
        raise BudgetExhausted("budget too small to certify the host is minor-free")
    host, old_label, k = _ends_first(g, members)
    if k == 0:
        closed = MinorAnswer(NOT_FOUND, None, 0)
    else:
        closed = run(host, param, node_budget, least_below=k - 1)
    if closed.model is not None:
        sets = tuple(frozenset(old_label[v] for v in s) for s in closed.model.branch_sets)
        model = MinorModel(g.n, closed.model.pattern, sets)
        if not verify_model(g.with_clique(members), model):
            raise VerificationFailed("closure model does not verify in the original labels")
        closed = MinorAnswer(FOUND, model, closed.nodes_used)
    return ClosureReport(
        mode=mode,
        param=param,
        base=base,
        closed=closed,
        ok=closed.status == NOT_FOUND,
    )
