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

The hub-and-arms searches (friendship and intersecting-quadrilateral
patterns) add seed-order symmetry cuts: the two ends of an arm are
interchangeable, as are whole arms, so seeds are forced ascending.
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
class MinorAnswer:
    status: str
    model: MinorModel | None
    nodes_used: int

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "model": self.model.as_dict() if self.model else None,
            "nodes_used": self.nodes_used,
        }


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

    def _dfs(self) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget
        ob = self._first_unmet()
        if ob is None:
            k = len(self.sets)
            if k == len(self.order):
                return True
            if self.host.n - self.used.bit_count() < len(self.order) - k:
                return False
            pdeg = self.pattern.degree(self.order[k])
            for v in range(self.host.n):
                bit = 1 << v
                if self.used & bit:
                    continue
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

        def attach(side: int, verts) -> tuple:
            mask = 0
            saved = (side, self.sets[side], self.nbrs[side])
            for v in verts:
                mask |= 1 << v
                self.nbrs[side] |= rows[v]
            self.sets[side] |= mask
            self.used |= mask
            return saved + (mask,)

        def detach(saved: tuple) -> None:
            side, old_set, old_nbr, mask = saved
            self.sets[side] = old_set
            self.nbrs[side] = old_nbr
            self.used &= ~mask

        def try_splits() -> bool:
            for i in range(len(path) + 1):
                ta = attach(a, path[:i])
                tb = attach(b, path[i:])
                if self._dfs():
                    return True
                detach(tb)
                detach(ta)
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
    return g.edge_count - g.n + len(component_masks(g))


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


def _fs_seed_filter(k, v, seeds):
    # hub at position 0, arm pair i at positions 2i+1, 2i+2; pair ends are
    # interchangeable and so are whole pairs, force seeds ascending
    if k == 0:
        return True
    if k % 2 == 1:
        return k == 1 or v > seeds[k - 2]
    return v > seeds[k - 1]


@lru_cache(maxsize=16)
def _hub_pattern(spec: FamilySpec) -> Graph:
    # built once per spec, since a search asks for it on every graph; the
    # constructed labels put the hub first and each arm contiguously, the
    # positions the seed filters assume
    pattern, _ = construct(spec)
    return pattern


def _hub_minor(host, spec, node_budget, seed_filter) -> MinorAnswer:
    pattern = _hub_pattern(spec)
    return _run_search(host, pattern, node_budget, tuple(range(pattern.n)), seed_filter)


def has_fs_minor(host: Graph, s: int, node_budget: int = DEFAULT_NODE_BUDGET) -> MinorAnswer:
    """Search for a minor made of s triangles sharing one hub vertex."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return _hub_minor(host, FamilySpec("friendship", s=s), node_budget, _fs_seed_filter)


def _qt_seed_filter(k, v, seeds):
    # hub at 0, arm j at positions 3j+1 (end), 3j+2 (middle), 3j+3 (end);
    # the two ends are interchangeable and so are whole arms
    if k == 0:
        return True
    r = (k - 1) % 3
    if r == 0:
        return k == 1 or v > seeds[k - 3]
    if r == 2:
        return v > seeds[k - 2]
    return True


def has_qt_minor(host: Graph, t: int, node_budget: int = DEFAULT_NODE_BUDGET) -> MinorAnswer:
    """Search for a minor made of t quadrilaterals sharing one hub vertex."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return _hub_minor(host, FamilySpec("intersecting-c4", t=t), node_budget, _qt_seed_filter)


@dataclass(frozen=True)
class FsWitness:
    center: int
    pairs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {"center": self.center, "pairs": [list(p) for p in self.pairs]}


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
class QtWitness:
    center: int
    arms: tuple[tuple[int, int, int], ...]

    def as_dict(self) -> dict:
        return {"center": self.center, "arms": [list(a) for a in self.arms]}


@dataclass(frozen=True)
class WitnessAnswer:
    status: str
    witness: QtWitness | None
    nodes_used: int

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.as_dict() if self.witness else None,
            "nodes_used": self.nodes_used,
        }


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
class StructureReport:
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

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "A": sorted(self.A),
            "B": sorted(self.B),
            "R": sorted(self.R),
            "D": sorted(self.D),
            "bipartite_complete": self.bipartite_complete,
            "b_path_free": self.b_path_free,
            "max_outside_b_neighbors": self.max_outside_b_neighbors,
            "delta": self.delta,
            "d_threshold": self.d_threshold,
            "d_meets_threshold": self.d_meets_threshold,
        }


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


@dataclass(frozen=True)
class ClosureReport:
    mode: str
    param: int
    base: MinorAnswer
    closed: MinorAnswer
    ok: bool

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "param": self.param,
            "base": self.base.as_dict(),
            "closed": self.closed.as_dict(),
            "ok": self.ok,
        }


def clique_closure_check(
    g: Graph, A, mode: str, param: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> ClosureReport:
    """Completing A into a clique should not create the forbidden minor.

    The host must already be minor-free (PreconditionFailed otherwise,
    or its subclass BudgetExhausted when the budget runs out before that
    is settled).  Reports the
    pre- and post-closure answers; ok means the closed graph is still
    clean.
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
    closed = run(g.with_clique(members), param, node_budget)
    return ClosureReport(
        mode=mode,
        param=param,
        base=base,
        closed=closed,
        ok=closed.status == NOT_FOUND,
    )
