"""Exhaustive spectral-extremal search over small connected graphs.

A search fixes a vertex count and a freeness constraint, walks every
isomorphism class once, certifies the constraint through the minor or
subgraph machinery, and keeps every survivor whose spectral radius ties
the best within tolerance.  The report records whether the predicted
join construction is among the maximizers; a mismatch at small n is
data, not an error, since the extremal claims are asymptotic.

Searches restricted to connected graphs: a spectral maximizer over a
family closed under vertex deletion can be taken connected (the radius
of a graph is the max over its components, and the winning component is
itself a member), so disconnected hosts never beat the connected best.
This is cross-checked against an all-graphs scan at n <= 6 in the tests.

Containment of the pattern passes from a graph to every graph that
contains it, and the walk builds each graph G on top of its ancestors:
G minus its last k >= 1 vertices is the graph built k levels earlier.
Soundness: an ancestor A is an induced subgraph of G with the same
labels.  A minor model of the pattern in A is a family of disjoint
connected branch sets in A with an A-edge behind every pattern edge;
adding vertices and their edges deletes no vertex or edge, so the same
sets are disjoint, connected and joined by the same edges in G, and
verify_model accepts them there.  A subgraph witness is a set of A-edges
and stays one in G.  So found in A implies found in G for all four
constraints.  The argument deletes arbitrary vertices, so it does not
rest on how the enumeration builds G from A; that A is an ancestor only
lets one test settle a whole subtree of the walk.

The walk therefore carries each graph's verdict down the levels as
(rows, inherited) pairs, inherited true when an ancestor holds the
pattern.  enumerate_connected_slice tests a parent that did not inherit
once, just before its first child, and hands every child the verdict;
the scan only tests and ranks the level-n graphs that did not inherit.
A not_found ancestor says nothing about its descendants, and an
exhausted one settles nothing, so their children are tested as before.
Feasible sets, radii and maximizers are therefore unchanged;
exhausted_count can only fall, and only for a graph whose own test
would run out of budget while an ancestor has a certified model.

Radii come from two methods.  Each scan screens its feasible graphs,
a whole SCREEN_BATCH at a time, with one stacked eigvalsh and keeps
those within SCREEN_WINDOW = RECHECK_WINDOW + 2 RECHECK_TOLERANCE of its
best screen radius so far; it hands its last, partial batch to the merge
unscreened, and the merge screens those batches the same way.  Every cut
compares with a best that is at most the global best S, so a graph
within SCREEN_WINDOW of S survives every cut, and the merge then keeps
exactly the feasible graphs within SCREEN_WINDOW of S, the candidates,
however the graphs were split into batches and shares.  eigvalsh
computes each matrix of a stack on its own, so a graph's screen radius
does not depend on its batch either.  Power iteration (spectral_radius)
runs only on the candidates, in the order of their rows; each result is
checked against its screen value to RECHECK_TOLERANCE, and best_rho and
the maximizers come from the power-iteration values.  The report is
that of a search that ran power iteration on every feasible graph, took
the best value P, and checked every graph within RECHECK_WINDOW of P
against eigvalsh.
Soundness: power iteration returns a Rayleigh quotient x.Ax / x.x, which
never exceeds the largest eigenvalue lambda, and eigvalsh returns lambda
to within rounding; the two roundings together are about 1e-14 for
n <= 10, far below RECHECK_TOLERANCE.  The graph with screen radius S is
a candidate, so its checked power value, and with it P, is at least
S - RECHECK_TOLERANCE.  A graph with power value p >= P - RECHECK_WINDOW
has screen radius at least lambda - rounding >= p - RECHECK_TOLERANCE
>= S - SCREEN_WINDOW, so every graph of that window is a candidate, the
one with value P included.  Hence the candidates' best power value is P,
every graph tied with it (TIE_TOLERANCE < RECHECK_WINDOW) is a
candidate, and every graph the every-graph search checks is checked here
by the same comparison.

A maximizer G must be edge-maximal.  For a non-edge e = uv, G+e is a
connected graph on n vertices whose radius exceeds G's by at least
2 x_u x_v / x.x, the Rayleigh quotient of G's Perron vector x, which is
positive on a connected graph (Perron-Frobenius); on graphs this small
that is far more than TIE_TOLERANCE.  A G+e that passes the constraint
would be a feasible graph ranked above G, so finding one is a search
fault.  When
every graph was settled, each maximizer's non-edges are tested after
the merge, and a not_found G+e raises VerificationFailed; an exhausted
answer settles nothing and passes.  With exhausted graphs the check is
skipped, since G+e may be a graph the walk dropped as exhausted under
other labels.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import re
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

from .enumerate import connected_rows, enumerate_connected, enumerate_connected_slice
from .errors import BudgetExhausted, VerificationFailed
from .families import FamilySpec, construct, expected_edge_count
from .graph import Graph, canonical_code, g6_decode
from .minor import (
    DEFAULT_NODE_BUDGET,
    EXHAUSTED,
    FOUND,
    NOT_FOUND,
    fs_subgraph_witness,
    has_fs_minor,
    has_qt_minor,
    qt_subgraph_witness,
)
from .record import Record
from .spectral import (
    CLOSED_FORM_TOLERANCE,
    load_numpy,
    rho_closed_form,
    screen_radii,
    spectral_radius,
)

TIE_TOLERANCE = 1e-9
# every graph whose power-iteration radius is this close to the best is
# checked against eigvalsh, which must agree with it to RECHECK_TOLERANCE
RECHECK_WINDOW = 1e-6
RECHECK_TOLERANCE = 1e-8
# graphs this close to the best screen radius get power iteration
# (module docstring); feasible rows are screened this many at a time
SCREEN_WINDOW = RECHECK_WINDOW + 2 * RECHECK_TOLERANCE
SCREEN_BATCH = 4096
# a parallel search cuts level n-1 into this many shares per process, so
# a late start or a costly share is evened out by the others
SHARES_PER_WORKER = 8

_CONSTRAINT_RE = re.compile(r"^(fs|qt)(?:-(minor|subgraph)(?:-free)?)?:([st])=(\d+)$")


@dataclass(frozen=True)
class SearchReport(Record):
    n: int
    constraint: str
    enumerated: int
    feasible: int
    best_rho: float | None
    maximizers: tuple[str, ...]
    predicted_g6: str
    match: bool
    exhausted_count: int
    elapsed: float

    def as_dict(self, include_elapsed: bool = True) -> dict:
        d = super().as_dict()
        if not include_elapsed:
            del d["elapsed"]
        return d

    def to_json(self, include_elapsed: bool = True) -> str:
        # field order is fixed, so identical inputs give identical bytes
        # once elapsed is dropped
        return json.dumps(self.as_dict(include_elapsed))


def reports_to_csv(reports: list[SearchReport], include_elapsed: bool = True) -> str:
    out = io.StringIO()
    names = [f.name for f in fields(SearchReport)]
    if not include_elapsed:
        names.remove("elapsed")
    writer = csv.writer(out)
    writer.writerow(names)
    for r in reports:
        d = r.as_dict(include_elapsed)
        d["maximizers"] = ";".join(r.maximizers)
        writer.writerow(d.values())
    return out.getvalue()


class Constraint(NamedTuple):
    """A freeness constraint: no F_s (family "fs") or no Q_t ("qt") as a
    minor or as a subgraph (relation).  It equals the tuple (family,
    relation, param), and its text is the canonical descriptor, for
    example fs-minor-free:s=2.  Each pattern is paired with the join its
    extremal claim names: F_s with K_s + I_{n-s}, Q_t with K_t + M_{n-t}."""

    family: str
    relation: str
    param: int

    def __str__(self) -> str:
        letter = "s" if self.family == "fs" else "t"
        return f"{self.family}-{self.relation}-free:{letter}={self.param}"

    def answer(self, g: Graph, budget: int = DEFAULT_NODE_BUDGET):
        """(status, answer) of the constraint's test on g, NOT_FOUND when g
        certifiably passes; answer is the test's own result (a MinorAnswer,
        a WitnessAnswer, or fs_subgraph_witness's witness or None).  The
        only place that picks a test; the tests are looked up in this
        module at each call, so a tracer that replaces them sees it."""
        if self.relation == "minor":
            test = has_fs_minor if self.family == "fs" else has_qt_minor
            answer = test(g, self.param, node_budget=budget)
        elif self.family == "fs":
            answer = fs_subgraph_witness(g, self.param)
            return (NOT_FOUND if answer is None else FOUND), answer
        else:
            answer = qt_subgraph_witness(g, self.param, node_budget=budget)
        return answer.status, answer

    def status(self, g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> str:
        """NOT_FOUND when g certifiably passes the constraint."""
        return self.answer(g, budget)[0]

    def holds(self, budget: int):
        """The walk's holds: is the pattern found in the graph with rows?"""
        return lambda rows: self.status(Graph(rows), budget) == FOUND

    def predicted(self, n: int) -> FamilySpec:
        """The join construction the constraint's extremal claim names."""
        if self.family == "fs":
            return FamilySpec("ks-join-independent", s=self.param, n=n)
        return FamilySpec("kt-join-matching", t=self.param, n=n)


def parse_constraint(descriptor: str, relation: str = "minor") -> Constraint:
    """The Constraint a descriptor names: fs-minor-free:s=2, fs-minor:s=2
    or the short form fs:s=2, which names relation."""
    m = _CONSTRAINT_RE.match(descriptor)
    if m is None:
        raise ValueError(f"bad constraint descriptor {descriptor!r}")
    family, named, letter, value = m.groups()
    if (family == "fs") != (letter == "s"):
        raise ValueError(f"constraint {descriptor!r} pairs {family} with {letter}")
    param = int(value)
    if param < 1:
        raise ValueError("constraint parameter must be >= 1")
    return Constraint(family, named or relation, param)


def _screened(keep, batch):
    """keep plus the batch's (screen radius, rows) pairs, cut to the
    entries within SCREEN_WINDOW of their best.  numpy is loaded here, so
    a process that screens nothing never imports it."""
    load_numpy()
    keep = keep + list(zip(screen_radii(batch, len(batch[0])).tolist(), batch))
    best = max(rho for rho, _ in keep)
    return [e for e in keep if e[0] >= best - SCREEN_WINDOW]


def _scan(parents, constraint, budget):
    """Test the children of parents, (rows, inherited) pairs of one level,
    and screen the feasible ones a whole SCREEN_BATCH at a time; the walk
    tests the parents with constraint.holds, and the scan each child with
    constraint.status.  Returns the counts, keep, and the last batch,
    which is left for the merge to screen."""
    enumerated = feasible = exhausted = 0
    keep: list[tuple[float, tuple[int, ...]]] = []
    batch: list[tuple[int, ...]] = []
    for rows, inherited in enumerate_connected_slice(parents, constraint.holds(budget)):
        enumerated += 1
        if inherited:
            continue  # an ancestor's model is a model in g (module docstring)
        status = constraint.status(Graph(rows), budget)
        if status == EXHAUSTED:
            exhausted += 1
        elif status == NOT_FOUND:
            feasible += 1
            batch.append(rows)
            if len(batch) == SCREEN_BATCH:
                keep, batch = _screened(keep, batch), []
    return enumerated, feasible, exhausted, keep, batch


def _shares(parents, size, taken):
    """parents in consecutive shares of size, each share going to the
    process that asks for it first; taken, a shared integer, counts the
    parents handed out by all processes."""
    while True:
        with taken.get_lock():
            start = taken.value
            taken.value = start + size
        if start >= len(parents):
            return
        yield from parents[start : start + size]


def _child_scan(send, parents, size, taken, constraint, budget):
    """A forked worker: _scan over the shares it takes, and its result, or
    the exception that stopped it, sent back through send.  A failing
    worker first moves taken past the last parent, so every process stops
    at its next share: the search fails whatever the others find."""
    try:
        result = _scan(_shares(parents, size, taken), constraint, budget)
    except Exception as exc:  # re-raised by the search process
        with taken.get_lock():
            taken.value = len(parents)
        result = exc
    send.send(result)


def _child_result(child, receive):
    """What a forked worker sent: its _scan result, or its exception,
    raised again with its type, since exit codes come from the types."""
    try:
        result = receive.recv()
    except EOFError:  # the worker ended before it sent anything
        result = None
    child.join()
    if result is None:
        raise RuntimeError(f"search worker exited with code {child.exitcode} without a result")
    if isinstance(result, Exception):
        raise result
    return result


def _parallel_scan(parents, constraint, budget, workers):
    """The _scan results of workers processes that take level n-1 share by
    share.  The search process is one of them: it forks the others first,
    then loads numpy while they scan, and scans too.  The workers are
    terminated and joined on every path."""
    parents = list(parents)
    # forked, so the workers share parents without pickling; a
    # search forks before it loads numpy, so no BLAS thread is copied
    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("i", 0)
    size = -(-len(parents) // (SHARES_PER_WORKER * workers))
    children = []
    try:
        for _ in range(workers - 1):
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child_scan, args=(send, parents, size, taken, constraint, budget))
            child.start()
            children.append((child, receive))
            send.close()
        load_numpy()
        partials = [_scan(_shares(parents, size, taken), constraint, budget)]
        return partials + [_child_result(*c) for c in children]
    finally:
        for child, receive in children:
            child.terminate()
            child.join()
            receive.close()


def _power_radius(screen, rows):
    """spectral_radius of rows; VerificationFailed where it disagrees with
    the screen's eigvalsh radius by more than RECHECK_TOLERANCE."""
    rho = spectral_radius(Graph(rows)).rho
    if abs(screen - rho) > RECHECK_TOLERANCE:
        g6 = canonical_code(Graph(rows)).decode("ascii")
        raise VerificationFailed(
            f"power iteration gives rho {rho!r} for {g6}, eigvalsh gives {screen!r}"
        )
    return rho


def _check_saturated(maximizers, constraint, budget):
    """VerificationFailed when a maximizer plus one of its non-edges passes
    the constraint (module docstring)."""
    for g6 in maximizers:
        g = g6_decode(g6)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                if constraint.status(g.with_edge(u, v), budget) == NOT_FOUND:
                    raise VerificationFailed(
                        f"maximizer {g6} plus edge {u}-{v} still passes the constraint"
                    )


def extremal_search(
    n: int,
    constraint: Constraint | str,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> SearchReport:
    """Maximize rho over connected n-vertex graphs passing the constraint,
    a Constraint or its descriptor.

    With more workers, the search lists level n-1 once and cuts it into
    consecutive shares; the search process and workers - 1 forked workers
    each take the next share from one shared counter, test its parents
    and scan their children.  The children of a parent depend on that
    parent and its verdict alone, so any split finds the same graphs, and
    the merge is associative, so any worker count yields the identical
    report.  The workers are forked before numpy is loaded, and each
    loads it, through load_numpy, at its first full screen batch; the
    search process loads it while they scan.  An exception in a worker is
    raised again in the search, and a worker that dies without a result
    raises RuntimeError.  Radii are screened by eigvalsh
    and confirmed by power iteration near the top, where a disagreement
    raises VerificationFailed, as does a maximizer that still passes the
    constraint with an edge added (module docstring).  A graph is
    exhausted when its own test hits the node budget and no ancestor has
    a certified model (an ancestor's model already settles the graph;
    module docstring).  Exhausted graphs are dropped from the feasible
    set and counted in exhausted_count, and any nonzero exhausted_count
    forces match to false: the maximizer set is then not certified
    complete.
    """
    return _extremal_search(n, constraint, node_budget, workers)


def _extremal_search(n, constraint, node_budget, workers, g_pred=None) -> SearchReport:
    """extremal_search, given the predicted join when the caller has
    built it already, as verify_theorem_small_n has."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    t0 = time.perf_counter()
    if isinstance(constraint, str):
        constraint = parse_constraint(constraint)
    if g_pred is None:
        # built first, so a join its spec rules out (s >= n) fails before the scan
        g_pred, _ = construct(constraint.predicted(n))
    pred_g6 = canonical_code(g_pred).decode("ascii")
    parents = connected_rows(n - 1, constraint.holds(node_budget))
    if workers == 1:
        partials = [_scan(parents, constraint, node_budget)]
    else:
        partials = _parallel_scan(parents, constraint, node_budget, workers)
    enumerated = sum(p[0] for p in partials)
    feasible = sum(p[1] for p in partials)
    exhausted = sum(p[2] for p in partials)
    keep = [e for p in partials for e in p[3]]
    for *_, batch in partials:
        if batch:
            keep = _screened(keep, batch)
    top = max((screen for screen, _ in keep), default=None)
    best = None
    maximizers: tuple[str, ...] = ()
    if top is not None:
        # in row order, so a failed check names the same graph for any
        # worker count
        candidates = sorted((e for e in keep if e[0] >= top - SCREEN_WINDOW), key=lambda e: e[1])
        near = [(_power_radius(*e), e[1]) for e in candidates]
        best = max(rho for rho, _ in near)
        tied = (rows for rho, rows in near if rho >= best - TIE_TOLERANCE)
        maximizers = tuple(sorted(canonical_code(Graph(rows)).decode("ascii") for rows in tied))
        if exhausted == 0:
            _check_saturated(maximizers, constraint, node_budget)
    match = exhausted == 0 and pred_g6 in maximizers
    return SearchReport(
        n=n,
        constraint=str(constraint),
        enumerated=enumerated,
        feasible=feasible,
        best_rho=best,
        maximizers=maximizers,
        predicted_g6=pred_g6,
        match=match,
        exhausted_count=exhausted,
        elapsed=time.perf_counter() - t0,
    )


def verify_theorem_small_n(
    constraint: Constraint,
    n_range: tuple[int, int],
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> list[SearchReport]:
    """One extremal search per n for the constraint, with the predicted
    graph sanity-checked.

    Never asserts that the search agrees with the extremal claim (that
    holds only for large n); instead asserts that the predicted join
    graph passes its own freeness test and that its computed rho matches
    the closed form to CLOSED_FORM_TOLERANCE, and records the per-n match
    flags.  A freeness test of the predicted graph that runs out of budget
    raises BudgetExhausted; one that finds the pattern raises
    VerificationFailed.
    """
    lo, hi = n_range
    if lo > hi:
        raise ValueError("empty n range")
    load_numpy()
    reports = []
    for n in range(lo, hi + 1):
        spec = constraint.predicted(n)
        g_pred, _ = construct(spec)
        status = constraint.status(g_pred, node_budget)
        if status != NOT_FOUND:
            error = BudgetExhausted if status == EXHAUSTED else VerificationFailed
            raise error(
                f"predicted graph for {constraint} at n={n}: its own "
                f"freeness test gives {status}"
            )
        rho = spectral_radius(g_pred).rho
        closed = rho_closed_form(spec)
        if abs(rho - closed) > CLOSED_FORM_TOLERANCE:
            raise VerificationFailed(
                f"predicted rho {rho!r} disagrees with closed form {closed!r} "
                f"at n={n}"
            )
        reports.append(_extremal_search(n, constraint, node_budget, workers, g_pred))
    return reports


def edge_bound_audit(
    specs: list[FamilySpec],
    s_or_t: int,
    mode: str,
    c_constant: float | None = None,
) -> dict:
    """Edge counts of the constructions against their closed-form bounds.

    Every row checks the built graph against its expected edge count.
    Bipartite-plus-embedding rows check the quarter-square-plus-correction
    equality, join rows check the linear s*n bound, and complete
    bipartite rows report slack against C*a + s*n when C is supplied.
    """
    if mode not in ("fs", "qt"):
        raise ValueError("mode must be 'fs' or 'qt'")
    rows = []
    for spec in specs:
        g, _ = construct(spec)
        e = g.edge_count
        expected = expected_edge_count(spec)
        row = {
            "spec": spec.text(),
            "n": g.n,
            "edges": e,
            "expected_edges": expected,
            "matches_expected": e == expected,
            "checks": {},
        }
        if spec.kind in ("efgg", "zlx"):
            row["checks"]["edge_maximum_equality"] = {
                "target": expected,
                "correction": expected - g.n * g.n // 4,
                "equality": e == expected,
            }
        if spec.kind == "ks-join-independent":
            bound = spec.s * spec.n
            row["checks"]["linear_bound"] = {"bound": bound, "holds": e <= bound}
        if spec.kind == "complete-bipartite" and c_constant is not None:
            a = min(spec.a, spec.b)
            budget = c_constant * a + s_or_t * g.n
            row["checks"]["bipartite_slack"] = {
                "slack": e - budget,
                "within": e <= budget,
            }
        rows.append(row)
    return {
        "mode": mode,
        "parameter": s_or_t,
        "c_constant": c_constant,
        "rows": rows,
        "metadata": {
            "limitation": (
                "exhaustive searches reach n <= 9 only; construction audits "
                "hold for the audited sizes and cannot settle asymptotic "
                "extremal claims"
            )
        },
    }


__all__ = [
    "Constraint",
    "SearchReport",
    "TIE_TOLERANCE",
    "edge_bound_audit",
    "enumerate_connected",
    "extremal_search",
    "parse_constraint",
    "reports_to_csv",
    "verify_theorem_small_n",
]
