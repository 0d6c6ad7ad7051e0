import dataclasses
import functools
import json
import math
import multiprocessing
import os
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from speclab.errors import BudgetExhausted, InvalidSpec, VerificationFailed
from speclab.families import FamilySpec, construct
from speclab.graph import Graph, canonical_code, g6_decode, is_connected
from speclab import enumerate as enumeration, search
from speclab.enumerate import enumerate_connected
from speclab.minor import (
    DEFAULT_NODE_BUDGET,
    EXHAUSTED,
    FOUND,
    NOT_FOUND,
    has_fs_minor,
    has_qt_minor,
)
from speclab.search import (
    Constraint,
    SearchReport,
    edge_bound_audit,
    extremal_search,
    parse_constraint,
    reports_to_csv,
    verify_theorem_small_n,
)
from speclab.spectral import spectral_radius


def longest_cycle(g):
    """Length of a longest cycle by rooted DFS, 0 when acyclic."""
    best = 0
    for root in range(g.n):
        path = [root]
        on = {root}

        def walk():
            nonlocal best
            v = path[-1]
            for w in range(g.n):
                if not g.has_edge(v, w) or w < root:
                    continue
                if w == root and len(path) >= 3:
                    best = max(best, len(path))
                elif w not in on:
                    on.add(w)
                    path.append(w)
                    walk()
                    path.pop()
                    on.remove(w)

        walk()
    return best


def all_classes(n):
    """Every isomorphism class on n vertices, connected or not."""
    codes = {}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for k, (u, v) in enumerate(pairs):
            if (bits >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(tuple(rows))
        codes.setdefault(canonical_code(g), g)
    return list(codes.values())


@functools.lru_cache(maxsize=None)
def connected(n):
    return tuple(enumerate_connected(n))


def reference_search(n, constraint, budget):
    """Statuses by rows and the report of a scan that tests every graph."""
    c = parse_constraint(constraint)
    statuses = {g.rows: c.status(g, budget) for g in connected(n)}
    rhos = {
        rows: spectral_radius(Graph(rows)).rho
        for rows, status in statuses.items()
        if status == NOT_FOUND
    }
    best = max(rhos.values(), default=None)
    maximizers = ()
    if best is not None:
        maximizers = tuple(
            sorted(
                canonical_code(Graph(rows)).decode("ascii")
                for rows, rho in rhos.items()
                if rho >= best - search.TIE_TOLERANCE
            )
        )
    pred, _ = construct(parse_constraint(constraint).predicted(n))
    pred_g6 = canonical_code(pred).decode("ascii")
    exhausted = sum(status == EXHAUSTED for status in statuses.values())
    report = SearchReport(
        n=n,
        constraint=constraint,
        enumerated=len(statuses),
        feasible=len(rhos),
        best_rho=best,
        maximizers=maximizers,
        predicted_g6=pred_g6,
        match=exhausted == 0 and pred_g6 in maximizers,
        exhausted_count=exhausted,
        elapsed=0.0,
    )
    return statuses, report


def prefix(rows, k):
    """The graph on the first k vertices of rows; for k < len(rows), the
    ancestor the walk built len(rows) - k levels before rows."""
    return tuple(r & ((1 << k) - 1) for r in rows[:k])


def patch_status(monkeypatch, planted, walk_only=True):
    """Route every Constraint.status call through planted(real, constraint,
    g, budget); with walk_only, the saturation check's calls bypass it, so
    planted sees the tests that decide a report: the walk's and those of
    verify's predicted join."""
    real = Constraint.status
    checking = []
    if walk_only:
        real_check = search._check_saturated

        def check(*args):
            checking.append(True)
            try:
                return real_check(*args)
            finally:
                checking.pop()

        monkeypatch.setattr(search, "_check_saturated", check)

    def status(self, g, budget=DEFAULT_NODE_BUDGET):
        if checking:
            return real(self, g, budget)
        return planted(real, self, g, budget)

    monkeypatch.setattr(Constraint, "status", status)


def record_tests(monkeypatch):
    """Rows of every graph the walk tests, in call order."""
    calls = []

    def spy(real, c, g, budget):
        calls.append(g.rows)
        return real(c, g, budget)

    patch_status(monkeypatch, spy)
    return calls


PARENT_RULE_CASES = [
    (f"{family}-{relation}-free:{letter}={p}", n, DEFAULT_NODE_BUDGET)
    for family, letter in (("fs", "s"), ("qt", "t"))
    for relation in ("minor", "subgraph")
    for p in (1, 2)
    for n in range(p + 1, 9 if p == 1 else 8)  # the join needs p < n
] + [("fs-minor-free:s=2", 5, 5), ("fs-minor-free:s=2", 6, 5)]

# feasible counts at n = 2..8 from independent tables: triangle-minor-free
# connected graphs are the unlabeled trees (OEIS A000055), triangle-free
# connected graphs are OEIS A024607
OEIS_FEASIBLE = {
    "fs-minor-free:s=1": [1, 1, 2, 3, 6, 11, 23],
    "fs-subgraph-free:s=1": [1, 1, 3, 6, 19, 59, 267],
}


class TestConstraintParsing:
    def test_accepts_all_four_forms(self):
        assert parse_constraint("fs-minor-free:s=2") == ("fs", "minor", 2)
        assert parse_constraint("qt-minor-free:t=1") == ("qt", "minor", 1)
        assert parse_constraint("fs-subgraph-free:s=3") == ("fs", "subgraph", 3)
        assert parse_constraint("qt-subgraph-free:t=2") == ("qt", "subgraph", 2)

    @pytest.mark.parametrize(
        "text,relation,want",
        [
            ("fs-minor:s=2", "minor", "fs-minor-free:s=2"),
            ("qt-subgraph:t=1", "minor", "qt-subgraph-free:t=1"),
            ("fs:s=1", "minor", "fs-minor-free:s=1"),
            ("qt:t=3", "subgraph", "qt-subgraph-free:t=3"),
            ("fs-minor:s=1", "subgraph", "fs-minor-free:s=1"),  # named beats short
            ("fs-minor-free:s=01", "minor", "fs-minor-free:s=1"),
        ],
    )
    def test_short_forms_and_canonical_text(self, text, relation, want):
        c = parse_constraint(text, relation)
        assert str(c) == want
        assert parse_constraint(want) == c
        assert c == tuple(c) and isinstance(c, Constraint)

    def test_rejects_malformed(self):
        for bad in (
            "fs-minor-free:t=2",  # fs pairs with s
            "qt-minor-free:s=1",
            "fs-minor-free:s=0",
            "fs-minorfree:s=2",
            "fs-free:s=2",
            "fs:t=2",
            "zz-minor-free:s=2",
            "fs-minor-free",
            "",
        ):
            with pytest.raises(ValueError):
                parse_constraint(bad)

    def test_predicted_spec_by_family(self):
        assert parse_constraint("fs-minor-free:s=2").predicted(9) == FamilySpec(
            "ks-join-independent", s=2, n=9
        )
        assert parse_constraint("qt-subgraph-free:t=1").predicted(7) == FamilySpec(
            "kt-join-matching", t=1, n=7
        )


class TestExtremalSearch:
    def test_star_extremal_among_trees(self):
        # triangle-minor-free connected graphs are exactly the trees
        r = extremal_search(7, "fs-minor-free:s=1")
        assert r.enumerated == 853
        assert r.feasible == 11  # unlabeled trees on 7 vertices
        assert r.exhausted_count == 0
        assert abs(r.best_rho - math.sqrt(6)) <= 1e-9
        star, _ = construct(FamilySpec("ks-join-independent", s=1, n=7))
        assert r.maximizers == (canonical_code(star).decode("ascii"),)
        assert r.predicted_g6 == r.maximizers[0]
        assert r.match

    def test_feasible_count_against_cycle_oracle(self):
        # a C4-based pattern shrinks to any cycle of length >= 4, so the
        # feasible set is the graphs whose cycles are all triangles
        r = extremal_search(6, "qt-minor-free:t=1")
        want = sum(1 for g in enumerate_connected(6) if longest_cycle(g) <= 3)
        assert r.feasible == want
        assert r.exhausted_count == 0

    def test_friendship_graph_wins_qt_at_n7(self):
        r = extremal_search(7, "qt-minor-free:t=1")
        fr, _ = construct(FamilySpec("friendship", s=3))
        assert r.match
        assert r.maximizers == (canonical_code(fr).decode("ascii"),)
        assert abs(r.best_rho - 3.0) <= 1e-9  # quotient [[0,6],[1,1]]

    def test_join_wins_fs2_at_n7(self):
        r = extremal_search(7, "fs-minor-free:s=2")
        assert abs(r.best_rho - (1 + math.sqrt(41)) / 2) <= 1e-9
        assert r.match

    def test_subgraph_mode_weaker_than_minor_mode(self):
        rm = extremal_search(6, "fs-minor-free:s=1")
        rs = extremal_search(6, "fs-subgraph-free:s=1")
        # subgraph-freeness admits every minor-free graph and more
        assert rs.feasible >= rm.feasible
        assert rs.best_rho >= rm.best_rho - 1e-12

    def test_maximizers_pass_constraint_with_bigger_budget(self):
        for constraint, n in (
            ("fs-minor-free:s=2", 7),
            ("qt-minor-free:t=1", 7),
            ("qt-subgraph-free:t=1", 6),
        ):
            r = extremal_search(n, constraint)
            assert r.maximizers  # feasible > 0 here
            for g6 in r.maximizers:
                g = g6_decode(g6)
                fam, rel, p = parse_constraint(constraint)
                if rel == "minor":
                    fn = has_fs_minor if fam == "fs" else has_qt_minor
                    ans = fn(g, p, node_budget=10 * 10_000_000)
                    assert ans.status == NOT_FOUND
                else:
                    from speclab.minor import qt_subgraph_witness

                    assert qt_subgraph_witness(g, p).status == NOT_FOUND

    def test_connectivity_restriction_harmless_small_n(self):
        # max rho over ALL graphs passing the constraint equals the
        # connected-only best: the winning component is itself feasible
        r = extremal_search(6, "fs-minor-free:s=1")
        best_all = 0.0
        for g in all_classes(6):
            if has_fs_minor(g, 1).status == NOT_FOUND:
                best_all = max(best_all, spectral_radius(g).rho)
        assert abs(best_all - r.best_rho) <= 1e-12

    def test_exhaustion_disqualifies_match(self):
        # the counts of a scan that tests every graph; tiny budgets are
        # where a model inherited from the parent could lower them
        for n, enumerated, exhausted in ((5, 21, 10), (6, 112, 83)):
            r = extremal_search(n, "fs-minor-free:s=2", node_budget=5)
            assert r.exhausted_count == exhausted
            assert not r.match
            assert r.enumerated == enumerated
            assert r.feasible + r.exhausted_count <= r.enumerated

    def test_deterministic_json(self):
        a = extremal_search(6, "qt-minor-free:t=1").to_json(include_elapsed=False)
        b = extremal_search(6, "qt-minor-free:t=1").to_json(include_elapsed=False)
        assert a == b
        d = json.loads(a)
        assert list(d) == [
            "n",
            "constraint",
            "enumerated",
            "feasible",
            "best_rho",
            "maximizers",
            "predicted_g6",
            "match",
            "exhausted_count",
        ]

    def test_workers_do_not_change_report(self):
        serial = extremal_search(6, "fs-minor-free:s=1")
        for w in (2, 3):
            par = extremal_search(6, "fs-minor-free:s=1", workers=w)
            assert par.to_json(include_elapsed=False) == serial.to_json(
                include_elapsed=False
            )

    def test_workers_walk_the_level_below_once(self, monkeypatch):
        calls = multiprocessing.Value("i", 0)  # made before the fork, shared
        real = enumeration._children

        def counted(parent):
            with calls.get_lock():
                calls.value += 1
            return real(parent)

        monkeypatch.setattr(enumeration, "_children", counted)
        counts = []
        for workers in (1, 2, 3):
            calls.value = 0
            extremal_search(7, "fs-minor-free:s=1", workers=workers)
            counts.append(calls.value)
        # one call per connected graph on 1..6 vertices
        assert counts == [sum(len(connected(k)) for k in range(1, 7))] * 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("constraint", sorted(OEIS_FEASIBLE))
    def test_feasible_counts_match_oeis(self, constraint, workers):
        got = [extremal_search(n, constraint, workers=workers).feasible for n in range(2, 9)]
        assert got == OEIS_FEASIBLE[constraint]

    def test_radius_disagreeing_with_eigvalsh_raises(self, monkeypatch):
        def perturbed(g):
            r = spectral_radius(g)
            return dataclasses.replace(r, rho=r.rho + 1e-7)

        monkeypatch.setattr(search, "spectral_radius", perturbed)
        with pytest.raises(VerificationFailed, match="eigvalsh"):
            extremal_search(6, "fs-minor-free:s=1")

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "constraint,feasible", [("fs-minor-free:s=1", 47), ("fs-subgraph-free:s=1", 1380)]
    )
    def test_feasible_counts_match_oeis_n9(self, constraint, feasible):
        # OEIS A000055 and A024607 at n = 9, one level past OEIS_FEASIBLE
        serial = extremal_search(9, constraint)
        assert serial.enumerated == 261080
        assert serial.feasible == feasible
        assert serial.exhausted_count == 0
        par = extremal_search(9, constraint, workers=2)
        assert par.to_json(include_elapsed=False) == serial.to_json(include_elapsed=False)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            extremal_search(5, "fs-minor-free:s=1", workers=0)

    def test_bad_predicted_join_fails_before_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("enumerated before the predicted join was built")

        monkeypatch.setattr(search, "enumerate_connected_slice", no_scan)
        monkeypatch.setattr(search, "connected_rows", no_scan)
        for workers in (1, 2):
            with pytest.raises(InvalidSpec, match="1 <= s < n"):
                extremal_search(8, "fs-subgraph-free:s=8", workers=workers)
        with pytest.raises(ValueError):
            extremal_search(0, "fs-minor-free:s=1")


def at_level(monkeypatch, n, in_search, in_workers):
    """Make the walk call in_search or in_workers, by the process it runs
    in, before it tests a graph on n vertices."""
    search_pid = os.getpid()

    def planted(real, c, g, budget):
        if g.n == n:
            (in_search if os.getpid() == search_pid else in_workers)()
        return real(c, g, budget)

    patch_status(monkeypatch, planted)


class TestWorkers:
    """The search process scans shares of level n - 1 beside its forked
    workers; shares go to whichever process asks first."""

    @pytest.mark.parametrize(
        "constraint", ["fs-minor-free:s=1", "fs-subgraph-free:s=1", "qt-minor-free:t=1"]
    )
    def test_reports_match_for_one_to_four_workers(self, constraint):
        for n in (3, 7):  # at n = 3 level 2 is one share, fewer than the workers
            want = extremal_search(n, constraint).to_json(include_elapsed=False)
            for workers in (2, 3, 4):
                got = extremal_search(n, constraint, workers=workers)
                assert got.to_json(include_elapsed=False) == want
                assert multiprocessing.active_children() == []

    def test_workers_screen_whole_batches(self, monkeypatch):
        n, constraint = 7, "fs-subgraph-free:s=1"
        want = extremal_search(n, constraint).to_json(include_elapsed=False)
        monkeypatch.setattr(search, "SCREEN_BATCH", 3)
        assert extremal_search(n, constraint).to_json(include_elapsed=False) == want
        screened = multiprocessing.Event()  # made before the fork, shared
        search_pid = os.getpid()
        real = search.screen_radii

        def counted(row_sets, n):
            if os.getpid() != search_pid:
                screened.set()
            return real(row_sets, n)

        monkeypatch.setattr(search, "screen_radii", counted)
        # the search process waits at its first graph until a worker has
        # screened a batch, so the workers take shares meanwhile
        wait = functools.partial(screened.wait, timeout=60)
        at_level(monkeypatch, n, wait, lambda: None)
        for workers in (2, 3, 4):
            got = extremal_search(n, constraint, workers=workers)
            assert got.to_json(include_elapsed=False) == want
        assert screened.is_set()

    def test_exception_in_a_worker_reaches_the_caller_with_its_type(self, monkeypatch):
        # made before the fork, shared
        failed, holding = multiprocessing.Event(), multiprocessing.Event()
        tested = []  # the parents of the level-7 graphs the search process tests

        def fail():
            failed.set()
            raise VerificationFailed("planted")

        search_pid = os.getpid()

        def planted(real, c, g, budget):
            if g.n == 7 and os.getpid() != search_pid:
                # not before the search process holds a share, which it
                # takes only after loading numpy
                holding.wait(timeout=60)
                fail()
            elif g.n == 7:
                # the search process waits at its first graph of level 7
                # until the worker has failed and exited, so the worker
                # takes shares meanwhile and has stopped the hand-out
                if not tested:
                    holding.set()
                    failed.wait(timeout=60)
                    deadline = time.monotonic() + 60
                    while multiprocessing.active_children() and time.monotonic() < deadline:
                        time.sleep(0.01)
                tested.append(tuple(r & 0b111111 for r in g.rows[:6]))
            return real(c, g, budget)

        patch_status(monkeypatch, planted)
        with pytest.raises(VerificationFailed, match="planted"):
            extremal_search(7, "fs-subgraph-free:s=1", workers=2)
        assert multiprocessing.active_children() == []
        # the search process ends the share it holds and takes no other
        parents = list(enumeration.connected_rows(6))
        size = -(-len(parents) // (search.SHARES_PER_WORKER * 2))
        share = {rows: i // size for i, rows in enumerate(parents)}
        assert tested and len({share[rows] for rows in tested}) == 1

    def test_exception_in_the_search_process_stops_the_workers(self, monkeypatch):
        never, woke = multiprocessing.Event(), multiprocessing.Event()

        def fail():
            raise VerificationFailed("planted")

        def stall():
            never.wait(timeout=30)
            woke.set()

        # a worker stalls at its first graph of level 7, so the search
        # process takes the other shares and fails while the worker runs
        at_level(monkeypatch, 7, fail, stall)
        with pytest.raises(VerificationFailed, match="planted"):
            extremal_search(7, "fs-subgraph-free:s=1", workers=2)
        assert multiprocessing.active_children() == []
        assert not woke.is_set()  # terminated, not waited for

    def test_worker_that_dies_is_named_by_its_exit_code(self, monkeypatch):
        died = multiprocessing.Event()

        def die():
            died.set()
            os._exit(3)

        wait = functools.partial(died.wait, timeout=60)
        at_level(monkeypatch, 7, wait, die)
        with pytest.raises(RuntimeError, match="exited with code 3 without a result"):
            extremal_search(7, "fs-subgraph-free:s=1", workers=2)
        assert multiprocessing.active_children() == []

    def test_failed_power_check_names_one_graph_for_any_worker_count(self, monkeypatch):
        # every feasible graph ties on the screen and fails its power check,
        # so the check fails at the candidate with the least rows
        statuses, _ = reference_search(7, "fs-subgraph-free:s=1", DEFAULT_NODE_BUDGET)
        first = min(rows for rows, status in statuses.items() if status == NOT_FOUND)
        g6 = canonical_code(Graph(first)).decode("ascii")
        monkeypatch.setattr(search, "screen_radii", lambda row_sets, n: np.ones(len(row_sets)))
        monkeypatch.setattr(search, "spectral_radius", lambda g: SimpleNamespace(rho=2.0))
        for workers in (1, 2, 3):
            with pytest.raises(VerificationFailed, match=f"for {re.escape(g6)},"):
                extremal_search(7, "fs-subgraph-free:s=1", workers=workers)


class TestParentRule:
    @pytest.mark.parametrize("constraint,n,budget", PARENT_RULE_CASES)
    def test_matches_scan_that_tests_every_graph(self, monkeypatch, constraint, n, budget):
        statuses, want = reference_search(n, constraint, budget)
        calls = record_tests(monkeypatch)
        serial = extremal_search(n, constraint, budget)
        tested = set(calls)
        # a graph the scan did not test was settled by its parent's model
        for g in connected(n):
            if g.rows not in tested:
                assert statuses[g.rows] == FOUND, g.rows
        monkeypatch.undo()
        par = extremal_search(n, constraint, budget, workers=2)
        text = want.to_json(include_elapsed=False)
        assert serial.to_json(include_elapsed=False) == text
        assert par.to_json(include_elapsed=False) == text

    def test_each_parent_is_tested_once(self, monkeypatch):
        # the ancestor rule: a graph on k vertices is tested, once, iff
        # none of its prefixes on j < k vertices holds the pattern
        n, constraint = 7, "fs-minor-free:s=1"
        c = parse_constraint(constraint)
        graphs = [g.rows for k in range(1, n + 1) for g in connected(k)]
        found = {rows: c.status(Graph(rows)) == FOUND for rows in graphs}
        tested = [
            rows
            for rows in graphs
            if not any(found[prefix(rows, j)] for j in range(1, len(rows)))
        ]
        want = len(tested)
        calls = record_tests(monkeypatch)
        extremal_search(n, constraint)
        assert len(calls) == want == 30  # the parent rule tested 124
        assert sorted(calls) == sorted(tested)
        # fewer tests than graphs at level n, each of which has a parent
        parents = [prefix(g.rows, n - 1) for g in connected(n)]
        assert want < len(parents)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_ancestor_model_settles_exhausted_graphs(self, workers):
        # budget 12: some graphs on 7 vertices run out of budget, and so do
        # their parents, while an earlier ancestor has a certified F_2 model
        n, constraint, budget = 7, "fs-minor-free:s=2", 12
        c = parse_constraint(constraint)
        status = {g.rows: c.status(g, budget) for k in range(1, n + 1) for g in connected(k)}

        def exhausted(ancestors):
            return sum(
                status[g.rows] == EXHAUSTED
                and not any(status[prefix(g.rows, j)] == FOUND for j in ancestors)
                for g in connected(n)
            )

        _, want = reference_search(n, constraint, budget)
        by_parent = exhausted([n - 1])
        by_ancestor = exhausted(range(1, n))
        assert by_ancestor < by_parent < want.exhausted_count
        got = extremal_search(n, constraint, budget, workers=workers)
        assert got.exhausted_count == by_ancestor
        want = dataclasses.replace(want, exhausted_count=by_ancestor)
        assert got.to_json(include_elapsed=False) == want.to_json(include_elapsed=False)


def non_edges(g6):
    """The graphs a maximizer's saturation check tests: g6 plus each non-edge."""
    g = g6_decode(g6)
    return [
        g.with_edge(u, v).rows
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]


def record_status(monkeypatch):
    """Rows of every graph Constraint.status is called on, in call order:
    the search's tests and then the saturation check's."""
    calls = []

    def spy(real, c, g, budget):
        calls.append(g.rows)
        return real(c, g, budget)

    patch_status(monkeypatch, spy, walk_only=False)
    return calls


def plant_feasible(monkeypatch, target):
    """Make every test of the graph with rows target answer NOT_FOUND."""

    def planted(real, c, g, budget):
        return NOT_FOUND if g.rows == target else real(c, g, budget)

    patch_status(monkeypatch, planted, walk_only=False)


def unwalked_non_edge(monkeypatch, n, constraint):
    """(maximizer g6, pair, rows of g6 plus the pair) for a pair whose graph
    the walk never tests, so that only the saturation check sees it."""
    calls = record_tests(monkeypatch)
    g6 = extremal_search(n, constraint).maximizers[0]
    monkeypatch.undo()
    walked = set(calls)
    g = g6_decode(g6)
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and g.with_edge(u, v).rows not in walked:
                return g6, (u, v), g.with_edge(u, v).rows
    raise AssertionError("the walk tests every graph of the check")


class TestRadii:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_power_iteration_runs_only_near_the_top(self, monkeypatch, workers):
        calls = []
        real = search.spectral_radius

        def spy(g):
            calls.append(g.rows)
            return real(g)

        monkeypatch.setattr(search, "spectral_radius", spy)
        r = extremal_search(8, "fs-minor-free:s=1", workers=workers)
        assert r.feasible == 23
        assert len(calls) == 1  # the star; the other 22 trees are screened out
        assert canonical_code(Graph(calls[0])).decode("ascii") == r.maximizers[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_screen_rounding_keeps_every_tied_graph(self, monkeypatch, workers):
        # power iteration ties every feasible graph at 1.0, and the screen
        # reads each up to RECHECK_TOLERANCE / 2 off it, spread by graph
        tol = search.RECHECK_TOLERANCE

        def screen(row_sets, n):
            return np.array([1.0 + (hash(rows) % 1001 - 500) * tol / 1000 for rows in row_sets])

        monkeypatch.setattr(search, "spectral_radius", lambda g: SimpleNamespace(rho=1.0))
        monkeypatch.setattr(search, "screen_radii", screen)
        # equal radii break the check's premise that an edge raises rho
        monkeypatch.setattr(search, "_check_saturated", lambda *args: None)
        statuses, _ = reference_search(6, "fs-subgraph-free:s=1", DEFAULT_NODE_BUDGET)
        feasible = sorted(
            canonical_code(Graph(rows)).decode("ascii")
            for rows, status in statuses.items()
            if status == NOT_FOUND
        )
        r = extremal_search(6, "fs-subgraph-free:s=1", workers=workers)
        assert len(feasible) == 19
        assert r.best_rho == 1.0
        assert list(r.maximizers) == feasible

    def test_screen_batches_do_not_change_report(self, monkeypatch):
        want = extremal_search(7, "fs-subgraph-free:s=1").to_json(include_elapsed=False)
        monkeypatch.setattr(search, "SCREEN_BATCH", 3)
        for workers in (1, 2):
            got = extremal_search(7, "fs-subgraph-free:s=1", workers=workers)
            assert got.to_json(include_elapsed=False) == want


class TestSaturation:
    @pytest.mark.parametrize(
        "constraint",
        ["fs-minor-free:s=1", "qt-minor-free:t=1", "fs-subgraph-free:s=1", "qt-subgraph-free:t=1"],
    )
    def test_every_maximizer_is_edge_maximal(self, monkeypatch, constraint):
        for n in range(3, 8):
            calls = record_status(monkeypatch)
            r = extremal_search(n, constraint)  # raises on a feasible G+e
            assert r.exhausted_count == 0 and r.maximizers
            added = [rows for g6 in r.maximizers for rows in non_edges(g6)]
            # the check is the search's last tests, one per non-edge
            assert calls[len(calls) - len(added):] == added
            monkeypatch.undo()

    def test_feasible_graph_with_an_added_edge_raises(self, monkeypatch):
        g6, (u, v), target = unwalked_non_edge(monkeypatch, 6, "fs-minor-free:s=1")
        plant_feasible(monkeypatch, target)
        with pytest.raises(VerificationFailed, match=f"{g6} plus edge {u}-{v}"):
            extremal_search(6, "fs-minor-free:s=1")

    def test_exhausted_searches_skip_the_check(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("saturation checked with exhausted graphs")

        monkeypatch.setattr(search, "_check_saturated", no_check)
        r = extremal_search(6, "fs-minor-free:s=2", node_budget=5)
        assert r.exhausted_count > 0 and r.maximizers


# the speclab.search attributes that perfbench/spans.py replaces to trace
# a search; the tests of each constraint kind and the join's construction
TRACED = {
    "fs-minor-free:s=1": "has_fs_minor",
    "qt-minor-free:t=1": "has_qt_minor",
    "fs-subgraph-free:s=1": "fs_subgraph_witness",
    "qt-subgraph-free:t=1": "qt_subgraph_witness",
}


def count_traced(monkeypatch):
    """Counting wrappers on the traced names, set as a tracer sets them."""
    counts = dict.fromkeys([*TRACED.values(), "construct"], 0)
    for name in counts:

        def counted(*args, _name=name, _real=getattr(search, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(search, name, counted)
    return counts


class TestTracedNames:
    """A search looks its tests and construct up in speclab.search at each
    call, so a tracer that replaces those attributes sees every call."""

    @pytest.mark.parametrize("constraint", sorted(TRACED))
    def test_search_calls_the_traced_test(self, monkeypatch, constraint):
        counts = count_traced(monkeypatch)
        calls = record_status(monkeypatch)
        extremal_search(5, constraint)
        want = dict.fromkeys(TRACED.values(), 0)
        want.update({TRACED[constraint]: len(calls), "construct": 1})
        assert calls and counts == want

    def test_verify_calls_the_traced_construct(self, monkeypatch):
        counts = count_traced(monkeypatch)
        calls = record_status(monkeypatch)
        verify_theorem_small_n(parse_constraint("qt-subgraph:t=1"), (4, 5))
        # per n, verify builds the join once and hands it to its search
        assert counts["construct"] == 2
        assert counts["qt_subgraph_witness"] == len(calls) > 0


class TestVerifyTheorem:
    def test_star_matches_for_all_small_n(self):
        reps = verify_theorem_small_n(parse_constraint("fs:s=1"), (4, 7))
        assert [r.n for r in reps] == [4, 5, 6, 7]
        assert all(r.match for r in reps)
        for r in reps:
            assert abs(r.best_rho - math.sqrt(r.n - 1)) <= 1e-9

    def test_qt_mode_records_flags(self):
        reps = verify_theorem_small_n(parse_constraint("qt:t=1"), (5, 7))
        assert [r.constraint for r in reps] == ["qt-minor-free:t=1"] * 3
        assert all(isinstance(r.match, bool) for r in reps)

    def test_qt_subgraph_mode(self):
        reps = verify_theorem_small_n(parse_constraint("qt-subgraph:t=1"), (5, 6))
        assert len(reps) == 2
        assert all(r.exhausted_count == 0 for r in reps)

    def test_fs_subgraph_mode_records_the_bipartite_winner(self):
        # K_1 + I_{n-1}, the star, has no triangle and passes its own test,
        # but K_{n//2, n - n//2} has no triangle either and a larger radius
        reps = verify_theorem_small_n(parse_constraint("fs-subgraph-free:s=1"), (4, 6))
        assert [r.constraint for r in reps] == ["fs-subgraph-free:s=1"] * 3
        for r in reps:
            star, _ = construct(FamilySpec("ks-join-independent", s=1, n=r.n))
            a = r.n // 2
            bipartite, _ = construct(FamilySpec("complete-bipartite", a=a, b=r.n - a))
            assert r.predicted_g6 == canonical_code(star).decode("ascii")
            assert r.maximizers == (canonical_code(bipartite).decode("ascii"),)
            assert abs(r.best_rho - math.sqrt(a * (r.n - a))) <= 1e-9
            assert r.exhausted_count == 0 and r.match is False

    def test_bad_mode_and_range(self):
        with pytest.raises(ValueError):
            parse_constraint("f:s=1")
        with pytest.raises(ValueError):
            verify_theorem_small_n(parse_constraint("fs:s=1"), (6, 4))

    def test_unconstructible_prediction_propagates(self):
        with pytest.raises(InvalidSpec):
            verify_theorem_small_n(parse_constraint("fs:s=2"), (2, 2))

    def test_unsettled_prediction_is_budget_exhaustion(self, monkeypatch):
        # the join's own freeness test runs out of budget: nothing is refuted
        with pytest.raises(BudgetExhausted, match="exhausted"):
            verify_theorem_small_n(parse_constraint("fs:s=2"), (5, 5), node_budget=1)
        # a pattern found in the join refutes the prediction
        monkeypatch.setattr(Constraint, "status", lambda *args: FOUND)
        with pytest.raises(VerificationFailed, match="found"):
            verify_theorem_small_n(parse_constraint("fs:s=2"), (5, 5))


class TestEdgeBoundAudit:
    def test_quarter_square_equalities(self):
        audit = edge_bound_audit(
            [
                FamilySpec("efgg", s=3, n=450),
                FamilySpec("efgg", s=2, n=12),
                FamilySpec("zlx", s=3, n=20),
            ],
            3,
            "fs",
        )
        rows = audit["rows"]
        assert [row["edges"] for row in rows] == [50631, 37, 106]
        for row in rows:
            assert row["matches_expected"]
            assert row["checks"]["edge_maximum_equality"]["equality"]
        assert rows[0]["checks"]["edge_maximum_equality"]["correction"] == 6
        assert rows[1]["checks"]["edge_maximum_equality"]["correction"] == 1

    def test_join_linear_in_n_with_slope_s(self):
        audit = edge_bound_audit(
            [FamilySpec("ks-join-independent", s=2, n=n) for n in (50, 100, 200)],
            2,
            "fs",
        )
        e = [row["edges"] for row in audit["rows"]]
        assert e[0] == 97  # 1 + 2*48
        assert (e[1] - e[0]) / 50 == 2
        assert (e[2] - e[1]) / 100 == 2
        for row in audit["rows"]:
            assert row["checks"]["linear_bound"]["holds"]

    def test_bipartite_slack_with_user_constant(self):
        audit = edge_bound_audit(
            [FamilySpec("complete-bipartite", a=5, b=20)],
            2,
            "fs",
            c_constant=10.0,
        )
        chk = audit["rows"][0]["checks"]["bipartite_slack"]
        assert chk["slack"] == 100 - (10.0 * 5 + 2 * 25)
        assert chk["within"]

    def test_no_slack_check_without_constant(self):
        audit = edge_bound_audit(
            [FamilySpec("complete-bipartite", a=2, b=3)], 1, "qt"
        )
        assert "bipartite_slack" not in audit["rows"][0]["checks"]
        assert audit["metadata"]["limitation"]

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            edge_bound_audit([], 1, "both")


class TestSerialization:
    def test_csv_round(self):
        reps = verify_theorem_small_n(parse_constraint("fs:s=1"), (4, 5))
        text = reports_to_csv(reps)
        lines = text.strip().splitlines()
        assert lines[0].startswith("n,constraint,enumerated")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "4"

    def test_csv_without_elapsed_is_stable(self):
        a = reports_to_csv(verify_theorem_small_n(parse_constraint("fs:s=1"), (4, 5)), False)
        b = reports_to_csv(verify_theorem_small_n(parse_constraint("fs:s=1"), (4, 5)), False)
        assert a == b
