import math
import random

import numpy as np
import pytest

from speclab.errors import (
    ConvergenceFailure,
    Disconnected,
    EmptyGraph,
    UnsupportedFamily,
)
from speclab.families import FamilySpec, construct
from speclab.graph import Graph, disjoint_union, is_connected
from speclab.spectral import (
    adjacency_matrix,
    rho_closed_form,
    spectral_radius,
    verify_perron_bound,
)


def eig_rho(g):
    """Independent check: dense symmetric eigensolver."""
    if g.n == 0:
        raise ValueError
    return float(np.max(np.linalg.eigvalsh(adjacency_matrix(g))))


def random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected(n, p, rng):
    while True:
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestPowerIteration:
    def test_frozen_values(self):
        c4, _ = construct(FamilySpec("cycle", n=4))
        assert abs(spectral_radius(c4).rho - 2.0) <= 1e-10
        k29, _ = construct(FamilySpec("complete-bipartite", a=2, b=9))
        assert abs(spectral_radius(k29).rho - math.sqrt(18)) <= 1e-9
        f2, _ = construct(FamilySpec("friendship", s=2))
        assert abs(spectral_radius(f2).rho - (1 + math.sqrt(17)) / 2) <= 1e-9

    def test_against_dense_solver(self):
        rng = random.Random(711)
        for _ in range(120):
            n = rng.randint(1, 30)
            g = random_graph(n, rng.choice([0.15, 0.4, 0.7]), rng)
            assert abs(spectral_radius(g).rho - eig_rho(g)) <= 1e-8

    def test_vector_is_eigenvector(self):
        rng = random.Random(722)
        for _ in range(40):
            g = random_connected(rng.randint(2, 14), 0.4, rng)
            res = spectral_radius(g, tol=1e-12)
            x = np.array(res.vector)
            assert max(res.vector) == 1.0
            assert res.residual <= 1e-12
            err = adjacency_matrix(g) @ x - res.rho * x
            assert float(np.max(np.abs(err))) <= 1e-12

    def test_degree_bounds(self):
        rng = random.Random(733)
        for _ in range(60):
            g = random_connected(rng.randint(2, 16), 0.5, rng)
            rho = spectral_radius(g).rho
            degs = [g.degree(v) for v in range(g.n)]
            assert 2 * g.edge_count / g.n - 1e-9 <= rho <= max(degs) + 1e-9

    def test_edge_monotonicity(self):
        rng = random.Random(744)
        for _ in range(200):
            n = rng.randint(3, 12)
            g = random_connected(n, 0.35, rng)
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            before = spectral_radius(g).rho
            after = spectral_radius(g.with_edge(u, v)).rho
            assert after > before + 1e-9

    def test_disconnected_picks_largest_component(self):
        g = disjoint_union(Graph.empty(1), complete(3))
        res = spectral_radius(g)
        assert abs(res.rho - 2.0) <= 1e-10
        assert res.vector[0] == 0.0
        assert res.vector[1] == res.vector[2] == res.vector[3] == 1.0

    def test_tie_keeps_first_component(self):
        c4, _ = construct(FamilySpec("cycle", n=4))
        g = disjoint_union(complete(3), c4)
        res = spectral_radius(g)
        assert abs(res.rho - 2.0) <= 1e-10
        assert res.vector[0] == 1.0 and res.vector[3] == 0.0

    def test_single_vertex(self):
        res = spectral_radius(Graph.empty(1))
        assert res.rho == 0.0 and res.vector == (1.0,)

    def test_failures(self):
        with pytest.raises(EmptyGraph):
            spectral_radius(Graph.empty(0))
        with pytest.raises(ValueError):
            spectral_radius(Graph.empty(1), tol=0.0)
        star = Graph.from_edges(3, [(0, 1), (0, 2)])
        with pytest.raises(ConvergenceFailure) as exc:
            spectral_radius(star, max_iter=1)
        assert exc.value.iterations == 1
        assert exc.value.residual > 0

    def test_max_iter_must_be_positive(self):
        # zero iterations is a bad argument, not a search that gave up
        for max_iter in (0, -5):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                spectral_radius(Graph.empty(1), max_iter=max_iter)


class TestClosedForms:
    def test_simple_kinds(self):
        assert rho_closed_form(FamilySpec("complete", n=7)) == 6.0
        assert rho_closed_form(FamilySpec("independent", n=3)) == 0.0
        assert rho_closed_form(FamilySpec("cycle", n=9)) == 2.0
        assert abs(rho_closed_form(FamilySpec("path", n=3)) - math.sqrt(2)) <= 1e-12
        assert rho_closed_form(FamilySpec("matching", t=6)) == 1.0
        assert rho_closed_form(FamilySpec("matching", t=1)) == 0.0
        assert (
            abs(rho_closed_form(FamilySpec("complete-bipartite", a=2, b=9)) - math.sqrt(18))
            <= 1e-12
        )

    def test_join_forms_against_dense_solver(self):
        for s in range(1, 6):
            for n in (6, 11, 20, 47):
                if n <= s:
                    continue
                spec = FamilySpec("ks-join-independent", s=s, n=n)
                g, _ = construct(spec)
                assert abs(rho_closed_form(spec) - eig_rho(g)) <= 1e-9, spec.text()
                spec = FamilySpec("kt-join-matching", t=s, n=n)
                g, _ = construct(spec)
                assert abs(rho_closed_form(spec) - eig_rho(g)) <= 1e-9, spec.text()

    def test_join_forms_against_power_iteration(self):
        for s in range(1, 6):
            for n in (6, 11, 20, 100, 200):
                if n <= s:
                    continue
                for kind, param in (("ks-join-independent", "s"), ("kt-join-matching", "t")):
                    spec = FamilySpec(kind, n=n, **{param: s})
                    g, _ = construct(spec)
                    delta = abs(rho_closed_form(spec) - spectral_radius(g).rho)
                    assert delta <= 1e-9, spec.text()

    def test_join_with_single_outside_vertex_is_complete(self):
        assert rho_closed_form(FamilySpec("kt-join-matching", t=4, n=5)) == 4.0

    def test_friendship_form(self):
        for s in range(1, 6):
            g, _ = construct(FamilySpec("friendship", s=s))
            assert abs(rho_closed_form(FamilySpec("friendship", s=s)) - eig_rho(g)) <= 1e-9

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            rho_closed_form(FamilySpec("efgg", s=3, n=450))
        with pytest.raises(UnsupportedFamily):
            rho_closed_form(FamilySpec("hstar", s=4))
        with pytest.raises(EmptyGraph):
            rho_closed_form(FamilySpec("complete", n=0))


class TestPerronBound:
    def test_holds_on_join_families(self):
        for n in (5, 12, 30):
            for kind, param in (("ks-join-independent", "s"), ("kt-join-matching", "t")):
                for val in (1, 2, 3):
                    g, _ = construct(FamilySpec(kind, n=n, **{param: val}))
                    report = verify_perron_bound(g)
                    assert report.ok, (kind, val, n)
                    assert report.min_entry >= 1.0 / report.rho - 1e-8

    def test_tight_on_stars(self):
        g, _ = construct(FamilySpec("complete-bipartite", a=1, b=5))
        report = verify_perron_bound(g)
        assert report.ok
        assert abs(report.min_entry - report.bound) <= 1e-9

    def test_fails_on_long_path(self):
        g, _ = construct(FamilySpec("path", n=10))
        report = verify_perron_bound(g)
        assert not report.ok
        assert report.min_entry < report.bound - 0.1

    def test_degenerate_and_errors(self):
        report = verify_perron_bound(Graph.empty(1))
        assert report.ok and report.bound == 0.0
        with pytest.raises(Disconnected):
            verify_perron_bound(Graph.empty(2))
        with pytest.raises(EmptyGraph):
            verify_perron_bound(Graph.empty(0))
