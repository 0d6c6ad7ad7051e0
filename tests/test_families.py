import pytest

from speclab.errors import InvalidSpec
from speclab.families import (
    FamilySpec,
    Layout,
    construct,
    efgg_extremal,
    expected_edge_count,
    hstar,
    near_regular,
    parse_family_spec,
    zlx_extremal,
)
from speclab.graph import Graph, is_connected


def degree_multiset(g):
    return tuple(sorted((g.degree(v) for v in range(g.n)), reverse=True))


def check_bipartite_embed(g, layout, embed_edge_count):
    """All cross pairs present, side1 independent, small side holds only the embedding."""
    side_small = sorted(layout.regions["embed"] | layout.regions["side0"])
    side1 = sorted(layout.regions["side1"])
    for u in side_small:
        for v in side1:
            assert g.has_edge(u, v)
    for i, u in enumerate(side1):
        for v in side1[i + 1 :]:
            assert not g.has_edge(u, v)
    inner = [
        (u, v)
        for i, u in enumerate(side_small)
        for v in side_small[i + 1 :]
        if g.has_edge(u, v)
    ]
    assert len(inner) == embed_edge_count
    emb = layout.regions["embed"]
    assert all(u in emb and v in emb for u, v in inner)


class TestSpec:
    def test_text_round_trip(self):
        for text in (
            "friendship:s=3",
            "intersecting-c4:t=2",
            "kt-join-matching:t=2,n=40",
            "ks-join-independent:s=2,n=10",
            "efgg:s=3,n=450",
            "zlx:s=3,n=20",
            "complete-bipartite:a=2,b=9",
            "complete:n=5",
            "hstar:s=4",
            "near-regular:s=6",
            "matching:t=7",
        ):
            spec = parse_family_spec(text)
            assert spec.text() == text
            assert parse_family_spec(spec.text()) == spec

    def test_whitespace_tolerated(self):
        assert parse_family_spec(" efgg:s=3,n=450 ") == FamilySpec("efgg", s=3, n=450)

    def test_rejects(self):
        bad = [
            "windmill:s=3",
            "friendship",
            "friendship:s=0",
            "friendship:x=3",
            "friendship:s=two",
            "friendship:s=3,n=9",
            "friendship:s=1,s=2",
            "cycle:n=2",
            "complete-bipartite:a=0,b=4",
            "ks-join-independent:s=5,n=5",
            "kt-join-matching:t=0,n=5",
            "efgg:s=3,n=11",
            "efgg:s=2,n=5",
            "zlx:s=2,n=7",
            "hstar:s=3",
            "hstar:s=0",
            "near-regular:s=5",
            "matching:t=0",
        ]
        for text in bad:
            with pytest.raises(InvalidSpec):
                parse_family_spec(text)

    def test_layout_must_partition(self):
        with pytest.raises(InvalidSpec):
            Layout(3, {"A": frozenset({0, 1}), "B": frozenset({1, 2})})
        with pytest.raises(InvalidSpec):
            Layout(3, {"A": frozenset({0, 1})})
        with pytest.raises(InvalidSpec):
            Layout(3, {"A": frozenset({0, 1, 2, 3})})


class TestBasicFamilies:
    def test_complete_and_independent(self):
        g, lay = construct(FamilySpec("complete", n=5))
        assert g.edge_count == 10 and g.n == 5
        assert lay.regions == {"V": frozenset(range(5))}
        g, _ = construct(FamilySpec("independent", n=4))
        assert g.edge_count == 0 and g.n == 4

    def test_bipartite(self):
        g, lay = construct(FamilySpec("complete-bipartite", a=2, b=9))
        assert g.n == 11 and g.edge_count == 18
        assert degree_multiset(g) == (9, 9) + (2,) * 9
        assert lay.regions["A"] == frozenset({0, 1})

    def test_path_cycle_matching(self):
        g, _ = construct(FamilySpec("path", n=6))
        assert g.edge_count == 5 and degree_multiset(g) == (2, 2, 2, 2, 1, 1)
        g, _ = construct(FamilySpec("cycle", n=6))
        assert g.edge_count == 6 and set(degree_multiset(g)) == {2}
        g, _ = construct(FamilySpec("matching", t=5))
        assert g.edge_count == 2 and degree_multiset(g) == (1, 1, 1, 1, 0)
        assert g.degree(4) == 0

    def test_friendship_shape(self):
        g, lay = construct(FamilySpec("friendship", s=3))
        assert g.n == 7 and g.edge_count == 9
        assert g.degree(0) == 6
        # hub-and-pairs labeling: vertices 2i+1, 2i+2 form triangle i with the hub
        for i in range(3):
            assert g.has_edge(2 * i + 1, 2 * i + 2)
        assert lay.regions["center"] == frozenset({0})

    def test_intersecting_c4_shape(self):
        g, lay = construct(FamilySpec("intersecting-c4", t=2))
        assert g.n == 7 and g.edge_count == 8
        assert g.degree(0) == 4
        for j in range(2):
            x, y, z = 3 * j + 1, 3 * j + 2, 3 * j + 3
            assert g.has_edge(0, x) and g.has_edge(x, y)
            assert g.has_edge(y, z) and g.has_edge(z, 0)
            assert not g.has_edge(x, z) and not g.has_edge(0, y)

    def test_join_families(self):
        g, lay = construct(FamilySpec("ks-join-independent", s=2, n=10))
        assert g.n == 10 and g.edge_count == 1 + 2 * 8
        assert g.degree(0) == g.degree(1) == 9
        assert all(g.degree(v) == 2 for v in range(2, 10))
        g, _ = construct(FamilySpec("kt-join-matching", t=2, n=9))
        # clique edge + 2*7 cross + 3 matched pairs, one unmatched vertex
        assert g.edge_count == 1 + 14 + 3
        assert degree_multiset(g) == (8, 8, 3, 3, 3, 3, 3, 3, 2)

    def test_kt_join_matching_is_windmill_at_t1(self):
        g1, _ = construct(FamilySpec("kt-join-matching", t=1, n=5))
        g2, _ = construct(FamilySpec("friendship", s=2))
        assert g1 == g2


class TestNearRegular:
    def test_s4_degrees(self):
        g = near_regular(4)
        assert g.n == 7 and g.edge_count == 10
        assert degree_multiset(g) == (3, 3, 3, 3, 3, 3, 2)
        assert g.degree(6) == 2
        assert is_connected(g)

    def test_s2_degenerate(self):
        g = near_regular(2)
        assert g.n == 3 and g.edge_count == 1
        assert g.degree(2) == 0

    def test_degree_sequences(self):
        for s in (2, 4, 6, 8, 10):
            g = near_regular(s)
            assert g.n == 2 * s - 1
            assert g.edge_count == s * s - 3 * s // 2
            assert degree_multiset(g) == (s - 1,) * (2 * s - 2) + (s - 2,)

    def test_deterministic(self):
        assert near_regular(6) == near_regular(6)


class TestHstar:
    def test_s4_shape(self):
        g, lay = hstar(4)
        assert g.n == 7 and g.edge_count == 10
        assert degree_multiset(g) == (3, 3, 3, 3, 3, 3, 2)
        (w0,) = lay.regions["w0"]
        (u0,) = lay.regions["u0"]
        a = lay.regions["A1"] | lay.regions["A2"]
        assert set(g.neighbors(w0)) == a
        assert g.degree(u0) == 3
        assert not g.has_edge(w0, u0)

    def test_region_sizes_and_cliques(self):
        for s in (2, 4, 6, 8):
            g, lay = hstar(s)
            assert g.n == 2 * s - 1
            assert g.edge_count == s * s - 3 * s // 2
            r = lay.regions
            assert len(r["A1"]) == len(r["A2"]) == len(r["B2"]) == (s - 2) // 2
            assert len(r["B1"]) == s // 2
            for block in (r["A1"] | r["A2"], r["B1"] | r["B2"]):
                members = sorted(block)
                for i, u in enumerate(members):
                    for v in members[i + 1 :]:
                        assert g.has_edge(u, v)
            (u0,) = r["u0"]
            assert set(g.neighbors(u0)) == r["A1"] | r["B1"]
            # B2 is matched into A2, one edge each
            for v in r["B2"]:
                outside = set(g.neighbors(v)) - (r["B1"] | r["B2"])
                assert len(outside & r["A2"]) == 1 and outside <= r["A2"]

    def test_s2_degenerate(self):
        g, lay = hstar(2)
        assert g.n == 3 and g.edge_count == 1
        (w0,) = lay.regions["w0"]
        assert g.degree(w0) == 0
        assert lay.regions["A1"] == frozenset()


class TestExtremalConstructions:
    def test_efgg_frozen_counts(self):
        g, lay = efgg_extremal(3, 450)
        assert g.n == 450 and g.edge_count == 50631
        g, lay = efgg_extremal(2, 12)
        assert g.n == 12 and g.edge_count == 37
        g, lay = efgg_extremal(1, 8)
        assert g.edge_count == 16
        assert degree_multiset(g) == (4,) * 8  # plain K_{4,4} at s=1

    def test_zlx_frozen_counts(self):
        g, _ = zlx_extremal(3, 20)
        assert g.n == 20 and g.edge_count == 106
        g, _ = zlx_extremal(1, 6)
        assert degree_multiset(g) == (3,) * 6  # K_{3,3}

    def test_embedding_isolated_from_bipartite(self):
        g, lay = efgg_extremal(3, 14)
        check_bipartite_embed(g, lay, embed_edge_count=6)
        g, lay = efgg_extremal(2, 10)
        check_bipartite_embed(g, lay, embed_edge_count=1)
        g, lay = zlx_extremal(4, 16)
        check_bipartite_embed(g, lay, embed_edge_count=10)

    def test_odd_s_embeds_two_cliques(self):
        g, lay = efgg_extremal(3, 16)
        emb = sorted(lay.regions["embed"])
        assert len(emb) == 6
        for block in (emb[:3], emb[3:]):
            for i, u in enumerate(block):
                for v in block[i + 1 :]:
                    assert g.has_edge(u, v)
        for u in emb[:3]:
            for v in emb[3:]:
                assert not g.has_edge(u, v)

    def test_even_s_embeddings_differ_but_agree_in_count(self):
        ga, _ = efgg_extremal(4, 18)
        gb, _ = zlx_extremal(4, 18)
        assert ga.edge_count == gb.edge_count == 81 + 10


class TestEdgeCountSweep:
    def test_closed_forms_match_construction(self):
        specs = []
        for n in (1, 2, 5, 13, 40, 60):
            specs += [FamilySpec("complete", n=n), FamilySpec("independent", n=n)]
            specs += [FamilySpec("path", n=n)]
            if n >= 3:
                specs.append(FamilySpec("cycle", n=n))
            specs.append(FamilySpec("matching", t=n))
        for s in range(1, 7):
            specs.append(FamilySpec("friendship", s=s))
            specs.append(FamilySpec("intersecting-c4", t=s))
            if s % 2 == 0:
                specs.append(FamilySpec("hstar", s=s))
                specs.append(FamilySpec("near-regular", s=s))
            for n in (15, 26, 41, 60):
                specs.append(FamilySpec("ks-join-independent", s=s, n=n))
                specs.append(FamilySpec("kt-join-matching", t=s, n=n))
                if (s % 2 and n >= 4 * s) or (s % 2 == 0 and n >= 2 * (2 * s - 1)):
                    specs.append(FamilySpec("efgg", s=s, n=n))
                if n >= max(4 * s, 2 * (2 * s - 1)):
                    specs.append(FamilySpec("zlx", s=s, n=n))
        for a in (1, 2, 5):
            for b in (1, 4, 9):
                specs.append(FamilySpec("complete-bipartite", a=a, b=b))
        assert len(specs) > 140
        for spec in specs:
            g, lay = construct(spec)
            assert g.edge_count == expected_edge_count(spec), spec.text()
            assert lay.n == g.n
            covered = set()
            for members in lay.regions.values():
                covered |= members
            assert covered == set(range(g.n))

    def test_construct_parse_agree(self):
        for text in ("efgg:s=4,n=30", "friendship:s=5", "zlx:s=2,n=8"):
            g1, _ = construct(parse_family_spec(text))
            g2, _ = construct(parse_family_spec(text))
            assert g1 == g2
