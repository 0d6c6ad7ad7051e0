"""graph6 codec and canonical code.

The oracle here is a deliberately naive reference encoder that works on a
"0101..." bit string, written before the packed implementation: byte
values come from chunking that string by six.  Known byte values for tiny
graphs are frozen alongside it.
"""

import hashlib
import itertools
import random

import pytest

from speclab.enumerate import enumerate_connected
from speclab.errors import MalformedGraph6, SizeLimitExceeded
from speclab.families import FamilySpec, construct
from speclab.graph import (
    MAX_VERTICES,
    Graph,
    canonical_code,
    canonical_perm,
    compare_least,
    g6_decode,
    g6_encode,
    least_columns,
)


# -- reference encoder (independent, string based) -------------------------


def reference_g6(n, edge_pred):
    """Encode via an explicit bit string; edge_pred(u, v) gives the bit."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    bits = []  # a list, since += on one long str copies it
    for v in range(1, n):
        for u in range(v):
            bits.append("1" if edge_pred(u, v) else "0")
    while len(bits) % 6:
        bits.append("0")
    bits = "".join(bits)
    body = "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return (head + body).encode("ascii")

def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestEncode:
    def test_frozen_small_values(self):
        assert g6_encode(complete(3)) == b"Bw"
        assert g6_encode(Graph.empty(2)) == b"A?"
        assert g6_encode(cycle(4)) == b"Cl"
        assert g6_encode(Graph.empty(0)) == b"?"
        assert g6_encode(Graph.empty(1)) == b"@"

    def test_matches_reference_encoder(self):
        rng = random.Random(101)
        for n in list(range(0, 15)) + [30, 61, 62, 63, 64, 100]:
            for _ in range(20):
                g = random_graph(rng, n, rng.choice([0.15, 0.5, 0.85]))
                assert g6_encode(g) == reference_g6(n, g.has_edge)

    def test_multibyte_header(self):
        g = Graph.empty(63)
        enc = g6_encode(g)
        assert enc[0] == 126 and len(enc) == 4 + (63 * 62 // 2 + 5) // 6

    def test_round_trip_per_n(self):
        # spec-level property: encode/decode is the identity, all small sizes
        rng = random.Random(202)
        for n in range(1, 63):
            for _ in range(1000):
                edges = []
                for u in range(n):
                    for v in range(u + 1, n):
                        if rng.getrandbits(1):
                            edges.append((u, v))
                g = Graph.from_edges(n, edges)
                assert g6_decode(g6_encode(g)) == g

    def test_matches_reference_up_to_200(self):
        # the packed codec against the bit-by-bit encoder, both directions
        rng = random.Random(404)
        for _ in range(60):
            n = rng.randint(1, 200)
            g = random_graph(rng, n, rng.choice([0.05, 0.5, 0.95]))
            ref = reference_g6(n, g.has_edge)
            assert g6_encode(g) == ref
            assert g6_decode(ref) == g

    def test_round_trip_at_cap(self):
        rng = random.Random(505)
        n = MAX_VERTICES
        g = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)] + [(0, n - 1)])
        enc = g6_encode(g)
        assert len(enc) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert g6_decode(enc) == g

    @pytest.mark.slow
    def test_efgg_4000_matches_reference(self):
        g, _ = construct(FamilySpec("efgg", s=3, n=4000))
        edges = set(g.edges())
        assert g6_encode(g) == reference_g6(g.n, lambda u, v: (u, v) in edges)

    def test_round_trip_large(self):
        rng = random.Random(303)
        for n in [63, 64, 200, 1000]:
            g = random_graph(rng, n, 0.05)
            assert g6_decode(g6_encode(g)) == g


class TestDecode:
    def test_malformed(self):
        with pytest.raises(MalformedGraph6):
            g6_decode(b"")
        with pytest.raises(MalformedGraph6):
            g6_decode(b"B")  # truncated payload
        with pytest.raises(MalformedGraph6):
            g6_decode(b"Bww")  # extra payload
        with pytest.raises(MalformedGraph6):
            g6_decode(bytes([200, 119]))  # byte out of range
        with pytest.raises(MalformedGraph6):
            g6_decode(b"~~????")  # 36-bit form unsupported

    def test_nonzero_padding_rejected(self):
        # C_4 payload is 'l' = 101101; n=4 uses 6 bits, no padding; use n=3
        # where one byte carries 3 data bits + 3 pad bits
        good = g6_encode(complete(3))
        assert good[1] - 63 == 0b111000  # three data bits, three pad bits
        bad = bytes([good[0], good[1] + 1])  # lowest pad bit now set
        with pytest.raises(MalformedGraph6):
            g6_decode(bad)

    def test_oversized_decode(self):
        data = bytes([126, 63 + 1, 63, 63])  # n = 4096 exactly: fine header-wise
        # 4096 > 62 so header valid; body absent -> malformed, not size error
        with pytest.raises(MalformedGraph6):
            g6_decode(data)
        with pytest.raises(SizeLimitExceeded):
            g6_decode(bytes([126, 63 + 1, 63, 64]))  # n = 4097

    def test_accepts_str_and_whitespace(self):
        assert g6_decode("Bw\n") == complete(3)


class TestCanonical:
    def test_relabelings_share_code(self):
        rng = random.Random(404)
        for n in range(1, 9):
            for _ in range(5):
                g = random_graph(rng, n)
                code = canonical_code(g)
                for _ in range(10):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_code(g.relabel(perm)) == code

    def test_p4_all_labelings_one_code(self):
        g = path(4)
        codes = {canonical_code(g.relabel(p)) for p in itertools.permutations(range(4))}
        assert len(codes) == 1

    def test_distinguishes_nonisomorphic(self):
        g1 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)])  # K_3 + isolate
        g2 = path(4)
        assert g1.edge_count == g2.edge_count
        assert canonical_code(g1) != canonical_code(g2)

    def test_eleven_classes_on_four_vertices(self):
        codes = set()
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        for bits in range(64):
            edges = [pairs[i] for i in range(6) if (bits >> i) & 1]
            codes.add(canonical_code(Graph.from_edges(4, edges)))
        assert len(codes) == 11

    def test_matches_brute_force_minimum(self):
        # oracle: minimum g6 over every permutation, n <= 6
        rng = random.Random(505)
        for n in range(1, 7):
            for _ in range(20):
                g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
                brute = min(
                    g6_encode(g.relabel(p)) for p in itertools.permutations(range(n))
                )
                assert canonical_code(g) == brute

    def test_canonical_perm_is_permutation(self):
        g = cycle(6)
        perm = canonical_perm(g)
        assert sorted(perm) == list(range(6))
        assert g6_encode(g.relabel(perm)) == canonical_code(g)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            canonical_code(Graph.empty(11))
        canonical_code(Graph.empty(10))  # boundary fine

    def test_perms_pinned_on_every_class_up_to_7(self):
        # the labellings canonical_perm gave before its descent took a bound
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in enumerate_connected(n):
                digest.update(repr(canonical_perm(g)).encode())
        assert digest.hexdigest() == "5827b22f562c92c1daec0524657576fd1de74112b5a38fc816877e5fede9159d"

    def test_least_columns_are_the_code_columns(self):
        rng = random.Random(606)
        for n in range(0, 11):
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            h = g.relabel(canonical_perm(g))
            # column k, position 0 first: the low k bits of row k, reversed
            cols = [int(format(h.rows[k] & ((1 << k) - 1), f"0{k}b")[::-1], 2) for k in range(n)]
            assert least_columns(g.rows) == cols


    def test_code_decodes_to_isomorphic_graph(self):
        g = cycle(5).with_edge(0, 2)
        h = g6_decode(canonical_code(g))
        assert h.degree_sequence() == g.degree_sequence()
        assert h.edge_count == g.edge_count


class TestBoundedComparison:
    """compare_least(rows, bound) against the byte order of canonical codes."""

    @staticmethod
    def sign(a, b):
        return (a > b) - (a < b)

    def test_every_ordered_pair_of_classes_up_to_6(self):
        for n in range(1, 7):
            classes = list(enumerate_connected(n))
            codes = [canonical_code(g) for g in classes]
            bounds = [least_columns(g.rows) for g in classes]
            for g, code in zip(classes, codes):
                for other, bound in zip(codes, bounds):
                    assert compare_least(g.rows, bound) == self.sign(code, other)

    def test_random_pairs_up_to_10(self):
        rng = random.Random(20261020)
        signs = []
        for i in range(2000):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            if i % 4:
                h = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            else:  # an isomorphic pair, for the equal case
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabel(perm)
            want = self.sign(canonical_code(g), canonical_code(h))
            assert compare_least(g.rows, least_columns(h.rows)) == want, (g.rows, h.rows)
            signs.append(want)
        assert all(signs.count(s) >= 300 for s in (-1, 0, 1))
