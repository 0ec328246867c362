from __future__ import annotations

import random
from time import perf_counter

import networkx as nx
import pytest
from hypothesis import given, settings

from planarlab import (
    DuplicateEdgeError,
    LoopEdgeError,
    MalformedEncodingError,
    NotPlanarInputError,
    VertexOutOfRangeError,
    add_count,
    addable_nonedges,
    bridges,
    build_graph,
    components,
    complete_graph,
    count_components_isomorphic,
    decode,
    degree_histogram,
    encode,
    has_copy,
    is_planar,
    isolated_vertex_count,
    kappa,
    pattern_from_name,
    pendant_edge_count,
)
from planarlab._bits import pair_count
from planarlab.census import class_masks
from planarlab.graphs import LabeledGraph, bridge_sides, spanning_forest
from tests.conftest import labeled_graphs
from tests.oracles import (
    adjacency_rows,
    component_count_bfs,
    components_bfs,
    degrees_from_edges,
    encode_definition,
    grown_planar_graph,
    has_injection_brute,
    random_graph,
    relabeled_subgraph,
)


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert g.m == 3
        assert g.has_edge(3, 1)

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph(4, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, [(1, 2), (2, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(1, 4)])
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(0, 2)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(0, [])

    def test_single_vertex_graph_is_valid(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0 and is_planar(g)


class TestEncoding:
    def test_triangle(self):
        assert encode(build_graph(3, [(1, 2), (2, 3), (1, 3)])) == "3:E"

    def test_path(self):
        assert encode(build_graph(3, [(1, 2), (2, 3)])) == "3:A"

    def test_k4(self):
        assert encode(complete_graph(4)) == "4:FC"

    def test_one_vertex(self):
        assert encode(build_graph(1, [])) == "1:"
        assert decode("1:").n == 1

    def test_decode_examples(self):
        assert decode("3:E").edges == frozenset({(1, 2), (1, 3), (2, 3)})
        assert decode("3:A").edges == frozenset({(1, 2), (2, 3)})

    @pytest.mark.parametrize(
        "bad",
        ["", "3", ":E", "3:e", "3:G", "03:E", "0:", "3:F", "3:EE", "4:FC0", "-1:", "3: E"],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedEncodingError):
            decode(bad)

    @given(labeled_graphs(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, g):
        assert decode(encode(g)) == g

    def test_every_nonzero_pad_bit_is_rejected(self):
        # the pad bits are the low bits of the last digit; set each one alone
        # on the edgeless and the complete graph's text
        tried = 0
        for n in range(2, 41):
            pad = -pair_count(n) % 4
            for g in (build_graph(n, []), complete_graph(n)):
                text = encode(g)
                assert decode(text) == g
                for bit in range(pad):
                    bad = text[:-1] + f"{int(text[-1], 16) | 1 << bit:X}"
                    with pytest.raises(MalformedEncodingError, match="pad bits"):
                        decode(bad)
                    tried += 1
        assert tried == 2 * sum(-pair_count(n) % 4 for n in range(2, 41)) > 0

    @pytest.mark.parametrize("m", [100, 150, 290])
    def test_chain_size_encoding(self, m):
        # n=100: 4,950 slots in 1,238 digits, with two pad bits
        rng = random.Random(m)
        for _ in range(5):
            g = random_graph(rng, 100, m)
            text = encode(g)
            assert text == encode_definition(g)
            assert len(text) == len("100:") + 1238
            assert decode(text) == g and decode(text).edges == g.edges


class TestAdjacency:
    """The neighbour rows, from the byte tables up to n = 7 and by the row
    walk past that, against the oracles' row loop; every mask up to n = 6 and
    the hypothesis graphs up to n = 12 are in TestBitsetStatisticsAgainstOracles."""

    @pytest.mark.parametrize("m", [4, 7, 14, 15])
    def test_every_member_of_an_n7_class(self, m):
        for mask in class_masks(7, m):
            assert LabeledGraph(7, mask).adjacency == adjacency_rows(7, mask), mask

    def test_sparse_graphs_at_three_thousand(self):
        n, rng = 3000, random.Random(38)
        ends = [(1, 2), (1, n), (n - 1, n)]  # a row's first and last slots, the last slot
        picks = {tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(40)}
        runs = [(i, j) for i in (5, 6, 2000) for j in (i + 1, i + 2, n)]  # adjacent rows
        for edges in ([], ends, sorted(picks), runs, ends + sorted(picks) + runs):
            g = build_graph(n, sorted(set(edges)))
            assert g.adjacency == adjacency_rows(n, g.mask), edges

    def test_sparse_rows_at_ten_thousand_cost_a_few_mask_shifts(self):
        # a shift of the whole mask per row, as the oracle does, costs about
        # 2,500 whole-mask shifts here (4.3 s on a 2-vCPU Xeon); the row
        # walk shifts it once per nonempty row
        g = build_graph(10_000, [(1, 2), (9_999, 10_000)])
        shifts = []
        for _ in range(3):
            start = perf_counter()
            g.mask >> 1
            shifts.append(perf_counter() - start)
        start = perf_counter()
        rows = g.adjacency
        took = perf_counter() - start
        assert rows[1:3] == (1 << 2, 1 << 1) and rows[9_999:] == (1 << 10_000, 1 << 9_999)
        assert rows.count(0) == 1 + 9_996 and kappa(g) == 9_998
        assert took < 200 * min(shifts), (took, min(shifts))


class TestComponents:
    def test_edgeless(self):
        g = build_graph(5, [])
        assert kappa(g) == 5
        assert components(g) == [frozenset({v}) for v in range(1, 6)]

    def test_triangle(self):
        assert kappa(build_graph(3, [(1, 2), (2, 3), (1, 3)])) == 1

    def test_edge_plus_isolated(self):
        g = build_graph(3, [(1, 2)])
        assert components(g) == [frozenset({1, 2}), frozenset({3})]
        assert kappa(g) == 2

    def test_component_order_is_by_minimum(self):
        g = build_graph(6, [(2, 5), (3, 4)])
        assert [min(c) for c in components(g)] == [1, 2, 3, 6]

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 9))
            assert kappa(g) == component_count_bfs(g)


class TestBridges:
    def test_path_all_bridges(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
        assert bridges(g) == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_triangle_none(self):
        assert bridges(build_graph(3, [(1, 2), (2, 3), (1, 3)])) == frozenset()

    def test_triangle_with_pendant(self):
        g = build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        assert bridges(g) == frozenset({(3, 4)})

    @pytest.mark.parametrize("m", [100, 150])
    def test_chain_size_graphs_against_networkx(self, m):
        # n=100 at the chain's sparse densities: many components and bridges
        rng = random.Random(1000 + m)
        for _ in range(10):
            g = random_graph(rng, 100, m)
            oracle = nx.Graph(sorted(g.edges))
            oracle.add_nodes_from(range(1, 101))
            expected = frozenset((min(e), max(e)) for e in nx.bridges(oracle))
            assert bridges(g) == expected
            assert components(g) == components_bfs(g)

    @staticmethod
    def assert_networkx_agrees(g):
        # the bridges with their sides, the components and kappa, as networkx
        # finds them
        oracle = nx.Graph(sorted(g.edges))
        oracle.add_nodes_from(range(1, g.n + 1))
        comps = sorted(sum(1 << v for v in c) for c in nx.connected_components(oracle))
        sides = []
        for u, v in sorted((min(e), max(e)) for e in nx.bridges(oracle)):
            oracle.remove_edge(u, v)
            sides.append(((u, v), *(sum(1 << x for x in nx.node_connected_component(oracle, end))
                                    for end in (u, v))))
            oracle.add_edge(u, v)
        assert bridge_sides(g) == (frozenset(edge for edge, _, _ in sides), tuple(sides)), g
        assert bridges(g) == bridge_sides(g)[0]
        assert sorted(g.component_masks) == comps and kappa(g) == len(comps), g

    def test_every_mask_up_to_six_against_networkx(self):
        for n in range(1, 7):
            for mask in range(1 << pair_count(n)):
                self.assert_networkx_agrees(LabeledGraph(n, mask))

    @pytest.mark.parametrize("n", range(8, 31))
    def test_near_triangulations_against_networkx(self, n):
        # within three edges of 3n - 6, and a core as dense with one pendant
        # edge: the forest walk finds every edge of a triangulation on a cycle
        # (each vertex has its parent's two neighbours in its link near), and
        # stops at the pendant edge wherever its layers meet it
        rng = random.Random(3000 + n)
        for missing in range(4):
            m = 3 * n - 6 - missing
            g = grown_planar_graph(rng, n, m)
            pendant = grown_planar_graph(rng, n + 1, m + 1, core=n)
            self.assert_networkx_agrees(g)
            self.assert_networkx_agrees(pendant)
            assert spanning_forest(g)[2] or missing
            assert not spanning_forest(pendant)[2]

    def test_deleting_bridge_raises_kappa_by_one(self):
        rng = random.Random(2)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 9))
            cut = bridges(g)
            base = kappa(g)
            for edge in g.edges:
                reduced = build_graph(g.n, sorted(g.edges - {edge}))
                if edge in cut:
                    assert kappa(reduced) == base + 1
                else:
                    assert kappa(reduced) == base


class TestDegreeHistogram:
    def test_k4(self):
        assert degree_histogram(complete_graph(4)) == {3: 4}

    def test_path3(self):
        assert degree_histogram(build_graph(3, [(1, 2), (2, 3)])) == {1: 2, 2: 1}

    def test_edgeless_pair(self):
        assert degree_histogram(build_graph(2, [])) == {0: 2}

    @given(labeled_graphs(max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_identities(self, g):
        hist = degree_histogram(g)
        assert list(hist) == sorted(hist) and 0 not in hist.values()
        assert sum(hist.values()) == g.n
        assert sum(d * c for d, c in hist.items()) == 2 * g.m


class TestAddableNonedges:
    def test_four_cycle_diagonals(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert addable_nonedges(g) == [(1, 3), (2, 4)]
        assert add_count(g) == 2

    def test_maximal_planar_has_none(self):
        # K5 minus one edge is planar with m = 3n-6 = 9; brute force over the
        # single non-edge: adding it back yields K5, which is not planar.
        edges = [e for e in complete_graph(5).edges if e != (1, 2)]
        g = build_graph(5, edges)
        assert is_planar(g)
        assert is_planar(build_graph(5, edges + [(1, 2)])) is False
        assert addable_nonedges(g) == []

    def test_edgeless_all_pairs(self):
        g = build_graph(4, [])
        assert add_count(g) == 6

    def test_rejects_nonplanar_input(self):
        with pytest.raises(NotPlanarInputError):
            addable_nonedges(complete_graph(5))


class TestBitsetStatisticsAgainstOracles:
    """The bitset statistics against definitions that share no code with them:
    the neighbour rows read by the oracles' row loop, BFS over ``has_edge``
    (slot arithmetic on the mask), degrees counted over the edge pairs,
    brute-force injection scans, and the text encoding spelled out bit by
    bit."""

    PATTERNS = ("vertex", "edge", "path3", "triangle", "k4")

    def check(self, g, patterns):
        assert g.adjacency == adjacency_rows(g.n, g.mask)

        # edges, has_edge and the encoding
        edges = g.edges
        pairs = {(i, j) for i in range(1, g.n + 1) for j in range(i + 1, g.n + 1)
                 if g.has_edge(i, j)}
        assert edges == pairs and g.m == len(pairs)
        assert encode(g) == encode_definition(g)
        back = decode(encode(g))
        assert back == g and back.edges == edges

        # components and kappa
        parts = components_bfs(g)
        assert components(g) == parts and kappa(g) == len(parts)

        # degrees, isolated vertices and pendant edges
        deg = degrees_from_edges(g)
        assert list(g.degrees) == deg
        assert isolated_vertex_count(g) == sum(1 for v in range(1, g.n + 1) if deg[v] == 0)
        assert pendant_edge_count(g) == sum(1 for i, j in edges if 1 in (deg[i], deg[j]))

        # bridges: exactly the edges whose deletion raises kappa
        cut = bridges(g)
        for edge in edges:
            reduced = build_graph(g.n, sorted(edges - {edge}))
            assert (edge in cut) == (component_count_bfs(reduced) == len(parts) + 1), edge
        assert cut <= edges

        # copies and components isomorphic to each pattern
        for pattern in patterns:
            if pattern.size > g.n:
                continue
            assert has_copy(g, pattern) == has_injection_brute(g, pattern.h)
            expected = 0
            for part in parts:
                sub = relabeled_subgraph(g, part)
                if sub.n == pattern.size and sub.m == pattern.edge_count:
                    expected += has_injection_brute(sub, pattern.h)
            assert count_components_isomorphic(g, pattern) == expected

    def test_every_mask_up_to_six(self, small_patterns):
        patterns = [small_patterns[name] for name in self.PATTERNS]
        for n in range(1, 7):
            # The K4 scan tries 360 maps per graph at n=6 (about 20 s over the
            # 32,768 masks); there K4 rests on the hypothesis sweep below and
            # on C8, which checks count_copies(K4) at every mask.
            checked = [p for p in patterns if n <= 5 or p.size <= 3]
            for mask in range(1 << pair_count(n)):
                self.check(LabeledGraph(n, mask), checked)

    @given(labeled_graphs(max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_graphs_up_to_twelve(self, g):
        self.check(g, [pattern_from_name(name) for name in self.PATTERNS])
