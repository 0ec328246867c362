from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings

from planarlab import LabeledGraph, addable_nonedges, build_graph, complete_graph, is_planar
from planarlab._bits import edges_from_mask, pair_count, pairs_in_order
from tests.oracles import has_forbidden_subdivision
from planarlab.planarity import (
    _left_right_planar,
    forbidden_subdivision_masks,
    is_planar_edges,
    planar_mask_table,
)
from tests.conftest import labeled_graphs

K33_EDGES = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]


class TestExamples:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4))

    def test_k5_not_planar(self):
        assert not is_planar(complete_graph(5))

    def test_k33_not_planar(self):
        assert not is_planar(build_graph(6, K33_EDGES))

    @pytest.mark.parametrize("n", [7, 9, 12])
    def test_edge_bound_rejects(self, n):
        # any graph with m > 3n-6 must be rejected, whatever its edges
        rng = random.Random(n)
        pairs = pairs_in_order(n)
        for _ in range(20):
            edges = rng.sample(pairs, 3 * n - 5)
            assert not is_planar_edges(n, edges)


class TestOracleEquivalence:
    def test_exhaustive_up_to_five(self):
        # every one of the 2^C(n,2) graphs for n <= 5
        for n in range(1, 6):
            for mask in range(1 << pair_count(n)):
                edges = edges_from_mask(n, mask)
                assert is_planar_edges(n, edges) == (
                    not has_forbidden_subdivision(n, edges)
                ), (n, mask)

    def test_random_sample_at_six(self):
        rng = random.Random(6)
        for _ in range(10_000):
            mask = rng.getrandbits(15)
            edges = edges_from_mask(6, mask)
            assert is_planar_edges(6, edges) == (not has_forbidden_subdivision(6, edges))

    def test_left_right_matches_table_exhaustively_at_six(self):
        table = planar_mask_table(6)
        for mask in range(1 << 15):
            edges = edges_from_mask(6, mask)
            assert _left_right_planar(6, edges) == (table[mask] == 1), mask

    def test_left_right_matches_table_at_seven(self):
        rng = random.Random(7)
        table = planar_mask_table(7)
        for _ in range(4000):
            mask = rng.getrandbits(21)
            edges = edges_from_mask(7, mask)
            assert _left_right_planar(7, edges) == (table[mask] == 1), mask

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_left_right_matches_search_beyond_table(self, n):
        rng = random.Random(n)
        slots = pair_count(n)
        for _ in range(250):
            m = rng.randrange(0, min(slots, 3 * n - 2))
            mask = 0
            for s in rng.sample(range(slots), m):
                mask |= 1 << s
            edges = edges_from_mask(n, mask)
            planar = is_planar_edges(n, edges)
            assert planar == (not has_forbidden_subdivision(n, edges))
            g = LabeledGraph(n, mask)
            assert is_planar(g) == planar
            if planar:
                assert addable_nonedges(g) == [
                    e for e in pairs_in_order(n)
                    if e not in edges and is_planar_edges(n, edges + (e,))]

    def test_isolated_padding_does_not_change_the_answer(self):
        # same graph, re-read at n=9 so the left-right path decides it
        rng = random.Random(99)
        for _ in range(300):
            mask = rng.getrandbits(15)
            edges = edges_from_mask(6, mask)
            assert is_planar_edges(6, edges) == is_planar_edges(9, edges)


class TestStructuredFamiliesBeyondTable:
    """Known-answer graphs at orders where the left-right test decides."""

    @pytest.mark.parametrize("n", [11, 13, 16])
    def test_relabeled_triangulations_are_planar(self, n):
        from planarlab import fan_triangulation_edges

        rng = random.Random(n)
        base = fan_triangulation_edges(n)
        for _ in range(25):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            edges = [(perm[i - 1], perm[j - 1]) for i, j in base]
            assert is_planar_edges(n, edges)

    @pytest.mark.parametrize("n", [11, 13, 16])
    def test_embedded_k5_subdivisions_are_caught(self, n):
        # five branch vertices joined by vertex-disjoint paths through the rest
        rng = random.Random(100 + n)
        for _ in range(25):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            branch = labels[:5]
            spare = labels[5:]
            edges = []
            spare_iter = iter(spare)
            for i in range(5):
                for j in range(i + 1, 5):
                    mid = next(spare_iter, None)
                    if mid is None:
                        edges.append((branch[i], branch[j]))
                    else:
                        edges.append((branch[i], mid))
                        edges.append((mid, branch[j]))
            norm = [(a, b) if a < b else (b, a) for a, b in edges]
            assert not is_planar_edges(n, norm)
            # dropping any single edge of a subdivision restores planarity
            drop = rng.choice(norm)
            assert is_planar_edges(n, [e for e in norm if e != drop])

    def test_disjoint_unions(self):
        from planarlab import fan_triangulation_edges

        tri_part = fan_triangulation_edges(6)  # on labels 1..6
        k5_part = [(i + 6, j + 6) for i, j in combinations(range(1, 6), 2)]
        assert not is_planar_edges(11, tri_part + k5_part)
        other = [(i + 6, j + 6) for i, j in fan_triangulation_edges(5)]
        assert is_planar_edges(11, tri_part + other)


class TestNoRecursion:
    """The left-right test walks explicit paths: a DFS thousands of vertices
    deep neither recurses nor touches the interpreter's recursion limit."""

    def test_deep_path_with_k33_at_its_end(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 3000
        path = [(v, v + 1) for v in range(1, n)]
        k33 = [(a, b) for a in (2995, 2997, 2999) for b in (2996, 2998, 3000)]
        edges = sorted(set(path) | set(k33))
        assert not is_planar_edges(n, edges)
        assert is_planar_edges(n, [e for e in edges if e != (2995, 3000)])


class TestForbiddenMasks:
    def test_counts(self):
        assert len(forbidden_subdivision_masks(5)) == 1
        assert len(forbidden_subdivision_masks(6)) == 76
        assert len(forbidden_subdivision_masks(7)) == 3451

    def test_each_is_minimal_nonplanar(self):
        # every forbidden graph is non-planar and one edge short of planar
        for mask in forbidden_subdivision_masks(6):
            edges = edges_from_mask(6, mask)
            assert not _left_right_planar(6, edges)
            for drop in edges:
                rest = [e for e in edges if e != drop]
                assert _left_right_planar(6, rest)

    def test_sample_minimality_at_seven(self):
        rng = random.Random(17)
        masks = forbidden_subdivision_masks(7)
        for mask in rng.sample(masks, 120):
            edges = edges_from_mask(7, mask)
            assert not _left_right_planar(7, edges)
            for drop in edges:
                rest = [e for e in edges if e != drop]
                assert _left_right_planar(7, rest)


class TestMonotonicity:
    @given(labeled_graphs(max_n=8))
    @settings(max_examples=120, deadline=None)
    def test_deletion_preserves_planarity(self, g):
        if not is_planar(g):
            return
        for edge in g.edges:
            assert is_planar(build_graph(g.n, sorted(g.edges - {edge})))

    def test_subgraphs_of_known_planar(self):
        # spot check: every subset of a maximal planar graph stays planar
        edges = [e for e in complete_graph(5).edges if e != (1, 2)]
        for r in range(len(edges) + 1):
            for subset in combinations(edges, min(r, 4)):
                assert is_planar_edges(5, subset)
