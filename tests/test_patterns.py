from __future__ import annotations

import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

import planarlab.patterns as patterns_module
from planarlab import (
    DisconnectedPatternError,
    LabeledGraph,
    NonplanarPatternError,
    PatternError,
    PatternTooLargeError,
    appearance_witnesses,
    automorphism_count,
    build_graph,
    complete_graph,
    count_appearances,
    count_components_isomorphic,
    count_copies,
    count_good_triangles,
    cycle_graph,
    has_copy,
    is_two_edge_connected,
    isomorphic,
    make_pattern,
    path_graph,
    pattern_from_name,
    star_graph,
)
from planarlab._bits import edges_from_mask, pair_count
from planarlab.graphs import induced_subgraph
from planarlab.patterns import PATTERN_MAX_ORDER, appearance_law
from tests.oracles import (
    _count_appearances_subset_np,
    _count_appearances_subset_py,
    appearance_count_definition,
    count_appearances_subset,
    has_injection_brute,
    injection_count_brute,
    random_graph,
    random_planar_graph,
)

FIGURE_H = build_graph(4, [(1, 3), (1, 4), (2, 4), (3, 4)])
FIGURE_G = build_graph(
    8, [(3, 6), (2, 3), (2, 7), (4, 7), (1, 8), (1, 6), (3, 8), (5, 7), (2, 5)]
)


class TestMakePattern:
    def test_path4_is_tree(self):
        p = make_pattern(path_graph(4))
        assert p.klass == "tree" and p.aut_count == 2

    def test_triangle_is_unicyclic(self):
        p = make_pattern(cycle_graph(3))
        assert p.klass == "unicyclic" and p.aut_count == 6

    def test_k4_is_multicyclic(self):
        p = make_pattern(complete_graph(4))
        assert p.klass == "multicyclic" and p.aut_count == 24

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedPatternError):
            make_pattern(build_graph(4, [(1, 2)]))

    def test_nonplanar_rejected(self):
        with pytest.raises(NonplanarPatternError):
            make_pattern(complete_graph(5))

    def test_oversized_rejected(self):
        with pytest.raises(PatternTooLargeError):
            make_pattern(path_graph(17))

    @pytest.mark.parametrize("preset", ["path", "cycle", "star"])
    def test_oversized_preset_is_refused_before_it_is_built(self, preset, monkeypatch):
        monkeypatch.setattr(patterns_module, f"{preset}_graph", lambda k: pytest.fail(f"built {k}"))
        for digits, order in (("1000000", "1000000"), ("17", "17"), ("00017", "17"),
                              ("9" * 5000, "9" * 5000)):
            with pytest.raises(PatternTooLargeError, match=f"^pattern order {order} exceeds 16$"):
                pattern_from_name(preset + digits)

    def test_preset_orders_up_to_the_limit(self):
        assert pattern_from_name("path16").size == 16
        assert pattern_from_name("cycle016").edge_count == 16
        assert pattern_from_name("star008").edge_count == 7
        for name in ("path²", "path"):
            with pytest.raises(PatternError, match="unknown pattern"):
                pattern_from_name(name)

    def test_presets(self):
        assert pattern_from_name("vertex").size == 1
        assert pattern_from_name("edge").edge_count == 1
        assert pattern_from_name("path3").size == 3
        assert pattern_from_name("cycle5").edge_count == 5
        assert pattern_from_name("star4").edge_count == 3
        assert pattern_from_name("k4").aut_count == 24
        raw = pattern_from_name("3:E")
        assert raw.klass == "unicyclic"

    def test_aut_divides_factorial(self):
        import math

        from planarlab import kappa

        rng = random.Random(3)
        checked = 0
        while checked < 40:
            g = random_planar_graph(rng, 5, rng.randint(4, 8))
            if kappa(g) != 1:
                continue
            p = make_pattern(g)
            assert math.factorial(p.size) % p.aut_count == 0
            checked += 1


class TestIsomorphism:
    def test_c4_vs_path4(self):
        assert not isomorphic(cycle_graph(4), path_graph(4))

    def test_relabeled_triangle(self):
        a = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        b = build_graph(3, [(2, 1), (3, 2), (3, 1)])
        assert isomorphic(a, b)

    def test_star_vs_path(self):
        assert not isomorphic(star_graph(4), path_graph(4))

    def test_automorphism_counts(self):
        assert automorphism_count(cycle_graph(4)) == 8
        assert automorphism_count(path_graph(2)) == 2
        assert automorphism_count(complete_graph(4)) == 24
        assert automorphism_count(star_graph(4)) == 6
        assert automorphism_count(build_graph(1, [])) == 1

    def test_automorphism_closed_forms_up_to_the_order_limit(self):
        # star16 has 15! automorphisms: counting them one by one would take days
        def too_slow(signum, frame):
            raise TimeoutError("automorphism counts took over 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            for k in range(1, PATTERN_MAX_ORDER + 1):
                assert automorphism_count(path_graph(k)) == (1 if k == 1 else 2), k
                if k >= 2:
                    assert automorphism_count(star_graph(k)) == (2 if k == 2 else factorial(k - 1)), k
                if k >= 3:
                    assert automorphism_count(cycle_graph(k)) == 2 * k, k
            assert automorphism_count(complete_graph(4)) == 24
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(9)
        pool = [random_graph(rng, rng.randint(2, 6)) for _ in range(25)]
        for g in pool:
            assert isomorphic(g, g)
        for g in pool:
            for h in pool:
                assert isomorphic(g, h) == isomorphic(h, g)
        # transitivity over a relabeling chain
        base = random_graph(rng, 6, 7)
        perm = list(range(1, 7))
        rng.shuffle(perm)
        relabeled = build_graph(6, [(perm[i - 1], perm[j - 1]) for i, j in base.edges])
        assert isomorphic(base, relabeled)

    def test_many_components(self):
        # eight 3-paths against six 3-paths, a 4-path and an edge: equal n, m
        # and degrees; a search that backtracks over where the other
        # components went tries every arrangement of them before it fails
        paths = [(3 * i + 1, 3 * i + 2) for i in range(8)] + [(3 * i + 2, 3 * i + 3) for i in range(8)]
        g2 = build_graph(24, paths)
        g1 = build_graph(24, paths[:6] + paths[8:14] + [(19, 20), (20, 21), (21, 22), (23, 24)])
        assert not isomorphic(g1, g2) and not isomorphic(g2, g1)
        perm = list(range(24, 0, -1))
        assert isomorphic(g2, build_graph(24, [(perm[i - 1], perm[j - 1]) for i, j in paths]))

    def test_against_injection_scan_on_every_small_graph(self):
        # each graph n<=5 against one graph of every isomorphism class found so
        # far; with equal n and m, an edge-preserving injection is an isomorphism
        unlabeled = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n, classes in unlabeled.items():
            reps: list = []
            for mask in range(1 << pair_count(n)):
                g = build_graph(n, edges_from_mask(n, mask))
                truth = [g.m == r.m and has_injection_brute(g, r) for r in reps]
                assert [isomorphic(g, r) for r in reps] == truth, g
                assert [isomorphic(r, g) for r in reps] == truth, g
                assert automorphism_count(g) == injection_count_brute(g, g), g
                if not any(truth):
                    reps.append(g)
            assert len(reps) == classes
            assert not isomorphic(reps[0], build_graph(n + 1, []))


class TestAppearances:
    def test_star_with_vertex_pattern(self):
        star = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        assert count_appearances(star, pattern_from_name("vertex")) == 3

    def test_path4_with_edge_pattern(self):
        # only W={3,4} works: the outgoing edge 2-3 is incident with root 3
        assert count_appearances(path_graph(4), pattern_from_name("edge")) == 1

    def test_figure_example(self):
        pattern = make_pattern(FIGURE_H)
        assert count_appearances(FIGURE_G, pattern) == 1
        assert count_appearances_subset(FIGURE_G, pattern.h) == 1
        assert appearance_witnesses(FIGURE_G, pattern) == [(2, 4, 5, 7)]

    def test_pattern_too_large(self):
        # |H| >= n leaves no room for the edge out of W: no appearance
        g, pattern = path_graph(3), pattern_from_name("path3")
        assert count_appearances(g, pattern) == 0 == appearance_count_definition(g, pattern.h)
        assert appearance_witnesses(g, pattern) == []
        assert appearance_law(g, pattern) == [1]

    def test_matches_definition_oracle(self, small_patterns):
        rng = random.Random(4)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 7))
            for pattern in small_patterns.values():
                if pattern.size >= g.n:
                    continue
                expected = appearance_count_definition(g, pattern.h)
                assert count_appearances(g, pattern) == expected
                assert count_appearances_subset(g, pattern.h) == expected

    def test_subset_and_bridge_agree_on_random_planar(self, small_patterns):
        rng = random.Random(5)
        for n, m_hi in ((7, 15), (8, 18)):
            for _ in range(120):
                g = random_planar_graph(rng, n, rng.randint(0, m_hi))
                for pattern in small_patterns.values():
                    if pattern.size >= g.n:
                        continue
                    assert count_appearances_subset(g, pattern.h) == count_appearances(
                        g, pattern
                    )

    def test_subset_and_bridge_agree_at_moderate_order(self, small_patterns):
        from planarlab import sample_many

        for n, m in ((12, 14), (20, 30), (30, 45)):
            batch = sample_many(n, m, 12, method="mcmc", seed=n, burn_in=300, thinning=2)
            for mask in batch.samples:
                g = LabeledGraph(n, mask)
                for pattern in small_patterns.values():
                    assert count_appearances_subset(g, pattern.h) == count_appearances(
                        g, pattern
                    )

    def test_python_and_vector_subset_paths_agree(self, small_patterns):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(rng, 12)
            for pattern in small_patterns.values():
                assert _count_appearances_subset_py(g, pattern.h) == (
                    _count_appearances_subset_np(g, pattern.h)
                )

    def test_two_edge_connected_witnesses_disjoint(self):
        rng = random.Random(7)
        patterns = [pattern_from_name("triangle"), pattern_from_name("k4")]
        for _ in range(150):
            g = random_planar_graph(rng, 8, rng.randint(0, 18))
            for pattern in patterns:
                seen: set[int] = set()
                for witness in appearance_witnesses(g, pattern):
                    assert not (seen & set(witness))
                    seen.update(witness)


class TestAppearanceLaw:
    """The law of the appearance count under relabeling, against the counts
    on every relabeling of the graph."""

    def relabeled_law(self, g, pattern):
        tally = Counter()
        for perm in permutations(range(1, g.n + 1)):
            h = build_graph(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
            tally[count_appearances(h, pattern)] += 1
        law = [Fraction(tally[k], factorial(g.n)) for k in range(max(tally) + 1)]
        return law

    def check(self, g, pattern):
        law = appearance_law(g, pattern)
        while len(law) > 1 and law[-1] == 0:
            law.pop()
        assert law == self.relabeled_law(g, pattern), (g, pattern.name)

    def test_overlapping_sides(self):
        # a path's end sides overlap; so do the three 3-vertex sides of a star
        self.check(path_graph(3), pattern_from_name("edge"))
        self.check(path_graph(5), pattern_from_name("path3"))
        self.check(star_graph(4), pattern_from_name("path3"))
        self.check(path_graph(6), pattern_from_name("path4"))
        two_stars = build_graph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)])
        self.check(two_stars, pattern_from_name("star4"))

    def test_random_graphs(self):
        rng = random.Random(21)
        names = ("vertex", "edge", "path3", "star4", "path4", "4:9C", "4:D4")
        for _ in range(30):
            n = rng.randint(3, 6)  # sparse, so that most graphs have bridges
            g = random_graph(rng, n, rng.randint(n - 2, n))
            for name in names:
                pattern = pattern_from_name(name)
                if pattern.size < g.n:
                    self.check(g, pattern)


class TestComponentsIsomorphic:
    def test_two_triangles(self):
        g = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert count_components_isomorphic(g, pattern_from_name("triangle")) == 2

    def test_k4_contains_but_is_not_a_triangle_component(self):
        assert count_components_isomorphic(complete_graph(4), pattern_from_name("triangle")) == 0

    def test_edgeless_vertices(self):
        g = build_graph(3, [])
        assert count_components_isomorphic(g, pattern_from_name("vertex")) == 3

    def test_component_sizes_tile_the_graph(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_planar_graph(rng, n, rng.randint(0, min(2 * n, pair_count(n))))
            reps = []
            for comp in g.component_sets:
                sub = induced_subgraph(g, sorted(comp))
                if not any(isomorphic(sub, r.h) for r in reps):
                    reps.append(make_pattern(sub))
            total = sum(
                count_components_isomorphic(g, rep) * rep.size for rep in reps
            )
            assert total == g.n

    def test_component_implies_copy(self, small_patterns):
        rng = random.Random(10)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 7))
            for pattern in small_patterns.values():
                if count_components_isomorphic(g, pattern) >= 1:
                    assert count_components_isomorphic(g, pattern) <= count_copies(g, pattern)


class TestCopies:
    def test_k4_triangles(self):
        assert count_copies(complete_graph(4), pattern_from_name("triangle")) == 4

    def test_c4_has_no_triangle(self):
        assert count_copies(cycle_graph(4), pattern_from_name("triangle")) == 0
        assert not has_copy(cycle_graph(4), pattern_from_name("triangle"))

    def test_k4_path3_copies(self):
        # 4*3*2 = 24 injections over |Aut| = 2
        assert count_copies(complete_graph(4), pattern_from_name("path3")) == 12

    def test_identity_against_injection_enumeration(self, small_patterns):
        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 7))
            for pattern in small_patterns.values():
                if pattern.size > g.n:
                    continue
                brute = injection_count_brute(g, pattern.h)
                assert count_copies(g, pattern) * pattern.aut_count == brute
                assert has_copy(g, pattern) == (brute > 0)


class TestGoodTriangles:
    def test_k4(self):
        assert count_good_triangles(complete_graph(4)) == 4

    def test_c5(self):
        assert count_good_triangles(cycle_graph(5)) == 0

    def test_wheel_on_seven_rim_vertices(self):
        hub_edges = [(1, j) for j in range(2, 9)]
        rim = [(j, j + 1) for j in range(2, 8)] + [(2, 8)]
        wheel = build_graph(8, hub_edges + rim)
        assert wheel.degree(1) == 7
        assert count_good_triangles(wheel) == 7

    def test_high_degree_triangle_excluded(self):
        # three hubs of degree 7 sharing a triangle, every other vertex a leaf
        edges = [(1, 2), (1, 3), (2, 3)]
        nxt = 4
        for hub in (1, 2, 3):
            for _ in range(5):
                edges.append((hub, nxt))
                nxt += 1
        g = build_graph(nxt - 1, edges)
        assert g.degree(1) == g.degree(2) == g.degree(3) == 7
        assert count_good_triangles(g) == 0


class TestTwoEdgeConnected:
    def test_examples(self):
        assert is_two_edge_connected(cycle_graph(3))
        assert is_two_edge_connected(complete_graph(4))
        assert not is_two_edge_connected(path_graph(2))
        assert not is_two_edge_connected(path_graph(4))
        assert not is_two_edge_connected(build_graph(1, []))
