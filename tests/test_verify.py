from __future__ import annotations

import pytest

from planarlab import (
    InvalidArgumentError,
    NotTriangulationError,
    PatternNotTwoEdgeConnectedError,
    ResourceLimitError,
    build_graph,
    check_addable_cross_component,
    check_appearance_disjointness,
    check_component_bound,
    check_cutedge_bound,
    check_triangulation_degrees,
    complete_graph,
    count_class,
    enumerate_class,
    pattern_from_name,
    path_graph,
    verify_class,
    verify_graph,
)


class TestComponentBound:
    def test_edgeless(self):
        r = check_component_bound(build_graph(5, []))
        assert r.holds and r.lhs == 5 and r.rhs == 5

    def test_spanning_tree(self):
        r = check_component_bound(build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
        assert r.holds and r.lhs == 1 and r.rhs == 1

    def test_triangle_plus_isolated(self):
        g = build_graph(5, [(1, 2), (2, 3), (1, 3)])
        r = check_component_bound(g)
        assert r.holds and r.lhs == 3 and r.rhs == 2


class TestAddableCrossComponent:
    def test_two_triangles(self):
        g = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        r = check_addable_cross_component(g)
        assert r.holds and r.rhs == 9 and r.lhs >= 9

    def test_connected_graph_is_vacuous(self):
        r = check_addable_cross_component(complete_graph(4))
        assert r.holds and r.rhs == 0

    def test_edgeless_four(self):
        r = check_addable_cross_component(build_graph(4, []))
        assert r.holds and r.lhs == 6 and r.rhs == 6


class TestCutedgeBound:
    def test_tree_on_four(self):
        r = check_cutedge_bound(path_graph(4))
        assert r.holds and r.lhs == 3 and float(r.rhs) == 4.5

    def test_k4(self):
        r = check_cutedge_bound(complete_graph(4))
        assert r.holds and r.lhs == 0 and float(r.rhs) == 3.0

    def test_path_on_ten(self):
        r = check_cutedge_bound(path_graph(10))
        assert r.holds and r.lhs == 9 and float(r.rhs) == 10.5


class TestTriangulationDegrees:
    def test_k4(self):
        r = check_triangulation_degrees(complete_graph(4))
        assert r.holds and r.lhs == (4, 4)

    def test_k5_minus_edge(self):
        edges = [e for e in complete_graph(5).edges if e != (1, 2)]
        r = check_triangulation_degrees(build_graph(5, edges))
        assert r.holds and r.lhs[0] == 5

    def test_rejects_non_triangulation(self):
        with pytest.raises(NotTriangulationError):
            check_triangulation_degrees(path_graph(4))

    def test_every_triangulation_on_seven(self):
        hits = []
        enumerate_class(7, 15, hits.append)
        assert len(hits) == 5712
        for g in hits:
            assert check_triangulation_degrees(g).holds


class TestAppearanceDisjointness:
    def test_two_disjoint_k4_appearances(self):
        # two K4 blocks, each hanging off the hub by one bridge at its minimum
        edges = []
        for block in ((2, 3, 4, 5), (6, 7, 8, 9)):
            for i, a in enumerate(block):
                for b in block[i + 1:]:
                    edges.append((a, b))
            edges.append((1, block[0]))
        g = build_graph(9, edges)
        r = check_appearance_disjointness(g, pattern_from_name("k4"))
        assert r.holds

    def test_single_appearance_is_vacuous(self):
        edges = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (1, 2)]
        r = check_appearance_disjointness(build_graph(5, edges), pattern_from_name("k4"))
        assert r.holds

    def test_requires_two_edge_connected_pattern(self):
        with pytest.raises(PatternNotTwoEdgeConnectedError):
            check_appearance_disjointness(complete_graph(4), pattern_from_name("path3"))

    def test_exhaustive_triangle_sweep_at_seven(self):
        # every planar graph on 7 vertices, all edge counts (~1.8M graphs);
        # 140 of them carry two triangle appearances and none may overlap
        from planarlab import enumerate_all
        from planarlab.patterns import appearance_witnesses

        triangle = pattern_from_name("triangle")
        multi = 0

        def check(g):
            nonlocal multi
            witnesses = appearance_witnesses(g, triangle)
            if len(witnesses) < 2:
                return
            multi += 1
            seen: set[int] = set()
            for w in witnesses:
                assert not (seen & set(w)), g
                seen.update(w)

        enumerate_all(7, check)
        assert multi == 140  # 70 hub-attached pairs plus 70 sharing one out-edge


class TestVerifyClass:
    def test_five_five_all_pass(self):
        outcome = verify_class(5, 5)
        assert outcome.class_size == 252
        assert outcome.all_pass
        assert all(v == 0 for v in outcome.violations.values())

    def test_singleton_k4(self):
        outcome = verify_class(4, 6)
        assert outcome.class_size == 1 and outcome.all_pass

    def test_empty_class_trivially_passes(self):
        outcome = verify_class(5, 10)
        assert outcome.class_size == 0 and outcome.all_pass

    def test_class_search_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_class(9, 12, budget=500)

    def test_negative_budget_is_refused_before_any_work(self):
        from planarlab import build_census

        store = build_census(4, [3], store_graphs=True)
        for census in (None, store):
            with pytest.raises(InvalidArgumentError, match="budget must be a non-negative"):
                verify_class(4, 3, census, budget=-1)

    def test_uses_stored_census_when_available(self):
        from planarlab import build_census

        store = build_census(4, [3], store_graphs=True)
        outcome = verify_class(4, 3, store)
        assert outcome.class_size == count_class(4, 3) == 20
        assert outcome.all_pass

    def test_census_and_search_routes_agree_up_to_five(self):
        # every class with n <= 5, past the edge bound too: the whole outcome
        from planarlab import build_census
        from planarlab._bits import pair_count

        for n in range(1, 6):
            for m in range(pair_count(n) + 1):
                stored = build_census(n, [m], store_graphs=True)
                assert verify_class(n, m, stored) == verify_class(n, m), (n, m)

    def test_census_route_encodes_nothing(self, monkeypatch):
        import planarlab.verify as verify_module
        from planarlab import build_census, encode

        store = build_census(7, [15], store_graphs=True)
        encoded = []
        monkeypatch.setattr(verify_module, "encode", lambda g: encoded.append(g) or encode(g))
        outcome = verify_class(7, 15, store)
        assert outcome.class_size == count_class(7, 15) and outcome.all_pass
        assert encoded == []

    def test_census_route_decodes_each_stored_graph_once(self, monkeypatch, tmp_path):
        # every module that binds decode, wrapped at its import site as the
        # benchmark's tracer does: loading and verifying decode each graph once
        from importlib import import_module

        from planarlab import build_census, decode, load_census, save_census

        path = tmp_path / "c.census"
        save_census(build_census(6, [9], store_graphs=True), path)
        calls = []
        for name in ("census", "cli", "graphs", "lab", "patterns", "sampler", "verify"):
            module = import_module(f"planarlab.{name}")
            if getattr(module, "decode", None) is decode:
                monkeypatch.setattr(module, "decode",
                                    lambda text: calls.append(text) or decode(text))
        store = load_census(path)
        outcome = verify_class(6, 9, store)
        assert outcome.class_size == store.get(6, 9).count == 4995
        assert len(calls) == 4995

    def test_report_shape(self):
        report = verify_graph(complete_graph(4))
        names = [c.name for c in report.checks]
        assert "component-bound" in names
        assert "triangulation-degrees" in names
        assert report.all_pass == all(c.holds for c in report.checks)

    def test_violations_are_tallied_per_check(self, monkeypatch):
        # a stand-in check that fails on the graphs of (4,3) holding edge (1,2):
        # 10 of the 20; the other checks still pass on every graph
        import planarlab.verify as verify_module
        from planarlab import CheckResult

        monkeypatch.setattr(verify_module, "check_component_bound",
                            lambda g: CheckResult("component-bound", not g.has_edge(1, 2), 0, 0))
        outcome = verify_class(4, 3)
        assert outcome.class_size == 20 and not outcome.all_pass
        assert set(outcome.checked.values()) == {20}
        assert outcome.violations == {name: 10 if name == "component-bound" else 0
                                      for name in outcome.checked}

    def test_reports_compare_and_hash_by_value(self):
        # two graphs built apart: equal reports, equal hashes, one set member
        first = verify_graph(build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5)]))
        second = verify_graph(build_graph(6, [(4, 5), (1, 3), (3, 2), (2, 1)]))
        assert first is not second and first == second
        assert hash(first) == hash(second) and len({first, second}) == 1
        assert [hash(c) for c in first.checks] == [hash(c) for c in second.checks]
        assert len(set(first.checks) | set(second.checks)) == len(first.checks)
        # a report holds only its checks: a relabeled copy reports the same
        relabeled = verify_graph(build_graph(6, [(1, 2), (2, 3), (1, 3), (5, 6)]))
        assert relabeled == first and hash(relabeled) == hash(first)
        other = verify_graph(build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)]))
        assert other != first and len({first, other}) == 2

    def test_sample_batch_route(self):
        from planarlab import sample_many, verify_batch

        batch = sample_many(6, 8, 100, method="mcmc", seed=4, burn_in=200, thinning=2)
        outcome = verify_batch(batch)
        assert outcome.class_size == 100 and outcome.all_pass
