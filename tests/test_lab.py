from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

import planarlab._bits
import planarlab.census as census_module
import planarlab.lab as lab_module

from planarlab import (
    ChainState,
    EmptyClassError,
    EventKind,
    ResourceLimitError,
    ExperimentSpec,
    InvalidArgumentError,
    LabeledGraph,
    build_census,
    build_graph,
    class_counts,
    complete_graph,
    compute_statistics,
    count_class,
    cycle_graph,
    decode,
    enumerate_class,
    estimate_probability,
    evaluate_event,
    exact_event_counts,
    exact_probability,
    is_planar,
    isolated_vertex_count,
    parse_event,
    pattern_from_name,
    pendant_edge_count,
    phase_table,
    regime_of,
    sample_many,
)
from planarlab._bits import bit_positions, pair_count
from planarlab.census import max_planar_edges
from tests.oracles import orbit_event_counts, random_graph

TRIANGLE = pattern_from_name("triangle")
K4 = pattern_from_name("k4")


def count_sweeps(monkeypatch) -> list[int]:
    """The n of every full census sweep started from now on."""
    sweeps: list[int] = []
    sweep = census_module._iter_all_masks

    def counted(n):
        sweeps.append(n)
        return sweep(n)

    monkeypatch.setattr(census_module, "_iter_all_masks", counted)
    return sweeps


class TestEvaluateEvent:
    def test_connected(self):
        assert evaluate_event(complete_graph(4), EventKind.connected())
        assert not evaluate_event(build_graph(2, []), EventKind.connected())

    def test_component_iso(self):
        g = build_graph(4, [(1, 2), (2, 3), (1, 3)])
        assert evaluate_event(g, EventKind.has_component(TRIANGLE))
        assert not evaluate_event(complete_graph(4), EventKind.has_component(TRIANGLE))

    def test_copy(self):
        assert not evaluate_event(cycle_graph(4), EventKind.has_copy(TRIANGLE))
        assert evaluate_event(complete_graph(4), EventKind.has_copy(TRIANGLE))

    def test_isolated(self):
        assert evaluate_event(build_graph(3, [(1, 2)]), EventKind.has_isolated_vertex())
        assert not evaluate_event(cycle_graph(3), EventKind.has_isolated_vertex())

    def test_pendant_counts_isolated_edge_once(self):
        g = build_graph(3, [(1, 2)])
        assert pendant_edge_count(g) == 1
        assert evaluate_event(g, EventKind.min_pendant_edges(1))
        assert not evaluate_event(g, EventKind.min_pendant_edges(2))

    def test_min_appearances(self):
        star = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        vertex = pattern_from_name("vertex")
        assert evaluate_event(star, EventKind.min_appearances(vertex, 3))
        assert not evaluate_event(star, EventKind.min_appearances(vertex, 4))

    def test_oversized_pattern_never_appears(self):
        g = cycle_graph(3)
        assert not evaluate_event(g, EventKind.min_appearances(K4, 1))
        assert evaluate_event(g, EventKind.min_appearances(K4, 0))

    def test_min_components(self):
        g = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert evaluate_event(g, EventKind.min_components(TRIANGLE, 2))
        assert not evaluate_event(g, EventKind.min_components(TRIANGLE, 3))

    def test_parse_round_trip(self):
        tokens = [
            "connected",
            "isolated",
            "component:triangle",
            "copy:k4",
            "pendant>=3",
            "appearances:path3>=2",
            "components:triangle>=1",
        ]
        for token in tokens:
            assert parse_event(token).describe() == token

    def test_component_event_implies_copy_event(self):
        rng = random.Random(12)
        for _ in range(120):
            g = random_graph(rng, rng.randint(3, 7))
            if evaluate_event(g, EventKind.has_component(TRIANGLE)):
                assert evaluate_event(g, EventKind.has_copy(TRIANGLE))


class TestExactProbability:
    def test_singleton_connected(self):
        assert exact_probability(4, 6, EventKind.connected()) == 1

    def test_edgeless_isolated(self):
        assert exact_probability(3, 0, EventKind.has_isolated_vertex()) == 1

    def test_cayley_trees_over_class(self):
        # 4^{4-2} = 16 labeled trees among the 20 graphs with n=4, m=3
        assert exact_probability(4, 3, EventKind.connected()) == Fraction(16, 20)

    def test_empty_class_raises(self):
        with pytest.raises(EmptyClassError):
            exact_probability(5, 10, EventKind.connected())

    @pytest.mark.usefixtures("no_orbit_composed")
    def test_no_labeled_sweep_on_a_cold_cache(self, monkeypatch):
        sweeps = count_sweeps(monkeypatch)
        p = exact_probability(7, 9, EventKind.connected())
        assert sweeps == []
        # C(21, 9) - 10 C(7, 6): K3,3 is the only 9-edge obstruction
        assert census_module._connected_counts.cache_info().currsize == 1
        assert class_counts(7)[9] == 293_860 and 293_860 % p.denominator == 0

    def test_refusals_come_before_any_sweep(self, monkeypatch, cold_orbit_caches):
        sweeps = count_sweeps(monkeypatch)
        with pytest.raises(EmptyClassError):
            exact_probability(10, 25, EventKind.connected())  # 3n - 6 = 24
        with pytest.raises(ResourceLimitError):
            exact_probability(10, 3, EventKind.connected())
        with pytest.raises(ResourceLimitError):
            exact_event_counts(10, [EventKind.connected()], [3])
        with pytest.raises(EmptyClassError):
            phase_table(ExperimentSpec(((10, 25),), (EventKind.connected(),)))
        with pytest.raises(ResourceLimitError):
            phase_table(ExperimentSpec(((7, 3), (10, 3)), (EventKind.connected(),)))
        orbits = [cache.cache_info().misses
                  for cache in (census_module._read_connected, census_module._compose)]
        assert sweeps == [] and orbits == [0, 0]

    def test_counts_refuse_a_bad_m_before_any_table(self, cold_orbit_caches):
        event = EventKind.connected()
        for m_values in ([-1, 3.0, 99], [99, 3.0], [99, -1]):
            with pytest.raises(InvalidArgumentError, match="edge count must be a non-negative"):
                exact_event_counts(7, [event], m_values)
        assert census_module._read_connected.cache_info().misses == 0
        # (7, 99) is an empty class: its row holds no satisfying graph
        assert exact_event_counts(7, [event], [99]) == {99: [0]}

    def test_complement_counting_sums_to_one(self):
        event = EventKind.connected()
        for n, m in ((4, 3), (5, 5), (5, 7)):
            hits = exact_event_counts(n, [event], [m])[m][0]
            misses = 0

            def visit(g):
                nonlocal misses
                if not evaluate_event(g, event):
                    misses += 1

            enumerate_class(n, m, visit)
            total = count_class(n, m)
            assert Fraction(hits, total) + Fraction(misses, total) == 1

    def test_estimate_on_singleton_class_is_exact(self):
        store = build_census(4, [6], store_graphs=True)
        est = estimate_probability(
            4, 6, EventKind.connected(), method="exact", k=100, seed=1, census=store
        )
        assert est.value == 1.0 and est.stderr == 0.0

    def test_estimates_match_exact_within_three_stderr(self):
        store = build_census(5, [5], store_graphs=True)
        for event in (EventKind.connected(), EventKind.has_isolated_vertex()):
            exact = float(exact_probability(5, 5, event))
            est = estimate_probability(
                5, 5, event, method="exact", k=4000, seed=21, census=store
            )
            assert est.method == "exact-sample" and not est.diagnostic
            assert abs(est.value - exact) <= 3 * max(est.stderr, 1e-9)

    def test_mcmc_estimate_matches_exact_and_is_diagnostic(self):
        event = EventKind.has_isolated_vertex()
        exact = float(exact_probability(5, 5, event))
        est = estimate_probability(
            5, 5, event, method="mcmc", k=4000, seed=22, burn_in=2000, thinning=3
        )
        assert est.diagnostic and est.method == "mcmc-diagnostic"
        assert abs(est.value - exact) <= 3 * max(est.stderr, 1e-9)

    def test_a_large_mcmc_estimate_builds_no_pair_table(self):
        # each sampled graph's neighbour bitsets come from the mask's rows, not
        # from a table of the about two million pairs of n = 2000, which alone
        # made the traced peak about 180 MB; only the tests' pairs_in_order builds one
        tracemalloc.start()
        try:
            est = estimate_probability(2000, 2000, EventKind.connected(), method="mcmc",
                                       k=1, burn_in=0, thinning=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.k == 1 and not hasattr(planarlab._bits, "pairs_in_order")
        assert peak < 8 * 2**20

    def test_a_large_graph_decodes_its_edges_without_a_pair_table(self):
        # mask_planarity past n = 7 and LabeledGraph.edges decode the mask row
        # by row; through a table of the pairs of n = 2000, is_planar alone took
        # about 4 s with a traced peak of about 190 MB
        g = LabeledGraph(2000, ChainState(2000, 2000, 0).mask)
        tracemalloc.start()
        try:
            planar = is_planar(g)
            edges = g.edges
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert planar and not hasattr(planarlab._bits, "pairs_in_order")
        assert peak < 8 * 2**20
        assert edges == {(u, v) for u, row in enumerate(g.adjacency)
                         for v in bit_positions(row) if u < v}
        assert len(edges) == 2000

    @pytest.mark.parametrize("method", ["exact", "mcmc"])
    def test_estimate_needs_a_sample(self, method):
        store = build_census(5, [5], store_graphs=True)
        with pytest.raises(InvalidArgumentError):
            estimate_probability(5, 5, EventKind.connected(), method=method, k=0, census=store)


def component_events(patterns, n: int) -> list[EventKind]:
    """connected, isolated, and for each pattern H component:H and
    components:H>=T at every T from 0 to one past the most components
    isomorphic to H that n vertices hold."""
    events = [EventKind.connected(), EventKind.has_isolated_vertex()]
    for pattern in patterns:
        events.append(EventKind.has_component(pattern))
        events += [EventKind.min_components(pattern, t) for t in range(n // pattern.size + 2)]
    return events


def every_kind(patterns, n: int) -> list[EventKind]:
    """The component events, pendant>=T at every T from 0 to n, one past the
    most pendant edges on n vertices, and for each pattern H copy:H and
    appearances:H>=T at every T from 0 to one past 2n / (|H| + 1): two
    appearances overlap only in a component of |H| + 1 to 2|H| - 1 vertices."""
    events = component_events(patterns, n)
    events += [EventKind.min_pendant_edges(t) for t in range(n + 1)]
    for pattern in patterns:
        most = 2 * n // (pattern.size + 1)
        events.append(EventKind.has_copy(pattern))
        events += [EventKind.min_appearances(pattern, t) for t in range(most + 2)]
    return events


class TestComponentEventsFromConnectedCounts:
    """Every kind is counted from the connected counts by the exponential
    formula, each connected graph marked by its share of the event, with no
    orbit composed; the orbit sweep of tests/oracles.py, which evaluates
    each orbit, is their oracle.  Tier-1 checks every kind for n <= 8 and the
    component kinds at n = 9; CI checks every kind at n = 9."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_equal_the_orbit_sweep(self, n, small_patterns, monkeypatch):
        # at n < 4 the patterns include some with more vertices than n
        patterns = small_patterns.values()
        events = every_kind(patterns, n) if n <= 8 else component_events(patterns, n)
        expected = orbit_event_counts(n, events)
        # each threshold column ends one past the largest count
        for idx, event in enumerate(events):
            if event.threshold == max(e.threshold or 0 for e in events if e.kind == event.kind
                                      and e.pattern == event.pattern):
                assert all(row[idx] == 0 for row in expected), event.describe()
        empty = [0] * len(events)
        # the benchmark's m-list, one m, m = 0 and an empty class leave
        # connected graphs unbuilt, which no wanted class can hold
        m_lists = [range(pair_count(n) + 1), [4, 7, 12, 15], [n], [0], [max_planar_edges(n) + 1]]
        with monkeypatch.context() as patch:
            patch.setattr(census_module, "_compose", lambda n: pytest.fail("orbits composed"))
            for m_values in m_lists:
                got = exact_event_counts(n, events, m_values)
                assert got == {m: expected[m] if m < len(expected) else empty
                               for m in m_values}, list(m_values)

    def test_edge_inputs(self, small_patterns):
        vertex, edge = small_patterns["vertex"], small_patterns["edge"]
        events = [EventKind.connected(), EventKind.has_isolated_vertex(),
                  EventKind.has_component(edge), EventKind.min_components(vertex, 2)]
        assert exact_event_counts(1, events) == {0: [1, 1, 0, 0]}
        assert exact_event_counts(2, events) == {0: [0, 1, 0, 1], 1: [1, 0, 1, 0]}
        # more vertices than n = 9 holds: no such component, and T = 0 holds always
        big = pattern_from_name("cycle10")
        events = [EventKind.has_component(big), EventKind.min_components(big, 0),
                  EventKind.min_components(TRIANGLE, 0)]
        for n in (1, 2, 9):
            totals = class_counts(n)
            assert all(row == [0, totals[m], totals[m]]
                       for m, row in exact_event_counts(n, events).items()), n

    @pytest.mark.usefixtures("no_orbit_composed")
    def test_no_kind_composes_the_orbits(self, small_patterns):
        path3 = small_patterns["path3"]
        events = [EventKind.connected(), EventKind.has_copy(TRIANGLE),
                  EventKind.has_isolated_vertex(), EventKind.has_component(TRIANGLE),
                  EventKind.min_components(path3, 1), EventKind.min_pendant_edges(3),
                  EventKind.min_appearances(small_patterns["edge"], 1)]
        # the 20 graphs of (4, 3), each evaluated by the labeled class search
        expected = [0] * len(events)
        for mask in census_module.class_masks(4, 3):
            g = LabeledGraph(4, mask)
            expected = [hits + evaluate_event(g, e) for hits, e in zip(expected, events)]
        # 16 labeled trees (Cayley), 4 triangles, each beside an isolated vertex
        assert expected[:4] == [16, 4, 4, 4]
        assert exact_event_counts(4, events, [3]) == {3: expected}


class TestNumericArguments:
    """Counts, seeds, sample sizes and thresholds that are not integers of
    the least allowed value are refused, not met by a TypeError or recorded."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: sample_many(5, 5, 2.0), id="count"),
        pytest.param(lambda: sample_many(5, 5, 1, burn_in=2.5), id="burn-in"),
        pytest.param(lambda: estimate_probability(5, 5, EventKind.connected(), k=2.0), id="k"),
        pytest.param(lambda: EventKind("pendant", None, "3"), id="threshold-text"),
        pytest.param(lambda: sample_many(5, 5, 1, seed=1.5), id="seed"),
        pytest.param(lambda: ChainState(5, 5, 1.5), id="chain-seed"),
        pytest.param(lambda: EventKind("pendant", None, 2.5), id="threshold-float"),
    ])
    def test_refused(self, call):
        with pytest.raises(InvalidArgumentError, match="must be a (positive|non-negative) integer"):
            call()


class TestRegimes:
    def test_examples(self):
        assert regime_of(100, 50).label == "sparse"
        assert regime_of(100, 200).label == "middle"
        assert regime_of(100, 293).label == "saturated"
        # the saturated band starts at 3n - 6 - n/20 = 2,950,000,000,000,038.25
        assert regime_of(1_000_000_000_000_015, 2_950_000_000_000_038).label == "middle"

    def test_critical_band(self):
        assert regime_of(100, 100).label == "critical"
        assert regime_of(100, 104).label == "critical"
        assert regime_of(100, 106).label == "middle"

    def test_ratio_is_exact(self):
        assert regime_of(7, 15).ratio == Fraction(15, 7)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_vertices(self, n):
        with pytest.raises(InvalidArgumentError):
            regime_of(n, 0)


class TestPhaseTable:
    def test_spec_example_grid(self):
        events = (
            EventKind.connected(),
            EventKind.has_component(TRIANGLE),
            EventKind.has_copy(K4),
        )
        spec = ExperimentSpec(tuple((6, m) for m in range(13)), events)
        result = phase_table(spec)
        assert len(result.rows) == 39
        assert all(row.method == "exact" and row.stderr == 0.0 for row in result.rows)
        saturated = [r for r in result.rows if r.m == 12]
        assert all(r.regime == "saturated" for r in saturated)
        connected_12 = next(r for r in saturated if r.event == "connected")
        assert connected_12.prob == 1.0  # every triangulation is connected

    def test_class_sizes_are_read_once_per_n(self, monkeypatch):
        read = []
        counts = lab_module.class_counts
        monkeypatch.setattr(lab_module, "class_counts", lambda n: read.append(n) or counts(n))
        grid = ((6, 3), (7, 9), (6, 4), (7, 10), (6, 5))
        rows = phase_table(ExperimentSpec(grid, (EventKind.connected(),))).rows
        assert sorted(read) == [6, 7]
        assert [row.k for row in rows] == [count_class(n, m) for n, m in grid]

    def test_empty_grid(self):
        result = phase_table(ExperimentSpec((), (EventKind.connected(),)))
        assert result.rows == ()
        assert result.to_csv().splitlines()[0].startswith("n,m,ratio")

    def test_empty_class_propagates(self):
        spec = ExperimentSpec(((5, 10),), (EventKind.connected(),))
        with pytest.raises(EmptyClassError):
            phase_table(spec)

    def test_pinned_small_class_portrait(self):
        # exact census values; the middle cell is structurally zero at this
        # size because a K4 component leaves too few vertices for the rest
        assert exact_probability(6, 6, EventKind.has_component(K4)) == Fraction(3, 1001)
        assert exact_probability(6, 12, EventKind.has_component(K4)) == 0
        assert exact_probability(6, 6, EventKind.has_component(TRIANGLE)) == Fraction(2, 1001)

    def test_mcmc_rows_are_diagnostic(self):
        spec = ExperimentSpec(
            ((5, 5),), (EventKind.connected(),), method="mcmc", k=400, seed=9
        )
        result = phase_table(spec)
        assert result.rows[0].method == "mcmc-diagnostic"
        assert 0.0 <= result.rows[0].prob <= 1.0

    def test_mcmc_negative_seed_refused(self):
        # cells take seeds seed, seed + 1, ...: from -1 those are -1, 0, 1,
        # and -1 would draw the stream of 1
        spec = ExperimentSpec(((5, 4), (5, 5), (5, 6)), (EventKind.connected(),),
                              method="mcmc", k=10, seed=-1)
        with pytest.raises(InvalidArgumentError):
            phase_table(spec)

    def test_csv_is_deterministic(self):
        spec = ExperimentSpec(((5, 4), (5, 5)), (EventKind.connected(),))
        assert phase_table(spec).to_csv() == phase_table(spec).to_csv()


class TestStatisticsBundle:
    def test_figure_graph_bundle(self):
        g = decode("4:FC")
        payload = compute_statistics(g, TRIANGLE)
        assert payload["kappa"] == 1
        assert payload["f_H"] == 0  # K4 has no bridge, no appearance sets
        assert payload["good_triangles"] == 4
        assert payload["degree_histogram"] == {"3": 4}
        assert payload["bridges"] == []
        assert payload["add_count"] == 0
        assert payload["isolated"] == 0
        assert payload["pendant_edges"] == 0

    def test_bundle_without_pattern(self):
        g = build_graph(3, [(1, 2)])
        payload = compute_statistics(g)
        assert payload["f_H"] is None
        assert payload["pendant_edges"] == 1
        assert payload["kappa"] == 2
        assert payload["isolated"] == 1

    def test_isolated_vertex_count(self):
        assert isolated_vertex_count(build_graph(4, [(1, 2)])) == 2
