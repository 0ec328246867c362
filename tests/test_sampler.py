from __future__ import annotations

from collections import Counter

import pytest

from planarlab import (
    CensusMissingError,
    CensusRecord,
    CensusStore,
    ChainState,
    EmptyClassBoundError,
    EmptyClassError,
    build_census,
    build_graph,
    complete_graph,
    decode,
    encode,
    exact_sample,
    fan_triangulation_edges,
    is_planar,
    mcmc_init,
    mcmc_step,
    sample_many,
    tv_distance_to_uniform,
)
from planarlab._bits import pair_count, pairs_in_order


class TestInit:
    def test_fan_triangulation_shapes(self):
        for n in range(3, 13):
            edges = fan_triangulation_edges(n)
            assert len(edges) == 3 * n - 6
            assert is_planar(build_graph(n, edges))

    def test_k4_start(self):
        assert mcmc_init(4, 6) == complete_graph(4)

    def test_edgeless_start(self):
        assert mcmc_init(5, 0).m == 0

    def test_partial_start_is_planar_prefix(self):
        g = mcmc_init(5, 4)
        assert g.edges == frozenset({(1, 2), (1, 3), (1, 4), (1, 5)})
        assert is_planar(g)

    def test_bound_violation(self):
        with pytest.raises(EmptyClassBoundError):
            mcmc_init(5, 10)
        with pytest.raises(EmptyClassBoundError):
            mcmc_init(2, 2)


class TestExactSampling:
    def test_singleton_class(self):
        store = build_census(4, [6], store_graphs=True)
        for seed in (0, 1, 987654321):
            assert exact_sample(4, 6, seed, store) == complete_graph(4)

    def test_empty_class(self):
        store = build_census(5, [10], store_graphs=True)
        with pytest.raises(EmptyClassError):
            exact_sample(5, 10, 3, store)

    def test_missing_record(self):
        store = CensusStore()
        with pytest.raises(CensusMissingError):
            exact_sample(4, 3, 1, store)
        store.add(CensusRecord(4, 3, 20))  # counts only
        with pytest.raises(CensusMissingError):
            exact_sample(4, 3, 1, store)

    def test_incomplete_record_refused(self):
        # 19 of the 20 members of (4, 3): consistent, so it loads, but sampling
        # from it would never draw the missing graph
        stored = build_census(4, [3], store_graphs=True).get(4, 3).graphs
        store = CensusStore()
        store.add(CensusRecord(4, 3, 19, stored[:19]))
        with pytest.raises(CensusMissingError):
            exact_sample(4, 3, 1, store)
        with pytest.raises(CensusMissingError):
            sample_many(4, 3, 5, method="exact", seed=1, census=store)

    def test_batch_determinism(self):
        store = build_census(4, [3], store_graphs=True)
        a = sample_many(4, 3, 100, method="exact", seed=7, census=store)
        b = sample_many(4, 3, 100, method="exact", seed=7, census=store)
        assert a == b

    def test_uniformity_smoke(self):
        # light chi-square; the acceptance suite runs the full-size one
        from scipy.stats import chi2

        store = build_census(4, [3], store_graphs=True)
        batch = sample_many(4, 3, 4000, method="exact", seed=13, census=store)
        freq = Counter(batch.samples)
        expected = 4000 / 20
        stat = sum((freq.get(e, 0) - expected) ** 2 / expected for e in store.get(4, 3).graphs)
        assert stat < chi2.ppf(0.999, 19)


class TestChain:
    def test_single_state_when_no_edges(self):
        state = ChainState(4, 0, seed=1)
        g0 = state.current
        mcmc_step(state)
        assert state.current == g0 and state.steps_taken == 1

    def test_single_state_when_complete(self):
        state = ChainState(3, 3, seed=1)
        g0 = state.current
        for _ in range(5):
            mcmc_step(state)
        assert state.current == g0 and state.steps_taken == 5

    def test_closure_every_step(self):
        state = ChainState(6, 7, seed=42)
        for _ in range(2000):
            mcmc_step(state)
            g = state.current
            assert g.n == 6 and g.m == 7 and is_planar(g)
            assert g.edges == frozenset(state._edges)  # the list and the mask agree

    def test_trajectory_determinism(self):
        a = sample_many(5, 5, 200, method="mcmc", seed=99, burn_in=50, thinning=2)
        b = sample_many(5, 5, 200, method="mcmc", seed=99, burn_in=50, thinning=2)
        assert a == b

    def test_membership(self):
        batch = sample_many(6, 8, 300, method="mcmc", seed=3, burn_in=200, thinning=3)
        for enc in batch.samples:
            g = decode(enc)
            assert g.n == 6 and g.m == 8 and is_planar(g)

    def test_proposal_symmetry_by_direct_count(self):
        # two states one swap apart: transition proposals each way are the
        # single pair (edge out, pair in), over m * (C(n,2) - m) choices
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
        h = build_graph(4, [(1, 2), (2, 3), (1, 4)])
        total = pair_count(4)

        def proposal_count(src, dst):
            count = 0
            for e in src.edges:
                for f in pairs_in_order(4):
                    if f in src.edges:
                        continue
                    moved = (src.edges - {e}) | {f}
                    if moved == dst.edges and is_planar(build_graph(4, sorted(moved))):
                        count += 1
            return count

        forward = proposal_count(g, h)
        backward = proposal_count(h, g)
        assert forward == backward == 1
        denom = g.m * (total - g.m)
        assert denom == h.m * (total - h.m)

    def test_mcmc_reaches_whole_small_class(self):
        # empirical irreducibility on the 20-graph class (4, 3)
        state = ChainState(4, 3, seed=8)
        seen = {encode(state.current)}
        for _ in range(3000):
            mcmc_step(state)
            seen.add(encode(state.current))
        assert len(seen) == 20

    def test_mcmc_long_run_uniform_on_small_class(self):
        # long-run law over the 20 graphs of (4, 3) vs the exact census
        from scipy.stats import chi2

        store = build_census(4, [3], store_graphs=True)
        batch = sample_many(4, 3, 20_000, method="mcmc", seed=17, burn_in=2000, thinning=3)
        freq = Counter(batch.samples)
        expected = 20_000 / 20
        stat = sum(
            (freq.get(enc, 0) - expected) ** 2 / expected
            for enc in store.get(4, 3).graphs
        )
        assert stat < chi2.ppf(1 - 0.001, 19), stat
        assert tv_distance_to_uniform(batch, store) < 0.05


class TestTvDistance:
    def test_singleton_class_is_exact(self):
        store = build_census(4, [6], store_graphs=True)
        batch = sample_many(4, 6, 25, method="exact", seed=0, census=store)
        assert tv_distance_to_uniform(batch, store) == 0.0

    def test_concentrated_batch(self):
        store = build_census(4, [3], store_graphs=True)
        one = store.get(4, 3).graphs[0]
        batch = sample_many(4, 3, 1, method="exact", seed=0, census=store)
        forced = batch.__class__(4, 3, "exact", 0, 0, 0, tuple([one] * 50))
        assert tv_distance_to_uniform(forced, store) == pytest.approx(0.95)

    def test_shrinks_with_sample_size(self):
        store = build_census(4, [3], store_graphs=True)
        small = sample_many(4, 3, 100, method="exact", seed=5, census=store)
        large = sample_many(4, 3, 20_000, method="exact", seed=5, census=store)
        assert tv_distance_to_uniform(large, store) < tv_distance_to_uniform(small, store)

    def test_alien_sample_rejected(self):
        store = build_census(4, [3], store_graphs=True)
        batch = sample_many(4, 3, 1, method="exact", seed=0, census=store)
        bad = batch.__class__(4, 3, "exact", 0, 0, 0, ("4:FC",))
        with pytest.raises(ValueError):
            tv_distance_to_uniform(bad, store)
