from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planarlab.planarity as planarity_module
import planarlab.sampler as sampler_module
from planarlab import (
    CensusMissingError,
    CensusRecord,
    CensusStore,
    ChainState,
    EmptyClassBoundError,
    EmptyClassError,
    InvalidArgumentError,
    LabeledGraph,
    build_census,
    build_graph,
    complete_graph,
    encode,
    exact_sample,
    fan_triangulation_edges,
    is_planar,
    mcmc_init,
    mcmc_step,
    sample_many,
    tv_distance_to_uniform,
)
from planarlab._bits import pair_count, pair_index, pairs_in_order
from planarlab.planarity import _left_right_planar, is_planar_edges
from planarlab.sampler import _core_edges, _palm_tree
from tests.oracles import check_palm_tree
from tests.test_planarity import networkx_planar

GOLDEN = Path(__file__).resolve().parent / "golden"


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

    @pytest.mark.parametrize("n, m", [(5, -1), (0, 3)])
    def test_bad_order_or_size_before_the_default_burn_in(self, n, m):
        # the default burn-in 50*n*m must not be derived, and refused, first
        for method in ("mcmc", "exact"):
            with pytest.raises(InvalidArgumentError, match="count must be a .* integer, got"):
                sample_many(n, m, 2, method=method)


class TestExactSampling:
    def test_singleton_class(self):
        store = build_census(4, [6], store_graphs=True)
        for seed in (0, 1, 987654321):
            assert exact_sample(4, 6, seed, store) == complete_graph(4)

    def test_single_draw_is_the_first_batch_draw(self):
        store = build_census(5, [5], store_graphs=True)
        graphs = store.get(5, 5).graphs
        for seed in range(20):
            batch = sample_many(5, 5, 3, method="exact", seed=seed, census=store)
            drawn = exact_sample(5, 5, seed, store)
            assert drawn.mask == batch.samples[0]
            assert drawn.mask == graphs[random.Random(seed).randrange(len(graphs))]

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
            assert tuple(state._adj) == g.adjacency  # so do the neighbour bitsets
            assert state._low == sum(1 << v for v in range(1, 7) if g.degree(v) <= 1)

    def test_trajectory_determinism(self):
        a = sample_many(5, 5, 200, method="mcmc", seed=99, burn_in=50, thinning=2)
        b = sample_many(5, 5, 200, method="mcmc", seed=99, burn_in=50, thinning=2)
        assert a == b

    def test_membership(self):
        batch = sample_many(6, 8, 300, method="mcmc", seed=3, burn_in=200, thinning=3)
        for mask in batch.samples:
            g = LabeledGraph(6, mask)
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


class TestGoldenChains:
    """Chain sample streams written before the chain decided its steps
    locally; the local decision must reproduce them byte for byte."""

    RUNS = {  # file: n, m, burn-in, thinning, count, seed
        "chain_n100_m100.txt": (100, 100, 1000, 40, 50, 100_000),
        "chain_n100_m290.txt": (100, 290, 500, 50, 10, 200_000),
        "chain_n30_m45.txt": (30, 45, 1000, 30, 50, 300_000),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_stream_is_byte_identical(self, name):
        n, m, burn_in, thinning, count, seed = self.RUNS[name]
        batch = sample_many(n, m, count, method="mcmc", seed=seed,
                            burn_in=burn_in, thinning=thinning)
        text = "".join(encode(LabeledGraph(n, mask)) + "\n" for mask in batch.samples)
        assert text.encode("ascii") == (GOLDEN / name).read_bytes()


def reference_step(n, m, rng, edges, mask):
    """One chain step decided on the whole edge list; the new mask."""
    total = pair_count(n)
    if m == 0 or m == total:
        return mask
    drop = rng.randrange(m)
    removed = edges[drop]
    while True:
        slot = rng.randrange(total)
        if not mask >> slot & 1:
            break
    edges[drop] = pairs_in_order(n)[slot]
    if is_planar_edges(n, edges):
        return mask ^ (1 << slot | 1 << pair_index(n, *removed))
    edges[drop] = removed
    return mask


class Scripted:
    """A stand-in for the chain's random.Random: ``randrange`` returns the
    scripted values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, stop):
        value = self.values.pop(0)
        assert 0 <= value < stop
        return value


def chain_at(n, edges, *script) -> ChainState:
    """A chain whose state is the given graph and whose draws are scripted."""
    g = build_graph(n, edges)
    state = ChainState(n, g.m, seed=0)
    state.mask = g.mask
    state._edges = sorted(g.edges)
    state._adj = list(g.adjacency)
    state._low = sum(1 << v for v in range(1, n + 1) if g.degree(v) <= 1)
    state.rng = Scripted(*script)
    return state


def count_left_right(monkeypatch) -> list[tuple]:
    """The edge lists the left-right test is called on from now on."""
    calls = []
    left_right = planarity_module._left_right_planar

    def counted(n, edges, palm=None):
        calls.append(tuple(edges))
        return left_right(n, edges, palm)

    monkeypatch.setattr(planarity_module, "_left_right_planar", counted)
    return calls


class TestLocalDecision:
    """Each step tests planarity on (f,), the 2-core of f's component or
    the whole graph; every decision equals the whole-graph one."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lockstep_with_whole_graph_decisions(self, data):
        n = data.draw(st.integers(3, 24), label="n")
        m = data.draw(st.integers(0, 3 * n - 6), label="m")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        state = ChainState(n, m, seed)
        rng = random.Random(seed)
        edges, mask = list(state._edges), state.mask
        for _ in range(150):
            mcmc_step(state)
            mask = reference_step(n, m, rng, edges, mask)
            assert state.mask == mask

    @pytest.mark.parametrize("n, m", [(100, 100), (30, 45), (60, 70), (20, 26)])
    def test_core_is_the_two_core_of_the_component(self, n, m):
        state = ChainState(n, m, seed=5)
        rng = random.Random(11)
        kinds = Counter()
        for _ in range(120):
            for _ in range(15):
                mcmc_step(state)
            edges = list(state._edges)
            drop = rng.randrange(m)
            f = rng.choice([p for p in pairs_in_order(n) if p not in edges])
            edges[drop] = f
            h = nx.Graph(edges)
            h.add_nodes_from(range(1, n + 1))
            h.remove_edge(*f)
            hf = nx.Graph(edges)
            hf.add_nodes_from(range(1, n + 1))
            adj = [0] * (n + 1)
            for a, b in edges:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            low = sum(1 << v for v in hf if hf.degree(v) <= 1)
            got = _core_edges(adj, edges, low, *f)
            if not nx.has_path(h, *f):
                assert got == (f,)
                kinds["cross"] += 1
            elif got is edges:
                assert 8 * (m - nx.k_core(hf, 2).number_of_edges()) < m
                kinds["whole"] += 1
            else:
                component = hf.subgraph(nx.node_connected_component(hf, f[0]))
                want = {tuple(sorted(e)) for e in nx.k_core(component, 2).edges}
                assert len(got) == len(want) and set(got) == want
                kinds["core"] += 1
        assert kinds["core"] > 0, kinds

    @pytest.mark.parametrize("f", [(4, 5), (1, 12)], ids=["two-cycles", "onto-a-path"])
    def test_cross_component_proposal_runs_no_left_right(self, monkeypatch, f):
        # two K4s and the path 9-10-11-12; the step drops (10, 11) and adds
        # f, which joins two components of what is left
        k4s = [(a + s, b + s) for s in (0, 4) for a, b in
               [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
        edges = sorted(k4s + [(9, 10), (10, 11), (11, 12)])
        state = chain_at(12, edges, edges.index((10, 11)), pair_index(12, *f))
        calls = count_left_right(monkeypatch)
        mcmc_step(state)
        assert calls == []
        assert state.current.edges == frozenset(edges) - {(10, 11)} | {f}
        # the whole-graph test would have run it
        assert is_planar_edges(12, sorted(state._edges)) and len(calls) == 1

    def test_k33_with_a_long_pendant_path_is_rejected_on_its_core(self, monkeypatch):
        # K3,3 on {1,2,3} x {4,5,6}, three of its edges subdivided by 7, 8
        # and 9, less its edge f = (1, 5); a path 2-10-...-20 hangs off it and
        # the step drops the path's last edge and adds f back
        k33 = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
        subdivided = [(1, 7), (4, 7), (2, 8), (5, 8), (3, 9), (6, 9)]
        k33_sub = [e for e in k33 if e not in ((1, 4), (2, 5), (3, 6))] + subdivided
        path = [(2, 10)] + [(v, v + 1) for v in range(10, 20)]
        edges = sorted(set(k33_sub) - {(1, 5)} | set(path))
        state = chain_at(20, edges, edges.index((19, 20)), pair_index(20, 1, 5))
        before = state.mask
        calls = count_left_right(monkeypatch)
        mcmc_step(state)
        assert state.mask == before and state._edges == edges  # rejected
        [tested] = calls
        assert sorted(tested) == sorted(k33_sub)


def record_palm_decisions(monkeypatch) -> list[tuple]:
    """(n, edges, answer) of every chain decision made on a palm tree from
    now on."""
    decisions = []
    decide = sampler_module.is_planar_edges

    def recorded(n, edges, palm=None):
        planar = decide(n, edges, palm)
        if palm is not None:
            decisions.append((n, tuple(edges), planar))
        return planar

    monkeypatch.setattr(sampler_module, "is_planar_edges", recorded)
    return decisions


def record_branches(monkeypatch) -> list[str]:
    """Per step from now on: "whole" if it tested all m edges, else "part"."""
    branches = []
    core_edges = sampler_module._core_edges

    def recorded(adj, edges, *rest):
        tested = core_edges(adj, edges, *rest)
        branches.append("whole" if tested is edges else "part")
        return tested

    monkeypatch.setattr(sampler_module, "_core_edges", recorded)
    return branches


def eligible_swap(state):
    """The first (drop index, slot) whose swap keeps the state's palm tree
    and the graph planar, with no vertex left below degree 3."""
    n, edges = state.n, state._edges
    degree = Counter(v for e in edges for v in e)
    for drop, e in enumerate(edges):
        for slot, f in enumerate(pairs_in_order(n)):
            if f in edges or min(degree[v] - (v in e) + (v in f) for v in range(1, n + 1)) < 3:
                continue
            if state._palm.swapped(e, f) is not None and is_planar_edges(
                    n, [x for x in edges if x != e] + [f]):
                return drop, slot
    raise AssertionError("no eligible planar swap")


class TestPalmReuse:
    """A state that keeps rejecting proposals on all m edges gets a palm
    tree; a proposal that drops a back edge and adds an ancestor-descendant
    pair is decided on the patched tree.  Every such decision equals the
    whole-graph one."""

    @pytest.mark.parametrize("n, m, seed, steps", [
        (100, 290, 200_000, 2000), (100, 290, 200_001, 2000), (100, 290, 200_002, 2000),
        (100, 250, 200_000, 2000), (30, 45, 300_000, 4000),
    ])
    def test_recorded_decisions_match_the_whole_graph(self, monkeypatch, n, m, seed, steps):
        decisions = record_palm_decisions(monkeypatch)
        state = ChainState(n, m, seed)
        for _ in range(steps):
            mcmc_step(state)
        assert len(decisions) > (steps // 10 if m > 2 * n else 0)
        for i, (_, edges, planar) in enumerate(decisions):
            assert planar == _left_right_planar(n, edges), i
            if planar or i % 20 == 0:
                assert planar == networkx_planar(n, edges), i

    def test_accepted_eligible_swap_carries_the_tree(self, monkeypatch):
        monkeypatch.setattr(sampler_module, "_PALM_AFTER", 0)
        n = 12
        edges = sorted(fan_triangulation_edges(n))[2:]  # (1, 2) and (1, 3) gone
        state = chain_at(n, edges)
        state._palm = _palm_tree(n, state._adj)
        drop, slot = eligible_swap(state)
        state.rng = Scripted(drop, slot)
        mcmc_step(state)
        assert state.mask != build_graph(n, edges).mask  # accepted
        assert state._palm is not None
        check_palm_tree(state._palm, state._edges)
        # the next proposals, decided on the carried tree, still agree
        decisions = record_palm_decisions(monkeypatch)
        state.rng = random.Random(9)
        rng, edges, mask = random.Random(9), list(state._edges), state.mask
        for _ in range(300):
            mcmc_step(state)
            mask = reference_step(n, state.m, rng, edges, mask)
            assert state.mask == mask
            if state._palm is not None:
                check_palm_tree(state._palm, state._edges)
        assert decisions

    def test_core_path_acceptance_drops_the_tree(self, monkeypatch):
        # K4 on 1..4 with the path 4-5-...-12 hanging off it; the tree runs
        # 1-2-3-4-...-12, so dropping the back edge (1, 3) and adding (1, 5)
        # is eligible, but the peeled path sends the step to the 2-core
        n = 12
        edges = sorted(combinations(range(1, 5), 2)) + [(v, v + 1) for v in range(4, n)]
        state = chain_at(n, edges, edges.index((1, 3)), pair_index(n, 1, 5))
        state._palm = _palm_tree(n, state._adj)
        assert state._palm.swapped((1, 3), (1, 5)) is not None
        branches = record_branches(monkeypatch)
        mcmc_step(state)
        assert branches == ["part"]
        assert set(state._edges) == set(edges) - {(1, 3)} | {(1, 5)}  # accepted
        assert state._palm is None

    def test_ineligible_acceptance_drops_the_tree(self, monkeypatch):
        # the fan less (1, 2) and (1, 3); a tree edge of its palm tree is
        # traded for (1, 2), which keeps the graph planar
        n = 12
        edges = sorted(fan_triangulation_edges(n))[2:]
        state = chain_at(n, edges)
        palm = state._palm = _palm_tree(n, state._adj)
        e = next(e for e in edges if palm.parent[e[1]] >= 0 and palm.src[palm.parent[e[1]]] == e[0])
        assert palm.swapped(e, (1, 2)) is None
        state.rng = Scripted(edges.index(e), pair_index(n, 1, 2))
        branches = record_branches(monkeypatch)
        mcmc_step(state)
        assert branches == ["whole"]
        assert set(state._edges) == set(edges) - {e} | {(1, 2)}  # accepted
        assert state._palm is None


class TestNoSamples:
    def test_count_zero_takes_no_step(self, monkeypatch):
        steps = []
        step = sampler_module.mcmc_step
        monkeypatch.setattr(sampler_module, "mcmc_step", lambda state: steps.append(1) or step(state))
        batch = sample_many(30, 60, 0)  # the default burn-in is 90,000 steps
        assert batch.samples == () and steps == []
        assert (batch.burn_in, batch.thinning) == (50 * 30 * 60, 30 * 60)
        sample_many(30, 60, 1, burn_in=3, thinning=2)
        assert len(steps) == 5

    @pytest.mark.parametrize("n, m, kwargs, error", [
        (0, 3, {}, InvalidArgumentError),
        (5, 10, {}, EmptyClassBoundError),
        (12, 15, {"seed": -1}, InvalidArgumentError),
        (12, 15, {"burn_in": -1}, InvalidArgumentError),
        (12, 15, {"thinning": 0}, InvalidArgumentError),
        (12, 15, {"method": "gibbs"}, InvalidArgumentError),
    ])
    def test_count_zero_keeps_every_error(self, n, m, kwargs, error):
        with pytest.raises(error):
            sample_many(n, m, 0, **kwargs)


class TestSeeds:
    """random.Random(-s) seeds the stream of random.Random(s), so a
    negative seed is refused rather than aliased."""

    def test_chain(self):
        with pytest.raises(InvalidArgumentError):
            sample_many(12, 15, 3, seed=-5, burn_in=10, thinning=1)
        with pytest.raises(InvalidArgumentError):
            ChainState(5, 5, seed=-1)

    def test_exact(self):
        store = build_census(4, [3], store_graphs=True)
        with pytest.raises(InvalidArgumentError):
            sample_many(4, 3, 5, method="exact", seed=-1, census=store)
        with pytest.raises(InvalidArgumentError):
            exact_sample(4, 3, -1, store)


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
        bad = batch.__class__(4, 3, "exact", 0, 0, 0, (complete_graph(4).mask,))
        with pytest.raises(InvalidArgumentError, match="sample '4:FC' is not in the stored class"):
            tv_distance_to_uniform(bad, store)
