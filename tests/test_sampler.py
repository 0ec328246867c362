from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import planarlab._bits
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
from planarlab._bits import (
    bit_positions,
    edges_from_mask,
    mask_from_edges,
    pair_count,
    pair_index,
    slot_pair,
)
from planarlab.planarity import _left_right_planar, is_planar_edges
from planarlab.sampler import _apart, _attachments, _core_edges, _kernel, _ring
from tests.oracles import pairs_in_order, two_core
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
            assert (state._core, state._core_size) == two_core(g.adjacency)

    def test_slot_pair_inverts_pair_index(self):
        for n in range(2, 40):
            assert [slot_pair(n, s) for s in range(pair_count(n))] == list(pairs_in_order(n))
        n = 10**6
        for i, j in (1, 2), (1, n), (2, 3), (n // 2, n // 2 + 1), (n - 1, n):
            assert slot_pair(n, pair_index(n, i, j)) == (i, j)

    def test_edges_from_mask_reads_the_slots_in_order(self):
        rng = random.Random(58)
        for n in range(1, 40):
            pairs = pairs_in_order(n)
            for _ in range(20):
                mask = rng.getrandbits(pair_count(n))
                assert edges_from_mask(n, mask) == tuple(
                    pair for s, pair in enumerate(pairs) if mask >> s & 1), (n, mask)
            assert edges_from_mask(n, (1 << pair_count(n)) - 1) == pairs

    def test_a_large_chain_builds_no_pair_table(self):
        # the start state and each drawn slot are mapped to pairs by
        # arithmetic, not through a table of all n^2 / 2 pairs, which only the
        # tests' pairs_in_order builds (a traced 416 MB at n = 3000)
        tracemalloc.start()
        try:
            state = ChainState(3000, 3000, 0)
            for _ in range(10):
                mcmc_step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not hasattr(planarlab._bits, "pairs_in_order")
        assert peak < 8 * 2**20
        assert state.mask == mask_from_edges(3000, state._edges)

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
    locally (the (100,250) one before the K5-minor certificate); the local
    decision must reproduce them byte for byte."""

    RUNS = {  # file: n, m, burn-in, thinning, count, seed
        "chain_n100_m100.txt": (100, 100, 1000, 40, 50, 100_000),
        "chain_n100_m290.txt": (100, 290, 500, 50, 10, 200_000),
        "chain_n30_m45.txt": (30, 45, 1000, 30, 50, 300_000),
        # denser than (100,100): smoothing removes a smaller share of the core
        "chain_n100_m150.txt": (100, 150, 500, 20, 50, 400_000),
        # the certificate's K5 and K3,3 forms and the whole test all decide
        # steps here; written before the certificate
        "chain_n100_m250.txt": (100, 250, 500, 40, 50, 500_000),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_stream_is_byte_identical(self, name):
        n, m, burn_in, thinning, count, seed = self.RUNS[name]
        batch = sample_many(n, m, count, method="mcmc", seed=seed,
                            burn_in=burn_in, thinning=thinning)
        text = "".join(encode(LabeledGraph(n, mask)) + "\n" for mask in batch.samples)
        assert text.encode("ascii") == (GOLDEN / name).read_bytes()


def reference_step(n, m, rng, edges, mask, planar=is_planar_edges):
    """One chain step decided by ``planar`` on the whole edge list; the new
    mask."""
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
    if planar(n, edges):
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
    state._core, state._core_size = two_core(state._adj)
    state.rng = Scripted(*script)
    return state


def count_left_right(monkeypatch) -> list[tuple]:
    """The edge lists the left-right test is called on from now on."""
    calls = []
    left_right = planarity_module._left_right_planar

    def counted(n, edges):
        calls.append(tuple(edges))
        return left_right(n, edges)

    monkeypatch.setattr(planarity_module, "_left_right_planar", counted)
    return calls


def reference_kernel(hf: nx.Graph, f) -> nx.Graph:
    """The kernel of the 2-core of f's component in H + f, built with
    networkx: the branch vertices (core degree at least 3), with an edge
    for each path of degree-2 vertices between two different ones."""
    core = nx.k_core(hf.subgraph(nx.node_connected_component(hf, f[0])), 2)
    branch = {x for x in core if core.degree(x) >= 3}
    kernel = nx.Graph()
    kernel.add_nodes_from(branch)
    kernel.add_edges_from(e for e in core.edges if branch.issuperset(e))
    for path in nx.connected_components(core.subgraph(set(core) - branch)):
        # a path of degree-2 vertices is attached by two edges, a cycle by none
        ends = [x for y in path for x in core[y] if x in branch]
        if len(ends) == 2 and ends[0] != ends[1]:
            kernel.add_edge(*ends)
    return kernel


def assert_is_the_kernel(order, edges, kernel: nx.Graph) -> None:
    """``edges`` on {1..order} is ``kernel`` relabelled 1..k, given on
    max(k, 8) vertices."""
    k = len(kernel)
    assert order == max(k, 8)
    assert all(0 < x <= k for e in edges for x in e)
    assert all(a < b for a, b in edges)  # as is_planar_edges reads a pair
    assert len({frozenset(e) for e in edges if e[0] != e[1]}) == len(edges)  # simple
    got = nx.Graph(list(edges))
    got.add_nodes_from(range(1, order + 1))
    padded = kernel.copy()
    padded.add_nodes_from(("pad", i) for i in range(order - k))
    assert nx.is_isomorphic(got, padded)


class TestLocalDecision:
    """Each step tests planarity on (f,), the kernel of the 2-core of f's
    component or the whole graph; every decision equals the whole-graph one."""

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
    def test_core_is_decided_on_its_kernel(self, n, m):
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
            order, got = _core_edges(adj, edges, *two_core(adj), *f)
            assert is_planar_edges(order, got) == nx.check_planarity(hf)[0]
            core = nx.k_core(hf, 2)
            if got is edges:
                assert order == n and 8 * (m - core.number_of_edges()) < m
                kinds["whole"] += 1
            elif not core.has_edge(*f):  # an end of f lies outside the core
                assert not nx.has_path(h, *f)
                assert (order, got) == (n, (f,))
                kinds["cross"] += 1
            else:
                assert_is_the_kernel(order, got, reference_kernel(hf, f))
                kinds["kernel"] += 1
        assert kinds["kernel"] > 0, kinds

    @pytest.mark.parametrize("seed", [100_000, 100_001, 100_002])
    def test_lockstep_at_the_critical_workload(self, monkeypatch, seed):
        # the mcmc-critical chain at (100,100), most of whose steps are decided
        # on a kernel; the reference decides each on all m edges
        n, m = 100, 100
        kernels = []
        kernel = sampler_module._kernel
        monkeypatch.setattr(sampler_module, "_kernel", lambda *a: kernels.append(a) or kernel(*a))
        state = ChainState(n, m, seed)
        rng = random.Random(seed)
        edges, mask = list(state._edges), state.mask
        for _ in range(3000):
            mcmc_step(state)
            mask = reference_step(n, m, rng, edges, mask, _left_right_planar)
            assert state.mask == mask
        assert len(kernels) > 1000

    @pytest.mark.parametrize("n, m, seed", [
        (100, 290, 200_000), (100, 290, 200_001), (100, 290, 200_002), (100, 250, 200_000),
    ])
    def test_lockstep_at_the_saturated_workload(self, monkeypatch, n, m, seed):
        # the mcmc-saturated chain at (100,290), nearly all of whose steps the
        # certificate rejects, and (100,250), where the test on all m edges
        # decides more of them; the reference decides each on all m edges
        certified = record_certified(monkeypatch)
        state = ChainState(n, m, seed)
        rng = random.Random(seed)
        edges, mask = list(state._edges), state.mask
        for _ in range(2000):
            mcmc_step(state)
            mask = reference_step(n, m, rng, edges, mask, _left_right_planar)
            assert state.mask == mask
        assert len(certified) > 500

    @pytest.mark.parametrize("n, m", [(7, 12), (7, 10), (6, 8)])
    def test_lockstep_on_the_table(self, monkeypatch, n, m):
        # at n <= 7 the n table decides each step on all m edges, with no
        # left-right test; the reference decides each with that test
        calls = count_left_right(monkeypatch)
        for seed in range(1, 4):
            state = ChainState(n, m, seed)
            rng = random.Random(seed)
            edges, mask = list(state._edges), state.mask
            for _ in range(1000):
                mcmc_step(state)
                mask = reference_step(n, m, rng, edges, mask, _left_right_planar)
                assert state.mask == mask, seed
        assert calls == []

    def test_critical_workload_reads_no_table(self):
        # every kernel is given on at least 8 vertices, so a chain past n = 7
        # never reads an n <= 7 table (2 MB inflated at n = 7)
        code = """
from planarlab.planarity import planar_mask_table
from planarlab.sampler import ChainState, mcmc_step
state = ChainState(100, 100, 100_000)
for _ in range(3000):
    mcmc_step(state)
print(planar_mask_table.cache_info().currsize)
"""
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "0\n"

    @pytest.mark.parametrize("f", [(4, 5), (1, 12)], ids=["two-cycles", "onto-a-path"])
    def test_cross_component_proposal_runs_no_left_right(self, monkeypatch, f):
        # two K4s and the path 9-10-11-12; the step drops (10, 11) and adds
        # f, which joins two components of what is left.  Onto the path, an
        # end of f lies outside the 2-core, and the step runs no test;
        # between the K4s, f is an edge of the core like any other, and the
        # step tests the core's kernel
        k4s = [(a + s, b + s) for s in (0, 4) for a, b in
               [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
        edges = sorted(k4s + [(9, 10), (10, 11), (11, 12)])
        state = chain_at(12, edges, edges.index((10, 11)), pair_index(12, *f))
        kernels = []
        kernel = sampler_module._kernel
        monkeypatch.setattr(sampler_module, "_kernel",
                            lambda *a: kernels.append(kernel(*a)) or kernels[-1])
        calls = count_left_right(monkeypatch)
        mcmc_step(state)
        after = frozenset(edges) - {(10, 11)} | {f}
        assert state.current.edges == after  # accepted
        if f == (1, 12):
            assert calls == [] and kernels == []
        else:
            [(order, tested)] = kernels
            hf = nx.Graph(sorted(after))
            hf.add_nodes_from(range(1, 13))
            assert_is_the_kernel(order, tested, reference_kernel(hf, f))
            assert calls == [tuple(tested)]
        # the whole-graph test would have run it, and accepts it
        calls.clear()
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
        [tested] = calls  # the kernel of the core: K3,3 itself
        assert len(tested) == 9 and {v for e in tested for v in e} == set(range(1, 7))
        assert nx.is_isomorphic(nx.Graph(tested), nx.complete_bipartite_graph(3, 3))


def record_derived_cores(monkeypatch) -> list[str]:
    """Per step from now on, what deriving the 2-core of G - e + f from G's
    did: "cascade" if e left the core and took at least two vertices with
    it, "reattached" if at least two vertices joined the core of G - e.
    Each derived core, and the one it came from, is asserted equal to the
    reference on the way, rejected steps' too."""
    kinds = []
    derive = sampler_module._swapped_core

    def checked(adj, core, size, out, into):
        assert (core, size) == two_core(adj)  # G's
        got = derive(adj, core, size, out, into)
        assert got == two_core(adj)  # adj is now G - e + f
        u, v = into
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        h_core = two_core(adj)[0]  # G - e
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if (core & ~h_core).bit_count() >= 2:
            kinds.append("cascade")
        if (got[0] & ~h_core).bit_count() >= 2:
            kinds.append("reattached")
        return got

    monkeypatch.setattr(sampler_module, "_swapped_core", checked)
    return kinds


class TestKeptCore:
    """The chain keeps the 2-core of its state and derives that of G - e + f
    from it; every one equals a from-scratch peel."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lockstep_with_the_reference_core(self, data):
        n = data.draw(st.integers(3, 24), label="n")
        m = data.draw(st.integers(0, 3 * n - 6), label="m")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        state = ChainState(n, m, seed)
        assert (state._core, state._core_size) == two_core(state._adj)
        with pytest.MonkeyPatch.context() as patch:
            kinds = record_derived_cores(patch)
            for _ in range(150):
                mcmc_step(state)
                assert (state._core, state._core_size) == two_core(state._adj)
        for kind in sorted(set(kinds)):
            event(kind)

    @pytest.mark.parametrize("n, m", [(10, 12), (16, 20), (24, 30)])
    def test_chains_peel_and_reattach_paths(self, monkeypatch, n, m):
        kinds = record_derived_cores(monkeypatch)
        state = ChainState(n, m, seed=3)
        for _ in range(150):
            mcmc_step(state)
        assert {"cascade", "reattached"} <= set(kinds), Counter(kinds)

    def test_path_peeled_and_reattached(self, monkeypatch):
        # K4 on 1..4 and the path 4-5-6-7-8 closed by (1, 8); vertex 9 is alone
        k4 = [(a, b) for a, b in combinations(range(1, 5), 2)]
        state = chain_at(9, k4 + [(4, 5), (5, 6), (6, 7), (7, 8), (1, 8)])
        kinds = record_derived_cores(monkeypatch)
        k4_core = sum(1 << x for x in range(1, 5))
        # (1, 8) leaves and peels the path; (2, 8) hangs it back from 2
        for e, f, core, size, kind in [
                ((1, 8), (2, 8), k4_core | 0b111100000, 11, ["cascade", "reattached"]),
                # (4, 5) leaves and peels it; (5, 9) joins it to 9, off the core
                ((4, 5), (5, 9), k4_core, 6, ["cascade"]),
                # (5, 9) leaves; (3, 5) joins the path to the core, and 9 is peeled
                ((5, 9), (3, 5), k4_core | 0b111100000, 11, ["reattached"])]:
            state.rng = Scripted(state._edges.index(e), pair_index(9, *f))
            kinds.clear()
            mcmc_step(state)
            assert f in state._edges and e not in state._edges  # accepted
            assert (state._core, state._core_size) == (core, size)
            assert kinds == kind


class Shapes:
    """A planar graph H grown on vertices 1, 2, ..., and the pair f added
    to it, for ``planar_pair_cases``."""

    def __init__(self, draw):
        self.draw = draw
        self.count = 0
        self.edges: list[tuple[int, int]] = []

    def vertex(self) -> int:
        self.count += 1
        return self.count

    def path(self, a: int, b: int, length: int) -> list[int]:
        """A path of ``length`` edges from a to b through new vertices: all
        its vertices, a first."""
        walk = [a] + [self.vertex() for _ in range(length - 1)] + [b]
        self.edges += zip(walk, walk[1:])
        return walk

    def subdivided(self, pairs) -> tuple[list[int], list[int]]:
        """A subdivision of the graph with these edges on 0, 1, ...: its
        branch vertices and all its vertices."""
        branch = [self.vertex() for _ in range(1 + max(max(e) for e in pairs))]
        every = list(branch)
        for a, b in pairs:
            every += self.path(branch[a], branch[b], self.draw(st.integers(1, 3)))[1:-1]
        return branch, every

    def cycle(self, length: int) -> list[int]:
        start = self.vertex()
        return self.path(start, start, length)[:-1]

    def decorate(self, hosts) -> None:
        """Trees hung on some of the hosts, which no core keeps, and a cycle
        of its own or none."""
        for host in self.draw(st.lists(st.sampled_from(hosts), max_size=3)):
            self.path(host, self.vertex(), 1)
            if self.draw(st.booleans()):
                self.path(self.count, self.vertex(), 1)
        if self.draw(st.booleans()):
            self.cycle(self.draw(st.integers(3, 6)))


K4_PAIRS = list(combinations(range(4), 2))
K5_PAIRS = list(combinations(range(5), 2))
K33_PAIRS = [(a, b) for a in range(3) for b in range(3, 6)]


@st.composite
def planar_pair_cases(draw):
    """(kind, n, H's edges, f): H planar on {1..n}, f a non-edge of it."""
    kind = draw(st.sampled_from(
        ["cycle", "bridge", "cross", "theta", "loop", "small", "k5", "k33"]))
    g = Shapes(draw)
    if kind == "cycle":  # f closes a path into a cycle: the core is one cycle
        a, b = g.vertex(), g.vertex()
        walk = g.path(a, b, draw(st.integers(2, 9)))
        f, hosts = (a, b), walk
    elif kind == "bridge":  # f joins two cycles of different components
        one, two = g.cycle(draw(st.integers(3, 6))), g.cycle(draw(st.integers(3, 6)))
        f, hosts = (draw(st.sampled_from(one)), draw(st.sampled_from(two))), one + two
    elif kind == "cross":  # f joins a subdivided K4 to the end of a path
        _, k4 = g.subdivided(K4_PAIRS)
        tail = g.path(g.vertex(), g.vertex(), draw(st.integers(1, 3)))
        f, hosts = (draw(st.sampled_from(k4)), tail[-1]), k4
    elif kind == "theta":  # paths between a and b; f a parallel one or a chord
        a, b = g.vertex(), g.vertex()
        lengths = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
        hosts = [a, b]
        for length in lengths:
            hosts += g.path(a, b, length)[1:-1]
        f = (a, b) if draw(st.booleans()) else tuple(draw(st.lists(
            st.sampled_from(hosts), min_size=2, max_size=2, unique=True)))
    elif kind == "loop":  # a path leaves a branch vertex and comes back to it
        branch, hosts = g.subdivided(K4_PAIRS)
        x = draw(st.sampled_from(branch))
        walk = g.path(x, g.vertex(), draw(st.integers(2, 5)))
        hosts += walk[1:]
        if draw(st.booleans()):
            f = (walk[-1], x)  # f closes the loop
        else:
            g.edges.append((walk[-1], x))
            f = tuple(draw(st.lists(st.sampled_from(hosts), min_size=2, max_size=2, unique=True)))
    elif kind == "small":  # a kernel of at most 4 vertices or 8 edges
        _, hosts = g.subdivided(draw(st.sampled_from([K4_PAIRS, K4_PAIRS[:5], K4_PAIRS[:4]])))
        f = tuple(draw(st.lists(st.sampled_from(hosts), min_size=2, max_size=2, unique=True)))
    else:  # K5 or K3,3 subdivided, less one edge: f may put it back
        pairs = K5_PAIRS if kind == "k5" else K33_PAIRS
        branch, hosts = g.subdivided(pairs)
        if draw(st.booleans()):  # a path that leaves a branch vertex and comes back
            x = draw(st.sampled_from(branch))
            hosts += g.path(x, x, draw(st.integers(3, 5)))[1:-1]
        if draw(st.booleans()):  # a second path beside one of the edges
            a, b = draw(st.sampled_from(pairs))
            hosts += g.path(branch[a], branch[b], draw(st.integers(2, 4)))[1:-1]
        f = draw(st.sampled_from(g.edges))
        g.edges.remove(f)
        assume(nx.check_planarity(nx.Graph(g.edges))[0])  # f was on the subdivision
    g.decorate(hosts)
    n = draw(st.integers(max(g.count, 8), max(g.count, 8) + 4))
    labels = [0] + draw(st.permutations(range(1, n + 1)))

    def relabel(e):
        return tuple(sorted((labels[e[0]], labels[e[1]])))

    edges = {relabel(e) for e in g.edges}
    f = relabel(f)
    assume(f[0] != f[1] and f not in edges)
    return kind, n, sorted(edges), f


class TestKernelCases:
    """Shapes the chain's states rarely show: every decision on them equals
    the left-right test on all m edges, and the kernel is the networkx one."""

    @given(planar_pair_cases())
    @settings(max_examples=300, deadline=None)
    def test_decision_matches_the_whole_graph(self, case):
        kind, n, h_edges, f = case
        h = nx.Graph(h_edges)
        assert nx.check_planarity(h)[0]
        hf_edges = h_edges + [f]
        want = _left_right_planar(n, hf_edges)
        event(f"{kind}, {'planar' if want else 'not planar'}")
        # a step that drops e and adds f, e the first edge of a path of t
        # edges on vertices of its own: peeling removes the other t - 1, over
        # an eighth of all edges, so the step does not test the whole graph
        t = (len(hf_edges) + 8) // 7 + 1
        tail = [(n + i, n + i + 1) for i in range(1, t + 1)]
        e = tail[0]
        state = chain_at(n + t + 1, sorted(h_edges + tail))
        state.rng = Scripted(state._edges.index(e), pair_index(n + t + 1, *f))
        with pytest.MonkeyPatch.context() as patch:
            calls = count_left_right(patch)
            mcmc_step(state)
        assert (e not in state._edges) == want
        if kind in ("cycle", "bridge", "cross"):
            assert calls == []
        if kind == "cross":
            return
        # the kernel itself, which the step tested unless it took all m edges
        hf = nx.Graph(hf_edges)
        hf.add_nodes_from(range(1, n + 1))
        adj = [0] * (n + 1)
        for a, b in hf_edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        core = sum(1 << x for x in nx.k_core(hf, 2))
        for u in f:  # the walk may start at either end of f
            with pytest.MonkeyPatch.context() as patch:
                calls = count_left_right(patch)
                order, kernel = _kernel(adj, core, u)
                assert is_planar_edges(order, kernel) == want
            assert_is_the_kernel(order, kernel, reference_kernel(hf, f))
            if len(kernel) <= 8:
                assert calls == []
            if kind == "cycle":
                assert kernel == []


def adjacency(n, edges) -> list[int]:
    """Neighbour bitsets of ``edges`` on {1..n}, as the chain keeps them."""
    adj = [0] * (n + 1)
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def edges_of(adj) -> list[tuple[int, int]]:
    return [(a, b) for a, row in enumerate(adj) for b in bit_positions(row) if a < b]


def record_certified(monkeypatch) -> list[tuple]:
    """(neighbour bitsets of H + f, f) of every step that the certificate
    rejects from now on."""
    certified = []
    kuratowski_minor = sampler_module._kuratowski_minor

    def recorded(adj, u, v):
        found = kuratowski_minor(adj, u, v)
        if found:
            certified.append((list(adj), (u, v)))
        return found

    monkeypatch.setattr(sampler_module, "_kuratowski_minor", recorded)
    return certified


def ring_cycle(g: nx.Graph, ring) -> list | None:
    """A cycle of g through every vertex of ``ring`` (at least 3) in the
    graph they induce, or None, found with networkx: the clockwise order
    of the neighbours of an apex joined to all of them, in
    ``check_planarity``'s embedding.  With such a cycle the graph plus the
    apex is 3-connected, so every face at the apex is a triangle and that
    order is the cycle; with none, the order is not a cycle."""
    apex = g.subgraph(ring).copy()
    apex.add_edges_from(("apex", x) for x in ring)
    planar, embedding = nx.check_planarity(apex)
    if not planar:
        return None
    cycle = list(embedding.neighbors_cw_order("apex"))
    if all(g.has_edge(x, y) for x, y in zip(cycle, cycle[1:] + cycle[:1])):
        return cycle
    return None


def graph_of(adj) -> nx.Graph:
    """The graph with neighbour bitsets ``adj`` on {1..n}, in networkx."""
    g = nx.Graph(edges_of(adj))
    g.add_nodes_from(range(1, len(adj)))
    return g


def certificate_sides(hf: nx.Graph, f) -> list[tuple]:
    """Per end a of f (b the other) whose N_H(a) has a cycle through all its
    vertices in H + f = ``hf``: (a, that cycle, b's component K in
    H - N_H(a) - a, the positions on the cycle of K's attachments), all
    found with networkx."""
    sides = []
    for a, b in f, f[::-1]:
        ring = set(hf[a]) - {b}
        cycle = ring_cycle(hf, ring) if len(ring) >= 3 else None
        if cycle is None:
            continue
        assert sorted(cycle) == sorted(ring)
        k = nx.node_connected_component(hf.subgraph(set(hf) - ring - {a}), b)
        starts = [i for i, x in enumerate(cycle) if any(y in k for y in hf[x])]
        sides.append((a, cycle, k, starts))
    return sides


def k5_branch_sets(hf: nx.Graph, f) -> list[set] | None:
    """The certificate's K5 minor of H + f = ``hf``: {a}, K and the three
    arcs of the cycle that start at three of K's attachments; None if it
    has none."""
    for a, cycle, k, starts in certificate_sides(hf, f):
        if len(starts) >= 3:
            i, j, l = starts[:3]
            return [{a}, k, set(cycle[i:j]), set(cycle[j:l]), set(cycle[l:] + cycle[:i])]
    return None


def k33_branch_sets(hf: nx.Graph, f) -> tuple[list[set], list[set]] | None:
    """The certificate's K3,3 minor of H + f = ``hf``: {a}, {x} and {y}
    against K and the inner vertices of the two arcs of the cycle between x
    and y, K's only attachments; None if it has none (x and y
    consecutive)."""
    for a, cycle, k, starts in certificate_sides(hf, f):
        if len(starts) == 2:
            i, j = starts
            arcs = [set(cycle[i + 1:j]), set(cycle[j + 1:] + cycle[:i])]
            if all(arcs):
                return [{a}, {cycle[i]}, {cycle[j]}], [k, *arcs]
    return None


def assert_k5_minor(adj, f) -> None:
    """Build the certificate's K5 minor of H + f with networkx and check it:
    five connected branch sets, disjoint and pairwise joined by an edge."""
    hf = graph_of(adj)
    parts = k5_branch_sets(hf, f)
    assert parts is not None, f"no K5 minor of the certificate's form for f = {f}"
    assert all(nx.is_connected(hf.subgraph(p)) for p in parts)
    for p, q in combinations(parts, 2):
        assert not p & q and any(hf.has_edge(x, y) for x in p for y in q)


def assert_k33_minor(adj, f) -> None:
    """Build the certificate's K3,3 minor of H + f with networkx and check
    it: six connected, disjoint branch sets, and every set of one side
    joined by an edge to every set of the other."""
    hf = graph_of(adj)
    sides = k33_branch_sets(hf, f)
    assert sides is not None, f"no K3,3 minor of the certificate's form for f = {f}"
    one, other = sides
    parts = one + other
    assert all(nx.is_connected(hf.subgraph(p)) for p in parts)
    assert all(not p & q for p, q in combinations(parts, 2))
    for p in one:
        for q in other:
            assert any(hf.has_edge(x, y) for x in p for y in q)


def wheel_and_b(pair, chord=None) -> list[tuple[int, int]]:
    """H on {1..8}: the wheel with hub 1 and rim 2 - 3 - ... - 7 - 2, the
    rim chord ``chord`` if given, and b = 8 joined to the two rim vertices
    of ``pair``.  The certificate is asked about f = (1, 8)."""
    edges = [(1, x) for x in range(2, 8)] + [(x, x + 1) for x in range(2, 7)] + [(2, 7)]
    return edges + [(x, 8) for x in pair] + ([chord] if chord else [])


class TestK5Certificate:
    """Past n = 7, a step that would test all m edges is rejected with no
    test when H + f has a K5 or K3,3 minor of the certificate's form; each
    such step is one the whole-graph test rejects."""

    @pytest.mark.parametrize("n, m, seed", [
        (100, 290, 200_000), (100, 290, 200_001), (100, 290, 200_002),
        (100, 250, 200_000), (30, 70, 1), (12, 28, 1), (9, 20, 1),
        (60, 170, 3), (40, 100, 5), (20, 50, 2),
    ])
    def test_certified_steps_are_not_planar(self, monkeypatch, n, m, seed):
        certified = record_certified(monkeypatch)
        state = ChainState(n, m, seed)
        steps = 2000
        for _ in range(steps):
            mcmc_step(state)
        if (n, m) == (100, 290):
            # it settles 98-99% of the steps on these seeds
            assert 100 * len(certified) > 95 * steps, len(certified)
        assert certified
        for i, (adj, f) in enumerate(certified):
            edges = edges_of(adj)
            assert not _left_right_planar(n, edges), i
            if i % 40 == 0:
                assert not networkx_planar(n, edges), i
                if k5_branch_sets(graph_of(adj), f) is not None:
                    assert_k5_minor(adj, f)
                else:
                    assert_k33_minor(adj, f)

    def test_k5_less_an_edge_plus_it(self):
        n = 8
        f = (1, 5)
        adj = adjacency(n, [e for e in combinations(range(1, 6), 2)])
        assert sampler_module._kuratowski_minor(adj, *f)
        assert_k5_minor(adj, f)

    def test_wheel_with_b_at_opposite_rim_vertices(self):
        # K = {8} attaches at 2 and 5, three apart on the rim: a K3,3 minor
        h, f = wheel_and_b((2, 5)), (1, 8)
        adj = adjacency(8, h + [f])
        assert networkx_planar(8, h)
        assert sampler_module._kuratowski_minor(adj, *f)
        assert not networkx_planar(8, edges_of(adj))
        assert k5_branch_sets(graph_of(adj), f) is None
        assert_k33_minor(adj, f)

    def test_wheel_with_b_at_consecutive_rim_vertices(self):
        # K = {8} attaches at 2 and 3, joined by a rim edge: no certificate,
        # and H + f is planar (8 sits in the face 1 - 2 - 3)
        h, f = wheel_and_b((2, 3)), (1, 8)
        adj = adjacency(8, h + [f])
        ring = adj[1] ^ 1 << 8
        assert _ring(adj, ring) and _attachments(adj, ring, 8, 1) == 1 << 2 | 1 << 3
        assert not _apart(adj, ring, 1 << 2 | 1 << 3)
        assert not sampler_module._kuratowski_minor(adj, *f)
        assert networkx_planar(8, edges_of(adj))

    def test_attachments_joined_by_a_chord(self):
        # the rim chord (2, 5), drawn outside the rim, keeps H planar; 2 and
        # 5 are adjacent but not consecutive on the rim, and the ring less
        # them falls into 3 - 4 and 6 - 7: a K3,3 minor
        h, f = wheel_and_b((2, 5), chord=(2, 5)), (1, 8)
        adj = adjacency(8, h + [f])
        ring = adj[1] ^ 1 << 8
        assert networkx_planar(8, h)
        assert adj[2] >> 5 & 1 and _apart(adj, ring, 1 << 2 | 1 << 5)
        assert sampler_module._kuratowski_minor(adj, *f)
        assert not networkx_planar(8, edges_of(adj))
        assert_k33_minor(adj, f)
        # with the rim chord (3, 7) instead, 2 and 5 are not adjacent, and
        # the ring less them stays connected through the chord; they are
        # still not consecutive (such a ring leaves no face to b in a planar
        # H, so here _apart is asked directly)
        chorded = adjacency(8, [(x, y) for x, y in h if (x, y) != (2, 5)] + [(3, 7)])
        assert _apart(chorded, ring, 1 << 2 | 1 << 5)

    @pytest.mark.parametrize("k", range(4, 11))
    def test_fan_less_a_path_edge_is_not_certified(self, k):
        # the fan on 12 vertices joins 1 and 2 to every vertex of the path
        # 3 - 4 - ... - 12; less (k, k + 1), {1, 2} splits the path, and f
        # joins the two ends that the split exposes.  For either end a of f,
        # N_H(a) is a triangle, and the other end's side attaches to it at 1
        # and 2 only, which are consecutive on it
        n = 12
        f = (k, k + 1)
        adj = adjacency(n, fan_triangulation_edges(n))  # H + f
        assert networkx_planar(n, edges_of(adj))
        assert not sampler_module._kuratowski_minor(adj, *f)
        for a, b in f, f[::-1]:
            ring = adj[a] ^ 1 << b
            assert ring.bit_count() == 3 and _ring(adj, ring)
            assert _attachments(adj, ring, b, a) == 1 << 1 | 1 << 2
            assert not _apart(adj, ring, 1 << 1 | 1 << 2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ring_against_brute_force(self, data):
        # a cycle through every vertex and random chords, relabelled: a
        # ring is found only when such a cycle exists, and on an outerplanar
        # graph (planar with a vertex joined to all) whenever one does
        k = data.draw(st.integers(3, 8), label="k")
        order = data.draw(st.permutations(range(1, k + 1)), label="order")
        edges = {frozenset(p) for p in zip(order, order[1:] + order[:1])}
        if data.draw(st.booleans(), label="break the cycle"):
            edges.discard(frozenset(order[:2]))
        chords = data.draw(st.sets(st.sampled_from(list(combinations(range(1, k + 1), 2))),
                                   max_size=k), label="chords")
        edges |= {frozenset(c) for c in chords}
        edges = [tuple(sorted(e)) for e in edges]
        adj = adjacency(k, edges)
        found = _ring(adj, (1 << k + 1) - 2)
        g = nx.Graph(edges)
        g.add_nodes_from(range(1, k + 1))
        hamiltonian = any(
            all(g.has_edge(x, y) for x, y in zip((1, *rest), (*rest, 1)))
            for rest in permutations(range(2, k + 1)))
        apex = g.copy()
        apex.add_edges_from((0, x) for x in range(1, k + 1))
        outerplanar = nx.check_planarity(apex)[0]
        event(f"hamiltonian={hamiltonian} outerplanar={outerplanar} found={found}")
        assert hamiltonian or not found
        if outerplanar:
            assert found is hamiltonian
            # the witness that assert_k5_minor and assert_k33_minor take
            assert (ring_cycle(g, range(1, k + 1)) is not None) is hamiltonian


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
