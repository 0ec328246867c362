"""Uniform sampling from the planar classes.

Samples are edge masks, as a census stores its graphs; the CLI writes their
text.  Exact sampling draws an index into a stored census.  The Markov chain
swaps one edge for one non-edge per step and accepts exactly when the result
stays planar; the proposal is symmetric (edge and non-edge counts are
invariant), so the uniform distribution on the reachable class is
stationary.  Chains are deterministic functions of their non-negative seed
(Mersenne Twister via random.Random, documented and stable; a negative seed
is refused, since random.Random(-s) draws the same stream as random.Random(s)).

A step decides planarity locally.  With G the state, e the dropped edge and
f the proposed pair, H = G - e is planar, being a subgraph of G.  Every K5
or K3,3 subdivision has minimum degree 2 and is 2-connected, so one inside
H + f must use f: it lies in f's component and survives the peeling of
vertices of degree at most 1.  H + f is therefore planar exactly when f
joins two components of H (then f is a bridge), or when the 2-core of f's
component in H + f is planar.  The test runs on that core, a fraction of
the m edges on sparse states.  When peeling would remove under an eighth of
the edges (so whenever no vertex of H + f has degree below 2), finding the
core costs about what the smaller test saves, and the test runs on all m
edges.

On dense states nearly every proposal is rejected, so one state faces
hundreds of tests on all m edges.  After a state's ninth such test since the
last acceptance, the chain builds a palm tree of it (a DFS tree that goes
next to the unvisited neighbour with the fewest unvisited neighbours, which
makes it deep) and keeps its left-right orientation.  A proposal is
eligible when e is a back edge of that tree and f joins an ancestor to a
descendant: the tree is then still a palm tree of G - e + f, and the test
patches the orientation instead of running its DFS again.  Other proposals
take the test on all m edges.  An accepted eligible swap carries the
patched tree to the new state; any other acceptance drops the tree.
Either way the answer is the whole-graph one.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ._bits import (
    bit_positions,
    edges_from_mask,
    mask_from_edges,
    pair_count,
    pair_index,
    pairs_in_order,
)
from .census import _check_int, _validate_params, class_masks
from .errors import CensusMissingError, EmptyClassBoundError, EmptyClassError, InvalidArgumentError
from .graphs import LabeledGraph, decode, encode  # noqa: F401  (decode: bench/tracing.py)
from .planarity import TABLE_MAX_N, PalmTree, is_planar_edges

DEFAULT_BURN_IN_FACTOR = 50  # burn_in = 50 * n * m
# A state gets a palm tree at its ninth step on all m edges since the last
# acceptance: a tree costs about one whole-graph test to build, and a state
# left within a few steps would pay for it without reuse.
_PALM_AFTER = 8


def fan_triangulation_edges(n: int) -> list[tuple[int, int]]:
    """Canonical triangulation on {1..n}: fan at 1, path 2..n, chords from 2."""
    if n <= 1:
        return []
    if n == 2:
        return [(1, 2)]
    edges = [(1, j) for j in range(2, n + 1)]
    edges += [(j, j + 1) for j in range(2, n)]
    edges += [(2, j) for j in range(4, n + 1)]
    return sorted(edges)


def mcmc_init(n: int, m: int) -> LabeledGraph:
    """Deterministic start state: first m fan-triangulation edges, lex order."""
    _validate_params(n, m)
    fan = fan_triangulation_edges(n)
    if m > len(fan):
        raise EmptyClassBoundError(f"no planar graph with n={n}, m={m}")
    return LabeledGraph(n, mask_from_edges(n, fan[:m]))


@dataclass
class ChainState:
    """One edge-swap chain; deterministic given (n, m, seed)."""

    n: int
    m: int
    seed: int
    steps_taken: int = 0

    def __post_init__(self) -> None:
        start = mcmc_init(self.n, self.m)
        self.mask = start.mask
        # the edges in the order randrange(m) picks from; a swap keeps the slot
        self._edges: list[tuple[int, int]] = list(edges_from_mask(self.n, self.mask))
        self._adj = list(start.adjacency)  # neighbour bitsets of the state
        # its vertices of degree at most 1, as a bitset
        self._low = sum(1 << x for x, row in enumerate(self._adj) if x and not row & (row - 1))
        # a palm tree of the state, built once enough steps tested all m edges
        self._palm: PalmTree | None = None
        self._whole_tests = 0  # steps since the last acceptance that tested all m edges
        self.rng = _rng(self.seed)

    @property
    def current(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.mask)


def _rng(seed: int) -> random.Random:
    _check_int("seed", seed)  # random.Random(-s) would repeat the stream of seed s
    return random.Random(seed)


def mcmc_step(state: ChainState) -> ChainState:
    """Advance one step; rejected proposals still advance the counter.

    The proposal (drop edge e, add pair f) is decided by one planarity test
    on an edge set that settles it (module docstring): ``(f,)`` when f
    joins two components of G - e, which the test's at-most-8-edges bound
    accepts at once; all m edges of G - e + f when its 2-core keeps at least
    seven eighths of them, on the state's patched palm tree when the swap is
    eligible; else the 2-core of f's component in G - e + f.  Each answer
    equals the answer on all m edges, so every seed's samples are those of
    the whole-graph test."""
    state.steps_taken += 1
    n, m = state.n, state.m
    total = pair_count(n)
    if m == 0 or m == total:
        return state  # single-state chain
    rng = state.rng
    edges = state._edges
    mask = state.mask
    drop = rng.randrange(m)
    removed = edges[drop]
    while True:  # rejection-sample a uniform non-edge
        slot = rng.randrange(total)
        if not mask >> slot & 1:
            break
    added = edges[drop] = pairs_in_order(n)[slot]
    adj = state._adj
    _swap(adj, removed, added)  # adj is now G - e + f
    low = state._low
    for x in removed + added:  # the vertices whose degree changed
        if adj[x] & (adj[x] - 1):
            low &= ~(1 << x)
        else:
            low |= 1 << x
    tested = _core_edges(adj, edges, low, *added)
    trial = None  # the state's palm tree patched for the swap, if it still is one
    if tested is edges and n > TABLE_MAX_N:
        state._whole_tests += 1
        palm = state._palm
        if palm is None and state._whole_tests > _PALM_AFTER:
            _swap(adj, added, removed)  # back to G for a moment
            palm = state._palm = _palm_tree(n, adj)
            _swap(adj, removed, added)
        if palm is not None:
            trial = palm.swapped(removed, added)
    if is_planar_edges(n, tested, trial):
        state.mask = mask ^ (1 << slot | 1 << pair_index(n, *removed))
        state._low = low
        state._palm = trial
        state._whole_tests = 0
    else:
        edges[drop] = removed
        _swap(adj, added, removed)
    return state


def _swap(adj: list[int], out: tuple[int, int], into: tuple[int, int]) -> None:
    """Drop the edge ``out`` from the neighbour bitsets and add ``into``."""
    a, b = out
    u, v = into
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u


def _palm_tree(n: int, adj: list[int]) -> PalmTree:
    """A palm tree of the graph with neighbour bitsets ``adj``.  Its DFS
    starts at the lowest vertex of each component with an edge and goes next
    to the unvisited neighbour with the fewest unvisited neighbours (the
    lowest on ties), which makes the tree deep, so that most pairs join an
    ancestor to a descendant."""
    unseen = (1 << n + 1) - 2
    # neighbour lists, each vertex's children first in the order the DFS took
    # them, so that the orientation DFS retraces it
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for root in range(1, n + 1):
        if not (unseen >> root & 1 and adj[root]):
            continue
        unseen ^= 1 << root
        path = [root]
        while path:
            v = path[-1]
            todo = adj[v] & unseen
            if not todo:
                path.pop()
                continue
            best = min(bit_positions(todo), key=lambda w: (adj[w] & unseen).bit_count())
            nbrs[v].append(best)
            unseen ^= 1 << best
            path.append(best)
    for v, kids in enumerate(nbrs):
        rest = adj[v]
        for w in kids:
            rest ^= 1 << w
        kids += bit_positions(rest)
    return PalmTree(n, nbrs)


def _core_edges(adj: list[int], edges, low: int, u: int, v: int):
    """Edges that decide whether H + f is planar, f = (u, v), where ``adj``
    and ``edges`` are H + f and ``low`` is the bitset of its vertices of
    degree at most 1: ``(f,)`` if f joins two components of H; else
    ``edges`` itself if peeling to the 2-core removes under an eighth of
    them (so whenever nothing can be peeled); else the edges of the 2-core
    of f's component in H + f."""
    core = (1 << len(adj)) - 2  # every vertex
    peeled = 0  # edges peeled away
    while low:
        bit = low & -low
        low ^= bit
        core ^= bit
        rest = adj[bit.bit_length() - 1] & core  # its one neighbour left, if any
        if rest:
            peeled += 1
            left = adj[rest.bit_length() - 1] & core
            if not left & (left - 1):
                low |= rest
    if not core >> u & core >> v & 1:
        return ((u, v),)  # f lies on no cycle
    if 8 * peeled < len(edges):
        return edges  # the rest would cost about what the smaller test saves
    # u's component in the core of H: f is left out by never expanding u again
    unseen = core ^ (1 << u)
    frontier = adj[u] & unseen & ~(1 << v)
    unseen ^= frontier
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        new = adj[bit.bit_length() - 1] & unseen
        unseen ^= new
        frontier |= new
    if unseen >> v & 1:
        return ((u, v),)  # f is a bridge
    core ^= unseen
    return [e for e in edges if core >> e[0] & core >> e[1] & 1]


@dataclass(frozen=True)
class SampleBatch:
    """Samples, as edge masks in draw order, plus the parameters behind them."""

    n: int
    m: int
    method: str
    seed: int
    burn_in: int
    thinning: int
    samples: tuple[int, ...]


def _stored_graphs(n: int, m: int, census) -> tuple[int, ...]:
    """The edge masks of a non-empty class, from a census that holds it whole."""
    if census is None:
        raise CensusMissingError(f"no census record for ({n}, {m})")
    graphs = class_masks(n, m, census)
    if not graphs:
        raise EmptyClassError(f"class ({n}, {m}) is empty")
    return graphs


def exact_sample(n: int, m: int, seed: int, census) -> LabeledGraph:
    """One uniform draw from a census record that stores its graphs."""
    [mask] = sample_many(n, m, 1, method="exact", seed=seed, census=census).samples
    return LabeledGraph(n, mask)


def sample_many(
    n: int,
    m: int,
    count: int,
    *,
    method: str = "mcmc",
    seed: int = 0,
    burn_in: int | None = None,
    thinning: int | None = None,
    census=None,
) -> SampleBatch:
    """Draw ``count`` samples; exact draws are independent, MCMC is one chain."""
    _validate_params(n, m)
    _check_int("count", count)
    if method == "exact":
        graphs = _stored_graphs(n, m, census)
        rng = _rng(seed)
        samples = tuple(graphs[rng.randrange(len(graphs))] for _ in range(count))
        return SampleBatch(n, m, "exact", seed, 0, 0, samples)
    if method != "mcmc":
        raise InvalidArgumentError(f"unknown sampling method {method!r}")
    if burn_in is None:
        burn_in = DEFAULT_BURN_IN_FACTOR * n * m
    if thinning is None:
        thinning = max(1, n * m)
    _check_int("thinning", thinning, 1)
    _check_int("burn-in", burn_in)
    state = ChainState(n, m, seed)  # refuses a negative seed and m past the fan
    if count == 0:  # no sample needs the burn-in
        return SampleBatch(n, m, "mcmc", seed, burn_in, thinning, ())
    for _ in range(burn_in):
        mcmc_step(state)
    out: list[int] = []
    for _ in range(count):
        for _ in range(thinning):
            mcmc_step(state)
        out.append(state.mask)
    return SampleBatch(n, m, "mcmc", seed, burn_in, thinning, tuple(out))


def tv_distance_to_uniform(batch: SampleBatch, census) -> float:
    """Half the L1 gap between the batch's empirical law and uniform."""
    graphs = _stored_graphs(batch.n, batch.m, census)
    if not batch.samples:
        raise InvalidArgumentError("cannot measure an empty batch")
    freq = Counter(batch.samples)
    alien = freq.keys() - set(graphs)
    if alien:
        enc = encode(LabeledGraph(batch.n, next(x for x in batch.samples if x in alien)))
        raise InvalidArgumentError(f"sample {enc!r} is not in the stored class")
    k = len(batch.samples)
    target = 1.0 / len(graphs)
    total = sum(abs(freq.get(mask, 0) / k - target) for mask in graphs)
    return total / 2.0
