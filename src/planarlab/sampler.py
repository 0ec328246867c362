"""Uniform sampling from the planar classes.

Samples are edge masks, as a census stores its graphs; the CLI writes their
text.  Exact sampling draws indices into the class as ``class_masks`` gives
it: from a census that holds it whole, or from the class search.  The Markov
chain swaps one edge for one non-edge per step and accepts exactly when the result
stays planar; the proposal is symmetric (edge and non-edge counts are
invariant), so the uniform distribution on the reachable class is
stationary.  Chains are deterministic functions of their non-negative seed
(Mersenne Twister via random.Random, documented and stable; a negative seed
is refused, since random.Random(-s) draws the same stream as random.Random(s)).

A step decides planarity locally.  With G the state, e the dropped edge and
f the proposed pair, H = G - e is planar, being a subgraph of G.  Every K5
or K3,3 subdivision has minimum degree 2 and is 2-connected, so one inside
H + f must use f: it lies in f's component and survives the peeling of
vertices of degree at most 1.  H + f is therefore planar when that peeling
takes an end of f (f then lies on no cycle), and else exactly when the
2-core of f's component in H + f is planar, f being an edge of it like any
other.  The test runs on that core, a fraction of the m edges on sparse
states.  When fewer vertices than an eighth of the m edges lie outside the
core, the smaller test saves little, and the test runs on all m edges.

The chain keeps the 2-core of its state G as a vertex bitset, and derives
that of H + f, f = (u, v), from it with one peel instead of peeling the
whole graph.  That core lies inside G's and the region that u and v reach
in H + f without entering G's (the trees of H they hang in, joined by f).
Its vertices outside G's core that reach neither u nor v so would each
have two neighbours among themselves and G's core along edges of G, so
G's core would hold them.  Peeling any vertex set that holds the 2-core
leaves the 2-core, and in G's core and the region only the region's
vertices and e's ends may have under two neighbours, so the peel starts
from those.  An accepted swap keeps the new core, a rejected one G's.

The test is given that core's kernel: the branch vertices (core degree at
least 3), numbered 1..k, and one edge per path of degree-2 vertices between
two of them, without loops or parallel edges.  It is homeomorphic to the
core less those, so by Kuratowski it is planar exactly when the core is; a
core that is one cycle has the empty kernel.  On the sparse states of
(100,100) a core of median 58 edges has a kernel of median 27.  Nothing
here depends on n: a chain at n <= 7, where the ground-truth checks run,
decides its steps as one at n = 100 does.

On dense states nearly every proposal is rejected, so one state faces
hundreds of tests on all m edges.  A certificate rejects nearly all of them
before any test.  Let a be an end of f, b the other and S = N_H(a).  As H
is planar and a sees all of S, H[S] is outerplanar, so (|S| >= 3) it has a
cycle C through all of S, its outer cycle, exactly when it is 2-connected:
each vertex has two neighbours in S, and S less it stays connected, which
one bitset flood per vertex tells.  Let K be the component of b in
H - S - a; f joins a to K.  If K has neighbours at 3 or more vertices of
C, then H + f has a K5 minor: take as branch sets {a}, K and the three arcs
of C that start at three of K's attachments.  a sees every arc and K the
first vertex of each, and consecutive arcs meet along C.  If K has
neighbours at exactly two vertices x and y of C, not consecutive on it, then
each arc of C between them has inner vertices, and H + f has a K3,3 minor
with {a}, {x} and {y} on one side and K and the inner vertices of each arc
on the other: a sees both arcs, and x and y end both arcs and meet K.  x and
y are consecutive exactly when xy is an edge and H[S] - x - y is connected,
for a chord of an outerplanar graph's outer cycle leaves two arcs with no
edge between them.  Either way H + f is not planar, and the step is
rejected; each end of f is tried as a.  At (100,290) the certificate
settles 98% of the steps (13,286 of 13,500 over chain seeds
200000-200002), none of which the test would accept; the rest take the test
on all m edges.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ._bits import mask_from_edges, pair_count, pair_index, slot_pair
from .census import _check_int, _validate_params, class_masks
from .errors import EmptyClassBoundError, EmptyClassError, InvalidArgumentError
from .graphs import LabeledGraph, decode, encode  # noqa: F401  (decode: bench/tracing.py)
from .planarity import is_planar_edges

DEFAULT_BURN_IN_FACTOR = 50  # burn_in = 50 * n * m


def fan_triangulation_edges(n: int) -> list[tuple[int, int]]:
    """Canonical triangulation on {1..n}: fan at 1, path 2..n, chords from 2;
    no edge for n <= 1 and the one edge (1, 2) for n = 2."""
    edges = [(1, j) for j in range(2, n + 1)]
    edges += [(j, j + 1) for j in range(2, n)]
    edges += [(2, j) for j in range(4, n + 1)]
    return sorted(edges)


def _start_edges(n: int, m: int) -> list[tuple[int, int]]:
    """The start state's edges: the first m fan-triangulation edges, lex order."""
    _validate_params(n, m)
    fan = fan_triangulation_edges(n)
    if m > len(fan):
        raise EmptyClassBoundError(f"no planar graph with n={n}, m={m}")
    return fan[:m]


def mcmc_init(n: int, m: int) -> LabeledGraph:
    """Deterministic start state: first m fan-triangulation edges, lex order."""
    return LabeledGraph(n, mask_from_edges(n, _start_edges(n, m)))


@dataclass
class ChainState:
    """One edge-swap chain; deterministic given (n, m, seed)."""

    n: int
    m: int
    seed: int
    steps_taken: int = 0
    accepted: int = 0  # the steps that swapped, each a change of the mask

    def __post_init__(self) -> None:
        # the edges in the order randrange(m) picks from, at first in slot
        # order as the fan's are; a swap keeps the slot
        self._edges: list[tuple[int, int]] = _start_edges(self.n, self.m)
        self.mask = mask_from_edges(self.n, self._edges)
        self._adj = list(LabeledGraph(self.n, self.mask).adjacency)  # neighbour bitsets
        every = (1 << self.n + 1) - 2
        # its 2-core, as a vertex bitset; each swap derives the next one
        self._core = _peel(self._adj, every, every)
        self.rng = _rng(self.seed)

    @property
    def current(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.mask)


def _rng(seed: int) -> random.Random:
    _check_int("seed", seed)  # random.Random(-s) would repeat the stream of seed s
    return random.Random(seed)


def mcmc_step(state: ChainState) -> ChainState:
    """Advance one step; rejected proposals still advance the counter, and
    an accepted swap also advances ``accepted``.

    The proposal (drop edge e, add pair f) is decided by one planarity test
    on an edge set that settles it (module docstring): ``(f,)`` when an end
    of f lies outside the 2-core of G - e + f, which the test's
    at-most-8-edges bound accepts at once; all m edges of G - e + f when
    fewer vertices than m / 8 lie outside its 2-core, unless a K5 or K3,3
    minor certifies a rejection first (``_kuratowski_minor``); else the
    kernel of the 2-core of f's component in G - e + f, f included.
    Each answer equals the answer on all m edges, so every seed's samples
    are those of the whole-graph test."""
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
    added = edges[drop] = slot_pair(n, slot)
    adj = state._adj
    core = _swapped_core(adj, state._core, removed, added)
    order, tested = _core_edges(adj, edges, core, *added)  # adj is G - e + f
    certified = tested is edges and _kuratowski_minor(adj, *added)
    if not certified and is_planar_edges(order, tested):
        state.mask = mask ^ (1 << slot | 1 << pair_index(n, *removed))
        state._core = core
        state.accepted += 1
    else:
        edges[drop] = removed
        _swap(adj, added, removed)
    return state


def _kuratowski_minor(adj: list[int], u: int, v: int) -> bool:
    """Whether the certificate (module docstring) finds a K5 or a K3,3 minor
    in H + f, f = (u, v), where ``adj`` is H + f."""
    for a, b in (u, v), (v, u):
        ring = adj[a] ^ 1 << b  # N_H(a)
        if ring.bit_count() < 3 or not _ring(adj, ring):
            continue
        hits = _attachments(adj, ring, b, a)
        count = hits.bit_count()
        if count >= 3 or count == 2 and _apart(adj, ring, hits):
            return True
    return False


def _attachments(adj: list[int], ring: int, start: int, fence: int) -> int:
    """The vertices of ``ring`` with a neighbour in the component of
    ``start`` in the graph less the vertex bitset ``ring`` and the vertex
    ``fence``, as a bitset; the flood stops at the third."""
    todo = 1 << start
    out = ring | 1 << fence | todo  # the vertices not to flood, or flooded
    hits = 0
    while todo:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1]
        if row & ring:
            hits |= row & ring
            if hits.bit_count() >= 3:
                break
        row &= ~out
        out |= row
        todo |= row
    return hits


def _apart(adj: list[int], ring: int, pair: int) -> bool:
    """Whether the two vertices x, y of the bitset ``pair`` are not
    consecutive on the cycle through the vertex bitset ``ring`` (``_ring``),
    whose induced graph is outerplanar.  That cycle is then its outer one,
    so a chord xy splits the rest into two arcs with no edge between them,
    while an edge xy of the cycle leaves one path: x and y are consecutive
    exactly when xy is an edge and the ring less x and y is connected."""
    return not adj[pair.bit_length() - 1] & pair or not _connected(adj, ring ^ pair)


def _ring(adj: list[int], ring: int) -> bool:
    """Whether the graph induced on the vertex bitset ``ring`` (at least 3
    vertices) is 2-connected: each vertex has two neighbours in it, and the
    rest is connected without it.  On an outerplanar graph, as H[S] is, that
    is a cycle through every vertex, the outer one."""
    rest = ring
    while rest:
        bit = rest & -rest
        rest ^= bit
        row = adj[bit.bit_length() - 1] & ring
        if not row & (row - 1) or not _connected(adj, ring ^ bit):
            return False
    return True


def _connected(adj: list[int], within: int) -> bool:
    """Whether the graph induced on the vertex bitset ``within`` is
    connected; the flood stops once it has reached every vertex."""
    seen = todo = within & -within
    while todo and seen != within:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1] & within & ~seen
        seen |= row
        todo |= row
    return seen == within


def _swap(adj: list[int], out: tuple[int, int], into: tuple[int, int]) -> None:
    """Drop the edge ``out`` from the neighbour bitsets and add ``into``."""
    a, b = out
    u, v = into
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u


def _swapped_core(adj: list[int], core: int, out, into) -> int:
    """Swap the edge ``out`` for ``into`` in the neighbour bitsets ``adj``,
    and return the 2-core (vertex bitset) of the result from ``core``, that
    of the graph before."""
    _swap(adj, out, into)
    a, b = out
    u, v = into
    todo = region = (1 << u | 1 << v) & ~core
    # flood the region that u and v reach without entering the core before
    while todo:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1] & ~(core | region)
        region |= row
        todo |= row
    core |= region
    return _peel(adj, core, (region | 1 << a | 1 << b) & core)


def _peel(adj: list[int], core: int, todo: int) -> int:
    """Peel from the vertex bitset ``core`` every vertex left with at most
    one neighbour in it, starting from those of ``todo``, a part of ``core``
    that holds every vertex that could be, and return what is left."""
    while todo:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1] & core
        if row & (row - 1):
            continue  # it has two neighbours left
        core ^= bit
        todo |= row  # its one neighbour may have one left now
    return core


def _core_edges(adj: list[int], edges, core: int, u: int, v: int):
    """(order, edges) of a graph on {1..order} that is planar exactly when
    H + f is, f = (u, v), where ``adj`` and ``edges`` are H + f on {1..n}
    and ``core`` the vertex bitset of its 2-core: ``(n, (f,))`` if an end of
    f lies outside it; ``(n, edges)`` itself if fewer vertices than m / 8 lie
    outside it; else the kernel of the 2-core of f's component
    (``_kernel``)."""
    n = len(adj) - 1
    if not core >> u & core >> v & 1:
        return n, ((u, v),)  # f lies on no cycle
    if 8 * (n - core.bit_count()) < len(edges):
        return n, edges  # the rest would cost about what the smaller test saves
    return _kernel(adj, core, u)


def _kernel(adj: list[int], core: int, u: int):
    """(order, edges) of the kernel of the 2-core of u's component, where
    ``adj`` is H + f on {1..n} and ``core`` the vertex bitset of its 2-core.
    The kernel keeps the k branch vertices (core degree at least 3),
    numbered 1..k in the order the walk reaches them, and one edge per path
    of degree-2 vertices between two of them, without loops or parallel
    edges: it is planar exactly when the core is (a subdivision of K5 or
    K3,3 needs no loop and no second parallel path).  A core that is one
    cycle has the empty kernel, on no vertex.

    The walk starts at a branch vertex: u, or the first one met along u's
    path.  It stops at the branch vertices and follows each path from a stop
    to the next."""
    row = adj[u] & core
    prev, bit = row & -row, 1 << u  # a path through u is walked away from prev
    while (nbrs := adj[bit.bit_length() - 1] & core).bit_count() == 2:
        prev, bit = bit, nbrs ^ prev
        if bit >> u & 1:
            return 0, []  # back at u: the core is one cycle
    u = bit.bit_length() - 1
    stops = [u]  # the branch vertices reached, in order
    known = 1 << u
    done = 0  # the stops expanded and the degree-2 vertices walked
    paths = set()  # (a, b), a < b: the two stops of each path
    for s in stops:  # grows as the walk reaches new stops
        sbit = 1 << s
        row = adj[s] & core & ~done  # paths not yet walked from their other stop
        done |= sbit
        while row:
            bit = row & -row
            row ^= bit
            if bit & done:
                continue  # a path that came back to s
            prev = sbit
            while not bit & known:
                nbrs = adj[bit.bit_length() - 1] & core
                if nbrs.bit_count() > 2:
                    known |= bit
                    stops.append(bit.bit_length() - 1)
                    break
                done |= bit
                prev, bit = bit, nbrs ^ prev
            c = bit.bit_length() - 1
            if s != c:
                paths.add((s, c) if s < c else (c, s))
    label = {x: i for i, x in enumerate(stops, 1)}
    return len(stops), [(label[x], label[y]) for x, y in paths]


@dataclass(frozen=True)
class SampleBatch:
    """Samples, as edge masks in draw order, plus the parameters behind them
    and, for a chain, the swaps it accepted over all its steps (None for
    exact draws)."""

    n: int
    m: int
    method: str
    seed: int
    burn_in: int
    thinning: int
    samples: tuple[int, ...]
    accepted: int | None = None


def _class_members(n: int, m: int, census, budget: int | None = None) -> tuple[int, ...]:
    """The edge masks of a non-empty class, as ``class_masks`` gives them."""
    graphs = tuple(class_masks(n, m, census, budget=budget))
    if not graphs:
        raise EmptyClassError(f"class ({n}, {m}) is empty")
    return graphs


def exact_sample(n: int, m: int, seed: int, census=None) -> LabeledGraph:
    """One uniform draw from the class, the first that ``sample_many`` makes."""
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
    budget: int | None = None,
) -> SampleBatch:
    """Draw ``count`` samples; exact draws are independent, MCMC is one chain.
    Exact draws take the class from ``census`` or, with none, from the class
    search, whose nodes ``budget`` bounds."""
    _validate_params(n, m, budget)
    _check_int("count", count)
    if method == "exact":
        graphs = _class_members(n, m, census, budget)
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
        return SampleBatch(n, m, "mcmc", seed, burn_in, thinning, (), 0)
    for _ in range(burn_in):
        mcmc_step(state)
    out: list[int] = []
    for _ in range(count):
        for _ in range(thinning):
            mcmc_step(state)
        out.append(state.mask)
    return SampleBatch(n, m, "mcmc", seed, burn_in, thinning, tuple(out), state.accepted)


def tv_distance_to_uniform(batch: SampleBatch, census=None) -> float:
    """Half the L1 gap between the batch's empirical law and uniform on its class."""
    graphs = _class_members(batch.n, batch.m, census)
    if not batch.samples:
        raise InvalidArgumentError("cannot measure an empty batch")
    freq = Counter(batch.samples)
    alien = freq.keys() - set(graphs)
    if alien:
        enc = encode(LabeledGraph(batch.n, next(x for x in batch.samples if x in alien)))
        raise InvalidArgumentError(f"sample {enc!r} is not in the class")
    k = len(batch.samples)
    target = 1.0 / len(graphs)
    total = sum(abs(freq.get(mask, 0) / k - target) for mask in graphs)
    return total / 2.0
