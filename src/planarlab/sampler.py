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
vertices of degree at most 1.  H + f is therefore planar when that peeling
takes an end of f (f then lies on no cycle), and else exactly when the
2-core of f's component in H + f is planar, f being an edge of it like any
other.  The test runs on that core, a fraction of the m edges on sparse
states.  When peeling removes under an eighth of the edges, the smaller
test saves little, and the test runs on all m edges.

The chain keeps the 2-core of its state G, as a vertex bitset and its edge
count, and derives that of H + f from it instead of peeling the whole
graph.  A swap changes at most four degrees.  If e lay in the core, the
vertices it leaves with under two core neighbours are peeled, and the cascade
from them.  Then, unless u and v both stay in the core, their region outside
it in H + f (the trees of H hanging there, joined by f) is flooded and peeled
with the core held fixed: what survives joins the core.  An accepted swap
keeps the new core, a rejected one G's.

The test is given that core's kernel: the branch vertices (core degree at
least 3), numbered 1..k, and one edge per path of degree-2 vertices between
two of them, without loops or parallel edges.  It is homeomorphic to the
core less those, so by Kuratowski it is planar exactly when the core is; a
core that is one cycle has the empty kernel.  On the sparse states of
(100,100) a core of median 58 edges has a kernel of median 27.  The kernel
is given on at least 8 vertices, so a chain past n = 7 never reads an
n <= 7 table; at n <= 7 the table decides all m edges in one lookup.

On dense states nearly every proposal is rejected, so one state faces
hundreds of tests on all m edges.  Past n = 7, a certificate rejects nearly
all of them before any test.  Let a be an end of f, b the other and
S = N_H(a).  As H is planar and a sees all of S, H[S] is outerplanar, and
taking out vertices of degree 2 tells in time linear in |S| whether it has a
cycle C through all of S, its outer cycle.  Let K be the component of b in
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

from ._bits import bit_positions, mask_from_edges, pair_count, pair_index, slot_pair
from .census import _check_int, _validate_params, class_masks
from .errors import CensusMissingError, EmptyClassBoundError, EmptyClassError, InvalidArgumentError
from .graphs import LabeledGraph, decode, encode  # noqa: F401  (decode: bench/tracing.py)
from .planarity import TABLE_MAX_N, is_planar_edges

DEFAULT_BURN_IN_FACTOR = 50  # burn_in = 50 * n * m


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

    def __post_init__(self) -> None:
        # the edges in the order randrange(m) picks from, at first in slot
        # order as the fan's are; a swap keeps the slot
        self._edges: list[tuple[int, int]] = _start_edges(self.n, self.m)
        self.mask = mask_from_edges(self.n, self._edges)
        self._adj = [0] * (self.n + 1)  # neighbour bitsets of the state
        for u, v in self._edges:
            self._adj[u] |= 1 << v
            self._adj[v] |= 1 << u
        # its 2-core: the vertex bitset and the number of edges
        every = (1 << self.n + 1) - 2
        self._core, peeled = _peel(self._adj, every, every)
        self._core_size = self.m - peeled
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
    on an edge set that settles it (module docstring): ``(f,)`` when an end
    of f lies outside the 2-core of G - e + f, which the test's
    at-most-8-edges bound accepts at once; all m edges of G - e + f when
    its 2-core keeps at least seven eighths of them, unless past n = 7 a K5
    or K3,3 minor certifies a rejection first (``_kuratowski_minor``); else
    the kernel of the 2-core of f's component in G - e + f, f included.
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
    core, size = _swapped_core(adj, state._core, state._core_size, removed, added)
    order, tested = _core_edges(adj, edges, core, size, *added)  # adj is G - e + f
    certified = tested is edges and n > TABLE_MAX_N and _kuratowski_minor(adj, *added)
    if not certified and is_planar_edges(order, tested):
        state.mask = mask ^ (1 << slot | 1 << pair_index(n, *removed))
        state._core, state._core_size = core, size
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
    x = pair.bit_length() - 1
    if not adj[x] & pair:
        return True
    rest = ring ^ pair
    seen = todo = rest & -rest
    while todo:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1] & rest & ~seen
        seen |= row
        todo |= row
    return seen != rest


def _ring(adj: list[int], ring: int) -> bool:
    """Whether a cycle runs through every vertex of the vertex bitset
    ``ring`` (at least 3) in the graph it induces (on a graph that is not
    outerplanar, it may miss one).

    A vertex x of degree 2, with neighbours y and z, lies between them on
    any such cycle; on more than 3 vertices the cycle then cannot use an
    edge yz as well.  So x is taken out and yz stands for the path y - x - z
    (in place of an edge yz that was there), and a cycle of what is left
    that uses every edge standing for a path gives one of the whole.  An
    outerplanar graph with a cycle through all its vertices has a vertex of
    degree 2 until 3 are left, which must form a triangle."""
    rows = {}
    todo = []  # vertices of degree 2
    rest = ring
    while rest:
        bit = rest & -rest
        rest ^= bit
        x = bit.bit_length() - 1
        row = rows[x] = adj[x] & ring
        count = row.bit_count()
        if count < 2:
            return False
        if count == 2:
            todo.append(x)
    paths = set()  # (y, z), y < z: the edges that stand for a path
    while len(rows) > 3:
        if not todo:
            return False
        x = todo.pop()
        row = rows.pop(x, None)
        if row is None:
            continue  # taken out already
        if row.bit_count() < 2:
            return False
        y, z = bit_positions(row)
        rows[y] ^= 1 << x
        rows[z] ^= 1 << x
        if rows[y] >> z & 1:
            if (y, z) in paths:
                return False  # the cycle must take both paths between y and z
            todo += [w for w in (y, z) if rows[w].bit_count() <= 2]
        else:
            rows[y] |= 1 << z
            rows[z] |= 1 << y
        paths.add((y, z))
    return all(row.bit_count() == 2 for row in rows.values())


def _swap(adj: list[int], out: tuple[int, int], into: tuple[int, int]) -> None:
    """Drop the edge ``out`` from the neighbour bitsets and add ``into``."""
    a, b = out
    u, v = into
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u


def _swapped_core(adj: list[int], core: int, size: int, out, into) -> tuple[int, int]:
    """Swap the edge ``out`` for ``into`` in the neighbour bitsets ``adj``,
    and return the 2-core (vertex bitset, edge count) of the result from
    ``core`` and ``size``, those of the graph before."""
    a, b = out
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    if core >> a & core >> b & 1:  # out lay in the core
        core, peeled = _peel(adj, core, 1 << a | 1 << b)
        size -= 1 + peeled
    u, v = into
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    todo = region = (1 << u | 1 << v) & ~core
    if not region:
        return core, size + 1
    # flood the trees that u and v hang in: each of their vertices has all its
    # neighbours in the region or the core
    ends = 0  # twice the edges with an end in the region
    while todo:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1]
        ends += row.bit_count() + (row & core).bit_count()  # an edge to the core has one end here
        row &= ~(core | region)
        region |= row
        todo |= row
    core, peeled = _peel(adj, core | region, region)
    return core, size + ends // 2 - peeled


def _peel(adj: list[int], core: int, todo: int) -> tuple[int, int]:
    """Peel from the vertex bitset ``core`` every vertex left with at most
    one neighbour in it, starting from those of ``todo``, a part of ``core``
    that holds every vertex that could be: (what is left, the number of
    edges peeled)."""
    peeled = 0
    while todo:
        bit = todo & -todo
        todo ^= bit
        row = adj[bit.bit_length() - 1] & core
        if row & (row - 1):
            continue  # it has two neighbours left
        core ^= bit
        if row:  # its one neighbour may have one left now
            peeled += 1
            todo |= row
    return core, peeled


def _core_edges(adj: list[int], edges, core: int, size: int, u: int, v: int):
    """(order, edges) of a graph on {1..order} that is planar exactly when
    H + f is, f = (u, v), where ``adj`` and ``edges`` are H + f on {1..n}
    and ``core`` and ``size`` the vertex bitset and edge count of its
    2-core: ``(n, (f,))`` if an end of f lies outside it; ``(n, edges)``
    itself if n <= 7 or the core keeps over seven eighths of them; else the
    kernel of the 2-core of f's component (``_kernel``)."""
    n = len(adj) - 1
    if not core >> u & core >> v & 1:
        return n, ((u, v),)  # f lies on no cycle
    if 8 * (len(edges) - size) < len(edges) or n <= TABLE_MAX_N:
        # the rest would cost about what the smaller test saves; at n <= 7 the
        # table decides all m edges in one lookup
        return n, edges
    return _kernel(adj, core, u)


def _kernel(adj: list[int], core: int, u: int):
    """(order, edges) of the kernel of the 2-core of u's component, where
    ``adj`` is H + f on {1..n} and ``core`` the vertex bitset of its 2-core.
    The kernel keeps the k branch vertices (core degree at least 3),
    numbered 1..k in increasing order, and one edge (a, b), a < b, per path
    of degree-2 vertices between two of them, without loops or parallel
    edges: it is planar exactly when the core is (a subdivision of K5 or
    K3,3 needs no loop and no second parallel path).  It is given on
    max(k, 8) vertices, so that no n <= 7 table is read; a core that is one
    cycle has the empty kernel.

    The walk starts at a branch vertex: u, or the first one met along u's
    path.  It stops at the branch vertices and follows each path from a stop
    to the next."""
    row = adj[u] & core
    prev, bit = row & -row, 1 << u  # a path through u is walked away from prev
    while (nbrs := adj[bit.bit_length() - 1] & core).bit_count() == 2:
        prev, bit = bit, nbrs ^ prev
        if bit >> u & 1:
            return TABLE_MAX_N + 1, []  # back at u: the core is one cycle
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
    # numbered in increasing order, so each pair (x, y), x < y, keeps it
    label = {x: i for i, x in enumerate(sorted(stops), 1)}
    return max(len(stops), TABLE_MAX_N + 1), [(label[x], label[y]) for x, y in paths]


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
