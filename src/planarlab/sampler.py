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
the m edges on sparse states.  When peeling removes under an eighth of the
edges, the smaller test saves little, and the test runs on all m edges.

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
hundreds of tests on all m edges.  Past n = 7, a certificate rejects many of
them before any test.  Let a be an end of f, b the other and S = N_H(a).  If
S has at least 3 vertices and a cycle C through all of them, and the
component K of b in H - S - a has neighbours at 3 or more vertices of C,
then H + f has a K5 minor: take as branch sets {a}, K and the three arcs of
C that start at three of K's attachments.  a sees every arc and K the first
vertex of each, consecutive arcs meet along C, and f joins a to K.  So H + f
is not planar, and the step is rejected; each end of f is tried as a.  As H
is planar and a sees all of S, H[S] is outerplanar, and C is found by taking
out vertices of degree 2 in time linear in |S|.  At (100,290) the
certificate settles 72% of the steps (9,722 of 13,500 over chain seeds
200000-200002), none of which the test would accept.

After a state's ninth such test since the
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

from ._bits import bit_positions, mask_from_edges, pair_count, pair_index, slot_pair
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
    eligible, unless past n = 7 a K5 minor certifies a rejection first
    (``_k5_minor``); else the kernel of the 2-core of f's component in
    G - e + f.  Each answer equals the answer on all m edges, so every
    seed's samples are those of the whole-graph test."""
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
    trial = None  # the state's palm tree patched for the swap, if it still is one
    whole = tested is edges and n > TABLE_MAX_N
    certified = whole and _k5_minor(adj, *added)
    if whole and not certified:
        state._whole_tests += 1
        palm = state._palm
        if palm is None and state._whole_tests > _PALM_AFTER:
            _swap(adj, added, removed)  # back to G for a moment
            palm = state._palm = _palm_tree(n, adj)
            _swap(adj, removed, added)
        if palm is not None:
            trial = palm.swapped(removed, added)
    if not certified and is_planar_edges(order, tested, trial):
        state.mask = mask ^ (1 << slot | 1 << pair_index(n, *removed))
        state._core, state._core_size = core, size
        state._palm = trial
        state._whole_tests = 0
    else:
        edges[drop] = removed
        _swap(adj, added, removed)
    return state


def _k5_minor(adj: list[int], u: int, v: int) -> bool:
    """Whether the certificate (module docstring) finds a K5 minor in H + f,
    f = (u, v), where ``adj`` is H + f."""
    for a, b in (u, v), (v, u):
        ring = adj[a] ^ 1 << b  # N_H(a)
        if ring.bit_count() >= 3 and _ring(adj, ring) and _attaches_thrice(adj, ring, b, a):
            return True
    return False


def _attaches_thrice(adj: list[int], ring: int, start: int, fence: int) -> bool:
    """Whether the component of ``start`` in the graph less the vertex
    bitset ``ring`` and the vertex ``fence`` has neighbours at 3 or more
    vertices of ``ring``; the flood stops at the third."""
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
                return True
        row &= ~out
        out |= row
        todo |= row
    return False


def _ring(adj: list[int], ring: int) -> list[int] | None:
    """A cycle through every vertex of the vertex bitset ``ring`` (at least
    3) in the graph it induces, as its vertices in cycle order, or None when
    there is none (on a graph that is not outerplanar, it may miss one).

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
            return None
        if count == 2:
            todo.append(x)
    inner: dict[tuple[int, int], list[int]] = {}  # (y, z), y < z: the path yz stands for, y .. z
    while len(rows) > 3:
        if not todo:
            return None
        x = todo.pop()
        row = rows.pop(x, None)
        if row is None:
            continue  # taken out already
        if row.bit_count() < 2:
            return None
        y, z = bit_positions(row)
        path = _inside(inner, y, x) + [x] + _inside(inner, x, z)
        rows[y] ^= 1 << x
        rows[z] ^= 1 << x
        if rows[y] >> z & 1:
            if inner.get((y, z)):
                return None  # the cycle must take both paths between y and z
            todo += [w for w in (y, z) if rows[w].bit_count() <= 2]
        else:
            rows[y] |= 1 << z
            rows[z] |= 1 << y
        inner[y, z] = path
    a, b, c = rows
    if any(row.bit_count() != 2 for row in rows.values()):
        return None
    return [a, *_inside(inner, a, b), b, *_inside(inner, b, c), c, *_inside(inner, c, a)]


def _inside(inner: dict[tuple[int, int], list[int]], y: int, z: int) -> list[int]:
    """The inner vertices, from y to z, of the path that the edge yz stands
    for; none for an edge that stands for itself."""
    if y < z:
        return inner.pop((y, z), [])
    return inner.pop((z, y), [])[::-1]


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
    2-core: ``(n, (f,))`` if f joins two components of H; ``(n, edges)``
    itself if n <= 7 or the core keeps over seven eighths of them; else the
    kernel of the 2-core of f's component (``_kernel``)."""
    n = len(adj) - 1
    if not core >> u & core >> v & 1:
        return n, ((u, v),)  # f lies on no cycle
    if 8 * (len(edges) - size) < len(edges) or n <= TABLE_MAX_N:
        # the rest would cost about what the smaller test saves; at n <= 7 the
        # table decides all m edges in one lookup
        return n, edges
    return _kernel(adj, core, u, v)


def _kernel(adj: list[int], core: int, u: int, v: int):
    """(order, edges) of the kernel of the 2-core of f's component, f =
    (u, v), where ``adj`` is H + f on {1..n} and ``core`` the vertex bitset
    of its 2-core; ``(n, (f,))`` when f is a bridge of that core.  The
    kernel keeps the k branch vertices (core degree at least 3), numbered
    1..k in increasing order, and one edge (a, b), a < b, per path of
    degree-2 vertices between two of them, without loops or parallel edges:
    it is planar exactly when the core is (a subdivision of K5 or K3,3 needs
    no loop and no second parallel path).  It is given on max(k, 8)
    vertices, so that no n <= 7 table is read; a core that is one cycle has
    the empty kernel.

    One walk from u over the core less f finds it all.  It stops at u, v
    and the branch vertices and follows each path from a stop to the next;
    v not reached means f is a bridge.  The path through f is joined up
    last, through u or v where their core degree is 2."""
    ends = 1 << u | 1 << v
    known = ends  # the stops found: u, v and the branch vertices met so far
    stops = [u]  # the stops reached, in order
    reached = 1 << u
    done = 0  # the stops expanded and the degree-2 vertices walked
    paths = set()  # (a, b), a < b: the two stops of each path, f left out
    for s in stops:  # grows as the walk reaches new stops
        sbit = 1 << s
        row = adj[s] & core & ~done  # paths not yet walked from their other stop
        if sbit & ends:
            row &= ~ends  # leave f out
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
                    break
                done |= bit
                prev, bit = bit, nbrs ^ prev
            c = bit.bit_length() - 1
            if not bit & reached:
                reached |= bit
                stops.append(c)
            if s != c:
                paths.add((s, c) if s < c else (c, s))
    if not reached >> v & 1:
        return len(adj) - 1, ((u, v),)  # f is a bridge
    # the path through f runs a .. u - v .. b: an end of degree 2 lies inside
    # it, and its one other path, to a or b, is taken into it
    a, b = u, v
    for x in (u, v):
        if (adj[x] & core).bit_count() == 2:
            stops.remove(x)
            if a == b:  # u's path led to v: it is v's path too
                continue
            [path] = (e for e in paths if x in e)
            paths.remove(path)
            if x == u:
                a = path[0] + path[1] - u
            else:
                b = path[0] + path[1] - v
    if a != b:
        paths.add((a, b) if a < b else (b, a))
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
