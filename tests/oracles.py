"""Independent reference implementations used only to check the library.

Everything here is written directly from definitions with no shared code
paths: permutation scans, subset scans, the Kuratowski subdivision search and
plain BFS.  Slow on purpose.  The exceptions are the table generators at
the end, which wrote the library's checked-in tables.  The n <= 7 planarity
tables close the K5/K3,3 subdivisions over supersets; the tests check them
against the Kuratowski search, the left-right test and the OEIS totals.  The
connected-orbit generator uses those tables and, past n = 7, the library's
left-right test; the tests check what it wrote against the labeled sweep,
the automorphism search and the OEIS totals.
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import numpy as np

from planarlab import (
    LabeledGraph,
    ResourceLimitError,
    add_count,
    build_graph,
    evaluate_event,
    is_planar,
    max_planar_edges,
    planar_orbits,
)
from planarlab._bits import bit_positions, edges_from_mask, pair_count, pair_index
from planarlab.census import _ORBIT_HEADER, EXACT_MAX_N
from planarlab.patterns import appearance_law
from planarlab.planarity import TABLE_MAX_N, mask_planarity

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "planarlab"
ORBIT_TABLES = PACKAGE / "orbits"
PLANAR_TABLES = PACKAGE / "tables"

# below this many |H|-subsets the plain Python scan beats the vectorized one
_SUBSET_VECTOR_THRESHOLD = 512


@lru_cache(maxsize=None)
def pairs_in_order(n: int) -> tuple[tuple[int, int], ...]:
    """All vertex pairs of {1..n} in slot order, as a table of C(n, 2) pairs."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def injection_count_brute(g: LabeledGraph, h: LabeledGraph) -> int:
    """Edge-preserving injective maps V(H) -> V(G), by scanning all tuples."""
    count = 0
    h_edges = [(i, j) for i, j in h.edges]
    for image in permutations(range(1, g.n + 1), h.n):
        if all(g.has_edge(image[i - 1], image[j - 1]) for i, j in h_edges):
            count += 1
    return count


def has_injection_brute(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Whether an edge-preserving injective map V(H) -> V(G) exists, by the
    same scan as injection_count_brute, stopping at the first one."""
    h_edges = list(h.edges)
    return any(
        all(g.has_edge(image[i - 1], image[j - 1]) for i, j in h_edges)
        for image in permutations(range(1, g.n + 1), h.n)
    )


def appearance_count_definition(g: LabeledGraph, h: LabeledGraph) -> int:
    """Appearance count straight from the definition, for tiny graphs."""
    count = 0
    k = h.n
    for witness in combinations(range(1, g.n + 1), k):
        wset = set(witness)
        # labeled induced condition
        ok = True
        for a in range(k):
            for b in range(a + 1, k):
                if g.has_edge(witness[a], witness[b]) != h.has_edge(a + 1, b + 1):
                    ok = False
        if not ok:
            continue
        # exactly one edge out, at the root
        out_edges = [
            (u, v)
            for u, v in g.edges
            if (u in wset) != (v in wset)
        ]
        if len(out_edges) != 1:
            continue
        u, v = out_edges[0]
        inside = u if u in wset else v
        if inside == witness[0]:
            count += 1
    return count


def count_appearances_subset(g: LabeledGraph, h: LabeledGraph) -> int:
    """Appearance count by scanning every |H|-subset W of V(g): the degree
    sum over W must be 2|E(H)| + 1 (one edge out), the root's degree one more
    than in H, and the increasing bijection must carry H onto g[W]."""
    if comb(g.n, h.n) < _SUBSET_VECTOR_THRESHOLD:
        return _count_appearances_subset_py(g, h)
    return _count_appearances_subset_np(g, h)


def _count_appearances_subset_py(g: LabeledGraph, h: LabeledGraph) -> int:
    return len(appearance_witnesses_subset(g, h))


def appearance_witnesses_subset(g: LabeledGraph, h: LabeledGraph) -> list[tuple[int, ...]]:
    """Witness sets of the appearances of h, ascending, by the subset scan of
    count_appearances_subset."""
    deg = g.degrees
    root_degree, degree_sum = h.degrees[1] + 1, 2 * h.m + 1
    return [
        witness for witness in combinations(range(1, g.n + 1), h.n)
        if deg[witness[0]] == root_degree and sum(deg[v] for v in witness) == degree_sum
        and relabeled_subgraph(g, witness).mask == h.mask
    ]


@lru_cache(maxsize=64)
def _combo_array(n: int, k: int) -> np.ndarray:
    return np.array(list(combinations(range(1, n + 1), k)), dtype=np.int64)


def _count_appearances_subset_np(g: LabeledGraph, h: LabeledGraph) -> int:
    n, k = g.n, h.n
    combos = _combo_array(n, k)
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    for i, j in g.edges:
        adj[i, j] = True
        adj[j, i] = True
    deg = adj.sum(axis=1)

    ok = np.ones(len(combos), dtype=bool)
    for a in range(k):
        col_a = combos[:, a]
        for b in range(a + 1, k):
            ok &= adj[col_a, combos[:, b]] == h.has_edge(a + 1, b + 1)
    ok &= deg[combos].sum(axis=1) == 2 * h.m + 1
    ok &= deg[combos[:, 0]] == h.degrees[1] + 1
    return int(np.count_nonzero(ok))


def has_forbidden_subdivision(n: int, edges) -> bool:
    """True iff the graph contains a subdivision of K5 or of K3,3: some choice
    of branch vertices can be joined by internally vertex-disjoint paths."""
    edges = tuple(edges)
    if len(edges) < 9:  # K3,3 is the smallest subdivision, 9 edges
        return False
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    deg4 = [v for v in range(1, n + 1) if len(adj[v]) >= 4]
    for branch in combinations(deg4, 5):
        if _connect_all(adj, set(branch), list(combinations(branch, 2))):
            return True

    deg3 = [v for v in range(1, n + 1) if len(adj[v]) >= 3]
    for six in combinations(deg3, 6):
        head, tail = six[0], six[1:]
        for pick in combinations(tail, 2):
            side_a = (head,) + pick
            side_b = tuple(v for v in six if v not in side_a)
            pairs = [(a, b) for a in side_a for b in side_b]
            if _connect_all(adj, set(six), pairs):
                return True
    return False


def _connect_all(adj, branch_set, pairs) -> bool:
    """Try to realize every branch pair by internally disjoint paths."""
    used: set[int] = set()

    def place(i: int) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]

        def walk(v, internals) -> bool:
            for u in sorted(adj[v]):
                if u == b:
                    used.update(internals)
                    if place(i + 1):
                        return True
                    used.difference_update(internals)
                elif u not in branch_set and u not in used and u not in internals:
                    if walk(u, internals | {u}):
                        return True
            return False

        return walk(a, frozenset())

    return place(0)


def brute_force_count(n: int, m: int) -> int:
    """|class(n, m)| by filtering every m-subset of the possible edges through
    the subdivision search: another enumeration and another planarity test
    than ``count_class``'s."""
    if n > 6:
        raise ResourceLimitError("the brute-force oracle is limited to n <= 6")
    return sum(
        1 for combo in combinations(pairs_in_order(n), m)
        if not has_forbidden_subdivision(n, combo)
    )


def orbit_event_counts(n: int, events) -> list[list[int]]:
    """For every m in 0..C(n,2), the graphs of class (n, m) that satisfy each
    event: every orbit of n evaluated once per event and counted with its
    labelings, the oracle of the exponential formula.  Every kind but
    appearances is an isomorphism invariant; an appearance is rooted at the
    smallest label of its set, so an orbit counts the share of its labelings
    that the law of its appearance count under relabeling gives."""
    events = list(events)
    tallies = [[0] * len(events) for _ in range(pair_count(n) + 1)]
    for orbit in planar_orbits(n):
        g = LabeledGraph(n, orbit.mask)
        row = tallies[orbit.m]
        for idx, event in enumerate(events):
            if event.kind == "appearances":
                law = appearance_law(g, event.pattern)
                row[idx] += int(orbit.labelings * sum(law[event.threshold:]))
            elif evaluate_event(g, event):
                row[idx] += orbit.labelings
    return tallies


def orbit_class_counts(n: int) -> list[int]:
    """|class(n, m)| for every m in 0..C(n,2), summed over the orbits of n."""
    counts = [0] * (pair_count(n) + 1)
    for orbit in planar_orbits(n):
        counts[orbit.m] += orbit.labelings
    return counts


def orbit_add_sums(n: int) -> list[int]:
    """For every m in 0..C(n,2), add(G) summed over the graphs G of class
    (n, m): the addable non-edges of each orbit of n times its labelings."""
    sums = [0] * (pair_count(n) + 1)
    for orbit in planar_orbits(n):
        sums[orbit.m] += add_count(LabeledGraph(n, orbit.mask)) * orbit.labelings
    return sums


def components_bfs(g: LabeledGraph) -> list[frozenset[int]]:
    """Vertex sets of the components, by ascending minimum vertex."""
    seen: set[int] = set()
    parts = []
    for s in range(1, g.n + 1):
        if s in seen:
            continue
        part = {s}
        frontier = [s]
        seen.add(s)
        while frontier:
            v = frontier.pop()
            for w in range(1, g.n + 1):
                if w not in seen and g.has_edge(v, w):
                    seen.add(w)
                    part.add(w)
                    frontier.append(w)
        parts.append(frozenset(part))
    return parts


def reach(adj, seeds: int) -> int:
    """Bitset of the vertices reachable from the seed bitset, by flood fill."""
    seen = frontier = seeds
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen


def two_core(adj) -> tuple[int, int]:
    """(vertex bitset, edge count) of the 2-core of the graph with neighbour
    bitsets ``adj`` on {1..n}: vertices with under two neighbours left are
    deleted, in sweeps over all of them, until none is."""
    core = sum(1 << x for x in range(1, len(adj)))
    while True:
        low = [x for x in range(1, len(adj)) if core >> x & 1 and (adj[x] & core).bit_count() < 2]
        if not low:
            break
        for x in low:
            core &= ~(1 << x)
    edges = sum((adj[x] & core).bit_count() for x in range(1, len(adj)) if core >> x & 1)
    return core, edges // 2


def attachments_flood(adj, ring: int, start: int, fence: int) -> int:
    """The vertices of ``ring`` with a neighbour in the component of
    ``start`` in the graph less the vertex bitset ``ring`` and the vertex
    ``fence``, as a bitset; the flood runs to the component's end unless it
    meets a third.  The certificate's flood before it stopped at the first
    attachments that decide it."""
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


def component_masks_reach(g: LabeledGraph) -> tuple[int, ...]:
    """Vertex bitsets of the components, by ascending minimum vertex: one
    flood fill from the smallest vertex not yet reached."""
    rest = (1 << (g.n + 1)) - 2
    parts = []
    while rest:
        comp = reach(g.adjacency, rest & -rest)
        parts.append(comp)
        rest &= ~comp
    return tuple(parts)


def pendant_sides_flood(g: LabeledGraph, bridge_set, size: int) -> list[tuple[int, int]]:
    """(vertex bitset, attachment vertex) of every side of ``size`` vertices
    of a bridge in bridge_set, by ascending bridge and then end: each side a
    flood fill from the bridge's end with the bridge deleted."""
    out = []
    for u, v in sorted(bridge_set):
        cut = list(g.adjacency)
        cut[u] &= ~(1 << v)
        cut[v] &= ~(1 << u)
        for a in (u, v):
            side = reach(cut, 1 << a)
            if side.bit_count() == size:
                out.append((side, a))
    return out


def component_count_bfs(g: LabeledGraph) -> int:
    return len(components_bfs(g))


def degrees_from_edges(g: LabeledGraph) -> list[int]:
    """Degree of each vertex (index 0 unused), counted over the edge pairs."""
    deg = [0] * (g.n + 1)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def adjacency_rows(n: int, mask: int) -> tuple[int, ...]:
    """Neighbour bitsets of (n, mask) indexed by vertex label, index 0 being
    0, read row by row: row i of the mask, the n - i slots of (i, i+1) ..
    (i, n), is i's upper row, shifted off the mask in turn, and i is in the
    lower row of each upper neighbour.  One whole-mask shift per row, so it
    is slow on a sparse mask at large n."""
    rest = mask
    rows = [0] * (n + 1)
    i = 1
    while rest:
        up = rest & ((1 << (n - i)) - 1)
        rest >>= n - i
        rows[i] |= up << (i + 1)
        while up:
            low = up & -up
            rows[i + low.bit_length()] |= 1 << i
            up ^= low
        i += 1
    return tuple(rows)


def relabeled_subgraph(g: LabeledGraph, verts) -> LabeledGraph:
    """g[W] with the i-th smallest vertex of W renamed i."""
    index = {v: a + 1 for a, v in enumerate(sorted(verts))}
    return build_graph(
        len(index), [(index[i], index[j]) for i, j in g.edges if i in index and j in index]
    )


def encode_definition(g: LabeledGraph) -> str:
    """The n:HEX text: pair bits in row-major order, zero-padded to whole hex digits."""
    bits = "".join(
        "1" if g.has_edge(i, j) else "0"
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
    )
    bits += "0" * (-len(bits) % 4)
    return f"{g.n}:" + "".join(f"{int(bits[k:k + 4], 2):X}" for k in range(0, len(bits), 4))


def random_graph(rng: random.Random, n: int, m: int | None = None) -> LabeledGraph:
    """Uniform random mask (or uniform among m-subsets when m is given)."""
    slots = pair_count(n)
    if m is None:
        mask = rng.getrandbits(slots) if slots else 0
    else:
        mask = 0
        for s in rng.sample(range(slots), m):
            mask |= 1 << s
    return build_graph(n, edges_from_mask(n, mask))


def random_planar_graph(rng: random.Random, n: int, m: int) -> LabeledGraph:
    """Rejection-sample a planar graph; fine for the small sizes tests use."""
    while True:
        g = random_graph(rng, n, m)
        if is_planar(g):
            return g


def grown_planar_graph(rng: random.Random, n: int, m: int, core: int | None = None) -> LabeledGraph:
    """A planar graph with n vertices and at most m edges, on shuffled labels:
    pairs of the first ``core`` vertices (all n when None) added in random
    order while planar, up to m edges; each vertex past the core then hangs
    by one edge from a random earlier one, so the rest are pendant trees."""
    core = n if core is None else core
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pairs = list(combinations(labels[:core], 2))
    rng.shuffle(pairs)
    edges: list[tuple[int, int]] = []
    budget = m - (n - core)
    for pair in pairs:
        if len(edges) >= budget:
            break
        if is_planar(build_graph(n, edges + [pair])):
            edges.append(pair)
    edges += [(labels[rng.randrange(i)], labels[i]) for i in range(core, n)]
    return build_graph(n, edges)


def check_palm_tree(palm, edges) -> None:
    """Assert that ``palm`` (planarity.PalmTree) is a palm tree of the graph
    with these edges, oriented as the left-right test needs, with every
    per-edge value taken from its definition rather than from a DFS.

    Tree edges point from parent to child and every other edge from a
    descendant to an ancestor.  A back edge v->w has lowpoints (height[w],
    height[v]); a tree edge p->w has as lowpoint the least of height[p] and
    the heights of the heads of the back edges leaving w's subtree, and as
    second lowpoint the next distinct one of them, or height[p] when
    height[p] is the least.  The nesting depth is twice the lowpoint, +1 when
    the second lowpoint is below the tail; each vertex's edges out are sorted
    by it."""
    height, parent, src, dst = palm.height, palm.parent, palm.src, palm.dst
    ids = range(len(src))
    assert {tuple(sorted(p)) for p in zip(src, dst)} == {tuple(sorted(e)) for e in edges}
    assert len(src) == len(set(map(tuple, map(sorted, edges))))
    up = {w: src[e] for w, e in enumerate(parent) if e >= 0}
    assert all(dst[e] == w for w, e in enumerate(parent) if e >= 0)

    def ancestors(v):
        while v in up:
            v = up[v]
            yield v

    for v, w in zip(src, dst):
        if up.get(w) != v:
            assert w in set(ancestors(v)), (v, w)
    for w, p in up.items():
        assert height[w] == height[p] + 1
    returns: dict[int, set[int]] = {}  # vertex -> heights its subtree returns to
    for e in ids:
        if up.get(dst[e]) != src[e]:
            for v in [src[e], *ancestors(src[e])]:
                returns.setdefault(v, set()).add(height[dst[e]])
    for e in ids:
        v, w = src[e], dst[e]
        if up.get(w) == v:
            hv = height[v]
            heights = sorted(returns.get(w, set()) | {hv})
            want = (heights[0], heights[1] if heights[0] < hv else hv)
        else:
            want = (height[w], height[v])
        assert (palm.lowpt[e], palm.lowpt2[e]) == want, (v, w)
        assert palm.depth[e] == 2 * want[0] + (want[1] < height[v]), (v, w)
    for v, out in enumerate(palm.out):
        assert sorted(out) == [e for e in ids if src[e] == v]
        assert [palm.depth[e] for e in out] == sorted(palm.depth[e] for e in out)


# -- the table generators -------------------------------------------------------
#
# These generators wrote the checked-in tables that the library reads: the
# n <= 7 planarity tables under src/planarlab/tables and the connected orbits
# under src/planarlab/orbits.  Rewrite them (and then check them) with
#
#     PYTHONPATH=src python -m tests.oracles
#     PYTHONPATH=src python -m tests.oracles --check


@lru_cache(maxsize=None)
def forbidden_subdivision_masks(n: int) -> tuple[int, ...]:
    """Edge masks of all K5 and K3,3 subdivisions on subsets of {1..n}.  Each
    connection (u, v) of branch vertices becomes a path u - d1 - ... - dk - v
    whose internal vertices are distinct other vertices, not all used."""
    verts = range(1, n + 1)
    models = [(branch, tuple(combinations(branch, 2))) for branch in combinations(verts, 5)]
    for branch in combinations(verts, 6):
        for pick in combinations(branch[1:], 2):
            side = (branch[0],) + pick
            models.append((branch, tuple((a, b) for a in side for b in branch if b not in side)))
    found: set[int] = set()

    def subdivide(connections, spares, mask):
        if not connections:
            found.add(mask)
            return
        u, v = connections[0]
        for r in range(len(spares) + 1):
            for inner in permutations(spares, r):
                path_mask = mask
                for a, b in zip((u,) + inner, inner + (v,)):
                    path_mask |= 1 << (pair_index(n, a, b) if a < b else pair_index(n, b, a))
                subdivide(connections[1:], tuple(s for s in spares if s not in inner), path_mask)

    for branch, connections in models:
        subdivide(connections, tuple(v for v in verts if v not in branch), 0)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def planar_table(n: int) -> bytes:
    """byte[mask] == 1 iff the graph on {1..n} with that edge mask is planar:
    the edge mask of every K5/K3,3 subdivision marked in one Python int and
    closed upward over supersets, one shift-and-or per vertex pair (a graph is
    non-planar exactly when it contains one of them)."""
    slots = pair_count(n)
    size = 1 << slots
    # x has bit size-1-mask set iff the mask is non-planar, so that its binary
    # digits, most significant first, run in mask order
    marks = bytearray(size + 7 >> 3)
    for p in (size - 1 - mask for mask in forbidden_subdivision_masks(n)):
        marks[p >> 3] |= 1 << (p & 7)
    x = int.from_bytes(marks, "little")
    # superset closure, one slot b at a time: adding b to a mask moves its bit
    # down by 2**b from a position that has bit b set
    for b in range(slots):
        half = 1 << b >> 3  # bytes in half a period of those positions
        unit = bytes(half) + b"\xff" * half if half else bytes([(0xAA, 0xCC, 0xF0)[b]])
        x |= (x & int.from_bytes(unit * (size // 8 // len(unit) + 1), "little")) >> (1 << b)
    # a binary digit of the non-planar marks -> its table byte ("0" -> 1, planar)
    return format(x, f"0{size}b").encode("ascii").translate(bytes.maketrans(b"01", b"\x01\x00"))


def read_planar_table(n: int) -> bytes | None:
    """The checked-in planarity table for n, inflated, read straight from its
    file; None if the file is missing or does not inflate."""
    try:
        return zlib.decompress((PLANAR_TABLES / f"planar_{n}.bin").read_bytes())
    except (OSError, zlib.error):
        return None


@lru_cache(maxsize=None)
def connected_orbits(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical mask, |Aut|) of every connected planar graph on n vertices,
    sorted.  Deleting a leaf of a spanning tree leaves a connected graph, so
    each one is a connected graph on n - 1 vertices plus a vertex joined to a
    non-empty set S of them.  Only a vertex of least degree among those whose
    deletion leaves the graph connected is added this way.  Permuting twins of
    the smaller graph is an automorphism, so S takes the lowest vertices of
    each twin class it meets; and a non-planar S stays non-planar in every
    superset."""
    if n == 1:
        return ((0, 1),)
    found: dict[int, int] = {}
    nonplanar: set[int] = set()
    planar = planar_table(n).__getitem__ if n <= TABLE_MAX_N else mask_planarity(n)
    new = 1 << n
    for parent_mask, _ in connected_orbits(n - 1):
        parent = LabeledGraph(n - 1, parent_mask).adjacency
        room = max_planar_edges(n) - parent_mask.bit_count()
        prefixes = {}
        for group in set(_twins(parent, n - 1)) - {0}:
            low = _members(n)[group]
            prefixes[group] = {sum(1 << v for v in low[:k]) for k in range(len(low) + 1)}
        leaves = sum(1 << v for v, row in enumerate(parent) if row.bit_count() == 1)
        bad: list[int] = []
        for s in range(2, 1 << n, 2):  # S as a vertex bitset over 1..n-1
            if s.bit_count() > room or any(s & b == b for b in bad):
                continue
            if leaves & ~s and s & (s - 1):
                continue  # a leaf outside S stays deletable: _deletable_below, sooner
            if any((s & group) not in allowed for group, allowed in prefixes.items()):
                continue
            adj = [row | new if s >> v & 1 else row for v, row in enumerate(parent)]
            adj.append(s)
            if _deletable_below(adj, n, s.bit_count()):
                continue
            form, aut = canonical_form(n, adj)
            if form in found:
                continue
            if form in nonplanar or not planar(form):
                nonplanar.add(form)
                bad.append(s)
                continue
            found[form] = aut
    return tuple(sorted(found.items()))


def _deletable_below(adj, n: int, degree: int) -> bool:
    """Whether a vertex of degree below ``degree`` leaves the connected graph
    with neighbour bitsets adj connected when it is deleted."""
    for u in range(1, n):
        if adj[u].bit_count() < degree:
            rest = (1 << (n + 1)) - 2 & ~(1 << u)
            if reach([row & rest for row in adj], rest & -rest) == rest:
                return True
    return False


def _refine(adj, cells: list[int], n: int, members) -> list[int]:
    """The coarsest equitable refinement of an ordered partition of {1..n}
    into vertex bitsets: a cell splits by the number of neighbours its
    vertices have in each cell, the parts in order of those numbers."""
    while len(cells) < n:
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in members[cell]:
                row = adj[v]
                key = tuple([(row & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | 1 << v
            split += [groups[key] for key in sorted(groups)]
        if len(split) == len(cells):
            break
        cells = split
    return cells


def canonical_form(n: int, adj) -> tuple[int, int]:
    """(canonical edge mask, |Aut|) of the graph with neighbour bitsets adj.

    Each branch individualises one vertex of the first non-singleton cell of
    an equitable partition and refines again; every discrete partition is an
    order of the vertices, and the form is the largest edge mask over those
    orders.  Swapping two twins (equal open or closed neighbourhoods) is an
    automorphism that fixes every earlier choice, so a branch tries one
    vertex per twin class: the orders reaching the form are then one per
    coset of the twin group, and |Aut| is their number times its order."""
    members = _members(n)
    twins = _twins(adj, n)
    twin_order = 1
    for group in set(twins):
        twin_order *= factorial(group.bit_count())
    slot = _slot_table(n)
    best = [-1, 0]

    def search(cells: list[int]) -> None:
        cells = _refine(adj, cells, n, members)
        if len(cells) == n:
            label = [0] * (n + 1)
            for i, cell in enumerate(cells):
                label[cell.bit_length() - 1] = i
            mask = 0
            for v in range(1, n + 1):
                row = slot[label[v]]
                for w in members[adj[v] >> v + 1 << v + 1]:
                    mask |= row[label[w]]
            if mask > best[0]:
                best[0], best[1] = mask, 1
            elif mask == best[0]:
                best[1] += 1
            return
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        cell = cells[i]
        tried = 0
        for v in members[cell]:
            if not twins[v] & tried:
                tried |= 1 << v
                search(cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1:])

    search([(1 << (n + 1)) - 2])
    return best[0], best[1] * twin_order


def _twins(adj, n: int) -> list[int]:
    """twins[v]: the bitset of v's twin class (vertices with v's open or
    closed neighbourhood) if it has two or more vertices, else 0."""
    twins = [0] * (n + 1)
    for closed in (0, 1):
        groups: dict[int, int] = {}
        for v in range(1, n + 1):
            key = adj[v] | closed << v
            groups[key] = groups.get(key, 0) | 1 << v
        for group in groups.values():
            if group & (group - 1):
                for v in _members(n)[group]:
                    twins[v] = group
    return twins


@lru_cache(maxsize=None)
def _members(n: int) -> tuple[list[int], ...]:
    """The vertices of every vertex bitset over {1..n}."""
    return tuple(bit_positions(cell) for cell in range(1 << (n + 1)))


@lru_cache(maxsize=None)
def _slot_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Bit of the edge between the vertices at positions a and b of an order."""
    return tuple(tuple(1 << pair_index(n, min(a, b) + 1, max(a, b) + 1) if a != b else 0
                       for b in range(n)) for a in range(n))


def crc_text(payload: str) -> str:
    """The CRC-32 of the payload as it is written on a checksum line."""
    return f"{zlib.crc32(payload.encode('utf-8')):08x}"


def orbit_table_text(n: int, rows) -> str:
    """The table of the connected orbits on n vertices as census reads it:
    a header, one "<canonical mask in hex> <|Aut|>" line per orbit, and the
    CRC-32 of everything above the checksum line."""
    body = f"{_ORBIT_HEADER}\nn {n}\nrows {len(rows)}\n"
    body += "".join(f"{mask:x} {aut}\n" for mask, aut in rows)
    return f"{body}checksum {crc_text(body)}\n"


def main(argv=None) -> int:
    """Write the checked-in planarity tables for n = 1..7 and orbit tables
    for n = 1..9 from the generators, or with --check compare them with
    them and exit 1 on a difference."""
    parser = argparse.ArgumentParser(prog="python -m tests.oracles", description=main.__doc__)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    stale = []
    for n in range(1, TABLE_MAX_N + 1):
        table = planar_table(n)
        path = PLANAR_TABLES / f"planar_{n}.bin"
        if not args.check:
            path.write_bytes(zlib.compress(table, 9))
        elif read_planar_table(n) != table:
            stale.append(path.name)
        print(f"{path.name}: {table.count(1)} planar of {len(table)}", file=sys.stderr)
    for n in range(1, EXACT_MAX_N + 1):
        text = orbit_table_text(n, connected_orbits(n))
        path = ORBIT_TABLES / f"connected_{n}.txt"
        if not args.check:
            path.write_text(text, encoding="ascii", newline="\n")
        elif not path.is_file() or path.read_text(encoding="ascii") != text:
            stale.append(path.name)
        print(f"{path.name}: {len(connected_orbits(n))} rows", file=sys.stderr)
    if stale:
        print(f"differs from the generator: {', '.join(stale)}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
