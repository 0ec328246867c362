"""Independent reference implementations used only to check the library.

Everything here is written directly from definitions with no shared code
paths: permutation scans, subset scans, the Kuratowski subdivision search and
plain BFS.  Slow on purpose.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from planarlab import LabeledGraph, ResourceLimitError, build_graph, is_planar
from planarlab._bits import edges_from_mask, pair_count, pairs_in_order

# below this many |H|-subsets the plain Python scan beats the vectorized one
_SUBSET_VECTOR_THRESHOLD = 512


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
    deg = g.degrees
    k = h.n
    degsum_target = 2 * h.m + 1
    root_degree = h.degrees[1] + 1
    count = 0
    for witness in combinations(range(1, g.n + 1), k):
        if deg[witness[0]] != root_degree:
            continue
        if sum(deg[v] for v in witness) != degsum_target:
            continue
        if relabeled_subgraph(g, witness).mask == h.mask:
            count += 1
    return count


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


def component_count_bfs(g: LabeledGraph) -> int:
    return len(components_bfs(g))


def degrees_from_edges(g: LabeledGraph) -> list[int]:
    """Degree of each vertex (index 0 unused), counted over the edge pairs."""
    deg = [0] * (g.n + 1)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


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
        assert palm.pre[p] < palm.pre[w] < palm.end[w] <= palm.end[p]
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
