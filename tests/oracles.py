"""Independent reference implementations used only to check the library.

Everything here is written directly from definitions with no shared code
paths: permutation scans, subset scans, and plain BFS.  Slow on purpose.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from planarlab import LabeledGraph, build_graph
from planarlab._bits import edges_from_mask, pair_count


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
    from planarlab import is_planar

    while True:
        g = random_graph(rng, n, m)
        if is_planar(g):
            return g
