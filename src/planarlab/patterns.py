"""Fixed-pattern machinery.

A pattern is a small connected planar graph H on {1..|H|} together with its
class (tree / unicyclic / multicyclic), automorphism count and the plan of
its injection search.  This module counts the structures the experiment
harness cares about: appearances of H (exactly-one-edge-out rooted
occurrences), components isomorphic to H, and subgraph copies of H.  All
searches run on the neighbour bitsets of ``LabeledGraph.adjacency``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from ._bits import bit_positions, edges_from_mask
from .errors import (
    DisconnectedPatternError,
    InvalidArgumentError,
    NonplanarPatternError,
    PatternError,
    PatternTooLargeError,
)
from .graphs import (
    LabeledGraph,
    bridges,
    build_graph,
    decode,
    encode,
    induced_subgraph,
    is_planar,
    kappa,
    reach,
)

PATTERN_MAX_ORDER = 16

# below this many |H|-subsets the plain Python scan beats the vectorized one
_SUBSET_VECTOR_THRESHOLD = 512


@dataclass(frozen=True)
class Pattern:
    """A validated fixed pattern with its classification and symmetry count."""

    h: LabeledGraph
    name: str
    klass: str  # "tree" | "unicyclic" | "multicyclic"
    aut_count: int
    # per step of the injection search, the earlier steps adjacent to it
    plan: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", _injection_plan(self.h))

    @property
    def size(self) -> int:
        return self.h.n

    @property
    def edge_count(self) -> int:
        return self.h.m


def make_pattern(h: LabeledGraph, name: str | None = None) -> Pattern:
    if h.n > PATTERN_MAX_ORDER:
        raise PatternTooLargeError(f"pattern order {h.n} exceeds {PATTERN_MAX_ORDER}")
    if kappa(h) != 1:
        raise DisconnectedPatternError("patterns must be connected")
    if not is_planar(h):
        raise NonplanarPatternError("patterns must be planar")
    if h.m == h.n - 1:
        klass = "tree"
    elif h.m == h.n:
        klass = "unicyclic"
    else:
        klass = "multicyclic"
    return Pattern(h, name if name is not None else encode(h), klass, automorphism_count(h))


# -- standard small graphs ----------------------------------------------------


def path_graph(k: int) -> LabeledGraph:
    return build_graph(k, [(i, i + 1) for i in range(1, k)])


def cycle_graph(k: int) -> LabeledGraph:
    if k < 3:
        raise PatternError("cycles need at least 3 vertices")
    return build_graph(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def star_graph(k: int) -> LabeledGraph:
    """Star on k vertices: center 1, leaves 2..k."""
    if k < 2:
        raise PatternError("stars need at least 2 vertices")
    return build_graph(k, [(1, j) for j in range(2, k + 1)])


def complete_graph(k: int) -> LabeledGraph:
    return build_graph(k, list(combinations(range(1, k + 1), 2)))


def pattern_from_name(text: str) -> Pattern:
    """Resolve a preset name (vertex, edge, triangle, k4, path<k>, cycle<k>,
    star<k>) or a raw "n:HEX" encoding into a Pattern."""
    raw = text.strip()
    if ":" in raw:
        g = decode(raw)
        return make_pattern(g)
    name = raw.lower()
    if name == "vertex":
        return make_pattern(build_graph(1, []), "vertex")
    if name == "edge":
        return make_pattern(path_graph(2), "edge")
    if name == "triangle":
        return make_pattern(cycle_graph(3), "triangle")
    if name == "k4":
        return make_pattern(complete_graph(4), "k4")
    for prefix, builder, least in (("path", path_graph, 1), ("cycle", cycle_graph, 3), ("star", star_graph, 2)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            k = int(name[len(prefix):])
            if k < least:
                raise PatternError(f"{prefix}{k} is not a valid pattern")
            return make_pattern(builder(k), name)
    raise PatternError(f"unknown pattern {text!r}")


# -- isomorphism ----------------------------------------------------------------


def _signatures(g: LabeledGraph) -> list[tuple]:
    deg = g.degrees
    adj = g.adjacency
    return [()] + [
        (deg[v], tuple(sorted(deg[w] for w in bit_positions(adj[v]))))
        for v in range(1, g.n + 1)
    ]


def _search_isomorphisms(g1: LabeledGraph, g2: LabeledGraph, count_all: bool) -> int:
    """Count edge-preserving bijections g1 -> g2 (stop at 1 unless count_all)."""
    if g1.n != g2.n or g1.m != g2.m:
        return 0
    n = g1.n
    sig1 = _signatures(g1)
    sig2 = _signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return 0
    pools = {v: [w for w in range(1, n + 1) if sig2[w] == sig1[v]] for v in range(1, n + 1)}

    # order: most constrained first, then stay adjacent to the mapped part
    order: list[int] = []
    placed = 0
    adj1 = g1.adjacency
    while len(order) < n:
        best = min(
            (v for v in range(1, n + 1) if not placed >> v & 1),
            key=lambda v: (-(adj1[v] & placed).bit_count(), len(pools[v]), v),
        )
        order.append(best)
        placed |= 1 << best

    adj2 = g2.adjacency
    image: dict[int, int] = {}

    def extend(i: int, used: int) -> int:
        if i == n:
            return 1
        v = order[i]
        row1 = adj1[v]
        found = 0
        for w in pools[v]:
            if used >> w & 1:
                continue
            row2 = adj2[w]
            if any(row1 >> u & 1 != row2 >> x & 1 for u, x in image.items()):
                continue
            image[v] = w
            found += extend(i + 1, used | 1 << w)
            del image[v]
            if found and not count_all:
                return found
        return found

    return extend(0, 0)


def isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """True iff an edge-preserving bijection between the graphs exists."""
    return _search_isomorphisms(g1, g2, count_all=False) > 0


def automorphism_count(h: LabeledGraph) -> int:
    return _search_isomorphisms(h, h, count_all=True)


# -- appearances -----------------------------------------------------------------


def appearance_witnesses(g: LabeledGraph, pattern: Pattern) -> list[tuple[int, ...]]:
    """Witness sets W of all appearances of the pattern, sorted.

    Bridge-driven: the unique edge leaving a witness set is a bridge, so only
    bridge sides of size |H| whose attachment vertex is the side's minimum
    need the labeled induced check: the increasing bijection {1..|H|} -> W
    must carry H onto g[W].
    """
    h = pattern.h
    if h.n >= g.n:
        raise PatternTooLargeError("appearances require |H| < n")
    adj = g.adjacency
    out: list[tuple[int, ...]] = []
    for u, v in sorted(bridges(g)):
        cut = list(adj)
        cut[u] &= ~(1 << v)
        cut[v] &= ~(1 << u)
        for a in (u, v):
            side = reach(cut, 1 << a)
            if side.bit_count() != h.n or side & -side != 1 << a:
                continue
            witness = bit_positions(side)
            if induced_subgraph(g, witness).mask == h.mask:
                out.append(tuple(witness))
    out.sort()
    return out


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
        if induced_subgraph(g, witness).mask == h.mask:
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


def count_appearances(g: LabeledGraph, pattern: Pattern, method: str = "bridge") -> int:
    """Number of sets W where the pattern appears in g.

    ``method`` chooses between the bridge-driven count and the brute-force
    scan over all |H|-subsets; the two must always agree.
    """
    h = pattern.h
    if h.n >= g.n:
        raise PatternTooLargeError("appearances require |H| < n")
    if method == "bridge":
        return len(appearance_witnesses(g, pattern))
    if method == "subset":
        if comb(g.n, h.n) < _SUBSET_VECTOR_THRESHOLD:
            return _count_appearances_subset_py(g, h)
        return _count_appearances_subset_np(g, h)
    raise InvalidArgumentError(f"unknown method {method!r}")


# -- components and copies ---------------------------------------------------------


def count_components_isomorphic(g: LabeledGraph, pattern: Pattern) -> int:
    """Components of g isomorphic to the pattern.  Only a component with
    |H| vertices and |E(H)| edges reaches the isomorphism search."""
    h = pattern.h
    count = 0
    for comp in g.component_masks:
        if comp.bit_count() != h.n:
            continue
        verts = bit_positions(comp)
        if sum(g.degree(v) for v in verts) != 2 * h.m:
            continue
        count += isomorphic(induced_subgraph(g, verts), h)
    return count


def _injection_plan(h: LabeledGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex order (max-degree first, then attached), as the earlier
    positions each step's vertex must be adjacent to."""
    adj = h.adjacency
    deg = h.degrees
    start = max(range(1, h.n + 1), key=lambda v: (deg[v], -v))
    order = [start]
    placed = 1 << start
    while len(order) < h.n:
        nxt = max(
            (v for v in range(1, h.n + 1) if not placed >> v & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), deg[v], -v),
        )
        order.append(nxt)
        placed |= 1 << nxt
    return tuple(tuple(j for j in range(i) if adj[v] >> order[j] & 1) for i, v in enumerate(order))


def _count_edge_injections(g: LabeledGraph, pattern: Pattern, early_exit: bool) -> int:
    """Edge-preserving injections H -> g; each step's candidates are the
    common neighbours of its already-mapped anchors, as a bitset."""
    plan = pattern.plan
    if len(plan) > g.n:
        return 0
    adj = g.adjacency
    everyone = (1 << (g.n + 1)) - 2
    image = [0] * len(plan)
    last = len(plan) - 1

    def extend(i: int, used: int) -> int:
        candidates = everyone & ~used
        for p in plan[i]:
            candidates &= adj[image[p]]
        if i == last:
            return candidates.bit_count()
        total = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            image[i] = low.bit_length() - 1
            total += extend(i + 1, used | low)
            if total and early_exit:
                return total
        return total

    return extend(0, 0)


def count_copies(g: LabeledGraph, pattern: Pattern) -> int:
    """Distinct subgraph copies: edge-preserving injections / |Aut(H)|."""
    return _count_edge_injections(g, pattern, early_exit=False) // pattern.aut_count


def has_copy(g: LabeledGraph, pattern: Pattern) -> bool:
    return _count_edge_injections(g, pattern, early_exit=True) > 0


def count_good_triangles(g: LabeledGraph) -> int:
    """Triangles with at least one vertex of degree <= 6 in g."""
    adj = g.adjacency
    low_degree = sum(1 << v for v in range(1, g.n + 1) if adj[v].bit_count() <= 6)
    count = 0
    for u, v in edges_from_mask(g.n, g.mask):
        apexes = adj[u] & adj[v] >> (v + 1) << (v + 1)  # third vertices above v
        if not (low_degree >> u | low_degree >> v) & 1:
            apexes &= low_degree
        count += apexes.bit_count()
    return count


def is_two_edge_connected(h: LabeledGraph) -> bool:
    return h.n >= 2 and kappa(h) == 1 and not bridges(h)
