"""Labeled-graph kernel.

Simple undirected graphs on the vertex set {1..n}, the element type of the
uniform classes this package enumerates and samples.  A graph is (n, mask),
bit s of the mask being the edge in slot s (``_bits``); statistics run on
neighbour bitsets built on first use (the components and the bridges are
kept the same way), and the edge pairs are derived on demand.  Components
are bitset flood fills (``reach``); bridges come from one breadth-first
spanning forest, walked leaves first.  The text encoding is the mask's bits
reversed, read off its hex digits.  Values are never modified once built
and are safe to share; every operation here is a pure function of its
inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ._bits import bit_positions, edges_from_mask, pair_count, pair_index, pairs_in_order
from .errors import (
    DuplicateEdgeError,
    LoopEdgeError,
    MalformedEncodingError,
    NotPlanarInputError,
    VertexOutOfRangeError,
)
from .planarity import is_planar_edges  # noqa: F401  (bench/tracing.py patches it here)
from .planarity import mask_planarity

Edge = tuple[int, int]

_ENCODING_RE = re.compile(r"\A(0|[1-9][0-9]*):([0-9A-F]*)\Z")


# Not frozen: the frozen __init__ costs three times as much per graph, and
# the class sweeps build hundreds of thousands.  Nothing assigns n or mask.
@dataclass(unsafe_hash=True, slots=True)
class LabeledGraph:
    """Simple graph on {1..n}; bit s of ``mask`` is the edge in slot s."""

    n: int
    mask: int
    _adj: tuple[int, ...] | None = field(default=None, init=False, compare=False)
    _comps: tuple[int, ...] | None = field(default=None, init=False, compare=False)
    _bridges: frozenset[Edge] | None = field(default=None, init=False, compare=False)

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    @property
    def edges(self) -> frozenset[Edge]:
        """Edges as sorted pairs (i, j), i < j."""
        return frozenset(edges_from_mask(self.n, self.mask))

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitsets indexed by vertex label; index 0 is 0."""
        adj = self._adj
        if adj is None:
            rows = [0] * (self.n + 1)
            pairs = pairs_in_order(self.n)
            mask = self.mask
            while mask:
                low = mask & -mask
                i, j = pairs[low.bit_length() - 1]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                mask ^= low
            adj = self._adj = tuple(rows)
        return adj

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple([row.bit_count() for row in self.adjacency])

    @property
    def component_masks(self) -> tuple[int, ...]:
        """Vertex bitsets of the components, by ascending minimum vertex."""
        comps = self._comps
        if comps is None:
            adj = self.adjacency
            rest = (1 << (self.n + 1)) - 2
            parts = []
            while rest:
                comp = reach(adj, rest & -rest)
                parts.append(comp)
                rest &= ~comp
            comps = self._comps = tuple(parts)
        return comps

    @property
    def component_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bit_positions(comp)) for comp in self.component_masks)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        n = self.n  # the slot of (u, v) is _bits.pair_index(n, u, v), inlined
        return 1 <= u < v <= n and self.mask >> ((u - 1) * (2 * n - u) // 2 + v - u - 1) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledGraph({encode(self)!r})"


def reach(adj, seeds: int) -> int:
    """Bitset of the vertices reachable from the seed bitset."""
    seen = frontier = seeds
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen


def build_graph(n: int, edge_list) -> LabeledGraph:
    """Validate and build a graph; rejects loops, duplicates, and bad labels."""
    if not isinstance(n, int) or n < 1:
        raise VertexOutOfRangeError(f"vertex count must be a positive integer, got {n!r}")
    mask = 0
    for i, j in edge_list:
        if i == j:
            raise LoopEdgeError(f"loop edge ({i}, {j})")
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise VertexOutOfRangeError(f"edge ({i}, {j}) outside 1..{n}")
        if i > j:
            i, j = j, i
        bit = 1 << pair_index(n, i, j)
        if mask & bit:
            raise DuplicateEdgeError(f"edge {(i, j)} supplied more than once")
        mask |= bit
    return LabeledGraph(n, mask)


def graph_from_mask(n: int, mask: int) -> LabeledGraph:
    """Internal fast constructor from a trusted edge mask."""
    return LabeledGraph(n, mask)


# -- canonical text encoding ---------------------------------------------------


# hex digit -> the digit with its four bits in reverse order
_NIBBLE_REVERSED = str.maketrans("0123456789ABCDEF", "084C2A6E195D3B7F")


def encode(g: LabeledGraph) -> str:
    """Render as "n:HEX": upper-triangle bits in slot order, right-padded to 4;
    the mask's hex digits in reverse order, each with its bits reversed."""
    width = (pair_count(g.n) + 3) // 4
    if not width:
        return f"{g.n}:"
    return f"{g.n}:{f'{g.mask:0{width}X}'[::-1].translate(_NIBBLE_REVERSED)}"


def decode(text: str) -> LabeledGraph:
    """Inverse of encode; rejects anything but the canonical form."""
    match = _ENCODING_RE.match(text)
    if match is None:
        raise MalformedEncodingError(f"bad syntax: {text!r}")
    n = int(match.group(1))
    if n < 1:
        raise MalformedEncodingError("vertex count must be positive")
    hexpart = match.group(2)
    slots = pair_count(n)
    width = (slots + 3) // 4
    if len(hexpart) != width:
        raise MalformedEncodingError(
            f"expected {width} hex digits for n={n}, got {len(hexpart)}"
        )
    mask = int(hexpart[::-1].translate(_NIBBLE_REVERSED), 16) if hexpart else 0
    if mask >> slots:  # the pad bits land above the last slot
        raise MalformedEncodingError("nonzero trailing pad bits")
    return LabeledGraph(n, mask)


# -- planarity ------------------------------------------------------------------


def is_planar(g: LabeledGraph) -> bool:
    """True iff g admits a plane embedding."""
    return bool(mask_planarity(g.n)(g.mask))


# -- connectivity ----------------------------------------------------------------


def components(g: LabeledGraph) -> list[frozenset[int]]:
    """Connected components, in ascending order of their minimum vertex."""
    return list(g.component_sets)


def kappa(g: LabeledGraph) -> int:
    """Number of connected components."""
    return len(g.component_masks)


def bridges(g: LabeledGraph) -> frozenset[Edge]:
    """Edges whose deletion increases the component count: the tree edges
    (p, v) of a breadth-first spanning forest whose subtree below v has no
    neighbour but p; breadth first, p has no other neighbour in that subtree."""
    if g._bridges is not None:
        return g._bridges
    adj = g.adjacency
    parent = [0] * (g.n + 1)
    inside = [0] * (g.n + 1)  # the subtrees of v's children
    around = [0] * (g.n + 1)  # the neighbours of those subtrees
    out = []
    rest = (1 << (g.n + 1)) - 2  # the vertices no tree has reached yet
    while rest:
        seen = rest & -rest  # the root; a tree stays inside its component
        tree = [seen.bit_length() - 1]
        for v in tree:  # breadth-first; the list grows while it is walked
            fresh = adj[v] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                w = low.bit_length() - 1
                parent[w] = v
                tree.append(w)
                fresh ^= low
        rest &= ~seen
        for v in reversed(tree[1:]):  # each vertex after all of its descendants
            p = parent[v]
            below = inside[v] | 1 << v  # the subtree below v, v included
            reached = around[v] | adj[v]  # and its neighbours
            if reached & ~below == 1 << p:  # p is the subtree's one neighbour
                out.append((p, v) if p < v else (v, p))
            inside[p] |= below
            around[p] |= reached
    g._bridges = frozenset(out)
    return g._bridges


def degree_histogram(g: LabeledGraph) -> "DegreeHistogram":
    counts: dict[int, int] = {}
    for d in g.degrees[1:]:
        counts[d] = counts.get(d, 0) + 1
    return DegreeHistogram(dict(sorted(counts.items())))


@dataclass
class DegreeHistogram:
    """Map degree -> number of vertices of that degree (zero entries omitted)."""

    counts: dict[int, int]

    def vertex_total(self) -> int:
        return sum(self.counts.values())

    def degree_sum(self) -> int:
        return sum(d * c for d, c in self.counts.items())

    def at_most(self, bound: int) -> int:
        return sum(c for d, c in self.counts.items() if d <= bound)


# -- addable non-edges -------------------------------------------------------------


def addable_nonedges(g: LabeledGraph) -> list[Edge]:
    """Non-edges e with g+e still planar, in lexicographic order.

    Each candidate is tested independently; adding one addable edge can
    destroy the addability of another, so no batching is possible.
    """
    n, mask = g.n, g.mask
    planar = mask_planarity(n)
    if not planar(mask):
        raise NotPlanarInputError("addable non-edges are defined for planar graphs")
    pairs = pairs_in_order(n)
    return [pairs[s] for s in range(len(pairs)) if not mask >> s & 1 and planar(mask | 1 << s)]


def add_count(g: LabeledGraph) -> int:
    return len(addable_nonedges(g))
