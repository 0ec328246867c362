"""Labeled-graph kernel.

Simple undirected graphs on the vertex set {1..n}, the element type of the
uniform classes this package enumerates and samples.  A graph is (n, mask),
bit s of the mask being the edge in slot s (``_bits``); statistics run on
neighbour bitsets read off the mask's rows on first use, and the edge pairs
are derived on demand.  One breadth-first spanning forest, walked once per
graph, gives the components (its trees) and decides on the way whether any
edge is a bridge; only when one may be is it walked again, leaves first, for
the bridges and the two sides of each.  All of it is kept on the graph, so
the checks and searches that share it pay once.  The text encoding is the
mask's bits reversed, read off its hex digits; ``encode_mask`` and
``mask_from_digits`` write and read it for a bare mask, so census lines
never become graphs.  Values are never modified once built and are safe to
share; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ._bits import bit_positions, edges_from_mask, pair_count, pair_index
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
    _forest: tuple | None = field(default=None, init=False, compare=False)
    _sides: tuple | None = field(default=None, init=False, compare=False)

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    @property
    def edges(self) -> frozenset[Edge]:
        """Edges as sorted pairs (i, j), i < j."""
        return frozenset(edges_from_mask(self.n, self.mask))

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitsets indexed by vertex label; index 0 is 0.  Row i of
        the mask, the n - i slots of (i, i+1) .. (i, n), is i's upper row."""
        adj = self._adj
        if adj is None:
            n, rest = self.n, self.mask
            rows = [0] * (n + 1)
            i = 1
            while rest:
                up = rest & ((1 << (n - i)) - 1)
                rest >>= n - i
                rows[i] |= up << (i + 1)
                while up:  # and i is in the lower row of each upper neighbour
                    low = up & -up
                    rows[i + low.bit_length()] |= 1 << i
                    up ^= low
                i += 1
            adj = self._adj = tuple(rows)
        return adj

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple([row.bit_count() for row in self.adjacency])

    @property
    def component_masks(self) -> tuple[int, ...]:
        """Vertex bitsets of the components, by ascending minimum vertex: the
        trees of ``spanning_forest``."""
        return spanning_forest(self)[0]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return 1 <= u < v <= self.n and self.mask >> pair_index(self.n, u, v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledGraph({encode(self)!r})"


def spanning_forest(g: LabeledGraph) -> tuple[tuple[int, ...], list[list[int]], bool]:
    """The breadth-first spanning forest, walked once per graph and kept on
    it: (the vertex bitset of each tree, each tree's layers as bitsets,
    whether no edge is a bridge), one tree per component, rooted at its
    minimum vertex, by ascending root.  The parent of a vertex is its
    smallest neighbour in the layer above.  No edge is a bridge when each
    vertex but the roots has a second neighbour in its own layer or the one
    above: those lie outside its subtree, so each tree edge closes a cycle.
    The walk checks that as it goes, until it first fails."""
    forest = g._forest
    if forest is None:
        adj = g.adjacency
        comps, layered = [], []
        bridgeless = True
        rest = (1 << (g.n + 1)) - 2  # the vertices no tree has reached yet
        while rest:
            seen = layer = rest & -rest  # the root
            layers = [layer]
            reached = adj[layer.bit_length() - 1]
            while layer := reached & ~seen:
                seen |= layer
                near = layers[-1] | layer
                layers.append(layer)
                reached = 0
                while layer:
                    low = layer & -layer
                    row = adj[low.bit_length() - 1]
                    reached |= row
                    if bridgeless:  # until a vertex has one neighbour near
                        row &= near
                        bridgeless = row & (row - 1) != 0
                    layer ^= low
            rest &= ~seen
            comps.append(seen)
            layered.append(layers)
        forest = g._forest = (tuple(comps), layered, bridgeless)
    return forest


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
    return encode_mask(g.n, g.mask)


def encode_mask(n: int, mask: int) -> str:
    """``encode`` of the graph (n, mask), built from the mask alone."""
    width = (pair_count(n) + 3) // 4
    if not width:  # n = 1: no slot, no digit
        return f"{n}:"
    return f"{n}:{f'{mask:0{width}X}'[::-1].translate(_NIBBLE_REVERSED)}"


def mask_from_digits(digits: str) -> int:
    """The mask whose encoding has these uppercase hex digits."""
    return int(digits[::-1].translate(_NIBBLE_REVERSED), 16) if digits else 0


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
    mask = mask_from_digits(hexpart)
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
    return [frozenset(bit_positions(comp)) for comp in g.component_masks]


def kappa(g: LabeledGraph) -> int:
    """Number of connected components."""
    return len(g.component_masks)


def bridges(g: LabeledGraph) -> frozenset[Edge]:
    """Edges whose deletion increases the component count."""
    return bridge_sides(g)[0]


def bridge_sides(g: LabeledGraph) -> tuple[frozenset[Edge], tuple[tuple[Edge, int, int], ...]]:
    """(the bridges, ((u, v), side of u, side of v) of each bridge (u, v) by
    ascending edge), kept on the graph; a side is the vertex bitset left with
    that end.  A bridge is a tree edge (p, v) of ``spanning_forest`` whose
    subtree below v has no neighbour but p (breadth first, p has no other
    neighbour there); its sides are that subtree and the rest of the tree.
    The forest is walked again, leaves first, only when its own walk did not
    find every edge on a cycle."""
    found = g._sides
    if found is None:
        comps, layered, bridgeless = spanning_forest(g)
        out = []
        if not bridgeless:
            adj = g.adjacency
            inside = [0] * (g.n + 1)  # the subtrees of v's children
            around = [0] * (g.n + 1)  # the neighbours of those subtrees
            for comp, layers in zip(comps, layered):
                for d in range(len(layers) - 1, 0, -1):  # each vertex after its descendants
                    layer = layers[d]
                    while layer:
                        low = layer & -layer
                        layer ^= low
                        v = low.bit_length() - 1
                        up = adj[v] & layers[d - 1]
                        up &= -up  # the parent
                        p = up.bit_length() - 1
                        below = inside[v] | low  # the subtree below v, v included
                        reached = around[v] | adj[v]  # and its neighbours
                        if reached & ~below == up:  # p is the subtree's one neighbour
                            rest = comp & ~below
                            out.append(((p, v), rest, below) if p < v else ((v, p), below, rest))
                        inside[p] |= below
                        around[p] |= reached
            out.sort()
        found = g._sides = (frozenset([edge for edge, _, _ in out]), tuple(out))
    return found


def degree_histogram(g: LabeledGraph) -> dict[int, int]:
    """Degree -> number of vertices of that degree, ascending; no zero counts."""
    counts: dict[int, int] = {}
    for d in g.degrees[1:]:
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


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
    addable = 0
    free = ~mask & ((1 << pair_count(n)) - 1)  # the non-edges
    while free:
        low = free & -free
        free ^= low
        if planar(mask | low):
            addable |= low
    return list(edges_from_mask(n, addable))


def add_count(g: LabeledGraph) -> int:
    return len(addable_nonedges(g))
