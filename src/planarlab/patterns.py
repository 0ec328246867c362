"""Fixed-pattern machinery.

A pattern is a small connected planar graph H on {1..|H|} together with its
class (tree / unicyclic / multicyclic), automorphism count and the plan of
its injection search.  This module counts the structures the experiment
harness cares about: appearances of H (exactly-one-edge-out rooted
occurrences), components isomorphic to H, and subgraph copies of H.  One
search answers every question about a copy of one graph in another: the
injection search over the neighbour bitsets of ``LabeledGraph.adjacency``.
Isomorphism, automorphisms and isomorphic components are injections between
graphs (``isomorphic``: between paired components) with as many vertices and
edges, since a bijection that preserves edges between graphs with equal edge
counts is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from ._bits import bit_positions, edges_from_mask
from .errors import (
    DisconnectedPatternError,
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


# -- the injection search ------------------------------------------------------


def _injection_plan(h: LabeledGraph, within: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Vertex order of h or of its components ``within`` (max-degree first, then
    attached), as the earlier positions each step's vertex must be adjacent to."""
    adj = h.adjacency
    deg = h.degrees
    verts = bit_positions((1 << (h.n + 1)) - 2 if within is None else within)
    start = max(verts, key=lambda v: (deg[v], -v))
    order = [start]
    placed = 1 << start
    while len(order) < len(verts):
        nxt = max(
            (v for v in verts if not placed >> v & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), deg[v], -v),
        )
        order.append(nxt)
        placed |= 1 << nxt
    return tuple(tuple(j for j in range(i) if adj[v] >> order[j] & 1) for i, v in enumerate(order))


def _count_edge_injections(
    g: LabeledGraph, plan: tuple[tuple[int, ...], ...], early_exit: bool, within: int | None = None
) -> int:
    """Edge-preserving injections of the planned graph H into g, or into the
    vertex bitset ``within`` of g; each step's candidates are the common
    neighbours of its already-mapped anchors, as a bitset."""
    if len(plan) > g.n:
        return 0
    adj = g.adjacency
    everyone = (1 << (g.n + 1)) - 2 if within is None else within
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


def _shape(g: LabeledGraph, comp: int) -> tuple[int, int]:
    """(vertices, degree sum) of the vertex bitset comp of g."""
    adj = g.adjacency
    return comp.bit_count(), sum(adj[v].bit_count() for v in bit_positions(comp))


def isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """True iff an edge-preserving bijection between the graphs exists.  Each
    component of g2 is paired with an unpaired one of g1 of its shape that it
    injects into, so no search backtracks over another component's place."""
    unpaired = {c: _shape(g1, c) for c in g1.component_masks}
    for comp in g2.component_masks:
        plan, shape = _injection_plan(g2, comp), _shape(g2, comp)
        pair = next((c for c, s in unpaired.items() if s == shape
                     and _count_edge_injections(g1, plan, early_exit=True, within=c)), None)
        if pair is None:
            return False
        del unpaired[pair]
    return not unpaired


def automorphism_count(h: LabeledGraph) -> int:
    return _count_edge_injections(h, _injection_plan(h), early_exit=False)


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


def count_appearances(g: LabeledGraph, pattern: Pattern) -> int:
    """Number of sets W where the pattern appears in g."""
    return len(appearance_witnesses(g, pattern))


# -- components and copies ---------------------------------------------------------


def count_components_isomorphic(g: LabeledGraph, pattern: Pattern) -> int:
    """Components of g isomorphic to the pattern.  A component with |H|
    vertices and |E(H)| edges is one iff H injects into it."""
    h = pattern.h
    count = 0
    for comp in g.component_masks:
        if comp.bit_count() == h.n and _shape(g, comp)[1] == 2 * h.m:
            count += _count_edge_injections(g, pattern.plan, early_exit=True, within=comp) > 0
    return count


def count_copies(g: LabeledGraph, pattern: Pattern) -> int:
    """Distinct subgraph copies: edge-preserving injections / |Aut(H)|."""
    return _count_edge_injections(g, pattern.plan, early_exit=False) // pattern.aut_count


def has_copy(g: LabeledGraph, pattern: Pattern) -> bool:
    return _count_edge_injections(g, pattern.plan, early_exit=True) > 0


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
