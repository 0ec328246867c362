"""Fixed-pattern machinery.

A pattern is a small connected planar graph H on {1..|H|} together with its
class (tree / unicyclic / multicyclic), automorphism count, whether it is
2-edge-connected and the plan of its injection search, each computed once
when it is built.  This module counts the structures the experiment harness
cares about: appearances of H (exactly-one-edge-out rooted occurrences),
components isomorphic to H, and subgraph copies of H.  One
search answers every question about a copy of one graph in another: the
injection search over the neighbour bitsets of ``LabeledGraph.adjacency``.
Isomorphism, automorphisms and isomorphic components are injections between
graphs (``isomorphic``: between paired components) with as many vertices and
edges, since a bijection that preserves edges between graphs with equal edge
counts is an isomorphism.  Automorphisms are counted by orbit and stabiliser,
never one by one: along one branch of the search, |Aut H| is the product over
the steps of the images each step's vertex can take once the earlier steps
are fixed, each image found by one early-exit search.  One rule places an
appearance: H appears at a bridge side W with |H| vertices exactly when W's
labels, in increasing order, are an allowed order of W, an isomorphism from H
onto g[W] that sends vertex 1 to the attachment vertex, grown by ``_fits``.
The labeled witnesses test that one order; the exact law lists them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from ._bits import bit_positions
from .errors import (
    DisconnectedPatternError,
    NonplanarPatternError,
    PatternError,
    PatternTooLargeError,
)
from .graphs import (
    LabeledGraph,
    bridge_sides,
    bridges,
    build_graph,
    decode,
    encode,
    is_planar,
    kappa,
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
    # whether H is 2-edge-connected, as the disjointness check requires
    two_edge_connected: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", _injection_plan(self.h))
        object.__setattr__(self, "two_edge_connected", is_two_edge_connected(self.h))

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
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isdecimal():
            # judged on the digits: a big preset takes seconds to build; int() fails past 4,300
            order = digits.lstrip("0") or "0"
            if len(order) > len(str(PATTERN_MAX_ORDER)) or int(order) > PATTERN_MAX_ORDER:
                raise PatternTooLargeError(f"pattern order {order} exceeds {PATTERN_MAX_ORDER}")
            k = int(order)
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
    g: LabeledGraph, plan: tuple[tuple[int, ...], ...], early_exit: bool,
    within: int | None = None, prefix: tuple[int, ...] = (),
) -> int:
    """Edge-preserving injections of the planned graph H into g, or into the
    vertex bitset ``within`` of g, that send the first steps to ``prefix``
    (shorter than the plan); each step's candidates are the common neighbours
    of its already-mapped anchors, as a bitset."""
    if len(plan) > g.n:
        return 0
    adj = g.adjacency
    everyone = (1 << (g.n + 1)) - 2 if within is None else within
    image = list(prefix) + [0] * (len(plan) - len(prefix))
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

    return extend(len(prefix), sum(1 << v for v in prefix))


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
    """|Aut h| by orbit and stabiliser: the product, over the plan's steps, of
    the images that step's vertex can take with the earlier steps fixed."""
    plan = _injection_plan(h)
    image: list[int] = []
    count = 1
    for anchors in plan:
        candidates = (1 << (h.n + 1)) - 2 - sum(1 << v for v in image)
        for p in anchors:
            candidates &= h.adjacency[image[p]]
        images = [w for w in bit_positions(candidates) if len(image) + 1 == len(plan)
                  or _count_edge_injections(h, plan, early_exit=True, prefix=(*image, w))]
        count *= len(images)
        image.append(images[0])
    return count


# -- appearances -----------------------------------------------------------------


def _pendant_sides(g: LabeledGraph, size: int) -> list[tuple[int, int]]:
    """(vertex bitset, attachment vertex) of every set of ``size`` vertices
    that one edge, a bridge at the attachment vertex, joins to the rest."""
    out = []
    for (u, v), side_u, side_v in bridge_sides(g)[1]:
        if side_u.bit_count() == size:
            out.append((side_u, u))
        if side_v.bit_count() == size:
            out.append((side_v, v))
    return out


def appearance_witnesses(g: LabeledGraph, pattern: Pattern) -> list[tuple[int, ...]]:
    """Witness sets W of all appearances of the pattern, sorted: the bridge
    sides W of size |H| whose labels, in increasing order, are an allowed
    order of W (module docstring), so W's minimum is the attachment vertex.
    Only that one order is tested, prefix by prefix.  A pattern with
    |H| >= n has no appearance: a bridge side has fewer than n vertices."""
    h = pattern.h
    out = []
    for side, a in _pendant_sides(g, h.n):
        if side & -side == 1 << a:
            w = bit_positions(side)
            if all(_fits(g.adjacency, h.adjacency, w[:i], w[i]) for i in range(1, h.n)):
                out.append(tuple(w))
    return sorted(out)


def appearance_law(g: LabeledGraph, pattern: Pattern) -> list[Fraction]:
    """law[k]: the probability that g, relabeled uniformly at random, has
    exactly k appearances of the pattern.  Appearances depend on the labels,
    by the allowed orders of each bridge side (module docstring).  Sides that
    share no vertex hold independently; overlapping sides are taken together,
    over the orders of their union.  Two overlapping sides of one size cover
    their component, so a union has fewer than 2|H| vertices.  A pattern
    with |H| >= n has no side to take, so the law is [1]."""
    h = pattern.h
    sides = [(side, _allowed_orders(g, h, side, a)) for side, a in _pendant_sides(g, h.n)]
    clusters: list[list[tuple[int, set]]] = []
    for side in sides:
        joined = [c for c in clusters if any(side[0] & other for other, _ in c)]
        clusters = [c for c in clusters if c not in joined] + [sum(joined, [side])]
    law = [Fraction(1)]
    for cluster in clusters:
        part = _cluster_law(cluster)
        law = [sum(law[i] * part[k - i] for i in range(len(law)) if 0 <= k - i < len(part))
               for k in range(len(law) + len(part) - 1)]
    return law


def _allowed_orders(g: LabeledGraph, h: LabeledGraph, side: int, a: int) -> set:
    """Vertex sequences of the side, isomorphisms from h onto g[side] with
    vertex 1 sent to the attachment vertex a."""
    adj, hadj = g.adjacency, h.adjacency
    out = set()

    def extend(image: list[int], free: int) -> None:
        if len(image) == h.n:
            out.add(tuple(image))
            return
        for w in bit_positions(free):
            if _fits(adj, hadj, image, w):
                extend(image + [w], free & ~(1 << w))

    extend([a], side & ~(1 << a))
    return out


def _fits(adj: list[int], hadj: list[int], image: list[int], w: int) -> bool:
    """Whether vertex len(image) + 1 of h, sent to w, extends the partial
    isomorphism image: w is joined to image[j - 1] exactly when it is to j."""
    i = len(image) + 1
    return all((adj[w] >> image[j - 1] ^ hadj[i] >> j) & 1 == 0 for j in range(1, i))


def _cluster_law(cluster) -> list[Fraction]:
    """The law of the number of allowed sides of one cluster under a uniform
    order of its vertices.  An order counts for the first side it allows, and
    is built from that side's allowed order with the other vertices inserted."""
    union = 0
    for side, _ in cluster:
        union |= side
    size = union.bit_count()
    tally = [0] * (len(cluster) + 1)
    for first, (side, allowed) in enumerate(cluster):
        rest = bit_positions(union & ~side)
        for order in allowed:
            for spots in combinations(range(size), len(rest)):
                for inserted in permutations(rest):
                    full, it, ins = [], iter(order), iter(inserted)
                    for pos in range(size):
                        full.append(next(ins) if pos in spots else next(it))
                    hits = [tuple(v for v in full if s >> v & 1) in ok for s, ok in cluster]
                    if not any(hits[:first]):
                        tally[sum(hits)] += 1
    tally[0] = factorial(size) - sum(tally)
    return [Fraction(t, factorial(size)) for t in tally]


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
    """Triangles with at least one vertex of degree <= 6 in g, each counted
    at its edge (u, v) of its two smallest vertices."""
    adj = g.adjacency
    low_degree = sum(1 << v for v in range(1, g.n + 1) if adj[v].bit_count() <= 6)
    count = 0
    for u in range(1, g.n + 1):
        above = adj[u] >> (u + 1) << (u + 1)  # u's neighbours above u, then above v
        while above:
            low = above & -above
            above ^= low
            apexes = above & adj[low.bit_length() - 1]  # third vertices above v
            if not (low_degree >> u & 1 or low_degree & low):
                apexes &= low_degree
            count += apexes.bit_count()
    return count


def is_two_edge_connected(h: LabeledGraph) -> bool:
    return h.n >= 2 and kappa(h) == 1 and not bridges(h)
