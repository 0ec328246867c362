"""Planarity decisions.

Two entry points: ``mask_planarity(n)`` is the test for edge masks on
{1..n}, and ``is_planar_edges(n, edges)`` the test for an edge list, whose
order the left-right test follows.  Behind them, three cooperating
mechanisms, all cross-checked in the test suite:

* trivial bounds: any graph with at most 8 edges or at most 4 vertices is
  planar; for n >= 3 more than 3n-6 edges is impossible in a planar graph;
* n <= 7: a lookup table over all edge masks, built once per n by marking
  the edge mask of every K5/K3,3 subdivision on {1..n} in one Python int
  and closing upward over supersets, one shift-and-or per vertex pair (a
  graph is non-planar exactly when it contains one of them);
* n >= 8: the left-right planarity test (Brandes 2009), run on each
  connected component with an edge, as two iterative DFS phases over an
  explicit path: the orientation, started at each such vertex no earlier
  orientation reached, finds the component and its lowpoints and nesting
  depths; the testing phase keeps a stack of conflict pairs.  Neither
  recurses, so any n works without touching the interpreter's recursion
  limit.  Oriented edges are integer ids, numbered per component in the
  order the orientation creates them: every per-edge value (tail, head,
  lowpoints, nesting depth, ref, lowpoint edge, stack bottom) is a list
  indexed by id, the tree edge into each vertex a list indexed by vertex,
  and a conflict pair is a 4-slot list [left low, left high, right low,
  right high] of edge ids, -1 where an interval has no edge.

The two phases are separate functions, so that a caller that decides many
graphs one edge swap apart can keep the orientation: a ``PalmTree`` holds
one, for a DFS tree of the caller's choosing, with edge ids running over
all components.  A DFS tree stays a palm tree (every non-tree edge joins an
ancestor to a descendant) when a back edge leaves and a pair that joins an
ancestor to a descendant comes in; ``PalmTree.swapped`` patches the
orientation for such a swap, recomputing lowpoints only on the two tree
paths to the root, and ``is_planar_edges(n, edges, palm)`` then runs only
the testing phase.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable

from ._bits import edges_from_mask, mask_from_edges, pair_count, pair_index

TABLE_MAX_N = 7

_K5_ORDER = 5
_K33_ORDER = 6

# a binary digit of the non-planar marks -> its table byte ("0" -> 1, planar)
_DIGIT_TO_PLANAR = bytes.maketrans(b"01", b"\x01\x00")


def is_planar_edges(n: int, edges: Iterable[tuple[int, int]], palm: PalmTree | None = None) -> bool:
    """Decide planarity of the simple graph on {1..n} with the given edges.
    ``palm``, if given, is a palm tree of that graph; the left-right test
    then runs only its testing phase."""
    edges = tuple(edges)
    m = len(edges)
    if n <= 4 or m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    if n <= TABLE_MAX_N:
        return planar_mask_table(n)[mask_from_edges(n, edges)] == 1
    return _left_right_planar(n, edges, palm)


@lru_cache(maxsize=None)
def mask_planarity(n: int) -> Callable[[int], bool]:
    """The planarity test for edge masks on {1..n}: a lookup in the n <= 7
    table (truthy byte), else the left-right test on the decoded edges."""
    if n <= TABLE_MAX_N:
        return planar_mask_table(n).__getitem__
    return lambda mask: is_planar_edges(n, edges_from_mask(n, mask))


# -- small-order tables -------------------------------------------------------


@lru_cache(maxsize=None)
def forbidden_subdivision_masks(n: int) -> tuple[int, ...]:
    """Edge masks of all K5 and K3,3 subdivisions on subsets of {1..n}.  Each
    connection (u, v) of branch vertices becomes a path u - d1 - ... - dk - v
    whose internal vertices are distinct other vertices, not all used."""
    verts = range(1, n + 1)
    models = [(branch, tuple(combinations(branch, 2))) for branch in combinations(verts, _K5_ORDER)]
    for branch in combinations(verts, _K33_ORDER):
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
def planar_mask_table(n: int) -> bytes:
    """byte[mask] == 1 iff the graph on {1..n} with that edge mask is planar."""
    if n > TABLE_MAX_N:
        raise ValueError(f"table limited to n <= {TABLE_MAX_N}")
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
    return format(x, f"0{size}b").encode("ascii").translate(_DIGIT_TO_PLANAR)


# -- left-right test ----------------------------------------------------------


def _left_right_planar(n: int, edges, palm: PalmTree | None = None) -> bool:
    if palm is not None:
        return palm.planar()
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for neighbours in adj:
        neighbours.sort()
    # By vertex, allocated once and shared by the components: the height (-1
    # until the orientation reaches the vertex), the id of the tree edge into
    # it (-1 at a root), its oriented edges out, and the next position in
    # adj (orientation) or out (testing).
    height = [-1] * (n + 1)
    parent = [-1] * (n + 1)
    out = [[] for _ in range(n + 1)]
    nxt = [0] * (n + 1)
    return all(height[root] >= 0 or not adj[root]
               or _component_planar(adj, height, parent, out, nxt, root)
               for root in range(1, n + 1))


def _component_planar(adj, height, parent, out, nxt, root) -> bool:
    """Left-right criterion on the component of ``root``, which the
    orientation finds; the ids of its oriented edges start at 0."""
    src, dst, lowpt, lowpt2 = [], [], [], []
    reached = _orient(adj, height, parent, out, nxt, root, src, dst, lowpt, lowpt2)
    m = len(src)
    if m <= 8:
        return True
    if m > 3 * len(reached) - 6:  # 9 or more edges span at least 5 vertices
        return False
    _nest(out, reached, height, src, lowpt, lowpt2)
    return _testing(out, nxt, height, parent, src, dst, lowpt, root)


class PalmTree:
    """A DFS palm tree of a graph on {1..n} with its left-right orientation,
    ready for the testing phase: heights, tree edge into each vertex (-1 at
    a root), per-edge tail, head, lowpoints and nesting depth, and each
    vertex's edges out sorted by nesting depth.  ``pre`` and ``end`` number
    the vertices in preorder (-1 where no edge reaches), v's subtree being
    the numbers pre[v] .. end[v] - 1, so the ancestor test costs two
    comparisons.  Edge ids run over all components."""

    def __init__(self, n: int, adj) -> None:
        """The palm tree that the orientation DFS finds when it starts at each
        vertex with an edge that no earlier start reached and scans the
        neighbour lists ``adj`` in order."""
        self.height = height = [-1] * (n + 1)
        self.parent = parent = [-1] * (n + 1)
        self.out = out = [[] for _ in range(n + 1)]
        nxt = [0] * (n + 1)
        self.src, self.dst, self.lowpt, self.lowpt2 = src, dst, lowpt, lowpt2 = [], [], [], []
        self.roots = []
        order = []  # preorder
        for root in range(1, n + 1):
            if height[root] < 0 and adj[root]:
                self.roots.append(root)
                order += _orient(adj, height, parent, out, nxt, root, src, dst, lowpt, lowpt2)
        self.depth = _nest(out, order, height, src, lowpt, lowpt2)
        self.pre = pre = [-1] * (n + 1)
        self.end = end = [-1] * (n + 1)
        for i, v in enumerate(order):
            pre[v], end[v] = i, i + 1
        for v in reversed(order):
            e = parent[v]
            if e >= 0 and end[v] > end[src[e]]:
                end[src[e]] = end[v]

    def swapped(self, removed: tuple[int, int], added: tuple[int, int]) -> PalmTree | None:
        """This tree for the graph less the edge ``removed`` plus the pair
        ``added``, or None unless ``removed`` is a back edge and ``added``
        joins an ancestor to a descendant.  Then the tree is still a palm
        tree, ``added`` takes the id of ``removed``, and only the lowpoints
        on the tree paths from the two tails to the root can change: they
        are recomputed bottom-up until one stays, and only the edge lists
        whose nesting depths moved are sorted again.  This tree is left as
        it was."""
        height, parent, src, dst = self.height, self.parent, self.src, self.dst
        x, y = removed
        if height[x] < height[y]:
            x, y = y, x
        if src[parent[x]] == y:  # a tree edge
            return None
        d, a = added
        if height[d] < height[a]:
            d, a = a, d
        if not self.pre[a] < self.pre[d] < self.end[a]:
            return None
        out = self.out[:]
        [eid] = [e for e in out[x] if dst[e] == y]
        out[x] = [e for e in out[x] if e != eid]
        out[d] = out[d] + [eid]
        new = copy.copy(self)
        new.out = out
        new.src, new.dst = src, dst = src[:], dst[:]
        new.lowpt, new.lowpt2, new.depth = lowpt, lowpt2, depth = (
            self.lowpt[:], self.lowpt2[:], self.depth[:])
        src[eid], dst[eid] = d, a
        lowpt[eid], lowpt2[eid], depth[eid] = height[a], height[d], 2 * height[a]
        resort = {d}
        for w in x, d:
            e = parent[w]
            while e >= 0:  # recompute the lowpoints of e, the tree edge into w
                v = src[e]
                hv = height[v]
                low = low2 = hv
                for o in out[w]:
                    lo, lo2 = lowpt[o], lowpt2[o]
                    if lo < low:
                        low2 = low if low < lo2 else lo2
                        low = lo
                    elif lo > low:
                        if lo < low2:
                            low2 = lo
                    elif lo2 < low2:
                        low2 = lo2
                if low == lowpt[e] and low2 == lowpt2[e]:
                    break
                lowpt[e], lowpt2[e] = low, low2
                nesting = 2 * low + (low2 < hv)
                if nesting != depth[e]:
                    depth[e] = nesting
                    resort.add(v)
                w, e = v, parent[v]
        for v in resort:
            out[v] = sorted(out[v], key=depth.__getitem__)
        return new

    def planar(self) -> bool:
        """The testing phase on every component."""
        nxt = [0] * len(self.height)
        return all(_testing(self.out, nxt, self.height, self.parent, self.src, self.dst,
                            self.lowpt, root) for root in self.roots)


def _orient(adj, height, parent, out, nxt, root, src, dst, lowpt, lowpt2) -> list[int]:
    """Orientation of the component of ``root``: tree edges point away from
    root, back edges towards it.  New edges are appended to the per-edge
    lists, so their ids continue from the lists' length.  Returns the
    vertices reached, in preorder."""
    height[root] = 0
    reached = [root]
    path = [root]
    while path:
        v = path[-1]
        hv = height[v]
        i = nxt[v]
        if i < len(adj[v]):
            w = adj[v][i]
            nxt[v] = i + 1
            hw = height[w]
            if hw < 0:  # tree edge: finished when w is
                parent[w] = len(src)
                out[v].append(len(src))
                src.append(v)
                dst.append(w)
                lowpt.append(hv)
                lowpt2.append(hv)
                height[w] = hv + 1
                reached.append(w)
                path.append(w)
                continue
            if hw >= hv - 1:  # the edge to v's parent, or oriented from below
                continue
            vw = len(src)  # back edge
            out[v].append(vw)
            src.append(v)
            dst.append(w)
            lowpt.append(hw)
            lowpt2.append(hv)
        else:
            path.pop()
            vw = parent[v]
            if vw < 0:
                break
            v = src[vw]
        # vw leaves v and its lowpoints are final
        e = parent[v]
        if e >= 0:
            low, low2, le = lowpt[vw], lowpt2[vw], lowpt[e]
            if low < le:
                lowpt2[e] = le if le < low2 else low2
                lowpt[e] = low
            elif low > le:
                if low < lowpt2[e]:
                    lowpt2[e] = low
            elif low2 < lowpt2[e]:
                lowpt2[e] = low2
    return reached


def _nest(out, reached, height, src, lowpt, lowpt2) -> list[int]:
    """Sort the edges out of each reached vertex by nesting depth: twice the
    lowpoint, +1 if chordal.  Returns the depths."""
    depth = [2 * low + (low2 < height[v]) for v, low, low2 in zip(src, lowpt, lowpt2)]
    for v in reached:
        out[v].sort(key=depth.__getitem__)
    return depth


def _testing(out, nxt, height, parent, src, dst, lowpt, root) -> bool:
    """The testing phase on the oriented component of ``root``: a stack S of
    conflict pairs over the return edges seen so far, each [left low, left
    high, right low, right high] with -1 for none."""
    m = len(src)
    S = []
    ref = [-1] * m
    lowpt_edge = list(range(m))  # final for back edges; tree edges copy a child's
    stack_bottom = [None] * m
    nxt[root] = 0
    path = [root]
    while path:
        v = path[-1]
        i = nxt[v]
        if i < len(out[v]):
            ei = out[v][i]
            stack_bottom[ei] = S[-1] if S else None
            w = dst[ei]
            if ei == parent[w]:  # tree edge: finished when w is
                nxt[w] = 0
                path.append(w)
                continue
            S.append([-1, -1, ei, ei])  # back edge
        else:
            path.pop()
            ei = parent[v]
            if ei < 0:
                break
            v = src[ei]
            i = nxt[v]
            # trim the back edges that return to v
            hv = height[v]
            while S:
                ll, _, rl, _ = S[-1]
                if ll < 0:
                    lowest = lowpt[rl] if rl >= 0 else -1
                else:
                    lowest = lowpt[ll] if rl < 0 or lowpt[ll] < lowpt[rl] else lowpt[rl]
                if lowest != hv:
                    break
                S.pop()
            if S:
                top = S[-1]
                for high, low, other_low in (1, 0, 2), (3, 2, 0):  # left, then right
                    while top[high] >= 0 and dst[top[high]] == v:
                        top[high] = ref[top[high]]
                    if top[high] < 0 and top[low] >= 0:
                        ref[top[low]] = top[other_low]
                        top[low] = -1
                if lowpt[ei] < hv:  # ei has a return edge
                    hl, hr = top[1], top[3]
                    ref[ei] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr
        # ei is the i-th edge out of v and its subtree, if any, is done
        nxt[v] = i + 1
        lo = lowpt[ei]
        if lo >= height[v]:  # no return edge, as at the root
            continue
        e = parent[v]
        if i == 0:
            lowpt_edge[e] = lowpt_edge[ei]
            continue
        # add constraints of ei: merge its return edges into the right side of
        # a new pair P ...
        pl = plh = pr = prh = -1
        bottom = stack_bottom[ei]
        low_e = lowpt[e]
        while True:
            ql, qlh, qr, qrh = S.pop()
            if ql >= 0 or qlh >= 0:
                ql, qlh, qr, qrh = qr, qrh, ql, qlh
                if ql >= 0 or qlh >= 0:
                    return False
            if lowpt[qr] > low_e:
                if pr < 0:
                    prh = qrh
                else:
                    ref[pr] = qrh
                pr = qr
            else:  # align
                ref[qr] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # ... and into its left side the return edges of earlier siblings that
        # conflict with ei, those returning above lowpt[ei]
        while S:
            ql, qlh, qr, qrh = S[-1]
            if not (qlh >= 0 and lowpt[qlh] > lo or qrh >= 0 and lowpt[qrh] > lo):
                break
            S.pop()
            if qrh >= 0 and lowpt[qrh] > lo:
                ql, qlh, qr, qrh = qr, qrh, ql, qlh
                if qrh >= 0 and lowpt[qrh] > lo:
                    return False
            if pr >= 0:  # a side without a low edge has no ref to set
                ref[pr] = qrh
            if qr >= 0:
                pr = qr
            if pl >= 0:
                ref[pl] = qlh
            elif plh < 0:
                plh = qlh
            pl = ql
        if pl >= 0 or plh >= 0 or pr >= 0 or prh >= 0:
            S.append([pl, plh, pr, prh])
    return True
