"""Planarity decisions.

Two entry points: ``mask_planarity(n)`` is the test for edge masks on
{1..n}, and ``is_planar_edges(n, edges)`` the test for an edge list, whose
order the left-right test follows.  Behind them, three cooperating
mechanisms, all cross-checked in the test suite:

* trivial bounds: any graph with at most 8 edges or at most 4 vertices is
  planar; for n >= 3 more than 3n-6 edges is impossible in a planar graph;
* n <= 7: a lookup table over all edge masks, built once per n by marking
  every K5/K3,3 subdivision edge-set on {1..n} and closing upward over
  supersets (a graph is non-planar exactly when it contains one of them);
* n >= 8: the left-right planarity test (Brandes 2009), run on each
  connected component as two iterative DFS phases over an explicit path:
  the orientation, started at each vertex no earlier orientation reached,
  finds the component and its lowpoints and nesting depths; the testing
  phase keeps a stack of conflict pairs.  Neither recurses, so any n works
  without touching the interpreter's recursion limit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable

import numpy as np

from ._bits import edges_from_mask, mask_from_edges, pair_count

TABLE_MAX_N = 7

_K5_ORDER = 5
_K33_ORDER = 6


def is_planar_edges(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Decide planarity of the simple graph on {1..n} with the given edges."""
    edges = tuple(edges)
    m = len(edges)
    if n <= 4 or m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    if n <= TABLE_MAX_N:
        return planar_mask_table(n)[mask_from_edges(n, edges)] == 1
    return _left_right_planar(n, edges)


@lru_cache(maxsize=None)
def mask_planarity(n: int) -> Callable[[int], bool]:
    """The planarity test for edge masks on {1..n}: a lookup in the n <= 7
    table (truthy byte), else the left-right test on the decoded edges."""
    if n <= TABLE_MAX_N:
        return planar_mask_table(n).__getitem__
    return lambda mask: is_planar_edges(n, edges_from_mask(n, mask))


# -- small-order tables -------------------------------------------------------


def _subdivision_edge_sets(connections, spares):
    """Edge sets of every subdivision of the given connection list.

    Each connection (u, v) becomes a path u - d1 - ... - dk - v whose
    internal vertices are drawn (ordered, without reuse) from ``spares``.
    Unused spares are allowed.
    """
    out = set()
    conns = tuple(connections)

    def rec(idx, remaining, acc):
        if idx == len(conns):
            out.add(frozenset(acc))
            return
        u, v = conns[idx]
        for r in range(len(remaining) + 1):
            for chosen in combinations(remaining, r):
                rest = remaining - set(chosen)
                for order in permutations(chosen):
                    path = (u,) + order + (v,)
                    acc2 = list(acc)
                    for a, b in zip(path, path[1:]):
                        acc2.append((a, b) if a < b else (b, a))
                    rec(idx + 1, rest, acc2)

    rec(0, frozenset(spares), [])
    return out


@lru_cache(maxsize=None)
def forbidden_subdivision_masks(n: int) -> tuple[int, ...]:
    """Edge masks of all K5 and K3,3 subdivisions on subsets of {1..n}."""
    found: set[int] = set()
    verts = range(1, n + 1)

    if n >= _K5_ORDER:
        for branch in combinations(verts, _K5_ORDER):
            spares = tuple(v for v in verts if v not in branch)
            conns = list(combinations(branch, 2))
            for edge_set in _subdivision_edge_sets(conns, spares):
                found.add(mask_from_edges(n, edge_set))

    if n >= _K33_ORDER:
        for branch in combinations(verts, _K33_ORDER):
            spares = tuple(v for v in verts if v not in branch)
            head, tail = branch[0], branch[1:]
            for pick in combinations(tail, 2):
                side_a = (head,) + pick
                side_b = tuple(v for v in branch if v not in side_a)
                conns = [(a, b) for a in side_a for b in side_b]
                for edge_set in _subdivision_edge_sets(conns, spares):
                    found.add(mask_from_edges(n, edge_set))

    return tuple(sorted(found))


@lru_cache(maxsize=None)
def planar_mask_table(n: int) -> bytes:
    """byte[mask] == 1 iff the graph on {1..n} with that edge mask is planar."""
    if n > TABLE_MAX_N:
        raise ValueError(f"table limited to n <= {TABLE_MAX_N}")
    slots = pair_count(n)
    nonplanar = np.zeros(1 << slots, dtype=np.uint8)
    for mask in forbidden_subdivision_masks(n):
        nonplanar[mask] = 1
    # superset closure, one bit position at a time
    for b in range(slots):
        view = nonplanar.reshape(-1, 2, 1 << b)
        view[:, 1, :] |= view[:, 0, :]
    return (nonplanar ^ 1).tobytes()


# -- left-right test ----------------------------------------------------------


class _Interval:
    """Return edges ``low`` (lowest) to ``high`` (highest) on one side."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def conflicts(self, lowpt, b) -> bool:
        return not self.empty() and lowpt[self.high] > lowpt[b]


class _ConflictPair:
    """Two intervals whose return edges must lie on opposite sides."""

    __slots__ = ("left", "right")

    def __init__(self, right=None):
        self.left = _Interval()
        self.right = right or _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def lowest(self, lowpt) -> int:
        """The lowest return point of the pair; -1 once trimming emptied it."""
        lows = [lowpt[side.low] for side in (self.left, self.right) if not side.empty()]
        return min(lows, default=-1)


def _left_right_planar(n: int, edges) -> bool:
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for neighbours in adj:
        neighbours.sort()
    height = [-1] * (n + 1)  # -1 until the orientation reaches the vertex
    return all(height[root] >= 0 or _component_planar(adj, height, root)
               for root in range(1, n + 1))


def _component_planar(adj, height, root) -> bool:
    """Left-right criterion on the component of ``root``, which the
    orientation finds; ``height`` marks the vertices it reaches."""
    # Orientation: tree edges point away from root, back edges towards it.
    parent_edge = {root: None}
    out = {root: []}  # oriented edges leaving each vertex, by head
    nxt = {root: 0}  # next position in adj[v] (orientation), out[v] (testing)
    lowpt, lowpt2, nesting_depth = {}, {}, {}
    height[root] = 0
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
                vw = parent_edge[w] = (v, w)
                height[w] = hv + 1
                lowpt[vw] = lowpt2[vw] = hv
                out[v].append(w)
                out[w] = []
                nxt[w] = 0
                path.append(w)
                continue
            if hw >= hv - 1:  # the edge to v's parent, or oriented from below
                continue
            vw = (v, w)  # back edge
            lowpt[vw] = hw
            lowpt2[vw] = hv
            out[v].append(w)
        else:
            path.pop()
            vw = parent_edge[v]
            if vw is None:
                break
            v = vw[0]
            hv = height[v]
        # vw leaves v and its lowpoints are final
        nesting_depth[vw] = 2 * lowpt[vw] + (lowpt2[vw] < hv)  # +1 if chordal
        e = parent_edge[v]
        if e is not None:
            if lowpt[vw] < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[vw])
                lowpt[e] = lowpt[vw]
            elif lowpt[vw] > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], lowpt[vw])
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    m = len(lowpt)
    if m <= 8:
        return True
    if m > 3 * len(out) - 6:  # 9 or more edges span at least 5 vertices
        return False
    for v, heads in out.items():
        heads.sort(key=lambda w, v=v: nesting_depth[v, w])

    # Testing: a stack S of conflict pairs over the return edges seen so far.
    S = []
    ref, lowpt_edge, stack_bottom = {}, {}, {}
    nxt[root] = 0
    path = [root]
    while path:
        v = path[-1]
        i = nxt[v]
        if i < len(out[v]):
            w = out[v][i]
            ei = (v, w)
            stack_bottom[ei] = S[-1] if S else None
            if ei == parent_edge[w]:  # tree edge: finished when w is
                nxt[w] = 0
                path.append(w)
                continue
            lowpt_edge[ei] = ei  # back edge
            S.append(_ConflictPair(right=_Interval(ei, ei)))
        else:
            path.pop()
            ei = parent_edge[v]
            if ei is None:
                break
            v = ei[0]
            i = nxt[v]
            # trim the back edges that return to v
            hv = height[v]
            while S and S[-1].lowest(lowpt) == hv:
                S.pop()
            if S:
                top = S[-1]
                for side, other in ((top.left, top.right), (top.right, top.left)):
                    while side.high is not None and side.high[1] == v:
                        side.high = ref.get(side.high)
                    if side.high is None and side.low is not None:
                        ref[side.low] = other.low
                        side.low = None
                if lowpt[ei] < hv:  # ei has a return edge
                    hl, hr = top.left.high, top.right.high
                    if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                        ref[ei] = hl
                    else:
                        ref[ei] = hr
        # ei is the i-th edge out of v and its subtree, if any, is done
        nxt[v] = i + 1
        if lowpt[ei] >= height[v]:  # no return edge
            continue
        e = parent_edge[v]
        if i == 0:
            if e is not None:
                lowpt_edge[e] = lowpt_edge[ei]
            continue
        # add constraints of ei: merge its return edges into pair.right ...
        pair = _ConflictPair()
        bottom = stack_bottom[ei]
        while True:
            q = S.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                return False
            if lowpt[q.right.low] > lowpt[e]:
                if pair.right.empty():
                    pair.right.high = q.right.high
                else:
                    ref[pair.right.low] = q.right.high
                pair.right.low = q.right.low
            else:  # align
                ref[q.right.low] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # ... and the conflicting return edges of earlier siblings into pair.left
        while S and (S[-1].left.conflicts(lowpt, ei) or S[-1].right.conflicts(lowpt, ei)):
            q = S.pop()
            if q.right.conflicts(lowpt, ei):
                q.swap()
            if q.right.conflicts(lowpt, ei):
                return False
            ref[pair.right.low] = q.right.high
            if q.right.low is not None:
                pair.right.low = q.right.low
            if pair.left.empty():
                pair.left.high = q.left.high
            else:
                ref[pair.left.low] = q.left.high
            pair.left.low = q.left.low
        if not (pair.left.empty() and pair.right.empty()):
            S.append(pair)
    return True
