"""Planarity decisions.

Two entry points: ``mask_planarity(n)`` is the test for edge masks on
{1..n}, and ``is_planar_edges(n, edges)`` the test for an edge list in any
order, as the left-right test sorts every neighbour list.  Behind them,
three cooperating mechanisms, all cross-checked in the test suite:

* trivial bounds: any graph with at most 8 edges or at most 4 vertices is
  planar; for n >= 3 more than 3n-6 edges is impossible in a planar graph;
* n <= 7: a lookup table over all edge masks, one byte per mask, read once
  per n from a checked-in zlib file under ``tables/`` (47,968 bytes at n=7,
  2,097,152 bytes inflated).  A missing or damaged file stops with a census
  error naming it.  The generator that wrote the files closes the edge masks
  of the K5/K3,3 subdivisions over supersets; it lives with the tests
  (``tests/oracles.py``), which compare every table with it;
* n >= 8: the left-right planarity test (Brandes 2009), as two iterative
  DFS phases over an explicit path.  The orientation, started at each
  vertex with an edge that no earlier start reached, builds a ``PalmTree``:
  a DFS tree of every component with its lowpoints and nesting depths.
  The testing phase walks the components one after the other, keeping a
  stack of conflict pairs, and decides every one of them.  Neither
  recurses, so any n works without touching the interpreter's recursion
  limit.  Oriented edges are integer ids over all components, numbered in
  the order the orientation creates them: every per-edge value (tail,
  head, lowpoints, nesting depth, ref, lowpoint edge, stack bottom) is a
  list indexed by id, the tree edge into each vertex a list indexed by
  vertex, and a conflict pair is a 4-slot list [left low, left high, right
  low, right high] of edge ids, -1 where an interval has no edge.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Callable, Iterable

from ._bits import edges_from_mask, mask_from_edges, pair_count
from .errors import ChecksumMismatchError, IoFailureError

TABLE_MAX_N = 7


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
    table read from its checked-in file (truthy byte), else the left-right
    test on the edges decoded row by row."""
    if n <= TABLE_MAX_N:
        return planar_mask_table(n).__getitem__
    return lambda mask: is_planar_edges(n, edges_from_mask(n, mask))


# -- small-order tables -------------------------------------------------------


def _table(n: int):
    """The checked-in planarity table for n: one byte per mask, zlib-compressed."""
    from importlib.resources import files

    return files(__package__) / "tables" / f"planar_{n}.bin"


@lru_cache(maxsize=None)
def planar_mask_table(n: int) -> bytes:
    """byte[mask] == 1 iff the graph on {1..n} with that edge mask is planar,
    inflated from its checked-in table the first time n is asked."""
    if not 1 <= n <= TABLE_MAX_N:
        raise ValueError(f"table limited to 1 <= n <= {TABLE_MAX_N}")
    table = _table(n)
    size = 1 << pair_count(n)
    try:  # inflated into a buffer of the table's size, which then never grows
        data = zlib.decompress(table.read_bytes(), bufsize=size)
    except (OSError, zlib.error) as exc:
        raise IoFailureError(f"planarity table {table} is unreadable: {exc}") from exc
    if len(data) != size:
        raise ChecksumMismatchError(
            f"planarity table {table} inflates to {len(data)} bytes, not {size}")
    # deleting every 0 and 1 takes a quarter of the time of counting them; in
    # 64 KiB slices, so that no copy of the whole table is made
    step = 1 << 16
    if any(data[i:i + step].translate(None, b"\x00\x01") for i in range(0, size, step)):
        raise ChecksumMismatchError(f"planarity table {table} holds a byte other than 0 or 1")
    return data


# -- left-right test ----------------------------------------------------------


def _left_right_planar(n: int, edges) -> bool:
    """The left-right test of the graph on {1..n} with these edges, on the
    palm tree found over sorted neighbour lists."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for neighbours in adj:
        neighbours.sort()
    return PalmTree(n, adj).planar()


class PalmTree:
    """A DFS palm tree of a graph on {1..n} with its left-right orientation,
    ready for the testing phase: heights, tree edge into each vertex (-1 at
    a root), per-edge tail, head, lowpoints and nesting depth, and each
    vertex's edges out sorted by nesting depth.  Edge ids run over all
    components."""

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
        order = []  # the vertices with an edge, in preorder
        for root in range(1, n + 1):
            if height[root] < 0 and adj[root]:
                self.roots.append(root)
                order += _orient(adj, height, parent, out, nxt, root, src, dst, lowpt, lowpt2)
        # nesting depth: twice the lowpoint, +1 if chordal
        self.depth = depth = [2 * low + (low2 < height[v])
                              for v, low, low2 in zip(src, lowpt, lowpt2)]
        for v in order:
            out[v].sort(key=depth.__getitem__)

    def planar(self) -> bool:
        """The testing phase on every component."""
        return _testing(self.out, self.height, self.parent, self.src, self.dst, self.lowpt,
                        self.roots)


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


def _testing(out, height, parent, src, dst, lowpt, roots) -> bool:
    """The testing phase on the oriented components of ``roots``, one after
    the other: a stack S of conflict pairs over the return edges seen so
    far, each [left low, left high, right low, right high] with -1 for
    none.  S is empty again when a component is done."""
    m = len(src)
    S = []
    ref = [-1] * m
    lowpt_edge = list(range(m))  # final for back edges; tree edges copy a child's
    stack_bottom = [None] * m
    nxt = [0] * len(out)  # by vertex: the next position in out
    path = roots[::-1]  # the roots not yet walked wait below the walk
    while path:
        v = path[-1]
        i = nxt[v]
        if i < len(out[v]):
            ei = out[v][i]
            stack_bottom[ei] = S[-1] if S else None
            w = dst[ei]
            if ei == parent[w]:  # tree edge: finished when w is
                path.append(w)
                continue
            S.append([-1, -1, ei, ei])  # back edge
        else:
            path.pop()
            ei = parent[v]
            if ei < 0:  # v is a root
                continue
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
