"""Exact enumeration and counting of the planar classes, with persistence.

Enumeration is a depth-first augmentation over edge slots: each node adds one
edge with a slot index above the previous minimum choice, and any branch whose
partial graph is non-planar is pruned (sound because planarity survives edge
deletion).  Children are explored so that fixed-m graphs stream out in
lexicographic order of their text encoding.  Counting goes through the orbit
census instead: the unlabeled graphs, each with its number of labelings.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Callable, Iterator, NamedTuple

from ._bits import bit_positions, edges_from_mask, mask_from_edges, pair_count, pair_index
from .errors import (
    ChecksumMismatchError,
    InvalidArgumentError,
    IoFailureError,
    MalformedEncodingError,
    ResourceLimitError,
    VersionUnsupportedError,
)
from .graphs import LabeledGraph, decode, encode, graph_from_mask, is_planar, reach
from .planarity import TABLE_MAX_N, mask_planarity
from .planarity import is_planar_edges, planar_mask_table  # noqa: F401  (bench/tracing.py)

DEFAULT_BUDGET = 50_000_000

_HEADER = "planarlab-census v1"


def _validate_params(n: int, m: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"vertex count must be a positive integer, got {n!r}")
    if not isinstance(m, int) or m < 0:
        raise InvalidArgumentError(f"edge count must be a non-negative integer, got {m!r}")


def max_planar_edges(n: int) -> int:
    """Largest m for which the class can be non-empty."""
    return min(pair_count(n), 3 * n - 6) if n >= 3 else pair_count(n)


# -- enumeration core -----------------------------------------------------------


def _sweep(n: int, m: int, budget: int | None) -> Iterator[int]:
    """Every planar m-edge mask on {1..n}, in encoding-lexicographic order,
    skipping branches with too few slots left to reach m."""
    if not m:
        yield 0
        return
    slots = pair_count(n)
    planar = mask_planarity(n)
    limit = DEFAULT_BUDGET if budget is None else budget
    nodes = 0
    # frames: (mask, chosen, slot cursor, lowest slot still allowed)
    stack = [(0, 0, slots - m, 0)]
    while stack:
        mask, chosen, s, floor = stack.pop()
        while s >= floor:
            child = mask | (1 << s)
            if planar(child):
                mc = chosen + 1
                nodes += 1
                if nodes > limit:
                    raise ResourceLimitError(f"enumeration budget of {limit} nodes exceeded")
                if mc == m:
                    yield child
                    s -= 1
                    continue
                if s > floor:
                    stack.append((mask, chosen, s - 1, floor))
                top = slots - m + mc
                if s < top:
                    stack.append((child, mc, top, s + 1))
                break
            s -= 1


# bench/tracing.py counts what each of these two names yields: one must not call the other
_iter_class_masks = _sweep


def _iter_all_masks(n: int) -> Iterator[tuple[int, int]]:
    """Every planar edge mask on {1..n} with its edge count, by edge count."""
    return ((mask, m) for m in range(max_planar_edges(n) + 1) for mask in _sweep(n, m, None))


def enumerate_class(
    n: int,
    m: int,
    visitor: Callable[[LabeledGraph], None],
    *,
    budget: int | None = None,
) -> None:
    """Call the visitor once per class member, in encoding-lexicographic order.
    ``budget`` bounds the search nodes, which only a class past n = 7 can reach."""
    _validate_params(n, m)
    if m > max_planar_edges(n):
        return
    for mask in _iter_class_masks(n, m, budget):
        visitor(graph_from_mask(n, mask))


def enumerate_all(n: int, visitor: Callable[[LabeledGraph], None]) -> None:
    """Visit every planar graph on {1..n}, n <= 7, once.  This labeled sweep
    is the oracle of the orbit census below, which answers every exact
    question up to n = 9."""
    _validate_params(n, 0)
    if n > TABLE_MAX_N:
        raise ResourceLimitError(f"the labeled sweep is limited to n <= {TABLE_MAX_N}")
    for mask, _ in _iter_all_masks(n):
        visitor(graph_from_mask(n, mask))


# -- orbit census ------------------------------------------------------------------
#
# Class sizes and nearly every event are isomorphism invariants, so a class is
# summed over its unlabeled members, each weighted by its number of labelings
# n!/|Aut G|.  Connected members are built by vertex addition and told apart
# by a canonical form; the others are multisets of them.

EXACT_MAX_N = 9


class Orbit(NamedTuple):
    """One isomorphism class of planar graphs on {1..n}: the edge mask of a
    member, its edge count and the number of labeled graphs in the class."""

    mask: int
    m: int
    labelings: int


# n -> ((canonical mask, |Aut|) of each connected graph, every orbit)
_ORBIT_CACHE: dict[int, tuple[tuple[tuple[int, int], ...], tuple[Orbit, ...]]] = {}


def check_exact(n: int) -> None:
    """Refuse an exact answer past the orbit census before any work starts."""
    _validate_params(n, 0)
    if n > EXACT_MAX_N:
        raise ResourceLimitError(f"exact answers are limited to n <= {EXACT_MAX_N}")


def planar_orbits(n: int) -> tuple[Orbit, ...]:
    """Every unlabeled planar graph on n <= 9 vertices, built once per n."""
    check_exact(n)
    return _orbit_data(n)[1]


def class_counts(n: int) -> tuple[int, ...]:
    """|class(n, m)| for every m in 0..C(n,2), summed over the orbits."""
    counts = [0] * (pair_count(n) + 1)
    for orbit in planar_orbits(n):
        counts[orbit.m] += orbit.labelings
    return tuple(counts)


def count_class(n: int, m: int, *, budget: int | None = None) -> int:
    """Exact number of planar graphs on {1..n} with exactly m edges;
    ``budget`` bounds the class search past n = 9."""
    _validate_params(n, m)
    if m > max_planar_edges(n):
        return 0
    if n <= EXACT_MAX_N:
        return class_counts(n)[m]
    return sum(1 for _ in _iter_class_masks(n, m, budget))


def _orbit_data(n: int):
    if n not in _ORBIT_CACHE:
        connected = _connected_orbits(n)
        _ORBIT_CACHE[n] = (connected, _compose(n, connected))
    return _ORBIT_CACHE[n]


def _connected_orbits(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical mask, |Aut|) of every connected planar graph on n vertices.
    Deleting a leaf of a spanning tree leaves a connected graph, so each one
    is a connected graph on n - 1 vertices plus a vertex joined to a non-empty
    set S of them.  Only a vertex of least degree among those whose deletion
    leaves the graph connected is added this way.  Permuting twins of the
    smaller graph is an automorphism, so S takes the lowest vertices of each
    twin class it meets; and a non-planar S stays non-planar in every superset."""
    if n == 1:
        return ((0, 1),)
    found: dict[int, int] = {}
    nonplanar: set[int] = set()
    planar = mask_planarity(n)
    new = 1 << n
    for parent_mask, _ in _orbit_data(n - 1)[0]:
        parent = LabeledGraph(n - 1, parent_mask).adjacency
        room = max_planar_edges(n) - parent_mask.bit_count()
        prefixes = {}
        for group in set(_twins(parent, n - 1)) - {0}:
            low = _members(n)[group]
            prefixes[group] = {sum(1 << v for v in low[:k]) for k in range(len(low) + 1)}
        leaves = sum(1 << v for v, row in enumerate(parent) if row.bit_count() == 1)
        bad: list[int] = []
        for s in range(2, 1 << n, 2):  # S as a vertex bitset over 1..n-1
            if s.bit_count() > room or any(s & b == b for b in bad):
                continue
            if leaves & ~s and s & (s - 1):
                continue  # a leaf outside S stays deletable: _deletable_below, sooner
            if any((s & group) not in allowed for group, allowed in prefixes.items()):
                continue
            adj = [row | new if s >> v & 1 else row for v, row in enumerate(parent)]
            adj.append(s)
            if _deletable_below(adj, n, s.bit_count()):
                continue
            form, aut = _canonical_form(n, adj)
            if form in found:
                continue
            if form in nonplanar or not planar(form):
                nonplanar.add(form)
                bad.append(s)
                continue
            found[form] = aut
    return tuple(sorted(found.items()))


def _deletable_below(adj, n: int, degree: int) -> bool:
    """Whether a vertex of degree below ``degree`` leaves the connected graph
    with neighbour bitsets adj connected when it is deleted."""
    for u in range(1, n):
        if adj[u].bit_count() < degree:
            rest = (1 << (n + 1)) - 2 & ~(1 << u)
            if reach([row & rest for row in adj], rest & -rest) == rest:
                return True
    return False


def _compose(n: int, connected) -> tuple[Orbit, ...]:
    """Every orbit on n vertices as a multiset of connected orbits.  Parts
    C_i taken k_i times give n!/prod(|Aut C_i|^k_i k_i!) labelings."""
    parts = [(k, mask, aut) for k in range(1, n)
             for mask, aut in _orbit_data(k)[0]]
    parts += [(n, mask, aut) for mask, aut in connected]
    out: list[Orbit] = []
    total = factorial(n)

    def extend(start: int, offset: int, mask: int, weight: int, repeat: int) -> None:
        if offset == n:
            out.append(Orbit(mask, mask.bit_count(), total // weight))
            return
        for idx in range(start, len(parts)):
            k, part, aut = parts[idx]
            if offset + k > n:
                break
            again = repeat + 1 if idx == start and offset else 1
            placed = mask_from_edges(n, [(i + offset, j + offset)
                                         for i, j in edges_from_mask(k, part)])
            extend(idx, offset + k, mask | placed, weight * aut * again, again)

    extend(0, 0, 0, 1, 0)
    return tuple(out)


def _refine(adj, cells: list[int], n: int, members) -> list[int]:
    """The coarsest equitable refinement of an ordered partition of {1..n}
    into vertex bitsets: a cell splits by the number of neighbours its
    vertices have in each cell, the parts in order of those numbers."""
    while len(cells) < n:
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in members[cell]:
                row = adj[v]
                key = tuple([(row & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | 1 << v
            split += [groups[key] for key in sorted(groups)]
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _canonical_form(n: int, adj) -> tuple[int, int]:
    """(canonical edge mask, |Aut|) of the graph with neighbour bitsets adj.

    Each branch individualises one vertex of the first non-singleton cell of
    an equitable partition and refines again; every discrete partition is an
    order of the vertices, and the form is the largest edge mask over those
    orders.  Swapping two twins (equal open or closed neighbourhoods) is an
    automorphism that fixes every earlier choice, so a branch tries one
    vertex per twin class: the orders reaching the form are then one per
    coset of the twin group, and |Aut| is their number times its order."""
    members = _members(n)
    twins = _twins(adj, n)
    twin_order = 1
    for group in set(twins):
        twin_order *= factorial(group.bit_count())
    slot = _slot_table(n)
    best = [-1, 0]

    def search(cells: list[int]) -> None:
        cells = _refine(adj, cells, n, members)
        if len(cells) == n:
            label = [0] * (n + 1)
            for i, cell in enumerate(cells):
                label[cell.bit_length() - 1] = i
            mask = 0
            for v in range(1, n + 1):
                row = slot[label[v]]
                for w in members[adj[v] >> v + 1 << v + 1]:
                    mask |= row[label[w]]
            if mask > best[0]:
                best[0], best[1] = mask, 1
            elif mask == best[0]:
                best[1] += 1
            return
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        cell = cells[i]
        tried = 0
        for v in members[cell]:
            if not twins[v] & tried:
                tried |= 1 << v
                search(cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1:])

    search([(1 << (n + 1)) - 2])
    return best[0], best[1] * twin_order


def _twins(adj, n: int) -> list[int]:
    """twins[v]: the bitset of v's twin class (vertices with v's open or
    closed neighbourhood) if it has two or more vertices, else 0."""
    twins = [0] * (n + 1)
    for closed in (0, 1):
        groups: dict[int, int] = {}
        for v in range(1, n + 1):
            key = adj[v] | closed << v
            groups[key] = groups.get(key, 0) | 1 << v
        for group in groups.values():
            if group & (group - 1):
                for v in _members(n)[group]:
                    twins[v] = group
    return twins


@lru_cache(maxsize=None)
def _members(n: int) -> tuple[list[int], ...]:
    """The vertices of every vertex bitset over {1..n}."""
    return tuple(bit_positions(cell) for cell in range(1 << (n + 1)))


@lru_cache(maxsize=None)
def _slot_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Bit of the edge between the vertices at positions a and b of an order."""
    return tuple(tuple(1 << pair_index(n, min(a, b) + 1, max(a, b) + 1) if a != b else 0
                       for b in range(n)) for a in range(n))


# -- persistent census -----------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    """Exact count for one (n, m) class, optionally with every graph stored."""

    n: int
    m: int
    count: int
    graphs: tuple[str, ...] | None = None

    def lines(self) -> list[str]:
        out = [f"{self.n} {self.m} {self.count}"]
        if self.graphs is not None:
            out.extend(f"  {enc}" for enc in self.graphs)
        return out

    def checksum(self) -> str:
        block = "".join(line + "\n" for line in self.lines())
        return f"{zlib.crc32(block.encode('utf-8')) & 0xFFFFFFFF:08x}"

    def validate(self) -> None:
        if self.n < 1 or self.m < 0:
            raise IoFailureError(f"class ({self.n}, {self.m}) is not a graph class")
        if self.count < 0:
            raise IoFailureError("negative class count")
        if self.m > max_planar_edges(self.n) and self.count != 0:
            raise IoFailureError(
                f"class ({self.n}, {self.m}) lies beyond the planar edge bound"
            )
        if self.graphs is None:
            return
        if len(self.graphs) != self.count:
            raise IoFailureError("stored graph list does not match the class count")
        if list(self.graphs) != sorted(set(self.graphs)):
            raise IoFailureError("stored graphs must be sorted and duplicate-free")
        for enc in self.graphs:
            try:
                g = decode(enc)
            except MalformedEncodingError as exc:
                raise IoFailureError(f"stored graph {enc!r} is unreadable: {exc}") from exc
            if g.n != self.n or g.m != self.m or not is_planar(g):
                raise IoFailureError(f"stored graph {enc!r} is not in the class")


@dataclass
class CensusStore:
    """Records keyed by (n, m); version 1 of the line-oriented text format."""

    records: dict[tuple[int, int], CensusRecord] = field(default_factory=dict)

    def add(self, record: CensusRecord) -> None:
        self.records[(record.n, record.m)] = record

    def get(self, n: int, m: int) -> CensusRecord | None:
        return self.records.get((n, m))

    def record_checksums(self) -> dict[tuple[int, int], str]:
        return {key: rec.checksum() for key, rec in sorted(self.records.items())}


def build_census(
    n: int,
    m_values=None,
    *,
    store_graphs: bool = False,
    budget: int | None = None,
) -> CensusStore:
    """Enumerate the requested classes into a store; ``budget`` bounds each
    class search past n = 7.

    Empty classes are normalized to counts-only records so that saving and
    reloading reproduces the store exactly.
    """
    if m_values is None:
        m_values = range(pair_count(n) + 1)
    store = CensusStore()
    for m in m_values:
        if store_graphs:
            encodings: list[str] = []
            enumerate_class(n, m, lambda g: encodings.append(encode(g)), budget=budget)
            graphs = tuple(encodings) if encodings else None
            store.add(CensusRecord(n, m, len(encodings), graphs))
        else:
            store.add(CensusRecord(n, m, count_class(n, m, budget=budget)))
    return store


def save_census(store: CensusStore, path) -> None:
    payload_lines: list[str] = []
    for key in sorted(store.records):
        payload_lines.extend(store.records[key].lines())
    payload = "".join(line + "\n" for line in payload_lines)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    text = f"{_HEADER}\n{payload}checksum {crc:08x}\n"
    # write beside the target, then rename: a failed write leaves ``path`` as it was
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    try:
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc


def load_census(path) -> CensusStore:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != _HEADER:
        head = lines[0] if lines else ""
        raise VersionUnsupportedError(f"unsupported census header {head!r}")
    if len(lines) < 2 or not lines[-1].startswith("checksum "):
        raise ChecksumMismatchError("checksum line missing (file truncated?)")
    payload_lines = lines[1:-1]
    payload = "".join(line + "\n" for line in payload_lines)
    stated = lines[-1][len("checksum "):].strip()
    actual = f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"
    if stated != actual:
        raise ChecksumMismatchError(f"payload checksum {actual} != stated {stated}")

    store = CensusStore()
    header: tuple[int, int, int] | None = None
    encodings: list[str] = []

    def close_record() -> None:
        if header is None:
            return
        n, m, count = header
        if (n, m) in store.records:
            raise IoFailureError(f"class ({n}, {m}) is recorded twice")
        record = CensusRecord(n, m, count, tuple(encodings) if encodings else None)
        record.validate()
        store.add(record)

    for line in payload_lines:
        if line.startswith("  "):
            if header is None:
                raise IoFailureError("indented encoding before any record line")
            encodings.append(line[2:])
            continue
        close_record()
        tokens = line.split()
        if len(tokens) != 3:
            raise IoFailureError(f"bad record line {line!r}")
        try:
            header = (int(tokens[0]), int(tokens[1]), int(tokens[2]))
        except ValueError as exc:
            raise IoFailureError(f"bad record line {line!r}") from exc
        encodings = []
    close_record()
    return store
