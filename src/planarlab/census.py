"""Exact enumeration and counting of the planar classes, with persistence.

Enumeration is a depth-first augmentation over edge slots: each node adds one
edge with a slot index above the previous minimum choice, and any branch whose
partial graph is non-planar is pruned (sound because planarity survives edge
deletion).  Children are explored so that fixed-m graphs stream out in
lexicographic order of their text encoding.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator

from ._bits import edges_from_mask, pair_count
from .errors import (
    ChecksumMismatchError,
    InvalidArgumentError,
    IoFailureError,
    MalformedEncodingError,
    ResourceLimitError,
    VersionUnsupportedError,
)
from .graphs import LabeledGraph, decode, encode, graph_from_mask, is_planar
from .planarity import TABLE_MAX_N, is_planar_edges, planar_mask_table

DEFAULT_BUDGET = 50_000_000

_HEADER = "planarlab-census v1"

_COUNTS_CACHE: dict[int, tuple[int, ...]] = {}


def _validate_params(n: int, m: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"vertex count must be a positive integer, got {n!r}")
    if not isinstance(m, int) or m < 0:
        raise InvalidArgumentError(f"edge count must be a non-negative integer, got {m!r}")


def max_planar_edges(n: int) -> int:
    """Largest m for which the class can be non-empty."""
    return min(pair_count(n), 3 * n - 6) if n >= 3 else pair_count(n)


# -- enumeration core -----------------------------------------------------------


def _planarity_probe(n: int, m_target: int | None) -> Callable[[int], bool]:
    """Child-acceptance test for the DFS, keyed by the child's edge mask."""
    if n <= TABLE_MAX_N:
        return planar_mask_table(n).__getitem__

    def probe(mask: int) -> bool:
        mc = mask.bit_count()
        if mc < 9:  # no non-planar graph has fewer than 9 edges
            return True
        if m_target is not None and mc < m_target and mc < n:
            return True  # deferred; re-tested deeper and always at emission
        return is_planar_edges(n, edges_from_mask(n, mask))

    return probe


def _sweep(n: int, budget: int | None, m: int | None) -> Iterator[tuple[int, int]]:
    """(mask, edge count) of every non-empty planar mask, or with ``m`` of
    every m-edge one, skipping branches with too few slots left to reach m."""
    slots = pair_count(n)
    probe = _planarity_probe(n, m)
    limit = DEFAULT_BUDGET if budget is None else budget
    nodes = 0
    # frames: (mask, chosen, slot cursor, lowest slot still allowed)
    stack = [(0, 0, slots - (1 if m is None else m), 0)]
    while stack:
        mask, chosen, s, floor = stack.pop()
        while s >= floor:
            child = mask | (1 << s)
            if probe(child):
                mc = chosen + 1
                nodes += 1
                if nodes > limit:
                    raise ResourceLimitError(f"enumeration budget of {limit} nodes exceeded")
                if m is None or mc == m:
                    yield child, mc
                    if mc == m:
                        s -= 1
                        continue
                if s > floor:
                    stack.append((mask, chosen, s - 1, floor))
                top = slots - 1 if m is None else slots - m + mc
                if s < top:
                    stack.append((child, mc, top, s + 1))
                break
            s -= 1


def _iter_class_masks(n: int, m: int, budget: int | None) -> Iterator[int]:
    """Every planar m-edge mask on {1..n}, in encoding-lexicographic order."""
    return (mask for mask, _ in _sweep(n, budget, m)) if m else iter([0])


def _iter_all_masks(n: int) -> Iterator[tuple[int, int]]:
    """Every planar edge mask on {1..n} with its edge count, edgeless first."""
    return chain([(0, 0)], _sweep(n, None, None))


def check_full_sweep(n: int) -> None:
    """Refuse a full sweep past the n <= 7 table before it starts."""
    _validate_params(n, 0)
    if n > TABLE_MAX_N:
        raise ResourceLimitError(f"full sweeps are limited to n <= {TABLE_MAX_N}")


def class_counts(n: int) -> tuple[int, ...]:
    """|class(n, m)| for every m in 0..C(n,2), from one pruned sweep (cached)."""
    if n not in _COUNTS_CACHE:
        enumerate_all(n, lambda g: None, m_values=())
    return _COUNTS_CACHE[n]


def count_class(n: int, m: int, *, budget: int | None = None) -> int:
    """Exact number of planar graphs on {1..n} with exactly m edges;
    ``budget`` bounds the class search past n = 7."""
    _validate_params(n, m)
    if m > max_planar_edges(n):
        return 0
    if n <= TABLE_MAX_N:
        return class_counts(n)[m]
    return sum(1 for _ in _iter_class_masks(n, m, budget))


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


def enumerate_all(
    n: int,
    visitor: Callable[[LabeledGraph], None],
    *,
    m_values=None,
) -> None:
    """Visit every planar graph on {1..n}, n <= 7, once, or with ``m_values``
    only those with one of these edge counts (no other graph is built).
    The same sweep counts every class; the counts feed ``class_counts``."""
    check_full_sweep(n)
    counts = [0] * (pair_count(n) + 1)
    keep = [m_values is None or m in m_values for m in range(len(counts))]
    for mask, mc in _iter_all_masks(n):
        counts[mc] += 1
        if keep[mc]:
            visitor(graph_from_mask(n, mask))
    _COUNTS_CACHE[n] = tuple(counts)


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
