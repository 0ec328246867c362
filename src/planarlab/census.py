"""Exact enumeration and counting of the planar classes, with persistence.

Enumeration is a depth-first augmentation over edge slots: each node adds one
edge with a slot index above the previous minimum choice, and any branch whose
partial graph is non-planar is pruned (sound because planarity survives edge
deletion).  Children are explored so that fixed-m graphs stream out in
lexicographic order of their text encoding.  Counting goes through the
connected planar graphs instead, read from checked-in tables under
``orbits/``, one per n <= 9, when an answer first needs that n: class sizes
and every event count follow from their counts by the exponential formula,
and the unlabeled graphs, each with its number of labelings, are composed
from them only for ``planar_orbits``.  A census file stores each graph
of a record as its text encoding on one line; the lines are written from the
masks and read back as masks, so no graph object is built on either side.
"""

from __future__ import annotations

import os
import re
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice, pairwise
from math import comb, factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from ._bits import pair_count, pair_index
from .errors import (
    CensusMissingError,
    ChecksumMismatchError,
    InvalidArgumentError,
    IoFailureError,
    MalformedEncodingError,
    ResourceLimitError,
    VersionUnsupportedError,
)
from .graphs import LabeledGraph, decode, encode, encode_mask, graph_from_mask, mask_from_digits
from .planarity import TABLE_MAX_N, mask_planarity
from .planarity import is_planar_edges, planar_mask_table  # noqa: F401  (bench/tracing.py)

DEFAULT_BUDGET = 50_000_000

_HEADER = "planarlab-census v1"
_ORBIT_HEADER = "planarlab-orbits v1"


def _validate_params(n: int, m: int, budget: int | None = None) -> None:
    _check_int("vertex count", n, 1)
    _check_int("edge count", m)
    if budget is not None:
        _check_int("budget", budget)


def _check_int(name: str, value, least: int = 0) -> None:
    """Refuse a ``value`` that is not an integer of at least ``least`` (0 or 1)."""
    if not isinstance(value, int) or value < least:
        kind = "positive" if least else "non-negative"
        raise InvalidArgumentError(f"{name} must be a {kind} integer, got {value!r}")


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
    for mask in class_masks(n, m, budget=budget):
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
# The connected planar graphs are read from orbits/connected_{n}.txt, written
# by the vertex-addition generator in tests/oracles.py, one row per unlabeled
# graph G with |Aut G|.  A labeled graph is a set of connected components, so
# with C the exponential generating function of the connected ones (x marks
# vertices, y edges), all graphs are exp(C), and the class sizes and every
# event count follow from C, each connected graph marked by its share of the
# event (Gimenez and Noy, JAMS 2009; marked_counts).  The unlabeled graphs are
# composed as multisets of connected orbits for planar_orbits alone.  Each
# table is read once per process, and each n's connected counts built and its
# orbits composed once, from the tables of 1..n alone, behind check_exact.

EXACT_MAX_N = 9


class Orbit(NamedTuple):
    """One isomorphism class of planar graphs on {1..n}: the edge mask of a
    member, its edge count and the number of labeled graphs in the class."""

    mask: int
    m: int
    labelings: int


def check_exact(n: int) -> None:
    """Refuse an exact answer past the orbit census before any work starts."""
    _validate_params(n, 0)
    if n > EXACT_MAX_N:
        raise ResourceLimitError(f"exact answers are limited to n <= {EXACT_MAX_N}")


def planar_orbits(n: int) -> tuple[Orbit, ...]:
    """Every unlabeled planar graph on n <= 9 vertices, composed once per n
    from the checked-in tables of the connected ones."""
    check_exact(n)
    return _compose(n)


def class_counts(n: int) -> tuple[int, ...]:
    """|class(n, m)| for every m in 0..C(n,2): n! [x^n y^m] exp(C), from the
    connected counts alone."""
    check_exact(n)
    return _unpack(n, _exp(_connected_counts(n))[n])


def connected_counts(n: int) -> tuple[int, ...]:
    """The connected graphs of class (n, m) for every m in 0..C(n,2), read
    off the table of n."""
    check_exact(n)
    return _unpack(n, _connected_counts(n)[n])


class Marks(NamedTuple):
    """An event read as a sum of marks over the components (marked_counts)."""

    threshold: int
    shape: tuple[int, int, int] | None = None
    law: Callable | None = None


def marked_counts(n: int, columns, m_values) -> list[dict[int, int]]:
    """For each ``Marks`` column, m -> the graphs of class (n, m) whose
    components' marks sum to at least its threshold T, for every m of
    ``m_values`` up to C(n,2).  A ``shape`` (k, e, |Aut H|) marks 1 the
    components isomorphic to a connected H on k vertices with e edges, with
    no graph built; a ``law(g, labelings)`` splits the ``labelings`` graphs
    isomorphic to a connected g into (mark, count) pairs.  With z marking the
    marks, the graphs whose marks sum below T are exp(A) below z^T, A the
    connected counts with each graph at z^mark; the rest of the class is the
    answer.  A connected graph is built, once for all columns, only if a
    wanted class can hold it: 0 <= m - e <= max_planar_edges(n - k) for its k
    vertices and e edges and some wanted m.  The others keep mark 0."""
    check_exact(n)
    moved = [Counter() for _ in columns]  # (k, e, mark) -> connected graphs moved to z^mark
    for j, column in enumerate(columns):
        if column.shape is not None and column.shape[0] <= n:
            k, e, aut = column.shape
            moved[j][k, e, 1] = factorial(k) // aut
    walked = [j for j, column in enumerate(columns) if column.law is not None]
    for k in range(1, n + 1 if walked else 1):
        edges = {m - d for m in m_values for d in range(max_planar_edges(n - k) + 1)}
        for mask, aut in _read_connected(k):
            if (e := mask.bit_count()) in edges:
                g, labelings = LabeledGraph(k, mask), factorial(k) // aut
                for j in walked:
                    for mark, count in columns[j].law(g, labelings):
                        moved[j][k, e, mark] += count
    width, slots = _width(n), pair_count(n) + 1
    connected = _connected_counts(n)
    total, layer = _exp(connected)[n], (1 << width * slots) - 1
    out = []
    for column, moves in zip(columns, moved):
        marks = list(connected)
        for (k, e, mark), count in moves.items():
            marks[k] += count * ((1 << width * slots * mark) - 1) << width * e
        few = _exp(marks, (1 << width * slots * column.threshold) - 1)[n]
        below = sum(few >> width * slots * a & layer for a in range(column.threshold))
        at_least = _unpack(n, total - below)
        out.append({m: at_least[m] for m in m_values if m < slots})
    return out


def count_class(n: int, m: int, *, budget: int | None = None) -> int:
    """Exact number of planar graphs on {1..n} with exactly m edges;
    ``budget`` bounds the class search past n = 9."""
    _validate_params(n, m, budget)
    if m > max_planar_edges(n):
        return 0
    if n <= EXACT_MAX_N:
        return class_counts(n)[m]
    return sum(1 for _ in _iter_class_masks(n, m, budget))


def _table(n: int):
    """The checked-in table of the connected orbits on n vertices."""
    from importlib.resources import files

    return files(__package__) / "orbits" / f"connected_{n}.txt"


@lru_cache(maxsize=None)
def _read_connected(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical mask, |Aut|) of every connected planar graph on n vertices,
    from its table: a header, one "<mask in hex> <|Aut|>" row per graph, and
    the CRC-32 of everything above the checksum line.  Read as a census file
    is, in two passes: the checksum in blocks, then the rows line by line."""
    table = _table(n)
    try:
        with table.open("r", encoding="ascii") as handle:
            crc, lines, last = _scan(handle)
            if not last.startswith("checksum "):
                raise ChecksumMismatchError(f"orbit table {table} has no checksum line")
            stated = last[len("checksum "):]
            if stated != f"{crc:08x}":
                raise ChecksumMismatchError(
                    f"orbit table {table}: payload checksum {crc:08x} != stated {stated.strip()}")
            handle.seek(0)
            head = [line.removesuffix("\n") for line in islice(handle, 3)]
            if head[:2] != [_ORBIT_HEADER, f"n {n}"]:
                raise IoFailureError(
                    f"orbit table {table} is not the {_ORBIT_HEADER} table for n = {n}")
            if head[2:] != [f"rows {lines - 3}"]:
                raise IoFailureError(
                    f"orbit table {table}: its row count is not the {lines - 3} it lists")
            try:
                return tuple((int(mask, 16), int(aut))
                             for mask, aut in map(str.split, islice(handle, lines - 3)))
            except ValueError as exc:
                raise IoFailureError(f"orbit table {table} has a bad row: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailureError(f"orbit table {table} is unreadable: {exc}") from exc


# The counts of one n are polynomials in y, each packed into one int: the
# count at y^m sits in bits [mW, (m+1)W) for the slot width W = _width(n), so
# a product of two packed ints is the product of the polynomials.  Marked
# counts put z^a y^m at slot a (C(n,2) + 1) + m, below the count at y^m.


def _width(n: int) -> int:
    """A slot width that no coefficient formed for n fills.  Each one counts
    labeled graphs, or pairs of them, on at most n vertices in all, so it is
    below 2^C(n,2), at most times a binomial below 2^n."""
    return pair_count(n) + n + 1


def _unpack(n: int, packed: int) -> tuple[int, ...]:
    """The coefficients at y^0 .. y^C(n,2) of a polynomial packed for n."""
    width = _width(n)
    low = (1 << width) - 1
    return tuple(packed >> width * m & low for m in range(pair_count(n) + 1))


def _exp(connected, keep: int = -1) -> list[int]:
    """g_0 .. g_n, the labeled graphs on {1..i} whose components are counted
    by the packed a_1 .. a_n of ``connected`` (a_0 unused): the component of
    vertex i has k vertices, so g_i = sum_k C(i-1, k-1) a_k g_(i-k).  Each
    g_i keeps only the slots set in ``keep``, the terms an answer reads."""
    g = [1]
    for i in range(1, len(connected)):
        g.append(sum(comb(i - 1, k - 1) * connected[k] * g[i - k] for k in range(1, i + 1)) & keep)
    return g


@lru_cache(maxsize=None)
def _connected_counts(n: int) -> tuple[int, ...]:
    """0, a_1 .. a_n: the connected planar graphs on {1..k} by edge count,
    k!/|Aut G| for each table row G, packed for n."""
    width = _width(n)
    out = [0]
    for k in range(1, n + 1):
        labelings = factorial(k)
        counts = [0] * (pair_count(k) + 1)
        for mask, aut in _read_connected(k):
            counts[mask.bit_count()] += labelings // aut
        out.append(sum(count << width * m for m, count in enumerate(counts)))
    return tuple(out)


@lru_cache(maxsize=None)
def _compose(n: int) -> tuple[Orbit, ...]:
    """Every orbit on n vertices as a multiset of connected orbits.  Parts
    C_i taken k_i times give n!/prod(|Aut C_i|^k_i k_i!) labelings.  A part
    on k vertices placed at an offset moves row i of its mask, the k - i
    slots of (i, i+1) .. (i, k), to the slots from (i+offset, i+offset+1)
    on.  The last part's rows are the last rows of the mask, whole, so one
    shift places it."""
    parts = [(k, mask, aut) for k in range(1, n + 1) for mask, aut in _read_connected(k)]
    out: list[Orbit] = []
    total = factorial(n)

    def place(k: int, part: int, offset: int) -> int:
        if offset + k == n:
            return part << pair_index(n, offset + 1, offset + 2)
        placed = 0
        for i in range(1, k):
            placed |= (part & ((1 << (k - i)) - 1)) << pair_index(n, i + offset, i + offset + 1)
            part >>= k - i
        return placed

    def extend(start: int, offset: int, mask: int, weight: int, repeat: int) -> None:
        if offset == n:
            out.append(Orbit(mask, mask.bit_count(), total // weight))
            return
        for idx in range(start, len(parts)):
            k, part, aut = parts[idx]
            if offset + k > n:
                break
            again = repeat + 1 if idx == start and offset else 1
            extend(idx, offset + k, mask | place(k, part, offset), weight * aut * again, again)

    extend(0, 0, 0, 1, 0)
    return tuple(out)


# -- persistent census -----------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    """Exact count for one (n, m) class, optionally with every graph stored."""

    n: int
    m: int
    count: int
    graphs: tuple[int, ...] | None = None  # edge masks in encoding order; iter_lines() writes text

    def iter_lines(self) -> Iterator[str]:
        """The record's lines in a census file, without newlines, one at a time."""
        yield f"{self.n} {self.m} {self.count}"
        if self.graphs is not None:
            n = self.n
            for mask in self.graphs:
                yield f"  {encode_mask(n, mask)}"

    def checksum(self) -> str:
        return _write_blocks(self.iter_lines(), None)

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
        # in encoding order b follows a when the lowest slot where they differ is set in b
        if any(not b & (a ^ b) & -(a ^ b) for a, b in pairwise(self.graphs)):
            raise IoFailureError("stored graphs must be sorted and duplicate-free")
        planar = mask_planarity(self.n)
        slots = pair_count(self.n)
        for mask in self.graphs:  # a negative mask or a pad bit leaves a nonzero shift
            if mask >> slots or mask.bit_count() != self.m or not planar(mask):
                enc = encode(LabeledGraph(self.n, mask))
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


def class_masks(n: int, m: int, census=None, *, budget: int | None = None) -> Iterable[int]:
    """The members of class (n, m) as edge masks in encoding order; none past
    ``max_planar_edges(n)``.  A census must store every graph of the class (up
    to n = 9, as many as the class has) or CensusMissingError is raised; with
    no census they stream from the search, its nodes bounded by ``budget``."""
    _validate_params(n, m, budget)
    if m > max_planar_edges(n):
        return ()
    if census is None:
        return _iter_class_masks(n, m, budget)  # by this name: bench/tracing.py counts it
    record = census.get(n, m)
    if record is None:
        raise CensusMissingError(f"no census record for ({n}, {m})")
    size = count_class(n, m) if n <= EXACT_MAX_N else record.count
    stored = record.count if record.graphs is None else len(record.graphs)
    if stored != size:
        raise CensusMissingError(
            f"census record for ({n}, {m}) stores {stored} of its {size} graphs")
    if not record.graphs:  # counts only, or none of a class past n = 9
        raise CensusMissingError(f"census record for ({n}, {m}) has no stored graphs")
    return record.graphs


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
    _validate_params(n, 0, budget)
    if m_values is None:
        m_values = range(pair_count(n) + 1)
    store = CensusStore()
    for m in m_values:
        if store_graphs:
            masks = tuple(class_masks(n, m, budget=budget))
            store.add(CensusRecord(n, m, len(masks), masks or None))
        else:
            store.add(CensusRecord(n, m, count_class(n, m, budget=budget)))
    return store


# Census text is streamed in blocks, so no whole-file string is ever built:
# the memory of a save, a load or a checksum follows the stored masks.
_BLOCK_LINES = 1024
_BLOCK_CHARS = 1 << 16


def _write_blocks(lines: Iterable[str], write: Callable[[str], object] | None) -> str:
    """Pass the lines, each ended by a newline, to ``write`` in blocks of
    ``_BLOCK_LINES``; return their CRC-32 as the checksum line states it."""
    crc = 0
    lines = iter(lines)
    while batch := list(islice(lines, _BLOCK_LINES)):
        block = "\n".join(batch) + "\n"
        crc = zlib.crc32(block.encode("utf-8"), crc)
        if write is not None:
            write(block)
    return f"{crc:08x}"


def save_census(store: CensusStore, path) -> None:
    lines = chain.from_iterable(store.records[key].iter_lines() for key in sorted(store.records))

    def write(handle) -> None:
        handle.write(f"{_HEADER}\n")
        handle.write(f"checksum {_write_blocks(lines, handle.write)}\n")

    _write_beside(path, write)


def _write_beside(path, write) -> None:
    """Write the text file ``path`` with ``write(handle)`` beside the target,
    through any symlink, then rename it into place: a failed write leaves
    ``path`` as it was.  A target that exists but is not a regular file is
    refused before anything is written, and any OSError is an
    IoFailureError."""
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    if os.path.lexists(target) and not os.path.isfile(target):
        raise IoFailureError(f"{os.fspath(path)}: not a regular file")
    try:
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                write(handle)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc


def load_census(path) -> CensusStore:
    """Read a census file in two passes over its text: the header and the
    checksum first, so a damaged file is refused before any line is parsed,
    then the records line by line.  Any line ending is read as a newline."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            rows = _check_payload(handle)
            handle.seek(0)
            return _parse_payload(islice(handle, 1, 1 + rows))
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoFailureError(f"census file is not UTF-8 text: {exc}") from exc


def _scan(handle) -> tuple[int, int, str]:
    """Read the text from the handle's position in blocks: the CRC-32 and
    the count of its lines before the last, and the last one."""
    crc = lines = 0
    tail = ""
    # a read at least as long as the held text doubles it, so a long line is
    # copied a few times, not once per block
    while block := handle.read(max(_BLOCK_CHARS, len(tail))):
        text = tail + block
        # the lines before the last run through its last newline but one
        cut = text.rfind("\n", 0, len(text) - 1) + 1
        crc = zlib.crc32(text[:cut].encode("utf-8"), crc)
        lines += text.count("\n", 0, cut)
        tail = text[cut:]
    return crc, lines, tail.removesuffix("\n")


def _check_payload(handle) -> int:
    """Check the header line and the checksum of the lines between it and the
    last line, the checksum line; return how many lines lie between."""
    head = handle.readline().removesuffix("\n")
    if head != _HEADER:
        raise VersionUnsupportedError(f"unsupported census header {head!r}")
    crc, rows, last = _scan(handle)
    if not last.startswith("checksum "):
        raise ChecksumMismatchError("checksum line missing (file truncated?)")
    stated = last[len("checksum "):].strip()
    if stated != f"{crc:08x}":
        raise ChecksumMismatchError(f"payload checksum {crc:08x} != stated {stated}")
    return rows


def _stored_line(n: int) -> Callable[[str], re.Match | None]:
    """The full match of a stored line of a record of n-vertex graphs: two
    spaces, the canonical encoding and a newline, its hex digits captured.
    The pad bits above the last slot, the low bits of the last digit, are 0.
    For an n below 1, or past 2**32 digits, which a pattern cannot count, it
    matches no line."""
    slots = pair_count(n)
    width = (slots + 3) // 4
    if n < 1 or width >= 1 << 32:
        return re.compile("(?!)").fullmatch
    pad = 4 * width - slots
    last = "".join(digit for i, digit in enumerate("0123456789ABCDEF") if not i % (1 << pad))
    digits = f"[0-9A-F]{{{width - 1}}}[{last}]" if width else ""
    return re.compile(f"  {n}:({digits})\n").fullmatch


def _parse_payload(lines: Iterable[str]) -> CensusStore:
    """The records of checked payload lines, each ended by a newline.  The
    indented lines of a record are read as masks: each is matched against
    the record's one pattern of a stored line, and only a line that fails it
    is decoded, for the reason of its refusal."""
    store = CensusStore()
    header: tuple[int, int, int] | None = None
    masks: list[int] = []
    stored_line = None

    def close_record() -> None:
        if header is None:
            return
        n, m, count = header
        if (n, m) in store.records:
            raise IoFailureError(f"class ({n}, {m}) is recorded twice")
        record = CensusRecord(n, m, count, tuple(masks) if masks else None)
        record.validate()
        store.add(record)

    for line in lines:
        if line.startswith("  "):
            if header is None:
                raise IoFailureError("indented encoding before any record line")
            match = stored_line(line)
            if match is None:  # worded by decode: an encoding it reads is of another n
                text = line[2:-1]
                try:
                    decode(text)
                except MalformedEncodingError as exc:
                    raise IoFailureError(f"stored graph {text!r} is unreadable: {exc}") from exc
                raise IoFailureError(f"stored graph {text!r} is not in the class")
            masks.append(mask_from_digits(match[1]))
            continue
        close_record()
        tokens = line.split()
        if len(tokens) != 3:
            raise IoFailureError(f"bad record line {line[:-1]!r}")
        try:
            header = (int(tokens[0]), int(tokens[1]), int(tokens[2]))
        except ValueError as exc:
            raise IoFailureError(f"bad record line {line[:-1]!r}") from exc
        masks = []
        stored_line = _stored_line(header[0])
    close_record()
    return store
