"""Output gates: every rep's output is checked against a source independent
of the code path that produced it.  Each gate returns (attempted, failed)
counts so that failures can be reported against what was tried.
"""

from __future__ import annotations

import csv
import hashlib
from math import comb

import networkx as nx

from ess import effective_sample_size

GOLDEN = "tests/golden/phase_table_n7.csv"


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


# -- exact-phase-n7 ---------------------------------------------------------------


def load_golden(path: str = GOLDEN) -> tuple[str, dict[tuple[str, str, str], str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    rows = {}
    for line in lines[1:]:
        if line:
            n, m, _, _, event = line.split(",")[:5]
            rows[(n, m, event)] = line
    return lines[0], rows


def gate_phase_rows(csv_path: str, m_list, events: list[str], golden) -> tuple[int, int, int]:
    """Emitted rows must equal the golden rows byte for byte, one per (m, event).

    Returns (attempted, failed, class members covered).
    """
    header, rows = golden
    with open(csv_path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    expected = [("7", str(m), e) for m in m_list for e in events]
    failed = int(not lines or lines[0] != header)
    emitted = {}
    for line in lines[1:]:
        n, m, _, _, event = line.split(",")[:5]
        emitted[(n, m, event)] = line
    failed += int(len(lines) - 1 != len(expected))
    for key in expected:
        failed += int(emitted.get(key) != rows.get(key))
    members = sum(int(rows[("7", str(m), events[0])].split(",")[8]) for m in m_list)
    return len(expected) + 2, failed, members


# -- verify-census-n7 -------------------------------------------------------------


def gate_class_counts(counts) -> tuple[int, int]:
    """class_counts(7) against the closed forms: every m-set of the 21 pairs
    is planar for m <= 8, and K3,3 (10 labelings per 6-set) is the only
    9-edge obstruction."""
    failed = sum(counts[m] != comb(21, m) for m in range(9))
    failed += counts[9] != comb(21, 9) - 10 * comb(7, 6)
    return 10, int(failed)


def gate_verify_class(m: int, size: int, verify_csv: str, stdout: str,
                      built: dict, loaded: dict) -> tuple[int, int]:
    """Zero violations; class size as counted by class_counts; the census
    reported, stored, and reloaded with equal record checksums."""
    failed = 0
    with open(verify_csv, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    checks = {row["check"]: row for row in rows if row["m"] == str(m)}
    failed += int(not checks)
    failed += sum(int(row["violations"]) != 0 for row in checks.values())
    failed += sum(int(row["checked"]) != size for name, row in checks.items()
                  if name in ("component-bound", "cutedge-bound", "addable-cross-component"))
    failed += int(f": 7 {m} {size}\n" not in stdout)
    key = f"7,{m}"
    failed += int(key not in built or built.get(key) != loaded.get(key))
    return 4 + len(checks), failed


# -- mcmc-* -------------------------------------------------------------------------


def decode_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse "n:HEX" (upper-triangle bits, row-major, right-padded to 4)."""
    head, _, hexpart = text.partition(":")
    n = int(head)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    bits = bin(int(hexpart, 16))[2:].zfill(4 * len(hexpart)) if hexpart else ""
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def sample_facts(n: int, edges) -> tuple[bool, int, int, int]:
    """(planar by networkx, degree of vertex 1, bridges, pendant edges)."""
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    deg = g.degree
    pendant = sum(1 for u, v in edges if deg[u] == 1 or deg[v] == 1)
    return nx.check_planarity(g)[0], deg[1], sum(1 for _ in nx.bridges(g)), pendant


def gate_samples(path: str, n: int, m: int, count: int) -> tuple[int, int, float]:
    """Every sample has n vertices, m edges, and is planar by networkx.

    Returns (attempted, failed, chain ESS): the minimum over the tracked
    statistics that vary on this chain, or 1 when none varies.
    """
    with open(path, encoding="utf-8") as handle:
        samples = handle.read().split()
    failed = int(len(samples) != count)
    series = []
    facts: dict[str, tuple] = {}  # a slow chain repeats states
    for enc in samples:
        size, edges = decode_edges(enc)
        if enc not in facts:
            facts[enc] = sample_facts(size, edges)
        planar, *stats = facts[enc]
        failed += int(size != n or len(edges) != m or not planar)
        series.append(stats)
    estimates = [effective_sample_size(s) for s in zip(*series)]
    varying = [e for e in estimates if e is not None]
    return count + 1, failed, min(varying) if varying else 1.0


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
