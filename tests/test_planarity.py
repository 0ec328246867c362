from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
import zlib
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings

from planarlab import (
    ChecksumMismatchError,
    IoFailureError,
    LabeledGraph,
    addable_nonedges,
    build_graph,
    complete_graph,
    is_planar,
)
from planarlab import planarity as planarity_module
from planarlab.cli import main as cli_main
from planarlab._bits import edges_from_mask, pair_count
from tests.oracles import (
    PACKAGE,
    PLANAR_TABLES,
    check_palm_tree,
    forbidden_subdivision_masks,
    has_forbidden_subdivision,
    pairs_in_order,
    planar_table,
    read_planar_table,
)
from planarlab.planarity import (
    PalmTree,
    _left_right_planar,
    is_planar_edges,
    planar_mask_table,
)
from tests.conftest import labeled_graphs

K33_EDGES = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]


class TestExamples:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4))

    def test_k5_not_planar(self):
        assert not is_planar(complete_graph(5))

    def test_k33_not_planar(self):
        assert not is_planar(build_graph(6, K33_EDGES))

    @pytest.mark.parametrize("n", [7, 9, 12])
    def test_edge_bound_rejects(self, n):
        # any graph with m > 3n-6 must be rejected, whatever its edges
        rng = random.Random(n)
        pairs = pairs_in_order(n)
        for _ in range(20):
            edges = rng.sample(pairs, 3 * n - 5)
            assert not is_planar_edges(n, edges)


class TestOracleEquivalence:
    def test_exhaustive_up_to_five(self):
        # every one of the 2^C(n,2) graphs for n <= 5
        for n in range(1, 6):
            for mask in range(1 << pair_count(n)):
                edges = edges_from_mask(n, mask)
                assert is_planar_edges(n, edges) == (
                    not has_forbidden_subdivision(n, edges)
                ), (n, mask)

    def test_random_sample_at_six(self):
        rng = random.Random(6)
        for _ in range(10_000):
            mask = rng.getrandbits(15)
            edges = edges_from_mask(6, mask)
            assert is_planar_edges(6, edges) == (not has_forbidden_subdivision(6, edges))

    def test_left_right_matches_table_exhaustively_at_six(self):
        table = planar_mask_table(6)
        for mask in range(1 << 15):
            edges = edges_from_mask(6, mask)
            assert _left_right_planar(6, edges) == (table[mask] == 1), mask

    def test_left_right_matches_table_at_seven(self):
        rng = random.Random(7)
        table = planar_mask_table(7)
        for _ in range(4000):
            mask = rng.getrandbits(21)
            edges = edges_from_mask(7, mask)
            assert _left_right_planar(7, edges) == (table[mask] == 1), mask

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_left_right_matches_search_beyond_table(self, n):
        rng = random.Random(n)
        slots = pair_count(n)
        for _ in range(250):
            m = rng.randrange(0, min(slots, 3 * n - 2))
            mask = 0
            for s in rng.sample(range(slots), m):
                mask |= 1 << s
            edges = edges_from_mask(n, mask)
            planar = is_planar_edges(n, edges)
            assert planar == (not has_forbidden_subdivision(n, edges))
            g = LabeledGraph(n, mask)
            assert is_planar(g) == planar
            if planar:
                assert addable_nonedges(g) == [
                    e for e in pairs_in_order(n)
                    if e not in edges and is_planar_edges(n, edges + (e,))]

    def test_isolated_padding_does_not_change_the_answer(self):
        # same graph, re-read at n=9 so the left-right path decides it
        rng = random.Random(99)
        for _ in range(300):
            mask = rng.getrandbits(15)
            edges = edges_from_mask(6, mask)
            assert is_planar_edges(6, edges) == is_planar_edges(9, edges)


class TestStructuredFamiliesBeyondTable:
    """Known-answer graphs at orders where the left-right test decides."""

    @pytest.mark.parametrize("n", [11, 13, 16])
    def test_relabeled_triangulations_are_planar(self, n):
        from planarlab import fan_triangulation_edges

        rng = random.Random(n)
        base = fan_triangulation_edges(n)
        for _ in range(25):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            edges = [(perm[i - 1], perm[j - 1]) for i, j in base]
            assert is_planar_edges(n, edges)

    @pytest.mark.parametrize("n", [11, 13, 16])
    def test_embedded_k5_subdivisions_are_caught(self, n):
        # five branch vertices joined by vertex-disjoint paths through the rest
        rng = random.Random(100 + n)
        for _ in range(25):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            branch = labels[:5]
            spare = labels[5:]
            edges = []
            spare_iter = iter(spare)
            for i in range(5):
                for j in range(i + 1, 5):
                    mid = next(spare_iter, None)
                    if mid is None:
                        edges.append((branch[i], branch[j]))
                    else:
                        edges.append((branch[i], mid))
                        edges.append((mid, branch[j]))
            norm = [(a, b) if a < b else (b, a) for a, b in edges]
            assert not is_planar_edges(n, norm)
            # dropping any single edge of a subdivision restores planarity
            drop = rng.choice(norm)
            assert is_planar_edges(n, [e for e in norm if e != drop])

    def test_disjoint_unions(self):
        from planarlab import fan_triangulation_edges

        tri_part = fan_triangulation_edges(6)  # on labels 1..6
        k5_part = [(i + 6, j + 6) for i, j in combinations(range(1, 6), 2)]
        assert not is_planar_edges(11, tri_part + k5_part)
        other = [(i + 6, j + 6) for i, j in fan_triangulation_edges(5)]
        assert is_planar_edges(11, tri_part + other)

    def test_small_graph_among_many_isolated_vertices(self):
        # 95 vertices without an edge start no orientation of their own
        k5 = list(combinations(range(96, 101), 2))
        assert not is_planar_edges(100, k5)
        assert not _left_right_planar(100, k5)
        k4 = list(combinations(range(97, 101), 2))
        assert is_planar_edges(100, k4)
        assert _left_right_planar(100, k4)
        # components with more than 3|V| - 6 edges (K6, K7) and a K3,3 are
        # decided by the testing phase alone, beside a planar component too
        k6 = list(combinations(range(95, 101), 2))
        k7 = list(combinations(range(94, 101), 2))
        k33 = [(a, b) for a in (90, 92, 94) for b in (95, 97, 100)]
        wheel = [(1, v) for v in range(2, 12)] + [(v, v + 1) for v in range(2, 11)] + [(2, 11)]
        cases = [(k6, False), (k7, False), (k33, False), (wheel + k6, False), (wheel, True)]
        for edges, planar in cases:
            assert _left_right_planar(100, edges) == networkx_planar(100, edges) == planar


def stacked_triangulation(rng, labels):
    """A random stacked triangulation on ``labels`` (at least three): each
    further vertex goes into a random face and is joined to its corners."""
    a, b, c = labels[:3]
    edges = {(a, b), (a, c), (b, c)}
    faces = [(a, b, c), (a, b, c)]  # inner and outer
    for v in labels[3:]:
        corners = faces.pop(rng.randrange(len(faces)))
        edges.update((v, x) for x in corners)
        x, y, z = corners
        faces += [(x, y, v), (x, z, v), (y, z, v)]
    return [(u, v) if u < v else (v, u) for u, v in edges]


def networkx_planar(n, edges) -> bool:
    g = nx.Graph(edges)
    g.add_nodes_from(range(1, n + 1))
    return nx.check_planarity(g)[0]


class TestNetworkxOracle:
    """The left-right test against networkx's implementation at the sizes
    the edge-swap chain feeds it."""

    @pytest.mark.parametrize("n", [30, 60, 100])
    def test_triangulation_minus_edges_plus_one_pair(self, n):
        # the saturated chain's input: a triangulation minus k edges, plus a
        # pair that is a non-edge of what is left (every other draw, one of
        # the k removed edges, which is always planar)
        rng = random.Random(n)
        verdicts = Counter()
        for trial in range(60):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            tri = stacked_triangulation(rng, labels)
            rng.shuffle(tri)
            k = rng.randint(1, 4)
            kept, removed = tri[k:], tri[:k]
            if trial % 2:
                f = rng.choice(removed)
            else:
                present = set(kept)
                f = rng.choice([e for e in combinations(range(1, n + 1), 2) if e not in present])
            edges = kept + [f]
            rng.shuffle(edges)
            planar = _left_right_planar(n, edges)
            assert planar == networkx_planar(n, edges), (n, edges)
            verdicts[planar] += 1
        assert verdicts[True] >= 30 and verdicts[False] > 0

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_random_graphs_from_half_to_three_n(self, n):
        rng = random.Random(1000 + n)
        pairs = list(combinations(range(1, n + 1), 2))
        verdicts = Counter()
        for _ in range(60):
            edges = rng.sample(pairs, rng.randint(n // 2, 3 * n - 6))
            planar = _left_right_planar(n, edges)
            assert planar == networkx_planar(n, edges), (n, edges)
            verdicts[planar] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_disjoint_unions_of_many_small_components(self):
        # hundreds of components share the per-vertex and per-edge arrays of
        # one call; allocating them per component would make this quadratic
        # in n
        n = 2000
        rng = random.Random(n)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        blocks, start = [], 0
        while start < n:
            size = min(rng.randint(5, 10), n - start)
            blocks.append(labels[start:start + size])
            start += size
        for trial in range(4):
            edges = []
            for block in blocks:
                if len(block) >= 3:
                    edges += [e for e in stacked_triangulation(rng, block) if rng.random() < 0.9]
            if trial % 2:  # one component gains a K3,3
                block = rng.choice([b for b in blocks if len(b) >= 6])
                side_a, side_b = block[:3], block[3:6]
                present = set(edges)
                edges += [e for e in ((min(a, b), max(a, b)) for a in side_a for b in side_b)
                          if e not in present]
            rng.shuffle(edges)
            assert _left_right_planar(n, edges) == networkx_planar(n, edges) == (trial % 2 == 0)


def sorted_palm(n, edges) -> PalmTree:
    """The palm tree the orientation finds on sorted neighbour lists."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return PalmTree(n, [sorted(row) for row in adj])


class TestPalmTree:
    """The palm tree that the left-right test builds, checked against the
    definitions of its orientation, lowpoints and nesting depths."""

    def test_built_tree_matches_the_definitions(self):
        rng = random.Random(3)
        for n in (8, 20, 50):
            tri = stacked_triangulation(rng, list(range(1, n + 1)))
            edges = rng.sample(tri, len(tri) - n // 4)
            palm = sorted_palm(n, edges)
            check_palm_tree(palm, edges)
            assert palm.planar()


class TestNoRecursion:
    """The left-right test walks explicit paths: a DFS thousands of vertices
    deep neither recurses nor touches the interpreter's recursion limit."""

    def test_deep_path_with_k33_at_its_end(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 3000
        path = [(v, v + 1) for v in range(1, n)]
        k33 = [(a, b) for a in (2995, 2997, 2999) for b in (2996, 2998, 3000)]
        edges = sorted(set(path) | set(k33))
        assert not is_planar_edges(n, edges)
        assert is_planar_edges(n, [e for e in edges if e != (2995, 3000)])


class TestForbiddenMasks:
    def test_counts(self):
        assert len(forbidden_subdivision_masks(5)) == 1
        assert len(forbidden_subdivision_masks(6)) == 76
        assert len(forbidden_subdivision_masks(7)) == 3451

    def test_each_is_minimal_nonplanar(self):
        # every forbidden graph is non-planar and one edge short of planar
        for mask in forbidden_subdivision_masks(6):
            edges = edges_from_mask(6, mask)
            assert not _left_right_planar(6, edges)
            for drop in edges:
                rest = [e for e in edges if e != drop]
                assert _left_right_planar(6, rest)

    def test_sample_minimality_at_seven(self):
        rng = random.Random(17)
        masks = forbidden_subdivision_masks(7)
        for mask in rng.sample(masks, 120):
            edges = edges_from_mask(7, mask)
            assert not _left_right_planar(7, edges)
            for drop in edges:
                rest = [e for e in edges if e != drop]
                assert _left_right_planar(7, rest)


class TestTable:
    """The n <= 7 tables are read from checked-in files that the generator in
    tests/oracles.py wrote."""

    # labeled planar graphs on n vertices, OEIS A066537
    PLANAR_COUNTS = (1, 2, 8, 64, 1023, 32071, 1823707)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_planar_entries_number_a066537(self, n):
        table = planar_mask_table(n)
        assert len(table) == 1 << pair_count(n)
        assert table.count(1) == self.PLANAR_COUNTS[n - 1]
        assert table.count(0) == len(table) - table.count(1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_checked_in_tables_equal_the_generator(self, n):
        # byte for byte, from the file and through the library's reader
        table = planar_table(n)
        assert read_planar_table(n) == table
        assert planar_mask_table(n) == table

    def test_import_reads_no_table(self):
        code = """
import sys
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
import planarlab, planarlab.cli
print(sum("planar_" in path for path in opened),
      planarlab.planarity.planar_mask_table.cache_info().currsize)
"""
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "0 0\n"

    @pytest.mark.usefixtures("cold_planar_tables")
    @pytest.mark.parametrize("edit, error", [
        ("missing", IoFailureError),
        ("empty", IoFailureError),
        ("truncated", IoFailureError),
        ("byte flipped", IoFailureError),
        ("one mask short", ChecksumMismatchError),
        ("one mask too many", ChecksumMismatchError),
        ("a byte of 2", ChecksumMismatchError),
        ("not compressed", IoFailureError),
    ])
    def test_a_damaged_table_is_refused(self, monkeypatch, tmp_path, edit, error):
        table = planar_table(6)
        stored = (PLANAR_TABLES / "planar_6.bin").read_bytes()
        middle = len(stored) // 2
        data = {
            "missing": None,
            "empty": b"",
            "truncated": stored[:middle],
            "byte flipped": stored[:middle] + bytes([stored[middle] ^ 0xFF]) + stored[middle + 1:],
            "one mask short": zlib.compress(table[:-1]),
            "one mask too many": zlib.compress(table + b"\x00"),
            "a byte of 2": zlib.compress(table[:100] + b"\x02" + table[101:]),
            "not compressed": table,
        }[edit]
        path = tmp_path / "planar_6.bin"
        if data is not None:
            path.write_bytes(data)
        monkeypatch.setattr(planarity_module, "_table", lambda n: path)
        with pytest.raises(error, match=re.escape(str(path))):
            planar_mask_table(6)

    @pytest.mark.usefixtures("cold_planar_tables")
    def test_a_byte_of_2_in_the_last_slice_is_refused(self, monkeypatch, tmp_path):
        # the bytes are checked in 64 KiB slices: n=6's table fits in one,
        # n=7's takes 32, and its last byte (K7) is damaged here
        table = zlib.decompress((PLANAR_TABLES / "planar_7.bin").read_bytes())
        assert len(table) == 32 << 16 and table[-1] == 0
        path = tmp_path / "planar_7.bin"
        path.write_bytes(zlib.compress(table[:-1] + b"\x02"))
        monkeypatch.setattr(planarity_module, "_table", lambda n: path)
        with pytest.raises(ChecksumMismatchError, match=re.escape(str(path))):
            planar_mask_table(7)

    @pytest.mark.parametrize("edit", ["missing", "byte flipped"])
    def test_the_cli_stops_on_a_damaged_table_in_one_line(self, tmp_path, edit):
        # an n=7 class stored whole, so searched, in a copy of the package
        # whose n=7 table is damaged
        copy = tmp_path / "planarlab"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "tables" / "planar_7.bin"
        if edit == "missing":
            path.unlink()
        else:
            stored = bytearray(path.read_bytes())
            stored[len(stored) // 2] ^= 0xFF
            path.write_bytes(bytes(stored))
        done = subprocess.run(
            [sys.executable, "-m", "planarlab.cli", "enumerate", "--n", "7", "--m", "15",
             "--store", "--out", "class.census"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)})
        assert done.returncode == 2 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: planarity table ")
        assert str(path) in lines[0]

    def test_library_runs_without_numpy(self, tmp_path):
        # numpy blocked: importing it raises ImportError
        job = ["experiment", "--n-list", "6", "--m-list", "8-9",
               "--events", "connected,component:triangle", "--out"]
        script = f"""
import sys
sys.modules["numpy"] = None
import planarlab, planarlab.cli
from planarlab.planarity import planar_mask_table
assert planar_mask_table(7).count(1) == 1823707
raise SystemExit(planarlab.cli.main({job!r} + [sys.argv[1]]))
"""
        blocked, here = tmp_path / "blocked.csv", tmp_path / "here.csv"
        subprocess.run([sys.executable, "-c", script, str(blocked)], check=True)
        assert cli_main(job + [str(here)]) == 0
        assert blocked.read_text() == here.read_text()


class TestMonotonicity:
    @given(labeled_graphs(max_n=8))
    @settings(max_examples=120, deadline=None)
    def test_deletion_preserves_planarity(self, g):
        if not is_planar(g):
            return
        for edge in g.edges:
            assert is_planar(build_graph(g.n, sorted(g.edges - {edge})))

    def test_subgraphs_of_known_planar(self):
        # spot check: every subset of a maximal planar graph stays planar
        edges = [e for e in complete_graph(5).edges if e != (1, 2)]
        for r in range(len(edges) + 1):
            for subset in combinations(edges, min(r, 4)):
                assert is_planar_edges(5, subset)
