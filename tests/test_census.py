from __future__ import annotations

import errno
import os
import random
import re
import subprocess
import sys
import tracemalloc
import zlib
from math import comb, factorial, perm
from pathlib import Path

import pytest

import planarlab.census as census_module

from planarlab import (
    CensusMissingError,
    CensusRecord,
    CensusStore,
    ChecksumMismatchError,
    EmptyClassError,
    EventKind,
    ExperimentSpec,
    InvalidArgumentError,
    IoFailureError,
    LabeledGraph,
    ResourceLimitError,
    VersionUnsupportedError,
    automorphism_count,
    build_census,
    build_graph,
    class_counts,
    count_class,
    decode,
    encode,
    enumerate_class,
    evaluate_event,
    exact_event_counts,
    exact_sample,
    exact_probability,
    is_planar,
    isomorphic,
    kappa,
    load_census,
    max_planar_edges,
    mcmc_init,
    parse_event,
    phase_table,
    planar_orbits,
    regime_of,
    sample_many,
    save_census,
    tv_distance_to_uniform,
    verify_class,
)
from planarlab._bits import pair_count
from planarlab.cli import main
from tests.oracles import (
    ORBIT_TABLES,
    brute_force_count,
    canonical_form,
    connected_orbits,
    crc_text,
    orbit_add_sums,
    orbit_class_counts,
    orbit_table_text,
    random_graph,
)

# unlabeled planar graphs on n = 1..8 vertices (OEIS A005470), and connected ones (A003094)
UNLABELED = (1, 2, 4, 11, 33, 142, 822, 6966)
CONNECTED = (1, 1, 2, 6, 20, 99, 646, 5974)
C7_EVENT_TOKENS = ("connected", "isolated", "component:triangle", "component:k4", "copy:triangle")


class TestCountClass:
    def test_k4_class_is_singleton(self):
        assert count_class(4, 6) == 1

    def test_k5_class_is_empty(self):
        assert count_class(5, 10) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_trivial_edge_counts(self, n):
        assert count_class(n, 0) == 1
        if n >= 2:
            assert count_class(n, 1) == pair_count(n)

    def test_k5_minus_edge_labelings(self):
        assert count_class(5, 9) == 10

    def test_totals(self):
        assert sum(class_counts(5)) == 1023
        assert sum(class_counts(6)) == 32071

    def test_oracle_equivalence_up_to_five(self):
        for n in range(1, 6):
            for m in range(pair_count(n) + 1):
                assert count_class(n, m) == brute_force_count(n, m), (n, m)

    def test_brute_force_rejects_large_orders(self):
        with pytest.raises(ResourceLimitError):
            brute_force_count(7, 3)

    def test_zero_region(self):
        for n in range(3, 8):
            bound = max_planar_edges(n)
            for m in range(pair_count(n) + 1):
                if m > bound:
                    assert count_class(n, m) == 0, (n, m)
                else:
                    assert count_class(n, m) > 0, (n, m)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            count_class(0, 0)
        with pytest.raises(ValueError):
            count_class(3, -1)

    def test_sweep_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            class_counts(10)
        with pytest.raises(ResourceLimitError):
            count_class(10, 12, budget=500)

    def test_negative_budget_is_refused_before_any_work(self):
        for call in (lambda: count_class(5, 3, budget=-1),
                     lambda: count_class(10, 12, budget=-1),
                     lambda: enumerate_class(5, 3, lambda g: None, budget=-1),
                     lambda: build_census(5, [3], budget=-1),
                     lambda: build_census(5, [3], store_graphs=True, budget=-1),
                     lambda: sample_many(5, 3, 1, method="exact", budget=-1),
                     lambda: sample_many(5, 3, 1, method="exact", budget=-1,
                                         census=build_census(5, [3], store_graphs=True))):
            with pytest.raises(InvalidArgumentError, match="budget must be a non-negative"):
                call()
        assert count_class(5, 0, budget=0) == 1

    def test_class_search_budget_on_every_entry_point(self):
        with pytest.raises(ResourceLimitError):
            enumerate_class(10, 12, lambda g: None, budget=500)
        with pytest.raises(ResourceLimitError):
            build_census(10, [12], budget=500)
        with pytest.raises(ResourceLimitError):
            build_census(10, [12], store_graphs=True, budget=500)
        with pytest.raises(ResourceLimitError):
            sample_many(10, 12, 1, method="exact", budget=500)


@pytest.mark.usefixtures("cold_orbit_caches")
class TestOneArgumentCheck:
    """Every entry point checks n and m through census._validate_params, so a
    float or a string is refused as count_class refuses it, before any work."""

    CALLS = {
        "sample_many n": lambda: sample_many(7.0, 3, 1),
        "sample_many m": lambda: sample_many(7, 3.0, 1),
        "mcmc_init n": lambda: mcmc_init(7.0, 3),
        "exact_probability n": lambda: exact_probability("7", 3, EventKind.connected()),
        "exact_probability m": lambda: exact_probability(7, 3.0, EventKind.connected()),
        "regime_of m": lambda: regime_of(7, 3.0),
        "build_census n": lambda: build_census(7.0),
        "phase_table cell": lambda: phase_table(
            ExperimentSpec(((7, 3), (7, 3.0)), (EventKind.connected(),))),
        "exact_event_counts n": lambda: exact_event_counts(7.0, [EventKind.connected()]),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_refused_before_any_work(self, name):
        with pytest.raises(InvalidArgumentError, match=r"count must be a .* integer, got"):
            self.CALLS[name]()
        misses = [cache.cache_info().misses for cache in (
            census_module._read_connected, census_module._connected_counts, census_module._compose)]
        assert misses == [0, 0, 0]

    def test_the_same_refusal_as_count_class(self):
        for n, m in ((7.0, 3), (7, 3.0), ("7", 3), (0, 3), (7, -1)):
            with pytest.raises(InvalidArgumentError) as expected:
                count_class(n, m)
            for call in (lambda: sample_many(n, m, 1), lambda: mcmc_init(n, m),
                         lambda: regime_of(n, m)):
                with pytest.raises(InvalidArgumentError, match=re.escape(str(expected.value))):
                    call()


class TestEnumerateClass:
    def collect(self, n, m, **kw):
        got = []
        enumerate_class(n, m, got.append, **kw)
        return got

    def test_triangle_class(self):
        got = self.collect(3, 3)
        assert [encode(g) for g in got] == ["3:E"]

    def test_four_vertex_three_edge_class(self):
        got = self.collect(4, 3)
        assert len(got) == 20

    def test_empty_class_never_calls_visitor(self):
        assert self.collect(5, 10) == []

    @pytest.mark.parametrize("n,m", [(4, 3), (5, 5), (5, 7), (6, 9), (6, 12)])
    def test_lexicographic_order_and_counts(self, n, m):
        encodings = [encode(g) for g in self.collect(n, m)]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == len(encodings)
        assert len(encodings) == count_class(n, m)

    def test_members_are_planar_with_requested_parameters(self):
        for g in self.collect(6, 10):
            assert g.n == 6 and g.m == 10 and is_planar(g)

    def test_triangulation_class_at_seven(self):
        got = self.collect(7, 15)
        assert len(got) == count_class(7, 15) == 5712

    def test_visitor_abort_propagates(self):
        class Stop(Exception):
            pass

        def visitor(_):
            raise Stop

        with pytest.raises(Stop):
            enumerate_class(4, 3, visitor)

    def test_enumeration_is_reproducible(self):
        first = [encode(g) for g in self.collect(5, 6)]
        second = [encode(g) for g in self.collect(5, 6)]
        assert first == second

    def test_beyond_table_uses_same_contract(self):
        # n=8 takes the incremental planarity route; spot check one tiny class
        got = self.collect(8, 1, budget=100_000)
        assert len(got) == pair_count(8) == count_class(8, 1, budget=200_000)
        encodings = [encode(g) for g in got]
        assert encodings == sorted(encodings)


class TestOrbitCensus:
    """The orbit census against the labeled sweep, the automorphism search
    and known counts."""

    def test_weighted_counts_equal_the_labeled_sweep(self):
        for n in range(1, 8):
            labeled = [0] * (pair_count(n) + 1)
            for _, m in census_module._iter_all_masks(n):
                labeled[m] += 1
            assert class_counts(n) == tuple(labeled), n

    def test_class_counts_equal_the_orbit_sums(self):
        # class_counts comes from the connected counts by the exponential
        # formula; the orbits of n, each weighted by its labelings, sum to it
        for n in range(1, 10):
            assert list(class_counts(n)) == orbit_class_counts(n), n

    def test_addable_edges_count_the_next_class(self):
        # each graph of class (n, m + 1) comes from m + 1 graphs of class (n, m)
        # by adding one edge, so add(G) summed over class (n, m) is
        # (m + 1)|class(n, m + 1)|; CI checks n = 8
        for n in range(1, 8):
            larger = class_counts(n)[1:] + (0,)
            assert orbit_add_sums(n) == [(m + 1) * larger[m] for m in range(pair_count(n) + 1)], n

    def test_unlabeled_and_connected_totals(self):
        for n in range(1, 9):
            orbits = planar_orbits(n)
            assert len(orbits) == UNLABELED[n - 1], n
            connected = sum(kappa(LabeledGraph(n, orbit.mask)) == 1 for orbit in orbits)
            assert connected == CONNECTED[n - 1], n

    def test_labelings_match_the_automorphism_search(self):
        for n in range(1, 7):
            for orbit in planar_orbits(n):
                g = LabeledGraph(n, orbit.mask)
                assert orbit.m == g.m and is_planar(g)
                assert orbit.labelings * automorphism_count(g) == factorial(n), encode(g)

    def test_event_tallies_equal_the_labeled_sweep(self):
        events = [parse_event(token) for token in (
            "connected", "isolated", "component:triangle", "copy:path3", "pendant>=2",
            "appearances:edge>=2", "appearances:path3>=1", "components:edge>=1")]
        for n in range(1, 7):
            labeled = {m: [0] * len(events) for m in range(max_planar_edges(n) + 1)}
            for mask, m in census_module._iter_all_masks(n):
                g = LabeledGraph(n, mask)
                labeled[m] = [t + evaluate_event(g, e) for t, e in zip(labeled[m], events)]
            assert exact_event_counts(n, events) == labeled, n

    def test_n8_closed_forms(self):
        counts = class_counts(8)
        # every m-set of the 28 pairs is planar for m <= 8, and K3,3 (10
        # labelings per 6-set) is the only 9-edge obstruction
        assert counts[:9] == tuple(comb(28, m) for m in range(9))
        assert counts[9] == comb(28, 9) - 10 * comb(8, 6)
        assert sum(counts) == 163_947_848  # OEIS A066537
        assert counts[19:] == (0,) * (pair_count(8) - 18)

    def test_triangulations_by_tutte_and_nothing_denser(self):
        # Tutte (1962): tau_n rooted triangulations with n vertices; a labeled
        # triangulation has two embeddings on the oriented sphere (Whitney),
        # each with 2(3n - 6) roots
        for n in range(4, 10):
            tau = 2 * factorial(4 * n - 11) // (factorial(3 * n - 7) * factorial(n - 2))
            counts = class_counts(n)
            assert 4 * (3 * n - 6) * counts[3 * n - 6] == factorial(n) * tau, n
            assert counts[3 * n - 5:] == (0,) * (pair_count(n) - 3 * n + 6), n

    def test_connected_trees_and_unicyclic_graphs_of_the_tables(self):
        # labeled connected graphs with m = n - 1 (Cayley) and m = n, where
        # 2|U(n)| = sum over the cycle length k of (n)_k n^(n-k-1), taken
        # times n to stay in integers
        for n in range(2, 10):
            connected = [0] * (pair_count(n) + 1)
            for mask, aut in census_module._read_connected(n):
                connected[mask.bit_count()] += factorial(n) // aut
            assert connected[n - 1] == n ** (n - 2), n
            if n >= 3:
                cycles = sum(perm(n, k) * n ** (n - k) for k in range(3, n + 1))
                assert 2 * n * connected[n] == cycles, n

    def test_n9_census(self):
        orbits = planar_orbits(9)
        assert len(orbits) == 79_853  # OEIS A005470
        assert sum(kappa(LabeledGraph(9, orbit.mask)) == 1 for orbit in orbits) == 71_885
        counts = class_counts(9)
        assert counts[:9] == tuple(comb(36, m) for m in range(9))
        assert counts[9] == comb(36, 9) - 10 * comb(9, 6)
        assert sum(counts) == 20_402_420_291  # OEIS A066537

    def test_n8_events_equal_the_class_search(self):
        events = [parse_event(token) for token in C7_EVENT_TOKENS]
        got = exact_event_counts(8, events, [3, 4])
        for m in (3, 4):
            tallies = [0] * len(events)

            def visit(g):
                for i, event in enumerate(events):
                    tallies[i] += evaluate_event(g, event)

            enumerate_class(8, m, visit)
            assert got[m] == tallies, m

    def test_canonical_form_ignores_labels(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            h = build_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
            form, aut = canonical_form(n, g.adjacency)
            assert canonical_form(n, h.adjacency) == (form, aut)
            assert isomorphic(LabeledGraph(n, form), g)
            assert aut == automorphism_count(g)


@pytest.mark.usefixtures("cold_orbit_caches")
class TestOrbitTables:
    """The connected orbits come from checked-in tables that the generator in
    tests/oracles.py wrote; n = 9 is checked against it by a CI step."""

    def test_tables_equal_the_generator(self):
        for n in range(1, 9):
            rows = connected_orbits(n)
            assert census_module._read_connected(n) == rows, n
            path = ORBIT_TABLES / f"connected_{n}.txt"
            assert path.read_text(encoding="ascii") == orbit_table_text(n, rows), n

    def test_streamed_rows_equal_the_whole_text_parsed(self):
        # n = 9 too, whose generator only the CI step runs; n <= 8 fit in one block
        for n in range(1, 10):
            lines = (ORBIT_TABLES / f"connected_{n}.txt").read_text(encoding="ascii").splitlines()
            rows = tuple((int(mask, 16), int(aut)) for mask, aut in map(str.split, lines[3:-1]))
            assert census_module._read_connected(n) == rows, n

    def test_a_cold_n9_read_peaks_near_the_rows_it_keeps(self):
        # the rows of n = 9 take 6.6 MB; read as one string, the table peaked
        # at 13.5 MB (tracemalloc)
        tracemalloc.start()
        try:
            rows = census_module._read_connected(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 71_885
        assert peak < 8 * 2**20, peak

    def test_connected_orbits_are_the_table_rows(self):
        # the census composes each connected orbit from its table row alone
        for n in range(1, 9):
            connected = sorted(o for o in planar_orbits(n) if kappa(LabeledGraph(n, o.mask)) == 1)
            rows = census_module._read_connected(n)
            assert connected == sorted((mask, mask.bit_count(), factorial(n) // aut)
                                       for mask, aut in rows), n

    def test_import_reads_no_table(self):
        code = """
import sys
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
import planarlab, planarlab.cli
census = planarlab.census
print(sum("connected_" in path for path in opened),
      census._read_connected.cache_info().currsize, census._compose.cache_info().currsize)
"""
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "0 0 0\n"

    def test_an_n7_answer_reads_the_tables_up_to_7(self, monkeypatch):
        read = []
        table = census_module._table
        monkeypatch.setattr(census_module, "_table", lambda n: read.append(n) or table(n))
        assert class_counts(7)[9] == 293_860
        assert sorted(read) == list(range(1, 8))

    def test_an_n9_answer_reads_each_table_once_and_composes_only_9(self, monkeypatch):
        read, composed = [], []
        table, compose = census_module._table, census_module._compose

        def counted(*args):
            composed.append(args[0])
            return compose(*args)

        monkeypatch.setattr(census_module, "_table", lambda n: read.append(n) or table(n))
        monkeypatch.setattr(census_module, "_compose", counted)
        orbits = planar_orbits(9)
        assert len(orbits) == 79_853
        assert read == list(range(1, 10)) and composed == [9]
        assert planar_orbits(9) is orbits and class_counts(9)[9] == comb(36, 9) - 10 * comb(9, 6)
        assert read == list(range(1, 10)) and compose.cache_info().misses == 1

    @pytest.mark.usefixtures("no_orbit_composed")
    def test_a_count_only_census_reads_each_table_once_and_composes_no_orbit(self, monkeypatch):
        read = []
        table = census_module._table
        monkeypatch.setattr(census_module, "_table", lambda n: read.append(n) or table(n))
        store = build_census(9)
        assert read == list(range(1, 10))
        assert [store.get(9, m).count for m in range(pair_count(9) + 1)] == list(class_counts(9))
        assert sum(class_counts(9)) == 20_402_420_291  # OEIS A066537

    @pytest.mark.parametrize("bad", [7.0, "7", [7]])
    def test_class_counts_refuses_a_non_integer_n(self, bad):
        refusal = "vertex count must be a positive integer"
        with pytest.raises(InvalidArgumentError, match=refusal):
            class_counts(bad)
        assert class_counts(7)[9] == 293_860
        with pytest.raises(InvalidArgumentError, match=refusal):
            class_counts(bad)

    @staticmethod
    def tampered(monkeypatch, tmp_path, n, edit):
        """Point the loader at a copy of the tables in tmp_path whose n table
        is rewritten by ``edit``; the class's fixture keeps the caches cold."""
        for path in ORBIT_TABLES.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        target = tmp_path / f"connected_{n}.txt"
        edit(target)
        monkeypatch.setattr(census_module, "_table", lambda k: tmp_path / f"connected_{k}.txt")
        return target

    def test_a_wrong_checksum_is_refused(self, monkeypatch, tmp_path):
        def flip_a_row(path):
            text = path.read_text(encoding="ascii")
            path.write_text(text.replace("\n1a8 2\n", "\n1a9 2\n"), encoding="ascii")

        path = self.tampered(monkeypatch, tmp_path, 5, flip_a_row)
        with pytest.raises(ChecksumMismatchError, match=re.escape(str(path))):
            planar_orbits(5)

    def test_a_missing_checksum_line_is_refused(self, monkeypatch, tmp_path):
        def truncate(path):
            path.write_bytes(path.read_bytes()[:-18])

        path = self.tampered(monkeypatch, tmp_path, 6, truncate)
        with pytest.raises(ChecksumMismatchError, match=re.escape(str(path))):
            planar_orbits(6)

    @pytest.mark.parametrize("stated", [" {}", "{} ", "{}\t"])
    def test_a_checksum_with_spaces_around_it_is_refused(self, monkeypatch, tmp_path, stated):
        # the checked-in tables are compared exactly, as written
        def pad(path):
            body, _, crc = path.read_text(encoding="ascii").rpartition("checksum ")
            path.write_text(f"{body}checksum {stated.format(crc.strip())}\n", encoding="ascii")

        path = self.tampered(monkeypatch, tmp_path, 6, pad)
        with pytest.raises(ChecksumMismatchError, match=re.escape(str(path))):
            planar_orbits(6)

    def test_a_wrong_row_count_is_refused(self, monkeypatch, tmp_path):
        def drop_a_row(path):
            body = orbit_table_text(6, connected_orbits(6)[:-1]).rpartition("checksum ")[0]
            body = body.replace("rows 98", "rows 99")
            path.write_text(f"{body}checksum {crc_text(body)}\n", encoding="ascii")

        path = self.tampered(monkeypatch, tmp_path, 6, drop_a_row)
        with pytest.raises(IoFailureError, match=re.escape(str(path))):
            planar_orbits(6)

    def test_a_table_for_another_n_is_refused(self, monkeypatch, tmp_path):
        def swap(path):
            path.write_text(orbit_table_text(4, connected_orbits(4)), encoding="ascii")

        path = self.tampered(monkeypatch, tmp_path, 5, swap)
        with pytest.raises(IoFailureError, match=re.escape(str(path))):
            planar_orbits(5)

    def test_a_missing_table_is_refused(self, monkeypatch, tmp_path):
        path = self.tampered(monkeypatch, tmp_path, 4, lambda path: path.unlink())
        with pytest.raises(IoFailureError, match=re.escape(str(path))):
            class_counts(4)

    @pytest.mark.parametrize("row", ["1a8", "1a8 2 3", "zz 2", "1a8 two"])
    def test_a_row_that_is_not_a_mask_and_a_count_is_refused(self, monkeypatch, tmp_path, row):
        def rewrite_a_row(path):
            body = orbit_table_text(5, connected_orbits(5)).rpartition("checksum ")[0]
            assert "\n1a8 2\n" in body
            body = body.replace("\n1a8 2\n", f"\n{row}\n")
            path.write_text(f"{body}checksum {crc_text(body)}\n", encoding="ascii")

        path = self.tampered(monkeypatch, tmp_path, 5, rewrite_a_row)
        with pytest.raises(IoFailureError, match=re.escape(f"orbit table {path} has a bad row: ")):
            census_module._read_connected(5)

    def test_the_cli_prints_one_error_line(self, monkeypatch, tmp_path, capsys):
        path = self.tampered(monkeypatch, tmp_path, 3, lambda path: path.write_text("x"))
        code = main(["experiment", "--n-list", "5", "--m-list", "4", "--events", "connected",
                     "--method", "exact", "--out", str(tmp_path / "t.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "t.csv").exists()


class TestPersistence:
    def build_store(self):
        return build_census(4, range(7), store_graphs=True)

    def test_round_trip(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "n4.census"
        save_census(store, path)
        loaded = load_census(path)
        assert loaded.records == store.records
        assert loaded.record_checksums() == store.record_checksums()

    def test_round_trip_counts_only(self, tmp_path):
        store = build_census(5, range(11))
        path = tmp_path / "n5.census"
        save_census(store, path)
        assert load_census(path).records == store.records

    def test_truncated_file(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "n4.census"
        save_census(store, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ChecksumMismatchError):
            load_census(path)

    def test_corrupted_payload(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "n4.census"
        save_census(store, path)
        text = path.read_text().replace("4 3 20", "4 3 21", 1)
        path.write_text(text)
        with pytest.raises(ChecksumMismatchError):
            load_census(path)

    @staticmethod
    def write_with_checksum(path, payload):
        crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        path.write_text(f"planarlab-census v1\n{payload}checksum {crc:08x}\n")

    def test_repeated_record(self, tmp_path):
        path = tmp_path / "repeated.census"
        self.write_with_checksum(path, "4 3 20\n4 3 7\n")
        with pytest.raises(IoFailureError):
            load_census(path)

    def test_impossible_record(self, tmp_path):
        path = tmp_path / "impossible.census"
        self.write_with_checksum(path, "-4 3 0\n")
        with pytest.raises(IoFailureError):
            load_census(path)

    @pytest.mark.parametrize("payload, refusal", [
        ("4 3 -1\n", "negative class count"),
        ("  4:94\n4 3 1\n", "indented encoding before any record line"),
        ("4 3 1\n  4:ZZ\n", "stored graph '4:ZZ' is unreadable: bad syntax: '4:ZZ'"),
        ("4 3 1\n  3:E\n", "stored graph '3:E' is not in the class"),  # another n
        ("4 3\n", "bad record line '4 3'"),
        ("4 3 1 1\n", "bad record line '4 3 1 1'"),
        ("4 x 1\n", "bad record line '4 x 1'"),
        ("6 9 1\n  6:3BF0\n", "stored graph '6:3BF0' is not in the class"),  # K3,3
        ("4 2 1\n  4:94\n", "stored graph '4:94' is not in the class"),  # three edges
        # lines that the record's pattern of a stored line refuses first
        ("4 3 1\n  4:1c\n", "stored graph '4:1c' is unreadable: bad syntax: '4:1c'"),
        ("4 3 1\n  4:1\n",
         "stored graph '4:1' is unreadable: expected 2 hex digits for n=4, got 1"),
        ("4 3 1\n  4:1C0\n",
         "stored graph '4:1C0' is unreadable: expected 2 hex digits for n=4, got 3"),
        ("4 3 1\n  4:1D\n", "stored graph '4:1D' is unreadable: nonzero trailing pad bits"),
        # records whose n no pattern of a stored line covers
        ("0 0 1\n  1:\n", "stored graph '1:' is not in the class"),
        ("200000 0 1\n  200000:0\n", "stored graph '200000:0' is unreadable: "
                                      "expected 4999975000 hex digits for n=200000, got 1"),
    ], ids=["negative count", "indent first", "unreadable graph", "other n", "two tokens",
            "four tokens", "non-integer token", "not planar", "wrong edge count",
            "lowercase hex", "one digit too few", "one digit too many", "nonzero pad bits",
            "n below one", "n past a pattern's count"])
    def test_outside_input_is_refused_with_its_reason(self, tmp_path, payload, refusal):
        path = tmp_path / "bad.census"
        self.write_with_checksum(path, payload)
        with pytest.raises(IoFailureError, match=f"^{re.escape(refusal)}$"):
            load_census(path)

    def test_one_vertex_record_round_trips(self, tmp_path):
        # n = 1 has no slot, so its one graph is stored as "1:" with no digit
        path = tmp_path / "n1.census"
        self.write_with_checksum(path, "1 0 1\n  1:\n")
        store = load_census(path)
        assert store.records == {(1, 0): CensusRecord(1, 0, 1, (0,))}
        assert store.records == build_census(1, [0], store_graphs=True).records
        again = tmp_path / "again.census"
        save_census(store, again)
        assert again.read_bytes() == path.read_bytes()

    def test_crlf_file_loads_as_the_lf_file(self, tmp_path):
        lf = tmp_path / "lf.census"
        save_census(build_census(5, range(11), store_graphs=True), lf)
        crlf = tmp_path / "crlf.census"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n  5:" in crlf.read_bytes()
        assert load_census(crlf).records == load_census(lf).records

    def test_future_version(self, tmp_path):
        path = tmp_path / "future.census"
        path.write_text("planarlab-census v2\nchecksum 00000000\n")
        with pytest.raises(VersionUnsupportedError):
            load_census(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_census(tmp_path / "absent.census")

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "n4.census"
        save_census(self.build_store(), path)
        before = path.read_bytes()

        class HalfWritten:
            """A file whose disk fills up halfway through the write."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = open
        monkeypatch.setattr(census_module, "open",
                            lambda *a, **kw: HalfWritten(real_open(*a, **kw)), raising=False)
        with pytest.raises(IoFailureError):
            save_census(build_census(4, [2, 3]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["n4.census"]

    def test_record_validation(self):
        def masks(*encodings):
            return tuple(decode(enc).mask for enc in encodings)

        with pytest.raises(IoFailureError):
            CensusRecord(4, 3, 2, masks("4:1C")).validate()
        for unsorted in (("4:70", "4:1C"), ("4:1C", "4:1C")):  # out of order, repeated
            with pytest.raises(IoFailureError, match="sorted and duplicate-free"):
                CensusRecord(4, 3, 2, masks(*unsorted)).validate()
        with pytest.raises(IoFailureError):
            CensusRecord(5, 10, 3).validate()
        triangle_record = CensusRecord(3, 3, 1, masks("3:E"))
        triangle_record.validate()

    def test_stored_graphs_decode_into_the_class(self, tmp_path):
        store = build_census(5, [5], store_graphs=True)
        record = store.get(5, 5)
        assert record.count == 252
        encodings = [encode(LabeledGraph(5, mask)) for mask in record.graphs]
        assert encodings == sorted(encodings)
        sample = random.Random(0).sample(encodings, 20)
        for enc in sample:
            g = decode(enc)
            assert g.n == 5 and g.m == 5 and is_planar(g)


GOLDEN_CENSUS = Path(__file__).resolve().parent / "golden" / "census_n6_m9.txt"


class TestCensusText:
    """The bytes of a census file, the line endings it is read with, and the
    memory its save, load and checksums take."""

    def test_save_reproduces_the_golden_file(self, tmp_path):
        # written by ``enumerate --n 6 --m 9 --store --out``: 45,002 bytes
        path = tmp_path / "n6-m9.census"
        save_census(build_census(6, [9], store_graphs=True), path)
        assert path.read_bytes() == GOLDEN_CENSUS.read_bytes()

    @pytest.mark.parametrize("dangling", [False, True])
    def test_save_writes_through_a_symlink(self, tmp_path, dangling):
        target = tmp_path / "target.census"
        if not dangling:
            target.write_text("old\n")
        link = tmp_path / "link.census"
        link.symlink_to(target)
        save_census(build_census(6, [9], store_graphs=True), link)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == GOLDEN_CENSUS.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.census", "target.census"]

    @pytest.mark.parametrize("kind", ["fifo", "directory", "link to a fifo"])
    def test_save_refuses_what_is_not_a_regular_file(self, tmp_path, kind):
        path = tmp_path / "out"
        if kind == "directory":
            path.mkdir()
        else:
            os.mkfifo(tmp_path / "fifo")
            if kind == "fifo":
                path = tmp_path / "fifo"
            else:
                path.symlink_to(tmp_path / "fifo")
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(IoFailureError, match=f"^{re.escape(str(path))}: not a regular file$"):
            save_census(build_census(6, [9], store_graphs=True), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if kind == "directory":
            assert path.is_dir() and not any(path.iterdir())
        else:
            assert (tmp_path / "fifo").is_fifo()
            assert path.is_symlink() == (kind == "link to a fifo")

    def test_the_golden_file_loads_to_the_built_store(self):
        store = build_census(6, [9], store_graphs=True)
        loaded = load_census(GOLDEN_CENSUS)
        assert loaded.records == store.records
        assert loaded.record_checksums() == store.record_checksums()

    @pytest.mark.parametrize("convert", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.replace(b"\n", b"\r"),
        lambda data: data[:-1],
    ], ids=["crlf", "cr", "no final newline"])
    def test_other_line_endings_load_to_the_same_store(self, tmp_path, convert):
        path = tmp_path / "converted.census"
        path.write_bytes(convert(GOLDEN_CENSUS.read_bytes()))
        assert load_census(path).records == load_census(GOLDEN_CENSUS).records

    @pytest.mark.parametrize("tail", ["checksum 00000000\n", "", "checksum 00000000\n\n"],
                             ids=["wrong checksum", "no checksum line", "blank last line"])
    def test_the_checksum_is_checked_before_any_line_is_read(self, tmp_path, tail):
        path = tmp_path / "bad.census"
        path.write_text(f"planarlab-census v1\n4 3 1\n  4:ZZ\n{tail}")
        with pytest.raises(ChecksumMismatchError):
            load_census(path)

    @pytest.mark.parametrize("text, refusal", [
        ("planarlab-census v1 \nchecksum 00000000\n", VersionUnsupportedError),
        ("planarlab-census v1\n checksum 00000000\n", ChecksumMismatchError),
        ("planarlab-census v1\nchecksum  00000000 \n", None),
    ], ids=["spaced header", "indented checksum line", "spaced checksum"])
    def test_only_the_stated_checksum_may_carry_spaces(self, tmp_path, text, refusal):
        path = tmp_path / "spaced.census"
        path.write_text(text)
        if refusal is None:
            assert load_census(path).records == {}
        else:
            with pytest.raises(refusal):
                load_census(path)

    def test_save_load_and_checksums_stream_the_text(self, tmp_path):
        # on the 40,950 graphs of (7,14), a 450 KB file, each took a traced
        # peak of 5 to 7 MB while it built the whole text as strings
        store = build_census(7, [14], store_graphs=True)
        path = tmp_path / "n7-m14.census"

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: save_census(store, path)) < 2**20
        assert peak(store.record_checksums) < 2**20
        assert peak(lambda: load_census(path)) < 3 * 2**20
        assert load_census(path).record_checksums() == store.record_checksums()

    def test_lines_longer_than_a_read_load_in_any_line_ending(self, tmp_path):
        # the empty graph on 2000 vertices is a line of 499,750 hex digits,
        # longer than several reads of the file
        store = build_census(2000, [0], store_graphs=True)
        path = tmp_path / "n2000-m0.census"
        save_census(store, path)
        assert load_census(path).records == store.records
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_census(path).records == store.records

    def test_a_file_that_is_not_utf8_is_refused_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "binary.census"
        path.write_bytes(b"planarlab-census v1\n\xff\xfe\nchecksum 00000000\n")
        with pytest.raises(IoFailureError, match="^census file is not UTF-8 text: "):
            load_census(path)
        assert main(["verify", "--n", "4", "--m", "3", "--census", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _short_census(kind: str) -> CensusStore:
    """A census that lacks part or all of class (4, 3), whose size is 20."""
    store = CensusStore()
    if kind == "counts only":
        store.add(CensusRecord(4, 3, 20))
    elif kind == "19 of 20":
        stored = build_census(4, [3], store_graphs=True).get(4, 3).graphs
        store.add(CensusRecord(4, 3, 19, stored[:19]))
    elif kind == "0 of 20":
        store.add(CensusRecord(4, 3, 0))
    elif kind == "19 of a counted 20":  # judged by what it stores, not by its count
        stored = build_census(4, [3], store_graphs=True).get(4, 3).graphs
        store.add(CensusRecord(4, 3, 20, stored[:19]))
    return store


_SHORT_CENSUS_ERRORS = {
    "missing": "no census record for (4, 3)",
    "counts only": "census record for (4, 3) has no stored graphs",
    "19 of 20": "census record for (4, 3) stores 19 of its 20 graphs",
    # a record of none of its graphs does not make a non-empty class empty
    "0 of 20": "census record for (4, 3) stores 0 of its 20 graphs",
    "19 of a counted 20": "census record for (4, 3) stores 19 of its 20 graphs",
}
# load_census refuses a file whose record stores other than its count
_SHORT_CENSUS_FILES = sorted(set(_SHORT_CENSUS_ERRORS) - {"19 of a counted 20"})


def _full_batch():
    return sample_many(4, 3, 10, method="exact", seed=1,
                       census=build_census(4, [3], store_graphs=True))


class TestClassMasks:
    """census.class_masks is the one source of a class's members: every
    consumer refuses, through it, a census that does not hold the whole class."""

    @pytest.mark.parametrize("kind", sorted(_SHORT_CENSUS_ERRORS))
    @pytest.mark.parametrize("consume", [
        lambda store: verify_class(4, 3, store),
        lambda store: sample_many(4, 3, 5, method="exact", seed=1, census=store),
        lambda store: exact_sample(4, 3, 1, store),
        lambda store: tv_distance_to_uniform(_full_batch(), store),
        lambda store: census_module.class_masks(4, 3, store),
    ], ids=["verify_class", "sample_many", "exact_sample", "tv_distance", "class_masks"])
    def test_a_census_without_the_whole_class_is_refused(self, consume, kind):
        with pytest.raises(CensusMissingError, match=re.escape(_SHORT_CENSUS_ERRORS[kind])):
            consume(_short_census(kind))

    @pytest.mark.parametrize("kind", _SHORT_CENSUS_FILES)
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "4", "--m", "3"],
        ["sample", "--n", "4", "--m", "3", "--method", "exact", "--count", "3"],
    ], ids=["verify", "sample"])
    def test_the_cli_refuses_it_in_one_line(self, capsys, tmp_path, argv, kind):
        path = tmp_path / "short.census"
        save_census(_short_census(kind), path)
        load_census(path)  # every such file is consistent, so it loads
        code = main([*argv, "--census", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {_SHORT_CENSUS_ERRORS[kind]}\n"

    def test_an_m_past_the_bound_has_no_members(self, capsys, tmp_path):
        # (4, 7) lies past 3n - 6 = 6: empty with or without a census, and
        # whether or not the census has a record for it
        full = build_census(4, range(8), store_graphs=True)
        assert full.get(4, 7) == CensusRecord(4, 7, 0)
        for census in (None, CensusStore(), full):
            assert tuple(census_module.class_masks(4, 7, census)) == ()
            outcome = verify_class(4, 7, census)
            assert outcome.class_size == 0 and outcome.checked == {}
        for census in (None, CensusStore(), full):
            with pytest.raises(EmptyClassError, match=re.escape("class (4, 7) is empty")):
                sample_many(4, 7, 1, method="exact", census=census)
        path = tmp_path / "empty.census"
        save_census(CensusStore(), path)
        argv = ["--n", "4", "--m", "7", "--census", str(path)]
        assert main(["sample", "--method", "exact", "--count", "1", *argv]) == 2
        assert capsys.readouterr().err == "error: class (4, 7) is empty\n"
        assert main(["verify", *argv]) == 0
        assert capsys.readouterr().out == "n,m,check,checked,violations\n"

    def test_a_stored_census_builds_no_graph_objects(self, monkeypatch):
        built = []
        graph_from_mask = census_module.graph_from_mask
        monkeypatch.setattr(census_module, "graph_from_mask",
                            lambda n, mask: built.append(mask) or graph_from_mask(n, mask))
        record = build_census(4, [3], store_graphs=True).get(4, 3)
        assert record.count == len(record.graphs) == 20
        assert built == []
