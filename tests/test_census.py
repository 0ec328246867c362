from __future__ import annotations

import errno
import random
import zlib

import pytest

import planarlab.census as census_module

from planarlab import (
    CensusRecord,
    ChecksumMismatchError,
    IoFailureError,
    ResourceLimitError,
    VersionUnsupportedError,
    build_census,
    class_counts,
    count_class,
    decode,
    encode,
    enumerate_class,
    is_planar,
    load_census,
    max_planar_edges,
    save_census,
)
from planarlab._bits import pair_count
from tests.oracles import brute_force_count


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
            class_counts(8)
        with pytest.raises(ResourceLimitError):
            count_class(9, 12, budget=500)

    def test_class_search_budget_on_every_entry_point(self):
        with pytest.raises(ResourceLimitError):
            enumerate_class(9, 12, lambda g: None, budget=500)
        with pytest.raises(ResourceLimitError):
            build_census(9, [12], budget=500)
        with pytest.raises(ResourceLimitError):
            build_census(9, [12], store_graphs=True, budget=500)


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
        with pytest.raises(IoFailureError):
            CensusRecord(4, 3, 2, ("4:1C",)).validate()
        with pytest.raises(IoFailureError):
            CensusRecord(4, 3, 2, ("4:70", "4:1C")).validate()
        with pytest.raises(IoFailureError):
            CensusRecord(5, 10, 3).validate()
        triangle_record = CensusRecord(3, 3, 1, ("3:E",))
        triangle_record.validate()

    def test_stored_graphs_decode_into_the_class(self, tmp_path):
        store = build_census(5, [5], store_graphs=True)
        record = store.get(5, 5)
        assert record.count == 252
        assert list(record.graphs) == sorted(record.graphs)
        sample = random.Random(0).sample(record.graphs, 20)
        for enc in sample:
            g = decode(enc)
            assert g.n == 5 and g.m == 5 and is_planar(g)
