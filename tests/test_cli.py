from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planarlab import census as census_module
from planarlab import cli as cli_module
from planarlab import lab
from planarlab.census import load_census
from planarlab.cli import MAX_GRID_CELLS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_VERIFY_N6 = GOLDEN / "verify_n6.csv"
# every event kind, with and without a pattern and a threshold
KIND_EVENTS = ("connected,isolated,component:edge,components:edge>=2,copy:path3,pendant>=2,"
               "appearances:edge>=1,appearances:path3>=1")
# a child's stdout is block-buffered on a pipe, as it is by default
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
# the stats runs of the golden file, in its order: two bridges and f_H 1; a
# triangulation with 13 good triangles; five components, three of them
# isolated vertices; no pattern, so f_H is null
STATS_RUNS = (
    ("--graph", "8:0B51490", "--pattern", "4:6C"),
    ("--graph", "7:FFF128", "--pattern", "triangle"),
    ("--graph", "9:C08100200", "--pattern", "edge"),
    ("--graph", "3:8"),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--m", "6")
        assert code == 0 and out.strip() == "4 6 1"

    def test_store_and_write(self, capsys, tmp_path):
        path = tmp_path / "c.census"
        code, out, _ = run(
            capsys, "enumerate", "--n", "4", "--m", "3", "--store", "--out", str(path)
        )
        assert code == 0
        store = load_census(path)
        record = store.get(4, 3)
        assert record.count == 20 and len(record.graphs) == 20

    def test_store_without_out_prints_the_record(self, capsys):
        # the census file's lines between its header and its checksum
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--m", "9", "--store")
        lines = (GOLDEN / "census_n6_m9.txt").read_text().splitlines(keepends=True)
        assert code == 0 and out == "".join(lines[1:-1])


class TestSample:
    def test_exact_singleton(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--n", "4", "--m", "6", "--method", "exact",
            "--count", "3", "--seed", "5",
        )
        assert code == 0 and out.split() == ["4:FC", "4:FC", "4:FC"]

    def test_mcmc_to_file(self, capsys, tmp_path):
        path = tmp_path / "samples.txt"
        code, _, _ = run(
            capsys, "sample", "--n", "5", "--m", "5", "--method", "mcmc",
            "--count", "4", "--seed", "1", "--burnin", "50", "--thin", "2",
            "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().split()
        assert len(lines) == 4 and all(line.startswith("5:") for line in lines)

    def test_exact_stream_matches_the_golden_file(self, capsys, tmp_path):
        # the class search and a census file draw the same stream; written to
        # a file and printed, it is the golden text byte for byte
        golden = (GOLDEN / "exact_n6_m9.txt").read_bytes()
        census = tmp_path / "c.census"
        assert run(capsys, "enumerate", "--n", "6", "--m", "9", "--store",
                   "--out", str(census))[0] == 0
        argv = ["sample", "--method", "exact", "--n", "6", "--m", "9",
                "--count", "50", "--seed", "7"]
        for route in ([], ["--census", str(census)]):
            path = tmp_path / "samples.txt"
            assert run(capsys, *argv, *route, "--out", str(path))[0] == 0
            assert path.read_bytes() == golden
            code, out, _ = run(capsys, *argv, *route)
            assert code == 0 and out.encode("ascii") == golden

    def test_exact_draws_without_a_census_search_the_class_alone(self, capsys, tmp_path,
                                                               monkeypatch):
        # past the n<=7 table: the search route builds no census, counts no
        # class and composes no orbit, and it draws what a census file draws
        census = tmp_path / "c.census"
        assert run(capsys, "enumerate", "--n", "9", "--m", "3", "--store",
                   "--out", str(census))[0] == 0
        argv = ["sample", "--method", "exact", "--n", "9", "--m", "3",
                "--count", "50", "--seed", "7"]

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"census.{name} called")
            return call

        with monkeypatch.context() as patch:
            for name in ("CensusStore", "build_census", "count_class", "_compose"):
                patch.setattr(census_module, name, refuse(name))
            code, searched, err = run(capsys, *argv)
        assert (code, err) == (0, "") and len(searched.splitlines()) == 50
        assert run(capsys, *argv, "--census", str(census)) == (0, searched, "")

    @pytest.mark.usefixtures("no_orbit_composed")
    def test_exact_draws_from_a_census_compose_no_orbit(self, capsys, tmp_path):
        # the record is checked against the class size, which the connected
        # counts give, so no orbit of n = 9 is composed for the check
        census = tmp_path / "c.census"
        assert run(capsys, "enumerate", "--n", "9", "--m", "3", "--store",
                   "--out", str(census))[0] == 0
        code, out, err = run(capsys, "sample", "--method", "exact", "--n", "9", "--m", "3",
                             "--count", "5", "--seed", "7", "--census", str(census))
        assert (code, err) == (0, "") and len(out.splitlines()) == 5

    def test_empty_class_errors(self, capsys):
        code, _, err = run(
            capsys, "sample", "--n", "5", "--m", "10", "--method", "exact", "--count", "1"
        )
        assert code == 2 and "error" in err


class TestVerify:
    def test_all_m(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--all-m")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,check,checked,violations"
        assert all(line.endswith(",0") for line in lines[1:])

    def test_single_m(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--m", "5")
        assert code == 0 and "component-bound" in out

    def test_all_m_at_six_matches_the_golden_table(self, capsys, tmp_path):
        # every check's checked and violation tally over the 67 rows of n=6
        path = tmp_path / "verify_n6.csv"
        code, _, _ = run(capsys, "verify", "--n", "6", "--all-m", "--out", str(path))
        assert code == 0
        assert path.read_bytes() == GOLDEN_VERIFY_N6.read_bytes()

    def test_census_route_writes_the_same_table(self, capsys, tmp_path):
        # stored graphs decoded from a census file against the class enumerated
        census = tmp_path / "c7-15.txt"
        direct, stored = tmp_path / "direct.csv", tmp_path / "stored.csv"
        assert run(capsys, "enumerate", "--n", "7", "--m", "15", "--store",
                   "--out", str(census))[0] == 0
        assert run(capsys, "verify", "--n", "7", "--m", "15", "--out", str(direct))[0] == 0
        assert run(capsys, "verify", "--n", "7", "--m", "15", "--census", str(census),
                   "--out", str(stored))[0] == 0
        assert stored.read_bytes() == direct.read_bytes()
        assert len(direct.read_text().splitlines()) == 1 + 6

    def test_benchmark_classes_match_the_golden_table(self, capsys, tmp_path):
        # (7,14) and (7,15) stored, reloaded and checked: the tallies of the
        # verify-census-n7 benchmark workload, rows under one header
        lines = ["n,m,check,checked,violations"]
        for m in ("14", "15"):
            census = tmp_path / f"c7-{m}.txt"
            assert run(capsys, "enumerate", "--n", "7", "--m", m, "--store",
                       "--out", str(census))[0] == 0
            code, out, _ = run(capsys, "verify", "--n", "7", "--m", m, "--census", str(census))
            assert code == 0
            lines += out.splitlines()[1:]
        golden = (GOLDEN / "verify_n7_m14_15.csv").read_text(encoding="utf-8")
        assert "\n".join(lines) + "\n" == golden


class TestExperiment:
    def test_exact_table(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "experiment", "--n-list", "5", "--m-list", "0-4",
            "--events", "connected,component:triangle", "--method", "exact",
            "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,m,ratio,regime,event,prob,stderr,method,k,seed"
        assert len(lines) == 1 + 5 * 2

    def test_all_m_list(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--n-list", "4", "--m-list", "all",
            "--events", "connected",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 7  # m = 0..6

    def test_several_n_in_one_process(self, capsys, tmp_path):
        # the C7 job at n = 7 and n = 8: the two golden tables under one header
        path = tmp_path / "c78.csv"
        code, _, _ = run(
            capsys, "experiment", "--n-list", "7,8", "--m-list", "all",
            "--events", "connected,isolated,component:triangle,component:k4,copy:triangle",
            "--method", "exact", "--out", str(path),
        )
        n7 = (GOLDEN / "phase_table_n7.csv").read_text(encoding="utf-8")
        n8 = (GOLDEN / "phase_table_n8.csv").read_text(encoding="utf-8")
        assert code == 0
        assert path.read_text(encoding="utf-8") == n7 + n8.split("\n", 1)[1]

    @pytest.mark.parametrize("golden, argv", [
        ("phase_table_n7_kinds.csv", ["--n-list", "7", "--m-list", "all", "--method", "exact"]),
        ("phase_table_mcmc_n12_kinds.csv", ["--n-list", "12", "--m-list", "6,9,12,16",
                                            "--method", "mcmc", "--k", "40", "--seed", "3"]),
    ])
    def test_every_event_kind_matches_the_golden_table(self, capsys, tmp_path, golden, argv):
        path = tmp_path / golden
        code, _, _ = run(capsys, "experiment", *argv, "--events", KIND_EVENTS, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == (GOLDEN / golden).read_bytes()
        kinds = {row.split(",")[4].partition(">=")[0].partition(":")[0]
                 for row in path.read_text(encoding="utf-8").splitlines()[1:]}
        assert kinds == set(lab.EVENT_KINDS)

    def test_mcmc_rows_are_tagged_diagnostic(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--n-list", "5", "--m-list", "5",
            "--events", "connected", "--method", "mcmc", "--seed", "2", "--k", "200",
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert "mcmc-diagnostic" in row


class TestBadInput:
    """Bad arguments print one ``error:`` line and exit 2, never a traceback."""

    def check(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_zero_vertices(self, capsys):
        self.check(capsys, "enumerate", "--n", "0", "--m", "1")

    def test_non_numeric_threshold(self, capsys):
        self.check(capsys, "experiment", "--n-list", "5", "--m-list", "4",
                   "--events", "pendant>=x")

    def test_negative_count(self, capsys):
        self.check(capsys, "sample", "--n", "5", "--m", "5", "--method", "mcmc",
                   "--count", "-1")

    def test_census_given_to_the_chain(self, capsys, tmp_path):
        # the chain reads no census; a missing one is not even opened
        for path in (tmp_path / "absent.census", GOLDEN / "census_n6_m9.txt"):
            self.check(capsys, "sample", "--n", "6", "--m", "9", "--method", "mcmc",
                       "--count", "2", "--census", str(path))

    def test_census_out_is_a_directory(self, capsys, tmp_path):
        self.check(capsys, "enumerate", "--n", "3", "--m", "1", "--out", str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_zero_thinning(self, capsys):
        self.check(capsys, "sample", "--n", "5", "--m", "5", "--method", "mcmc",
                   "--count", "2", "--thin", "0")

    def test_zero_chain_samples(self, capsys):
        self.check(capsys, "experiment", "--n-list", "5", "--m-list", "5",
                   "--events", "connected", "--method", "mcmc", "--k", "0")

    def test_negative_sample_seed(self, capsys):
        self.check(capsys, "sample", "--n", "12", "--m", "15", "--method", "mcmc",
                   "--count", "3", "--burnin", "10", "--thin", "1", "--seed", "-5")

    def test_negative_experiment_seed(self, capsys):
        self.check(capsys, "experiment", "--n-list", "5", "--m-list", "4-6",
                   "--events", "connected", "--method", "mcmc", "--seed", "-1", "--k", "10")

    def test_non_numeric_m_list(self, capsys):
        self.check(capsys, "experiment", "--n-list", "5", "--m-list", "a-b",
                   "--events", "connected")

    @pytest.mark.parametrize("n_list, m_list", [("5", ","), ("5", "1--3"), ("6-4", "3")])
    def test_list_naming_no_class(self, capsys, n_list, m_list):
        # an empty list or a descending range would give a header-only table
        self.check(capsys, "experiment", "--n-list", n_list, "--m-list", m_list,
                   "--events", "connected")

    @pytest.mark.parametrize("token", [
        "connected:triangle", "copy", "pendant", "copy:k4>=2", "isolated>=1",
        "component:", "bogus",
    ])
    def test_malformed_event(self, capsys, token):
        self.check(capsys, "experiment", "--n-list", "5", "--m-list", "4",
                   "--events", token)

    @pytest.mark.parametrize("argv", [
        ("stats", "--graph", "4:FC", "--pattern", "path1000000"),
        ("experiment", "--n-list", "5", "--m-list", "4", "--events", "copy:star1000000"),
    ])
    def test_oversized_preset_pattern(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: pattern order 1000000 exceeds 16\n"

    def test_exact_sweep_past_the_census(self, capsys):
        self.check(capsys, "experiment", "--n-list", "10", "--m-list", "3",
                   "--events", "connected")

    @pytest.mark.parametrize("argv, cells, refusal", [
        (["--n-list", "7", "--m-list", "0-2000000"], [(7, m) for m in range(17)],
         "class (7, 16) is empty"),
        (["--n-list", "7", "--m-list", "0-2000000", "--method", "mcmc", "--k", "1"],
         [(7, m) for m in range(17)], "no planar graph with n=7, m=16"),
        (["--n-list", "1-2000000", "--m-list", "0"], [(n, 0) for n in range(1, 11)],
         "exact answers are limited to n <= 9"),
    ], ids=["exact m", "mcmc m", "exact n"])
    def test_the_grid_ends_at_its_first_refused_cell(self, capsys, monkeypatch, argv, cells,
                                                     refusal):
        specs = []
        phase_table = lab.phase_table
        monkeypatch.setattr(lab, "phase_table", lambda spec: specs.append(spec) or phase_table(spec))
        code, out, err = run(capsys, "experiment", *argv, "--events", "connected")
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
        assert [spec.grid for spec in specs] == [tuple(cells)]

    def test_a_huge_m_range_is_refused_without_building_it(self):
        # at 8 bytes a cell the 10^12 values would need terabytes: under a
        # 1 GB address-space limit the list of them fails with MemoryError
        code = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from planarlab.cli import MAX_GRID_CELLS, main
raise SystemExit(main(sys.argv[1:]))
"""
        done = subprocess.run(
            [sys.executable, "-c", code, "experiment", "--n-list", "7",
             "--m-list", "0-1000000000000", "--events", "connected"],
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: class (7, 16) is empty\n"

    def test_a_huge_mcmc_grid_is_refused_without_building_it(self):
        # every (n, 0) is a class the chain can sample, so nothing ends this
        # grid early: 10^12 cells, refused past the cap under a 1 GB limit
        code = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from planarlab.cli import MAX_GRID_CELLS, main
raise SystemExit(main(sys.argv[1:]))
"""
        done = subprocess.run(
            [sys.executable, "-c", code, "experiment", "--method", "mcmc", "--n-list",
             "1-1000000000000", "--m-list", "0", "--k", "1", "--events", "connected"],
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: the grid has more than {MAX_GRID_CELLS} cells\n"

    def test_a_grid_at_the_cap_is_built(self, capsys, monkeypatch):
        specs = []
        phase_table = lab.phase_table
        monkeypatch.setattr(lab, "phase_table", lambda spec: specs.append(spec) or phase_table(spec))
        monkeypatch.setattr(cli_module, "MAX_GRID_CELLS", 3)
        code, _, _ = run(capsys, "experiment", "--n-list", "4-6", "--m-list", "0",
                         "--events", "connected")
        assert code == 0 and [spec.grid for spec in specs] == [((4, 0), (5, 0), (6, 0))]
        code, _, err = run(capsys, "experiment", "--n-list", "4-7", "--m-list", "0",
                           "--events", "connected")
        assert (code, err) == (2, "error: the grid has more than 3 cells\n")

    def test_exact_sample_from_incomplete_census(self, capsys, tmp_path):
        from planarlab import CensusRecord, CensusStore, build_census, save_census

        stored = build_census(4, [3], store_graphs=True).get(4, 3).graphs
        store = CensusStore()
        store.add(CensusRecord(4, 3, 19, stored[:19]))
        path = tmp_path / "short.census"
        save_census(store, path)
        load_census(path)  # the record is consistent, so it loads
        self.check(capsys, "sample", "--n", "4", "--m", "3", "--method", "exact",
                   "--count", "3", "--census", str(path))

    def test_sample_out_in_missing_directory(self, capsys, tmp_path):
        self.check(capsys, "sample", "--n", "5", "--m", "5", "--method", "mcmc",
                   "--count", "1", "--burnin", "5", "--thin", "1",
                   "--out", str(tmp_path / "missing" / "x.txt"))

    def test_verify_out_in_missing_directory(self, capsys, tmp_path):
        self.check(capsys, "verify", "--n", "4", "--m", "3",
                   "--out", str(tmp_path / "missing" / "x.csv"))

    def test_experiment_out_in_missing_directory(self, capsys, tmp_path):
        self.check(capsys, "experiment", "--n-list", "4", "--m-list", "3",
                   "--events", "connected", "--out", str(tmp_path / "missing" / "x.csv"))

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "5", "--m", "5", "--method", "mcmc", "--count", "1",
         "--burnin", "5", "--thin", "1"),
        ("verify", "--n", "4", "--m", "3"),
        ("experiment", "--n-list", "4", "--m-list", "3", "--events", "connected"),
    ], ids=["sample", "verify", "experiment"])
    def test_out_to_a_fifo_is_refused(self, tmp_path, argv):
        # opened for writing, a FIFO with no reader would block: the run is a
        # child with a timeout, so that a fault fails here instead of hanging
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        done = subprocess.run(
            [sys.executable, "-m", "planarlab.cli", *argv, "--out", str(fifo)],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {fifo}: not a regular file\n"
        assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]

    def test_out_is_replaced_only_after_the_write(self, capsys, tmp_path, monkeypatch):
        # the text is written beside the target and renamed over it, so a
        # failed rename leaves the old file whole and no temporary file behind
        path = tmp_path / "table.csv"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(os, "replace", refuse)
        self.check(capsys, "verify", "--n", "4", "--m", "3", "--out", str(path))
        assert path.read_text() == "old\n" and list(tmp_path.iterdir()) == [path]

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # a --count too large to hold fails in the tuple of samples
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, "sample_many", exhausted)
        code, out, err = run(capsys, "sample", "--n", "4", "--m", "3", "--method", "mcmc",
                             "--count", "1000000000")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_a_reader_gone_early_is_one_error_line(self):
        # the reader closes the pipe after the first line of the 40,950: the
        # next write fails, and the exit flush must print nothing more
        child = subprocess.Popen(
            [sys.executable, "-m", "planarlab.cli", "enumerate", "--n", "7", "--m", "14",
             "--store"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV,
        )
        try:
            assert child.stdout.readline() == "7 14 40950\n"
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 2
        finally:
            child.kill()
            child.stderr.close()
        assert err == "error: standard output was closed\n"

    def test_a_reader_gone_before_the_exit_flush_is_one_error_line(self):
        # block-buffered, the whole payload is still in the buffer when the
        # command returns: the pipe fails on the flush, not on a write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "planarlab.cli", "stats", "--graph", "4:FC"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=BUFFERED_ENV,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "error: standard output was closed\n")

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "10", "--m", "12"),
        ("verify", "--n", "10", "--m", "12"),
        ("sample", "--n", "10", "--m", "12", "--method", "exact", "--count", "1"),
    ])
    def test_class_search_budget(self, capsys, argv):
        self.check(capsys, *argv, "--budget", "500")

    def test_negative_edge_count_for_the_chain(self, capsys):
        # not a complaint about the burn-in derived from it
        code, out, err = run(capsys, "sample", "--n", "5", "--m", "-1", "--method", "mcmc",
                             "--count", "2")
        assert (code, out, err) == (
            2, "", "error: edge count must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "5", "--m", "3"),
        ("enumerate", "--n", "5", "--m", "3", "--store"),
        ("verify", "--n", "5", "--m", "3"),
        # the census path does not exist: the budget is checked first
        ("sample", "--n", "5", "--m", "3", "--method", "exact", "--count", "2",
         "--census", "no-such-dir/census.txt"),
        ("sample", "--n", "5", "--m", "3", "--method", "mcmc", "--count", "2"),
    ])
    def test_negative_budget(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert (code, out) == (2, "")
        assert err == "error: budget must be a non-negative integer, got -1\n"

    def test_experiment_takes_no_budget(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "--n-list", "5", "--m-list", "4",
                  "--events", "connected", "--budget", "5"])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_without_edge_counts(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--n", "5"])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        pytest.param(("sample", "--n", "1e3", "--m", "2", "--method", "mcmc", "--count", "1"),
                     "--n", id="invalid-int"),
        pytest.param(("sample", "--n", "5", "--m", "5", "--method", "mcmc"),
                     "--count", id="missing-flag"),
        pytest.param(("enumerate", "--n", "5", "--m", "5", "--bogus"), "--bogus",
                     id="unknown-flag"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, name):
        # argparse's own errors too: no usage block, one line naming the argument
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert name in captured.err


class TestStats:
    def test_json_bundle(self, capsys):
        code, out, _ = run(capsys, "stats", "--graph", "4:FC", "--pattern", "triangle")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"] == "4:FC"
        assert set(payload) == {
            "graph", "f_H", "pendant_edges", "add_count", "kappa",
            "bridges", "isolated", "good_triangles", "degree_histogram",
        }

    def test_four_graphs_match_the_golden_file(self, capsys):
        outs = []
        for argv in STATS_RUNS:
            code, out, err = run(capsys, "stats", *argv)
            assert (code, err) == (0, "")
            outs.append(out)
        assert "".join(outs).encode("ascii") == (GOLDEN / "stats_four_graphs.txt").read_bytes()

    def test_bad_encoding_is_an_error(self, capsys):
        code, _, err = run(capsys, "stats", "--graph", "4:zz")
        assert code == 2 and "error" in err
