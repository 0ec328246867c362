"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values tagged as derived were computed by the independent oracles in
this repository (subdivision-search planarity, subset filtering, injection
enumeration, full census sweeps) and frozen here; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from planarlab import (
    build_census,
    count_appearances,
    count_class,
    count_copies,
    decode,
    enumerate_all,
    max_planar_edges,
    pattern_from_name,
    sample_many,
    tv_distance_to_uniform,
    verify_class,
)
from planarlab._bits import pair_count
from planarlab.lab import EventKind, ExperimentSpec, phase_table
from tests.oracles import (
    brute_force_count,
    count_appearances_subset,
    injection_count_brute,
)

GOLDEN = Path(__file__).parent / "golden" / "phase_table_n7.csv"
GOLDEN_N8 = Path(__file__).parent / "golden" / "phase_table_n8.csv"
C7_EVENTS = (
    EventKind.connected(),
    EventKind.has_isolated_vertex(),
    EventKind.has_component(pattern_from_name("triangle")),
    EventKind.has_component(pattern_from_name("k4")),
    EventKind.has_copy(pattern_from_name("triangle")),
)

EXPECTED_TOTALS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1023, 6: 32071}


@contextmanager
def criterion(label: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL ({time.time() - started:.1f}s)")
        raise
    print(f"[acceptance] {label}: PASS ({time.time() - started:.1f}s)")


def test_c1_census_oracle_equivalence():
    with criterion("C1 census oracle equivalence (n<=6, full m sweeps)"):
        started = time.time()
        for n in range(1, 7):
            total = 0
            for m in range(pair_count(n) + 1):
                expected = brute_force_count(n, m)
                assert count_class(n, m) == expected, (n, m)
                total += expected
            assert total == EXPECTED_TOTALS[n], n
        assert time.time() - started < 300.0


def test_c2_structural_zero_region():
    with criterion("C2 structural zero region (n=3..7)"):
        for n in range(3, 8):
            bound = min(pair_count(n), 3 * n - 6)
            assert bound == max_planar_edges(n)
            for m in range(pair_count(n) + 1):
                if m > bound:
                    assert count_class(n, m) == 0, (n, m)
                else:
                    assert count_class(n, m) > 0, (n, m)


def test_c3_deterministic_lemma_sweep():
    with criterion("C3 deterministic-lemma sweep (every class, n<=6)"):
        for n in range(1, 7):
            for m in range(max_planar_edges(n) + 1):
                outcome = verify_class(n, m)
                assert outcome.class_size == count_class(n, m)
                assert outcome.all_pass, (n, m, outcome.violations)
                assert all(v == 0 for v in outcome.violations.values()), (n, m)


def test_c4_appearance_counting_equivalence(small_patterns):
    with criterion("C4 appearance equivalence (exhaustive n<=6 + 10^4 MCMC at n=30)"):
        patterns = list(small_patterns.values())

        for n in range(2, 7):
            applicable = [p for p in patterns if p.size < n]

            def check(g, pats=applicable):
                for pattern in pats:
                    subset = count_appearances_subset(g, pattern.h)
                    bridge = count_appearances(g, pattern)
                    assert subset == bridge, (g, pattern.name, subset, bridge)

            enumerate_all(n, check)

        # moderate-n: chain-generated members of three density levels
        checked = 0
        for m, count in ((29, 3334), (45, 3333), (75, 3333)):
            batch = sample_many(30, m, count, method="mcmc", seed=300 + m,
                                burn_in=500, thinning=2)
            for enc in batch.samples:
                g = decode(enc)
                for pattern in patterns:
                    subset = count_appearances_subset(g, pattern.h)
                    bridge = count_appearances(g, pattern)
                    assert subset == bridge, (enc, pattern.name, subset, bridge)
                checked += 1
        assert checked == 10_000


def test_c5_exact_sampler_uniformity():
    with criterion("C5 exact-sampler chi-square (P(4,3) and P(5,5), alpha=0.001)"):
        from scipy.stats import chi2

        for n, m, draws in ((4, 3, 20_000), (5, 5, 50_400)):
            store = build_census(n, [m], store_graphs=True)
            record = store.get(n, m)
            batch = sample_many(n, m, draws, method="exact", seed=20260808, census=store)
            freq = Counter(batch.samples)
            expected = draws / record.count
            stat = sum(
                (freq.get(enc, 0) - expected) ** 2 / expected for enc in record.graphs
            )
            threshold = chi2.ppf(1 - 0.001, record.count - 1)
            assert stat < threshold, (n, m, stat, threshold)


def test_c6_mcmc_diagnostic():
    with criterion("C6 MCMC diagnostic on P(5,5): TV < 0.05, full support visited"):
        store = build_census(5, [5], store_graphs=True)
        batch = sample_many(
            5, 5, 100_000, method="mcmc", seed=11, burn_in=10_000, thinning=2
        )
        tv = tv_distance_to_uniform(batch, store)
        assert tv < 0.05, tv
        assert len(set(batch.samples)) == store.get(5, 5).count  # all 252 visited


def test_c7_phase_table_regression():
    with criterion("C7 n=7 phase-table golden regression + directional facts"):
        spec = ExperimentSpec(tuple((7, m) for m in range(16)), C7_EVENTS)
        result = phase_table(spec)
        regenerated = result.to_csv()
        assert regenerated.encode("utf-8") == GOLDEN.read_bytes()

        def prob(m, event):
            return next(r.prob for r in result.rows if r.m == m and r.event == event)

        # connectivity trend: saturated beats critical, as the census confirms
        assert prob(15, "connected") == 1.0
        assert prob(7, "connected") == float(Fraction(4553, 7752))
        assert prob(15, "connected") > prob(7, "connected")

        # K4-component cells pinned to the oracle run.  The census refutes the
        # guessed direction "value at m=7 <= value at m=14": at this size a K4
        # component beside m-6 further edges on 3 vertices is impossible, so
        # the middle cell is exactly zero while the critical cell is not.
        assert prob(7, "component:k4") == float(Fraction(7, 7752))
        assert prob(14, "component:k4") == 0.0
        assert prob(7, "component:triangle") == float(Fraction(35, 7752))

        # class sizes recorded in the table match the census counts
        assert {r.m: r.k for r in result.rows}[15] == 5712


def test_c7_phase_table_regression_n8():
    with criterion("C7 n=8 phase-table golden regression"):
        spec = ExperimentSpec(tuple((8, m) for m in range(19)), C7_EVENTS)
        result = phase_table(spec)
        assert result.to_csv().encode("utf-8") == GOLDEN_N8.read_bytes()
        # the class sizes are the closed forms below 10 edges and A066537 in sum
        sizes = {r.m: r.k for r in result.rows}
        assert sizes[9] == 6_906_620 and sum(sizes.values()) == 163_947_848
        prob = {(r.m, r.event): r.prob for r in result.rows}
        assert prob[(18, "connected")] == 1.0 and prob[(0, "isolated")] == 1.0


def test_c8_copy_count_identity(small_patterns):
    with criterion("C8 copy-count identity vs injection enumeration (all graphs n<=6)"):
        from planarlab.graphs import LabeledGraph

        patterns = [small_patterns[name] for name in ("triangle", "path3", "k4")]
        for n in range(1, 7):
            slots = pair_count(n)
            for mask in range(1 << slots):
                g = LabeledGraph(n, mask)
                for pattern in patterns:
                    if pattern.size > n:
                        continue
                    brute = injection_count_brute(g, pattern.h)
                    assert count_copies(g, pattern) * pattern.aut_count == brute, (
                        n, mask, pattern.name,
                    )
