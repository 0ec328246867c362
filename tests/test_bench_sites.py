"""The benchmark traces planarlab by replacing names at their import sites
(``bench/tracing.py``) and drives it through the names ``bench/job.py`` and
``bench/run.py`` resolve.  A refactor that drops one of them fails here, not
only in a traced benchmark run."""

from __future__ import annotations

import types
from pathlib import Path

import planarlab
import planarlab.cli  # noqa: F401  (the tracer patches the cli module too)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """bench/tracing.py, executed from its source so that nothing is written
    under bench/."""
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_every_site_and_restores():
    tracing = load_tracing()
    sites = [(getattr(planarlab, module), attr) for module, attr, _ in tracing._SITES]
    sites += [(planarlab.census, name) for name in tracing._DFS_GENERATORS]
    sites += [(planarlab.sampler, "is_planar_edges"), (planarlab.lab.ExperimentResult, "to_csv")]
    originals = [getattr(owner, attr) for owner, attr in sites]

    tracer = tracing.Tracer()
    tracer.install(planarlab)
    try:
        patched = [getattr(owner, attr) for owner, attr in sites]
        assert all(now is not before for now, before in zip(patched, originals))
        assert planarlab.lab.parse_event("connected").describe() == "connected"
        assert tracer.per_key()["lab.parse_event"][0] == 1
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is before for (owner, attr), before in zip(sites, originals))


def test_names_the_benchmark_jobs_resolve():
    assert callable(planarlab.cli.main)
    assert callable(planarlab.sampler.ChainState)
    assert callable(planarlab.planarity.planar_mask_table)
    assert callable(planarlab.lab.parse_event)
    assert callable(planarlab.verify._default_disjointness_patterns)
    assert callable(planarlab.census.save_census)
    assert callable(planarlab.census.load_census)
    assert callable(planarlab.census.class_counts)
    assert callable(planarlab.census.CensusStore.record_checksums)


def test_tracer_counts_every_chain_decision(monkeypatch):
    """The chain's counts come from the traced names: one is_planar_edges
    call per mcmc_step that the certificate (a K5 or K3,3 minor) does not
    reject, left-right calls below it, and accepted swaps, one per change of
    the state.  At (12, 28) every step is certified or tests all m edges."""
    tracing = load_tracing()
    kuratowski_minor = planarlab.sampler._kuratowski_minor
    certified = []

    def counted(adj, u, v):
        found = kuratowski_minor(adj, u, v)
        if found:
            certified.append((u, v))
        return found

    monkeypatch.setattr(planarlab.sampler, "_kuratowski_minor", counted)
    for n, m in (12, 20), (12, 28):
        certified.clear()
        tracer = tracing.Tracer()
        tracer.install(planarlab)
        steps, changes = 300, 0
        try:
            state = planarlab.sampler.ChainState(n, m, 1)
            for _ in range(steps):
                before = state.mask
                planarlab.sampler.mcmc_step(state)
                changes += state.mask != before
        finally:
            tracer.restore()
        keys = tracer.per_key()
        calls = steps - len(certified)
        assert keys["sampler.mcmc_step"][0] == steps
        assert tracer.edges[("sampler.mcmc_step", "planarity.is_planar_edges")][0] == calls
        assert keys["planarity.is_planar_edges"][0] == calls
        assert certified or m < 28
        assert keys["planarity.left_right"][0] > 0
        assert tracer.counters["sampler.accepted"] == changes > 0, (n, m)
