"""One repetition of a workload in a fresh interpreter.

Set-up (``import planarlab`` plus the lazy set-up the job needs before its
first unit of work) is timed first, so that warm caches never leak into the
job time; then the rep's CLI jobs run in-process through
``planarlab.cli.main``.  Prints one JSON object on its last stdout line.

``setup_s`` is wall seconds.  A plain rep's ``job_s`` is reference seconds
(``refclock.py``), with the wall seconds beside it; a traced rep runs no
calibration slices, so that none lands in a layer's time, and reads wall
seconds for both.  Set-up runs before the clock starts: it is mostly import
and unmarshal, which follow the host's speed phases only in part, and over
ten runs of each workload the run medians of its wall time spread 5-14% of
their median where reference seconds spread 12-19%.

    python3 bench/job.py --workload NAME --inputs JSON --tag TAG \
        --workdir DIR [--traced] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from refclock import HALF_WINDOW, RefClock  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import EVENTS, WORKLOADS, job_argvs  # noqa: E402


def import_planarlab():
    """Import the library from ``src/`` of the current directory, only."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import planarlab
    import planarlab.cli  # noqa: F401  (the entry point the jobs run)

    if not os.path.abspath(planarlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"planarlab imported from {planarlab.__file__}, not {src}")
    return planarlab


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter.  ``VmHWM`` is the peak of
    the process's own address space; ``ru_maxrss`` would also carry the
    parent's resident size at the time it started this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lazy_setup(planarlab, workload, inputs, call) -> None:
    """The set-up a CLI user pays before the job's first unit of work."""
    if workload.kind == "mcmc":
        call("sampler.ChainState", planarlab.sampler.ChainState,
             workload.n, workload.m, inputs.get("chain_seed", 0))
        return
    call("planarity.planar_mask_table", planarlab.planarity.planar_mask_table, 7)
    if workload.kind == "exact":
        for token in EVENTS.split(","):
            call("lab.parse_event", planarlab.lab.parse_event, token)
    else:
        call("verify.default_patterns", planarlab.verify._default_disjointness_patterns)


def layer_totals(tracer: Tracer) -> dict:
    """Additive per-layer quantities of one traced rep (ratios are formed by
    the caller over the whole run)."""
    keys = tracer.per_key()
    count = tracer.counters.get

    def calls(key):
        return keys.get(key, (0, 0.0, 0.0))[0]

    def total(key):
        return keys.get(key, (0, 0.0, 0.0))[1]

    self_s = {layer: 0.0 for layer in LAYERS}
    for key, (_, _, own) in keys.items():
        layer = key.partition(".")[0]
        if layer in self_s:
            self_s[layer] += own
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "census.graphs": count("census.graphs", 0),
        "census.save_s": total("census.save_census"),
        "census.load_s": total("census.load_census"),
        "census.file_bytes": count("census.file_bytes", 0),
        "graphs.objects": calls("graphs.graph_from_mask") + calls("graphs.decode"),
        "graphs.build_s": total("graphs.graph_from_mask"),
        "graphs.decode_s": total("graphs.decode"),
        "graphs.encode_calls": calls("graphs.encode"),
        "graphs.encode_s": total("graphs.encode"),
        "graphs.kappa_s": total("graphs.kappa"),
        "graphs.bridges_s": total("graphs.bridges"),
        "graphs.addable_calls": calls("graphs.addable_nonedges"),
        "graphs.addable_s": total("graphs.addable_nonedges"),
        "patterns.calls": sum(row[0] for k, row in keys.items() if k.startswith("patterns.")),
        "patterns.copy_s": total("patterns.has_copy"),
        "patterns.component_iso_s": total("patterns.count_components_isomorphic"),
        "patterns.witnesses_s": total("patterns.appearance_witnesses"),
        "patterns.good_triangles_s": total("patterns.count_good_triangles"),
        "lab.events": calls("lab.evaluate_event"),
        "planarity.calls": calls("planarity.is_planar_edges"),
        "planarity.planar": count("planarity.planar", 0),
        "planarity.lr_calls": calls("planarity.left_right"),
        "planarity.lr_s": total("planarity.left_right"),
        "planarity.table_build_s": total("planarity.planar_mask_table"),
        "sampler.steps": calls("sampler.mcmc_step"),
        "sampler.step_s": total("sampler.mcmc_step"),
        "sampler.accepted": count("sampler.accepted", 0),
        "verify.graphs": calls("verify.verify_graph"),
        "verify.checks": count("verify.checks", 0),
        "verify.violations": count("verify.violations", 0),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    inputs = json.loads(args.inputs)
    out: dict = {"error": None}

    # numpy is loaded before the timer starts.  Loading it is most of a cold
    # import and its cost swings with the host's page-fault cost, which the
    # job's own time does not follow: the set-up medians of ten runs moved by
    # half between two sets of runs twenty minutes apart, with equal job
    # times.  It is a dependency outside the library, so set-up here is the
    # library's own import plus its lazy set-up.
    import numpy  # noqa: F401

    start = time.perf_counter()
    planarlab = import_planarlab()
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install(planarlab)
        call = lambda key, fn, *a: tracer.wrap(key, fn)(*a)  # noqa: E731
    else:
        call = lambda key, fn, *a: fn(*a)  # noqa: E731
    lazy_setup(planarlab, workload, inputs, call)
    out["setup_s"] = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps(out))
        return 0

    # Census round trip gate: checksums of the store as built and as loaded.
    # Taken outside the timed job (their cost is subtracted).
    census = planarlab.census
    built: dict[str, str] = {}
    loaded: dict[str, str] = {}
    excluded = [0.0]

    def checksums(store, into):
        start = time.perf_counter()
        for (n, m), crc in store.record_checksums().items():
            into[f"{n},{m}"] = crc
        excluded[0] += time.perf_counter() - start

    save_census, load_census = census.save_census, census.load_census

    def save_and_note(store, path):
        save_census(store, path)
        checksums(store, built)

    def load_and_note(path):
        store = load_census(path)
        checksums(store, loaded)
        return store

    if tracer is not None:
        checksums = tracer.wrap("bench.gate", checksums)
    census.save_census, census.load_census = save_and_note, load_and_note

    main_fn = planarlab.cli.main
    if tracer is not None:
        main_fn = tracer.wrap("cli.main", main_fn)
        before = tracer.layer_self_total()
    codes = []
    captured = io.StringIO()
    clock = RefClock()
    if tracer is None:
        clock.start()
    job_mark = clock.mark()
    try:
        with contextlib.redirect_stdout(captured):
            for argv in job_argvs(workload, inputs, args.workdir, args.tag):
                codes.append(main_fn(argv))
    except Exception:  # reported to the parent, which counts it as a failure
        out["error"] = traceback.format_exc()
    job_end = clock.mark()
    clock.burst(HALF_WINDOW)
    clock.stop()
    wall, ref = clock.span(job_mark, job_end)
    census.save_census, census.load_census = save_census, load_census
    job_wall_s = wall - excluded[0]
    job_s = ref * job_wall_s / wall if wall > 0 else 0.0

    out.update(
        job_s=job_s,
        job_wall_s=job_wall_s,
        codes=codes,
        stdout=captured.getvalue(),
        rss_mb=peak_rss_mb(),
        built_checksums=built,
        loaded_checksums=loaded,
    )
    if tracer is not None:
        tracer.restore()
        job_self = tracer.layer_self_total() - before
        out["layers"] = layer_totals(tracer)
        out["layers"]["trace.job_self_s"] = job_self
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
