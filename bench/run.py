"""planarlab benchmark entry point: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a planarlab checkout.  Each rep of the run is a fresh
interpreter (``bench/job.py``) started only after the previous one has
ended, so the job has the machine to itself and pays every lazy set-up a CLI
user pays.  Outputs are gated here, after each rep, outside its timing.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with job
times in reference seconds (``refclock.py``: wall seconds corrected for the
host's speed, measured in the same process as the job); ``--trace 1`` runs
each rep twice, plain and traced, and reports the per-layer metrics in wall
seconds.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a report with sample counts and
the run-identity digests of every rep's output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
from workloads import EVENTS, WORKLOADS, rep_inputs  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
WORKDIR = ".bench_work"
# A fixed string-hash seed, so that dict and set layouts, and with them
# memory use, repeat from rep to rep.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


def run_child(workload, inputs: dict, tag: str, *flags: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload.name,
           "--inputs", json.dumps(inputs), "--tag", tag, "--workdir", WORKDIR, *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return {"error": f"rep {tag} exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or "setup_s" not in result:
        result["error"] = result.get("error") or f"rep {tag} exited {proc.returncode}: {proc.stderr[-2000:]}"
    return result


class Run:
    """Gates and tallies of one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.identity: dict[str, str] = {}
        self.golden = gates.load_golden() if workload.kind == "exact" else None
        self.counts = None
        if workload.kind == "verify":
            sys.path.insert(0, os.path.abspath("src"))
            from planarlab.census import class_counts

            self.counts = class_counts(7)
            self.tally(*gates.gate_class_counts(self.counts))

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, inputs: dict, tag: str, result: dict) -> tuple[int, float]:
        """Gate one rep; returns (class members it covered, its ESS)."""
        w = self.workload
        broken = bool(result.get("error")) or any(code != 0 for code in result.get("codes", []))
        self.tally(1, int(broken))
        if result.get("error"):
            self.errors.append(result["error"])
            return 0, 0.0
        path = os.path.join(WORKDIR, tag)
        if w.kind == "exact":
            events = EVENTS.split(",")
            attempted, failed, members = gates.gate_phase_rows(
                f"{path}-phase.csv", inputs["m_list"], events, self.golden)
            self.tally(attempted, failed)
            self.identity[tag] = gates.digest([f"{path}-phase.csv"])
            return members, float(members)
        if w.kind == "verify":
            members = 0
            for m in inputs["m_list"]:
                self.tally(*gates.gate_verify_class(
                    m, self.counts[m], f"{path}-verify-{m}.csv", result["stdout"],
                    result["built_checksums"], result["loaded_checksums"]))
                members += self.counts[m]
            files = [f"{path}-{part}-{m}.{ext}" for m in sorted(inputs["m_list"])
                     for part, ext in (("census", "txt"), ("verify", "csv"))]
            self.identity[tag] = gates.digest(files)
            return members, float(members)
        attempted, failed, ess = gates.gate_samples(f"{path}-samples.txt", w.n, w.m, w.count)
        self.tally(attempted, failed)
        self.identity[tag] = gates.digest([f"{path}-samples.txt"])
        return w.count, ess


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (none below 20 samples), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else None, "n": n, "p_high": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out["p_high"] = {f"p{p:g}": ordered[min(n - 1, int(n * p / 100))]}
            break
    return out


def end_to_end(run: Run, seed: int, seconds: float) -> tuple[dict, dict]:
    w = run.workload
    reps = rep_inputs(w, seed, w.reps_for(seconds, traced=False))
    setup, rates, rss, job_s, job_wall_s = [], [], [], [], []
    members_total, ess_by_rep = 0, []

    def setup_only(first: int, count: int) -> None:
        for i in range(first, first + count):
            result = run_child(w, reps[i % len(reps)], f"setup{i}", "--setup-only")
            run.tally(1, int(bool(result.get("error"))))
            if result.get("error"):
                run.errors.append(result["error"])
            else:
                setup.append(result["setup_s"])

    # Set-up-only reps go half before and half after the job reps, so that
    # the set-up samples span the run rather than one phase of the host.
    extra = max(0, SETUP_SAMPLES - len(reps))
    setup_only(0, extra // 2)
    for i, inputs in enumerate(reps):
        tag = f"rep{i}"
        result = run_child(w, inputs, tag)
        members, ess = run.check(inputs, tag, result)
        if result.get("error"):
            continue
        setup.append(result["setup_s"])
        rates.append(members / result["job_s"])
        rss.append(result["rss_mb"])
        job_s.append(result["job_s"])
        job_wall_s.append(result["job_wall_s"])
        members_total += members
        ess_by_rep.append((json.dumps(inputs, sort_keys=True), ess))
    setup_only(extra // 2, extra - extra // 2)
    # Summed in a fixed order, so equal chains give equal totals to the bit.
    ess_total = sum(ess for _, ess in sorted(ess_by_rep))
    samples = {"setup_s": setup, "graphs_per_s": rates, "peak_rss_mb": rss,
               "job_s": job_s, "job_wall_s": job_wall_s}
    # Rates are the run's totals over its summed job time: on a host whose
    # speed drifts, a mean over all reps is steadier than the median rep.
    values = {
        "setup_s": summary(setup)["median"],
        "graphs_per_s": members_total / sum(job_s) if job_s else None,
        # ESS summed over the run's chains.  An exact job's output is the
        # class law itself; each member it covers counts as one effective draw.
        "ess_per_s": ess_total / sum(job_s) if job_s else None,
        "peak_rss_mb": summary(rss)["median"],
    }
    detail = {name: summary(v) for name, v in samples.items()}
    detail["ess_total"] = ess_total
    detail["members_total"] = members_total
    return values, detail


RATIOS = {
    "planarity.planar_frac": ("planarity.planar", "planarity.calls"),
    "sampler.steps_per_s": ("sampler.steps", "sampler.step_s"),
    "sampler.accept_rate": ("sampler.accepted", "sampler.steps"),
}


def per_layer(run: Run, seed: int, seconds: float) -> tuple[dict, dict]:
    """Each rep runs plain, then traced on the same inputs; layer totals are
    summed over the traced reps and the plain ones give the overhead."""
    w = run.workload
    totals: dict[str, float] = {}
    plain_s = traced_s = 0.0
    for i, inputs in enumerate(rep_inputs(w, seed, w.reps_for(seconds, traced=True))):
        plain = run_child(w, inputs, f"plain{i}")
        run.check(inputs, f"plain{i}", plain)
        traced = run_child(w, inputs, f"traced{i}", "--traced")
        run.check(inputs, f"traced{i}", traced)
        if plain.get("error") or traced.get("error"):
            continue
        plain_s += plain["job_wall_s"]
        traced_s += traced["job_wall_s"]
        for name, value in traced["layers"].items():
            totals[name] = totals.get(name, 0) + value
    values = dict(totals)
    for name, (num, den) in RATIOS.items():
        values[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.coverage"] = totals.get("trace.job_self_s", 0.0) / traced_s if traced_s else 0.0
    return values, {"plain_job_s": plain_s, "traced_job_s": traced_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    needed = ["BENCHMARK.json", "src/planarlab/cli.py"]
    needed += [gates.GOLDEN] if workload.kind == "exact" else []
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"error: run from the root of a planarlab checkout; missing {missing}",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        run = Run(workload)
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(run, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    missing_values = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing_values:
        run.errors.append(f"no value for {missing_values}")
        run.tally(1, 1)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "detail": detail,
        "error_rate": run.failed / max(1, run.attempted),
        "identity": run.identity,
        "run_digest": gates.digest_text(json.dumps(sorted(run.identity.values()))),
        "errors": [e[-500:] for e in run.errors],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
