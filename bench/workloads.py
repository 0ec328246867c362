"""The benchmark's workloads: what one repetition runs and how a run is sized.

A repetition ("rep") is one fresh interpreter that sets up, then runs one or
more CLI jobs through ``planarlab.cli.main(argv)``.  A run's work is fixed by
the workload and ``--seconds`` (``reps_for``), never by the clock, so two runs
of the same code with the same seed compute exactly the same thing; the
nominal durations below were measured at the seed commit (Python 3.11,
2-vCPU Intel Xeon) and only size the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EVENTS = "connected,isolated,component:triangle,component:k4,copy:triangle"

# The C7 job (every m of n=7) takes about 85 s, longer than a run, so a rep
# computes the rows of one class per density regime: sparse (7,4), critical
# (7,7), middle (7,12) and saturated (7,15), 383,617 class members.  Every rep
# also pays the full n=7 sweep that ``experiment`` makes whatever its m-list.
# The per-graph cost differs by class (sparse classes cost more), so each run
# computes the same classes; the seed orders them.
C7_CLASSES = (4, 7, 12, 15)

# Dense classes for the census write/read and check battery: (7,14) has
# 40,950 members whose add probes all reach the n=7 table, and (7,15) holds
# the 5,712 triangulations.  (7,13) and below take 25 s or more per class.
VERIFY_CLASSES = (14, 15)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "exact" | "verify" | "mcmc"
    nominal_rep_s: float
    n: int = 7
    m: int = 0
    burn_in: int = 0
    thinning: int = 0
    count: int = 0
    chain_seed_base: int = 0

    def reps_for(self, seconds: float, traced: bool) -> int:
        """Reps in one run.  A traced run does each rep twice (plain, traced)
        and tracing slows a rep by up to about half again."""
        per_rep = self.nominal_rep_s * (2.5 if traced else 1.0)
        return max(1, round(seconds / per_rep))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-phase-n7", "exact", nominal_rep_s=25.0),
        Workload("verify-census-n7", "verify", nominal_rep_s=8.5),
        # Chains start from the fan triangulation prefix (hub degree 99).
        # At (100,100) acceptance is about 0.71, so 1,000 burn-in steps bring
        # the hub to its stationary degree; thinning 40 keeps sample encoding
        # under 5% of the job.
        Workload("mcmc-critical", "mcmc", nominal_rep_s=2.3, n=100, m=100,
                 burn_in=1000, thinning=40, count=50, chain_seed_base=100_000),
        # At (100,290) acceptance is 0.002-0.003: a chain of 4,500 steps makes
        # about 10 accepted swaps, enough that the hub degree moves on every
        # chain seed used here.  The chain does not reach stationarity in any
        # affordable run; ESS/s measures how fast it forgets the start.
        Workload("mcmc-saturated", "mcmc", nominal_rep_s=7.5, n=100, m=290,
                 burn_in=500, thinning=50, count=80, chain_seed_base=200_000),
    )
}


def rep_inputs(workload: Workload, seed: int, reps: int) -> list[dict]:
    """The inputs of each rep of a run, a pure function of the seed.

    exact and verify: the jobs are deterministic; the seed orders the classes.
    mcmc: the chain seeds are a fixed list per workload (ESS estimates from a
    few hundred samples differ by 10-20% between chain seeds, which would
    swamp any bound), and the seed orders them.
    """
    rng = random.Random(seed)
    if workload.kind in ("exact", "verify"):
        out = []
        for _ in range(reps):
            order = list(C7_CLASSES if workload.kind == "exact" else VERIFY_CLASSES)
            rng.shuffle(order)
            out.append({"m_list": order})
        return out
    chains = [workload.chain_seed_base + i for i in range(reps)]
    rng.shuffle(chains)
    return [{"chain_seed": s} for s in chains]


def job_argvs(workload: Workload, inputs: dict, workdir: str, tag: str) -> list[list[str]]:
    """CLI argument vectors of one rep, run in order in one interpreter."""
    if workload.kind == "exact":
        return [[
            "experiment", "--n-list", "7",
            "--m-list", ",".join(str(m) for m in inputs["m_list"]),
            "--events", EVENTS, "--method", "exact",
            "--out", f"{workdir}/{tag}-phase.csv",
        ]]
    if workload.kind == "verify":
        argvs = []
        for m in inputs["m_list"]:
            argvs.append(["enumerate", "--n", "7", "--m", str(m), "--store",
                          "--out", f"{workdir}/{tag}-census-{m}.txt"])
            argvs.append(["verify", "--n", "7", "--m", str(m),
                          "--census", f"{workdir}/{tag}-census-{m}.txt",
                          "--out", f"{workdir}/{tag}-verify-{m}.csv"])
        return argvs
    return [[
        "sample", "--method", "mcmc", "--n", str(workload.n), "--m", str(workload.m),
        "--burnin", str(workload.burn_in), "--thin", str(workload.thinning),
        "--count", str(workload.count), "--seed", str(inputs["chain_seed"]),
        "--out", f"{workdir}/{tag}-samples.txt",
    ]]
