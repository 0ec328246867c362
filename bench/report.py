"""Run every workload of BENCHMARK.json, plain and traced, and print every
metric by name with its unit.

    python3 bench/report.py [--seed N] [--out BENCH_tag.json]

Run from the root of a planarlab checkout.  ``--out`` also writes the
results with the git revision, Python version and CPU they were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle
                     if line.startswith("model name")]
        cpu = f"{names[0]} x{len(names)}" if names else cpu
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"git_rev": rev, "python": platform.python_version(), "cpu": cpu}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    results = {"machine": machine(), "seed": args.seed, "workloads": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = results["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: failed\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            entry[f"trace{trace}"] = {"result": result, "report": json.loads(lines[-2])["report"]}
            ok = ok and result["correct"]
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:28s} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps(results["machine"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
