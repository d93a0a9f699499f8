"""Run the benchmark over several seeds per workload and record the results.

    python3 benchmarks/record.py LABEL

Runs run.py once per seed (1..SEEDS) and workload with tracing off, then
once per workload with tracing on (seed 1), one run at a time.  Prints, per
workload, each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) and failed_ops
with its base, and writes everything to benchmarks/results/LABEL.json: each
run's result line and the details run.py keeps beside it (the metrics read
from the raw and the CPU clock, the machine speed and surviving candidates
per pass, and for the traced run the per-function trace summary), with the
summary of every metric on each clock.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
SEEDS = 10


# Details of a run kept beside its result line.
DETAILS = ("passes", "speed", "survivors_per_pass", "missing_targets", "functions") + run.CLOCKS[1:]


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run_dir = os.path.join(run.RUNS, f"{workload}-s{seed}-t{trace}")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    result["details"] = {k: info[k] for k in DETAILS if k in info}
    return result


def summarize(runs: list, clock: str) -> dict:
    """Median, quartiles and spread of each metric of runs on one clock."""
    out = {}
    for name, metric in runs[0]["metrics"].items():
        if clock == run.CLOCKS[0]:
            values = [r["metrics"][name]["value"] for r in runs]
        else:
            values = [r["details"][clock][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": metric["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main() -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"env": run.environment(), "run_seconds": seconds, "workloads": {}}
    seeds = list(range(1, SEEDS + 1))
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(invoke(workload, seed, seconds, 0))
            print(f"# {workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        entry = {
            "seeds": seeds,
            "runs": runs,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "summary": {clock: summarize(runs, clock) for clock in run.CLOCKS},
            "traced": invoke(workload, 1, seconds, 1),
        }
        record["workloads"][workload] = entry
        print(f"== {workload}: {SEEDS} runs")
        for clock, summary in entry["summary"].items():
            for name, s in summary.items():
                print(f"{clock:10s} {name:14s} median {s['median']:12.5g} {s['unit']:3s} "
                      f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.3f} "
                      f"(bound {bounds[name]})")
        print(f"{'failed_ops':14s} {entry['failed']} of {entry['attempted']}")
    os.makedirs(os.path.join(run.BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(run.BENCH_DIR, "results", f"{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"# wrote {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
