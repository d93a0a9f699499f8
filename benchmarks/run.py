"""orbifold24 benchmark: one workload per invocation, every pass in a fresh process.

    python3 benchmarks/run.py --workload verify-all|twist-probe|explore \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  A pass runs a workload's whole seeded input in one new
single-threaded process (child.py), so none of the package's module-level
caches carry over between passes.  Passes repeat until S seconds have
passed, at least one.  Every operation's output goes through the
correctness gate (gate.py).

--trace 0 prints the end-to-end metrics:
  setup_s      fresh interpreter launch to `import orbifold24.cli` done,
               median of SETUP_LAUNCHES launches
  wall_s       verify-all: launch to verdict; streams: the whole stream
               after set-up; median over passes
  op_p50_ms, op_p90_ms
               per-operation latency over every operation of every pass
  peak_rss_mb  peak resident set of the workload process, median over passes
Timed metrics are scaled to the reference machine speed (class Speed),
because the speed of a shared machine swings within seconds; the raw
values, and the same metrics read from the process's CPU time, are printed
beside them.  --trace 1 runs one untraced and one traced pass and prints
the per-layer metrics (see PER_LAYER and tracer.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the same figures for people, with the environment and sample counts.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import gate
import gen
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
RUNS = os.path.join(BENCH_DIR, ".runs")
SETUP_LAUNCHES = 9
# Median time of child.reference_work() on the machine the baseline was
# recorded on (2 cores, Python 3.11.7); timings are scaled to that speed.
REFERENCE_WORK_S = 0.00028
SPEED_NEIGHBOURS = 15
SPEED_CHUNK_S = 0.25
RUN_BUDGET_S = 170  # a run must end within 180 s; passes past this are killed
# One process and one thread per workload: no BLAS thread pool.  A fixed
# hash seed keeps set and dict iteration orders the same in every pass.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_LATTICE = (
    "identify_type", "count_orthogonal_subsystems", "glue_automorphism_group_order",
    "weight_one_algebra", "build_isometry", "standard_lift", "fixed_subalgebra",
)
# <module>.<function>.<measure> reads the traced pass; the rest are derived.
PER_LAYER = (
    [(f"latticevoa.{fn}.self_s", "s") for fn in _LATTICE]
    + [
        ("exactmath.float_eigen.calls", "count"),
        ("exactmath.float_eigen.self_s", "s"),
        ("schellekens.order3_fixed_options.self_s", "s"),
        ("schellekens.order3_fixed_options.calls", "count"),
        ("schellekens.order3_fixed_options.hit_ratio", "ratio"),
        ("schellekens.admits_order3_with_fixed.calls", "count"),
        ("schellekens.enumerate_candidates.self_s", "s"),
        ("twistbound.min_twisted_weight.self_s", "s"),
        ("twistbound.tuple_space_size.self_s", "s"),
        ("twistbound.tuples", "count"),
        ("affinerep.n_min.calls", "count"),
        ("affinerep.n_min.self_s", "s"),
        ("rootdata.weight_system.calls", "count"),
        ("rootdata.weight_system.self_s", "s"),
        ("affinerep.enumerate_level_weights.hit_ratio", "ratio"),
        ("rootdata.build_root_system.hit_ratio", "ratio"),
        ("qmodular.f_power_at_S.self_s", "s"),
        ("qmodular.derive_dimension_formula.self_s", "s"),
        ("qmodular.f_power_at_S.hit_ratio", "ratio"),
        ("report.Report.to_json.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("process.cpu_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.attributed_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
DERIVED = {"twistbound.tuples", "process.cpu_s"} | {
    n for n, _ in PER_LAYER if n.startswith("trace.")
}


def environment() -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "orbifold24")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


class Speed:
    """Machine speed over time, from a child's reference-work samples.

    At time t it is REFERENCE_WORK_S over the median duration of the
    SPEED_NEIGHBOURS samples nearest t; 1.0 is the reference speed.  A
    duration times the mean speed over its interval is the duration the
    work would have taken at the reference speed.
    """

    def __init__(self, samples) -> None:
        samples = sorted(samples)
        self.times = [start + dur / 2 for start, dur in samples]
        self.durations = [dur for _, dur in samples]

    def at(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - SPEED_NEIGHBOURS // 2, len(self.times) - SPEED_NEIGHBOURS))
        window = self.durations[lo:lo + SPEED_NEIGHBOURS]
        return REFERENCE_WORK_S / statistics.median(window)

    def over(self, start: float, end: float) -> float:
        n = max(1, math.ceil((end - start) / SPEED_CHUNK_S))
        return statistics.fmean(
            self.at(start + (end - start) * (i + 0.5) / n) for i in range(n)
        )


# The clocks a timed metric can be read from; the first is reported.
CLOCKS = ("normalised", "raw", "cpu")


def setup_sample(env: dict) -> dict:
    """Seconds from launch to `import orbifold24.cli` done, per clock."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, SRC], capture_output=True, text=True, env=env,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout)
    raw = probe["t_import"] - start - probe["spent_import"]
    speed = Speed(probe["speed_samples"]).over(start, probe["t_import"])
    return {"normalised": raw * speed, "raw": raw, "cpu": probe["cpu_import"]}


def run_pass(ops, run_dir: str, tag: str, env: dict, deadline: float, targets=None) -> dict:
    """Run every op in one new process; returns its output and usage."""
    job = {"ops": ops, "trace_targets": targets,
           "spans": os.path.join(run_dir, f"{tag}.spans.jsonl")}
    job_path = os.path.join(run_dir, f"{tag}.job.json")
    out_path = os.path.join(run_dir, f"{tag}.out.json")
    err_path = os.path.join(run_dir, f"{tag}.stderr")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, SRC, job_path, out_path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env,
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise RuntimeError(f"pass {tag} killed: the run passed {RUN_BUDGET_S} s")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"pass {tag} exited {proc.returncode}:\n{tail}")
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["spawn"] = spawn
    res["rss_mb"] = usage.ru_maxrss / 1024.0
    res["cpu_s"] = usage.ru_utime + usage.ru_stime
    return res


def op_latencies(res: dict, clock: str) -> list:
    if clock == "raw":
        return [op[1] for op in res["ops"]]
    if clock == "cpu":
        return [op[5] for op in res["ops"]]
    speed = Speed(res["speed_samples"])
    return [op[1] * speed.over(op[3], op[4]) for op in res["ops"]]


def pass_wall(workload: str, res: dict, clock: str) -> float:
    """verify-all: launch to verdict; streams: the stream after set-up."""
    ops = sum(op_latencies(res, clock))
    if workload != gen.VERIFY_ALL:
        return ops
    if clock == "cpu":
        return res["cpu_start"] + ops
    before = res["t_start"] - res["spawn"] - res["spent_start"]
    if clock == "normalised":
        before *= Speed(res["speed_samples"]).over(res["spawn"], res["t_start"])
    return before + ops


def gate_pass(ops, res: dict, failures: list) -> None:
    for argv, (rc, _, out, *_) in zip(ops, res["ops"]):
        reason = gate.check_op(argv, rc, out)
        if reason is not None:
            failures.append(f"{' '.join(argv)}: {reason}")


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, setup, passes, clock: str) -> dict:
    """The end-to-end metrics read from one of CLOCKS."""
    lat = [s * 1000.0 for p in passes for s in op_latencies(p, clock)]
    return {
        "setup_s": statistics.median(s[clock] for s in setup),
        "wall_s": statistics.median(pass_wall(workload, p, clock) for p in passes),
        "op_p50_ms": percentile(lat, 50),
        "op_p90_ms": percentile(lat, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def tuples_scanned(res: dict) -> int:
    """Twisted-minimum tuples: each reported tuple space is scanned per sign."""
    total = 0
    for _, _, out, *_ in res["ops"]:
        for step in json.loads(out).get("steps", []):
            if step["name"] == "tuple space size":
                total += 2 * step["computed"]
    return total


def survivors(res: dict) -> int:
    """Candidates that passed the order-3 filter, over every op of a pass."""
    total = 0
    for _, _, out, *_ in res["ops"]:
        for step in json.loads(out).get("steps", []):
            if step["name"] == "survivors of the order-3 filter":
                total += len(step["computed"])
    return total


def per_layer(traced: dict, traced_wall: float, untraced_wall: float) -> dict:
    funcs = traced["trace"]["functions"]
    wall = traced["t_end"] - traced["t_start"]  # spans include sampler time too
    # Self time in the layers; cli.main and the case drivers only dispatch,
    # so time of a layer function that is not wrapped shows up as theirs.
    layers = sum(st["self_s"] for t, st in funcs.items() if t not in tracer.DRIVERS)
    out = {
        "twistbound.tuples": tuples_scanned(traced),
        "process.cpu_s": traced["cpu_s"],
        "trace.unattributed_s": wall - layers,
        "trace.attributed_ratio": layers / wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for name, _ in PER_LAYER:
        if name in DERIVED:
            continue
        target, measure = name.rsplit(".", 1)
        st = funcs.get(target, {})
        if measure == "hit_ratio":
            looked_up = st.get("hits", 0) + st.get("misses", 0)
            out[name] = st.get("hits", 0) / looked_up if looked_up else 0.0
        else:
            out[name] = st.get(measure, 0)
    return out


def run(workload: str, seed: int, seconds: int, trace: bool, targets=tracer.TARGETS) -> dict:
    run_dir = os.path.join(RUNS, f"{workload}-s{seed}-t{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    ops = gen.make_ops(workload, seed, os.path.join(run_dir, "cases"))
    env = child_env()
    setup_sample(env)  # compiles bytecode; not counted
    failures: list = []
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "ops_per_pass": len(ops), "env": environment()}
    if not trace:
        setup = [setup_sample(env) for _ in range(SETUP_LAUNCHES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(run_pass(ops, run_dir, f"pass{len(passes)}", env, deadline))
            gate_pass(ops, passes[-1], failures)
        values = end_to_end(workload, setup, passes, CLOCKS[0])
        units = dict(END_TO_END)
        info["passes"] = len(passes)
        for clock in CLOCKS[1:]:
            info[clock] = end_to_end(workload, setup, passes, clock)
        info["speed"] = [
            pass_wall(workload, p, "normalised") / pass_wall(workload, p, "raw")
            for p in passes
        ]
    else:
        plain = run_pass(ops, run_dir, "untraced", env, deadline)
        gate_pass(ops, plain, failures)
        traced = run_pass(ops, run_dir, "traced", env, deadline, list(targets))
        gate_pass(ops, traced, failures)
        passes = [plain, traced]
        values = per_layer(
            traced,
            pass_wall(workload, traced, CLOCKS[0]),
            pass_wall(workload, plain, CLOCKS[0]),
        )
        units = dict(PER_LAYER)
        info["missing_targets"] = traced["trace"]["missing"]
        info["bindings"] = traced["trace"]["bindings"]
        info["spans"] = traced["trace"]["spans"]
        info["functions"] = traced["trace"]["functions"]
    attempted = sum(len(p["ops"]) for p in passes)
    info.update(attempted=attempted, failures=failures)
    info["survivors_per_pass"] = [survivors(p) for p in passes]
    info["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    return info


def report(info: dict) -> None:
    env = info["env"]
    print(f"# orbifold24 benchmark: workload={info['workload']} seed={info['seed']} "
          f"seconds={info['seconds']} trace={info['trace']}")
    print(f"# git_rev={env['git_rev']} src_sha256={env['src_sha256']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} loadavg={env['loadavg']}")
    n_ops = info["attempted"]
    if info["trace"]:
        print(f"# one untraced and one traced pass of {info['ops_per_pass']} ops; "
              f"{info['spans']} spans")
        for target in info["missing_targets"]:
            print(f"# missing trace target: {target} (its metrics read 0)")
    else:
        print(f"# {info['passes']} pass(es) of {info['ops_per_pass']} ops; "
              f"setup_s over {SETUP_LAUNCHES} launches; latency over {n_ops} ops")
    for name, m in info["metrics"].items():
        extra = "".join(
            f"   {clock} {info[clock][name]:.6g}" for clock in CLOCKS[1:]
            if clock in info and info[clock][name] != m["value"]
        )
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}{extra}")
    if "speed" in info:
        print(f"# machine speed vs reference, per pass: {[round(x, 3) for x in info['speed']]}")
    if info["workload"] == gen.EXPLORE:
        print(f"# candidates surviving the order-3 filter, per pass: "
              f"{info['survivors_per_pass']}")
    print(f"{'failed_ops':48s} {len(info['failures']):>14d} of {n_ops}")
    for line in info["failures"][:20]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": not info["failures"],
        "attempted": n_ops,
        "failed": len(info["failures"]),
        "metrics": info["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbifold24", "cli.py")):
        print(f"error: no orbifold24 sources under {SRC}", file=sys.stderr)
        return 2
    try:
        info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for target in info.get("missing_targets", []):
        print(f"warning: trace target {target} no longer exists", file=sys.stderr)
    report(info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
