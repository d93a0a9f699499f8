"""Self-check of the benchmark on tiny inputs (about half a minute).

    python3 benchmarks/selfcheck.py

Shows that BENCHMARK.json and run.py name the same metrics with the same
units, that every metric is printed with its unit in both modes, that the
gate counts a deliberately wrong expectation as a failed operation (traced
runs included), that the candidates gate rejects real outputs against a
wrong target or dimension, and that the tracer patches functions in every
namespace that binds them, reports a vanished target by name instead of
crashing, and attributes less time to the layers when a layer function is
not wrapped.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import gate
import gen
import run
import tracer

SEED = 3
failures = []


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def shrink() -> None:
    """Tiny streams: a dozen twist cases, two explore dimensions."""
    gen.TWIST_CASES = 12
    gen.TWIST_LARGE = (200,)
    gen.EXPLORE_DIMS = (36, 72)  # a chain query at 72 has a survivor
    gen.SMALL_FIXED_PER_DIM = 1
    gen.DIMENSION_TRUNCS = (12,)
    gen.DIMENSION_QUERIES_PER_TRUNC = 2


def printed(info: dict) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(info)
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics_printed(info: dict, declared: list, mode: str) -> None:
    lines, last = printed(info)
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"{mode}: last line has exactly correct/attempted/failed/metrics")
    for m in declared:
        name, unit = m["name"], m["unit"]
        row = [ln for ln in lines[:-1] if ln.split()[:1] == [name]]
        check(len(row) == 1 and row[0].split()[2] == unit,
              f"{mode}: {name} printed with unit {unit}")
        value = last["metrics"].get(name, {})
        check(value.get("unit") == unit and isinstance(value.get("value"), (int, float)),
              f"{mode}: {name} in the result line with unit {unit}")
    check(any(ln.startswith("failed_ops") and f"of {last['attempted']}" in ln for ln in lines),
          f"{mode}: failed_ops printed with its base")


def regate_candidates(argv: list, rc: int, text: str, key: str, change) -> bool:
    """Whether the candidates gate fails an output once argument key is changed."""
    bad = [f"{key}={change(a.split('=', 1)[1])}" if a.startswith(key + "=") else a
           for a in argv]
    return gate.check_candidates(rc, text, bad) is not None


def main() -> int:
    bench = load(os.path.join(run.ROOT, "BENCHMARK.json"))
    e2e = bench["end_to_end"]
    layers = bench["per_layer"]
    check([(m["name"], m["unit"]) for m in e2e] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in layers] == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.PER_LAYER")
    for name, _ in run.PER_LAYER:
        if name not in run.DERIVED:
            check(name.rsplit(".", 1)[0] in tracer.TARGETS, f"{name} has a trace target")

    shrink()
    info = run.run(gen.TWIST_PROBE, SEED, 1, False)
    check(not info["failures"], "tiny twist-probe passes the gate")
    check_metrics_printed(info, e2e, "trace 0")

    bogus = ("latticevoa.no_such_function", "no_such_module.f", "report.Report.no_such_method")
    info = run.run(gen.EXPLORE, SEED, 1, True, targets=tracer.TARGETS + bogus)
    check(not info["failures"], "tiny traced explore passes the gate")
    check(info["missing_targets"] == list(bogus), "vanished trace targets reported by name")
    lines, _ = printed(info)
    check(all(any(t in ln for ln in lines) for t in bogus), "missing targets printed")
    check_metrics_printed(info, layers, "trace 1")
    check(info["bindings"]["twistbound.min_twisted_weight"] >= 3,
          "min_twisted_weight patched in twistbound, cases and cli")
    check(info["bindings"]["exactmath.float_eigen"] >= 2,
          "float_eigen patched in exactmath and latticevoa")
    check(all(n > 0 for n in info["survivors_per_pass"]),
          "tiny explore has candidates that survive the order-3 filter")

    # A layer function left unwrapped moves its time out of the layers.
    removed = "twistbound.min_twisted_weight"
    full = run.run(gen.TWIST_PROBE, SEED, 1, True)
    less = run.run(gen.TWIST_PROBE, SEED, 1, True,
                   targets=tuple(t for t in tracer.TARGETS if t != removed))
    ratio = [i["metrics"]["trace.attributed_ratio"]["value"] for i in (full, less)]
    unattributed = [i["metrics"]["trace.unattributed_s"]["value"] for i in (full, less)]
    check(ratio[1] < ratio[0] and unattributed[1] - unattributed[0]
          >= 0.5 * full["functions"][removed]["self_s"],
          f"unwrapping {removed} lowers trace.attributed_ratio "
          f"({ratio[0]:.3f} -> {ratio[1]:.3f})")

    # A wrong expectation must count as failed operations, traced or not.
    right = gate.check_dimension.__defaults__
    gate.check_dimension.__defaults__ = ((4, -36, -12, 25),)
    try:
        for trace in (False, True):
            info = run.run(gen.EXPLORE, SEED, 1, trace)
            _, last = printed(info)
            passes = 2 if trace else info["passes"]
            n_dim = passes * gen.DIMENSION_QUERIES_PER_TRUNC * len(gen.DIMENSION_TRUNCS)
            check(last["failed"] == n_dim and last["correct"] is False,
                  f"trace {int(trace)}: wrong dimension coefficients fail {n_dim} ops")
    finally:
        gate.check_dimension.__defaults__ = right

    # The twist-probe outputs of the first run, re-gated against shifted h.
    run_dir = os.path.join(run.RUNS, f"twist-probe-s{SEED}-t0")
    out = load(os.path.join(run_dir, "pass0.out.json"))
    wrong = 0
    for (rc, _, text, *_), case in zip(out["ops"], gen.twist_cases(SEED)):
        check(gate.check_twist(rc, text, case) is None, f"twist gate accepts {case['id']}")
        case["h"] = [[str(gate.Q(c) + 1) for c in h] for h in case["h"]]
        wrong += gate.check_twist(rc, text, case) is not None
    check(wrong == len(out["ops"]), "twist gate rejects every op against a shifted h")

    # The explore outputs of the untraced run, re-gated against a wrong
    # fixed type and a wrong dimension.
    run_dir = os.path.join(run.RUNS, f"explore-s{SEED}-t0")
    ops = load(os.path.join(run_dir, "pass0.job.json"))["ops"]
    out = load(os.path.join(run_dir, "pass0.out.json"))
    survived = listed = wrong_fixed = wrong_dim = 0
    for argv, (rc, _, text, *_) in zip(ops, out["ops"]):
        if argv[0] != "candidates":
            continue
        steps = {s["name"]: s["computed"] for s in json.loads(text)["steps"]}
        survived += bool(steps["survivors of the order-3 filter"])
        listed += bool(steps["candidates"])
        wrong_fixed += regate_candidates(argv, rc, text, "--fixed", lambda v: v + " A1,1")
        wrong_dim += regate_candidates(argv, rc, text, "--dim", lambda v: str(int(v) + 12))
    check(survived > 0 and wrong_fixed == survived,
          f"candidates gate rejects all {survived} outputs with survivors against a wrong fixed type")
    check(listed > 0 and wrong_dim == listed,
          f"candidates gate rejects all {listed} outputs with candidates against a wrong dimension")

    report = {"verdict": "pass", "steps": [{"verdict": v} for v, n in
              gate.VERIFY_ALL_COUNTS.items() for _ in range(n)]}
    text = json.dumps(report)
    check(gate.check_verify_all(0, text) is None, "verify-all gate accepts 334/13/2")
    check(gate.check_verify_all(0, text, {**gate.VERIFY_ALL_COUNTS, "pass": 335}) is not None,
          "verify-all gate rejects a wrong step-count expectation")
    check(gate.check_verify_all(1, text) is not None, "verify-all gate rejects exit code 1")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
