"""One workload process: import the package, run CLI invocations, report.

    python3 child.py SRC_DIR         set-up probe: print when `import
                                     orbifold24.cli` was done, as JSON
    python3 child.py SRC_DIR JOB OUT

JOB is a JSON object: "ops", a list of argument vectors for
`orbifold24.cli.main`, and for a traced pass "trace_targets" (see
tracer.py) and "spans", the file that receives every span.  The ops run in
this one process, in order, with standard output captured.  OUT receives
the exit code, latency, output, start and end time and CPU time of every
operation, the times at which the import was done and the pass started and
ended, the process's CPU time at the first two, the machine-speed samples
and, when traced, a per-function summary.  Nothing else is printed, and
the only thread is the main one.

All times are time.monotonic(), one clock for every process on Linux.  A
SIGALRM handler times a fixed slice of reference work every
SAMPLE_PERIOD_S from launch on; run.py turns those samples into the
machine's speed at each moment.  The handler's own time is counted in
`spent` and left out of every reported duration, CPU times included.
"""

import signal
import sys
import time
from fractions import Fraction

SAMPLE_PERIOD_S = 0.02
SETUP_SAMPLES = 15


def reference_work() -> int:
    """A fixed slice of pure-Python work in the package's idiom (Fraction
    arithmetic, tuple keys, dict stores)."""
    acc, seen = Fraction(0), {}
    for i in range(1, 40):
        acc += Fraction(i, i + 2) * Fraction(2, 3)
        seen[(i, acc.denominator % 97)] = acc
    return len(seen)


def time_reference_work() -> list:
    """[start, seconds] of one reference_work() call."""
    start = time.monotonic()
    reference_work()
    return [start, time.monotonic() - start]


class SpeedSampler:
    """Times reference_work() every SAMPLE_PERIOD_S of wall time.

    The handler runs in the main thread between bytecodes, so no thread is
    added.
    """

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        self.samples.append(time_reference_work())
        self.spent += time.monotonic() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


SAMPLER = SpeedSampler()
SAMPLER.start()
sys.path.insert(0, sys.argv[1])
import orbifold24.cli as cli  # noqa: E402

T_IMPORT = time.monotonic()
CPU_IMPORT = time.process_time()
SPENT_IMPORT = SAMPLER.spent

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402


def run_ops(ops, tracer):
    results = []
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        spent = SAMPLER.spent
        cpu, start = time.process_time(), time.monotonic()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        end, cpu = time.monotonic(), time.process_time() - cpu
        spent = SAMPLER.spent - spent
        results.append([rc, end - start - spent, buf.getvalue(), start, end, cpu - spent])
    return results


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        SAMPLER.stop()
        print(f"orbifold24 imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    out = {"t_import": T_IMPORT, "spent_import": SPENT_IMPORT,
           "cpu_import": CPU_IMPORT - SPENT_IMPORT}
    if len(sys.argv) == 2:
        SAMPLER.stop()
        samples = SAMPLER.samples + [time_reference_work() for _ in range(SETUP_SAMPLES)]
        print(json.dumps(dict(out, speed_samples=samples)))
        return 0
    job_path, out_path = sys.argv[2], sys.argv[3]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace_targets") is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(job["trace_targets"])
    out["t_start"], out["spent_start"] = time.monotonic(), SAMPLER.spent
    out["cpu_start"] = time.process_time() - SAMPLER.spent
    results = run_ops(job["ops"], tracer)
    out["t_end"], out["spent_end"] = time.monotonic(), SAMPLER.spent
    SAMPLER.stop()
    out["speed_samples"] = SAMPLER.samples + [time_reference_work()]
    out["ops"] = results
    out["trace"] = tracer.summary() if tracer else None
    if tracer is not None:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
