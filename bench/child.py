"""One pass of one workload, in a fresh single-threaded process.

Run by ``bench/run.py``; prints one JSON object on its last stdout line:
the monotonic clock reading when the first job started (the parent turns
it into the set-up time), the pass's wall time, the process's peak
resident memory, the speed probe's mean time, each job's verdict facts
or error and, when traced, the tracer's totals and spans.

The speed probe measures how fast the machine runs while the process
does.  From the child's first statement to its last verdict, a timer
signal every ``PROBE_INTERVAL_S`` of wall time runs a fixed piece of
pure-Python work that uses no lieworkbench code (``probe``) and records
how long it took.  The child reports the harmonic mean of these times:
the process ran at a speed proportional to 1 / (probe time) during each
interval, so scaling the pass's time by the mean of that speed over
equal intervals gives the time it would have taken at a steady speed.
The probe costs about 1% of the pass, the same on every revision of the
program.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402


def _delta(after: dict, before: dict) -> dict:
    return {kind: {name: value - before[kind].get(name, 0)
                   for name, value in table.items()}
            for kind, table in after.items()}


PROBE_INTERVAL_S = 0.05

_probe_s: list[float] = []


def probe(*_) -> None:
    """A fixed piece of dictionary, tuple and rational work, timed."""
    start = time.perf_counter()
    table = {}
    for i in range(150):
        key = (i % 11, i & 3)
        table[key] = table.get(key, 0) + Fraction(i % 7 - 3, 1 + i % 5)
    _probe_s.append(time.perf_counter() - start)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    import lieworkbench as lw
    import lieworkbench.cli  # noqa: F401  (not imported by the package)
    if SRC not in Path(lw.__file__).resolve().parents:
        print(f"lieworkbench imported from {lw.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lw)
    jobs = workloads.setup(lw, args.workload, args.seed)

    probe()  # at least one sample, however short the run
    first_job = time.monotonic()
    before = tracer.snapshot() if tracer else None
    start = time.perf_counter()
    results = []
    for name, job in jobs:
        try:
            facts = tracer.span("bench.job", job) if tracer else job()
        except Exception as exc:  # a job that raises is a wrong verdict
            results.append({"job": name, "error": "".join(
                traceback.format_exception_only(type(exc), exc)).strip()})
        else:
            results.append({"job": name, "facts": facts})
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)

    out = {
        "first_job": first_job,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s": statistics.harmonic_mean(_probe_s),
        "jobs": results,
    }
    if tracer:
        tracer.check_spans()
        total = tracer.snapshot()
        out["trace"] = {"total": total, "pass": _delta(total, before),
                        "spans": tracer.spans}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
