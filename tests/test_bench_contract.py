"""The benchmark's contract, checked by the ordinary test run.

``bench/run.py`` rejects a run, and prints no result, when a job's verdict
differs from its known answer or when a traced entry point that a workload
must reach records no call.  This test runs the ``suite`` and ``twist``
jobs and the cheapest ``cohomology`` jobs in process, under the
benchmark's tracer, so that either failure shows up here first: the
cheapest ``cohomology`` jobs already reach every entry point that workload
must reach.  It reads ``bench/`` and changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402

CHEAP_COHOMOLOGY_JOBS = ("h2_dim dual.standard.sl2",
                         "solve_coboundary osp12 even",
                         "solve_coboundary dual.standard.sl2 even")


def _calls(tracer: tracing.Tracer) -> dict[str, int]:
    calls = dict(tracer.snapshot()["calls"])
    # The tracer splits rref by its entries; REACH names the entry point.
    calls["linsolve.rref"] = (calls.get("linsolve.rref.const", 0)
                              + calls.get("linsolve.rref.param", 0))
    return calls


def test_bench_jobs_meet_their_known_answers_and_reach_their_entry_points():
    import lieworkbench as lw
    import lieworkbench.cli  # noqa: F401  (the package does not import it)

    tracer = tracing.Tracer()
    tracer.install(lw)
    try:
        reached = {}
        for workload in ("suite", "twist", "cohomology"):
            before = _calls(tracer)
            jobs = workloads.setup(lw, workload, 1)
            if workload == "cohomology":
                jobs = [(name, job) for name, job in jobs
                        if name in CHEAP_COHOMOLOGY_JOBS]
                assert len(jobs) == len(CHEAP_COHOMOLOGY_JOBS)
            for name, job in jobs:
                assert job() == workloads.EXPECTED[workload][name], name
            after = _calls(tracer)
            reached[workload] = {name: after.get(name, 0) - before.get(name, 0)
                                 for name in workloads.REACH[workload]}
    finally:
        tracer.uninstall()
    for workload in reached:
        missing = sorted(n for n, calls in reached[workload].items() if not calls)
        assert not missing, f"{workload} reached no call of {missing}"
