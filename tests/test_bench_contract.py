"""The benchmark's contract, checked by the ordinary test run.

``bench/run.py`` rejects a run, and prints no result, when a job's verdict
differs from its known answer or when a traced entry point that a workload
must reach records no call.  This test runs the ``suite`` and ``twist``
jobs and the cheapest ``cohomology`` jobs in process, under the
benchmark's tracer, so that either failure shows up here first: the
cheapest ``cohomology`` jobs already reach every entry point that workload
must reach.  Those jobs also pin what the tracer reads off each ``rref``
call's dense input, which the ``cohomology`` premise rests on.  It reads
``bench/`` and changes nothing there.
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

# What the tracer reads off the rref calls of those jobs: the split of the
# calls by their entries, the cells and nonzero cells of their dense input
# matrices, and the ranks of their results.  An rref whose input or result
# the tracer can no longer read changes these.
CHEAP_COHOMOLOGY_RREF = {"linsolve.rref.const": 1, "linsolve.rref.param": 3,
                         "linsolve.rref.cells": 1038, "linsolve.rref.nnz": 102,
                         "linsolve.rref.rank": 19}


def _counts(tracer: tracing.Tracer) -> dict[str, float]:
    snapshot = tracer.snapshot()
    counts = {**snapshot["calls"], **snapshot["extra"]}
    # The tracer splits rref by its entries; REACH names the entry point.
    counts["linsolve.rref"] = (counts.get("linsolve.rref.const", 0)
                               + counts.get("linsolve.rref.param", 0))
    return counts


def test_bench_jobs_meet_their_known_answers_and_reach_their_entry_points():
    import lieworkbench as lw
    import lieworkbench.cli  # noqa: F401  (the package does not import it)

    tracer = tracing.Tracer()
    tracer.install(lw)
    try:
        counted = {}
        for workload in ("suite", "twist", "cohomology"):
            before = _counts(tracer)
            jobs = workloads.setup(lw, workload, 1)
            if workload == "cohomology":
                jobs = [(name, job) for name, job in jobs
                        if name in CHEAP_COHOMOLOGY_JOBS]
                assert len(jobs) == len(CHEAP_COHOMOLOGY_JOBS)
            for name, job in jobs:
                assert job() == workloads.EXPECTED[workload][name], name
            after = _counts(tracer)
            counted[workload] = {name: after[name] - before.get(name, 0)
                                 for name in after}
    finally:
        tracer.uninstall()
    for workload, counts in counted.items():
        missing = sorted(n for n in workloads.REACH[workload]
                         if not counts.get(n))
        assert not missing, f"{workload} reached no call of {missing}"
    assert ({name: counted["cohomology"].get(name, 0)
             for name in CHEAP_COHOMOLOGY_RREF} == CHEAP_COHOMOLOGY_RREF)
