"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

The traced tests run real passes (about a minute in all on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    empty = {"calls": {}, "self_s": {}, "extra": {}}
    printed = {name: unit for name, (_, unit)
               in run.layer_metrics(empty).items()}
    printed["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed


def test_untraced_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(run.END_TO_END)
    meta = json.loads(lines[-2][len("meta "):])
    assert meta["seed"] == 3
    assert meta["workloads"]["suite"]["seed_used"] is False


def test_a_wrong_verdict_is_counted():
    facts = {name: {"facts": facts} for name, facts
             in workloads.EXPECTED["suite"].items()}
    jobs = [{"job": name, **body} for name, body in facts.items()]
    assert run.verdict_errors("suite", {"jobs": jobs}) == []
    jobs[0] = {"job": "paper-suite",
               "facts": {**facts["paper-suite"]["facts"], "red": []}}
    assert len(run.verdict_errors("suite", {"jobs": jobs})) == 1
    jobs[0] = {"job": "paper-suite", "error": "ValueError: boom"}
    assert "raised" in run.verdict_errors("suite", {"jobs": jobs})[0]


def test_a_second_seed_draws_other_cochains():
    import lieworkbench as lw
    first = workloads.cohomology_inputs(lw, 1)
    second = workloads.cohomology_inputs(lw, 2)
    assert [i[:4] for i in first] == [i[:4] for i in second]
    assert all(a[4] != b[4] for a, b in zip(first, second))
    for name, A, parity, _, psi, phi in first:
        assert psi.parity == parity and phi == lw.cohomology.d1(A, psi)


def test_a_second_seed_meets_every_known_answer():
    report = run.run_pass("cohomology", 2, trace=False)
    assert run.verdict_errors("cohomology", report) == []


def test_tracer_rebinds_every_imported_copy():
    import lieworkbench as lw
    import lieworkbench.cli  # noqa: F401
    original = lw.cohomology.solve_coboundary
    tracer = tracing.Tracer()
    tracer.install(lw)
    try:
        wrapped = lw.cohomology.solve_coboundary
        assert wrapped is not original
        assert lw.runner.solve_coboundary is wrapped
        assert lw.suite.solve_coboundary is wrapped
        assert lw.solve_coboundary is wrapped
        assert lw.cli.load is lw.runner.load
    finally:
        tracer.uninstall()
    assert lw.runner.solve_coboundary is original
    assert lw.suite.solve_coboundary is original


def test_exclusive_and_owned_times_partition_the_traced_time():
    tracer = tracing.Tracer()

    def arithmetic():
        time.sleep(0.02)

    poly_mul = tracer._leaf("scalars.poly_mul", arithmetic)
    bracket = tracer._leaf("liealg.bracket", poly_mul)

    def scan():
        time.sleep(0.02)
        bracket()
        poly_mul()

    tracer.span("liealg.verify_jacobi", scan)
    (_, _, _, start, end), = tracer.spans
    exclusive, owned = tracer.exclusive_s, tracer.owned_s
    assert sum(exclusive.values()) == pytest.approx(end - start)
    assert sum(owned.values()) == pytest.approx(end - start)
    assert exclusive["scalars"] >= 0.04
    assert exclusive["liealg"] >= 0.02
    # The scan owns its own arithmetic and the bracket owns the bracket's.
    assert owned["liealg.verify_jacobi"] >= 0.04
    assert owned["liealg.bracket"] >= 0.02
    assert "scalars.poly_mul" not in owned


def _synthetic_traced_pass(workload, exclusive):
    totals = {"calls": {name: 1 for name in workloads.REACH[workload]},
              "self_s": {}, "extra": {}, "exclusive_s": exclusive,
              "owned_s": {}}
    return {"jobs": [], "wall_s": 1.0, "raw_wall_s": 1.0,
            "trace": {"total": totals, "pass": totals}}


def test_a_failing_premise_fails_the_traced_run():
    spent_elsewhere = _synthetic_traced_pass(
        "twist", {"enveloping": 0.4, "scalars": 0.3, "liealg": 0.3})
    with pytest.raises(run.BenchError, match="premise"):
        run.trace_summary("twist", [spent_elsewhere], [spent_elsewhere])
    as_stated = _synthetic_traced_pass(
        "twist", {"enveloping": 0.4, "scalars": 0.5, "liealg": 0.1})
    summary = run.trace_summary("twist", [as_stated], [as_stated])
    assert all(ok for _, ok in summary["premises"])


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_traced_run(workload):
    """Counts repeat exactly, verdicts match, every entry point is reached
    and the workload's premise holds."""
    plain = [run.run_pass(workload, 1, trace=False)]
    traced = [run.run_pass(workload, 1, trace=True) for _ in range(2)]
    first, second = (run.layer_metrics(r["trace"]["total"]) for r in traced)
    counts = [name for name in first if run.is_count(name)]
    assert len(counts) > 20
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    summary = run.trace_summary(workload, plain, traced)
    assert [text for text, ok in summary["premises"] if not ok] == []
    assert run.verdict_errors(workload, plain[0]) == []
