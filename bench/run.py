"""Benchmark of lieworkbench: time to a correct verdict.

    python3 bench/run.py [--workload suite|twist|cohomology|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload (see ``bench/workloads.py``) is a fixed list of jobs.  One
pass runs them in order in a fresh single-threaded child process
(``bench/child.py``); passes run one after another, a closed loop with one
client, until less than half a pass of ``--seconds`` is left.  Every
verdict is compared with a known answer.

With ``--trace 0`` the end-to-end metrics are reported, each the median
over the run's passes:

* ``wall_s``: from the first job's start to the last verdict;
* ``setup_s``: from starting the child process to the first job
  (interpreter start-up, import, catalog construction, input generation);
* ``peak_rss_mb``: the child process's peak resident memory.

``wall_s`` and ``setup_s`` are given at a reference machine speed.  The
speed of a shared machine drifts by tens of percent within seconds, so
each child samples it while it runs, with a fixed probe (``child.py``),
and each pass's times are scaled by ``PROBE_REF_S`` over the probe's
(harmonic) mean time in that pass: the time the pass would have taken on
a machine where the probe takes ``PROBE_REF_S``.  The raw times are printed beside
them as ``raw_wall_s`` and ``raw_setup_s``.

The share of jobs whose verdict is wrong or that raised,
``verdict_error_ratio``, is printed with them; it must be 0.

With ``--trace 1`` the run alternates untraced and traced passes.  The
traced child wraps the public functions of each module (``tracing.py``)
and the per-layer metrics are reported: call counts, self times, the
elimination and PBW-cache counters, ``trace.overhead_s`` (traced minus
untraced ``wall_s``) and a layer-share report: each layer's exclusive
self time as a share of the traced pass's raw wall time, beside the
premise stated for the workload.  A traced run fails if a traced verdict
differs from the untraced one, if an entry point the workload must reach
recorded no call, if two traced passes disagree on a count, or if a
premise does not hold.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``meta``, records the machine, the revision, the seed, the
jobs attempted and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own modules)
from tracing import LAYERS  # noqa: E402

CHILD_TIMEOUT_S = 120

# The probe time of the reference machine speed (see the module docstring).
PROBE_REF_S = 400e-6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed beside the end-to-end metrics and kept in the meta line, not in
# the result line: the unscaled times and the probe time that scales them.
RAW = {"raw_wall_s": "s", "raw_setup_s": "s", "probe_s": "s"}

_COUNTED_AND_TIMED = (
    "scalars.poly_mul", "scalars.poly_add", "scalars.poly_truncate",
    "scalars.ratfunc_arith", "enveloping.tensor_mul", "enveloping.tensor_new",
    "enveloping.uea_mul", "linsolve.rank_at_point", "cohomology.d1",
    "cohomology.d2_residual", "cohomology.mixed_jacobiator",
    "liealg.verify_jacobi", "liealg.bracket", "liealg.bracket_basis",
    "bialgebra.schouten", "bialgebra.ad_action")
_COUNTED = ("scalars.ratfunc_new", "enveloping.normalize_word")
_TIMED = (
    "enveloping.build_twist", "enveloping.cocycle_check",
    "enveloping.universal_R", "enveloping.qybe_check",
    "enveloping.classical_limit", "linsolve.generic_check",
    "linsolve.solve_linear", "cohomology.cocycle_scan",
    "cohomology.compatible_pair", "cohomology.solve_coboundary",
    "cohomology.h2_dim", "dsl.parse", "runner.load",
    *(f"runner.check.{kind}" for kind in (
        "jacobi", "cybe", "mcybe", "cocycle", "compatible", "coboundary",
        "decompose", "twist")),
    "catalog.build",
    *(f"suite.criterion.{n:02d}" for n in range(1, 12)))

# Per-layer metrics that must repeat exactly between traced runs.
COUNT_SUFFIXES = (".calls", ".pairs", ".misses", ".cells", ".nnz", ".rank",
                  "jacobi_triples")

# Each workload's premise, from the reason it was chosen: (text, test on
# the traced pass's shares of wall time, see ``layer_shares``).
PREMISES = {
    "suite": (
        ("scans (liealg, bialgebra, d2_residual, mixed_jacobiator, with "
         "their own coefficient arithmetic) >= 50%",
         lambda share: share["scans"] >= 0.5),),
    "twist": (
        ("enveloping + scalars >= 80%",
         lambda share: share["enveloping"] + share["scalars"] >= 0.8),
        ("linsolve == 0", lambda share: share["linsolve"] == 0)),
    "cohomology": (
        ("linsolve.rref.const_s >= 25%",
         lambda share: share["linsolve.rref.const_s"] >= 0.25),
        ("linsolve.rref.param_s >= 25%",
         lambda share: share["linsolve.rref.param_s"] >= 0.25)),
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


# -- one pass -------------------------------------------------------------------------


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """Run one pass in a fresh child process and return its report."""
    env = dict(os.environ)
    # Fixed string hashing, so set iteration order -- and with it every
    # count -- is the same in every child.
    env["PYTHONHASHSEED"] = "0"
    # Imports read cached bytecode, as an installed program's do; the cache
    # lives in the build directory, so nothing is written under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace))]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report.pop("first_job") - started
    report["raw_wall_s"] = report["wall_s"]
    scale = PROBE_REF_S / report["probe_s"]
    report["setup_s"] = report["raw_setup_s"] * scale
    report["wall_s"] = report["raw_wall_s"] * scale
    return report


def verdict_errors(workload: str, report: dict) -> list[str]:
    """One line per job that raised or whose facts differ from the known
    answer."""
    expected = workloads.EXPECTED[workload]
    errors = []
    for job in report["jobs"]:
        if "error" in job:
            errors.append(f"{job['job']}: raised {job['error']}")
        elif job["facts"] != expected.get(job["job"]):
            errors.append(f"{job['job']}: got {job['facts']}, "
                          f"expected {expected.get(job['job'])}")
    return errors


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(total: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from a traced child's totals."""
    calls, self_s, extra = total["calls"], total["self_s"], total["extra"]
    out: dict[str, tuple[float, str]] = {}
    for name in _COUNTED_AND_TIMED + _COUNTED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in _COUNTED_AND_TIMED + _TIMED:
        out[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    pairs = extra.get("enveloping.tensor_mul.pairs", 0)
    out["enveloping.tensor_mul.pairs"] = (int(pairs), "count")
    out["enveloping.tensor_mul.yield"] = (
        extra.get("enveloping.tensor_mul.out_terms", 0) / pairs if pairs
        else 0.0, "ratio")
    lookups = calls.get("enveloping.normalize_word", 0)
    misses = extra.get("enveloping.normalize_word.misses", 0)
    out["enveloping.normalize_word.misses"] = (int(misses), "count")
    out["enveloping.pbw_hit_ratio"] = (
        (lookups - misses) / lookups if lookups else 0.0, "ratio")
    out["linsolve.rref.calls"] = (calls.get("linsolve.rref.const", 0)
                                  + calls.get("linsolve.rref.param", 0), "count")
    out["linsolve.rref.const_s"] = (self_s.get("linsolve.rref.const", 0.0), "s")
    out["linsolve.rref.param_s"] = (self_s.get("linsolve.rref.param", 0.0), "s")
    for name in ("cells", "nnz", "rank"):
        name = f"linsolve.rref.{name}"
        out[name] = (int(extra.get(name, 0)), "count")
    out["liealg.jacobi_triples"] = (int(extra.get("liealg.jacobi_triples", 0)),
                                    "count")
    return dict(sorted(out.items(),
                       key=lambda item: (LAYERS.index(item[0].split(".")[0]),
                                         item[0])))


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def layer_shares(report: dict) -> dict[str, float]:
    """Shares of a traced pass's raw wall time.

    Each layer's share is its exclusive self time (``tracing.py``), so the
    layers' shares never add up to more than 1.  ``scans`` is the owned
    time of the liealg and bialgebra metrics and of the two scanning
    leaves in cohomology: a scan's share includes the coefficient
    arithmetic it does, and no other layer's work.  The two rref shares
    are the span self times the metrics of the same name report.
    """
    wall = report["raw_wall_s"]
    part = report["trace"]["pass"]
    exclusive, owned, self_s = (part["exclusive_s"], part["owned_s"],
                                part["self_s"])
    share = {layer: exclusive.get(layer, 0.0) / wall for layer in LAYERS}
    share["scans"] = sum(
        seconds for metric, seconds in owned.items()
        if metric.split(".")[0] in ("liealg", "bialgebra")
        or metric in ("cohomology.d2_residual",
                      "cohomology.mixed_jacobiator")) / wall
    for kind in ("const", "param"):
        share[f"linsolve.rref.{kind}_s"] = (
            self_s.get(f"linsolve.rref.{kind}", 0.0) / wall)
    return share


# -- measuring a workload ---------------------------------------------------------------


def _spread(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  [q1 {q1:.4g}, q3 {q3:.4g}]"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds``; return the workload's summary."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(run_pass(workload, seed, trace=False))
        if trace:
            traced.append(run_pass(workload, seed, trace=True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) / 2 > seconds:
            break
    errors = [e for p in plain + traced for e in verdict_errors(workload, p)]
    attempted = sum(len(p["jobs"]) for p in plain + traced)
    summary = {
        "workload": workload, "attempted": attempted, "failed": len(errors),
        "errors": errors, "samples": len(plain),
        "values": {name: [p[name] for p in plain]
                   for name in (*END_TO_END, *RAW)},
    }
    if trace:
        summary.update(trace_summary(workload, plain, traced))
    return summary


def trace_summary(workload: str, plain: list, traced: list) -> dict:
    for report in traced:
        if report["jobs"] != plain[0]["jobs"]:
            raise BenchError(f"{workload}: traced verdicts differ from "
                             "untraced ones")
    per_pass = [layer_metrics(r["trace"]["total"]) for r in traced]
    for other in per_pass[1:]:
        changed = [n for n in per_pass[0]
                   if is_count(n) and other[n] != per_pass[0][n]]
        if changed:
            raise BenchError(f"{workload}: counts differ between traced "
                             f"passes: {changed}")
    calls = traced[0]["trace"]["total"]["calls"]
    reached = {name: calls.get(name, 0)
               for name in workloads.REACH[workload]}
    reached["linsolve.rref"] = (calls.get("linsolve.rref.const", 0)
                                + calls.get("linsolve.rref.param", 0))
    missing = sorted(n for n in workloads.REACH[workload] if not reached[n])
    if missing:
        raise BenchError(f"{workload}: traced entry points recorded no "
                         f"call: {missing}")
    metrics = {name: (statistics.median([m[name][0] for m in per_pass]), unit)
               for name, (_, unit) in per_pass[0].items()}
    overhead = (statistics.median([r["wall_s"] for r in traced])
                - statistics.median([r["wall_s"] for r in plain]))
    metrics["trace.overhead_s"] = (overhead, "s")
    shares = [layer_shares(r) for r in traced]
    share = {name: statistics.median([s[name] for s in shares])
             for name in shares[0]}
    premises = [(text, test(share)) for text, test in PREMISES[workload]]
    failing = [text for text, ok in premises if not ok]
    if failing:
        raise BenchError(f"{workload}: premise does not hold: {failing}; "
                         f"shares {share}")
    return {"layer_metrics": metrics, "shares": share, "premises": premises,
            "traced_samples": len(traced)}


# -- reporting ----------------------------------------------------------------------------


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report_lines(summary: dict, seed: int) -> list[str]:
    w = summary["workload"]
    seeded = workloads.SEEDED[w]
    lines = [f"workload {w}  (seed {seed}"
             + ("" if seeded else ", fixed inputs: the seed is not used")
             + f")  why: {workloads.WHY[w]}"]
    for name, unit in {**END_TO_END, **RAW}.items():
        values = summary["values"][name]
        lines.append(f"  {name:<20} {statistics.median(values):>10.5g} "
                     f"{unit:<5} median of {len(values)}{_spread(values)}")
    ratio = summary["failed"] / summary["attempted"]
    lines.append(f"  {'verdict_error_ratio':<20} {ratio:>10.4f}       "
                 f"{summary['failed']} of {summary['attempted']} jobs")
    lines.extend(f"  WRONG {e}" for e in summary["errors"][:10])
    if "shares" in summary:
        lines.append(f"  layer shares of the traced pass's wall time (median "
                     f"of {summary['traced_samples']}; exclusive self time)")
        for name, value in summary["shares"].items():
            lines.append(f"    {name:<24} {value:7.1%}")
        for text, ok in summary["premises"]:
            lines.append(f"  premise {text}: {'holds' if ok else 'FAILS'}")
        for name, (value, unit) in summary["layer_metrics"].items():
            lines.append(f"    {name:<36} {value:>16.6g} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time lieworkbench to a correct verdict.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "lieworkbench" / "__init__.py").is_file():
        print(f"bench: no lieworkbench source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WHY) if args.workload == "all" else [args.workload]
    try:
        summaries = [measure(w, args.seed, args.seconds, bool(args.trace))
                     for w in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        if args.trace:
            for name, (value, unit) in s["layer_metrics"].items():
                metrics[prefix + name] = {"value": value, "unit": unit}
        else:
            for name, unit in END_TO_END.items():
                metrics[prefix + name] = {
                    "value": statistics.median(s["values"][name]),
                    "unit": unit}
        for line in report_lines(s, args.seed):
            print(line)
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "probe_ref_s": PROBE_REF_S,
        "trace": args.trace,
        "workloads": {s["workload"]: {
            "seed_used": workloads.SEEDED[s["workload"]],
            "jobs_attempted": s["attempted"],
            "samples": s["samples"],
            "traced_samples": s.get("traced_samples", 0),
            "verdict_error_ratio": s["failed"] / s["attempted"],
            **{name: statistics.median(s["values"][name]) for name in RAW},
        } for s in summaries},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
