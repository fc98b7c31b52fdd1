"""The bit-stable reports, frozen.

``workbench paper-suite --order 3`` and ``--order 5``, ``workbench
catalog`` and ``workbench run --format structured`` on the benchmark's two
definition files must print exactly the text kept under ``tests/data/``,
whatever the hash seed.  So must :func:`cohomology_report`, this module
run as a script: ``h2_dim`` of every catalog algebra of dimension at most
9, and ``solve_coboundary`` over every ordered pair of them that shares a
basis.  Each report runs in a fresh interpreter, so no state of the test
process reaches it.  This test reads ``bench/data/`` and writes nothing
there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
CLI = ["-m", "lieworkbench.cli"]

REPORTS = {
    "paper_suite_order3.txt": ([*CLI, "paper-suite", "--order", "3"], 1),
    "paper_suite_order5.txt": ([*CLI, "paper-suite", "--order", "5"], 1),
    "catalog.txt": ([*CLI, "catalog"], 0),
    "suite_wb.structured.json": (
        [*CLI, "run", str(ROOT / "bench" / "data" / "suite.wb"),
         "--format", "structured"], 1),
    "twist_wb.structured.json": (
        [*CLI, "run", str(ROOT / "bench" / "data" / "twist.wb"),
         "--format", "structured"], 0),
    "cohomology.txt": ([str(Path(__file__).resolve())], 0),
}


def cohomology_report() -> str:
    """h2_dim of each catalog algebra of dimension at most 9 (or the error
    it raises), then, for each
    ordered pair (A, B) of them on one basis, solve_coboundary(A, B): its
    status, rank pair, assumptions, witness and obstruction, and the table
    lines of psi and of d1(psi)."""
    from lieworkbench.catalog import catalog_entries, catalog_get
    from lieworkbench.cohomology import d1, h2_dim, solve_coboundary

    algebras = [(entry.name, catalog_get(entry.name))
                for entry in catalog_entries() if entry.kind == "algebra"]
    algebras = [(name, A) for name, A in algebras if A.dim <= 9]
    lines = []
    for name, A in algebras:
        try:
            lines.append(f"h2_dim {name}: {h2_dim(A)}")
        except ValueError as exc:  # a bracket that fails Jacobi
            lines.append(f"h2_dim {name}: ValueError: {exc}")
    for a, A in algebras:
        for b, B in algebras:
            if A.basis != B.basis:
                continue
            outcome = solve_coboundary(A, B)
            lines.append(f"solve_coboundary {a} {b}: {outcome.status}, rank "
                         f"{outcome.rank}, augmented {outcome.rank_augmented}")
            lines.append(f"  assumptions {outcome.assumptions}")
            lines.append(f"  witness {outcome.witness}")
            lines.append(f"  obstruction {outcome.obstruction}")
            if outcome.psi is not None:
                lines.extend(f"  psi {line}" for line in outcome.psi.table_lines())
                lines.extend(f"  d1 {line}"
                             for line in d1(A, outcome.psi).table_lines())
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("seed", ["0", "1", "7"])
@pytest.mark.parametrize("frozen", sorted(REPORTS))
def test_report_matches_its_frozen_text(frozen, seed):
    argv, exit_code = REPORTS[frozen]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == exit_code, done.stderr
    assert done.stdout == (DATA / frozen).read_text()


if __name__ == "__main__":
    sys.stdout.write(cohomology_report())
