"""The bit-stable reports, frozen.

``workbench paper-suite --order 3``, ``workbench catalog`` and ``workbench
run --format structured`` on the benchmark's two definition files must
print exactly
the text kept under ``tests/data/``, whatever the hash seed.  Each command
runs in a fresh interpreter, so no state of the test process reaches it.
This test reads ``bench/data/`` and writes nothing there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

REPORTS = {
    "paper_suite_order3.txt": (["paper-suite", "--order", "3"], 1),
    "catalog.txt": (["catalog"], 0),
    "suite_wb.structured.json": (
        ["run", str(ROOT / "bench" / "data" / "suite.wb"),
         "--format", "structured"], 1),
    "twist_wb.structured.json": (
        ["run", str(ROOT / "bench" / "data" / "twist.wb"),
         "--format", "structured"], 0),
}


@pytest.mark.parametrize("seed", ["0", "1", "7"])
@pytest.mark.parametrize("frozen", sorted(REPORTS))
def test_report_matches_its_frozen_text(frozen, seed):
    argv, exit_code = REPORTS[frozen]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "lieworkbench.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == exit_code, done.stderr
    assert done.stdout == (DATA / frozen).read_text()
