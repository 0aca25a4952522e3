"""The benchmark still runs and its own output checks still pass.

Each workload of ``bench/run.py`` runs for a moment, traced, in a fresh
interpreter.  Its ops are checked against the library's oracles
(``qode.rhs_matrix``, ``rhs_direct``, ``f2_norm_closed_form``), so a
library change that breaks one of them shows up here, not only when the
benchmark is next run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["encode", "embed", "reference", "certify"])
def test_benchmark_workload_runs_and_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.05", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
