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


_CLI = {"cli.parse_config_s", "cli.emit_s", "cli.self_s", "qode.gauss_ode_s"}
_REFERENCE = {"reference.integrate_nonlinear_s", "reference.self_s"}
_PLAN = {"analysis.convergence_report_s", "analysis.rescale_s", "analysis.make_plan_s"}
_EMBED = _PLAN | _REFERENCE | {
    "carleman.build_carleman_s", "carleman.build_z0_s", "integrator.evolve_iterative_s",
}
_ENCODE = {"integrator.build_linear_encoding_s", "integrator.solve_encoding_s"}
# The layers each workload enters.  The tracer patches module attributes,
# so a caller that bound a library function at import time would read 0
# here without failing any other check.
_ENTERED = {
    "reference": _CLI | _REFERENCE,
    "certify": _CLI | _PLAN,
    "embed": _CLI | _EMBED,
    "encode": _CLI | _EMBED | _ENCODE,
}


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
    timed = {
        name for name, metric in result["metrics"].items()
        if name.endswith("_s") and metric["value"] > 0
    }
    assert timed == _ENTERED[workload]
