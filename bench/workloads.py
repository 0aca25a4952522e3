"""The four benchmark workloads: config, generated input, output checks.

Each workload drives one CLI mode on one config, chosen so that one hot
layer does most of the work there and little or none elsewhere:

* ``encode``  -- one-shot linear encoding (sparse Taylor powers inside L);
* ``embed``   -- Kronecker-lift assembly plus Taylor stepping, encoding off;
* ``reference`` -- RK4 reference, dominated by the O(nnz F2) quadratic term;
* ``certify`` -- the R < 1 certificate's power iterations, on F2.

The workload seed reaches the program only through ``--seed`` (power
iteration start vectors) and, for ``reference``, the generated initial
state.  ``encode`` and ``embed`` keep the fixed two-beam state, so a seed
cannot change their plan.  The checks run outside the timed region; a
check that fails makes the op a failed op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from vlasov_carleman import analysis, qode

_ENCODE = """\
[grid]
n_x = 2
n_v = 4
[plasma]
normalized = true
nu0 = 8
h_coll = quadratic
[time]
t_final = 0.05
eps_q = 0.5
use_l1_f1 = true
[solver]
route = both
[output]
formats = json
"""

_EMBED = """\
[grid]
n_x = 3
n_v = 4
[plasma]
normalized = true
nu0 = 40
h_coll = quadratic
[time]
t_final = 0.05
eps_q = 0.5
use_l1_f1 = true
[solver]
route = stepping
nnz_budget = 20000000
[output]
formats = json
"""

_REF_GRID = {"n_x": 108, "n_v": 10, "x_max": 1.0, "v_max": 4.0, "ncal": math.sqrt(math.pi), "b": 1.0}

_REFERENCE = f"""\
[grid]
n_x = {_REF_GRID["n_x"]}
n_v = {_REF_GRID["n_v"]}
x_max = {_REF_GRID["x_max"]!r}
v_max = {_REF_GRID["v_max"]!r}
[plasma]
normalized = true
ncal = {_REF_GRID["ncal"]!r}
b = {_REF_GRID["b"]!r}
nu0 = 10
h_coll = none
[system]
maxwellian_normalization = unit_mass
[initial]
kind = csv
csv_path = initial.csv
[reference]
steps = 100
order = 4
[output]
formats = json, csv
"""

# F2's norm, not F1's: F1's exact norm converges only on tiny grids
# (70,000 steps of an 8x8 product at 2x4, the cap beyond), and a loop of
# such steps is interpreter-bound, the work whose speed drifts most on a
# shared virtual machine (NOTES.md, "Left out on purpose").  F2 at 32x8
# is a 256 x 65,536 operator, so each power-iteration step streams
# vectors instead.
_CERTIFY = """\
[grid]
n_x = 32
n_v = 8
[plasma]
normalized = true
nu0 = 10
h_coll = none
[time]
t_final = 0.05
eps_q = 0.5
use_l1_f1 = true
g_u_estimate = maxwellian
[output]
formats = json
"""

_REL_TOL = 1.0e-8


def _close(value, ref, tol) -> bool:
    return value is not None and abs(value - ref) <= tol * abs(ref)


def _reference_initial(seed: int) -> np.ndarray:
    """Unit-mass Maxwellian on every x-line times (1 + 0.1 N(0, 1)).

    Built from the grid definition (v_j = -v_max + (j-1) dv with
    dv = 2 v_max / (n_v - 1)), independently of the library.
    """
    g = _REF_GRID
    dv = 2.0 * g["v_max"] / (g["n_v"] - 1)
    v = -g["v_max"] + dv * np.arange(g["n_v"])
    w = np.exp(-g["b"] * v * v)
    maxwellian = g["ncal"] / (g["x_max"] * dv) * w / w.sum()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((g["n_x"], g["n_v"]))
    return maxwellian[None, :] * (1.0 + 0.1 * noise)


def _prepare_reference(workdir: Path, seed: int) -> None:
    np.savetxt(workdir / "initial.csv", _reference_initial(seed), delimiter=",", fmt="%.17e")


def _check_compare(cfg, report, out_dir) -> list[str]:
    rel = report["results"]["comparison"]["rel_l2"]
    if not rel <= cfg.eps_q / 2.0:
        return [f"rel_l2 {rel} above eps_q/2 = {cfg.eps_q / 2.0}"]
    return []


def _check_encode(cfg, report, out_dir) -> list[str]:
    problems = _check_compare(cfg, report, out_dir)
    gap = report["results"].get("stepping_vs_encoding_rel")
    if gap is None or not gap <= 1.0e-8:
        problems.append(f"stepping_vs_encoding_rel {gap} above 1e-8")
    return problems


def _check_reference(cfg, report, out_dir) -> list[str]:
    problems = []
    evals = report["results"]["rhs_evals"]
    if evals != 4 * cfg.reference_steps:
        problems.append(f"rhs_evals {evals} != 4 * steps = {4 * cfg.reference_steps}")
    f = np.loadtxt(out_dir / "state_reference.csv", delimiter=",")
    if f.shape != (cfg.grid.n_x, cfg.grid.n_v) or not np.all(np.isfinite(f)):
        return problems + [f"final state has shape {f.shape} or is not finite"]
    ode = qode.gauss_ode(cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization)
    direct = qode.rhs_direct(cfg.params, cfg.grid, f, normalization=cfg.maxwellian_normalization)
    matrix = qode.rhs_matrix(ode, f.reshape(-1))
    err = np.linalg.norm(matrix - direct.reshape(-1)) / np.linalg.norm(direct)
    if not err <= 1.0e-12:
        problems.append(f"rhs_matrix vs rhs_direct relative error {err:.3e} above 1e-12")
    return problems


def _check_certify(cfg, report, out_dir) -> list[str]:
    block = report["analysis"]
    if not block["feasible"]:
        return [f"verdict {block['verdict']!r} is not feasible"]
    problems = []
    ode = qode.gauss_ode(cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization)
    f1 = ode.f1.toarray()
    if not block["norms"]["F1"] >= np.linalg.norm(f1, 2):
        problems.append(f"||F1|| bound {block['norms']['F1']} is below the dense 2-norm")
    checks = (
        ("||F1|| bound", block["norms"]["F1"], float(np.abs(f1).sum(axis=0).max())),
        ("mu", block["mu"], -float(cfg.params.nu_values(cfg.grid).min())),
        ("||F2||", block["norms"]["F2"], analysis.f2_norm_closed_form(cfg.params, cfg.grid)),
    )
    for what, value, ref in checks:
        if not _close(value, ref, _REL_TOL):
            problems.append(f"{what} = {value} differs from {ref} by more than {_REL_TOL} relative")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    ini: str
    check: Callable
    hot_spans: tuple[str, ...]  # the layer this workload exists to load
    prepare: Callable | None = None

    def write_inputs(self, workdir: Path, seed: int) -> Path:
        """Write the config (and any generated input) for one op."""
        workdir.mkdir(parents=True, exist_ok=True)
        if self.prepare is not None:
            self.prepare(workdir, seed)
        path = workdir / "run.ini"
        path.write_text(self.ini)
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "encode", "compare", _ENCODE, _check_encode,
            ("integrator.build_linear_encoding", "integrator.solve_encoding"),
        ),
        Workload(
            "embed", "compare", _EMBED, _check_compare,
            ("carleman.build_carleman", "integrator.evolve_iterative"),
        ),
        Workload(
            "reference", "run-reference", _REFERENCE, _check_reference,
            ("qode.rhs_matrix",), _prepare_reference,
        ),
        Workload("certify", "analyze", _CERTIFY, _check_certify, ("analysis.spectral_norm",)),
    )
}
