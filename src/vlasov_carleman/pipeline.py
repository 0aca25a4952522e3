"""The CLI's modes: model, certificate, plan, embedding, evolution, reference.

Every report carries an ``analysis`` block made one way, by the null
template ``_analysis_block``.  The gauss modes are stages over one run
record: ``_certify`` makes it, ``_STAGES`` lists the stages each mode
runs after it (plan, build, account, embed, reference, evolve,
compare), and ``_run_gauss`` runs them in order and fills that block
once.

Each runner takes a validated ``cli.RunConfig`` and returns (report,
exit code, artifacts or None); ``cli.run`` dispatches through
``_RUNNERS``, stamps the report and writes it.  This module loads scipy
through the library modules, so the cli imports it only in ``run``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import analysis, carleman, integrator, qode, reference
from .physics import BeamSpec, load_initial_csv

if TYPE_CHECKING:  # annotations only: cli imports this module in run
    from .cli import RunConfig

__all__ = ["run_analyze", "run_feasibility", "run_reference_mode", "run_sweep"]


# ----------------------------------------------------------------------
# shared pieces


def _system(cfg: RunConfig) -> tuple[qode.QuadraticODE, np.ndarray]:
    """The gauss ODE of the configured grid and plasma, and its initial state."""
    ode = qode.gauss_ode(cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization)
    if cfg.initial_kind == "csv":
        return ode, load_initial_csv(cfg.initial_csv, cfg.grid)
    return ode, cfg.params.two_beam_initial(cfg.grid, BeamSpec(j_beam=cfg.j_beam))


# The ODE's factors, as an error names the first that is not finite
_FACTORS = (
    ("the self-field prefactor", "f2_pref"),
    ("the Krook rate", "f1a"),
    ("the streaming coefficient v/(2 dx)", "f1_stream"),
    ("the background-field coefficient", "f1_field"),
    ("the collision source F0", "f0"),
)


def _integrate_reference(
    cfg: RunConfig, ode, u_in, what: str = "reference", remedies: str = ""
) -> reference.ReferenceRun:
    """The configured run.  A factor of the model that is not finite is an
    error naming it, since no step count helps; an overflow in the run,
    whatever the warning filters make of it, is an error naming
    [reference] steps and any ``remedies``."""
    for name, attr in _FACTORS:
        values = np.ravel(getattr(ode, attr))
        # the first value that is not finite, or a finite one if none is
        analysis._finite(name, float(values[np.argmin(np.isfinite(values))]))
    with np.errstate(over="ignore", invalid="ignore"):
        run = reference.integrate_nonlinear(
            ode, u_in, cfg.t_final, steps=cfg.reference_steps, order=cfg.reference_order
        )
        norm = float(np.linalg.norm(run.u_final))
    if not math.isfinite(norm):
        raise RuntimeError(
            f"the {what} diverged (||u(T)|| = {norm}); raise [reference] steps{remedies}"
        )
    return run


def _f1_norm(cfg: RunConfig, ode: qode.QuadraticODE | qode.AmpereLinear) -> float:
    """||F1|| by [time] use_l1_f1: its l1 bound, else its spectral norm."""
    if cfg.use_l1_f1:
        return analysis.f1_norm_l1_bound(ode)
    return analysis.spectral_norm(ode.f1, seed=cfg.seed)


def _analysis_block(verdict: str, feasible: bool, norms=(), **known) -> dict:
    """The stable JSON block every mode reports (schema report_v2), from a
    null template: ``norms`` and ``known`` name what the mode computed."""
    block = dict.fromkeys((
        "mu", "R", "R_asymptotic", "gamma", "g_u", "eta",
        "N_C", "k", "Omega", "m", "tau", "d_A", "s", "s_A", "kappaL_bound",
    ))
    block.update(known, verdict=verdict, feasible=feasible)
    block["norms"] = dict.fromkeys(("F2", "F1", "F0", "u_in")) | dict(norms)
    return block


@dataclass
class _Run:
    """One gauss run: ``_certify`` makes it, and the mode's stages fill it."""

    cfg: RunConfig
    ode: qode.QuadraticODE
    u_in: np.ndarray
    cert: analysis.ConvergenceReport
    norm_f1: float
    rescaled: tuple | None = None
    plan: analysis.TruncationPlan | None = None
    planned: dict = field(default_factory=dict)  # the plan's analysis-block values
    classical_ops: int | None = None
    system: carleman.CarlemanSystem | None = None
    reference_run: reference.ReferenceRun | None = None
    results: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)


def _certify(cfg: RunConfig) -> _Run:
    """Assemble the model, certify it and take ||F1||: the norms the plan rests on."""
    ode, u_in = _system(cfg)
    cert = analysis.convergence_report(ode, u_in)
    return _Run(cfg, ode, u_in, cert, analysis._finite("||F1||", _f1_norm(cfg, ode)))


def _plan(run: _Run) -> None:
    """Rescale and plan: arithmetic on the certificate's norms and on
    ||u(T)||, which is the override, the Maxwellian estimate, or measured
    by the reference.  A is built here only when its norm is computed."""
    cfg, cert = run.cfg, run.cert
    ode_bar, u_bar, gamma = run.rescaled = analysis.rescale(run.ode, run.u_in, cert)
    if cfg.norm_u_t_override is not None:
        norm_u_t, source = cfg.norm_u_t_override, "override"
    elif cfg.g_u_estimate == "maxwellian":
        fm = cfg.params.maxwellian_vector(cfg.grid, normalization=cfg.maxwellian_normalization)
        norm_u_t = math.sqrt(cfg.grid.n_x) * float(np.linalg.norm(fm))
        source = "maxwellian_estimate"
    else:
        # compare needs this run as its reference, however ||u(T)|| is set
        remedies = ", or set [time] g_u_estimate = maxwellian or [time] norm_u_t"
        run.reference_run = _integrate_reference(
            cfg, run.ode, run.u_in, "measured reference", "" if cfg.mode == "compare" else remedies
        )
        norm_u_t, source = float(np.linalg.norm(run.reference_run.u_final)), "measured"
    plan_for = partial(
        analysis.make_plan, cert, run.norm_f1, u_bar, cfg.t_final, cfg.eps_q,
        eps_c=cfg.eps_c, norm_u_t_bar=norm_u_t / gamma, k=cfg.k_override,
    )
    plan = run.plan = plan_for(n_c=cfg.n_c_override)
    if cfg.use_computed_a_norm:
        run.system = carleman.build_carleman(ode_bar, plan.n_c, nnz_budget=cfg.nnz_budget)
        norm_a = analysis.spectral_norm(run.system.a, seed=cfg.seed)
        plan = run.plan = plan_for(n_c=plan.n_c, norm_a=norm_a)
    run.planned = dict(
        N_C=plan.n_c, k=plan.k, Omega=plan.omega, m=plan.m, tau=plan.tau,
        g_u=cert.norm_u_in / norm_u_t if norm_u_t > 0 else None,
    )
    run.results = {"plan": plan.as_dict(), "norm_u_T": norm_u_t, "norm_u_T_source": source}


def _build(run: _Run) -> None:
    """Build A within its budget, unless planning did."""
    if run.system is None:
        run.system = carleman.build_carleman(
            run.rescaled[0], run.plan.n_c, nnz_budget=run.cfg.nnz_budget
        )


def _account(run: _Run) -> None:
    """Size and cost accounting of the plan; refuses a d_A too long to report."""
    accounting = analysis.complexity_accounting(run.ode, run.plan)
    run.classical_ops = run.results["classical_ops"] = accounting["classical_ops"]
    run.planned |= {key: accounting[key] for key in ("d_A", "s", "s_A", "kappaL_bound")}


def _embed(run: _Run) -> None:
    """Pick the route, check the stepping's m k products with A against the
    budget, and start the evolution's results."""
    cfg, plan = run.cfg, run.plan
    route = cfg.solver_route
    slots = (plan.m + plan.p + 1) * (plan.k + 1)  # the encoding's registers
    if route == "auto":  # sized on the encoding, in emulated coordinates
        route = "both" if slots * run.system.dim <= min(50_000, cfg.nnz_budget) else "stepping"
    products = plan.m * plan.k
    if route != "encoding" and products > cfg.nnz_budget:
        raise ValueError(
            f"stepping takes m k {carleman._magnitude(products, '= ')} products with A, "
            f"over budget {cfg.nnz_budget}"
        )
    kept = {key: run.results[key] for key in ("plan", "norm_u_T_source")}
    # the plan's other results are analyze's; encoding_dim is on the paper's d_A
    run.results = {"route": route, "encoding_dim": slots * run.system.d_a, **kept}


def _reference(run: _Run) -> None:
    """The reference run, unless planning measured ||u(T)|| with it."""
    if run.reference_run is None:
        run.reference_run = _integrate_reference(run.cfg, run.ode, run.u_in)


def _evolve(run: _Run) -> None:
    """Evolve the embedded system by the route and extract the grid state."""
    _, u_bar, gamma = run.rescaled
    plan, system, results = run.plan, run.system, run.results
    z0 = carleman.build_z0(u_bar, plan.n_c)

    t0 = time.perf_counter()
    stepping = encoded = None
    if results["route"] in ("stepping", "both"):
        stepping = integrator.evolve_iterative(system, z0, plan, store_trajectory=False)
    if results["route"] in ("encoding", "both"):
        enc = integrator.build_linear_encoding(system, z0, plan, run.cfg.nnz_budget)
        encoded = integrator.solve_encoding(enc)
        results["solve_diagnostics"] = encoded.diagnostics
    final = encoded if encoded is not None else stepping
    if stepping is not None and encoded is not None:
        denom = max(float(np.linalg.norm(stepping.y_final)), 1e-300)
        diff = np.linalg.norm(stepping.y_final - encoded.y_final)
        results["stepping_vs_encoding_rel"] = float(diff / denom)
    f_t, info = integrator.extract_solution(final, gamma, run.cfg.grid)
    results.update(info)
    results["final_norm"] = float(np.linalg.norm(f_t.reshape(-1)))
    results["timing_solve"] = time.perf_counter() - t0
    run.artifacts["state_carleman.csv"] = f_t


def _compare(run: _Run) -> None:
    """Error metrics of the extracted state against the reference's."""
    ref, grid = run.reference_run, run.cfg.grid
    f_carl = run.artifacts["state_carleman.csv"]
    errors = reference.compare_solutions(ref.u_final, f_carl.reshape(-1))
    errors["classical_ops"] = run.classical_ops
    errors["reference_rhs_evals"] = ref.rhs_evals
    run.results["comparison"] = errors
    run.artifacts["state_reference.csv"] = ref.u_final.reshape(grid.n_x, grid.n_v)


# What each gauss mode runs after the certificate, in order: every check
# that can fail (A's budget, d_A's digits, m k, the reference) runs before
# the evolution, and A's budget before d_A's digits, since d_A is refused
# by its size alone.
_STAGES = {
    "analyze": (_plan, _account),
    "run-carleman": (_plan, _build, _account, _embed, _evolve),
    "compare": (_plan, _build, _account, _embed, _reference, _evolve, _compare),
}


def _run_gauss(cfg: RunConfig):
    """Certify, run the mode's stages if the system is feasible, and report."""
    run = _certify(cfg)
    cert = run.cert
    if cert.feasible:
        for stage in _STAGES[cfg.mode]:
            stage(run)
    block = _analysis_block(
        cert.verdict, cert.feasible,
        norms={"F2": cert.norm_f2, "F1": run.norm_f1, "F0": cert.norm_f0, "u_in": cert.norm_u_in},
        mu=cert.mu_f1,
        R=None if math.isinf(cert.r_value) else cert.r_value,
        R_asymptotic=None if math.isinf(cert.r_asymptotic) else cert.r_asymptotic,
        gamma=cert.gamma,
        eta=cfg.t_final / (cfg.eps_q * cfg.eps_c),
        **run.planned,
    )
    return {"analysis": block, "results": run.results}, 0 if cert.feasible else 2, run.artifacts


# ----------------------------------------------------------------------
# mode runners: each returns (report, exit code, artifacts or None)


def run_feasibility(cfg: RunConfig):
    p = cfg.params
    temperature = p.temperature
    nv_bound = p.nv_feasibility_bound(cfg.grid.x_max, temperature)
    xt_bound = p.xmax_temperature_bound(cfg.grid.n_v)
    feasible = cfg.grid.n_v <= nv_bound
    results = {
        "temperature_K": temperature,
        "x_max": cfg.grid.x_max,
        "n_v_configured": cfg.grid.n_v,
        "n_v_bound": nv_bound,
        "xmax_temperature_bound": xt_bound,
        "feasible": feasible,
        "verdict": (
            "feasible: configured n_v within the convergence bound"
            if feasible
            else "infeasible: configured n_v exceeds the convergence bound"
        ),
    }
    if p.nbar is not None:
        results["nu0_model"] = p.collision_frequency_model()
    report = {
        "analysis": _analysis_block(results["verdict"], feasible),
        "results": results,
    }
    return report, 0 if feasible else 2, None


def run_analyze(cfg: RunConfig):
    if cfg.coupling == "ampere":
        amp = qode.ampere_ode(cfg.params, cfg.grid)
        diag = analysis.ampere_diagnosis(amp, seed=cfg.seed)
        norms = {"F1": _f1_norm(cfg, amp), "F0": 0.0}  # the ampere route builds no source
        block = _analysis_block(diag.verdict, False, norms, mu=diag.mu_f1)
        report = {"analysis": block, "results": {"ampere_diagnosis": diag.as_dict()}}
        return report, 2, None
    return _run_gauss(cfg)


def run_reference_mode(cfg: RunConfig):
    ode, u_in = _system(cfg)
    t0 = time.perf_counter()
    run = _integrate_reference(cfg, ode, u_in)
    f_t = run.u_final.reshape(cfg.grid.n_x, cfg.grid.n_v)
    results = {
        "steps": run.steps,
        "order": run.order,
        "rhs_evals": run.rhs_evals,
        "final_norm": float(np.linalg.norm(run.u_final)),
        "initial_norm": float(np.linalg.norm(u_in)),
        "timing_solve": time.perf_counter() - t0,
    }
    block = _analysis_block("reference run (no embedding)", True)
    report = {"analysis": block, "results": results}
    return report, 0, {"state_reference.csv": f_t}


def run_sweep(cfg: RunConfig):
    """n_c points run compare, n_x and n_v points certify.

    A failing point keeps its row; a sweep in which every point fails has
    no result and is an error that names the first failure.
    """
    key = cfg.sweep_variable
    rows: list[dict] = []
    for val in sorted(cfg.sweep_values):
        row: dict = {key: val}
        try:
            if key == "n_c":
                rep, code, _ = _run_gauss(replace(cfg, n_c_override=val, mode="compare"))
                comp = rep["results"].get("comparison", {})
                row.update(
                    exit=code,
                    rel_l2=comp.get("rel_l2"),
                    normalized_state_error=comp.get("normalized_state_error"),
                    **{name: rep["analysis"][name] for name in ("d_A", "k", "m")},
                )
            else:
                ode, u_in = _system(replace(cfg, grid=replace(cfg.grid, **{key: val})))
                cert = analysis.convergence_report(ode, u_in)
                row.update(
                    R=None if math.isinf(cert.r_value) else cert.r_value,
                    mu=cert.mu_f1,
                    norm_F2=cert.norm_f2,
                    feasible=cert.feasible,
                )
        except ValueError as exc:
            row["error"] = str(exc)
        rows.append(row)
    if all("error" in row for row in rows):
        first = rows[0]
        raise ValueError(f"every sweep point failed; {key} = {first[key]}: {first['error']}")
    block = _analysis_block(f"sweep over {key}", True)
    report = {"analysis": block, "results": {"variable": key, "rows": rows}}
    return report, 0, {"sweep.csv": rows}


# ----------------------------------------------------------------------
# dispatch: cli.run looks up the mode's runner here


_RUNNERS = {
    "analyze": run_analyze,
    "feasibility": run_feasibility,
    "run-carleman": _run_gauss,
    "run-reference": run_reference_mode,
    "compare": _run_gauss,
    "sweep": run_sweep,
}
