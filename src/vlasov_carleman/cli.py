"""Command-line pipeline: configure, diagnose, embed, evolve, compare.

Subcommands
-----------
analyze       convergence certificate (and plan, when feasible)
feasibility   grid-size bounds from the collision-rate model
run-carleman  embedded linear evolution, extracted back to the grid
run-reference nonlinear fixed-step integration (ground truth)
compare       both routes plus error metrics
sweep         one variable swept, merged into a table

Configuration is an INI file with sections mirroring the library
modules ([grid], [plasma], [initial], [system], [time], [solver],
[reference], [sweep], [output]).  Every key is described once, in the
``_KEYS`` table (section, key, RunConfig field, parser, default,
single-key check); that table drives parsing, validation and the
report's config echo.  The only environment override is the output
directory (VLASOV_CARLEMAN_OUT); the --out flag beats both.

Exit codes: 0 success, 2 infeasible-convergence verdict (a successful
scientific outcome, distinct from failure), 1 error.

Reports are versioned JSON (schema tag "report_v1"); with
output.canonical = true the report omits wall-clock timings and two
runs with the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, carleman, integrator, qode, reference
from .grid import GridSpec
from .physics import (
    BOLTZMANN,
    ELECTRON_MASS,
    BeamSpec,
    PlasmaParams,
    load_initial_csv,
    quadratic_collision_variation,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

SCHEMA_VERSION = "report_v1"

MODES = ("analyze", "feasibility", "run-carleman", "run-reference", "compare", "sweep")

_AMPERE_BLOCKED = ("run-carleman", "run-reference", "compare", "sweep")


class ConfigError(Exception):
    """Invalid configuration; carries every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (validated)."""

    mode: str
    grid: GridSpec
    params: PlasmaParams
    coupling: str
    initial_kind: str
    j_beam: int
    initial_csv: str | None
    maxwellian_normalization: str
    t_final: float
    eps_q: float
    eps_c: float
    n_c_override: int | None
    k_override: int | None
    norm_u_t_override: float | None
    use_computed_a_norm: bool
    use_l1_f1: bool
    g_u_estimate: str
    reference_steps: int
    reference_order: int
    solver_method: str
    solver_route: str
    nnz_budget: int
    sweep_variable: str | None
    sweep_values: tuple
    out_dir: Path
    formats: tuple
    canonical: bool
    seed: int
    echo: dict = field(default_factory=dict, compare=False)


# ----------------------------------------------------------------------
# config keys


def _flag(raw: str) -> bool:
    low = _word(raw)
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _word(raw: str) -> str:
    return raw.strip().lower()


def _words(raw: str) -> tuple:
    return tuple(_word(tok) for tok in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _speed(raw: str) -> float | str:
    """A velocity cutoff, or 'thermal' (resolved from b in parse_config)."""
    return "thermal" if _word(raw) == "thermal" else float(raw)


# what each parser expects, named when a value fails to parse
_WHAT = {
    int: "int",
    float: "float",
    _flag: "bool",
    _ints: "ints",
    _speed: "number or 'thermal'",
}


def _one_of(*choices):
    return (lambda x: x in choices), "must be one of " + "/".join(map(str, choices))


def _at_least(low):
    return (lambda x: low <= x < math.inf), f"must be finite and >= {low}"


_POSITIVE = (lambda x: 0 < x < math.inf, "must be positive and finite")
_EVEN = (lambda x: x >= 2 and x % 2 == 0, "must be even and >= 2")
_FORMATS = (lambda fs: set(fs) <= {"json", "csv", "txt"}, "must list only json/csv/txt")

# One row per config key: section, key, RunConfig field (None for keys that
# only feed the grid or the plasma model), parser, default, and an optional
# single-key check (predicate, requirement) skipped for unset optional keys.
# Rules that involve several keys are written out in parse_config.
_KEYS = (
    ("grid", "n_x", None, int, 4, _at_least(1)),
    ("grid", "n_v", None, int, 4, _EVEN),
    ("grid", "x_max", None, float, 1.0, _POSITIVE),
    ("grid", "v_max", None, _speed, 1.0, None),
    ("grid", "thermal_factor", None, float, 10.0, None),
    ("plasma", "normalized", None, _flag, False, None),
    ("plasma", "ncal", None, float, 1.0, None),
    ("plasma", "nu0", None, float, 0.0, _at_least(0)),
    ("plasma", "nu0_model", None, _word, "explicit", _one_of("explicit", "coulomb")),
    ("plasma", "temperature", None, float, None, _POSITIVE),
    ("plasma", "b", None, float, None, None),
    ("plasma", "nbar", None, float, None, None),
    ("plasma", "log_lambda", None, float, 10.0, None),
    ("plasma", "h_coll", None, _word, "quadratic", _one_of("none", "quadratic")),
    ("plasma", "h_eps", None, float, 1.0e-3, _at_least(0)),
    ("system", "coupling", "coupling", _word, "gauss", _one_of("gauss", "ampere")),
    (
        "system", "maxwellian_normalization", "maxwellian_normalization", _word,
        "paper", _one_of("paper", "unit_mass"),
    ),
    ("initial", "kind", "initial_kind", _word, "two_beam", _one_of("two_beam", "csv")),
    ("initial", "j_beam", "j_beam", int, 1, None),
    ("initial", "csv_path", "initial_csv", str, None, None),
    ("time", "t_final", "t_final", float, 0.1, _POSITIVE),
    ("time", "eps_q", "eps_q", float, 0.1, (lambda x: 0 < x < 2, "must lie in (0, 2)")),
    ("time", "eps_c", "eps_c", float, 0.01, _POSITIVE),
    ("time", "n_c", "n_c_override", int, None, _at_least(1)),
    ("time", "k", "k_override", int, None, _at_least(1)),
    ("time", "norm_u_t", "norm_u_t_override", float, None, _POSITIVE),
    ("time", "use_computed_a_norm", "use_computed_a_norm", _flag, False, None),
    ("time", "use_l1_f1", "use_l1_f1", _flag, False, None),
    (
        "time", "g_u_estimate", "g_u_estimate", _word, "measured",
        _one_of("measured", "maxwellian"),
    ),
    (
        "solver", "method", "solver_method", _word, "auto",
        _one_of("auto", "direct", "iterative"),
    ),
    (
        "solver", "route", "solver_route", _word, "auto",
        _one_of("auto", "stepping", "encoding", "both"),
    ),
    ("solver", "nnz_budget", "nnz_budget", int, 1_000_000, _POSITIVE),
    ("reference", "steps", "reference_steps", int, 400, _at_least(1)),
    ("reference", "order", "reference_order", int, 4, _one_of(1, 2, 4)),
    ("sweep", "variable", "sweep_variable", _word, None, None),
    ("sweep", "values", "sweep_values", _ints, (), None),
    ("output", "directory", "out_dir", str, "out", None),
    ("output", "formats", "formats", _words, ("json", "csv"), _FORMATS),
    ("output", "canonical", "canonical", _flag, False, None),
)

# Keys the report's config echo names differently (temperature is echoed
# beside the b it resolves to) or leaves out (None): the output directory
# differs between runs whose reports must be byte-identical.
_ECHO_AS = {
    ("plasma", "temperature"): "temperature_config",
    ("grid", "thermal_factor"): None,
    ("output", "directory"): None,
}


def parse_config(
    path,
    mode: str,
    out_override: str | None = None,
    seed: int = 0,
    normalized: bool | None = None,
    canonical: bool | None = None,
) -> RunConfig:
    """Read, validate, and resolve an INI configuration.

    Collects every violation before raising, so one round trip shows
    all problems.  Mode/coupling combinations that cannot work (the
    ampere route has no convergent embedding or full nonlinear rate)
    are configuration errors, reported here.  ``normalized`` and
    ``canonical``, when given, replace the config's keys unread.
    """
    if mode not in MODES:
        raise ConfigError([f"unknown mode {mode!r}"])
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    given = {("plasma", "normalized"): normalized, ("output", "canonical"): canonical}
    problems: list[str] = []
    kv: dict = {section: {} for section, *_ in _KEYS}
    for section, key, _, parse, default, check in _KEYS:
        value = given.get((section, key))
        if value is None:
            value = default
            raw = cp.get(section, key, fallback=None)
            if raw is not None:
                try:
                    value = parse(raw)
                except ValueError:
                    problems.append(
                        f"[{section}] {key}: cannot parse {raw!r} as {_WHAT[parse]}"
                    )
        if check is not None and value is not None and not check[0](value):
            problems.append(f"[{section}] {key} {check[1]}, got {value!r}")
        kv[section][key] = value

    # ---- rules over several keys
    grid_kv, plasma, initial = kv["grid"], kv["plasma"], kv["initial"]
    if kv["system"]["coupling"] == "ampere" and mode in _AMPERE_BLOCKED:
        problems.append(
            f"[system] coupling=ampere cannot run mode={mode}: its linear part "
            "is non-dissipative (zero field columns force log-norm >= 0), so "
            "the embedding never converges; use mode=analyze for the diagnosis"
        )
    n_v, j_beam = grid_kv["n_v"], initial["j_beam"]
    if initial["kind"] == "two_beam" and n_v >= 2 and not 1 <= j_beam <= n_v // 2:
        problems.append(
            f"[initial] j_beam must lie in 1..{n_v // 2} (negative-velocity half), "
            f"got {j_beam}"
        )
    if initial["kind"] == "csv":
        if initial["csv_path"] is None:
            problems.append("[initial] kind=csv needs csv_path")
        else:
            resolved = (path.parent / initial["csv_path"]).resolve()
            if not resolved.is_file():
                problems.append(f"[initial] csv not found: {resolved}")
            initial["csv_path"] = str(resolved)
    if mode == "sweep":
        variable, values = kv["sweep"]["variable"], kv["sweep"]["values"]
        if variable not in ("n_c", "n_x", "n_v"):
            problems.append(
                f"[sweep] variable must be n_c, n_x, or n_v, got {variable!r}"
            )
        if not values:
            problems.append("[sweep] values must be a nonempty int list")
        elif variable == "n_c" and any(val < 1 for val in values):
            problems.append("[sweep] n_c values must be >= 1")
        elif variable == "n_v" and any(val < 2 or val % 2 for val in values):
            problems.append("[sweep] n_v values must be even and >= 2")
        elif variable == "n_x" and any(val < 1 for val in values):
            problems.append("[sweep] n_x values must be >= 1")

    temperature = plasma["temperature"]
    if plasma["b"] is None:
        plasma["b"] = 1.0
        if temperature is not None and temperature > 0:
            m_e = 1.0 if plasma["normalized"] else ELECTRON_MASS
            k_b = 1.0 if plasma["normalized"] else BOLTZMANN
            plasma["b"] = m_e / (2.0 * k_b * temperature)
    b = plasma["b"]
    if b <= 0:
        problems.append(f"[plasma] decay factor b must be positive, got {b}")

    if grid_kv["v_max"] == "thermal":
        grid_kv["v_max"] = grid_kv["thermal_factor"] / math.sqrt(b) if b > 0 else None
    v_max = grid_kv["v_max"]
    if v_max is not None and v_max <= 0:
        problems.append(f"[grid] v_max must be positive, got {v_max}")

    coulomb = plasma["nu0_model"] == "coulomb"
    if coulomb and (plasma["nbar"] is None or temperature is None):
        problems.append("[plasma] nu0_model=coulomb needs nbar and temperature")

    grid = params = None
    if not problems:
        try:
            grid = GridSpec(
                n_x=grid_kv["n_x"], n_v=n_v, x_max=grid_kv["x_max"], v_max=v_max
            )
        except ValueError as exc:
            problems.append(f"[grid] {exc}")
    if not problems:
        try:
            model = PlasmaParams.normalized if plasma["normalized"] else PlasmaParams
            params = model(
                ncal=plasma["ncal"],
                b=b,
                nbar=plasma["nbar"],
                log_lambda=plasma["log_lambda"],
                nu0=plasma["nu0"],
            )
            if coulomb:
                params = replace(params, nu0=params.collision_frequency_model())
            if plasma["h_coll"] == "quadratic" and params.nu0 > 0:
                h = quadratic_collision_variation(params.nu0, v_max, plasma["h_eps"])
                params = replace(params, h_coll=h)
        except ValueError as exc:
            problems.append(f"[plasma] {exc}")

    if problems:
        raise ConfigError(problems)

    plasma["nu0"] = params.nu0
    out = kv["output"]
    out["directory"] = Path(
        out_override or os.environ.get("VLASOV_CARLEMAN_OUT") or out["directory"]
    )
    echo = {section: {} for section in kv}
    for section, key, *_ in _KEYS:
        name = _ECHO_AS.get((section, key), key)
        if name is not None:
            echo[section][name] = kv[section][key]
    fields = {f: kv[section][key] for section, key, f, *_ in _KEYS if f is not None}
    return RunConfig(
        mode=mode, grid=grid, params=params, seed=seed, echo=echo, **fields
    )


# ----------------------------------------------------------------------
# shared pipeline pieces


def _initial_state(cfg: RunConfig) -> np.ndarray:
    if cfg.initial_kind == "csv":
        return load_initial_csv(cfg.initial_csv, cfg.grid)
    return cfg.params.two_beam_initial(cfg.grid, BeamSpec(j_beam=cfg.j_beam))


def _maxwellian_state_norm(cfg: RunConfig) -> float:
    fm = cfg.params.maxwellian_vector(
        cfg.grid, normalization=cfg.maxwellian_normalization
    )
    return math.sqrt(cfg.grid.n_x) * float(np.linalg.norm(fm))


def _integrate_reference(cfg: RunConfig, ode, u_in) -> reference.ReferenceRun:
    return reference.integrate_nonlinear(
        ode, u_in, cfg.t_final, steps=cfg.reference_steps, order=cfg.reference_order
    )


def _estimate_norm_u_t(cfg: RunConfig, ode, u_in):
    """Solution norm at T for the plan: override, measured, or estimated.

    Returns (norm, source, run); run is the measured reference run, or
    None when the norm did not need one.
    """
    if cfg.norm_u_t_override is not None:
        return cfg.norm_u_t_override, "override", None
    if cfg.g_u_estimate == "maxwellian":
        return _maxwellian_state_norm(cfg), "maxwellian_estimate", None
    run = _integrate_reference(cfg, ode, u_in)
    norm = float(np.linalg.norm(run.u_final))
    if not math.isfinite(norm):
        raise RuntimeError(
            f"the measured reference diverged (||u(T)|| = {norm}); raise "
            "[reference] steps, or set [time] g_u_estimate = maxwellian or "
            "[time] norm_u_t"
        )
    return norm, "measured", run


def _analysis_block(
    verdict: str,
    feasible: bool,
    cert: analysis.ConvergenceReport | None = None,
    norm_f1: float | None = None,
    plan: analysis.TruncationPlan | None = None,
    accounting: dict | None = None,
    g_u: float | None = None,
    eta: float | None = None,
) -> dict:
    """The stable JSON block every mode reports (schema report_v1).

    Each mode passes what it computed (the certificate, ||F1||, the plan
    and its accounting, g_u and eta); every other entry is null.
    """
    block = {
        "verdict": verdict,
        "feasible": feasible,
        "mu": None,
        "norms": {"F2": None, "F1": norm_f1, "F0": None, "u_in": None},
        "R": None,
        "R_asymptotic": None,
        "gamma": None,
        "g_u": g_u,
        "eta": eta,
    }
    if cert is not None:
        r_asym = cert.r_asymptotic
        block.update(
            mu=cert.mu_f1,
            R=None if math.isinf(cert.r_value) else cert.r_value,
            R_asymptotic=None if r_asym is None or math.isinf(r_asym) else r_asym,
            gamma=cert.gamma,
        )
        block["norms"].update(F2=cert.norm_f2, F0=cert.norm_f0, u_in=cert.norm_u_in)
    plan_keys = {"N_C": "n_c", "k": "k", "Omega": "omega", "m": "m", "tau": "tau"}
    for key, attr in plan_keys.items():
        block[key] = getattr(plan, attr) if plan else None
    for key in ("d_A", "s", "s_A", "kappaL_bound"):
        block[key] = accounting[key] if accounting else None
    return block


def _pipeline_block(pipe: dict) -> dict:
    """The analysis block of a _gauss_pipeline result."""
    rep = pipe["report"]
    return _analysis_block(
        rep.verdict, rep.feasible, rep, pipe["norm_f1"], pipe["plan"],
        pipe["accounting"], pipe["g_u"], pipe["eta"],
    )


def _gauss_pipeline(cfg: RunConfig) -> dict:
    """Build, certify, and (when feasible) plan the embedding.

    The certificate and ||F1|| (by [time] use_l1_f1) are the norms the
    plan rests on; planning itself is arithmetic on them.
    """
    ode = qode.gauss_ode(
        cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization
    )
    u_in = _initial_state(cfg)
    report = analysis.convergence_report(ode, u_in, seed=cfg.seed)
    norm_f1 = (
        analysis.f1_norm_l1_bound(ode)
        if cfg.use_l1_f1
        else analysis.spectral_norm(ode.f1, seed=cfg.seed)
    )
    out = {
        "ode": ode,
        "u_in": u_in,
        "report": report,
        "norm_f1": norm_f1,
        "plan": None,
        "accounting": None,
        "rescaled": None,
        "reference_run": None,
        "g_u": None,
        "eta": cfg.t_final / (cfg.eps_q * cfg.eps_c),
    }
    if not report.feasible:
        return out
    ode_bar, u_bar, gamma = analysis.rescale(ode, u_in, report)
    norm_u_t, source, out["reference_run"] = _estimate_norm_u_t(cfg, ode, u_in)
    out["g_u"] = report.norm_u_in / norm_u_t if norm_u_t > 0 else None
    plan_for = partial(
        analysis.make_plan, report, norm_f1, u_bar, cfg.t_final, cfg.eps_q,
        eps_c=cfg.eps_c, norm_u_t_bar=norm_u_t / gamma, k=cfg.k_override,
    )
    plan = plan_for(n_c=cfg.n_c_override)
    if cfg.use_computed_a_norm:
        system = carleman.build_carleman(ode_bar, plan.n_c, nnz_budget=cfg.nnz_budget)
        norm_a = analysis.spectral_norm(system.a, seed=cfg.seed)
        plan = plan_for(n_c=plan.n_c, norm_a=norm_a)
        out["system"] = system
    out["plan"] = plan
    out["accounting"] = analysis.complexity_accounting(ode, plan)
    out["rescaled"] = (ode_bar, u_bar, gamma)
    out["norm_u_t"] = norm_u_t
    out["norm_u_t_source"] = source
    return out


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
        ode = qode.ampere_ode(cfg.params, cfg.grid)
        diag = analysis.ampere_diagnosis(ode, seed=cfg.seed)
        norm_f1 = analysis.spectral_norm(ode.f1, seed=cfg.seed)
        block = _analysis_block(diag.verdict, False, norm_f1=norm_f1)
        block["mu"] = diag.mu_f1
        block["norms"]["F0"] = float(np.linalg.norm(ode.f0))
        report = {"analysis": block, "results": {"ampere_diagnosis": diag.as_dict()}}
        return report, 2, None
    pipe = _gauss_pipeline(cfg)
    plan = pipe["plan"]
    results = {}
    if plan is not None:
        results["plan"] = plan.as_dict()
        results["norm_u_T"] = pipe["norm_u_t"]
        results["norm_u_T_source"] = pipe["norm_u_t_source"]
        results["classical_ops"] = pipe["accounting"]["classical_ops"]
    report = {"analysis": _pipeline_block(pipe), "results": results}
    return report, 0 if pipe["report"].feasible else 2, None


def _write_state_csv(path: Path, f: np.ndarray) -> None:
    np.savetxt(path, f, delimiter=",", fmt="%.17e")


def run_carleman_mode(cfg: RunConfig, pipe: dict | None = None):
    if pipe is None:
        pipe = _gauss_pipeline(cfg)
    if not pipe["report"].feasible:
        return {"analysis": _pipeline_block(pipe), "results": {}}, 2, None
    ode_bar, u_bar, gamma = pipe["rescaled"]
    plan = pipe["plan"]
    system = pipe.get("system")
    if system is None:
        system = carleman.build_carleman(ode_bar, plan.n_c, nnz_budget=cfg.nnz_budget)
    z0 = carleman.build_z0(u_bar, plan.n_c)

    t0 = time.perf_counter()
    route = cfg.solver_route
    # the paper's encoding size, on d_A; the emulated one uses system.dim
    enc_dim = (plan.m + plan.p + 1) * (plan.k + 1) * system.d_a
    if route == "auto":
        route = "both" if enc_dim <= 50_000 else "stepping"
    results: dict = {"route": route, "encoding_dim": enc_dim}
    stepping = None
    encoded = None
    if route in ("stepping", "both"):
        stepping = integrator.evolve_iterative(
            system, z0, plan, store_trajectory=False
        )
    if route in ("encoding", "both"):
        enc = integrator.build_linear_encoding(system, z0, plan)
        encoded = integrator.solve_encoding(enc, method=cfg.solver_method)
        results["solve_diagnostics"] = encoded.diagnostics
    final = encoded if encoded is not None else stepping
    if stepping is not None and encoded is not None:
        denom = max(float(np.linalg.norm(stepping.y_final)), 1e-300)
        results["stepping_vs_encoding_rel"] = float(
            np.linalg.norm(stepping.y_final - encoded.y_final) / denom
        )
    f_t, info = integrator.extract_solution(final, gamma, cfg.grid)
    results.update(info)
    results["final_norm"] = float(np.linalg.norm(f_t.reshape(-1)))
    results["timing_solve"] = time.perf_counter() - t0
    results["plan"] = plan.as_dict()
    results["norm_u_T_source"] = pipe["norm_u_t_source"]

    report = {"analysis": _pipeline_block(pipe), "results": results}
    return report, 0, {"state_carleman.csv": f_t}


def run_reference_mode(cfg: RunConfig):
    ode = qode.gauss_ode(
        cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization
    )
    u_in = _initial_state(cfg)
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


def run_compare(cfg: RunConfig):
    pipe = _gauss_pipeline(cfg)
    report, code, artifacts = run_carleman_mode(cfg, pipe)
    if code != 0:
        return report, code, artifacts
    # the plan's measured norm already integrated the same reference
    run = pipe["reference_run"]
    if run is None:
        run = _integrate_reference(cfg, pipe["ode"], pipe["u_in"])
    f_ref = run.u_final.reshape(cfg.grid.n_x, cfg.grid.n_v)
    f_carl = artifacts["state_carleman.csv"]
    errors = reference.compare_solutions(f_ref.reshape(-1), f_carl.reshape(-1))
    errors["classical_ops"] = pipe["accounting"]["classical_ops"]
    errors["reference_rhs_evals"] = run.rhs_evals
    report["results"]["comparison"] = errors
    artifacts["state_reference.csv"] = f_ref
    return report, 0, artifacts


def run_sweep(cfg: RunConfig):
    rows: list[dict] = []
    if cfg.sweep_variable == "n_c":
        for val in sorted(cfg.sweep_values):
            point_cfg = replace(cfg, n_c_override=val, mode="compare")
            rep, code, _ = run_compare(point_cfg)
            comp = rep["results"].get("comparison", {})
            rows.append(
                {
                    "n_c": val,
                    "exit": code,
                    "rel_l2": comp.get("rel_l2"),
                    "normalized_state_error": comp.get("normalized_state_error"),
                    "d_A": rep["analysis"]["d_A"],
                    "k": rep["analysis"]["k"],
                    "m": rep["analysis"]["m"],
                }
            )
        key = "n_c"
    else:
        key = cfg.sweep_variable
        for val in sorted(cfg.sweep_values):
            try:
                new_grid = replace(cfg.grid, **{key: val})
            except ValueError as exc:
                rows.append({key: val, "error": str(exc)})
                continue
            point_cfg = replace(cfg, grid=new_grid, mode="analyze")
            ode = qode.gauss_ode(
                point_cfg.params,
                new_grid,
                normalization=point_cfg.maxwellian_normalization,
            )
            u_in = _initial_state(point_cfg)
            rep = analysis.convergence_report(ode, u_in, seed=cfg.seed)
            rows.append(
                {
                    key: val,
                    "R": None if math.isinf(rep.r_value) else rep.r_value,
                    "mu": rep.mu_f1,
                    "norm_F2": rep.norm_f2,
                    "feasible": rep.feasible,
                }
            )
    block = _analysis_block(f"sweep over {key}", True)
    report = {"analysis": block, "results": {"variable": key, "rows": rows}}
    return report, 0, {"sweep.csv": rows}


# ----------------------------------------------------------------------
# emission


def _strip_timings(obj):
    """Drop every timing key so canonical reports are byte-stable."""
    if isinstance(obj, dict):
        return {
            k: _strip_timings(v)
            for k, v in obj.items()
            if not k.startswith("timing")
        }
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _sanitize(obj):
    """Make a report strictly JSON-safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if math.isfinite(val):
            return val
        return "inf" if val > 0 else ("-inf" if val < 0 else "nan")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write_sweep_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join("" if row.get(k) is None else repr(row.get(k)) for k in keys))
    path.write_text("\n".join(lines) + "\n")


def _summary_text(report: dict) -> str:
    block = report["analysis"]
    lines = [
        f"mode: {report['mode']}",
        f"verdict: {block['verdict']}",
        f"feasible: {block['feasible']}",
    ]
    if block["R"] is not None:
        lines.append(f"R = {block['R']:.6g}")
    if block["mu"] is not None:
        lines.append(f"mu(F1) = {block['mu']:.6g}")
    if block["gamma"] is not None:
        lines.append(f"gamma = {block['gamma']:.6g}")
    if block["N_C"] is not None:
        lines.append(
            f"N_C = {block['N_C']}, k = {block['k']}, m = {block['m']}, "
            f"tau = {block['tau']:.6g}, d_A = {block['d_A']}"
        )
    return "\n".join(lines) + "\n"


def emit(report: dict, cfg: RunConfig, artifacts: dict | None = None) -> Path:
    """Write the report and per-mode artifacts to the output directory."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.formats:
        path = cfg.out_dir / "report.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "txt" in cfg.formats:
        (cfg.out_dir / "summary.txt").write_text(_summary_text(report))
    if artifacts and "csv" in cfg.formats:
        for name, payload in artifacts.items():
            path = cfg.out_dir / name
            if isinstance(payload, list):
                _write_sweep_csv(path, payload)
            else:
                _write_state_csv(path, np.asarray(payload))
    return cfg.out_dir


# ----------------------------------------------------------------------
# entry point


_RUNNERS = {
    "analyze": run_analyze,
    "feasibility": run_feasibility,
    "run-carleman": run_carleman_mode,
    "run-reference": run_reference_mode,
    "compare": run_compare,
    "sweep": run_sweep,
}


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Dispatch a validated config; returns (report, exit_code)."""
    t0 = time.perf_counter()
    report, code, artifacts = _RUNNERS[cfg.mode](cfg)
    report["schema"] = SCHEMA_VERSION
    report["mode"] = cfg.mode
    report["coupling"] = cfg.coupling
    report["seed"] = cfg.seed
    report["config"] = cfg.echo
    report["exit_code"] = code
    if cfg.canonical:
        report = _strip_timings(report)
    else:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    report = _sanitize(report)
    emit(report, cfg, artifacts)
    return report, code


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vlasov-carleman",
        description=(
            "Embed a collisional phase-space model into a truncated linear "
            "system, evolve it, and compare against direct integration."
        ),
    )
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True, help="INI configuration file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument(
            "--seed", type=int, default=0,
            help=f"Lanczos start-vector seed (operators above {analysis._DENSE_LIMIT} rows)",
        )
        sp.add_argument(
            "--normalized",
            action="store_true",
            default=None,
            help="force all physical constants to 1",
        )
        sp.add_argument(
            "--canonical",
            action="store_true",
            default=None,
            help="byte-stable report (no timings)",
        )
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        cfg = parse_config(
            args.config,
            args.mode,
            out_override=args.out,
            seed=args.seed,
            normalized=args.normalized,
            canonical=args.canonical,
        )
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    try:
        _, code = run(cfg)
    except Exception as exc:  # noqa: BLE001  (CLI boundary)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
