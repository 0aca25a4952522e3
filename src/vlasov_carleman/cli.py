"""Command-line pipeline: configure, diagnose, embed, evolve, compare.

Subcommands
-----------
analyze       convergence certificate (and plan, when feasible)
feasibility   grid-size bounds from the collision-rate model
run-carleman  embedded linear evolution, extracted back to the grid
run-reference nonlinear fixed-step integration (ground truth)
compare       both routes plus error metrics
sweep         one variable swept, merged into a table (sweep.csv)

Every report carries an ``analysis`` block made one way, by the null
template ``_analysis_block``.  The gauss modes are stages over one run
record: ``_certify`` makes it, ``_STAGES`` lists the stages each mode
runs after it (plan, embed, reference, evolve, compare), and
``_run_gauss`` runs them in order and fills that block once.

Configuration is an INI file with sections mirroring the library
modules ([grid], [plasma], [initial], [system], [time], [solver],
[reference], [sweep], [output]).  Every key is described once, in the
``_KEYS`` table (section, key, RunConfig field, parser, default,
single-key check); that table drives parsing, validation and the
report's config echo, and a key it does not list is a config error.
The only environment override is the output directory
(VLASOV_CARLEMAN_OUT); the --out flag beats both.

Exit codes: 0 success, 2 infeasible-convergence verdict (a successful
scientific outcome, distinct from failure), 1 error (usage errors too).

Reports are versioned JSON (schema tag "report_v2"); with
output.canonical = true the report omits wall-clock timings and two
runs with the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
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

SCHEMA_VERSION = "report_v2"

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
    ("plasma", "ncal", None, float, 1.0, _POSITIVE),
    ("plasma", "nu0", None, float, 0.0, _at_least(0)),
    ("plasma", "nu0_model", None, _word, "explicit", _one_of("explicit", "coulomb")),
    ("plasma", "temperature", None, float, None, _POSITIVE),
    ("plasma", "b", None, float, None, None),
    ("plasma", "nbar", None, float, None, _POSITIVE),
    ("plasma", "log_lambda", None, float, 10.0, _POSITIVE),
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
    if seed < 0:
        problems.append(f"--seed must be a non-negative integer, got {seed}")
    # every section falls back on [DEFAULT], so a key there is known if any
    # section has it; a section's own keys are checked without the defaults
    known = {(section, key) for section, key, *_ in _KEYS}
    defaults = cp.defaults()
    for key in defaults:
        if key not in {name for _, name in known}:
            problems.append(f"[{cp.default_section}] {key}: unknown key")
    for section in cp.sections():
        for key in cp[section]:
            if key not in defaults and (section, key) not in known:
                problems.append(f"[{section}] {key}: unknown key")
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
        elif variable in ("n_c", "n_x", "n_v"):
            ok, need = next(row[5] for row in _KEYS if row[1] == variable)
            bad = [val for val in values if not ok(val)]
            if bad:
                problems.append(f"[sweep] {variable} values {need}, got {bad}")

    temperature = plasma["temperature"]
    if plasma["b"] is None:
        plasma["b"] = 1.0
        if temperature is not None and temperature > 0:
            m_e = 1.0 if plasma["normalized"] else ELECTRON_MASS
            k_b = 1.0 if plasma["normalized"] else BOLTZMANN
            plasma["b"] = m_e / (2.0 * k_b * temperature)
    b = plasma["b"]
    b_ok = _POSITIVE[0](b)
    if not b_ok:
        problems.append(f"[plasma] decay factor b {_POSITIVE[1]}, got {b}")

    if grid_kv["v_max"] == "thermal":
        grid_kv["v_max"] = grid_kv["thermal_factor"] / math.sqrt(b) if b_ok else None
    v_max = grid_kv["v_max"]
    if v_max is not None and not _POSITIVE[0](v_max):
        problems.append(f"[grid] v_max {_POSITIVE[1]}, got {v_max}")

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


def _system(cfg: RunConfig) -> tuple[qode.QuadraticODE, np.ndarray]:
    """The gauss ODE of the configured grid and plasma, and its initial state."""
    ode = qode.gauss_ode(cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization)
    if cfg.initial_kind == "csv":
        return ode, load_initial_csv(cfg.initial_csv, cfg.grid)
    return ode, cfg.params.two_beam_initial(cfg.grid, BeamSpec(j_beam=cfg.j_beam))


def _integrate_reference(
    cfg: RunConfig, ode, u_in, what: str = "reference", remedies: str = ""
) -> reference.ReferenceRun:
    """The configured run; an overflow, whatever the warning filters make
    of it, is an error naming [reference] steps and any ``remedies``."""
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
    accounting = analysis.complexity_accounting(run.ode, plan)
    run.classical_ops = accounting["classical_ops"]
    run.planned = {key: accounting[key] for key in ("d_A", "s", "s_A", "kappaL_bound")} | dict(
        N_C=plan.n_c, k=plan.k, Omega=plan.omega, m=plan.m, tau=plan.tau,
        g_u=cert.norm_u_in / norm_u_t if norm_u_t > 0 else None,
    )
    run.results = {"plan": plan.as_dict(), "norm_u_T": norm_u_t, "norm_u_T_source": source,
                   "classical_ops": run.classical_ops}


def _embed(run: _Run) -> None:
    """Build A (unless planning did), pick the route, check the stepping's
    m k products with A against the budget, and start the evolution's results."""
    cfg, plan = run.cfg, run.plan
    if run.system is None:
        run.system = carleman.build_carleman(run.rescaled[0], plan.n_c, nnz_budget=cfg.nnz_budget)
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
# that can fail (A's budget, m k, the reference) runs before the evolution.
_STAGES = {
    "analyze": (_plan,),
    "run-carleman": (_plan, _embed, _evolve),
    "compare": (_plan, _embed, _reference, _evolve, _compare),
}


def _run_gauss(cfg: RunConfig):
    """Certify, run the mode's stages if the system is feasible, and report."""
    run = _certify(cfg)
    cert = run.cert
    if cert.feasible:
        for stage in _STAGES[cfg.mode]:
            stage(run)
    d_a, limit = run.planned.get("d_A", 0), sys.get_int_max_str_digits()
    if limit and d_a >= 10**limit:
        raise ValueError(
            f"d_A {carleman._magnitude(d_a)} is past the {limit}-digit limit of a report"
        )
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
# emission


def _clean(obj, canonical: bool):
    """Make a report strictly JSON-safe (non-finite floats become
    strings); canonical drops every timing key, so it is byte-stable."""
    if isinstance(obj, dict):
        return {
            k: _clean(v, canonical)
            for k, v in obj.items()
            if not (canonical and k.startswith("timing"))
        }
    if isinstance(obj, (list, tuple)):
        return [_clean(v, canonical) for v in obj]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if math.isfinite(val):
            return val
        return "inf" if val > 0 else ("-inf" if val < 0 else "nan")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist(), canonical)
    return obj


def _write_sweep_csv(path: Path, rows: list[dict]) -> None:
    """Standard CSV; the header is every row key in first-seen order, None is empty."""
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, keys, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


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
        # serialized before the file opens: a report that fails leaves none
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        (cfg.out_dir / "report.json").write_text(text)
    if "txt" in cfg.formats:
        (cfg.out_dir / "summary.txt").write_text(_summary_text(report))
    if artifacts and "csv" in cfg.formats:
        for name, payload in artifacts.items():
            path = cfg.out_dir / name
            if isinstance(payload, list):
                _write_sweep_csv(path, payload)
            else:
                np.savetxt(path, payload, delimiter=",", fmt="%.17e")
    return cfg.out_dir


# ----------------------------------------------------------------------
# entry point


_RUNNERS = {
    "analyze": run_analyze,
    "feasibility": run_feasibility,
    "run-carleman": _run_gauss,
    "run-reference": run_reference_mode,
    "compare": _run_gauss,
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
    if not cfg.canonical:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    report = _clean(report, cfg.canonical)
    emit(report, cfg, artifacts)
    return report, code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        """Usage errors exit 1, as every error does: 2 is the infeasible verdict."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
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
