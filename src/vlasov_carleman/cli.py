"""Command-line pipeline: configure, diagnose, embed, evolve, compare.

Subcommands
-----------
analyze       convergence certificate (and plan, when feasible)
feasibility   grid-size bounds from the collision-rate model
run-carleman  embedded linear evolution, extracted back to the grid
run-reference nonlinear fixed-step integration (ground truth)
compare       both routes plus error metrics
sweep         one variable swept, merged into a table (sweep.csv)

The modes themselves live in the pipeline module, which ``run`` imports
on its first call: this module loads numpy, ``grid`` and ``physics``
only, so parsing a config, a config error and ``--help`` never load
scipy.

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

Reports are versioned JSON (schema tag "report_v3"); with
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
from pathlib import Path

import numpy as np

from .grid import GridSpec
from .physics import BOLTZMANN, ELECTRON_MASS, PlasmaParams, quadratic_collision_variation

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

SCHEMA_VERSION = "report_v3"

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
        "solver", "route", "solver_route", _word, "stepping",
        _one_of("stepping", "encoding", "both"),
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
    if plasma["b"] is not None and temperature is not None:
        problems.append("[plasma] set b or temperature, not both")
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


def _write_state_csv(path: Path, state: np.ndarray) -> None:
    """The (n_x, n_v) state, one x-line per row, in the text of
    ``np.savetxt(path, state, delimiter=",", fmt="%.17e")``: one format
    over the values as Python floats, which format faster than numpy
    scalars, and one write."""
    row = ",".join(["%.17e"] * state.shape[1])
    text = "\n".join([row] * state.shape[0]) + "\n"
    path.write_text(text % tuple(state.ravel().tolist()))


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
        if block["d_A"] is None:
            d_a = f"log10 d_A = {block['log10_d_A']:.6g}"
        else:
            d_a = f"d_A = {block['d_A']}"
        lines.append(
            f"N_C = {block['N_C']}, k = {block['k']}, m = {block['m']}, "
            f"tau = {block['tau']:.6g}, {d_a}"
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
                _write_state_csv(path, payload)
    return cfg.out_dir


# ----------------------------------------------------------------------
# entry point


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Dispatch a validated config; returns (report, exit_code)."""
    from . import pipeline  # loads scipy: not needed to parse or to fail early

    t0 = time.perf_counter()
    report, code, artifacts = pipeline._RUNNERS[cfg.mode](cfg)
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
            help="Lanczos start-vector seed (operators too large for a dense eigensolve)",
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
