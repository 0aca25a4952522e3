"""Command-line behavior: config parsing, exit codes, reports, artifacts."""

import configparser
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from full_route import full_carleman, symmetric_basis
from vlasov_carleman import analysis, carleman, cli, integrator, pipeline, qode, reference
from vlasov_carleman.cli import ConfigError, main, parse_config, run


def _write_ini(path, sections):
    cp = configparser.ConfigParser()
    for name, kv in sections.items():
        cp[name] = {k: str(v) for k, v in kv.items()}
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _python(args, timeout):
    """Run ``python *args`` in a fresh interpreter that imports this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def _anchor_sections(out_dir, **overrides):
    # strongly collisional 2x4 system with known certificate values
    sections = {
        "grid": {"n_x": 2, "n_v": 4, "x_max": 1.0, "v_max": 1.0},
        "plasma": {"normalized": "true", "ncal": 1.0, "nu0": 8.0, "h_coll": "none"},
        "time": {"t_final": 0.05, "eps_q": 0.5},
        "output": {"directory": str(out_dir)},
    }
    for name, kv in overrides.items():
        sections.setdefault(name, {}).update(kv)
    return sections


# ----------------------------------------------------------------------
# parsing


def test_defaults_from_minimal_config(tmp_path):
    path = _write_ini(tmp_path / "min.ini", {"plasma": {"normalized": "true"}})
    cfg = parse_config(path, "analyze")
    assert (cfg.grid.n_x, cfg.grid.n_v) == (4, 4)
    assert cfg.grid.x_max == 1.0 and cfg.grid.v_max == 1.0
    assert cfg.params.nu0 == 0.0
    assert cfg.params.q == 1.0  # normalized constants
    assert cfg.coupling == "gauss"
    assert cfg.initial_kind == "two_beam" and cfg.j_beam == 1
    assert (cfg.t_final, cfg.eps_q, cfg.eps_c) == (0.1, 0.1, 0.01)
    assert cfg.reference_steps == 400 and cfg.reference_order == 4
    assert cfg.solver_route == "auto"
    assert cfg.formats == ("json", "csv")
    assert not cfg.canonical
    assert cfg.out_dir.name == "out"


def test_si_units_by_default(tmp_path):
    path = _write_ini(tmp_path / "si.ini", {"plasma": {"nu0": 1.0}})
    cfg = parse_config(path, "analyze")
    assert cfg.params.q != 1.0
    assert cfg.params.eps0 < 1e-10


def test_all_violations_collected_at_once(tmp_path):
    path = _write_ini(
        tmp_path / "bad.ini",
        {
            "grid": {"n_x": 0, "n_v": 3, "x_max": -1.0},
            "plasma": {"normalized": "true", "nu0": -2.0, "h_coll": "cubic"},
            "system": {"coupling": "weird"},
            "initial": {"kind": "sphere"},
            "time": {"t_final": -5, "eps_q": 3.0},
            "solver": {"method": "magic", "route": "nowhere"},
            "reference": {"order": 3},
        },
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "analyze")
    problems = exc.value.problems
    assert len(problems) >= 10
    text = "\n".join(problems)
    for fragment in (
        "n_x", "n_v", "x_max", "coupling", "kind", "t_final", "eps_q",
        "method", "route", "order", "nu0", "h_coll",
    ):
        assert fragment in text
    # values that parse but lie out of range, one config each
    positive, at_least_0 = "must be positive and finite", "must be finite and >= 0"
    for section, key, bad, rule in (
        ("time", "norm_u_t", 0.0, positive),
        ("time", "norm_u_t", -1.0, positive),
        ("time", "norm_u_t", math.inf, positive),
        ("time", "t_final", math.inf, positive),
        ("grid", "x_max", math.inf, positive),
        ("plasma", "nu0", math.inf, at_least_0),
        ("solver", "nnz_budget", -5, positive),
    ):
        path = _write_ini(tmp_path / "range.ini", {section: {key: bad}})
        with pytest.raises(ConfigError) as exc:
            parse_config(path, "analyze")
        assert exc.value.problems == [f"[{section}] {key} {rule}, got {bad!r}"]


def test_unparseable_values_are_reported_not_raised(tmp_path):
    path = _write_ini(
        tmp_path / "types.ini",
        {"grid": {"n_x": "two"}, "time": {"t_final": "soon"}},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "analyze")
    text = "\n".join(exc.value.problems)
    assert "cannot parse 'two'" in text
    assert "cannot parse 'soon'" in text


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.ini", "analyze")
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config("/nonexistent/run.ini", "simulate")


@pytest.mark.parametrize("mode", ["run-carleman", "run-reference", "compare", "sweep"])
def test_ampere_coupling_blocks_evolution_modes(tmp_path, mode):
    path = _write_ini(
        tmp_path / "amp.ini",
        _anchor_sections(tmp_path / "out", system={"coupling": "ampere"}),
    )
    with pytest.raises(ConfigError, match="mode=analyze"):
        parse_config(path, mode)
    # the diagnosis mode itself parses fine
    cfg = parse_config(path, "analyze")
    assert cfg.coupling == "ampere"


def test_j_beam_must_sit_in_the_negative_half(tmp_path):
    path = _write_ini(
        tmp_path / "beam.ini",
        _anchor_sections(tmp_path / "out", initial={"j_beam": 3}),
    )
    with pytest.raises(ConfigError, match="j_beam"):
        parse_config(path, "analyze")


def test_csv_initial_resolves_relative_to_the_config(tmp_path):
    sub = tmp_path / "configs"
    sub.mkdir()
    state = np.full((2, 4), 0.75)
    state[:, 1:3] = 0.0
    np.savetxt(sub / "init.csv", state, delimiter=",")
    path = _write_ini(
        sub / "run.ini",
        _anchor_sections(
            tmp_path / "out", initial={"kind": "csv", "csv_path": "init.csv"}
        ),
    )
    cfg = parse_config(path, "analyze")
    assert cfg.initial_csv.endswith("init.csv")
    report, code = run(cfg)
    assert code == 0
    assert report["analysis"]["feasible"] is True


def test_csv_initial_missing_file(tmp_path):
    path = _write_ini(
        tmp_path / "run.ini",
        _anchor_sections(
            tmp_path / "out", initial={"kind": "csv", "csv_path": "ghost.csv"}
        ),
    )
    with pytest.raises(ConfigError, match="csv not found"):
        parse_config(path, "analyze")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_csv_initial_with_a_non_finite_entry_is_an_error(tmp_path, capsys, bad):
    state = np.full((2, 4), 0.75)
    state[1, 2] = bad
    np.savetxt(tmp_path / "init.csv", state, delimiter=",")
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "run.ini",
        _anchor_sections(out, initial={"kind": "csv", "csv_path": "init.csv"}),
    )
    assert main(["compare", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: CSV {tmp_path.resolve() / 'init.csv'} holds non-finite entries\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ("a,b,c,d\n1,2,3,4\n5,6,7,8\n",
         "is not a (2, 4) table of numbers: could not convert string 'a' to float64 "
         "at row 0, column 1"),
        ("1,2,3,4\n5,6,7\n",
         "is not a (2, 4) table of numbers: the number of columns changed from 4 to 3 "
         "at row 2"),
        ("", "holds no numbers; expected (2, 4)"),
    ],
    ids=["header", "ragged", "empty"],
)
@pytest.mark.filterwarnings("error")
def test_csv_initial_that_numpy_cannot_read_names_the_file(tmp_path, capsys, text, reason):
    (tmp_path / "init.csv").write_text(text)
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "run.ini",
        _anchor_sections(out, initial={"kind": "csv", "csv_path": "init.csv"}),
    )
    assert main(["compare", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: CSV {tmp_path.resolve() / 'init.csv'} {reason}\n"
    assert not (out / "report.json").exists()


def test_thermal_velocity_cutoff(tmp_path):
    path = _write_ini(
        tmp_path / "th.ini",
        _anchor_sections(
            tmp_path / "out",
            grid={"v_max": "thermal", "thermal_factor": 5.0},
            plasma={"b": 4.0},
        ),
    )
    cfg = parse_config(path, "analyze")
    assert cfg.grid.v_max == pytest.approx(2.5)


@pytest.mark.parametrize("b", [math.nan, math.inf])
def test_non_finite_b_is_blamed_on_b(tmp_path, capsys, b):
    # a thermal v_max is only resolved from a b that passes
    path = _write_ini(
        tmp_path / "b.ini",
        _anchor_sections(tmp_path / "out", grid={"v_max": "thermal"}, plasma={"b": b}),
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "analyze")
    want = f"[plasma] decay factor b must be positive and finite, got {b}"
    assert exc.value.problems == [want]
    assert main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {want}\n"


@pytest.mark.parametrize(
    "grid", [{"v_max": math.inf}, {"v_max": "thermal", "thermal_factor": math.inf}]
)
def test_infinite_v_max_is_rejected(tmp_path, grid):
    path = _write_ini(tmp_path / "v.ini", _anchor_sections(tmp_path / "out", grid=grid))
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "analyze")
    assert exc.value.problems == ["[grid] v_max must be positive and finite, got inf"]


# the Coulomb model reads nbar and log_lambda
_COULOMB = {"nu0_model": "coulomb", "nbar": 1.0, "temperature": 1.0}


@pytest.mark.parametrize(
    "key, bad, model",
    [
        ("ncal", math.inf, {}),
        ("nbar", math.inf, _COULOMB),
        ("log_lambda", math.inf, _COULOMB),
        ("log_lambda", math.nan, {}),
        ("log_lambda", -3.0, {}),
    ],
)
def test_non_finite_plasma_keys_are_rejected(tmp_path, capsys, key, bad, model):
    plasma = {**model, key: bad}
    path = _write_ini(tmp_path / "p.ini", _anchor_sections(tmp_path / "out", plasma=plasma))
    want = f"[plasma] {key} must be positive and finite, got {bad!r}"
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "feasibility")
    assert exc.value.problems == [want]
    assert main(["feasibility", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {want}\n"


def test_unknown_keys_are_reported_with_the_other_problems(tmp_path):
    sections = _anchor_sections(
        tmp_path / "out",
        grid={"n_x": 0},
        plasma={"thermal_factor": 3.0, "nu_0": 8.0},
        plasm={"nu0": 8.0},
        solver={"method": "direct"},  # the encoding has one solve
    )
    path = _write_ini(tmp_path / "keys.ini", sections)
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "analyze")
    assert exc.value.problems == [
        "[plasma] thermal_factor: unknown key",
        "[plasma] nu_0: unknown key",
        "[plasm] nu0: unknown key",
        "[solver] method: unknown key",
        "[grid] n_x must be finite and >= 1, got 0",
    ]
    # [DEFAULT] is every section's fallback: a key there is known if any
    # section has it, and is not reported again under each section
    path.write_text("[DEFAULT]\nn_x = 2\nnx = 2\n[plasma]\nnormalized = true\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "analyze")
    assert exc.value.problems == ["[DEFAULT] nx: unknown key"]


def test_coulomb_collision_model_wiring(tmp_path):
    path = _write_ini(
        tmp_path / "cb.ini",
        {
            "grid": {"n_x": 2, "n_v": 4, "x_max": 1.0, "v_max": 1e6},
            "plasma": {
                "nu0_model": "coulomb",
                "nbar": 1e20,
                "temperature": 1e4,
                "h_coll": "none",
            },
        },
    )
    cfg = parse_config(path, "analyze")
    assert cfg.params.nu0 > 0
    assert cfg.params.nu0 == pytest.approx(
        cfg.params.collision_frequency_model(), rel=1e-12
    )
    bad = _write_ini(
        tmp_path / "cb_bad.ini",
        {"plasma": {"nu0_model": "coulomb"}},
    )
    with pytest.raises(ConfigError, match="nbar and temperature"):
        parse_config(bad, "analyze")


def test_b_and_temperature_together_are_rejected(tmp_path, capsys):
    # either one fixes the Maxwellian width; with both, the Coulomb rate
    # would come from the width b implies while the report echoed the
    # configured temperature
    sections = {
        "grid": {"n_x": 0, "x_max": 1e-4},
        "plasma": {"temperature": 5e7, "b": 1e-20, "nu0_model": "coulomb", "nbar": 1e20},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = _write_ini(tmp_path / "both.ini", sections)
    want = "[plasma] set b or temperature, not both"
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "feasibility")
    assert exc.value.problems == ["[grid] n_x must be finite and >= 1, got 0", want]
    sections["grid"]["n_x"] = 4
    path = _write_ini(tmp_path / "both.ini", sections)
    assert main(["feasibility", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {want}\n"


def test_diverged_measured_reference_is_a_clear_error(tmp_path, capsys):
    # the RK4 run behind the measured g_u overflows on this SI config
    sections = {
        "grid": {"n_x": 2, "n_v": 4, "x_max": 1.0, "v_max": 1e6},
        "plasma": {
            "nu0_model": "coulomb",
            "nbar": 1e20,
            "temperature": 1e4,
            "h_coll": "none",
        },
        "output": {"directory": str(tmp_path / "out")},
    }
    path = _write_ini(tmp_path / "cb.ini", sections)
    with np.errstate(all="ignore"):
        assert main(["analyze", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "measured reference diverged" in err
    for remedy in ("[reference] steps", "g_u_estimate = maxwellian", "norm_u_t"):
        assert remedy in err
    sections["time"] = {"g_u_estimate": "maxwellian"}
    path = _write_ini(tmp_path / "cb_maxw.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["analysis"]["R"] == pytest.approx(0.475, abs=1e-3)


def test_quadratic_collision_variation_wiring(tmp_path):
    path = _write_ini(
        tmp_path / "h.ini",
        _anchor_sections(
            tmp_path / "out", plasma={"h_coll": "quadratic", "h_eps": 0.01}
        ),
    )
    cfg = parse_config(path, "analyze")
    assert cfg.params.h_coll is not None
    assert cfg.params.nu(1.0) == pytest.approx(8.0 * 1.01)
    assert cfg.params.nu(0.0) == pytest.approx(8.0)


def test_out_dir_priority(tmp_path, monkeypatch):
    path = _write_ini(
        tmp_path / "o.ini",
        _anchor_sections(tmp_path / "from_config"),
    )
    monkeypatch.delenv("VLASOV_CARLEMAN_OUT", raising=False)
    assert parse_config(path, "analyze").out_dir == tmp_path / "from_config"
    monkeypatch.setenv("VLASOV_CARLEMAN_OUT", str(tmp_path / "from_env"))
    assert parse_config(path, "analyze").out_dir == tmp_path / "from_env"
    got = parse_config(path, "analyze", out_override=str(tmp_path / "from_flag"))
    assert got.out_dir == tmp_path / "from_flag"


@pytest.mark.parametrize(
    "variable, values, problem",
    [
        ("n_v", "4 6 7", "n_v values must be even and >= 2, got [7]"),
        ("n_c", "0 1", "n_c values must be finite and >= 1, got [0]"),
        ("n_x", "0 2", "n_x values must be finite and >= 1, got [0]"),
    ],
    ids=["n_v", "n_c", "n_x"],
)
def test_sweep_value_validation(tmp_path, variable, values, problem):
    # each swept value meets the swept key's own check
    path = _write_ini(
        tmp_path / "sw.ini",
        _anchor_sections(
            tmp_path / "out", sweep={"variable": variable, "values": values}
        ),
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(path, "sweep")
    assert exc.value.problems == ["[sweep] " + problem]
    nothing = _write_ini(
        tmp_path / "sw2.ini", _anchor_sections(tmp_path / "out")
    )
    with pytest.raises(ConfigError, match="variable"):
        parse_config(nothing, "sweep")


# ----------------------------------------------------------------------
# whole runs through main()


def test_analyze_exit_zero_and_certificate_values(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "run.ini", _anchor_sections(out))
    assert main(["analyze", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "report_v2"
    assert report["mode"] == "analyze"
    assert report["exit_code"] == 0
    block = report["analysis"]
    assert set(block) == {
        "mu", "norms", "R", "R_asymptotic", "gamma", "g_u", "eta",
        "feasible", "verdict", "N_C", "k", "Omega", "m", "tau",
        "d_A", "s", "s_A", "kappaL_bound",
    }
    assert set(block["norms"]) == {"F2", "F1", "F0", "u_in"}
    assert block["mu"] == pytest.approx(-8.0, abs=1e-10)
    assert block["R"] == pytest.approx(0.4903668118052307, rel=1e-9)
    assert block["feasible"] is True
    assert block["N_C"] >= 1 and block["k"] >= 1 and block["m"] >= 1
    assert report["results"]["plan"]["N_C"] == block["N_C"]
    assert report["results"]["norm_u_T_source"] == "measured"


def test_analyze_infeasible_exits_two(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "weak.ini",
        _anchor_sections(out, plasma={"nu0": 0.5}),
    )
    assert main(["analyze", "--config", str(path)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["feasible"] is False
    assert report["analysis"]["R"] > 1.0
    assert report["exit_code"] == 2


def test_config_error_exits_one(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "missing.ini")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze"],
        ["bogus", "--config", "x.ini"],
        ["analyze", "--config", "x.ini", "--seed", "x"],
    ],
)
def test_usage_error_exits_one_not_the_infeasible_code(argv, capsys):
    # 2 means "ran, infeasible": a mistyped command line must not read so
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: vlasov-carleman" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("grid", [{}, {"n_x": 16, "n_v": 16}])
def test_negative_seed_is_rejected_up_front(grid, tmp_path, capsys):
    # on 16x16 with F1's spectral norm the seed reaches the Lanczos start
    # vector; either way it is refused before anything runs
    out = tmp_path / "out"
    sections = _anchor_sections(out, grid=grid, time={"use_l1_f1": "false"})
    path = _write_ini(tmp_path / "seed.ini", sections)
    assert main(["analyze", "--config", str(path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error: --seed must be a non-negative integer, got -1" in err
    assert not out.exists()
    with pytest.raises(ConfigError, match="--seed"):
        parse_config(path, "analyze", seed=-1)


@pytest.mark.parametrize(
    "mode, overrides",
    [
        ("run-reference", {"time": {"t_final": 50}, "reference": {"steps": 100}}),
        (
            "compare",
            {
                "plasma": {"nu0": 20000},
                "time": {"g_u_estimate": "maxwellian"},
                "reference": {"steps": 100},
            },
        ),
    ],
)
def test_diverged_reference_is_an_error(mode, overrides, tmp_path, capsys):
    # both RK4 runs overflow to nan; the run fails whatever the warning
    # filters, and no report of a "nan" result is written
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "div.ini", _anchor_sections(out, **overrides))
    assert main([mode, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the reference diverged")
    assert "[reference] steps" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "g_u, what",
    [("maxwellian", "reference"), ("measured", "measured reference")],
    ids=["maxwellian", "measured"],
)
def test_compare_integrates_a_diverging_reference_before_it_steps(
    g_u, what, tmp_path, monkeypatch, capsys
):
    # with the Maxwellian estimate nu0 = 1e5 plans m = 20,082 steps of
    # k = 17 products; the 200-step RK4 reference overflows, and compare
    # fails before any of them, as it does when it measures ||u(T)||
    stepped = []

    def evolve(*args, **kwargs):
        stepped.append(args)
        raise RuntimeError("stepped")

    monkeypatch.setattr(integrator, "evolve_iterative", evolve)
    out = tmp_path / "out"
    sections = _anchor_sections(
        out, plasma={"nu0": 1e5}, time={"use_l1_f1": "true", "g_u_estimate": g_u},
        reference={"steps": 200},
    )
    path = _write_ini(tmp_path / "div.ini", sections)
    with np.errstate(all="ignore"):
        assert main(["compare", "--config", str(path)]) == 1
    # the remedies of analyze and run-carleman would still need the reference
    assert capsys.readouterr().err.splitlines() == [
        f"error: the {what} diverged (||u(T)|| = nan); raise [reference] steps"
    ]
    assert stepped == []
    assert not (out / "report.json").exists()


def test_runtime_error_exits_one(tmp_path, capsys):
    path = _write_ini(
        tmp_path / "tiny.ini",
        _anchor_sections(tmp_path / "out", solver={"nnz_budget": 10}),
    )
    assert main(["run-carleman", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: embedding budget exceeded")
    # the 164 emulated rows each store a Krook diagonal: over a budget of 10
    assert "reduced nnz(A) is at least 164 by level 3 of 3" in err


@pytest.mark.parametrize(
    "mode, n_c, line",
    [
        ("analyze", "5000", "d_A ≈ 10^4515 is past the 4300-digit limit of a report"),
        ("analyze", "1" + "0" * 308, "||A|| bound is inf: the configured scales overflow it"),
        ("analyze", "1" + "0" * 400, "N_C is past 2^1024, the float range its error split needs"),
        (
            "compare", "5000",
            "embedding budget exceeded: the reduced nnz(A) is at least 10^24 by level 5000 "
            "of 5000, budget 1000000 (d_A ≈ 10^4515, reduced dimension ≈ 10^24)",
        ),
    ],
    ids=["analyze-d_A-digits", "analyze-A-bound-inf", "analyze-N_C-past-float", "compare-budget"],
)
def test_huge_n_c_is_a_named_error_without_a_report(mode, n_c, line, tmp_path, capsys):
    # at N_C = 5000 the 2x4 system's d_A = (8^5001 - 8) / 7 has 4,516
    # digits, more than Python turns into a string; N_C = 10^308 times
    # the norms overflows the bound on ||A||, and 10^400 has no float
    # square root.  analyze builds no A, so no embedding budget stops it
    cp = configparser.ConfigParser()
    cp.read(Path(__file__).resolve().parent / "canonical" / "compare.anchor.ini")
    cp["time"]["n_c"] = n_c
    path = tmp_path / "huge.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main([mode, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "mode, line",
    [
        ("analyze", "d_A ≈ 10^90308998 is past the 4300-digit limit of a report"),
        (
            "compare",
            "embedding budget exceeded: the reduced nnz(A) is at least 10^59 by level "
            "100000000 of 100000000, budget 1000000 (d_A ≈ 10^90308998, reduced "
            "dimension ≈ 10^59)",
        ),
    ],
    ids=["analyze", "compare"],
)
def test_pinned_n_c_of_10_8_is_refused_at_once(mode, line, tmp_path):
    # d_A = (8^(10^8 + 1) - 8) / 7 has about 9 10^7 digits; forming it (or
    # listing 10^8 level offsets) would run for minutes, so it is refused
    # from its logarithm
    cp = configparser.ConfigParser()
    cp.read(Path(__file__).resolve().parent / "canonical" / "compare.anchor.ini")
    cp["time"]["n_c"] = str(10**8)
    path = tmp_path / "huge.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    argv = ["-m", "vlasov_carleman.cli", mode, "--config", str(path), "--out", str(out)]
    proc = _python(argv, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {line}"]
    assert not (out / "report.json").exists()


def test_emit_writes_no_report_it_cannot_serialize(tmp_path):
    path = _write_ini(tmp_path / "a.ini", _anchor_sections(tmp_path / "out"))
    cfg = parse_config(path, "analyze")
    with pytest.raises(ValueError, match="integer string conversion"):
        cli.emit({"d_A": 10**5000}, cfg)
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("mode", ["compare", "run-carleman"])
def test_emulated_dimension_past_int64_is_a_budget_error(mode, tmp_path, capsys):
    # a tiny final-state norm plans N_C = 1266, an emulated dimension past
    # int64: refused before any level is staged
    path = _write_ini(
        tmp_path / "huge.ini",
        _anchor_sections(tmp_path / "out", time={"norm_u_t": 1e-300}),
    )
    assert main([mode, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: embedding budget exceeded")
    assert "by level 1266 of 1266, budget 1000000" in err
    # d_A has 1,144 digits: the line gives its power of ten instead
    line = err.splitlines()[0]
    assert "(d_A ≈ 10^1143, reduced dimension ≈ 10^" in line
    assert len(line) < 300
    assert not (tmp_path / "out" / "report.json").exists()


def test_budget_admits_the_reduced_4x4_embedding(tmp_path):
    # N_C = 5 at 4x4 has d_A = 1,118,480, more than the default budget
    # holds in full; its symmetric emulation has 20,348 dimensions
    out = tmp_path / "out"
    sections = _anchor_sections(
        out, grid={"n_x": 4}, plasma={"nu0": 40.0, "h_coll": "quadratic"},
        time={"use_l1_f1": "true"}, solver={"route": "stepping"},
        output={"formats": "json"},
    )
    path = _write_ini(tmp_path / "big.ini", sections)
    cfg = parse_config(path, "compare")
    assert cfg.nnz_budget == 1_000_000
    report, code = run(cfg)
    assert code == 0
    assert report["analysis"]["N_C"] == 5
    assert report["analysis"]["d_A"] == 1_118_480
    assert report["results"]["comparison"]["rel_l2"] <= cfg.eps_q / 2.0


def test_encoding_serves_the_3x4_compare(tmp_path, monkeypatch):
    # N_C = 4 and 147,339 encoding registers, inside the default budget;
    # the solve fills them through A and never assembles L's 1.3M entries
    solved = []
    real_solve = integrator.solve_encoding

    def solve(enc, *args, **kwargs):
        res = real_solve(enc, *args, **kwargs)
        solved.append("l" in vars(enc))
        return res

    monkeypatch.setattr(integrator, "solve_encoding", solve)
    out = tmp_path / "out"
    sections = _anchor_sections(
        out, grid={"n_x": 3}, plasma={"h_coll": "quadratic"},
        time={"use_l1_f1": "true"}, solver={"route": "both"},
        output={"formats": "json"},
    )
    path = _write_ini(tmp_path / "both.ini", sections)
    assert main(["compare", "--config", str(path)]) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["route"] == "both"
    assert res["stepping_vs_encoding_rel"] <= 1e-12
    assert solved == [False]


def test_auto_route_sizes_the_emulated_encoding(tmp_path):
    # at N_C = 4 the paper's encoding has 294,840 rows, the emulated one
    # 7 x 9 x 494 = 31,122, so auto runs both routes and cross-checks them
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "auto.ini", _anchor_sections(out, time={"n_c": 4}))
    assert main(["compare", "--config", str(path)]) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert (res["plan"]["k"], res["plan"]["m"], res["plan"]["p"]) == (8, 3, 3)
    assert res["route"] == "both"
    assert res["encoding_dim"] == 294_840
    assert res["stepping_vs_encoding_rel"] <= 1e-8


def _encode_sections(out_dir, route):
    # the encode benchmark's compare: A has 1,178 entries, the encoding
    # 5 x 9 x 164 = 7,380 registers, over a budget of 5,000
    return {
        "grid": {"n_x": 2, "n_v": 4},
        "plasma": {"normalized": "true", "nu0": 8, "h_coll": "quadratic"},
        "time": {"t_final": 0.05, "eps_q": 0.5, "use_l1_f1": "true"},
        "solver": {"route": route, "nnz_budget": 5000},
        "output": {"directory": str(out_dir), "formats": "json"},
    }


def test_budget_bounds_the_encoding_registers(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "both.ini", _encode_sections(out, "both"))
    assert main(["compare", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error: encoding registers 7380 exceed budget 5000"
    assert not (out / "report.json").exists()


def test_auto_route_steps_past_the_register_budget(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "auto.ini", _encode_sections(out, "auto"))
    assert main(["compare", "--config", str(path)]) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["route"] == "stepping"
    assert "stepping_vs_encoding_rel" not in res


@pytest.mark.parametrize(
    "t_final, quantity",
    [(1e150, "Omega"), (1e307, "T ||F2_bar|| / (delta ||u_bar(T)||)")],
    ids=["degree", "level"],
)
def test_long_horizon_overflow_is_an_error(t_final, quantity, tmp_path, capsys):
    # the 2x4 anchor plans N_C = 431, k = 156 at t_final = 1e100; longer
    # horizons overflow the degree's Omega, then the level's argument
    sections = _anchor_sections(
        tmp_path / "out", time={"t_final": t_final, "g_u_estimate": "maxwellian"}
    )
    path = _write_ini(tmp_path / "long.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 1
    line = capsys.readouterr().err.splitlines()[0]
    assert line == f"error: {quantity} overflows at t_final = {t_final:g}"


def test_long_horizon_keeps_its_plan(tmp_path):
    out = tmp_path / "out"
    sections = _anchor_sections(out, time={"t_final": 1e100, "g_u_estimate": "maxwellian"})
    path = _write_ini(tmp_path / "t.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 0
    plan = json.loads((out / "report.json").read_text())["results"]["plan"]
    assert (plan["N_C"], plan["k"]) == (431, 156)
    assert plan["m"] == plan["p"] > 10**100


_L1_MAXWELLIAN = {"use_l1_f1": "true", "g_u_estimate": "maxwellian"}


@pytest.mark.parametrize(
    "overrides, line",
    [
        (
            {"plasma": {"nu0": 1e160}, "time": _L1_MAXWELLIAN},
            "||F0|| is inf: the configured scales overflow it",
        ),
        (
            {"grid": {"x_max": 1e-300}, "time": _L1_MAXWELLIAN},
            "||u_in|| is inf: the configured scales overflow it",
        ),
        ({"plasma": {"ncal": 1e-300}}, "||u_in|| underflows to 0 on a nonzero initial state"),
        ({"plasma": {"nu0": 1e200}}, "||F0|| is inf: the configured scales overflow it"),
        ({"plasma": {"ncal": 1e300}}, "||u_in|| is inf: the configured scales overflow it"),
    ],
    ids=["nu0_1e160_l1", "x_max_1e-300", "ncal_1e-300", "nu0_1e200", "ncal_1e300"],
)
def test_norms_that_overflow_or_underflow_are_errors(overrides, line, tmp_path, capsys):
    # each used to end in a non_convergent verdict, a zero-state error on
    # a nonzero state, or an eigensolver that did not converge
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "scale.ini", _anchor_sections(out, **overrides))
    assert main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not (out / "report.json").exists()


def test_large_but_finite_norms_still_certify(tmp_path):
    out = tmp_path / "out"
    sections = _anchor_sections(out, plasma={"nu0": 1e150}, time=_L1_MAXWELLIAN)
    path = _write_ini(tmp_path / "big.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 0
    block = json.loads((out / "report.json").read_text())["analysis"]
    assert block["verdict"] == "convergent: R < 1"
    assert block["R"] == pytest.approx(0.3831, abs=1e-4)


def test_non_finite_f1_norm_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(analysis, "f1_norm_l1_bound", lambda ode: math.inf)
    sections = _anchor_sections(tmp_path / "out", time=_L1_MAXWELLIAN)
    path = _write_ini(tmp_path / "f1.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: ||F1|| is inf: the configured scales overflow it"]


@pytest.mark.parametrize(
    "use_l1_f1, line",
    [
        ("true", "||F1|| is inf: the configured scales overflow it"),
        ("false", "the Gram matrix of a 16 x 16 operator overflows, so its spectral norm is not finite"),
    ],
    ids=["l1_bound", "spectral_norm"],
)
def test_f1_coefficient_overflow_is_one_error_line(use_l1_f1, line, tmp_path, capsys):
    # v_max / dx overflows the streaming coefficient; the suite turns
    # RuntimeWarnings into errors, so a warning raised while the factors
    # are computed would end the run in numpy's unnamed overflow message
    out = tmp_path / "out"
    sections = _anchor_sections(
        out,
        grid={"n_x": 4, "x_max": 1e-200, "v_max": 1e150},
        plasma={"b": 1e-300},
        time={"use_l1_f1": use_l1_f1, "g_u_estimate": "maxwellian"},
    )
    path = _write_ini(tmp_path / "f1.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not (out / "report.json").exists()


def test_run_reference_names_an_overflowed_model_coefficient(tmp_path, capsys):
    # v_max / dx overflows the streaming coefficient: no step count can
    # integrate that model, so the run names the coefficient, not steps
    out = tmp_path / "out"
    sections = _anchor_sections(
        out,
        grid={"n_x": 4, "n_v": 4, "x_max": 1e-200, "v_max": 1e150},
        plasma={"nu0": 8, "b": 1e-300},
    )
    path = _write_ini(tmp_path / "ref.ini", sections)
    assert main(["run-reference", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the streaming coefficient v/(2 dx) is -inf: the configured scales overflow it"
    ]
    assert not (out / "report.json").exists()


def _count_assemblies(monkeypatch):
    """Record the shape of every ``qode._csr`` call and count the
    diagonals that F1's sum takes (``sparse.diags_array`` in CSR)."""
    from scipy import sparse

    calls = {"csr": [], "diags": 0}
    csr, diags = qode._csr, sparse.diags_array

    def counted_csr(parts, shape, *args):
        calls["csr"].append(shape)
        return csr(parts, shape, *args)

    def counted_diags(*args, **kwargs):
        calls["diags"] += kwargs.get("format") == "csr"
        return diags(*args, **kwargs)

    monkeypatch.setattr(qode, "_csr", counted_csr)
    monkeypatch.setattr(sparse, "diags_array", counted_diags)
    return calls


def test_analyze_by_the_l1_bound_assembles_no_sparse_operator(tmp_path, monkeypatch):
    # mu, ||F2||, the l1 bound and both densest rows are closed forms
    calls = _count_assemblies(monkeypatch)
    sections = _anchor_sections(tmp_path / "out", grid={"n_x": 8}, time=_L1_MAXWELLIAN)
    path = _write_ini(tmp_path / "a.ini", sections)
    assert main(["analyze", "--config", str(path)]) == 0
    assert calls == {"csr": [], "diags": 0}


@pytest.mark.parametrize("n_x, n_v", [(2, 4), (8, 4)], ids=["bilinear", "csr"])
def test_run_reference_assembles_neither_f1_nor_f2(n_x, n_v, tmp_path, monkeypatch):
    # the rate operator is staged from F1's factors and F2's, and the
    # stages apply it dense (2x4) or as CSR (8x4): its one CSR build is
    # the only sparse operator the run makes
    calls = _count_assemblies(monkeypatch)
    f2 = []
    assemble_f2 = qode._assemble_f2
    monkeypatch.setattr(qode, "_assemble_f2", lambda *a: f2.append(a) or assemble_f2(*a))
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "r.ini", _anchor_sections(out, grid={"n_x": n_x, "n_v": n_v})
    )
    assert main(["run-reference", "--config", str(path)]) == 0
    d = n_x * n_v
    assert calls == {"csr": [(2 * d + n_x, d + 1)], "diags": 0}
    assert f2 == []


@pytest.mark.parametrize("g_u_estimate", ["measured", "maxwellian"])
def test_compare_assembles_f1_once(g_u_estimate, tmp_path, monkeypatch):
    # the embedding reads the rescaled copy's F1 (the reference's rate
    # operator is staged from the factors and reads none); the copy
    # assembles the one F1b and F1
    calls = _count_assemblies(monkeypatch)
    sections = _anchor_sections(tmp_path / "out", time={"g_u_estimate": g_u_estimate})
    path = _write_ini(tmp_path / "c.ini", sections)
    assert main(["compare", "--config", str(path)]) == 0
    assert calls["csr"].count((8, 8)) == 1
    assert calls["diags"] == 1


@pytest.mark.parametrize(
    "mode, nu0, count",
    [("run-carleman", 1e6, "= 3804883"), ("compare", 1e150, "≈ 10^151")],
    ids=["run-carleman-nu0_1e6", "compare-nu0_1e150"],
)
def test_stepping_products_over_budget_are_an_error(mode, nu0, count, tmp_path, capsys):
    # m k products with A: 200,257 x 19 at nu0 = 1e6; m ~ 2e149 at 1e150
    out = tmp_path / "out"
    sections = _anchor_sections(out, plasma={"nu0": nu0}, time=_L1_MAXWELLIAN)
    path = _write_ini(tmp_path / "steps.ini", sections)
    assert main([mode, "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: stepping takes m k {count} products with A, over budget 1000000"
    ]
    assert not (out / "report.json").exists()


def test_stepping_runs_at_its_budget(tmp_path, capsys):
    # nu0 = 1e4 plans m = 2026, k = 15: 30,390 products with A
    sections = _anchor_sections(tmp_path / "out", plasma={"nu0": 1e4}, time=_L1_MAXWELLIAN)
    sections["solver"] = {"nnz_budget": 30_390}
    path = _write_ini(tmp_path / "at.ini", sections)
    assert main(["run-carleman", "--config", str(path)]) == 0
    plan = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["plan"]
    assert (plan["m"], plan["k"]) == (2026, 15)
    sections["solver"] = {"nnz_budget": 30_389}
    path = _write_ini(tmp_path / "over.ini", sections)
    assert main(["run-carleman", "--config", str(path)]) == 1
    assert "stepping takes m k = 30390 products with A, over budget 30389" in (
        capsys.readouterr().err
    )


def test_run_reference_writes_state_artifact(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "ref.ini",
        _anchor_sections(out, reference={"steps": 50, "order": 2}),
    )
    assert main(["run-reference", "--config", str(path)]) == 0
    f = np.loadtxt(out / "state_reference.csv", delimiter=",")
    assert f.shape == (2, 4)
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["rhs_evals"] == 100
    assert report["results"]["final_norm"] > 0


def test_compare_reports_error_metrics(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "cmp.ini",
        _anchor_sections(out, reference={"steps": 200}),
    )
    assert main(["compare", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert res["route"] == "both"
    assert res["stepping_vs_encoding_rel"] < 1e-10
    comp = res["comparison"]
    assert comp["rel_l2"] < 1e-4
    assert comp["normalized_state_error"] < 1e-4
    assert comp["classical_ops"] == report["analysis"]["k"] * report["analysis"]["m"] * 8
    assert (out / "state_carleman.csv").is_file()
    assert (out / "state_reference.csv").is_file()
    carl = np.loadtxt(out / "state_carleman.csv", delimiter=",")
    ref = np.loadtxt(out / "state_reference.csv", delimiter=",")
    assert np.linalg.norm(carl - ref) / np.linalg.norm(ref) < 1e-4


def test_canonical_reports_are_byte_identical(tmp_path):
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    path = _write_ini(
        tmp_path / "canon.ini",
        _anchor_sections(o1, output={"canonical": "true"}),
    )
    assert main(["compare", "--config", str(path)]) == 0
    assert main(["compare", "--config", str(path), "--out", str(o2)]) == 0
    r1 = (o1 / "report.json").read_bytes()
    r2 = (o2 / "report.json").read_bytes()
    assert r1 == r2
    assert b"timing" not in r1
    s1 = (o1 / "state_carleman.csv").read_bytes()
    s2 = (o2 / "state_carleman.csv").read_bytes()
    assert s1 == s2


def test_noncanonical_report_carries_timings(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "t.ini", _anchor_sections(out))
    assert main(["analyze", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["timings"]["total_s"] > 0


def test_sweep_over_truncation_level(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "sweep.ini",
        _anchor_sections(
            out,
            sweep={"variable": "n_c", "values": "3 1 2"},
            reference={"steps": 200},
        ),
    )
    assert main(["sweep", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = report["results"]["rows"]
    assert [row["n_c"] for row in rows] == [1, 2, 3]
    errs = [row["rel_l2"] for row in rows]
    assert errs[0] > errs[1] > errs[2]
    text = (out / "sweep.csv").read_text().splitlines()
    assert text[0].startswith("n_c,")
    assert len(text) == 4


def test_sweep_over_velocity_resolution(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "sweepv.ini",
        _anchor_sections(out, sweep={"variable": "n_v", "values": "4 8"}),
    )
    assert main(["sweep", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = report["results"]["rows"]
    assert [row["n_v"] for row in rows] == [4, 8]
    for row in rows:
        assert row["mu"] == pytest.approx(-8.0, abs=1e-10)
        assert "R" in row and "feasible" in row


def test_feasibility_mode_reproduces_grid_bounds(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "feas.ini",
        {
            "grid": {"n_x": 2, "n_v": 4, "x_max": 1e6, "v_max": 1e6},
            "plasma": {"temperature": 8000.0},
            "output": {"directory": str(out)},
        },
    )
    assert main(["feasibility", "--config", str(path)]) == 2
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert res["n_v_bound"] == pytest.approx(1.6412e-9, rel=1e-3)
    assert res["feasible"] is False
    assert "infeasible" in res["verdict"]
    assert res["temperature_K"] == pytest.approx(8000.0, rel=1e-12)


def test_ampere_analysis_reports_diagnosis(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "amp.ini",
        _anchor_sections(out, system={"coupling": "ampere"}),
    )
    assert main(["analyze", "--config", str(path)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["mu"] >= 0.0
    diag = report["results"]["ampere_diagnosis"]
    assert diag["zero_columns"] == [9, 10]
    assert report["analysis"]["feasible"] is False


@pytest.mark.parametrize("use_l1_f1", [True, False])
def test_ampere_analysis_takes_f1_by_use_l1_f1(tmp_path, use_l1_f1):
    # the ampere diagnosis reports ||F1|| the way [time] use_l1_f1 asks
    sections = _anchor_sections(
        tmp_path / "out", system={"coupling": "ampere"},
        time={"use_l1_f1": str(use_l1_f1).lower()},
    )
    cfg = parse_config(_write_ini(tmp_path / "amp.ini", sections), "analyze")
    report, code = run(cfg)
    assert code == 2
    f1 = qode.ampere_ode(cfg.params, cfg.grid).f1.toarray()
    # column and row sums differ here, so only their geometric mean is a
    # proven bound on the spectral norm
    l1_bound = np.sqrt(np.linalg.norm(f1, 1) * np.linalg.norm(f1, np.inf))
    spectral = np.linalg.norm(f1, 2)
    assert np.linalg.norm(f1, 1) > l1_bound > spectral
    want = l1_bound if use_l1_f1 else spectral
    assert report["analysis"]["norms"]["F1"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "time_keys, norms",
    [
        ({"use_l1_f1": "true"}, 1),
        ({"use_l1_f1": "false"}, 2),
        ({"use_l1_f1": "false", "use_computed_a_norm": "true"}, 3),
    ],
)
def test_analyze_computes_each_norm_once(tmp_path, monkeypatch, time_keys, norms):
    # norms counts what is computed besides ||F2||, which comes from its
    # factors: mu, read off the Krook diagonal; ||F1||, an eigensolve
    # unless its l1 bound is used; and ||A|| when asked for.  Planning
    # reruns none of them
    calls = {"spectral_norm": 0, "lognorm": 0}
    for name in calls:
        inner = getattr(analysis, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    path = _write_ini(
        tmp_path / "count.ini", _anchor_sections(tmp_path / "out", time=time_keys)
    )
    _, code = run(parse_config(path, "analyze"))
    assert code == 0
    assert calls == {"spectral_norm": norms - 1, "lognorm": 0}


@pytest.mark.parametrize("computed_a_norm", ["false", "true"])
@pytest.mark.parametrize("g_u", ["measured", "maxwellian"])
@pytest.mark.parametrize("mode", ["analyze", "run-carleman", "compare"])
def test_each_mode_integrates_the_reference_and_builds_a_at_most_once(
    mode, g_u, computed_a_norm, tmp_path, monkeypatch
):
    # the reference runs when it measures ||u(T)|| or compare checks against
    # it, and one run serves both; A is built when its norm is computed or
    # the mode evolves it, and one build serves both
    calls = {"integrate_nonlinear": 0, "build_carleman": 0}
    for module, name in ((reference, "integrate_nonlinear"), (carleman, "build_carleman")):
        inner = getattr(module, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    sections = _anchor_sections(
        tmp_path / "out", time={"g_u_estimate": g_u, "use_computed_a_norm": computed_a_norm}
    )
    _, code = run(parse_config(_write_ini(tmp_path / "n.ini", sections), mode))
    assert code == 0
    assert calls == {
        "integrate_nonlinear": int(g_u == "measured" or mode == "compare"),
        "build_carleman": int(mode != "analyze" or computed_a_norm == "true"),
    }


@pytest.mark.parametrize(
    "mode, overrides, builds",
    [
        ("run-reference", {"reference": {"steps": 10}}, 0),
        ("analyze", {}, 0),
        (
            "analyze",
            {
                "grid": {"n_x": 256, "n_v": 16},
                "plasma": {"nu0": 400.0},
                "time": {"g_u_estimate": "maxwellian"},
            },
            0,
        ),
        ("sweep", {"sweep": {"variable": "n_x", "values": "1 2 3"}}, 0),
        ("sweep", {"sweep": {"variable": "n_v", "values": "2 4"}}, 0),
        ("run-carleman", {"solver": {"route": "stepping"}}, 1),
    ],
    ids=["run-reference", "analyze", "analyze-256x16", "sweep-n_x", "sweep-n_v", "run-carleman"],
)
def test_only_the_embedding_assembles_f2(tmp_path, monkeypatch, mode, overrides, builds):
    # the reference applies F2 through its two factors and the certificate
    # and accounting read its norm and densest row from them; only the
    # embedding consumes the d x d^2 sparse matrix
    calls = []
    inner = qode._assemble_f2

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(qode, "_assemble_f2", counted)
    path = _write_ini(
        tmp_path / "f2.ini", _anchor_sections(tmp_path / "out", **overrides)
    )
    _, code = run(parse_config(path, mode))
    assert code == 0
    assert len(calls) == builds


@pytest.mark.parametrize(
    "n_x, n_v, nu0, h_coll",
    [(2, 4, 40.0, "quadratic"), (4, 4, 40.0, "quadratic"), (4, 8, 20.0, "none")],
)
def test_analyze_answers_in_the_strongly_collisional_regime(
    tmp_path, n_x, n_v, nu0, h_coll
):
    # clustered top singular values of F1: the exact norm still comes back
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "strong.ini",
        _anchor_sections(
            out,
            grid={"n_x": n_x, "n_v": n_v},
            plasma={"nu0": nu0, "h_coll": h_coll},
        ),
    )
    assert main(["analyze", "--config", str(path)]) == 0
    block = json.loads((out / "report.json").read_text())["analysis"]
    assert block["verdict"] == "convergent: R < 1"
    cfg = parse_config(path, "analyze")
    f1 = qode.gauss_ode(cfg.params, cfg.grid).f1
    assert block["norms"]["F1"] == pytest.approx(
        np.linalg.norm(f1.toarray(), 2), rel=1e-12
    )
    assert block["mu"] == -cfg.params.nu_values(cfg.grid).min()


def test_computed_a_norm_on_the_lanczos_side(tmp_path):
    # A restricted to the symmetric subspace: 16 + 136 + 816 = 968
    # emulated dimensions (d_A = 4,368) lie above the dense-eigensolve limit
    sections = _anchor_sections(
        tmp_path / "out", grid={"n_x": 4}, time={"n_c": 3, "use_computed_a_norm": "true"}
    )
    cfg = parse_config(_write_ini(tmp_path / "a.ini", sections), "analyze")
    pipe = pipeline._certify(cfg)
    pipeline._plan(pipe)
    pipeline._account(pipe)
    assert pipe.planned["d_A"] == 4368
    assert pipe.system.dim == 968 > analysis._DENSE_LIMIT
    report, code = run(cfg)
    assert code == 0
    norm_a = report["results"]["plan"]["norm_A"]
    assert report["results"]["plan"]["norm_A_is_bound"] is False
    # the dense 2-norm of P^T A_full P, A_full from the full Kronecker route
    ode_bar = pipe.rescaled[0]
    basis = symmetric_basis(ode_bar.d, 3)
    projected = (basis.T @ full_carleman(ode_bar, 3).a @ basis).toarray()
    assert norm_a == pytest.approx(np.linalg.norm(projected, 2), rel=1e-12)
    # at most ||A_full||, the dense 2-norm of the full route's A
    assert norm_a <= 26.894043279904448
    a = pipe.system.a
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(a.shape[1])
        assert norm_a >= np.linalg.norm(a @ x) / np.linalg.norm(x)
    sections["time"]["use_computed_a_norm"] = "false"
    bound_cfg = parse_config(_write_ini(tmp_path / "b.ini", sections), "analyze")
    assert norm_a <= run(bound_cfg)[0]["results"]["plan"]["norm_A"]


def test_txt_summary_format(tmp_path):
    out = tmp_path / "out"
    path = _write_ini(
        tmp_path / "txt.ini",
        _anchor_sections(out, output={"formats": "json,txt"}),
    )
    assert main(["analyze", "--config", str(path)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "verdict:" in summary
    assert "R = " in summary
    assert "N_C = " in summary


# ----------------------------------------------------------------------
# report_v2 schema


_NUM = {"type": ["number", "null"]}
_INT = {"type": ["integer", "null"]}


def _closed(props, required=None):
    return {
        "type": "object",
        "properties": props,
        "required": sorted(props) if required is None else required,
        "additionalProperties": False,
    }


# The config echo names every key it reports; thermal_factor and the output
# directory are deliberately absent.
_ECHO_KEYS = {
    "grid": ("n_x", "n_v", "x_max", "v_max"),
    "plasma": (
        "normalized", "ncal", "b", "nu0", "nu0_model", "nbar", "log_lambda",
        "h_coll", "h_eps", "temperature_config",
    ),
    "system": ("coupling", "maxwellian_normalization"),
    "initial": ("kind", "j_beam", "csv_path"),
    "time": (
        "t_final", "eps_q", "eps_c", "n_c", "k", "norm_u_t",
        "use_computed_a_norm", "use_l1_f1", "g_u_estimate",
    ),
    "solver": ("route", "nnz_budget"),
    "reference": ("steps", "order"),
    "sweep": ("variable", "values"),
    "output": ("formats", "canonical"),
}


def _keys(required, optional=()):
    """A closed object of named keys whose values the schema leaves open."""
    return _closed({key: {} for key in required + optional}, required=sorted(required))


def _nested(schema, **props):
    """schema with some of its open values replaced by sub-schemas."""
    return {**schema, "properties": {**schema["properties"], **props}}


_PLAN_KEYS = _keys(
    ("N_C", "k", "Omega", "delta", "delta_prime", "eps_q", "eps_c", "T", "tau",
     "m", "p", "norm_A", "norm_A_is_bound", "norm_u_T_bar", "norm_u_in_bar"),
)


def _evolved(extra=(), **props):
    """run-carleman's results (plus extra keys for compare); the solve and
    timing keys depend on the route and on canonical mode."""
    return _nested(
        _keys(
            ("route", "encoding_dim", "final_norm", "min_value", "max_value",
             "negative_entries", "plan", "norm_u_T_source") + extra,
            ("solve_diagnostics", "stepping_vs_encoding_rel", "timing_solve"),
        ),
        plan=_PLAN_KEYS,
        solve_diagnostics=_keys(("residual", "padding_deviation")),
        **props,
    )


_INFEASIBLE = _keys(())
_N_C_ROW = {
    "anyOf": [
        _keys(("n_c", "exit", "rel_l2", "normalized_state_error", "d_A", "k", "m")),
        _keys(("n_c", "error")),
    ]
}
_GRID_ROWS = [
    _keys((var,) + rest)
    for var in ("n_x", "n_v")
    for rest in (("R", "mu", "norm_F2", "feasible"), ("error",))
]

# The results block of each mode, pinned key by key.
_RESULTS = {
    "analyze": {
        "anyOf": [
            _INFEASIBLE,
            _nested(
                _keys(("plan", "norm_u_T", "norm_u_T_source", "classical_ops")),
                plan=_PLAN_KEYS,
            ),
            _nested(
                _keys(("ampere_diagnosis",)),
                ampere_diagnosis=_keys(
                    ("d", "mu", "zero_column_count", "zero_columns", "dissipative",
                     "verdict"),
                ),
            ),
        ]
    },
    "feasibility": _keys(
        ("temperature_K", "x_max", "n_v_configured", "n_v_bound",
         "xmax_temperature_bound", "feasible", "verdict"),
        ("nu0_model",),
    ),
    "run-carleman": {"anyOf": [_INFEASIBLE, _evolved()]},
    "run-reference": _keys(
        ("steps", "order", "rhs_evals", "final_norm", "initial_norm"), ("timing_solve",)
    ),
    "compare": {
        "anyOf": [
            _INFEASIBLE,
            _evolved(
                ("comparison",),
                comparison=_keys(
                    ("rel_l2", "max_abs", "normalized_state_error", "classical_ops",
                     "reference_rhs_evals"),
                ),
            ),
        ]
    },
    "sweep": _nested(
        _keys(("variable", "rows")),
        rows={"type": "array", "items": {"anyOf": [_N_C_ROW] + _GRID_ROWS}},
    ),
}

REPORT_V2 = _closed(
    {
        "schema": {"const": "report_v2"},
        "mode": {
            "enum": [
                "analyze", "feasibility", "run-carleman", "run-reference",
                "compare", "sweep",
            ]
        },
        "coupling": {"enum": ["gauss", "ampere"]},
        "seed": {"type": "integer"},
        "exit_code": {"enum": [0, 2]},
        "config": _closed(
            {
                section: _closed({key: {} for key in keys})
                for section, keys in _ECHO_KEYS.items()
            }
        ),
        "analysis": _closed(
            {
                "mu": _NUM,
                "norms": _closed({"F2": _NUM, "F1": _NUM, "F0": _NUM, "u_in": _NUM}),
                "R": _NUM,
                "R_asymptotic": _NUM,
                "gamma": _NUM,
                "g_u": _NUM,
                "eta": _NUM,
                "feasible": {"type": "boolean"},
                "verdict": {"type": "string"},
                "N_C": _INT,
                "k": _INT,
                "Omega": _NUM,
                "m": _INT,
                "tau": _NUM,
                "d_A": _INT,
                "s": _INT,
                "s_A": _INT,
                "kappaL_bound": _NUM,
            }
        ),
        "results": {"type": "object"},
        "timings": _closed({"total_s": {"type": "number"}}),
    },
    required=[
        "schema", "mode", "coupling", "seed", "config", "exit_code",
        "analysis", "results",
    ],
)
REPORT_V2["allOf"] = [
    {
        "if": {"properties": {"mode": {"const": mode}}},
        "then": {"properties": {"results": results}},
    }
    for mode, results in _RESULTS.items()
]

_SCHEMA_CASES = {
    "analyze-feasible": ("analyze", {}, 0),
    "analyze-infeasible": ("analyze", {"plasma": {"nu0": 0.5}}, 2),
    "analyze-ampere": ("analyze", {"system": {"coupling": "ampere"}}, 2),
    "feasibility": ("feasibility", {}, 2),
    "run-carleman": ("run-carleman", {}, 0),
    "run-reference": ("run-reference", {"reference": {"steps": 50}}, 0),
    "compare": ("compare", {"reference": {"steps": 100}}, 0),
    "sweep-n_c": (
        "sweep",
        {"sweep": {"variable": "n_c", "values": "1 2"}, "reference": {"steps": 50}},
        0,
    ),
    "sweep-n_v": ("sweep", {"sweep": {"variable": "n_v", "values": "4 8"}}, 0),
    # one x-line: F2 is zero, a verdict rather than an error
    "analyze-n_x1": ("analyze", {"grid": {"n_x": 1}}, 2),
    "run-carleman-n_x1": ("run-carleman", {"grid": {"n_x": 1}}, 2),
    "compare-n_x1": ("compare", {"grid": {"n_x": 1}}, 2),
}


@pytest.mark.parametrize("case", sorted(_SCHEMA_CASES))
def test_report_matches_schema(tmp_path, case):
    mode, overrides, code = _SCHEMA_CASES[case]
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "s.ini", _anchor_sections(out, **overrides))
    assert main([mode, "--config", str(path)]) == code
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_V2)
    assert report["mode"] == mode and report["exit_code"] == code


def test_sweep_keeps_rows_around_a_failing_point(tmp_path):
    # N_C = 9 at 3x4 overruns the embedding budget; N_C = 1 and 2 still run
    out = tmp_path / "out"
    sections = _anchor_sections(
        out, grid={"n_x": 3}, plasma={"nu0": 40.0, "h_coll": "quadratic"},
        time={"use_l1_f1": "true"}, sweep={"variable": "n_c", "values": "1 2 9"},
    )
    path = _write_ini(tmp_path / "sweep.ini", sections)
    assert main(["sweep", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_V2)
    rows = report["results"]["rows"]
    assert [row["n_c"] for row in rows] == [1, 2, 9]
    assert rows[0]["rel_l2"] > rows[1]["rel_l2"] > 0
    assert set(rows[2]) == {"n_c", "error"}
    assert rows[2]["error"].startswith("embedding budget exceeded")
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_with_no_surviving_point_is_an_error(tmp_path, capsys):
    # an initial CSV with a NaN fails every n_c point: no row has a
    # result, so the run ends in exit 1 and names the first failure
    out = tmp_path / "out"
    init = np.full((2, 4), 0.75)
    init[1, 2] = np.nan
    np.savetxt(tmp_path / "init.csv", init, delimiter=",")
    sections = _anchor_sections(
        out, initial={"kind": "csv", "csv_path": "init.csv"},
        sweep={"variable": "n_c", "values": "1 2"},
    )
    path = _write_ini(tmp_path / "sweep.ini", sections)
    assert main(["sweep", "--config", str(path)]) == 1
    csv_path = tmp_path.resolve() / "init.csv"
    assert capsys.readouterr().err == (
        f"error: every sweep point failed; n_c = 1: CSV {csv_path} holds non-finite entries\n"
    )
    assert not (out / "report.json").exists()


_UNDERFLOW = (
    "exp(-b v^2) underflows to 0 at every grid velocity "
    "(b = 1, smallest |v| = 33.3333); lower v_max or raise n_v"
)


@pytest.mark.parametrize("mode", ["analyze", "compare", "run-carleman", "run-reference"])
def test_a_maxwellian_that_underflows_on_the_grid_is_blamed_on_the_grid(tmp_path, capsys, mode):
    # v = -100, -33.3, 33.3, 100: exp(-v^2) is 0 at every point
    out = tmp_path / "out"
    sections = _anchor_sections(out, grid={"v_max": 100.0}, plasma={"b": 1.0})
    path = _write_ini(tmp_path / "run.ini", sections)
    assert main([mode, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {_UNDERFLOW}\n"
    assert not (out / "report.json").exists()


def test_an_n_v_sweep_keeps_the_rows_whose_maxwellian_is_resolved(tmp_path):
    # n_v = 6 puts points at v = +-20, where exp(-v^2) is 2e-174; n_v = 4
    # has none nearer than 33.3
    out = tmp_path / "out"
    sections = _anchor_sections(
        out, grid={"v_max": 100.0}, plasma={"b": 1.0},
        sweep={"variable": "n_v", "values": "4 6"},
    )
    path = _write_ini(tmp_path / "sweep.ini", sections)
    assert main(["sweep", "--config", str(path)]) == 0
    rows = json.loads((out / "report.json").read_text())["results"]["rows"]
    assert rows[0] == {"n_v": 4, "error": _UNDERFLOW}
    assert rows[1]["n_v"] == 6 and "error" not in rows[1]


def test_csv_sweep_keeps_the_rows_whose_grid_matches_the_csv(tmp_path):
    # a 2x4 initial state: the n_x = 3 point cannot load it, n_x = 2 can
    out = tmp_path / "out"
    np.savetxt(tmp_path / "init.csv", np.full((2, 4), 0.75), delimiter=",")
    sections = _anchor_sections(
        out, initial={"kind": "csv", "csv_path": "init.csv"},
        sweep={"variable": "n_x", "values": "2 3"},
    )
    path = _write_ini(tmp_path / "sweep.ini", sections)
    assert main(["sweep", "--config", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_V2)
    rows = report["results"]["rows"]
    assert [row["n_x"] for row in rows] == [2, 3]
    assert rows[0]["feasible"] is True
    csv_path = tmp_path.resolve() / "init.csv"
    assert rows[1] == {"n_x": 3, "error": f"CSV {csv_path} has shape (2, 4); the grid needs (3, 4)"}


def test_sweep_csv_keeps_each_error_in_one_field(tmp_path):
    # the N_C = 9 budget message holds commas: standard CSV quotes it
    out = tmp_path / "out"
    sections = _anchor_sections(
        out, grid={"n_x": 3}, plasma={"nu0": 40.0, "h_coll": "quadratic"},
        time={"use_l1_f1": "true"}, sweep={"variable": "n_c", "values": "1 2 9"},
    )
    path = _write_ini(tmp_path / "sweep.ini", sections)
    assert main(["sweep", "--config", str(path)]) == 0
    rows = json.loads((out / "report.json").read_text())["results"]["rows"]
    assert "," in rows[2]["error"]
    with open(out / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
    assert reader.fieldnames == [
        "n_c", "exit", "rel_l2", "normalized_state_error", "d_A", "k", "m", "error",
    ]
    # a row wider than the header files its extras under None, a shorter one
    # fills None values
    for row in got:
        assert None not in row and None not in row.values()
    assert [row["n_c"] for row in got] == ["1", "2", "9"]
    assert [row["error"] for row in got] == ["", "", rows[2]["error"]]
    assert float(got[0]["rel_l2"]) == rows[0]["rel_l2"]


# ----------------------------------------------------------------------
# start-up cost

# Runs each (mode, config) pair in turn through cli.run in one process and
# prints, after each group, which of the two linear-algebra modules are
# loaded.
_IMPORT_PROBE = """
import json, sys
from vlasov_carleman import cli
HEAVY = ("scipy.linalg", "scipy.sparse.linalg")
for group in json.loads(sys.argv[1]):
    for mode, path in group:
        assert cli.run(cli.parse_config(path, mode))[1] in (0, 2), (mode, path)
    print(json.dumps([name for name in HEAVY if name in sys.modules]))
"""


def test_only_lanczos_loads_scipy_linalg(tmp_path):
    def ini(name, mode, **overrides):
        sections = _anchor_sections(
            tmp_path / name, output={"formats": "json"}, **overrides
        )
        return [mode, str(_write_ini(tmp_path / f"{name}.ini", sections))]

    light = [
        ini("ref", "run-reference", reference={"steps": 50}),
        ini("dense", "analyze"),  # 8 rows, use_l1_f1 = false: a dense eigensolve
        ini("step", "compare", solver={"route": "stepping"}, reference={"steps": 50}),
        # the register fill through A
        ini("enc", "compare", solver={"route": "encoding"}, reference={"steps": 50}),
    ]
    # 256 rows, above the dense limit: ||F1|| by Lanczos
    lanczos = [ini("lanczos", "analyze", grid={"n_x": 32, "n_v": 8}, plasma={"nu0": 10.0})]
    # one fresh interpreter: the light group runs before anything loads them
    proc = _python(["-c", _IMPORT_PROBE, json.dumps([light, lanczos])], timeout=300)
    assert proc.returncode == 0, proc.stderr
    heavy = ["scipy.linalg", "scipy.sparse.linalg"]
    assert list(map(json.loads, proc.stdout.splitlines())) == [[], heavy]


# Prints, as one JSON line after each step, the scipy modules loaded: after
# importing the package and the cli and parsing every canonical config in
# its mode, after --help and a config error through main, after importing
# the six names the package root is known for, and after one run.
_STARTUP_PROBE = """
import contextlib, glob, io, json, sys
import vlasov_carleman
from vlasov_carleman import cli
canonical, bad, out = sys.argv[1:]
def step():
    print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
for path in sorted(glob.glob(canonical + "/*.ini")):
    cli.parse_config(path, path.rpartition("/")[2].split(".")[0])
step()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(["analyze", "--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    assert cli.main(["analyze", "--config", bad]) == 1
step()
from vlasov_carleman import GridSpec, PlasmaParams, ampere_ode, gauss_ode, rhs_direct, rhs_matrix
assert callable(gauss_ode) and callable(rhs_matrix) and callable(ampere_ode)
assert callable(rhs_direct) and GridSpec.__name__ == "GridSpec" and PlasmaParams
cfg = cli.parse_config(canonical + "/analyze.anchor.ini", "analyze", out_override=out)
assert cli.run(cfg)[1] == 0
step()
"""


def test_parsing_loads_no_scipy_and_the_first_run_does(tmp_path):
    bad = _write_ini(tmp_path / "bad.ini", {"grid": {"bogus": 1}})
    canonical = Path(__file__).resolve().parent / "canonical"
    proc = _python(
        ["-c", _STARTUP_PROBE, str(canonical), str(bad), str(tmp_path / "out")], timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    parsed, failed, ran = map(json.loads, proc.stdout.splitlines())
    assert parsed == failed == []
    assert "scipy.sparse" in ran
    assert (tmp_path / "out" / "report.json").is_file()
