"""Command-line behavior: config parsing, exit codes, reports, artifacts."""

import configparser
import json
import math

import jsonschema
import numpy as np
import pytest

from full_route import full_carleman, symmetric_basis
from vlasov_carleman import analysis, cli, qode, reference
from vlasov_carleman.cli import ConfigError, main, parse_config, run


def _write_ini(path, sections):
    cp = configparser.ConfigParser()
    for name, kv in sections.items():
        cp[name] = {k: str(v) for k, v in kv.items()}
    with open(path, "w") as fh:
        cp.write(fh)
    return path


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
    assert cfg.solver_method == "auto" and cfg.solver_route == "auto"
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


def test_sweep_value_validation(tmp_path):
    path = _write_ini(
        tmp_path / "sw.ini",
        _anchor_sections(
            tmp_path / "out", sweep={"variable": "n_v", "values": "4 6 7"}
        ),
    )
    with pytest.raises(ConfigError, match="even"):
        parse_config(path, "sweep")
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
    assert report["schema"] == "report_v1"
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


def test_runtime_error_exits_one(tmp_path, capsys):
    path = _write_ini(
        tmp_path / "tiny.ini",
        _anchor_sections(tmp_path / "out", solver={"nnz_budget": 10}),
    )
    assert main(["run-carleman", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: embedding budget exceeded")
    assert "reduced nnz(A) reached" in err


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


def test_encoding_serves_the_3x4_compare(tmp_path):
    # N_C = 4 and 147,339 encoding rows: L stores 1.3M entries, inside
    # the default encoding budget of 50M
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


@pytest.mark.parametrize(
    "time_keys, spectral_calls",
    [
        ({"use_l1_f1": "true"}, 1),
        ({"use_l1_f1": "false"}, 2),
        ({"use_l1_f1": "false", "use_computed_a_norm": "true"}, 3),
    ],
)
def test_analyze_computes_each_norm_once(
    tmp_path, monkeypatch, time_keys, spectral_calls
):
    # the certificate's ||F2|| and mu, ||F1|| unless its l1 bound is used,
    # and ||A|| when asked for: planning reruns none of them
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
    assert calls == {"spectral_norm": spectral_calls, "lognorm": 1}


def test_reference_never_assembles_f2(tmp_path, monkeypatch):
    # run-reference and the integrator apply F2 through its two factors;
    # only a consumer of the sparse matrix assembles it
    calls = []
    inner = qode._assemble_f2

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(qode, "_assemble_f2", counted)
    path = _write_ini(
        tmp_path / "ref.ini",
        _anchor_sections(tmp_path / "out", reference={"steps": 10}),
    )
    cfg = parse_config(path, "run-reference")
    _, code = run(cfg)
    assert code == 0
    ode = qode.gauss_ode(cfg.params, cfg.grid)
    reference.integrate_nonlinear(ode, np.ones(ode.d), 0.01, 5)
    assert calls == []
    assert ode.f2 is ode.f2  # the first read assembles, later reads reuse it
    assert len(calls) == 1


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
    pipe = cli._gauss_pipeline(cfg)
    assert pipe["accounting"]["d_A"] == 4368
    assert pipe["system"].dim == 968 > analysis._DENSE_LIMIT
    report, code = run(cfg)
    assert code == 0
    norm_a = report["results"]["plan"]["norm_A"]
    assert report["results"]["plan"]["norm_A_is_bound"] is False
    # the dense 2-norm of P^T A_full P, A_full from the full Kronecker route
    ode_bar = pipe["rescaled"][0]
    basis = symmetric_basis(ode_bar.d, 3)
    projected = (basis.T @ full_carleman(ode_bar, 3).a @ basis).toarray()
    assert norm_a == pytest.approx(np.linalg.norm(projected, 2), rel=1e-12)
    # at most ||A_full||, the dense 2-norm of the full route's A
    assert norm_a <= 26.894043279904448
    a = pipe["system"].a
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
# report_v1 schema


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
    "solver": ("method", "route", "nnz_budget"),
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
_N_C_ROW = _keys(("n_c", "exit", "rel_l2", "normalized_state_error", "d_A", "k", "m"))
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

REPORT_V1 = _closed(
    {
        "schema": {"const": "report_v1"},
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
REPORT_V1["allOf"] = [
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
}


@pytest.mark.parametrize("case", sorted(_SCHEMA_CASES))
def test_report_matches_schema(tmp_path, case):
    mode, overrides, code = _SCHEMA_CASES[case]
    out = tmp_path / "out"
    path = _write_ini(tmp_path / "s.ini", _anchor_sections(out, **overrides))
    assert main([mode, "--config", str(path)]) == code
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_V1)
    assert report["mode"] == mode and report["exit_code"] == code
