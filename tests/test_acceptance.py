"""Acceptance gate: one end-to-end check per shipped guarantee.

Run with -v to get a pass/fail line per criterion; each test also
prints its headline numbers for the record.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from vlasov_carleman import (
    GridSpec,
    PlasmaParams,
    ampere_ode,
    gauss_ode,
    rhs_direct,
    rhs_matrix,
)
from vlasov_carleman.analysis import (
    TruncationPlan,
    ampere_diagnosis,
    choose_taylor_degree,
    column_major_permutation,
    complexity_accounting,
    convergence_report,
    embedding_dimension,
    f2_norm_closed_form,
    implied_truncation_error,
    lognorm,
    make_plan,
    rescale,
    spectral_norm,
    vectorization_invariance,
)
from vlasov_carleman.carleman import CarlemanSystem, build_carleman, build_z0
from vlasov_carleman.integrator import (
    build_linear_encoding,
    evolve_iterative,
    solve_encoding,
)
from vlasov_carleman.physics import BeamSpec, quadratic_collision_variation
from vlasov_carleman.reference import integrate_nonlinear
from full_route import exact_linear_solution


def test_criterion_01_feasibility_bounds():
    # published operating-point numbers from the SI constants, 5% window
    p = PlasmaParams()
    cases = [
        ("n_v bound at T=8e3 K, x_max=1e6 m", p.nv_feasibility_bound(1.0e6, 8.0e3), 1.6e-9),
        ("n_v bound at T=5e7 K, x_max=1e-4 m", p.nv_feasibility_bound(1.0e-4, 5.0e7), 2.24e-5),
        ("x_max*T bound at n_v=100 (m K)", p.xmax_temperature_bound(100), 5.31e-7),
    ]
    for label, got, target in cases:
        assert abs(got - target) <= 0.05 * target, (label, got, target)
    print(
        "criterion 1 feasibility bounds:",
        ", ".join(f"{got:.4e} vs {target:.2e}" for _, got, target in cases),
    )


def test_criterion_02_f2_norm_closed_form():
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=1.0)
    worst = 0.0
    for n_x in range(2, 9):
        for n_v in (4, 6, 8):
            g = GridSpec(n_x, n_v, 1.7, 2.3)
            ode = gauss_ode(p, g)
            closed = f2_norm_closed_form(p, g)
            computed = spectral_norm(ode.f2)
            rel = abs(computed - closed) / closed
            worst = max(worst, rel)
            assert rel <= 1.0e-8, (n_x, n_v, computed, closed)
    print(f"criterion 2 quadratic-norm closed form: worst rel {worst:.3e} over 21 grids")


def test_criterion_03_dissipativity_and_field_structure():
    nu0 = 3.0
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=nu0)
    worst_mu = 0.0
    for n_x in range(1, 7):
        for n_v in (2, 4, 6):
            g = GridSpec(n_x, n_v, 1.0, 1.0)
            ode = gauss_ode(p, g)
            mu = lognorm(ode.f1)
            worst_mu = max(worst_mu, abs(mu + nu0))
            assert abs(mu + nu0) <= 1.0e-10, (n_x, n_v, mu)
            # the streaming/field part contributes nothing to the
            # symmetric part, so the collision rate is the whole log-norm
            anti = (ode.f1b + ode.f1b.T).toarray()
            assert np.abs(anti).max() == 0.0, (n_x, n_v)

            amp = ampere_ode(p, g)
            diag = ampere_diagnosis(amp)
            assert diag.zero_column_count == n_x, (n_x, n_v, diag.zero_columns)
            assert not diag.dissipative
            assert diag.mu_f1 >= -1.0e-10
            sym = (amp.f1 + amp.f1.T).toarray() / 2.0
            assert np.linalg.eigvalsh(sym).max() >= -1.0e-12
    print(
        f"criterion 3 structure: |mu + nu0| <= {worst_mu:.2e}, antisymmetric "
        "streaming, ampere keeps n_x undamped columns with mu >= 0 on 18 grids"
    )


def test_criterion_04_dual_path_rhs_oracle():
    rng = np.random.default_rng(11)
    grids = [(1, 4), (2, 4), (3, 4), (4, 6), (6, 6)]
    worst = 0.0
    for idx, (n_x, n_v) in enumerate(grids):
        g = GridSpec(n_x, n_v, 1.3, 2.1)
        normalization = "paper" if idx % 2 == 0 else "unit_mass"
        h = quadratic_collision_variation(5.0, g.v_max) if idx >= 2 else None
        p = PlasmaParams.normalized(ncal=1.4, b=0.8, nu0=5.0, h_coll=h)
        ode = gauss_ode(p, g, normalization=normalization)
        for _ in range(100):
            f = rng.standard_normal((n_x, n_v))
            direct = rhs_direct(p, g, f, normalization=normalization)
            matrix = rhs_matrix(ode, f.reshape(-1)).reshape(n_x, n_v)
            rel = float(
                np.linalg.norm(direct - matrix) / max(np.linalg.norm(direct), 1e-300)
            )
            worst = max(worst, rel)
            assert rel <= 1.0e-12, (n_x, n_v, rel)
    print(f"criterion 4 rhs oracle: worst rel {worst:.3e} over 500 random states")


def test_criterion_05_embedding_error_decays_to_budget():
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    g = GridSpec(2, 4, 1.0, 1.0)
    ode = gauss_ode(p, g)
    u_in = p.two_beam_initial(g, BeamSpec(j_beam=1))
    rep = convergence_report(ode, u_in)
    assert rep.feasible and rep.r_value <= 0.5, rep.r_value
    ode_bar, u_bar, gamma = rescale(ode, u_in, rep)
    t_final = 0.05
    u_ref = integrate_nonlinear(ode, u_in, t_final, steps=400, order=4).u_final
    norm_ref = float(np.linalg.norm(u_ref))
    norm_u_bar = float(np.linalg.norm(u_bar))

    errs, budgets = [], []
    for n_c in (1, 2, 3, 4):
        plan = make_plan(
            rep, spectral_norm(ode.f1), u_bar, t_final, eps_q=0.5, n_c=n_c, k=20
        )
        system = build_carleman(ode_bar, n_c)
        z0 = build_z0(u_bar, n_c)
        res = evolve_iterative(system, z0, plan, store_trajectory=False)
        err = float(np.linalg.norm(gamma * res.y1m - u_ref)) / norm_ref
        budget = implied_truncation_error(
            t_final, gamma * rep.norm_f2, norm_ref / gamma, norm_u_bar, n_c
        )
        errs.append(err)
        budgets.append(budget)
    for err, budget in zip(errs, budgets):
        assert err <= budget, (errs, budgets)
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse, errs
    print(
        "criterion 5 truncation-level convergence: errors "
        + " ".join(f"{e:.3e}" for e in errs)
        + " within budgets "
        + " ".join(f"{b:.3e}" for b in budgets)
    )


def test_criterion_06_taylor_degree_rule_meets_budget():
    rng = np.random.default_rng(42)
    eps_q = 0.5
    delta = eps_q / 4.0
    delta_prime = eps_q / ((4.0 + eps_q) * math.sqrt(1.0))
    worst_ratio = 0.0
    for trial in range(1, 13):
        d = int(rng.integers(20, 201))
        raw = rng.standard_normal((d, d)) * rng.uniform(0.2, 1.5)
        margin = rng.uniform(0.3, 2.0)
        a = raw - (np.linalg.norm(raw, 2) + margin) * np.eye(d)
        b = (
            rng.standard_normal(d) * rng.uniform(0.0, 2.0)
            if trial % 3
            else np.zeros(d)
        )
        z0 = rng.standard_normal(d)
        t_final = rng.uniform(0.3, 1.5)
        # dissipative by construction: the shift pushes the symmetric
        # part's spectrum below -margin
        assert np.linalg.eigvalsh((a + a.T) / 2.0).max() <= -margin + 1.0e-9

        norm_a = float(np.linalg.norm(a, 2))
        system = CarlemanSystem(
            a=sp.csr_array(a), b=b, n_c=1, d=d, d_a=d, offsets=[0, d]
        )
        z_t = exact_linear_solution(system, z0, t_final)
        norm_z_t = float(np.linalg.norm(z_t))
        m = max(1, math.ceil(t_final * norm_a))
        k, omega = choose_taylor_degree(
            t_final, m / t_final, delta_prime, float(np.linalg.norm(b)), norm_z_t
        )
        assert math.factorial(k + 1) >= omega
        plan = TruncationPlan(
            n_c=1, k=k, omega=omega, delta=delta, delta_prime=delta_prime,
            eps_q=eps_q, eps_c=0.01, t_final=t_final, tau=t_final / m,
            m=m, p=m, norm_a=norm_a, norm_a_is_bound=False,
            norm_u_t_bar=norm_z_t, norm_u_in_bar=float(np.linalg.norm(z0)),
        )
        res = evolve_iterative(system, z0, plan, store_trajectory=False)
        rel = float(np.linalg.norm(res.y_final - z_t)) / norm_z_t
        worst_ratio = max(worst_ratio, rel / delta_prime)
        assert rel <= delta_prime, (trial, d, m, k, rel, delta_prime)
    print(
        f"criterion 6 degree rule: 12 dissipative systems, worst "
        f"error/budget ratio {worst_ratio:.3e}"
    )


def test_criterion_07_encoding_matches_stepping_and_conditioning():
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=4.0)
    g = GridSpec(2, 2, 1.0, 1.0)
    ode = gauss_ode(p, g)
    u_in = p.two_beam_initial(g, BeamSpec(j_beam=1))
    rep = convergence_report(ode, u_in)
    assert rep.feasible
    ode_bar, u_bar, _ = rescale(ode, u_in, rep)
    plan = make_plan(rep, spectral_norm(ode.f1), u_bar, 0.1, eps_q=0.5, n_c=2)
    system = build_carleman(ode_bar, 2)
    z0 = build_z0(u_bar, 2)

    stepped = evolve_iterative(system, z0, plan)
    enc = build_linear_encoding(system, z0, plan)
    solved = solve_encoding(enc, method="direct")
    worst = max(
        float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)
        for a, b in zip(solved.y_blocks, stepped.y_blocks)
    )
    assert worst <= 1.0e-10, worst
    assert solved.diagnostics["padding_deviation"] <= 1.0e-12

    acct = complexity_accounting(ode_bar, plan)
    cond = float(np.linalg.cond(enc.l.toarray(), 2))
    assert cond <= acct["kappaL_bound"], (cond, acct["kappaL_bound"])
    # the conditioning bound presumes a contractive embedded evolution
    a_dense = system.a.toarray()
    for t in (0.01, 0.1, 1.0, 5.0):
        assert np.linalg.norm(expm(a_dense * t), 2) <= 1.0 + 1.0e-12
    print(
        f"criterion 7 encoding: block deviation {worst:.3e}, padding exact, "
        f"cond2(L) {cond:.2f} <= bound {acct['kappaL_bound']:.2f}"
    )


def test_criterion_08_sparsity_accounting():
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    n_c = 2
    plan = TruncationPlan(
        n_c=n_c, k=5, omega=1.0, delta=0.1, delta_prime=0.05, eps_q=0.4,
        eps_c=0.01, t_final=1.0, tau=0.5, m=2, p=2, norm_a=1.0,
        norm_a_is_bound=True, norm_u_t_bar=1.0, norm_u_in_bar=0.5,
    )
    for n_x, n_v in ((2, 4), (3, 4), (4, 6), (6, 6)):
        g = GridSpec(n_x, n_v, 1.0, 1.0)
        ode = gauss_ode(p, g)
        d = ode.d
        row_f2 = np.diff(ode.f2.tocsr().indptr)
        row_f1 = np.diff(ode.f1.tocsr().indptr)
        assert row_f2.max() == 2 * d, (n_x, n_v, row_f2.max())
        assert row_f1.max() <= 5, (n_x, n_v, row_f1.max())
        if n_x >= 3:
            assert row_f1.max() == 5
        assert np.count_nonzero(ode.f0) == d

        system = build_carleman(ode, n_c)
        expect_d_a = (d ** (n_c + 1) - d) // (d - 1)
        assert system.d_a == embedding_dimension(d, n_c) == expect_d_a
        s = int(max(row_f2.max(), row_f1.max()))
        assert np.diff(system.a.indptr).max() <= 3 * s * n_c

        acct = complexity_accounting(ode, plan)
        assert acct["s"] == 2 * d
        assert acct["s_A"] == 3 * acct["s"] * n_c
        assert acct["d_A"] == expect_d_a
    print("criterion 8 sparsity: s=2N quadratic rows, <=5 linear rows, "
          "N source entries, embedded rows within 3 s N_C, exact d_A")


def _smooth_neutral_initial(p: PlasmaParams, g: GridSpec) -> np.ndarray:
    # modulations sum to zero over the discrete period (cosine over a
    # full period, odd velocity factor on a symmetric grid), so the
    # total mass stays exactly ncal and the field stays periodic
    fm = p.maxwellian_vector(g, normalization="unit_mass")
    mod_x = 1.0 + 0.3 * np.cos(2.0 * np.pi * g.x_coords() / g.x_max)
    mod_v = 1.0 + 0.2 * g.v_coords() / g.v_max
    return (mod_x[:, None] * (fm * mod_v)[None, :]).reshape(-1)


def test_criterion_09_reference_grid_convergence_second_order():
    def final_state(n_x: int, n_v: int) -> np.ndarray:
        p = PlasmaParams.normalized(ncal=math.sqrt(math.pi), b=1.0, nu0=10.0)
        g = GridSpec(n_x, n_v, 1.0, 4.0)
        ode = gauss_ode(p, g, normalization="unit_mass")
        run = integrate_nonlinear(
            ode, _smooth_neutral_initial(p, g), 0.05, steps=200, order=4
        )
        return run.u_final.reshape(n_x, n_v)

    def rms(a: np.ndarray) -> float:
        return float(np.linalg.norm(a)) / math.sqrt(a.size)

    # factor-3 nesting keeps coarse points a subset of fine points in x
    # (periodic ramp) and in v (endpoints fixed, n -> 3n - 2 stays even)
    fx = [final_state(n_x, 10) for n_x in (12, 36, 108)]
    e1 = rms(fx[0] - fx[1][::3, :])
    e2 = rms(fx[1] - fx[2][::3, :])
    x_slope = math.log(e1 / e2) / math.log(3.0)

    fv = [final_state(4, n_v) for n_v in (28, 82, 244)]
    e1 = rms(fv[0] - fv[1][:, ::3])
    e2 = rms(fv[1] - fv[2][:, ::3])
    v_slope = math.log(e1 / e2) / math.log(3.0)

    assert 1.7 <= x_slope <= 2.3, x_slope
    assert 1.7 <= v_slope <= 2.3, v_slope
    print(
        f"criterion 9 grid convergence: x-slope {x_slope:.3f}, "
        f"v-slope {v_slope:.3f} (target 2 +- 0.3)"
    )


def test_criterion_10_flattening_invariance():
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    worst_dev = 0.0
    worst_eig = 0.0
    for n_x, n_v in ((3, 4), (4, 4)):
        g = GridSpec(n_x, n_v, 1.0, 1.0)
        ode = gauss_ode(p, g)
        out = vectorization_invariance(ode, column_major_permutation(g))
        worst_dev = max(worst_dev, out["max_relative_deviation"])
        worst_eig = max(worst_eig, out["eig_multiset_max_diff"])
        assert out["max_relative_deviation"] <= 1.0e-10, (n_x, n_v, out)
        assert out["eig_multiset_max_diff"] <= 1.0e-10, (n_x, n_v, out)
    print(
        f"criterion 10 flattening invariance: worst norm deviation "
        f"{worst_dev:.3e}, worst eigenvalue multiset diff {worst_eig:.3e}"
    )
