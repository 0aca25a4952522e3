"""Diagnostics: norms, the convergence certificate, and planning rules."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from helpers import params_from_temperature
from vlasov_carleman import (
    BeamSpec,
    GridSpec,
    PlasmaParams,
    ampere_ode,
    build_carleman,
    convergence_report,
    gauss_ode,
    make_plan,
    rescale,
)
from vlasov_carleman import analysis
from vlasov_carleman.analysis import (
    ampere_diagnosis,
    choose_taylor_degree,
    choose_truncation_level,
    column_major_permutation,
    complexity_accounting,
    embedding_dimension,
    f1_norm_l1_bound,
    f2_norm_closed_form,
    implied_truncation_error,
    lognorm,
    r_asymptotic_estimate,
    spectral_norm,
    vectorization_invariance,
)


def _system(n_x=2, n_v=4, nu0=8.0, ncal=1.0, b=1.0, x_max=1.0, v_max=1.0):
    p = PlasmaParams.normalized(ncal=ncal, b=b, nu0=nu0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=x_max, v_max=v_max)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    return p, g, ode, u


# ----------------------------------------------------------------------
# eigensolver norms against dense oracles


def test_spectral_norm_dense_oracle():
    rng = np.random.default_rng(5)
    for n, m in [(6, 6), (10, 4), (4, 25), (30, 30)]:
        a = rng.normal(size=(n, m))
        got = spectral_norm(a)
        want = np.linalg.norm(a, 2)
        assert got == pytest.approx(want, rel=1e-9)
        got_sparse = spectral_norm(sparse.csr_array(a))
        assert got_sparse == pytest.approx(want, rel=1e-9)


def test_spectral_norm_zero_and_rank_one():
    # the zero operator on both sides of the dense-eigensolve limit
    assert spectral_norm(sparse.csr_array((5, 5))) == 0.0
    assert spectral_norm(sparse.csr_array((3000, 3000))) == 0.0
    u = np.array([3.0, 4.0])
    a = np.outer(u, u)  # norm = 25
    assert spectral_norm(a) == pytest.approx(25.0, rel=1e-10)


def test_spectral_norm_lanczos_resolves_clustered_top_values():
    # a row-permuted diagonal: its singular values are the diagonal
    n = 3000
    diag = np.random.default_rng(4).uniform(0.0, 0.99, n)
    diag[[17, 2203]] = 1.0, 1.0 - 1e-9
    rows = np.random.default_rng(6).permutation(n)
    mat = sparse.csr_array((diag, (rows, np.arange(n))), shape=(n, n))
    assert spectral_norm(mat) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_of_wide_matrices_on_the_lanczos_side():
    # d = 256 and 512 lie above the dense-eigensolve limit; a wide
    # matrix's Gram is formed there too (F2 is d x d^2)
    for n_x in (32, 64):
        p, g, ode, _ = _system(n_x=n_x, n_v=8, nu0=10.0)
        assert spectral_norm(ode.f2) == pytest.approx(
            f2_norm_closed_form(p, g), rel=1e-12
        )
    a = np.random.default_rng(2).normal(size=(300, 700))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert spectral_norm(a.T) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_spectral_norm_refuses_an_overflowing_gram_before_any_eigensolve(monkeypatch):
    def no_eigensolve(op, seed):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(analysis, "_top_eigenvalue", no_eigensolve)
    big = np.array([[1e200, 1.0], [0.0, 1.0]])
    wide = np.zeros((3, 300))
    wide[0, 0] = 1e160
    for mat in (big, sparse.csr_array(big), wide, sparse.csr_array(wide)):
        with pytest.raises(ValueError, match="Gram matrix .* overflows"):
            spectral_norm(mat)


def test_lognorm_lanczos_diagonal_plus_antisymmetric():
    n = 3000
    rng = np.random.default_rng(8)
    diag = -rng.uniform(1.0, 5.0, n)
    diag[[5, 1999]] = -1.0, -1.0 - 1e-9
    s = sparse.random_array((n, n), density=2e-3, rng=rng, format="csr")
    mat = sparse.diags_array(diag) + s - s.T
    assert lognorm(mat) == pytest.approx(diag.max(), rel=1e-12)


def test_lognorm_dense_oracle():
    rng = np.random.default_rng(9)
    for n in (5, 12, 30):
        a = rng.normal(size=(n, n))
        want = float(np.linalg.eigvalsh(0.5 * (a + a.T)).max())
        assert lognorm(a) == pytest.approx(want, rel=1e-8, abs=1e-10)
        assert lognorm(sparse.csr_array(a)) == pytest.approx(
            want, rel=1e-8, abs=1e-10
        )


def test_lognorm_requires_square():
    with pytest.raises(ValueError):
        lognorm(np.zeros((3, 4)))


def test_lognorm_of_antisymmetric_is_zero():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8))
    skew = a - a.T
    assert lognorm(skew) == 0.0
    # above the dense-eigensolve limit the symmetric part is the zero operator
    s = sparse.random_array((3000, 3000), density=1e-3, rng=rng, format="csr")
    assert lognorm(s - s.T) == 0.0


def test_lognorm_constant_damping_is_exact():
    # f1 = -nu I + antisymmetric: the symmetric part is exactly -nu I,
    # and the dense eigensolve of a diagonal matrix returns it exactly
    _, _, ode, _ = _system(n_x=3, n_v=4, nu0=7.0)
    assert lognorm(ode.f1) == -7.0


def test_lognorm_with_velocity_varying_damping():
    from vlasov_carleman.physics import quadratic_collision_variation

    h = quadratic_collision_variation(4.0, 1.0, 0.05)
    p = PlasmaParams.normalized(nu0=4.0, h_coll=h)
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    want = float(np.linalg.eigvalsh(0.5 * (ode.f1 + ode.f1.T).toarray()).max())
    got = lognorm(ode.f1)
    assert got == pytest.approx(want, rel=1e-8)
    # the least damped velocity dominates: mu = -min nu(v)
    assert got == pytest.approx(-p.nu_values(g).min(), rel=1e-10)


# ----------------------------------------------------------------------
# closed-form norms


@pytest.mark.parametrize("n_x", [2, 3, 5, 8])
@pytest.mark.parametrize("n_v", [4, 6, 8])
def test_f2_closed_form_matches_power_iteration(n_x, n_v):
    p = PlasmaParams.normalized(ncal=1.2)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.9, v_max=1.1)
    ode = gauss_ode(p, g)
    assert f2_norm_closed_form(p, g) == pytest.approx(
        spectral_norm(ode.f2), rel=1e-8
    )


def test_f2_closed_form_si_units():
    p = params_from_temperature(8000.0)
    g = GridSpec(n_x=4, n_v=6, x_max=2.0e-3, v_max=1.0e6)
    ode = gauss_ode(p, g)
    assert f2_norm_closed_form(p, g) == pytest.approx(
        spectral_norm(ode.f2), rel=1e-8
    )


def test_f2_closed_form_needs_two_lines():
    p = PlasmaParams.normalized()
    with pytest.raises(ValueError):
        f2_norm_closed_form(p, GridSpec(n_x=1, n_v=4, x_max=1.0, v_max=1.0))


def f0_norm_exact(
    p: PlasmaParams, g: GridSpec, normalization: str = "paper"
) -> float:
    """Euclidean norm of the collision source by direct summation (the
    oracle for ||F0|| in the certificate).

    Uses the even-n_v half-sum form: with w_j = exp(-b v_j^2),

        ||F0|| = pref / (2 sum_{upper} w_j)
                 * sqrt(2 n_x sum_{upper} nu(v_j)^2 w_j^2),

    where the sums run over the upper half of the velocity grid and
    pref is the Maxwellian prefactor ncal / (2 x_max dv) (doubled for
    unit-mass normalization).
    """
    if normalization not in ("paper", "unit_mass"):
        raise ValueError(f"unknown normalization {normalization!r}")
    v = g.v_coords()
    upper = v[g.n_v // 2 :]
    w = np.exp(-p.b * upper * upper)
    nu_sq = np.array([p.nu(val) ** 2 for val in upper])
    pref = p.ncal / (2.0 * g.x_max * g.dv)
    if normalization == "unit_mass":
        pref *= 2.0
    return (
        pref
        / (2.0 * w.sum())
        * math.sqrt(2.0 * g.n_x * float(np.dot(nu_sq, w * w)))
    )


@pytest.mark.parametrize("normalization", ["paper", "unit_mass"])
def test_f0_norm_exact_matches_vector(normalization):
    p = PlasmaParams.normalized(ncal=1.5, b=0.6, nu0=3.0)
    g = GridSpec(n_x=4, n_v=8, x_max=1.4, v_max=2.5)
    vec = gauss_ode(p, g, normalization=normalization).f0
    assert f0_norm_exact(p, g, normalization=normalization) == pytest.approx(
        float(np.linalg.norm(vec)), rel=1e-13
    )


def test_f1_l1_bound_reads_the_gauss_closed_form_and_sums_the_ampere_f1():
    # the gauss bound is the ODE's closed form, read without assembling
    # F1 (tests/test_qode.py checks it against the assembled F1); the
    # ampere F1 is summed, and its two sums differ
    p = PlasmaParams.normalized(ncal=1.3, nu0=3.0)
    for n_x, n_v in [(2, 4), (3, 6), (5, 4)]:
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
        ode = gauss_ode(p, g)
        assert f1_norm_l1_bound(ode) == ode.f1_l1_bound
        assert "f1" not in ode._f1_cache
        amp = ampere_ode(p, g)
        a = abs(amp.f1)
        want = math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())
        assert f1_norm_l1_bound(amp) == want
        assert want >= np.linalg.norm(amp.f1.toarray(), 2)


# ----------------------------------------------------------------------
# convergence certificate


def test_report_matches_literal_arithmetic():
    _, _, ode, u = _system(nu0=8.0)
    rep = convergence_report(ode, u)
    norm_u = float(np.linalg.norm(u))
    want = (rep.norm_f2 * norm_u + rep.norm_f0 / norm_u) / abs(rep.mu_f1)
    assert rep.r_value == pytest.approx(want, rel=1e-14)
    assert rep.mu_f1 == -8.0
    assert rep.norm_u_in == pytest.approx(norm_u)
    assert rep.feasible is (rep.r_value < 1.0)
    assert "convergent" in rep.verdict


@pytest.mark.parametrize("normalization", ["paper", "unit_mass"])
@pytest.mark.parametrize("h_on", [False, True], ids=["h_none", "h_quadratic"])
@pytest.mark.parametrize("n_x, n_v", [(2, 4), (32, 8), (108, 10)])
def test_report_mu_is_the_lognorm_of_f1(n_x, n_v, h_on, normalization):
    # the Krook diagonal's largest entry against the eigensolver, on the
    # dense side of _DENSE_LIMIT (bit for bit) and the Lanczos side
    from vlasov_carleman.analysis import _DENSE_LIMIT
    from vlasov_carleman.physics import quadratic_collision_variation

    h = quadratic_collision_variation(10.0, 1.0) if h_on else None
    p = PlasmaParams.normalized(nu0=10.0, h_coll=h)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g, normalization=normalization)
    mu = convergence_report(ode, p.two_beam_initial(g, BeamSpec(j_beam=1))).mu_f1
    if ode.d <= _DENSE_LIMIT:
        assert mu == lognorm(ode.f1)
    else:
        assert mu == pytest.approx(lognorm(ode.f1), rel=1e-12, abs=0.0)
    assert mu == -p.nu_values(g).min()


def test_report_weak_collisions_not_feasible():
    _, _, ode, u = _system(nu0=0.5)
    rep = convergence_report(ode, u)
    assert rep.r_value >= 1.0
    assert not rep.feasible
    assert rep.gamma is None
    assert "non_convergent" in rep.verdict


def test_report_no_collisions_non_dissipative():
    _, _, ode, u = _system(nu0=0.0)
    rep = convergence_report(ode, u)
    assert rep.mu_f1 == 0.0
    assert math.isinf(rep.r_value)
    assert not rep.feasible
    assert "non_dissipative" in rep.verdict


def test_report_zero_quadratic_term_not_feasible():
    # one x-line has no accumulated charge, so F2 = 0 and nothing rescales,
    # although R alone would pass
    _, _, ode, u = _system(n_x=1, nu0=8.0)
    rep = convergence_report(ode, u)
    assert rep.norm_f2 == 0.0
    assert rep.r_value < 1.0
    assert not rep.feasible
    assert rep.gamma is None
    assert rep.verdict.startswith("no_quadratic_term")


def test_report_rejects_zero_state():
    _, _, ode, _ = _system()
    with pytest.raises(ValueError):
        convergence_report(ode, np.zeros(ode.d))


def _r_from_closed_forms(p, g):
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    norm_u = float(np.linalg.norm(u))
    return (
        f2_norm_closed_form(p, g) * norm_u + f0_norm_exact(p, g) / norm_u
    ) / p.nu0


def test_r_closed_forms_match_report():
    # the two closed-form norms reassemble the computed ratio exactly
    p = PlasmaParams.normalized(ncal=1.0, nu0=400.0)
    g = GridSpec(n_x=16, n_v=32, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    rep = convergence_report(ode, u)
    assert _r_from_closed_forms(p, g) == pytest.approx(rep.r_value, rel=1e-8)


def test_r_asymptotic_estimate_large_grid_limit():
    # the estimate keeps only the quadratic term; the source term decays
    # like 1/sqrt(N_v), so agreement improves on finer velocity grids
    gaps = []
    for n in (64, 256, 1024):
        g = GridSpec(n_x=n, n_v=n, x_max=1.0, v_max=1.0)
        p = PlasmaParams.normalized(ncal=1.0, nu0=float(n) ** 1.5)
        est = r_asymptotic_estimate(p, g)
        full = _r_from_closed_forms(p, g)
        gaps.append(abs(est - full) / full)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.15
    g_small = GridSpec(n_x=4, n_v=4, x_max=1.0, v_max=1.0)
    assert r_asymptotic_estimate(PlasmaParams.normalized(nu0=0.0), g_small) == math.inf


# ----------------------------------------------------------------------
# rescaling


def test_rescale_postconditions_and_gamma():
    _, _, ode, u = _system(nu0=8.0)
    rep = convergence_report(ode, u)
    ode_bar, u_bar, gamma = rescale(ode, u, rep)
    assert gamma == pytest.approx(math.sqrt(rep.norm_u_in * rep.r_plus), rel=1e-14)
    assert float(np.linalg.norm(u_bar)) < 1.0
    norm_f2_bar = spectral_norm(ode_bar.f2)
    norm_f0_bar = float(np.linalg.norm(ode_bar.f0))
    assert abs(rep.mu_f1) > norm_f2_bar + norm_f0_bar
    # scaling directions
    assert norm_f2_bar == pytest.approx(gamma * rep.norm_f2, rel=1e-10)
    assert norm_f0_bar == pytest.approx(rep.norm_f0 / gamma, rel=1e-13)
    np.testing.assert_allclose(u_bar, u / gamma, rtol=1e-15)


def test_rescale_preserves_dynamics():
    # u(t) solves the original system iff u(t)/gamma solves the scaled one
    from vlasov_carleman.qode import rhs_matrix

    _, _, ode, u = _system(nu0=8.0)
    ode_bar, u_bar, gamma = rescale(ode, u, convergence_report(ode, u))
    rate = rhs_matrix(ode, u)
    rate_bar = rhs_matrix(ode_bar, u_bar)
    np.testing.assert_allclose(rate_bar, rate / gamma, rtol=1e-12)


def test_rescale_rejects_infeasible():
    _, _, ode, u = _system(nu0=0.5)
    with pytest.raises(ValueError):
        rescale(ode, u, convergence_report(ode, u))


def test_rescale_rejects_nondissipative():
    _, _, ode, u = _system(nu0=0.0)
    with pytest.raises(ValueError):
        rescale(ode, u, convergence_report(ode, u))


def test_rescale_rejects_zero_quadratic_term():
    p = PlasmaParams.normalized(nu0=5.0)
    g = GridSpec(n_x=1, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    with pytest.raises(ValueError, match="quadratic"):
        rescale(ode, u, convergence_report(ode, u))


# ----------------------------------------------------------------------
# truncation level


def test_truncation_level_literal_case():
    t, f2, delta, u_t, u_in = 0.2, 1.0, 0.025, 0.5, 0.8
    level = choose_truncation_level(t, f2, delta, u_t, u_in)
    # smallest l with t*f2*u_in**(l/2)/u_t <= delta, found by scan
    scan = 1
    while t * f2 * u_in ** (scan / 2.0) / u_t > delta:
        scan += 1
    assert level == scan == 25


def test_truncation_level_floors_at_one():
    assert choose_truncation_level(1e-3, 1e-3, 0.5, 1.0, 0.5) == 1


def test_implied_error_meets_budget():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t = rng.uniform(0.01, 5.0)
        f2 = rng.uniform(0.01, 10.0)
        delta = rng.uniform(1e-8, 0.4)
        u_t = rng.uniform(0.05, 2.0)
        u_in = rng.uniform(0.05, 0.95)
        level = choose_truncation_level(t, f2, delta, u_t, u_in)
        assert level >= 1
        err = implied_truncation_error(t, f2, u_t, u_in, level)
        assert err <= delta * (1.0 + 1e-9)


def test_truncation_level_input_validation():
    with pytest.raises(ValueError):
        choose_truncation_level(1.0, 1.0, 0.1, 1.0, 1.5)
    with pytest.raises(ValueError):
        choose_truncation_level(-1.0, 1.0, 0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        choose_truncation_level(1.0, 1.0, -0.1, 1.0, 0.5)
    # a diverged reference run hands in a non-finite solution norm
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            choose_truncation_level(1.0, 1.0, 0.1, bad, 0.5)


def test_truncation_level_overflow_names_its_quantity():
    # every input finite, but T ||F2_bar|| / (delta ||u_bar(T)||) is not
    assert choose_truncation_level(1e300, 1.0, 0.5, 1.0, 0.5) >= 1
    with pytest.raises(ValueError, match=r"F2_bar.* overflows at t_final = 1e\+307"):
        choose_truncation_level(1e307, 100.0, 0.5, 1e-3, 0.5)


# ----------------------------------------------------------------------
# Taylor degree


def test_taylor_degree_factorial_property_sweep():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        t = rng.uniform(0.01, 10.0)
        norm_a = rng.uniform(0.1, 50.0)
        delta_prime = 10.0 ** rng.uniform(-12, -1)
        norm_b = rng.uniform(0.0, 5.0)
        u_t = rng.uniform(0.05, 5.0)
        k, omega = choose_taylor_degree(t, norm_a, delta_prime, norm_b, u_t)
        assert k >= 1
        assert math.factorial(k + 1) >= omega
        # omega recomputed independently
        want = (
            math.e**3 * t * norm_a / delta_prime
            * (1.0 + t * math.e**2 * norm_b / u_t)
        )
        assert omega == pytest.approx(want, rel=1e-13)
        if omega > math.e:
            assert k >= math.ceil(
                2.0 * math.log(omega) / math.log(math.log(omega))
            )


def test_taylor_degree_small_omega_guard():
    k, omega = choose_taylor_degree(1e-8, 1e-8, 0.5, 0.0, 1.0)
    assert omega < math.e
    assert k == 1


def test_taylor_degree_validation():
    with pytest.raises(ValueError):
        choose_taylor_degree(0.0, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        choose_taylor_degree(1.0, -1.0, 0.1, 0.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            choose_taylor_degree(1.0, 1.0, 0.1, 0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            choose_taylor_degree(1.0, bad, 0.1, 0.0, 1.0)


def test_taylor_degree_overflow_names_omega():
    # Omega grows as T^2 with a source: finite inputs, infinite Omega
    k, _ = choose_taylor_degree(1e100, 1.0, 1e-10, 1.0, 1.0)
    assert math.factorial(k + 1) >= 1e200
    with pytest.raises(ValueError, match=r"Omega overflows at t_final = 1e\+150"):
        choose_taylor_degree(1e150, 1.0, 1e-10, 1.0, 1.0)


# ----------------------------------------------------------------------
# embedded-norm bound and the plan


def _rescaled(nu0):
    """(ode, certificate, ||F1||, ode_bar, u_bar) of the small system."""
    _, _, ode, u = _system(nu0=nu0)
    rep = convergence_report(ode, u)
    ode_bar, u_bar, _ = rescale(ode, u, rep)
    return ode, rep, spectral_norm(ode.f1), ode_bar, u_bar


def test_a_norm_bound_dominates_dense_norm():
    _, rep, norm_f1, ode_bar, u_bar = _rescaled(8.0)
    for n_c in (1, 2, 3):
        system = build_carleman(ode_bar, n_c)
        dense = np.linalg.norm(system.a.toarray(), 2)
        plan = make_plan(rep, norm_f1, u_bar, t_final=0.1, eps_q=0.1, n_c=n_c)
        assert plan.norm_a >= dense - 1e-10


def test_make_plan_budget_split_and_step_count():
    _, rep, norm_f1, _, u_bar = _rescaled(8.0)
    for eps_q in (0.02, 0.1, 0.5, 1.0):
        plan = make_plan(rep, norm_f1, u_bar, t_final=0.3, eps_q=eps_q)
        assert plan.delta == eps_q / 4.0
        assert plan.delta_prime == pytest.approx(
            eps_q / ((4.0 + eps_q) * math.sqrt(plan.n_c))
        )
        combined = plan.delta + (1.0 + plan.delta) * plan.delta_prime * math.sqrt(
            plan.n_c
        )
        assert combined <= eps_q / 2.0 + 1e-12
        assert plan.m == max(1, math.ceil(plan.t_final * plan.norm_a))
        assert plan.tau == pytest.approx(plan.t_final / plan.m)
        assert plan.p == plan.m
        assert math.factorial(plan.k + 1) >= plan.omega
        assert plan.norm_a_is_bound


def test_make_plan_pinning():
    _, rep, norm_f1, _, u_bar = _rescaled(8.0)
    plan = make_plan(rep, norm_f1, u_bar, t_final=0.2, eps_q=0.2, n_c=5, k=9, norm_a=7.0)
    assert (plan.n_c, plan.k, plan.norm_a) == (5, 9, 7.0)
    assert not plan.norm_a_is_bound
    assert plan.m == math.ceil(0.2 * 7.0)


def test_make_plan_validation():
    _, rep, norm_f1, _, u_bar = _rescaled(8.0)
    with pytest.raises(ValueError):
        make_plan(rep, norm_f1, u_bar, t_final=-1.0, eps_q=0.1)
    with pytest.raises(ValueError):
        make_plan(rep, norm_f1, u_bar, t_final=1.0, eps_q=2.5)


def test_plan_as_dict_keys():
    _, rep, norm_f1, _, u_bar = _rescaled(8.0)
    d = make_plan(rep, norm_f1, u_bar, t_final=0.1, eps_q=0.1).as_dict()
    for key in ("N_C", "k", "Omega", "m", "tau", "delta", "delta_prime"):
        assert key in d


# ----------------------------------------------------------------------
# ampere diagnosis


def test_ampere_diagnosis_zero_columns():
    p = PlasmaParams.normalized(nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = ampere_ode(p, g)
    diag = ampere_diagnosis(ode)
    assert diag.d == 10
    assert diag.zero_column_count == 2
    assert diag.zero_columns == [9, 10]
    assert diag.mu_f1 >= 0.0
    assert not diag.dissipative
    assert "non_convergent" in diag.verdict
    d = diag.as_dict()
    assert d["zero_columns"] == [9, 10]


def test_ampere_mu_nonnegative_across_grids():
    for n_x, n_v in [(2, 4), (3, 6), (4, 4)]:
        p = PlasmaParams.normalized(nu0=50.0)
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
        diag = ampere_diagnosis(ampere_ode(p, g))
        assert diag.mu_f1 >= -1e-12
        assert diag.zero_column_count == n_x


# ----------------------------------------------------------------------
# flattening invariance


def test_column_major_permutation_is_transpose():
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    perm = column_major_permutation(g)
    f = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(f.reshape(-1)[perm], f.T.reshape(-1))


def test_vectorization_invariance_gauss():
    p = PlasmaParams.normalized(nu0=8.0)
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    out = vectorization_invariance(ode, column_major_permutation(g))
    assert out["max_relative_deviation"] <= 1e-10
    assert out["eig_multiset_max_diff"] <= 1e-10


def test_vectorization_invariance_random_permutation():
    p = PlasmaParams.normalized(nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    perm = np.random.default_rng(1).permutation(8)
    out = vectorization_invariance(ode, perm)
    assert out["max_relative_deviation"] <= 1e-10


def test_vectorization_invariance_validates_permutation():
    _, _, ode, _ = _system()
    with pytest.raises(ValueError):
        vectorization_invariance(ode, np.zeros(8, dtype=int))


# ----------------------------------------------------------------------
# sizes and cost


def test_embedding_dimension_exact():
    assert embedding_dimension(8, 1) == 8
    assert embedding_dimension(8, 3) == 584
    assert embedding_dimension(4, 3) == 84
    assert embedding_dimension(1, 7) == 7
    # exact big-integer sum, no float roundoff
    d, n_c = 100, 12
    assert embedding_dimension(d, n_c) == sum(d**level for level in range(1, n_c + 1))
    with pytest.raises(ValueError):
        embedding_dimension(0, 1)
    with pytest.raises(ValueError):
        embedding_dimension(2, 0)


@pytest.mark.parametrize("d", [12, 1080])
@pytest.mark.parametrize("n_c", [int(1.7e308), 2**1100])
def test_embedding_dimension_past_the_float_range(d, n_c):
    # N_C log10 d is past a float's range: still the named digit-limit
    # error, with log10 d_A written out as an integer
    with pytest.raises(ValueError, match=r"-digit limit of a report") as info:
        embedding_dimension(d, n_c)
    exponent = int(re.fullmatch(r"d_A ≈ 10\^(\d+) is past .*", str(info.value))[1])
    assert abs(Fraction(exponent, n_c) - Fraction(math.log10(d))) < 1e-12


def test_complexity_accounting_values():
    ode, rep, norm_f1, _, u_bar = _rescaled(8.0)
    plan = make_plan(rep, norm_f1, u_bar, t_final=0.1, eps_q=0.2, n_c=3)
    acct = complexity_accounting(ode, plan)
    big_n = ode.grid.n_points
    assert acct["d_A"] == 584
    assert acct["s"] == 2 * big_n
    assert acct["s_A"] == 3 * acct["s"] * plan.n_c
    assert acct["classical_ops"] == plan.k * plan.m * big_n
    want_kappa = (plan.m + plan.p) * (1.0 + plan.delta) * math.e * (1.0 + math.e)
    assert acct["kappaL_bound"] == pytest.approx(want_kappa)


def test_complexity_accounting_saturation_flag():
    ode, rep, norm_f1, _, u_bar = _rescaled(8.0)
    plan = make_plan(rep, norm_f1, u_bar, t_final=0.1, eps_q=0.2, n_c=25)
    acct = complexity_accounting(ode, plan)
    # past 2^63, d_A is still the exact Python int
    assert acct["d_A"] > 2**63 - 1
    assert acct["d_A"] == embedding_dimension(8, 25) == (8**26 - 8) // 7


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
def test_embedding_dimension_recurrence(d, n_c):
    # d_A(n_c) = d_A(n_c - 1) + d^n_c
    if n_c == 1:
        assert embedding_dimension(d, 1) == d
    else:
        assert embedding_dimension(d, n_c) == embedding_dimension(d, n_c - 1) + d**n_c
