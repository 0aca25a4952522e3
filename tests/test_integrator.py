"""Taylor stepping, the one-shot linear encoding, and their agreement."""

import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from vlasov_carleman import (
    BeamSpec,
    CarlemanSystem,
    EvolveResult,
    GridSpec,
    PlasmaParams,
    build_carleman,
    build_linear_encoding,
    build_z0,
    convergence_report,
    evolve_iterative,
    extract_solution,
    gauss_ode,
    make_plan,
    rescale,
    solve_encoding,
    spectral_norm,
    taylor_apply,
)
from vlasov_carleman.analysis import TruncationPlan
from full_route import exact_linear_solution


def _plan(m, k, t_final, norm_a, p=None, is_bound=False):
    # only k, m, p, tau, norm_a matter to the integrator; the budget
    # fields are carried along for reporting
    return TruncationPlan(
        n_c=1,
        k=k,
        omega=1.0,
        delta=0.1,
        delta_prime=0.1,
        eps_q=0.4,
        eps_c=0.01,
        t_final=t_final,
        tau=t_final / m,
        m=m,
        p=m if p is None else p,
        norm_a=norm_a,
        norm_a_is_bound=is_bound,
        norm_u_t_bar=0.5,
        norm_u_in_bar=0.5,
    )


def _dissipative(d=8, seed=0, shift=1.0):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((d, d))
    a = r - (np.linalg.norm(r, 2) + shift) * np.eye(d)
    b = rng.standard_normal(d)
    system = CarlemanSystem(
        a=sparse.csr_array(a), b=b, n_c=1, d=d, d_a=d
    )
    z0 = rng.standard_normal(d)
    return system, z0, float(np.linalg.norm(a, 2))


# ----------------------------------------------------------------------
# taylor_apply


def test_taylor_apply_scalar_hand_case():
    # a = 2, tau = 0.5, so w = 1: T_3 = 1+1+1/2+1/6, S_3 = 1+1/2+1/6
    a = sparse.csr_array(np.array([[2.0]]))
    t, s = taylor_apply(a, 0.5, np.array([1.0]), 3)
    assert t[0] == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert s[0] == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_taylor_apply_nilpotent_closed_form():
    # w^2 = 0 makes every degree >= 2 exact: T = (I+w)v, S = (I+w/2)v
    a = sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
    v = np.array([3.0, 5.0])
    tau = 0.25
    t2, s2 = taylor_apply(a, tau, v, 2)
    t5, s5 = taylor_apply(a, tau, v, 5)
    np.testing.assert_allclose(t2, [3.0 + tau * 5.0, 5.0], rtol=1e-15)
    np.testing.assert_allclose(s2, [3.0 + tau * 2.5, 5.0], rtol=1e-15)
    np.testing.assert_array_equal(t2, t5)
    np.testing.assert_array_equal(s2, s5)


def test_taylor_apply_is_linear_in_the_state():
    system, z0, _ = _dissipative(d=6, seed=3)
    w = np.linspace(-1.0, 1.0, 6)
    t_sum, s_sum = taylor_apply(system.a, 0.1, 2.0 * z0 + w, 7)
    t_a, s_a = taylor_apply(system.a, 0.1, z0, 7)
    t_b, s_b = taylor_apply(system.a, 0.1, w, 7)
    np.testing.assert_allclose(t_sum, 2.0 * t_a + t_b, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(s_sum, 2.0 * s_a + s_b, rtol=1e-13, atol=1e-14)


def test_taylor_apply_degree_validation():
    a = sparse.identity(2, format="csr")
    with pytest.raises(ValueError, match="k"):
        taylor_apply(a, 0.1, np.ones(2), 0)


def test_taylor_apply_step_size_warning():
    a = sparse.identity(2, format="csr")
    with pytest.warns(RuntimeWarning, match="Taylor step"):
        taylor_apply(a, 0.5, np.ones(2), 3, norm_a=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taylor_apply(a, 0.5, np.ones(2), 3, norm_a=2.0)


# ----------------------------------------------------------------------
# stepping against the dense oracle


def test_stepping_matches_exact_solution():
    system, z0, norm_a = _dissipative(d=10, seed=1)
    t_final = 0.8
    m = max(1, math.ceil(t_final * norm_a))
    res = evolve_iterative(system, z0, _plan(m, 20, t_final, norm_a))
    exact = exact_linear_solution(system, z0, t_final)
    rel = np.linalg.norm(res.y_final - exact) / np.linalg.norm(exact)
    assert rel < 1e-12


def test_stepping_error_decays_with_degree():
    system, z0, norm_a = _dissipative(d=8, seed=4)
    t_final = 0.5
    m = max(1, math.ceil(t_final * norm_a))
    exact = exact_linear_solution(system, z0, t_final)
    degrees = (2, 4, 8, 16)
    errs = []
    for k in degrees:
        res = evolve_iterative(system, z0, _plan(m, k, t_final, norm_a))
        errs.append(np.linalg.norm(res.y_final - exact) / np.linalg.norm(exact))
    assert errs[0] > errs[1] > errs[2]
    tau = t_final / m
    for k, err in zip(degrees, errs):
        bound = 10.0 * m * (tau * norm_a) ** (k + 1) / math.factorial(k + 1)
        assert err <= max(bound, 1e-13)
    assert errs[3] < 1e-12


def test_evolve_trajectory_bookkeeping():
    system, z0, norm_a = _dissipative(d=6, seed=5)
    plan = _plan(4, 6, 0.2, norm_a)
    res = evolve_iterative(system, z0, plan)
    assert res.method == "taylor_stepping"
    assert len(res.y_blocks) == plan.m + 1
    assert res.step_norms.shape == (plan.m + 1,)
    np.testing.assert_array_equal(res.y_blocks[0], z0)
    assert res.y1m.shape == (system.d,)
    bare = evolve_iterative(system, z0, plan, store_trajectory=False)
    assert bare.y_blocks is None
    np.testing.assert_array_equal(bare.y_final, res.y_final)


def test_evolve_rejects_wrong_state_shape():
    system, _, norm_a = _dissipative(d=6, seed=6)
    with pytest.raises(ValueError, match="shape"):
        evolve_iterative(system, np.zeros(7), _plan(2, 4, 0.1, norm_a))


def test_dense_oracle_size_guard():
    d = 2001
    system = CarlemanSystem(
        a=sparse.csr_array(sparse.identity(d) * -1.0),
        b=np.zeros(d),
        n_c=1,
        d=d,
        d_a=d,
    )
    with pytest.raises(ValueError, match="dense oracle"):
        exact_linear_solution(system, np.zeros(d), 1.0)


# ----------------------------------------------------------------------
# linear encoding


def test_encoding_dimensions_and_normalized_input():
    system, z0, norm_a = _dissipative(d=5, seed=7)
    plan = _plan(3, 4, 0.3, norm_a)
    enc = build_linear_encoding(system, z0, plan)
    assert enc.total_dim == (plan.m + plan.p + 1) * (plan.k + 1) * system.d_a
    assert enc.l.shape == (enc.total_dim, enc.total_dim)
    assert float(np.linalg.norm(enc.psi_in)) == pytest.approx(1.0, rel=1e-13)
    want = math.sqrt(
        np.dot(z0, z0) + plan.m * plan.tau**2 * np.dot(system.b, system.b)
    )
    assert enc.normalizer == pytest.approx(want, rel=1e-15)


def test_encoding_is_unit_lower_triangular_with_closed_form_nnz():
    system, z0, norm_a = _dissipative(d=4, seed=8)
    plan = _plan(2, 3, 0.2, norm_a, p=2)
    enc = build_linear_encoding(system, z0, plan)
    # L - I strictly lower triangular, hence nilpotent
    n_op = sparse.csr_array(enc.l - sparse.identity(enc.total_dim))
    assert sparse.triu(n_op).nnz == 0
    np.testing.assert_array_equal(enc.l.diagonal(), np.ones(enc.total_dim))
    m, p, k, dim = plan.m, plan.p, plan.k, system.dim
    nnz = (m + p + 1) * (k + 1) * dim + m * (k * system.a.nnz + (k + 1) * dim) + p * dim
    assert enc.l.nnz == nnz
    build_linear_encoding(system, z0, plan, nnz_budget=nnz)
    with pytest.raises(ValueError, match=f"encoding nnz {nnz} exceeds budget"):
        build_linear_encoding(system, z0, plan, nnz_budget=nnz - 1)


def test_single_step_encoding_reproduces_one_taylor_step():
    system, z0, norm_a = _dissipative(d=6, seed=9)
    plan = _plan(1, 5, 0.15, norm_a, p=0)
    enc = build_linear_encoding(system, z0, plan)
    res = solve_encoding(enc, method="direct")
    t_z, _ = taylor_apply(system.a, plan.tau, z0, plan.k)
    _, s_b = taylor_apply(system.a, plan.tau, system.b, plan.k)
    want = t_z + plan.tau * s_b
    np.testing.assert_allclose(res.y_final, want, rtol=1e-12, atol=1e-13)
    assert res.padding_blocks == []


def test_encoding_agrees_with_stepping():
    system, z0, norm_a = _dissipative(d=6, seed=10)
    plan = _plan(3, 6, 0.4, norm_a)
    enc = build_linear_encoding(system, z0, plan)
    res_enc = solve_encoding(enc)
    res_step = evolve_iterative(system, z0, plan)
    for blk_e, blk_s in zip(res_enc.y_blocks, res_step.y_blocks):
        np.testing.assert_allclose(blk_e, blk_s, rtol=1e-10, atol=1e-12)
    assert res_enc.diagnostics["residual"] <= 1e-10
    assert res_enc.method == "linear_encoding"


def test_padding_blocks_repeat_the_final_state():
    system, z0, norm_a = _dissipative(d=5, seed=11)
    plan = _plan(2, 5, 0.3, norm_a, p=3)
    res = solve_encoding(build_linear_encoding(system, z0, plan))
    assert len(res.padding_blocks) == 3
    for block in res.padding_blocks:
        np.testing.assert_allclose(block, res.y_final, rtol=1e-11, atol=1e-13)
    assert res.diagnostics["padding_deviation"] <= 1e-11


def _pipeline(n_v, nu0, t_final, n_c):
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=nu0)
    g = GridSpec(n_x=2, n_v=n_v, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    rep = convergence_report(ode, u)
    ode_bar, u_bar, gamma = rescale(ode, u, rep)
    plan = make_plan(rep, spectral_norm(ode.f1), u_bar, t_final=t_final, eps_q=0.5, n_c=n_c)
    return ode, g, gamma, plan, build_carleman(ode_bar, plan.n_c), build_z0(u_bar, plan.n_c)


def test_direct_and_iterative_solvers_agree():
    system, z0, norm_a = _dissipative(d=5, seed=12)
    # the 2x2 plan has m = p = 11 at t_final = 1: GMRES stopped at rtol
    # 1e-12 there leaves the padding copies 2e-12 apart
    *_, plan_2x2, system_2x2, z0_2x2 = _pipeline(n_v=2, nu0=4.0, t_final=1.0, n_c=2)
    encodings = [
        build_linear_encoding(system, z0, _plan(2, 4, 0.25, norm_a)),
        build_linear_encoding(system_2x2, z0_2x2, plan_2x2),
    ]
    for enc in encodings:
        y_dir = solve_encoding(enc, method="direct")
        y_it = solve_encoding(enc, method="iterative")
        np.testing.assert_allclose(y_it.y_final, y_dir.y_final, rtol=1e-9, atol=1e-11)
        assert y_it.diagnostics["padding_deviation"] <= 1e-12
        assert y_dir.diagnostics["padding_deviation"] <= 1e-12


def test_solve_method_validation():
    system, z0, norm_a = _dissipative(d=4, seed=13)
    enc = build_linear_encoding(system, z0, _plan(1, 3, 0.1, norm_a))
    with pytest.raises(ValueError, match="method"):
        solve_encoding(enc, method="magic")


def test_encoding_budget_and_empty_input_guards():
    system, z0, norm_a = _dissipative(d=5, seed=14)
    with pytest.raises(ValueError, match="budget"):
        build_linear_encoding(system, z0, _plan(3, 4, 0.3, norm_a), nnz_budget=10)
    system_zero = CarlemanSystem(
        a=system.a, b=np.zeros(5), n_c=1, d=5, d_a=5
    )
    with pytest.raises(ValueError, match="nothing to solve"):
        build_linear_encoding(system_zero, np.zeros(5), _plan(2, 3, 0.2, norm_a))
    with pytest.raises(ValueError, match="shape"):
        build_linear_encoding(system, np.zeros(6), _plan(2, 3, 0.2, norm_a))


# ----------------------------------------------------------------------
# end to end on the physical system


def test_full_pipeline_encoding_equals_stepping():
    ode, g, gamma, plan, system, z0 = _pipeline(n_v=4, nu0=8.0, t_final=0.05, n_c=2)
    res_step = evolve_iterative(system, z0, plan)
    res_enc = solve_encoding(build_linear_encoding(system, z0, plan))
    rel = np.linalg.norm(res_enc.y_final - res_step.y_final) / np.linalg.norm(
        res_step.y_final
    )
    assert rel < 1e-10
    f, info = extract_solution(res_enc, gamma, g)
    assert f.shape == (g.n_x, g.n_v)
    np.testing.assert_allclose(
        f.reshape(-1), gamma * res_enc.y_final[: ode.d], rtol=1e-15
    )
    assert set(info) == {"negative_entries", "min_value", "max_value"}


def test_extract_solution_grid_mismatch():
    res = EvolveResult(
        y_final=np.ones(4), m=1, k=1, tau=0.1, d=4, method="taylor_stepping"
    )
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError, match="grid"):
        extract_solution(res, 1.0, g)


def test_extract_solution_counts_negatives():
    y = np.array([1.0, -0.5, 2.0, -0.25, 3.0, 0.0, 1.0, 4.0])
    res = EvolveResult(
        y_final=y, m=1, k=1, tau=0.1, d=8, method="taylor_stepping"
    )
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    f, info = extract_solution(res, 2.0, g)
    assert info["negative_entries"] == 2
    assert info["min_value"] == -1.0
    assert info["max_value"] == 8.0
