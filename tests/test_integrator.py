"""Taylor stepping, the one-shot linear encoding, and their agreement."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve_triangular

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
)
from vlasov_carleman import integrator, pipeline
from vlasov_carleman.analysis import TruncationPlan
from vlasov_carleman.cli import parse_config
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


def _dense_taylor(a, tau, k):
    """T_k(a tau) and S_k(a tau) from dense matrix powers of a tau."""
    w = a.toarray() * tau
    power = np.eye(w.shape[0])
    t, s = power.copy(), np.zeros_like(w)
    for j in range(1, k + 1):
        s += power / math.factorial(j)
        power = power @ w
        t += power / math.factorial(j)
    return t, s


def _taylor_pair(a, tau, v, k):
    """(T_k(a tau) v, S_k(a tau) v) from one pass of the running terms."""
    s = np.zeros_like(v)
    return integrator._taylor_terms(a, tau, v, k, s), s


# ----------------------------------------------------------------------
# Taylor polynomials and the step checks


def test_taylor_terms_scalar_hand_case():
    # a = 2, tau = 0.5, so w = 1: T_3 = 1+1+1/2+1/6, S_3 = 1+1/2+1/6
    a = sparse.csr_array(np.array([[2.0]]))
    t, s = _taylor_pair(a, 0.5, np.array([1.0]), 3)
    assert t[0] == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert s[0] == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_taylor_terms_nilpotent_closed_form():
    # w^2 = 0 makes every degree >= 2 exact: T = (I+w)v, S = (I+w/2)v
    a = sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
    v = np.array([3.0, 5.0])
    tau = 0.25
    t2, s2 = _taylor_pair(a, tau, v, 2)
    t5, s5 = _taylor_pair(a, tau, v, 5)
    np.testing.assert_allclose(t2, [3.0 + tau * 5.0, 5.0], rtol=1e-15)
    np.testing.assert_allclose(s2, [3.0 + tau * 2.5, 5.0], rtol=1e-15)
    np.testing.assert_array_equal(t2, t5)
    np.testing.assert_array_equal(s2, s5)
    # T alone, without the S accumulator, is the same T
    np.testing.assert_array_equal(integrator._taylor_terms(a, tau, v, 5), t5)


def test_taylor_terms_are_linear_in_the_state():
    system, z0, _ = _dissipative(d=6, seed=3)
    w = np.linspace(-1.0, 1.0, 6)
    t_sum, s_sum = _taylor_pair(system.a, 0.1, 2.0 * z0 + w, 7)
    t_a, s_a = _taylor_pair(system.a, 0.1, z0, 7)
    t_b, s_b = _taylor_pair(system.a, 0.1, w, 7)
    np.testing.assert_allclose(t_sum, 2.0 * t_a + t_b, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(s_sum, 2.0 * s_a + s_b, rtol=1e-13, atol=1e-14)


def test_stepping_rejects_taylor_degree_zero():
    system, z0, norm_a = _dissipative(d=4, seed=2)
    with pytest.raises(ValueError, match="k"):
        evolve_iterative(system, z0, _plan(2, 0, 0.1, norm_a))


def test_stepping_warns_on_a_bound_step_outside_the_unit_ball():
    # tau * norm_a = 0.5 * 4 = 2: a warning when norm_a is the bound, none
    # when it is a computed norm
    system, z0, _ = _dissipative(d=4, seed=2)
    with pytest.warns(RuntimeWarning, match="Taylor step"):
        evolve_iterative(system, z0, _plan(1, 3, 0.5, 4.0, is_bound=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_iterative(system, z0, _plan(1, 3, 0.5, 4.0, is_bound=False))


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


def test_stepping_matches_dense_taylor_polynomial_steps():
    # each step is T_k(A tau) y + S_k(A tau) tau b, here from dense powers
    system, z0, norm_a = _dissipative(d=7, seed=14)
    plan = _plan(4, 6, 0.3, norm_a)
    t, s = _dense_taylor(system.a, plan.tau, plan.k)
    y = z0.copy()
    for _ in range(plan.m):
        y = t @ y + plan.tau * (s @ system.b)
    got = evolve_iterative(system, z0, plan).y_final
    assert np.linalg.norm(got - y) <= 1e-14 * np.linalg.norm(y)


def test_evolve_trajectory_bookkeeping():
    system, z0, norm_a = _dissipative(d=6, seed=5)
    plan = _plan(4, 6, 0.2, norm_a)
    res = evolve_iterative(system, z0, plan)
    assert res.method == "taylor_stepping"
    assert len(res.y_blocks) == plan.m + 1
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
    # the budget bounds the registers, the rows of L
    total = enc.total_dim
    build_linear_encoding(system, z0, plan, nnz_budget=total)
    refused = f"encoding registers {total} exceed budget {total - 1}"
    with pytest.raises(ValueError, match=refused):
        build_linear_encoding(system, z0, plan, nnz_budget=total - 1)


_ENCODE_CONFIG = """\
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
"""


def _encode_case(tmp_path):
    # the 2x4, nu0 = 8 compare config: m = p = 2, k = 8, dim 164
    path = tmp_path / "encode.ini"
    path.write_text(_ENCODE_CONFIG)
    pipe = pipeline._certify(parse_config(path, "compare"))
    pipeline._plan(pipe)
    plan = pipe.plan
    ode_bar, u_bar, _ = pipe.rescaled
    system = build_carleman(ode_bar, plan.n_c)
    assert (plan.m, plan.p, plan.k, system.dim) == (2, 2, 8, 164)
    return system, build_z0(u_bar, plan.n_c), plan


@pytest.mark.parametrize("case", ["m1_k1", "encode", "p_eq_m_3"])
def test_assembled_l_equals_the_register_apply(case, tmp_path):
    # the encode config's embedded system under its own plan and two others
    system, z0, plan = _encode_case(tmp_path)
    if case == "m1_k1":
        plan = _plan(1, 1, plan.tau, plan.norm_a)
    elif case == "p_eq_m_3":
        plan = _plan(3, 4, 3 * plan.tau, plan.norm_a)
        assert plan.p == plan.m == 3
    enc = build_linear_encoding(system, z0, plan)
    got = enc.l
    assert got.shape == (enc.total_dim, enc.total_dim)
    rng = np.random.default_rng(5)
    for _ in range(3):
        y = rng.standard_normal(enc.total_dim)
        want = integrator._apply_l(enc, y)
        assert np.linalg.norm(got @ y - want) <= 1e-15 * np.linalg.norm(want)
    resorted = got.copy()
    resorted.has_sorted_indices = False
    resorted.sort_indices()
    np.testing.assert_array_equal(resorted.indices, got.indices)


def test_single_step_encoding_reproduces_one_taylor_step():
    system, z0, norm_a = _dissipative(d=6, seed=9)
    plan = _plan(1, 5, 0.15, norm_a, p=0)
    enc = build_linear_encoding(system, z0, plan)
    res = solve_encoding(enc, method="direct")
    t, s = _dense_taylor(system.a, plan.tau, plan.k)
    want = t @ z0 + plan.tau * (s @ system.b)
    assert np.linalg.norm(res.y_final - want) <= 1e-14 * np.linalg.norm(want)
    assert res.diagnostics["padding_deviation"] == 0.0


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


def test_direct_solve_leaves_the_encoding_unchanged():
    # the register fill works through A: L is never assembled, and psi_in
    # comes back bitwise equal
    system, z0, norm_a = _dissipative(d=6, seed=10)
    enc = build_linear_encoding(system, z0, _plan(3, 6, 0.4, norm_a))
    before = enc.psi_in.copy()
    res = solve_encoding(enc, method="direct")
    assert "l" not in vars(enc)
    assert enc.psi_in.tobytes() == before.tobytes()
    assert res.diagnostics["residual"] <= 1e-13


def test_build_and_solve_peak_under_six_register_copies(tmp_path):
    # the 3x4, nu0 = 8 compare plan: 147,339 registers (1.18 MB); a solve
    # that assembled L's 1.3M entries would peak near 24 MB
    path = tmp_path / "encode3.ini"
    path.write_text(_ENCODE_CONFIG.replace("n_x = 2", "n_x = 3"))
    pipe = pipeline._certify(parse_config(path, "compare"))
    pipeline._plan(pipe)
    ode_bar, u_bar, _ = pipe.rescaled
    system = build_carleman(ode_bar, pipe.plan.n_c)
    z0 = build_z0(u_bar, pipe.plan.n_c)
    total = (pipe.plan.m + pipe.plan.p + 1) * (pipe.plan.k + 1) * system.dim
    assert total == 147_339
    tracemalloc.start()
    try:
        solve_encoding(build_linear_encoding(system, z0, pipe.plan))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * total


def test_padding_blocks_repeat_the_final_state():
    system, z0, norm_a = _dissipative(d=5, seed=11)
    plan = _plan(2, 5, 0.3, norm_a, p=3)
    res = solve_encoding(build_linear_encoding(system, z0, plan))
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


@pytest.mark.parametrize("case", ["single_step", "padded", "pipeline_2x2"])
def test_register_fill_matches_scipy_triangular_solve(case):
    if case == "pipeline_2x2":
        *_, plan, system, z0 = _pipeline(n_v=2, nu0=4.0, t_final=1.0, n_c=2)
    else:
        system, z0, norm_a = _dissipative(d=6, seed=9)
        m, p = (1, 0) if case == "single_step" else (2, 3)
        plan = _plan(m, 5, 0.15 * m, norm_a, p=p)
    enc = build_linear_encoding(system, z0, plan)
    want = spsolve_triangular(
        enc.l.copy(), enc.psi_in, lower=True, unit_diagonal=True
    )
    scale = float(np.max(np.abs(want)))
    got = integrator._fill_registers(enc)
    assert float(np.max(np.abs(got - want))) <= 1e-14 * scale
    # the final state solve_encoding reports is the oracle's block (m, 0)
    y_m = want.reshape(enc.time_dim, enc.k + 1, enc.dim)[enc.m, 0] * enc.normalizer
    res = solve_encoding(enc, method="direct")
    assert float(np.max(np.abs(res.y_final - y_m))) <= 1e-14 * scale * enc.normalizer
    assert res.diagnostics["padding_deviation"] <= 1e-12


def test_solve_method_validation():
    system, z0, norm_a = _dissipative(d=4, seed=13)
    enc = build_linear_encoding(system, z0, _plan(1, 3, 0.1, norm_a))
    # the register fill is the one solve
    for method in ("magic", "iterative", "auto"):
        with pytest.raises(ValueError, match="method"):
            solve_encoding(enc, method=method)


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
