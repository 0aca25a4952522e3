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
from vlasov_carleman import cli, integrator, pipeline
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


def _step(a, tau, y, b, k):
    """One Taylor step of degree k through a fresh terms buffer."""
    return integrator._taylor_step(a, tau, y, b, np.empty((k + 1, len(y))))


def _psi(enc):
    """The encoding's right-hand side: z0 at register (0, 0) and tau b at
    degree 1 of each stepping slot."""
    psi = np.zeros((enc.time_dim, enc.k + 1, enc.dim))
    psi[0, 0] = enc.z0
    psi[: enc.m, 1] = enc.tau * enc.b
    return psi.reshape(-1)


# ----------------------------------------------------------------------
# the Taylor step and the step checks


def test_taylor_step_scalar_hand_case():
    # a = 2, tau = 0.5, so w = 1: T_3 = 1+1+1/2+1/6 = 8/3 and
    # tau S_3 = 0.5 (1+1/2+1/6) = 5/6, so y = b = 1 steps to 7/2
    a = sparse.csr_array(np.array([[2.0]]))
    step = _step(a, 0.5, np.array([1.0]), np.array([1.0]), 3)
    assert step[0] == pytest.approx(7.0 / 2.0, rel=1e-15)


def test_taylor_step_nilpotent_closed_form():
    # w^2 = 0 makes every degree >= 2 exact: (I+w) y + tau (I+w/2) b
    a = sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
    y = np.array([3.0, 5.0])
    b = np.array([2.0, 4.0])
    tau = 0.25
    closed = [3.0 + tau * 5.0 + tau * (2.0 + tau * 2.0), 5.0 + tau * 4.0]
    step2 = _step(a, tau, y, b, 2)
    np.testing.assert_allclose(step2, closed, rtol=1e-15)
    for k in (3, 5):
        np.testing.assert_array_equal(_step(a, tau, y, b, k), step2)


def test_taylor_step_is_linear_in_the_state_and_source():
    system, z0, _ = _dissipative(d=6, seed=3)
    w = np.linspace(-1.0, 1.0, 6)
    b = system.b

    def step(y, src):
        return _step(system.a, 0.1, y, src, 7)

    np.testing.assert_allclose(
        step(2.0 * z0 + w, 2.0 * b - w), 2.0 * step(z0, b) + step(w, -w),
        rtol=1e-13, atol=1e-14,
    )
    np.testing.assert_allclose(
        step(z0, b), step(z0, np.zeros(6)) + step(np.zeros(6), b),
        rtol=1e-13, atol=1e-14,
    )


@pytest.mark.parametrize("budget, idx", [(1_000_000, np.int32), (2**31, np.int64)])
def test_bound_csr_product_steps_as_the_a_matmul_recurrence_bit_for_bit(budget, idx):
    # the stepping's products run scipy's private CSR kernel, bound by its
    # argument order (n_row, n_col, indptr, indices, data, x, out): a
    # scipy that moves or changes it fails here by name.  Each product is
    # a @ x bit for bit, written into the given row, and the stepped state
    # is byte-identical to the same recurrence through a @, for A with
    # 32-bit and with 64-bit indices
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u_in = p.two_beam_initial(g, BeamSpec(j_beam=1))
    bar, u_bar, _ = rescale(ode, u_in, convergence_report(ode, u_in))
    system = build_carleman(bar, 3, nnz_budget=budget)
    a = system.a
    assert a.indptr.dtype == a.indices.dtype == idx
    rng = np.random.default_rng(5)
    out = np.full(system.dim, np.nan)
    for x in (rng.standard_normal(system.dim), np.zeros(system.dim)):
        assert integrator._csr_product(a, x, out) is out
        assert out.tobytes() == (a @ x).tobytes()
    plan = _plan(6, 4, 0.3, 1.0)
    y = z0 = build_z0(u_bar, 3)
    for _ in range(plan.m):
        term = plan.tau * (a @ y + system.b)
        step = [y, term]
        for j in range(2, plan.k + 1):
            term = (a @ term) * (plan.tau / j)
            step.append(term)
        y = np.sum(step, axis=0)
    got = evolve_iterative(system, z0, plan, store_trajectory=False).y_final
    assert got.tobytes() == y.tobytes()


_COMPARE_INI = """\
[grid]
n_x = {n_x}
n_v = 4
[plasma]
normalized = true
nu0 = {nu0}
h_coll = quadratic
[time]
t_final = 0.05
eps_q = 0.5
use_l1_f1 = true
[solver]
route = stepping
nnz_budget = 20000000
[output]
formats = json
"""


@pytest.mark.parametrize(
    "n_x, nu0, products", [(2, 8, 16), (3, 40, 140)], ids=["2x4_nu0_8", "3x4_nu0_40"]
)
def test_compare_steps_with_m_k_products_with_a(n_x, nu0, products, tmp_path, monkeypatch):
    # the plans the benchmark's encode and embed workloads step; the
    # stepping's products are _csr_product calls, each with A itself
    counted, real, product = [], integrator.evolve_iterative, integrator._csr_product

    def evolve(system, z0, plan, **kwargs):
        operands = []

        def counting(a, x, out):
            operands.append(a)
            return product(a, x, out)

        monkeypatch.setattr(integrator, "_csr_product", counting)
        result = real(system, z0, plan, **kwargs)
        assert all(a is system.a for a in operands)
        counted.append((len(operands), plan.m * plan.k))
        return result

    monkeypatch.setattr(integrator, "evolve_iterative", evolve)
    path = tmp_path / "run.ini"
    path.write_text(_COMPARE_INI.format(n_x=n_x, nu0=nu0) + f"directory = {tmp_path}\n")
    assert cli.run(parse_config(path, "compare"))[1] == 0
    assert counted == [(products, products)]


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
    want = math.sqrt(
        np.dot(z0, z0) + plan.m * plan.tau**2 * np.dot(system.b, system.b)
    )
    assert enc.normalizer == pytest.approx(want, rel=1e-15)
    assert float(np.linalg.norm(_psi(enc))) == pytest.approx(enc.normalizer, rel=1e-13)


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
        cube = y.reshape(enc.time_dim, enc.k + 1, enc.dim)
        # slot 0 has no slot before it: its prev is never read
        slots = [integrator._apply_l(enc, 0, None, cube[0])]
        slots += [integrator._apply_l(enc, i, cube[i - 1], cube[i]) for i in range(1, enc.time_dim)]
        want = np.concatenate(slots, axis=None)
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
    # the solve works through A: L is never assembled, and psi comes back
    # bitwise equal
    system, z0, norm_a = _dissipative(d=6, seed=10)
    enc = build_linear_encoding(system, z0, _plan(3, 6, 0.4, norm_a))
    before = _psi(enc)
    res = solve_encoding(enc, method="direct")
    assert "l" not in vars(enc)
    assert _psi(enc).tobytes() == before.tobytes()
    assert res.diagnostics["residual"] <= 1e-13


@pytest.mark.parametrize(
    "n_x, nu0, m", [(3, 8, 4), (3, 40, 14)], ids=["3x4_nu0_8", "embed"]
)
def test_build_and_solve_peak_under_eight_slot_buffers(n_x, nu0, m, tmp_path):
    # the solve holds slots i-1 and i, not all (m+p+1)(k+1) registers, so
    # its peak does not grow with m + p beyond the m+1 states it returns;
    # a solve that stored every register would peak above m + p + 1 slots
    path = tmp_path / "run.ini"
    path.write_text(_COMPARE_INI.format(n_x=n_x, nu0=nu0))
    pipe = pipeline._certify(parse_config(path, "compare"))
    pipeline._plan(pipe)
    plan = pipe.plan
    ode_bar, u_bar, _ = pipe.rescaled
    system = build_carleman(ode_bar, plan.n_c)
    z0 = build_z0(u_bar, plan.n_c)
    assert plan.m == plan.p == m
    slot, state = 8 * (plan.k + 1) * system.dim, 8 * system.dim
    tracemalloc.start()
    try:
        solve_encoding(build_linear_encoding(system, z0, plan, nnz_budget=10**8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * slot + (m + 1) * state


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
        enc.l.copy(), _psi(enc), lower=True, unit_diagonal=True
    ).reshape(enc.time_dim, enc.k + 1, enc.dim)
    tol = 1e-14 * float(np.max(np.abs(want)))
    # every stepping slot's registers are one step's terms on its y_i
    terms = np.empty((enc.k + 1, enc.dim))
    for i in range(enc.m):
        integrator._taylor_step(enc.a, enc.tau, want[i, 0], enc.b, terms)
        assert float(np.max(np.abs(terms - want[i]))) <= tol
    # the states solve_encoding reports are the oracle's blocks (i, 0), and
    # the padding slots hold y_m at degree 0 and nothing above it
    res = solve_encoding(enc, method="direct")
    assert len(res.y_blocks) == enc.m + 1
    for i, block in enumerate(res.y_blocks):
        assert float(np.max(np.abs(block - want[i, 0]))) <= tol
    for i in range(enc.m, enc.time_dim):
        assert float(np.max(np.abs(want[i, 0] - res.y_final))) <= tol
        assert float(np.max(np.abs(want[i, 1:]))) <= tol
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
    # the stepping's degree check, before any register is written
    with pytest.raises(ValueError, match="taylor degree k must be >= 1"):
        build_linear_encoding(system, z0, _plan(2, 0, 0.2, norm_a))


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
