"""Nonlinear ground-truth integrator: order checks, fixed points, metrics."""

import math

import numpy as np
import pytest

from vlasov_carleman import (
    BeamSpec,
    GridSpec,
    PlasmaParams,
    compare_solutions,
    gauss_ode,
    integrate_nonlinear,
    qode,
    reference,
    rhs_direct,
    rhs_matrix,
)
from vlasov_carleman.cli import parse_config


def _setup(n_x=2, n_v=4, nu0=8.0, normalization="paper"):
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=nu0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g, normalization=normalization)
    u0 = p.two_beam_initial(g, BeamSpec(j_beam=1))
    return p, g, ode, u0


# ----------------------------------------------------------------------
# exact solutions


def test_single_line_relaxation_matches_closed_form():
    # one x-line kills streaming and the field, leaving
    # u' = -nu (u - fM) with solution fM + (u0 - fM) exp(-nu t)
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=3.0)
    g = GridSpec(n_x=1, n_v=6, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    assert ode.f2.nnz == 0
    u0 = p.two_beam_initial(g, BeamSpec(j_beam=2))
    t_final = 0.7
    run = integrate_nonlinear(ode, u0, t_final, steps=400, order=4)
    u_star = np.tile(p.maxwellian_vector(g), g.n_x)
    exact = u_star + (u0 - u_star) * math.exp(-p.nu0 * t_final)
    np.testing.assert_allclose(run.u_final, exact, rtol=1e-10, atol=1e-13)


def test_unit_mass_maxwellian_is_a_discrete_fixed_point():
    # with the velocity integral matching the background exactly, the
    # field vanishes and the collision term is zero: nothing moves
    p, g, ode, _ = _setup(n_x=3, n_v=6, normalization="unit_mass")
    u_star = np.tile(p.maxwellian_vector(g, normalization="unit_mass"), g.n_x)
    scale = float(np.abs(u_star).max())
    rate = rhs_matrix(ode, u_star)
    assert float(np.abs(rate).max()) <= 1e-10 * scale
    run = integrate_nonlinear(ode, u_star, 0.5, steps=100, order=4)
    np.testing.assert_allclose(run.u_final, u_star, rtol=1e-10)


def test_two_beam_relaxes_toward_the_maxwellian():
    p, g, ode, u0 = _setup(n_x=2, n_v=6, nu0=8.0, normalization="unit_mass")
    u_star = np.tile(p.maxwellian_vector(g, normalization="unit_mass"), g.n_x)
    d0 = float(np.linalg.norm(u0 - u_star))
    run = integrate_nonlinear(ode, u0, 2.0, steps=400, order=4)
    d_final = float(np.linalg.norm(run.u_final - u_star))
    assert d_final < 1e-4 * d0


# ----------------------------------------------------------------------
# convergence orders via step-doubling


@pytest.mark.parametrize(
    "order,steps0",
    [(1, 40), (2, 20), (4, 5)],
)
def test_self_convergence_slope_matches_order(order, steps0):
    _, _, ode, u0 = _setup()
    t_final = 0.1
    u_h = integrate_nonlinear(ode, u0, t_final, steps0, order=order).u_final
    u_h2 = integrate_nonlinear(ode, u0, t_final, 2 * steps0, order=order).u_final
    u_h4 = integrate_nonlinear(ode, u0, t_final, 4 * steps0, order=order).u_final
    e1 = float(np.linalg.norm(u_h - u_h2))
    e2 = float(np.linalg.norm(u_h2 - u_h4))
    slope = math.log2(e1 / e2)
    assert slope == pytest.approx(order, abs=0.4)


def _explicit_rk(rhs, u0, t_final, steps, order):
    """Forward Euler, explicit midpoint or classic RK4, written out stage
    by stage around an injected right-hand side: the oracle loop that
    the library's compiled stages are checked against."""
    u = np.array(u0, dtype=float)
    dt = t_final / steps
    for _ in range(steps):
        if order == 1:
            u = u + dt * rhs(u)
        elif order == 2:
            k1 = rhs(u)
            u = u + dt * rhs(u + 0.5 * dt * k1)
        else:
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _assembled_rhs(ode):
    return lambda u: ode.f2 @ np.kron(u, u) + ode.f1 @ u + ode.f0


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


def test_direct_and_matrix_rhs_give_the_same_trajectory():
    for normalization in ("paper", "unit_mass"):
        p, g, ode, u0 = _setup(n_x=3, n_v=4, normalization=normalization)
        for order in (1, 2, 4):
            a = integrate_nonlinear(ode, u0, 0.05, steps=20, order=order)
            b = _explicit_rk(
                lambda u: rhs_direct(
                    p, g, u.reshape(g.n_x, g.n_v), normalization=normalization
                ).reshape(-1),
                u0, 0.05, 20, order,
            )
            np.testing.assert_allclose(b, a.u_final, rtol=1e-11, atol=1e-13)
            assert a.rhs_evals == 20 * order


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
"""


def test_compiled_rate_trajectory_matches_assembled_f2(tmp_path):
    # the 2x4, nu0 = 8 config: its 400 RK4 steps through the compiled
    # rate operator against the same steps through F2 (u(x)u) + F1 u + F0
    path = tmp_path / "encode.ini"
    path.write_text(_ENCODE_CONFIG)
    cfg = parse_config(path, "run-reference")
    ode = gauss_ode(cfg.params, cfg.grid, normalization=cfg.maxwellian_normalization)
    u0 = cfg.params.two_beam_initial(cfg.grid, BeamSpec(j_beam=cfg.j_beam))
    assert (cfg.reference_steps, cfg.reference_order) == (400, 4)
    a = integrate_nonlinear(ode, u0, cfg.t_final, cfg.reference_steps)
    b = _explicit_rk(_assembled_rhs(ode), u0, cfg.t_final, cfg.reference_steps, 4)
    assert a.rhs_evals == 1600
    assert _rel(a.u_final, b) <= 1e-13


@pytest.mark.parametrize(
    "make, n_x, n_v, dense",
    [
        (gauss_ode, 2, 4, True),  # d (d+1)^2 = 648
        (gauss_ode, 4, 6, True),  # 24 x 25^2 = 15,000, at the limit
        (gauss_ode, 5, 6, False),  # 30 x 31^2 = 28,830
        (gauss_ode, 4, 8, False),  # 32 x 33^2 = 34,848
        (gauss_ode, 8, 16, False),
        (gauss_ode, 16, 16, False),
    ],
)
def test_compiled_stages_match_rhs_matrix_and_assembled_f2(make, n_x, n_v, dense):
    # the stage operator is the dense bilinear tensor or the CSR rate by
    # the tensor's d (d+1)^2 entries alone; either way each order's
    # trajectory, over an odd and an even step count (the alternating
    # buffers end on a different one), is the one that rhs_matrix and
    # the assembled F2 give in the oracle loop, from a random state and
    # from a perturbed unit-mass Maxwellian, where the charge nearly
    # cancels the background field
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
    rng = np.random.default_rng(n_x * 100 + n_v)
    ode = make(p, g)
    near = make(p, g, normalization="unit_mass")
    u_star = np.tile(p.maxwellian_vector(g, normalization="unit_mass"), n_x)
    d = ode.d
    assert (d * (d + 1) ** 2 <= qode._DENSE_RATE_LIMIT) is dense
    cases = [
        (ode, rng.uniform(0.0, 1.0, d)),
        (near, u_star * (1.0 + 1e-6 * rng.standard_normal(d))),
    ]
    for model, u0 in cases:
        op = model.stage_operator
        assert isinstance(op, np.ndarray) is dense and model.stage_operator is op
        for order in (1, 2, 4):
            for steps in (9, 10):
                got = integrate_nonlinear(model, u0, 0.05, steps, order=order).u_final
                oracle = _explicit_rk(lambda u: rhs_matrix(model, u), u0, 0.05, steps, order)
                assert _rel(got, oracle) <= 1e-14
                assembled = _explicit_rk(_assembled_rhs(model), u0, 0.05, steps, order)
                assert _rel(got, assembled) <= 1e-13
        if dense:
            # T applied to (u, 1) twice is the rate, on random states
            assert op.shape == (d * (d + 1), d + 1)
            for u in (rng.uniform(0.0, 1.0, d), rng.standard_normal(d)):
                x = np.append(u, 1.0)
                assert _rel((op @ x).reshape(d, d + 1) @ x, rhs_matrix(model, u)) <= 1e-15
    # the unperturbed Maxwellian is a fixed point of both paths: one
    # Euler step of length 1 moves it by the compiled stage's rate
    euler = integrate_nonlinear(near, u_star, 1.0, steps=1, order=1).u_final
    assert float(np.linalg.norm(euler - u_star)) <= 3e-14
    assert float(np.linalg.norm(rhs_matrix(near, u_star))) <= 3e-14


@pytest.mark.parametrize("n_x, n_v, nnz", [(108, 10, 8_511), (1024, 64, 523_135)])
def test_bound_csr_kernel_stage_is_the_rate_product_bit_for_bit(n_x, n_v, nnz):
    # the CSR stage adds the product into its zeroed scratch row with
    # scipy's kernel: the scratch holds exactly rate @ (u, 1), charge rows
    # running-summed, and the stage exactly rhs_matrix's rate, at each of
    # two states run through the same buffers
    p = PlasmaParams.normalized(ncal=math.sqrt(math.pi), b=1.0, nu0=10.0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=4.0)
    ode = gauss_ode(p, g, normalization="unit_mass")
    op, d = ode.stage_operator, ode.d
    assert op is ode.rate and op.nnz == nnz
    x, y, k = np.empty(d + 1), np.empty(op.shape[0]), np.empty(d)
    calls = reference._stage_calls(op, y, x, k, n_v)
    rng = np.random.default_rng(n_x)
    for u in (rng.uniform(0.0, 1.0, d), rng.standard_normal(d)):
        x[:] = np.append(u, 1.0)
        for call in calls:
            call()
        want = ode.rate @ np.append(u, 1.0)
        assert y[: 2 * d].tobytes() == want[: 2 * d].tobytes()
        assert y[2 * d :].tobytes() == np.add.accumulate(want[2 * d :]).tobytes()
        assert k.tobytes() == rhs_matrix(ode, u).tobytes()


@pytest.mark.parametrize("n_x, n_v, dense", [(2, 4, True), (16, 16, False)])
def test_compiled_stage_operator_leaves_the_rate_operator_alone(n_x, n_v, dense):
    # the dense operator is a copy and the CSR side multiplies ode.rate
    # as it is: neither may write into the CSR arrays rhs_matrix reads
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u0 = np.random.default_rng(7).uniform(0.0, 1.0, ode.d)
    before = rhs_matrix(ode, u0)
    integrate_nonlinear(ode, u0, 0.05, steps=10)
    assert isinstance(ode.stage_operator, np.ndarray) is dense
    fresh = gauss_ode(p, g).rate
    for name in ("indptr", "indices", "data"):
        got, want = getattr(ode.rate, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rhs_matrix(ode, u0).tobytes() == before.tobytes()


@pytest.mark.parametrize("n_x, n_v, dense", [(2, 4, True), (16, 16, False)])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_integration_leaves_u0_alone_and_returns_its_own_state(n_x, n_v, dense, order):
    # the stages run in two alternating row buffers: the caller's u0 is
    # read, never written, and u_final is a fresh array, not a view of
    # either buffer's state row, after an odd and an even step count
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=8.0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u0 = np.random.default_rng(3).uniform(0.0, 1.0, ode.d)
    before = u0.tobytes()
    op = ode.stage_operator
    assert isinstance(op, np.ndarray) is dense
    for steps in (3, 4):
        first = integrate_nonlinear(ode, u0, 0.05, steps, order=order).u_final
        kept = first.copy()
        second = integrate_nonlinear(ode, u0, 0.05, steps, order=order).u_final
        assert u0.tobytes() == before
        assert first.base is None
        for other in (u0, second, op if dense else op.data):
            assert not np.shares_memory(first, other)
        assert first.tobytes() == kept.tobytes() == second.tobytes()


# ----------------------------------------------------------------------
# bookkeeping and validation


def test_run_record_fields():
    _, _, ode, u0 = _setup()
    run = integrate_nonlinear(ode, u0, 0.2, steps=8, order=2)
    assert (run.t_final, run.steps, run.order, run.rhs_evals) == (0.2, 8, 2, 16)
    assert run.u_final.shape == u0.shape
    euler = integrate_nonlinear(ode, u0, 0.2, steps=8, order=1)
    assert euler.rhs_evals == 8
    rk4 = integrate_nonlinear(ode, u0, 0.2, steps=8, order=4)
    assert rk4.rhs_evals == 32


def test_integrator_validation():
    _, _, ode, u0 = _setup()
    with pytest.raises(ValueError, match="order"):
        integrate_nonlinear(ode, u0, 0.1, steps=4, order=3)
    with pytest.raises(ValueError, match="steps"):
        integrate_nonlinear(ode, u0, 0.1, steps=0)
    with pytest.raises(ValueError, match="t_final"):
        integrate_nonlinear(ode, u0, 0.0, steps=4)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t_final must be positive and finite, got {bad}"):
            integrate_nonlinear(ode, u0, bad, steps=4)
    with pytest.raises(ValueError, match="shape"):
        integrate_nonlinear(ode, np.ones(ode.d + 1), 0.1, steps=4)


def test_compare_solutions_metrics():
    out = compare_solutions(np.array([3.0, 4.0]), np.array([3.0, 0.0]))
    assert out["rel_l2"] == pytest.approx(0.8)
    assert out["max_abs"] == pytest.approx(4.0)
    assert out["normalized_state_error"] == pytest.approx(math.sqrt(0.8))
    same = compare_solutions(np.ones(4), 2.0 * np.ones(4))
    assert same["rel_l2"] == pytest.approx(1.0)
    assert same["normalized_state_error"] == pytest.approx(0.0, abs=1e-15)


def test_compare_solutions_edge_cases():
    zero_ref = compare_solutions(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert zero_ref["rel_l2"] == pytest.approx(1.0)
    assert math.isnan(zero_ref["normalized_state_error"])
    with pytest.raises(ValueError, match="shape"):
        compare_solutions(np.zeros(3), np.zeros(4))
