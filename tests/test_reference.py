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
    reference,
    rhs_direct,
    rhs_matrix,
)


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


def test_direct_and_matrix_rhs_give_the_same_trajectory(monkeypatch):
    for normalization in ("paper", "unit_mass"):
        p, g, ode, u0 = _setup(n_x=3, n_v=4, normalization=normalization)
        a = integrate_nonlinear(ode, u0, 0.05, steps=20, order=2)
        with monkeypatch.context() as mp:
            mp.setattr(
                reference,
                "rhs_matrix",
                lambda ode, u: rhs_direct(
                    p, g, u.reshape(g.n_x, g.n_v), normalization=ode.normalization
                ).reshape(-1),
            )
            b = integrate_nonlinear(ode, u0, 0.05, steps=20, order=2)
        np.testing.assert_allclose(b.u_final, a.u_final, rtol=1e-11, atol=1e-13)
        assert a.rhs_evals == b.rhs_evals


# ----------------------------------------------------------------------
# bookkeeping and validation


def test_run_record_fields():
    _, _, ode, u0 = _setup()
    run = integrate_nonlinear(ode, u0, 0.2, steps=8, order=2, store_trajectory=True)
    assert run.steps == 8
    assert run.order == 2
    assert run.rhs_evals == 16
    np.testing.assert_allclose(run.times, np.linspace(0.0, 0.2, 9), rtol=1e-15)
    assert len(run.states) == 9
    np.testing.assert_array_equal(run.states[0], u0)
    assert run.step_norms.shape == (9,)
    assert run.step_norms[0] == pytest.approx(float(np.linalg.norm(u0)))
    lean = integrate_nonlinear(ode, u0, 0.2, steps=8, order=1)
    assert lean.states is None
    assert lean.rhs_evals == 8
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
