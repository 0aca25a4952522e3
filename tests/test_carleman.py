"""Embedding assembly: Kronecker-sum lifts, block layout, stacked states."""

import numpy as np
import pytest
from scipy import sparse

from vlasov_carleman import (
    BeamSpec,
    CarlemanSystem,
    GridSpec,
    PlasmaParams,
    build_carleman,
    build_z0,
    gauss_ode,
    rhs_matrix,
)
from vlasov_carleman.carleman import estimate_nnz, first_block_rate, kron_sum_lift


def _dense_lift(mat, level, d):
    m = mat.toarray() if sparse.issparse(mat) else np.asarray(mat)
    out = None
    for pos in range(1, level + 1):
        term = np.kron(np.kron(np.eye(d ** (pos - 1)), m), np.eye(d ** (level - pos)))
        out = term if out is None else out + term
    return out


def _system(n_c, nu0=8.0):
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=nu0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    return ode, u, build_carleman(ode, n_c)


# ----------------------------------------------------------------------
# the lift itself


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("cols", [1, 3, 9])
def test_kron_sum_lift_matches_dense_oracle(level, cols):
    d = 3
    rng = np.random.default_rng(100 * level + cols)
    m = rng.standard_normal((d, cols))
    m[rng.random((d, cols)) < 0.4] = 0.0
    lifted = kron_sum_lift(sparse.csr_array(m), level, d)
    oracle = _dense_lift(m, level, d)
    assert lifted.shape == (d**level, cols * d ** (level - 1))
    np.testing.assert_allclose(lifted.toarray(), oracle, rtol=1e-14, atol=1e-14)


def test_kron_sum_lift_level_one_is_the_operator():
    d = 4
    m = sparse.random_array((d, d), density=0.5, rng=np.random.default_rng(2))
    out = kron_sum_lift(m, 1, d)
    np.testing.assert_array_equal(out.toarray(), m.toarray())


def test_kron_sum_lift_validation():
    m = sparse.identity(3, format="csr")
    with pytest.raises(ValueError, match="level"):
        kron_sum_lift(m, 0, 3)
    with pytest.raises(ValueError, match="rows"):
        kron_sum_lift(m, 2, 4)


# ----------------------------------------------------------------------
# assembled system layout


def test_nc1_reduces_to_the_linear_part():
    ode, _, sys1 = _system(n_c=1)
    assert sys1.d_a == ode.d
    np.testing.assert_array_equal(sys1.a.toarray(), ode.f1.toarray())
    np.testing.assert_array_equal(sys1.b, ode.f0)


def test_block_structure_is_tridiagonal():
    _, _, sys3 = _system(n_c=3)
    offs = sys3.offsets
    a = sys3.a.tocsc()
    # level 1 rows never touch level 3 columns and vice versa
    far_up = a[offs[0] : offs[1], offs[2] : offs[3]]
    far_down = a[offs[2] : offs[3], offs[0] : offs[1]]
    assert far_up.nnz == 0
    assert far_down.nnz == 0


def test_b_lives_only_in_the_first_block():
    ode, _, sys2 = _system(n_c=2)
    np.testing.assert_array_equal(sys2.b[: ode.d], ode.f0)
    assert not sys2.b[ode.d :].any()


def test_first_block_rate_matches_quadratic_rhs():
    ode, u, sys2 = _system(n_c=2)
    z0 = build_z0(u, 2)
    rate = first_block_rate(sys2, z0)
    np.testing.assert_allclose(rate, rhs_matrix(ode, u), rtol=1e-13, atol=1e-13)


def test_first_block_rate_truncates_at_nc1():
    ode, u, sys1 = _system(n_c=1)
    z0 = build_z0(u, 1)
    rate = first_block_rate(sys1, z0)
    np.testing.assert_allclose(rate, ode.f1 @ u + ode.f0, rtol=1e-13)


def test_interior_and_top_level_rates_are_lifted_derivatives():
    # on the exact stacked powers, level l of A z + b must equal the
    # product-rule derivative of u^((x)l); the top level sees the
    # truncated rate with no quadratic term
    ode, u, sys3 = _system(n_c=3)
    z0 = build_z0(u, 3)
    full = sys3.a @ z0 + sys3.b
    du = rhs_matrix(ode, u)
    lvl2 = sys3.level_slice(full, 2)
    np.testing.assert_allclose(
        lvl2, np.kron(du, u) + np.kron(u, du), rtol=1e-12, atol=1e-12
    )
    du_tr = ode.f1 @ u + ode.f0
    lvl3 = sys3.level_slice(full, 3)
    want = (
        np.kron(np.kron(du_tr, u), u)
        + np.kron(np.kron(u, du_tr), u)
        + np.kron(np.kron(u, u), du_tr)
    )
    np.testing.assert_allclose(lvl3, want, rtol=1e-12, atol=1e-12)


def test_row_nnz_within_block_sparsity_bound():
    ode, _, sys3 = _system(n_c=3)
    s = max(
        int(np.diff(ode.f1.indptr).max()),
        int(np.diff(ode.f2.indptr).max()),
    )
    row_nnz = np.diff(sys3.a.indptr)
    assert int(row_nnz.max()) <= 3 * s * sys3.n_c


def test_estimate_nnz_upper_bounds_actual():
    for n_c in (1, 2, 3):
        ode, _, system = _system(n_c=n_c)
        assert estimate_nnz(ode, n_c) >= system.a.nnz


def test_nnz_budget_guard():
    p = PlasmaParams.normalized(nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    with pytest.raises(ValueError, match="budget"):
        build_carleman(ode, 3, nnz_budget=100)
    with pytest.raises(ValueError, match="n_c"):
        build_carleman(ode, 0)


# ----------------------------------------------------------------------
# stacked states


def test_build_z0_slices_and_norms():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(5)
    z0 = build_z0(u, 3)
    assert z0.shape == (5 + 25 + 125,)
    parts = np.split(z0, [5, 5 + 25])  # level offsets
    np.testing.assert_array_equal(parts[0], u)
    np.testing.assert_array_equal(parts[1], np.kron(u, u))
    np.testing.assert_array_equal(parts[2], np.kron(np.kron(u, u), u))
    nu = float(np.linalg.norm(u))
    for level, part in enumerate(parts, start=1):
        assert float(np.linalg.norm(part)) == pytest.approx(nu**level, rel=1e-13)


def test_build_z0_validation():
    with pytest.raises(ValueError, match="flat"):
        build_z0(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError, match="n_c"):
        build_z0(np.zeros(3), 0)
    with pytest.raises(ValueError, match="budget"):
        build_z0(np.zeros(500), 3)


def test_level_slice_bounds():
    _, u, sys2 = _system(n_c=2)
    z0 = build_z0(u, 2)
    np.testing.assert_array_equal(sys2.level_slice(z0, 1), u)
    np.testing.assert_array_equal(sys2.level_slice(z0, 2), np.kron(u, u))
    with pytest.raises(ValueError, match="level"):
        sys2.level_slice(z0, 0)
    with pytest.raises(ValueError, match="level"):
        sys2.level_slice(z0, 3)


def test_carleman_system_shape_validation():
    eye = sparse.csr_array(sparse.identity(5))
    CarlemanSystem(a=eye, b=np.zeros(5), n_c=1, d=5, d_a=5)  # fine
    with pytest.raises(ValueError, match="shape"):
        CarlemanSystem(a=eye, b=np.zeros(5), n_c=1, d=6, d_a=6)
    with pytest.raises(ValueError, match="shape"):
        CarlemanSystem(a=eye, b=np.zeros(4), n_c=1, d=5, d_a=5)
    with pytest.raises(ValueError, match="offsets"):
        CarlemanSystem(a=eye, b=np.zeros(5), n_c=2, d=5, d_a=5)
