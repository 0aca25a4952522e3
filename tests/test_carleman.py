"""Embedding assembly in symmetric coordinates, checked against the full
Kronecker route (tests/full_route.py)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from full_route import (
    first_block_rate,
    full_carleman,
    kron_stack,
    kron_sum_lift,
    symmetric_basis,
    symmetric_level_basis,
)
from vlasov_carleman import (
    BeamSpec,
    CarlemanSystem,
    GridSpec,
    PlasmaParams,
    build_carleman,
    build_linear_encoding,
    build_z0,
    carleman,
    convergence_report,
    evolve_iterative,
    gauss_ode,
    make_plan,
    rescale,
    rhs_matrix,
    solve_encoding,
)
from vlasov_carleman.analysis import embedding_dimension, f1_norm_l1_bound


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


def _random_quadratic(d, seed):
    # build_carleman reads only d, f1, f2 and f0 of the ODE
    rng = np.random.default_rng(seed)

    def sparse_normal(shape):
        m = rng.standard_normal(shape)
        m[rng.random(shape) < 0.4] = 0.0
        return m

    f0 = sparse_normal(d)
    f0[0] = 1.0  # at least one source entry
    return SimpleNamespace(
        d=d,
        f1=sparse.csr_array(sparse_normal((d, d))),
        f2=sparse.csr_array(sparse_normal((d, d * d))),
        f0=f0,
    )


def _rel_max(got, want):
    return float(np.abs(got - want).max()) / float(np.abs(want).max())


# ----------------------------------------------------------------------
# the full-route lift (the oracle itself)


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


def test_symmetric_basis_is_orthonormal_and_symmetric():
    d, level = 3, 3
    p = symmetric_level_basis(d, level).toarray()
    assert p.shape == (27, math.comb(d + level - 1, level))
    np.testing.assert_allclose(p.T @ p, np.eye(p.shape[1]), atol=1e-15)
    # every column is invariant under swapping two tensor slots
    swapped = p.reshape(d, d, d, -1).transpose(1, 0, 2, 3).reshape(27, -1)
    np.testing.assert_array_equal(swapped, p)


# ----------------------------------------------------------------------
# blocks and the whole matrix against the full route


@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_blocks_are_l_times_the_first_slot_term(seed):
    # on symmetric tensors each Kronecker-sum lift is l times its
    # first-slot term: block (l, l') = l P_l^T (F (x) I) P_l'
    d, n_c = 3, 4
    ode = _random_quadratic(d, seed)
    system = build_carleman(ode, n_c)
    a = system.a.toarray()
    offs = system.offsets
    basis = [None] + [symmetric_level_basis(d, level) for level in range(1, n_c + 1)]
    f0_col = sparse.csr_array(ode.f0.reshape(d, 1))
    for level in (2, 3):
        for op, col_level in ((ode.f1, level), (ode.f2, level + 1), (f0_col, level - 1)):
            first_slot = sparse.kron(op, sparse.identity(d ** (level - 1)))
            want = (level * (basis[level].T @ first_slot @ basis[col_level])).toarray()
            lifted = basis[level].T @ kron_sum_lift(op, level, d) @ basis[col_level]
            np.testing.assert_allclose(lifted.toarray(), want, rtol=0, atol=1e-14)
            got = a[offs[level - 1] : offs[level], offs[col_level - 1] : offs[col_level]]
            assert _rel_max(got, want) <= 1e-15


@pytest.mark.parametrize("n_c", [1, 2, 3, 4])
def test_reduced_matrix_is_the_projected_full_matrix(n_c):
    ode, _, system = _system(n_c)
    full = full_carleman(ode, n_c)
    basis = symmetric_basis(ode.d, n_c)
    want = (basis.T @ full.a @ basis).toarray()
    assert system.dim == math.comb(ode.d + n_c, n_c) - 1 == basis.shape[1]
    assert system.d_a == embedding_dimension(ode.d, n_c) == full.dim
    assert _rel_max(system.a.toarray(), want) <= 1e-15
    np.testing.assert_array_equal(basis.T @ full.b, system.b)
    # the symmetric subspace is invariant: A_full P = P A_sym
    lifted = (full.a @ basis - basis @ system.a).toarray()
    assert float(np.abs(lifted).max()) <= 1e-15 * float(np.abs(want).max())


def test_nc1_reduces_to_the_linear_part():
    ode, _, sys1 = _system(n_c=1)
    assert sys1.d_a == sys1.dim == ode.d
    np.testing.assert_array_equal(sys1.a.toarray(), ode.f1.toarray())
    np.testing.assert_array_equal(sys1.b, ode.f0)


def test_block_structure_is_tridiagonal():
    _, _, sys3 = _system(n_c=3)
    offs = sys3.offsets
    assert offs == [0, 8, 8 + 36, 8 + 36 + 120]
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
    # on the exact powers, level l of A z + b lifted back through P must
    # equal the product-rule derivative of u^((x)l); the top level sees
    # the truncated rate with no quadratic term
    ode, u, sys3 = _system(n_c=3)
    z0 = build_z0(u, 3)
    full = sys3.a @ z0 + sys3.b
    du = rhs_matrix(ode, u)
    offs = sys3.offsets
    lvl2 = symmetric_level_basis(ode.d, 2) @ full[offs[1] : offs[2]]
    np.testing.assert_allclose(
        lvl2, np.kron(du, u) + np.kron(u, du), rtol=1e-12, atol=1e-12
    )
    du_tr = ode.f1 @ u + ode.f0
    lvl3 = symmetric_level_basis(ode.d, 3) @ full[offs[2] : offs[3]]
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


def test_nnz_budget_guard():
    p = PlasmaParams.normalized(nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    nnz = build_carleman(ode, 3).a.nnz
    assert build_carleman(ode, 3, nnz_budget=nnz).a.nnz == nnz
    with pytest.raises(ValueError, match=f"reduced nnz\\(A\\) reached {nnz} by level 3"):
        build_carleman(ode, 3, nnz_budget=nnz - 1)
    with pytest.raises(ValueError, match="budget"):
        build_carleman(ode, 3, nnz_budget=100)
    with pytest.raises(ValueError, match="n_c"):
        build_carleman(ode, 0)


@pytest.mark.parametrize("n_c", [1, 2, 3])
def test_embedded_matrix_has_32_bit_indices_when_they_fit(n_c):
    ode, _, system = _system(n_c)
    assert system.a.indices.dtype == system.a.indptr.dtype == np.int32
    # a budget past the 32-bit range stages 64-bit indices, same entries
    wide = build_carleman(ode, n_c, nnz_budget=2**31).a
    assert wide.indices.dtype == wide.indptr.dtype == np.int64
    np.testing.assert_array_equal(wide.indptr, system.a.indptr)
    np.testing.assert_array_equal(wide.indices, system.a.indices)
    np.testing.assert_array_equal(wide.data, system.a.data)


@pytest.mark.parametrize("budget, idx", [(1_000_000, np.int32), (2**31, np.int64)])
@pytest.mark.parametrize("n_c", [1, 2, 3, 4])
def test_level_blocks_are_written_into_a_as_vstack_stacks_them(n_c, budget, idx):
    # on the gauss system and on a random one with a dense f0, A's values
    # are the projected full matrix, and its three arrays are the level
    # blocks' own, concatenated in the blocks' index dtype
    for ode in (_system(1)[0], _random_quadratic(5, n_c)):
        got = build_carleman(ode, n_c, nnz_budget=budget).a
        basis = symmetric_basis(ode.d, n_c)
        want = (basis.T @ full_carleman(ode, n_c).a @ basis).toarray()
        assert _rel_max(got.toarray(), want) <= 1e-15
        blocks = list(carleman._level_blocks(ode, n_c, budget))
        starts = np.cumsum([0] + [block.nnz for block in blocks[:-1]])
        indptr = np.concatenate(
            [[0]] + [block.indptr[1:] + start for block, start in zip(blocks, starts)]
        )
        for name, stacked in (
            ("indptr", indptr.astype(idx)),
            ("indices", np.concatenate([block.indices for block in blocks])),
            ("data", np.concatenate([block.data for block in blocks])),
        ):
            a = getattr(got, name)
            assert a.dtype == stacked.dtype and a.tobytes() == stacked.tobytes()
        assert got.indices.dtype == got.indptr.dtype == idx


def test_budget_stops_before_staging_an_oversized_level():
    # level 3 of a 2x4 system stages 36 (nnz F1 + d) terms, and each
    # stored entry gathers at most 2 * 3 of them: a budget below that
    # bound is refused before the level is staged
    p = PlasmaParams.normalized(nu0=8.0)
    ode = gauss_ode(p, GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0))
    a = build_carleman(ode, 3).a
    below = int(a.indptr[8 + 36])  # stored entries of levels 1 and 2
    bound = below + 36 * (ode.f1.nnz + ode.d) // 6
    assert below < bound <= a.nnz
    with pytest.raises(ValueError, match=f"is at least {bound} by level 3"):
        build_carleman(ode, 3, nnz_budget=bound - 1)


def test_budget_error_writes_sizes_past_18_digits_as_powers_of_ten():
    # short sizes are written out as before; a long one becomes 10^e with
    # e = floor(log10 n), even past Python's int-to-str digit limit
    # (d = 8, N_C = 3: d_A = 8 + 64 + 512)
    short = carleman._budget_error("is at least 164", 3, 3, 10, 8, 164)
    assert str(short).endswith("budget 10 (d_A = 584, reduced dimension 164)")
    assert carleman._magnitude(10**18 - 1) == str(10**18 - 1)
    assert carleman._magnitude(10**18) == "≈ 10^18"
    assert carleman._magnitude(10**19 - 1, approx="") == "10^18"
    assert carleman._magnitude(3 * 10**5000, "= ") == "≈ 10^5000"


# ----------------------------------------------------------------------
# stacked states


def test_build_z0_slices_and_norms():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(5)
    z0 = build_z0(u, 3)
    assert z0.shape == (5 + 15 + 35,)
    basis = symmetric_basis(5, 3)
    stack = kron_stack(u, 3)
    assert _rel_max(z0, basis.T @ stack) <= 1e-15
    np.testing.assert_allclose(basis @ z0, stack, rtol=0, atol=1e-15 * np.abs(stack).max())
    parts = np.split(z0, [5, 5 + 15])  # level offsets
    np.testing.assert_array_equal(parts[0], u)
    nu = float(np.linalg.norm(u))
    for level, part in enumerate(parts, start=1):
        assert float(np.linalg.norm(part)) == pytest.approx(nu**level, rel=1e-13)


def test_build_z0_validation():
    with pytest.raises(ValueError, match="flat"):
        build_z0(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError, match="n_c"):
        build_z0(np.zeros(3), 0)


def test_level_slice_bounds():
    _, u, sys2 = _system(n_c=2)
    # the offsets bound each level of the stacked state
    z0 = build_z0(u, 2)
    offs = sys2.offsets
    assert (offs[0], offs[-1]) == (0, z0.size)
    np.testing.assert_array_equal(z0[offs[0] : offs[1]], u)
    np.testing.assert_allclose(
        symmetric_level_basis(8, 2) @ z0[offs[1] : offs[2]], np.kron(u, u),
        rtol=0, atol=1e-16,
    )


def test_carleman_system_shape_validation():
    eye = sparse.csr_array(sparse.identity(5))
    CarlemanSystem(a=eye, b=np.zeros(5), n_c=1, d=5, d_a=5)  # fine
    with pytest.raises(ValueError, match="shape"):
        CarlemanSystem(a=eye, b=np.zeros(5), n_c=1, d=6, d_a=6)
    with pytest.raises(ValueError, match="shape"):
        CarlemanSystem(a=eye, b=np.zeros(4), n_c=1, d=5, d_a=5)
    with pytest.raises(ValueError, match="d_a"):
        CarlemanSystem(a=eye, b=np.zeros(5), n_c=2, d=5, d_a=5)
    with pytest.raises(ValueError, match="offsets"):
        CarlemanSystem(a=eye, b=np.zeros(5), n_c=1, d=5, d_a=5, offsets=[0, 4])


# ----------------------------------------------------------------------
# evolution against the full route


def _pipeline(n_x, n_v, nu0, n_c, t_final=0.05):
    p = PlasmaParams.normalized(ncal=1.0, b=1.0, nu0=nu0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    rep = convergence_report(ode, u)
    ode_bar, u_bar, _ = rescale(ode, u, rep)
    plan = make_plan(rep, f1_norm_l1_bound(ode), u_bar, t_final, eps_q=0.5, n_c=n_c)
    return ode_bar, u_bar, plan


@pytest.mark.parametrize("n_c", [2, 3])
def test_evolution_matches_the_full_route(n_c):
    ode_bar, u_bar, plan = _pipeline(2, 2, 4.0, n_c, t_final=0.1)
    system = build_carleman(ode_bar, n_c)
    z0 = build_z0(u_bar, n_c)
    full = full_carleman(ode_bar, n_c)
    z0_full = kron_stack(u_bar, n_c)
    basis = symmetric_basis(ode_bar.d, n_c)
    d = ode_bar.d

    stepped = evolve_iterative(system, z0, plan)
    stepped_full = evolve_iterative(full, z0_full, plan)
    assert _rel_max(stepped.y1m, stepped_full.y_final[:d]) <= 1e-15
    assert _rel_max(basis @ stepped.y_final, stepped_full.y_final) <= 1e-15

    solved = solve_encoding(build_linear_encoding(system, z0, plan), method="direct")
    solved_full = solve_encoding(build_linear_encoding(full, z0_full, plan), method="direct")
    assert _rel_max(solved.y1m, solved_full.y_final[:d]) <= 1e-15
    assert _rel_max(basis @ solved.y_final, solved_full.y_final) <= 1e-15


def test_mid_size_stepping_matches_expm_multiply():
    # the embed benchmark's level (3x4, nu0=40, N_C=5): 6,187 emulated
    # dimensions for d_A = 271,452, past the dense exact solution's reach;
    # exp([[A, b], [0, 0]] T) applied to (z0, 1) is the exact evolution
    ode_bar, u_bar, plan = _pipeline(3, 4, 40.0, 5)
    system = build_carleman(ode_bar, plan.n_c)
    assert (system.dim, system.d_a) == (6187, 271452)
    z0 = build_z0(u_bar, plan.n_c)
    aug = sparse.bmat(
        [[system.a, system.b[:, None]], [None, sparse.csr_array((1, 1))]], format="csr"
    )
    exact = expm_multiply(aug * plan.t_final, np.append(z0, 1.0))[:-1]
    stepped = evolve_iterative(system, z0, plan, store_trajectory=False)
    assert _rel_max(stepped.y1m, exact[: system.d]) <= 1e-12
    rel = np.linalg.norm(stepped.y_final - exact) / np.linalg.norm(exact)
    assert rel <= 1e-12
