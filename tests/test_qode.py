"""Operator assembly: structure, exactness, and the dual-path checks."""

import numpy as np
import pytest
from scipy import sparse

from vlasov_carleman import GridSpec, PlasmaParams, gauss_ode, ampere_ode
from vlasov_carleman.physics import BeamSpec, quadratic_collision_variation
from vlasov_carleman.qode import (
    QuadraticODE,
    build_f0_gauss,
    build_f1_gauss,
    build_f2_gauss,
    rhs_direct,
    rhs_matrix,
    sparsity_report,
    trapezoid_weight_row,
    write_coo_text,
)


def _params(nu0=8.0, **kw):
    return PlasmaParams.normalized(nu0=nu0, **kw)


# ----------------------------------------------------------------------
# weight rows


def test_trapezoid_weight_row_literal():
    g = GridSpec(n_x=3, n_v=2, x_max=1.0, v_max=1.0)
    np.testing.assert_array_equal(trapezoid_weight_row(g, 1), np.zeros(6))
    np.testing.assert_array_equal(trapezoid_weight_row(g, 2), [2, 2, 2, 2, 0, 0])
    np.testing.assert_array_equal(trapezoid_weight_row(g, 3), [2, 2, 4, 4, 2, 2])
    with pytest.raises(ValueError):
        trapezoid_weight_row(g, 0)
    with pytest.raises(ValueError):
        trapezoid_weight_row(g, 4)


def test_trapezoid_weight_row_is_doubled_quadrature():
    # contracting the weight row with a state reproduces twice the
    # cumulative trapezoid integral divided by the cell measure
    g = GridSpec(n_x=5, n_v=4, x_max=2.0, v_max=1.5)
    f = np.random.default_rng(7).normal(size=(5, 4))
    u = f.reshape(-1)
    for i in range(1, 6):
        t = trapezoid_weight_row(g, i)
        assert float(t @ u) * g.dx * g.dv / 4.0 == pytest.approx(
            g.cumulative_trapz(f, i), abs=1e-14
        )


# ----------------------------------------------------------------------
# linear operators


def test_f0_is_collision_source():
    p = _params(nu0=3.0, ncal=2.0, b=0.5)
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=2.0)
    f0 = build_f0_gauss(p, g)
    fm = p.maxwellian_vector(g)
    expect = np.tile(p.nu_values(g) * fm, 3)
    np.testing.assert_array_equal(f0, expect)
    assert f0.shape == (12,)
    # unit-mass normalization doubles the source
    f0u = build_f0_gauss(p, g, normalization="unit_mass")
    np.testing.assert_allclose(f0u, 2.0 * f0, rtol=1e-15)


def test_f1a_is_diagonal_damping():
    p = _params(nu0=2.0, h_coll=quadratic_collision_variation(2.0, 2.0, 0.1))
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=2.0)
    f1a, _ = build_f1_gauss(p, g)
    dense = f1a.toarray()
    np.testing.assert_array_equal(dense, np.diag(np.diag(dense)))
    np.testing.assert_allclose(np.diag(dense), -np.tile(p.nu_values(g), 2))


def test_f1b_literal_entries():
    p = _params(nu0=0.0, ncal=2.0)
    g = GridSpec(n_x=3, n_v=4, x_max=1.5, v_max=1.0)
    _, f1b = build_f1_gauss(p, g)
    dense = f1b.toarray()
    v = g.v_coords()
    # streaming at (i=2, j=1): +(-v_1/(2dx)) to (3,1), -(...) to (1,1)
    r = g.flatten_index(2, 1) - 1
    up = g.flatten_index(3, 1) - 1
    dn = g.flatten_index(1, 1) - 1
    assert dense[r, up] == pytest.approx(-v[0] / (2.0 * g.dx))
    assert dense[r, dn] == pytest.approx(v[0] / (2.0 * g.dx))
    # background field at (i=3, j=2): coefficient q^2 ncal (i-1)/(2 m eps0 dv n_x)
    r = g.flatten_index(3, 2) - 1
    c = p.q**2 * p.ncal * 2.0 / (2.0 * p.m_e * p.eps0 * g.dv * g.n_x)
    assert dense[r, r + 1] == pytest.approx(c)
    assert dense[r, r - 1] == pytest.approx(-c)
    # first x-line feels no background field (zero accumulated length)
    r = g.flatten_index(1, 2) - 1
    assert dense[r, r + 1] == 0.0
    assert dense[r, r - 1] == 0.0
    # velocity edges drop the out-of-range leg
    r = g.flatten_index(3, 1) - 1
    assert dense[r, r + 1] != 0.0
    r = g.flatten_index(3, 4) - 1
    assert dense[r, r - 1] != 0.0


def test_f1b_exactly_antisymmetric():
    for n_x, n_v in [(2, 4), (3, 4), (4, 6), (5, 8)]:
        p = _params(nu0=1.0, ncal=1.7)
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=2.0, v_max=1.3)
        _, f1b = build_f1_gauss(p, g)
        skew = sparse.csr_array(f1b + f1b.T)
        skew.sum_duplicates()
        skew.eliminate_zeros()
        assert skew.nnz == 0


def test_two_line_grid_streaming_cancels():
    # with n_x = 2 the forward and backward x-neighbors are the same
    # point, so the streaming legs sum to exactly zero and vanish
    p = _params(nu0=0.0, ncal=1.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    _, f1b = build_f1_gauss(p, g)
    dense = f1b.toarray()
    # only second-line rows carry entries (background field), and only
    # on velocity neighbors
    assert np.all(dense[:4] == 0.0)
    coo = f1b.tocoo()
    assert np.all(np.abs(coo.row - coo.col) == 1)


def test_single_line_grid_is_pure_relaxation():
    p = _params(nu0=5.0)
    g = GridSpec(n_x=1, n_v=6, x_max=1.0, v_max=2.0)
    ode = gauss_ode(p, g)
    assert ode.f2.nnz == 0
    assert ode.f1b.nnz == 0
    u = np.random.default_rng(0).normal(size=6)
    fm = p.maxwellian_vector(g)
    np.testing.assert_allclose(rhs_matrix(ode, u), -5.0 * (u - fm), rtol=1e-13)


# ----------------------------------------------------------------------
# quadratic operator


def test_f2_shapes_and_first_line_rows_zero():
    p = _params()
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    f2 = build_f2_gauss(p, g)
    big_n = g.n_points
    assert f2.shape == (big_n, big_n * big_n)
    row_counts = np.diff(f2.indptr)
    assert np.all(row_counts[:4] == 0)
    # densest rows: interior-velocity rows of the last x-line carry 2N
    assert row_counts.max() == 2 * big_n


def _f2_entry_map(p, g):
    """Oracle for the assembled F2: per-row case analysis placing the
    weight window at tensor-pair offsets N*n (upper v-neighbor) and
    N*(n-2) (lower), scaled by -q^2 dx/(4 m_e eps0) with half weights."""
    n_v = g.n_v
    big_n = g.n_points
    pref = -(p.q**2) * g.dx / (4.0 * p.m_e * p.eps0)
    rows, cols, vals = [], [], []
    for n in range(1, big_n + 1):  # 1-based flat row
        i, j = g.unflatten_index(n)
        if i == 1:
            continue
        # weight window: half the trapezoid weight row, nonzero part only
        pos = np.concatenate(
            [np.arange(n_v), np.arange((i - 1) * n_v, i * n_v), np.arange(n_v, (i - 1) * n_v)]
        )
        w = np.concatenate([np.ones(n_v), np.ones(n_v), 2.0 * np.ones((i - 2) * n_v)])
        legs = []
        if j < n_v:
            legs.append((1.0, big_n * n))  # pair offset of the upper v-neighbor
        if j > 1:
            legs.append((-1.0, big_n * (n - 2)))  # lower v-neighbor
        for sign, offset in legs:
            rows.append(np.full(pos.size, n - 1))
            cols.append(offset + pos)
            vals.append(pref * sign * w)
    if not rows:
        return sparse.csr_array((big_n, big_n * big_n))
    f2 = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(big_n, big_n * big_n),
    ).tocsr()
    f2.sum_duplicates()
    f2.eliminate_zeros()
    return f2


def test_f2_construction_paths_identical():
    # the factored assembly and the per-row oracle differ in prefactor and
    # weights by exact powers of two, so the entries must agree bit for
    # bit, in the same CSR order
    for n_x, n_v in [(1, 4), (2, 2), (2, 4), (3, 4), (4, 6), (5, 2)]:
        p = PlasmaParams.normalized(ncal=1.3, nu0=2.0)
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.7, v_max=2.1)
        a = build_f2_gauss(p, g)
        b = _f2_entry_map(p, g)
        assert a.shape == b.shape
        assert a.has_canonical_format
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)


def test_f2_contraction_matches_quadrature_oracle():
    # F2 (u(x)u) must equal -q^2/(m eps0) * ddv(f) * accumulated charge,
    # evaluated through the grid calculus with no operator involvement
    rng = np.random.default_rng(11)
    p = PlasmaParams.normalized(ncal=0.9)
    g = GridSpec(n_x=4, n_v=6, x_max=2.0, v_max=1.5)
    f2 = build_f2_gauss(p, g)
    fc = p.q**2 / (p.m_e * p.eps0)
    for _ in range(10):
        f = rng.normal(size=(g.n_x, g.n_v))
        u = f.reshape(-1)
        quad = (f2 @ np.kron(u, u)).reshape(g.n_x, g.n_v)
        for i in range(1, g.n_x + 1):
            charge = g.cumulative_trapz(f, i)
            for j in range(1, g.n_v + 1):
                expect = -fc * g.ddv(f, i, j) * charge
                assert quad[i - 1, j - 1] == pytest.approx(expect, abs=1e-12)


# ----------------------------------------------------------------------
# assembled systems and the dual right-hand sides


def test_quadratic_ode_shape_validation():
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    parts = dict(f2_pref=ode.f2_pref, f1a=ode.f1a, f1b=ode.f1b, params=p)
    with pytest.raises(ValueError, match="f0 shape"):
        QuadraticODE(**parts, f0=np.zeros(7), coupling="gauss", grid=g)
    # the self-field factors act on a 3x4 grid, the state has d = 8
    g34 = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError, match="quadratic factors"):
        QuadraticODE(**parts, f0=ode.f0, coupling="gauss", grid=g34)
    with pytest.raises(ValueError, match="no quadratic term"):
        QuadraticODE(**parts, f0=ode.f0, coupling="ampere", grid=g)
    with pytest.raises(ValueError, match="unknown coupling"):
        QuadraticODE(**parts, f0=ode.f0, coupling="other", grid=g)


def test_scaled_touches_only_f2_and_f0():
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    bar = ode.scaled(f2_scale=3.0, f0_scale=0.25)
    assert bar.f2_pref == 3.0 * ode.f2_pref
    np.testing.assert_array_equal(bar.f2.toarray(), 3.0 * ode.f2.toarray())
    np.testing.assert_array_equal(bar.f0, 0.25 * ode.f0)
    assert bar.f1a is ode.f1a
    assert bar.f1b is ode.f1b


@pytest.mark.parametrize("normalization", ["paper", "unit_mass"])
@pytest.mark.parametrize(
    "n_x,n_v,h_on", [(2, 4, False), (3, 4, True), (4, 6, False), (6, 6, True)]
)
def test_rhs_matrix_equals_pointwise_oracle(n_x, n_v, h_on, normalization):
    h = quadratic_collision_variation(4.0, 2.0, 0.05) if h_on else None
    p = PlasmaParams.normalized(ncal=1.4, b=0.8, nu0=4.0, h_coll=h)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.3, v_max=2.0)
    ode = gauss_ode(p, g, normalization=normalization)
    rng = np.random.default_rng(n_x * 100 + n_v)
    for _ in range(20):
        f = rng.normal(size=(n_x, n_v))
        lhs = rhs_matrix(ode, f.reshape(-1))
        rhs = rhs_direct(p, g, f, normalization=normalization).reshape(-1)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_rhs_on_canonical_initial_state():
    p = _params(nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    lhs = rhs_matrix(ode, u)
    rhs = rhs_direct(p, g, u.reshape(2, 4)).reshape(-1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_rhs_matrix_validates_shape():
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    with pytest.raises(ValueError):
        rhs_matrix(ode, np.zeros(7))


def _assembled_rhs(ode, u):
    return ode.f2 @ np.kron(u, u) + ode.f1 @ u + ode.f0


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("n_x, n_v", [(1, 4), (2, 2), (108, 10), (4, 244)])
def test_factored_rhs_matches_assembled_f2_and_pointwise_oracle(n_x, n_v):
    # n_x = 1: the charge is identically zero; 2x2: every row sits on a
    # velocity edge and streaming cancels; 108x10 and 4x244: N ~ 1000
    h = quadratic_collision_variation(4.0, 2.0, 0.05)
    p = PlasmaParams.normalized(ncal=1.4, b=0.8, nu0=4.0, h_coll=h)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.3, v_max=2.0)
    ode = gauss_ode(p, g)
    f = np.random.default_rng(n_x * 1000 + n_v).normal(size=(n_x, n_v))
    u = f.reshape(-1)
    direct = rhs_direct(p, g, f).reshape(-1)
    got = rhs_matrix(ode, u)
    assert _rel(got, _assembled_rhs(ode, u)) <= 1e-13
    assert _rel(got, direct) <= 1e-13
    if n_x == 1:
        np.testing.assert_array_equal(got, ode.f1 @ u + ode.f0)
    # the scaled copy carries gamma into the stencil prefactor
    bar = ode.scaled(3.0, 0.25)
    quad = direct - ode.f1 @ u - ode.f0
    got_bar = rhs_matrix(bar, u)
    assert _rel(got_bar, _assembled_rhs(bar, u)) <= 1e-13
    assert _rel(got_bar, 3.0 * quad + ode.f1 @ u + 0.25 * ode.f0) <= 1e-13


def test_ampere_rhs_has_no_quadratic_term():
    p = _params(nu0=6.0)
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = ampere_ode(p, g)
    u = np.random.default_rng(5).normal(size=ode.d)
    got = rhs_matrix(ode, u)
    np.testing.assert_array_equal(got, ode.f1 @ u)
    assert _rel(got, _assembled_rhs(ode, u)) <= 1e-13


# ----------------------------------------------------------------------
# ampere route


def test_ampere_layout_and_zero_field_columns():
    p = _params(nu0=6.0)
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = ampere_ode(p, g)
    big_n = g.n_points
    d = g.n_x * (g.n_v + 1)
    assert ode.d == d
    assert ode.f2.nnz == 0
    np.testing.assert_array_equal(ode.f0, np.zeros(d))
    dense = ode.f1.toarray()
    # the field columns receive nothing from any equation
    np.testing.assert_array_equal(dense[:, big_n:], np.zeros((d, g.n_x)))
    # current accumulation rows: dv q v_j / eps0 against their own x-line
    v = g.v_coords()
    for i in range(g.n_x):
        row = dense[big_n + i]
        np.testing.assert_allclose(
            row[i * g.n_v : (i + 1) * g.n_v], g.dv * p.q * v / p.eps0, rtol=1e-14
        )
        mask = np.ones(d, bool)
        mask[i * g.n_v : (i + 1) * g.n_v] = False
        assert np.all(row[mask] == 0.0)
    # distribution rows keep the collision damping on the diagonal
    np.testing.assert_allclose(
        np.diag(dense)[:big_n], -np.tile(p.nu_values(g), g.n_x), rtol=1e-14
    )


# ----------------------------------------------------------------------
# export formats


def test_write_coo_text_roundtrip(tmp_path):
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    path = tmp_path / "f1.txt"
    write_coo_text(ode.f1, path)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split()
    assert header[:2] == ["#", "shape"]
    assert [int(header[2]), int(header[3])] == [8, 8]
    assert int(header[5]) == ode.f1.nnz
    rebuilt = np.zeros((8, 8))
    prev = None
    for line in lines[1:]:
        r, c, val = line.split()
        r, c = int(r), int(c)
        assert 1 <= r <= 8 and 1 <= c <= 8
        if prev is not None:
            assert (r, c) > prev
        prev = (r, c)
        rebuilt[r - 1, c - 1] = float(val)
    np.testing.assert_array_equal(rebuilt, ode.f1.toarray())


def test_sparsity_report_values():
    p = _params(nu0=8.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    rep = sparsity_report(ode)
    assert rep["coupling"] == "gauss"
    assert rep["d"] == 8
    assert rep["f2"]["shape"] == [8, 64]
    assert rep["f2"]["max_row_nnz"] == 16  # 2N on the densest rows
    assert rep["f1"]["max_row_nnz"] <= 5
    assert rep["f0_nnz"] == 8
    assert 0.0 < rep["f2"]["density"] < 1.0
