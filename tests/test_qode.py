"""Operator assembly: structure, exactness, and the dual-path checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from helpers import flatten_index
from vlasov_carleman import GridSpec, PlasmaParams, gauss_ode, ampere_ode, qode
from vlasov_carleman.analysis import convergence_report, rescale, spectral_norm
from vlasov_carleman.carleman import build_carleman
from vlasov_carleman.physics import BeamSpec, quadratic_collision_variation
from vlasov_carleman.reference import integrate_nonlinear
from vlasov_carleman.qode import QuadraticODE, rhs_direct, rhs_matrix


def _params(nu0=8.0, **kw):
    return PlasmaParams.normalized(nu0=nu0, **kw)


# ----------------------------------------------------------------------
# the two factors of F2, as generic dense routines (oracles of the
# closed forms that qode builds its operators from)


def _velocity_difference(f: np.ndarray) -> np.ndarray:
    """Central velocity difference f[:, j+1] - f[:, j-1] of each row,
    with the out-of-range neighbor dropped at the velocity edges."""
    out = np.zeros(f.shape)
    out[:, :-1] = f[:, 1:]
    out[:, 1:] -= f[:, :-1]
    return out


def _line_charge(cum: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale times the accumulated charge of each x-line, from the
    cumulative line sums cum (S_i = s_1 + ... + s_i along axis 0).

    c_i = 2 s_1 + 4 (s_2 + ... + s_{i-1}) + 2 s_i = 2 (S_{i-1} + S_i - S_1)
    for i >= 2 and c_1 = 0: twice the cumulative trapezoid weights
    (endpoint 1, interior 2).
    """
    c = cum - cum[0]
    c[1:] += cum[:-1]
    c *= 2.0 * scale
    return c


# ----------------------------------------------------------------------
# weight rows


def trapezoid_weight_row(g: GridSpec, i: int) -> np.ndarray:
    """Dense weight row of the accumulated-charge rule up to x-line i.

    Length N = n_x*n_v.  Zero for i = 1.  For i >= 2 it weights the
    velocity block of x-line 1 and of x-line i by 2 and every block in
    between by 4, matching twice the cumulative trapezoid weights
    (endpoint 1, interior 2) used by the quadratic operator.
    """
    if not 1 <= i <= g.n_x:
        raise ValueError(f"i={i} out of range 1..{g.n_x}")
    return np.repeat(_line_charge(np.tri(g.n_x))[i - 1], g.n_v)


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
    f0 = gauss_ode(p, g).f0
    fm = p.maxwellian_vector(g)
    expect = np.tile(p.nu_values(g) * fm, 3)
    np.testing.assert_array_equal(f0, expect)
    assert f0.shape == (12,)
    # unit-mass normalization doubles the source
    f0u = gauss_ode(p, g, normalization="unit_mass").f0
    np.testing.assert_allclose(f0u, 2.0 * f0, rtol=1e-15)


def test_f1a_is_diagonal_damping():
    p = _params(nu0=2.0, h_coll=quadratic_collision_variation(2.0, 2.0, 0.1))
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=2.0)
    ode = gauss_ode(p, g)
    np.testing.assert_allclose(ode.f1a, -np.tile(p.nu_values(g), 2))
    # F1's diagonal is the Krook rate vector, f1b's is zero
    np.testing.assert_array_equal(ode.f1.diagonal(), ode.f1a)
    assert not ode.f1b.diagonal().any()


def test_f1b_literal_entries():
    p = _params(nu0=0.0, ncal=2.0)
    g = GridSpec(n_x=3, n_v=4, x_max=1.5, v_max=1.0)
    f1b = gauss_ode(p, g).f1b
    dense = f1b.toarray()
    v = g.v_coords()
    # streaming at (i=2, j=1): +(-v_1/(2dx)) to (3,1), -(...) to (1,1)
    r = flatten_index(g, 2, 1) - 1
    up = flatten_index(g, 3, 1) - 1
    dn = flatten_index(g, 1, 1) - 1
    assert dense[r, up] == pytest.approx(-v[0] / (2.0 * g.dx))
    assert dense[r, dn] == pytest.approx(v[0] / (2.0 * g.dx))
    # background field at (i=3, j=2): coefficient q^2 ncal (i-1)/(2 m eps0 dv n_x)
    r = flatten_index(g, 3, 2) - 1
    c = p.q**2 * p.ncal * 2.0 / (2.0 * p.m_e * p.eps0 * g.dv * g.n_x)
    assert dense[r, r + 1] == pytest.approx(c)
    assert dense[r, r - 1] == pytest.approx(-c)
    # first x-line feels no background field (zero accumulated length)
    r = flatten_index(g, 1, 2) - 1
    assert dense[r, r + 1] == 0.0
    assert dense[r, r - 1] == 0.0
    # velocity edges drop the out-of-range leg
    r = flatten_index(g, 3, 1) - 1
    assert dense[r, r + 1] != 0.0
    r = flatten_index(g, 3, 4) - 1
    assert dense[r, r - 1] != 0.0


def test_f1b_exactly_antisymmetric():
    for n_x, n_v in [(2, 4), (3, 4), (4, 6), (5, 8)]:
        p = _params(nu0=1.0, ncal=1.7)
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=2.0, v_max=1.3)
        f1b = gauss_ode(p, g).f1b
        skew = sparse.csr_array(f1b + f1b.T)
        skew.sum_duplicates()
        skew.eliminate_zeros()
        assert skew.nnz == 0


def test_two_line_grid_streaming_cancels():
    # with n_x = 2 the forward and backward x-neighbors are the same
    # point, so the streaming legs sum to exactly zero and vanish
    p = _params(nu0=0.0, ncal=1.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    f1b = gauss_ode(p, g).f1b
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
    f2 = gauss_ode(p, g).f2
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
        i, j = divmod(n - 1, n_v)
        i, j = i + 1, j + 1
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
    for n_x, n_v in [(1, 4), (2, 2), (2, 4), (3, 4), (4, 6), (5, 2), (40, 4)]:
        p = PlasmaParams.normalized(ncal=1.3, nu0=2.0)
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.7, v_max=2.1)
        a = gauss_ode(p, g).f2
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
    f2 = gauss_ode(p, g).f2
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


def test_quadratic_ode_shape_validation(monkeypatch):
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    parts = dict(
        f2_pref=ode.f2_pref, f1a=ode.f1a, f1_stream=ode.f1_stream,
        f1_field=ode.f1_field, params=p,
    )
    with pytest.raises(ValueError, match="f0 shape"):
        QuadraticODE(**parts, f0=np.zeros(7), grid=g)
    # the self-field factors act on a 3x4 grid, the state has d = 8
    g34 = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError, match="quadratic factors"):
        QuadraticODE(**parts, f0=ode.f0, grid=g34)
    # mu is f1a's largest entry only while f1a is F1a's diagonal
    parts.update(f0=ode.f0, grid=g)
    with pytest.raises(ValueError, match=r"f1a shape \(8, 8\) != \(8,\)"):
        QuadraticODE(**parts | {"f1a": np.diag(ode.f1a)})
    # f1b's factors: one streaming coefficient per velocity, one field
    # coefficient per x-line
    with pytest.raises(ValueError, match=r"f1_stream shape \(8,\) != \(4,\)"):
        QuadraticODE(**parts | {"f1_stream": np.tile(ode.f1_stream, 2)})
    with pytest.raises(ValueError, match=r"f1_field shape \(4,\) != \(2,\)"):
        QuadraticODE(**parts | {"f1_field": np.zeros(4)})
    assert QuadraticODE(**parts).f1.nnz == ode.f1.nnz
    # ... and only while f1b is antisymmetric, which every assembly of
    # f1b checks: one staged from broken legs is refused when read
    terms = qode._f1b_terms
    monkeypatch.setattr(
        qode, "_f1b_terms", lambda *a: [(r, c, abs(v)) for r, c, v in terms(*a)]
    )
    with pytest.raises(ValueError, match="not exactly antisymmetric"):
        QuadraticODE(**parts).f1b
    with pytest.raises(ValueError, match="not exactly antisymmetric"):
        QuadraticODE(**parts).f1


def test_scaled_touches_only_f2_and_f0():
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    bar = ode.scaled(f2_scale=3.0, f0_scale=0.25)
    assert bar.f2_pref == 3.0 * ode.f2_pref
    np.testing.assert_array_equal(bar.f2.toarray(), 3.0 * ode.f2.toarray())
    np.testing.assert_array_equal(bar.f0, 0.25 * ode.f0)
    assert bar.f1a is ode.f1a
    assert bar.f1_stream is ode.f1_stream and bar.f1_field is ode.f1_field
    assert bar.f1b is ode.f1b


def test_rescaled_copy_carries_the_read_f1_and_builds_the_same_a():
    # the scaling leaves F1 alone, so the copy shares the parent's
    # assembled F1, while f2, rate and stage_operator follow the scaled
    # fields; the embedding built on the shared F1 is the one a fresh F1
    # gives
    p = _params()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(p, g)
    u = p.two_beam_initial(g, BeamSpec(j_beam=1))
    for name in ("f1", "f2", "rate", "stage_operator"):
        getattr(ode, name)
    bar, _, gamma = rescale(ode, u, convergence_report(ode, u))
    assert bar.f1 is ode.f1
    assert not {"f2", "rate", "stage_operator"} & vars(bar).keys()
    fresh = gauss_ode(p, g).scaled(f2_scale=gamma, f0_scale=1.0 / gamma)
    assert "f1" not in fresh._f1_cache
    got, want = build_carleman(bar, 3).a, build_carleman(fresh, 3).a
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_a_copy_with_other_linear_factors_assembles_its_own_f1():
    # copies share the assembled F1 only while they hold the same f1a,
    # f1_stream and f1_field arrays
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = gauss_ode(_params(), g)
    f1 = ode.f1
    for change in ({"f1a": 2.0 * ode.f1a}, {"f1_stream": 2.0 * ode.f1_stream},
                   {"f1_field": 2.0 * ode.f1_field}):
        other = dataclasses.replace(ode, **change)
        fields = {f.name: getattr(other, f.name) for f in dataclasses.fields(other)}
        fresh = QuadraticODE(**fields | {"_f1_cache": {}})
        np.testing.assert_array_equal(other.f1.toarray(), fresh.f1.toarray())
        assert not np.array_equal(other.f1.toarray(), f1.toarray())
        assert ode.f1 is f1


@pytest.mark.parametrize(
    "n_x, n_v", [(1, 4), (2, 2), (2, 4), (3, 2), (3, 6), (5, 8), (8, 4), (32, 8)]
)
def test_f2_norm_and_densest_row_from_the_factors(n_x, n_v):
    # the assembled F2 and its eigensolver norm are the oracle, on the
    # dense (d <= 240) and the Lanczos side, unscaled and rescaled
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.3, v_max=0.7)
    ode = gauss_ode(_params(), g)
    for op in (ode, ode.scaled(f2_scale=2.5, f0_scale=0.4)):
        assert op.f2_norm == pytest.approx(spectral_norm(op.f2), rel=1e-12, abs=0.0)
        assert op.f2_row_nnz == np.diff(op.f2.indptr).max()


def test_f1_l1_bound_and_densest_row_from_the_factors():
    # the assembled F1 is the oracle: its l1 bound sqrt(||.||_1 ||.||_inf)
    # to round-off (|F1| is symmetric, so the closed form is one row
    # sum), never below the dense 2-norm, and its densest row exactly;
    # F1 ignores the normalization and the rescaling, so those must not
    # move either closed form
    h = quadratic_collision_variation(2.0, 2.0, 0.1)
    for n_x in (1, 2, 3, 4, 8, 32):
        for n_v in (2, 4, 6, 8, 16):
            g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.3, v_max=0.7)
            for nu0 in (0.0, 0.5, 8.0, 400.0):
                for h_coll in (None, h):
                    p = _params(nu0=nu0, ncal=1.7, h_coll=h_coll)
                    f1 = gauss_ode(p, g).f1
                    a = abs(f1)
                    l1 = np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())
                    norm2 = np.linalg.norm(f1.toarray(), 2)
                    for normalization in ("paper", "unit_mass"):
                        ode = gauss_ode(p, g, normalization=normalization)
                        for op in (ode, ode.scaled(f2_scale=2.5, f0_scale=0.4)):
                            case = (n_x, n_v, nu0, h_coll is not None, normalization)
                            assert op.f1_l1_bound == pytest.approx(l1, rel=4e-16, abs=0.0), case
                            assert op.f1_l1_bound >= norm2, case
                            assert op.f1_row_nnz == np.diff(op.f1.indptr).max(), case


def test_f2_is_assembled_once_on_first_read(monkeypatch):
    # integrating applies F2 through its factors; the first read of the
    # sparse matrix assembles it and later reads reuse it
    calls = []
    inner = qode._assemble_f2

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(qode, "_assemble_f2", counted)
    ode = gauss_ode(_params(), GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0))
    integrate_nonlinear(ode, np.ones(ode.d), 0.01, 5)
    assert calls == []
    assert ode.f2 is ode.f2
    assert len(calls) == 1


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


@pytest.mark.parametrize("n_x, n_v, nnz", [(108, 10, 8_511), (1024, 64, 523_135)])
def test_bound_csr_kernel_stage_is_the_rate_product_bit_for_bit(n_x, n_v, nnz):
    # above the dense limit the stage is the CSR rate's five calls, which
    # add the product into a zeroed scratch row with scipy's kernel: at
    # each of two states run through the same calls, the stage is
    # exactly the rate composed from rate @ (u, 1), charge rows
    # running-summed, and it is rhs_direct's pointwise rate
    p = PlasmaParams.normalized(ncal=math.sqrt(math.pi), b=1.0, nu0=10.0)
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=4.0)
    ode = gauss_ode(p, g, normalization="unit_mass")
    d = ode.d
    assert ode.stage_operator is ode.rate and ode.rate.nnz == nnz
    x, k = np.empty(d + 1), np.empty(d)
    calls = ode.stage_calls(x, k)
    assert len(calls) == 5
    rng = np.random.default_rng(n_x)
    for u in (rng.uniform(0.0, 1.0, d), rng.standard_normal(d)):
        x[:] = np.append(u, 1.0)
        for call in calls:
            call()
        want = ode.rate @ np.append(u, 1.0)
        quad = want[d : 2 * d].reshape(n_x, n_v) * np.add.accumulate(want[2 * d :])[:, None]
        assert k.tobytes() == (want[:d] + quad.reshape(-1)).tobytes()
        assert k.tobytes() == rhs_matrix(ode, u).tobytes()
        direct = rhs_direct(p, g, u.reshape(n_x, n_v), normalization="unit_mass")
        assert _rel(k, direct.reshape(-1)) <= 1e-13


@pytest.mark.parametrize("make", [gauss_ode])
def test_rate_operator_is_cached_with_32_bit_indices(make):
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = make(_params(), g)
    op = ode.rate
    assert ode.rate is op
    assert op.format == "csr"
    # f1b, F1 and the rate are each 32-bit as built
    for name in ("f1b", "f1", "rate"):
        part = getattr(ode, name)
        assert (part.indices.dtype, part.indptr.dtype) == (np.int32, np.int32), name


def test_rate_operator_charge_rows_sum_to_the_line_charge():
    # the running sum of the last n_x rows of G (f, 1) is f2_pref times
    # each x-line's accumulated charge, twice the cumulative trapezoid,
    # plus the line's background-field coefficient
    p = _params()
    g = GridSpec(n_x=5, n_v=4, x_max=2.0, v_max=1.5)
    ode = gauss_ode(p, g)
    assert ode.rate.shape == (2 * ode.d + g.n_x, ode.d + 1)
    f = np.random.default_rng(9).normal(size=(g.n_x, g.n_v))
    charge = np.add.accumulate((ode.rate @ np.append(f.reshape(-1), 1.0))[2 * ode.d :])
    for i in range(1, g.n_x + 1):
        expect = ode.f2_pref * 4.0 * g.cumulative_trapz(f, i) / (g.dx * g.dv)
        expect += ode.f1_field[i - 1]
        assert charge[i - 1] == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_rate_of_an_overflowed_field_builds_without_a_warning():
    # the suite turns RuntimeWarnings into errors; the field increments
    # after the first overflowed line are inf - inf, staged as nan
    g = GridSpec(n_x=4, n_v=4, x_max=1.0, v_max=1e-10)
    ode = gauss_ode(_params(ncal=1e300), g)
    assert np.isinf(ode.f1_field[1:]).all()
    steps = ode.rate.toarray()[2 * ode.d :, ode.d]
    assert steps[1] == np.inf and np.isnan(steps[2:]).all()


@pytest.mark.parametrize("n_x, n_v", [(1, 4), (3, 4), (108, 10)])
def test_rate_operator_first_rows_give_f1_u_plus_f0(n_x, n_v):
    # f0 is G's last column, met by the trailing 1 of (u, 1); the
    # background field, which the charge rows carry, is added back as
    # each line's coefficient times its velocity difference
    ode = gauss_ode(_params(), GridSpec(n_x=n_x, n_v=n_v, x_max=1.3, v_max=2.0))
    u = np.random.default_rng(n_x).normal(size=ode.d)
    got = (ode.rate @ np.append(u, 1.0))[: ode.d]
    got += (ode.f1_field[:, None] * _velocity_difference(u.reshape(n_x, n_v))).ravel()
    assert _rel(got, ode.f1 @ u + ode.f0) <= 1e-14


def _kron_rate(ode):
    """The rate operator stacked from Kronecker blocks: [diag(f1a) +
    streaming, f0], I (x) D_v, and [the charge increments spread over
    each line's velocities, the background-field increments]."""
    n_x, n_v = ode.grid.n_x, ode.grid.n_v
    stencil = _velocity_difference(np.eye(n_v)).T
    steps = np.diff(_line_charge(np.tri(n_x), ode.f2_pref), axis=0, prepend=0.0)
    # streaming: -v_j/(2 dx) on the next x-line, +v_j/(2 dx) on the
    # previous, periodic; on n_x <= 2 the two legs cancel to zero
    shift = np.roll(np.eye(n_x), -1, axis=1) - np.roll(np.eye(n_x), 1, axis=1)
    streaming = sparse.kron(shift, np.diag(ode.f1_stream))
    field_steps = np.diff(ode.f1_field, prepend=0.0)
    blocks = [
        [sparse.diags_array(ode.f1a) + streaming, sparse.csr_array(ode.f0[:, None])],
        [sparse.kron(sparse.identity(n_x), stencil), None],
        [sparse.kron(steps, np.ones((1, n_v))), sparse.csr_array(field_steps[:, None])],
    ]
    return sparse.bmat(blocks, format="csr")


@pytest.mark.parametrize("make", [gauss_ode])
@pytest.mark.parametrize("n_x", [1, 2, 3, 8, 300])
@pytest.mark.parametrize("n_v", [2, 4, 6])
def test_rate_operator_equals_the_kronecker_stack_bit_for_bit(make, n_x, n_v):
    g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.3, v_max=2.0)
    h = quadratic_collision_variation(4.0, 2.0, 0.05)
    ode = make(PlasmaParams.normalized(ncal=1.4, b=0.8, nu0=4.0, h_coll=h), g)
    # a zero self-field prefactor and a zero source (nu = 0 makes f0 = 0)
    # store no charge rows and no source column
    no_source = make(PlasmaParams.normalized(ncal=1.4, b=0.8, nu0=0.0), g)
    assert not no_source.f0.any()
    for model in (ode, ode.scaled(0.0, 1.0), no_source):
        got, want = model.rate, _kron_rate(model)
        if n_v == 2:
            # kron stores I (x) D_v as 2x2 blocks, zeros included
            want.eliminate_zeros()
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


def test_rate_operator_builds_within_a_few_copies_of_itself():
    # d = 65,536 on 4,096 lines: one dense n_x x n_x array of charge
    # weights would be 134 MB, 16 times the 8.2 MB operator
    ode = gauss_ode(_params(), GridSpec(n_x=4096, n_v=16, x_max=1.0, v_max=1.0))
    tracemalloc.start()
    try:
        rate = ode.rate
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = rate.data.nbytes + rate.indices.nbytes + rate.indptr.nbytes
    assert peak <= 8 * own


def test_scaled_copy_never_reuses_the_parent_rate_operator():
    p = _params()
    g = GridSpec(n_x=4, n_v=6, x_max=1.3, v_max=2.0)
    ode = gauss_ode(p, g)
    u = np.random.default_rng(3).normal(size=ode.d)
    # compile the parent's operator first, so a shared cache would be stale
    rhs_matrix(ode, u)
    bar = ode.scaled(3.0, 0.25)
    assert "rate" not in vars(bar)
    assert _rel(rhs_matrix(bar, u), _assembled_rhs(bar, u)) <= 1e-13
    assert bar.rate is not ode.rate


def test_model_fields_cannot_be_assigned():
    # the cached operators are derived from the fields, so none may move
    ode = gauss_ode(_params(), GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0))
    for name, value in (("f0", 2.0 * ode.f0), ("f2_pref", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ode, name, value)


# ----------------------------------------------------------------------
# ampere route


def test_ampere_layout_and_zero_field_columns():
    p = _params(nu0=6.0)
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    ode = ampere_ode(p, g)
    big_n = g.n_points
    d = g.n_x * (g.n_v + 1)
    assert ode.d == d
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
