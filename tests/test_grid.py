"""Grid geometry, index maps, and discrete calculus."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import flatten_index
from vlasov_carleman import GridSpec


def test_spacings_and_coordinates():
    g = GridSpec(n_x=4, n_v=6, x_max=2.0, v_max=3.0)
    assert g.dx == 0.5
    assert g.dv == pytest.approx(1.2)
    assert g.n_points == 24
    np.testing.assert_allclose(g.x_coords(), [0.0, 0.5, 1.0, 1.5])
    np.testing.assert_allclose(
        g.v_coords(), [-3.0, -1.8, -0.6, 0.6, 1.8, 3.0], atol=1e-15
    )
    assert g.v_coord(1) == -3.0
    assert g.v_coord(6) == 3.0


def test_velocity_grid_is_symmetric_and_skips_zero():
    for n_v in (2, 4, 6, 10, 16):
        g = GridSpec(n_x=1, n_v=n_v, x_max=1.0, v_max=2.5)
        v = g.v_coords()
        np.testing.assert_allclose(v, -v[::-1], atol=1e-14)
        assert np.abs(v).min() > 0.0
        assert v[0] == -2.5 and v[-1] == 2.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_x=0, n_v=4, x_max=1.0, v_max=1.0),
        dict(n_x=2, n_v=1, x_max=1.0, v_max=1.0),
        dict(n_x=2, n_v=5, x_max=1.0, v_max=1.0),
        dict(n_x=2, n_v=4, x_max=0.0, v_max=1.0),
        dict(n_x=2, n_v=4, x_max=1.0, v_max=-1.0),
        dict(n_x=2, n_v=4, x_max=math.inf, v_max=1.0),
        dict(n_x=2, n_v=4, x_max=1.0, v_max=math.inf),
        dict(n_x=2, n_v=4, x_max=1.0, v_max=math.nan),
    ],
)
def test_invalid_grids_rejected(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


@pytest.mark.parametrize("spacing", ["dx", "dv"])
def test_spacings_are_not_constructor_arguments(spacing):
    # dx and dv follow from the extents; a passed value would be dropped
    with pytest.raises(TypeError, match=spacing):
        GridSpec(2, 4, 1.0, 1.0, **{spacing: 99.0})
    g = dataclasses.replace(GridSpec(2, 4, 1.0, 1.0), n_x=4)
    assert (g.dx, g.dv) == (0.25, 2.0 / 3.0)


def test_flatten_index_values():
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    assert flatten_index(g, 1, 1) == 1
    assert flatten_index(g, 1, 4) == 4
    assert flatten_index(g, 2, 1) == 5
    assert flatten_index(g, 2, 3) == 7
    assert flatten_index(g, 3, 4) == 12


def test_flatten_unflatten_roundtrip_exhaustive():
    for n_x, n_v in [(1, 2), (2, 4), (3, 4), (4, 4)]:
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.0, v_max=1.0)
        seen = set()
        for i in range(1, n_x + 1):
            for j in range(1, n_v + 1):
                n = flatten_index(g, i, j)
                assert 1 <= n <= g.n_points
                assert divmod(n - 1, n_v) == (i - 1, j - 1)
                seen.add(n)
        assert seen == set(range(1, g.n_points + 1))


def test_flatten_matches_numpy_reshape_order():
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    f = np.arange(12.0).reshape(3, 4)
    u = f.reshape(-1)
    for i in range(1, 4):
        for j in range(1, 5):
            assert u[flatten_index(g, i, j) - 1] == f[i - 1, j - 1]


def test_index_bounds_rejected():
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError):
        flatten_index(g, 0, 1)
    with pytest.raises(ValueError):
        flatten_index(g, 3, 1)
    with pytest.raises(ValueError):
        flatten_index(g, 1, 5)


# ----------------------------------------------------------------------
# discrete derivatives


def test_ddx_literal_stencil_with_wrap():
    g = GridSpec(n_x=4, n_v=2, x_max=2.0, v_max=1.0)
    f = np.array([[1.0, 0.0], [4.0, 0.0], [9.0, 0.0], [16.0, 0.0]])
    two_dx = 2.0 * g.dx
    assert g.ddx(f, 2, 1) == pytest.approx((9.0 - 1.0) / two_dx)
    assert g.ddx(f, 3, 1) == pytest.approx((16.0 - 4.0) / two_dx)
    # periodic wrap at both ends
    assert g.ddx(f, 1, 1) == pytest.approx((4.0 - 16.0) / two_dx)
    assert g.ddx(f, 4, 1) == pytest.approx((1.0 - 9.0) / two_dx)


def test_ddx_two_line_grid_cancels():
    # with n_x = 2 the up and down neighbors coincide, so the central
    # difference vanishes identically
    g = GridSpec(n_x=2, n_v=2, x_max=1.0, v_max=1.0)
    f = np.array([[3.0, -1.0], [7.0, 2.0]])
    for i in (1, 2):
        for j in (1, 2):
            assert g.ddx(f, i, j) == 0.0


def test_ddv_literal_stencil_with_zero_extension():
    g = GridSpec(n_x=1, n_v=4, x_max=1.0, v_max=1.0)
    f = np.array([[2.0, 5.0, 11.0, 17.0]])
    two_dv = 2.0 * g.dv
    assert g.ddv(f, 1, 2) == pytest.approx((11.0 - 2.0) / two_dv)
    assert g.ddv(f, 1, 3) == pytest.approx((17.0 - 5.0) / two_dv)
    # outside the cutoff the distribution is taken as zero
    assert g.ddv(f, 1, 1) == pytest.approx((5.0 - 0.0) / two_dv)
    assert g.ddv(f, 1, 4) == pytest.approx((0.0 - 11.0) / two_dv)


def _ddx_error(n_x: int) -> float:
    g = GridSpec(n_x=n_x, n_v=2, x_max=1.0, v_max=1.0)
    x = g.x_coords()
    f = np.cos(2.0 * math.pi * x)[:, None] * np.ones((1, 2))
    exact = -2.0 * math.pi * np.sin(2.0 * math.pi * x)
    errs = [abs(g.ddx(f, i, 1) - exact[i - 1]) for i in range(1, n_x + 1)]
    return max(errs)


def _ddv_error(n_v: int) -> float:
    g = GridSpec(n_x=1, n_v=n_v, x_max=1.0, v_max=6.0)
    v = g.v_coords()
    f = np.exp(-v * v)[None, :]
    exact = -2.0 * v * np.exp(-v * v)
    errs = [abs(g.ddv(f, 1, j) - exact[j - 1]) for j in range(2, n_v)]
    return max(errs)


def test_ddx_is_second_order():
    e1, e2 = _ddx_error(16), _ddx_error(32)
    slope = math.log2(e1 / e2)
    assert 1.7 <= slope <= 2.3


def test_ddv_is_second_order():
    e1, e2 = _ddv_error(32), _ddv_error(64)
    slope = math.log2(e1 / e2)
    assert 1.7 <= slope <= 2.3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=1, max_value=4))
def test_periodic_ddx_sums_to_zero(n_x, seed):
    # sum over a period of central differences telescopes away
    g = GridSpec(n_x=n_x, n_v=2, x_max=1.0, v_max=1.0)
    f = np.random.default_rng(seed).normal(size=(n_x, 2))
    total = sum(g.ddx(f, i, 1) for i in range(1, n_x + 1))
    assert abs(total) < 1e-12 * max(1.0, np.abs(f).max() / g.dx)


# ----------------------------------------------------------------------
# quadrature


def test_cumulative_trapz_literal():
    g = GridSpec(n_x=3, n_v=2, x_max=3.0, v_max=1.0)
    f = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    # row sums 3, 7, 11; dx = 1, dv = 2
    assert g.cumulative_trapz(f, 1) == 0.0
    assert g.cumulative_trapz(f, 2) == pytest.approx(0.5 * 1.0 * 2.0 * (3 + 7))
    assert g.cumulative_trapz(f, 3) == pytest.approx(0.5 * 1.0 * 2.0 * (3 + 11 + 2 * 7))
    # closing the period: line n_x+1 aliases line 1
    assert g.cumulative_trapz(f, 4) == pytest.approx(
        0.5 * 1.0 * 2.0 * (3 + 3 + 2 * (7 + 11))
    )


def test_cumulative_trapz_full_period_is_plain_sum():
    rng = np.random.default_rng(3)
    for n_x, n_v in [(2, 4), (5, 6)]:
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=1.7, v_max=2.2)
        f = rng.normal(size=(n_x, n_v))
        full = g.cumulative_trapz(f, n_x + 1)
        assert full == pytest.approx(g.dx * g.dv * f.sum(), rel=1e-13)


def test_cumulative_trapz_uniform_grows_linearly():
    g = GridSpec(n_x=5, n_v=4, x_max=2.0, v_max=1.0)
    c = 0.7
    f = np.full((5, 4), c)
    for i in range(1, 6):
        assert g.cumulative_trapz(f, i) == pytest.approx(
            c * g.n_v * g.dv * g.dx * (i - 1)
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=5))
def test_cumulative_trapz_monotone_for_nonnegative(n_x, seed):
    g = GridSpec(n_x=n_x, n_v=4, x_max=1.0, v_max=1.0)
    f = np.abs(np.random.default_rng(seed).normal(size=(n_x, 4)))
    vals = [g.cumulative_trapz(f, i) for i in range(1, n_x + 2)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_cumulative_trapz_index_range():
    g = GridSpec(n_x=3, n_v=2, x_max=1.0, v_max=1.0)
    f = np.zeros((3, 2))
    with pytest.raises(ValueError):
        g.cumulative_trapz(f, 0)
    with pytest.raises(ValueError):
        g.cumulative_trapz(f, 5)


def test_grid_function_shape_checked():
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError):
        g.ddx(np.zeros((4, 2)), 1, 1)
    with pytest.raises(ValueError):
        g.cumulative_trapz(np.zeros(8), 1)
