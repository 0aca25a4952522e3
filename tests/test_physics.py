"""Plasma parameters, canonical states, and feasibility formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import params_from_temperature
from vlasov_carleman import BeamSpec, GridSpec, PlasmaParams
from vlasov_carleman.physics import (
    BOLTZMANN,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    VACUUM_PERMITTIVITY,
    load_initial_csv,
    quadratic_collision_variation,
)


def test_si_constants_codata_2018():
    assert ELEMENTARY_CHARGE == 1.602176634e-19
    assert ELECTRON_MASS == 9.1093837015e-31
    assert VACUUM_PERMITTIVITY == 8.8541878128e-12
    assert BOLTZMANN == 1.380649e-23


def test_temperature_roundtrip():
    p = params_from_temperature(8000.0)
    assert p.temperature == pytest.approx(8000.0, rel=1e-14)
    assert p.b == pytest.approx(ELECTRON_MASS / (2.0 * BOLTZMANN * 8000.0))


def test_normalized_constructor_sets_constants_to_one():
    p = PlasmaParams.normalized(ncal=2.0, b=0.5, nu0=3.0)
    assert (p.q, p.m_e, p.eps0, p.k_b) == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(ncal=0.0),
        dict(b=-1.0),
        dict(nu0=-0.5),
        dict(nbar=0.0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        PlasmaParams.normalized(**kwargs)


def test_collision_rate_constant_and_varying():
    p = PlasmaParams.normalized(nu0=2.0)
    assert p.nu(0.3) == 2.0
    h = quadratic_collision_variation(nu0=2.0, v_max=4.0, eps_h=1e-2)
    p2 = PlasmaParams.normalized(nu0=2.0, h_coll=h)
    assert p2.nu(0.0) == 2.0
    assert p2.nu(4.0) == pytest.approx(2.0 * (1.0 + 1e-2))
    assert p2.nu(-4.0) == p2.nu(4.0)
    g = GridSpec(n_x=1, n_v=6, x_max=1.0, v_max=4.0)
    vals = p2.nu_values(g)
    assert vals.shape == (6,)
    assert np.all(vals >= 2.0)
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-14)


def test_collision_rates_are_float_for_an_int_rate():
    # an int nu0 without variation must not reach the sparse assembly as
    # int64 (scipy warns about the implicit cast)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    assert PlasmaParams.normalized(nu0=8).nu_values(g).dtype == np.float64


def test_collision_variation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quadratic_collision_variation(nu0=-1.0, v_max=1.0)
    with pytest.raises(ValueError):
        quadratic_collision_variation(nu0=1.0, v_max=0.0)
    with pytest.raises(ValueError):
        quadratic_collision_variation(nu0=1.0, v_max=1.0, eps_h=-0.1)


def test_collision_frequency_model_oracle():
    # recomputed inline from the same physical inputs
    nbar, temp, loglam = 1.0e6, 8000.0, 10.0
    p = params_from_temperature(temp, nbar=nbar, log_lambda=loglam)
    expect = (
        ELEMENTARY_CHARGE**4
        * nbar
        * loglam
        / (
            (4.0 * math.pi * VACUUM_PERMITTIVITY) ** 2
            * math.sqrt(ELECTRON_MASS)
            * (temp * BOLTZMANN) ** 1.5
        )
    )
    assert p.collision_frequency_model() == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        params_from_temperature(temp).collision_frequency_model()


def test_feasibility_bound_interstellar():
    p = params_from_temperature(8000.0)
    bound = p.nv_feasibility_bound(1.0e6, 8000.0)
    assert bound == pytest.approx(1.6e-9, rel=0.05)


def test_feasibility_bound_fusion():
    p = params_from_temperature(5.0e7)
    bound = p.nv_feasibility_bound(1.0e-4, 5.0e7)
    assert bound == pytest.approx(2.24e-5, rel=0.05)


def test_xmax_temperature_bound_at_nv_100():
    p = PlasmaParams()
    assert p.xmax_temperature_bound(100) == pytest.approx(5.31e-7, rel=0.05)


def test_feasibility_bound_is_density_independent():
    thin = params_from_temperature(8000.0, nbar=1.0e3)
    dense = params_from_temperature(8000.0, nbar=1.0e12)
    assert thin.nv_feasibility_bound(10.0, 8000.0) == dense.nv_feasibility_bound(
        10.0, 8000.0
    )


def test_feasibility_bound_consistency():
    # the two bound forms agree: at n_v equal to the bound, x_max*T equals
    # the product bound
    p = PlasmaParams()
    x_max, temp = 2.0e-4, 1.0e5
    n_v = p.nv_feasibility_bound(x_max, temp)
    assert p.xmax_temperature_bound(int(round(n_v)) or 1) > 0
    prod = p.xmax_temperature_bound(100)
    assert p.nv_feasibility_bound(prod / temp, temp) == pytest.approx(100.0, rel=1e-6)


# ----------------------------------------------------------------------
# grid states


def test_maxwellian_shape_symmetry_positivity():
    p = PlasmaParams.normalized(ncal=3.0, b=0.7)
    g = GridSpec(n_x=4, n_v=8, x_max=2.0, v_max=3.0)
    fm = p.maxwellian_vector(g)
    assert fm.shape == (8,)
    assert np.all(fm > 0)
    np.testing.assert_allclose(fm, fm[::-1], rtol=1e-14)
    assert fm.argmax() in (3, 4)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_maxwellian_mass_under_grid_rule(ncal, b):
    p = PlasmaParams.normalized(ncal=ncal, b=b)
    g = GridSpec(n_x=3, n_v=6, x_max=1.5, v_max=4.0)
    tile_paper = np.tile(p.maxwellian_vector(g, "paper"), (g.n_x, 1))
    tile_unit = np.tile(p.maxwellian_vector(g, "unit_mass"), (g.n_x, 1))
    mass_paper = g.cumulative_trapz(tile_paper, g.n_x + 1)
    mass_unit = g.cumulative_trapz(tile_unit, g.n_x + 1)
    assert mass_paper == pytest.approx(ncal / 2.0, rel=1e-12)
    assert mass_unit == pytest.approx(ncal, rel=1e-12)


@pytest.mark.parametrize("v_max", [100.0, 1e200])
def test_maxwellian_that_underflows_everywhere_names_b_and_the_grid(v_max):
    # at 1e200, b v^2 overflows to inf and its weight is 0 as well
    p = PlasmaParams.normalized(b=1.0)
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=v_max)
    with pytest.raises(ValueError, match=r"underflows.*b = 1, smallest \|v\|.*lower v_max or raise n_v"):
        p.maxwellian_vector(g)


def test_maxwellian_values_are_the_normalized_weights():
    p = PlasmaParams.normalized(ncal=3.0, b=0.7)
    g = GridSpec(n_x=4, n_v=8, x_max=2.0, v_max=3.0)
    v = g.v_coords()
    w = np.exp(-0.7 * v * v)
    np.testing.assert_array_equal(
        p.maxwellian_vector(g), 3.0 / (2.0 * 2.0 * g.dv) * w / w.sum()
    )


def test_maxwellian_rejects_unknown_normalization():
    p = PlasmaParams.normalized()
    g = GridSpec(n_x=1, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError):
        p.maxwellian_vector(g, "bogus")


def test_two_beam_structure_and_mass():
    p = PlasmaParams.normalized(ncal=2.0)
    g = GridSpec(n_x=3, n_v=6, x_max=1.5, v_max=2.0)
    u = p.two_beam_initial(g, BeamSpec(j_beam=2))
    f = u.reshape(3, 6)
    pref = p.ncal / (2.0 * g.x_max * g.dv)
    expect = np.zeros((3, 6))
    expect[:, 1] = pref
    expect[:, 4] = pref
    np.testing.assert_array_equal(f, expect)
    # uniform in x, even in v
    assert np.all(f == f[0])
    np.testing.assert_array_equal(f, f[:, ::-1])
    # the grid rule assigns the full mass ncal over one period
    assert g.cumulative_trapz(f, g.n_x + 1) == pytest.approx(p.ncal, rel=1e-13)


def test_two_beam_norm_closed_form():
    for n_x, n_v, ncal in [(2, 4, 1.0), (5, 8, 3.0)]:
        p = PlasmaParams.normalized(ncal=ncal)
        g = GridSpec(n_x=n_x, n_v=n_v, x_max=2.0, v_max=1.0)
        u = p.two_beam_initial(g, BeamSpec(j_beam=1))
        # 2 n_x entries of ncal / (2 x_max dv)
        closed = p.ncal * math.sqrt(g.n_x) / (math.sqrt(2.0) * g.x_max * g.dv)
        assert np.linalg.norm(u) == pytest.approx(closed, rel=1e-14)


def test_two_beam_requires_valid_column():
    p = PlasmaParams.normalized()
    g = GridSpec(n_x=2, n_v=4, x_max=1.0, v_max=1.0)
    with pytest.raises(ValueError):
        p.two_beam_initial(g, BeamSpec(j_beam=3))
    with pytest.raises(ValueError):
        BeamSpec(j_beam=0)


def test_background_integral_matches_uniform_quadrature():
    p = PlasmaParams.normalized(ncal=2.5)
    g = GridSpec(n_x=5, n_v=4, x_max=2.0, v_max=1.0)
    # a uniform grid state carrying line density ncal / x_max
    f = np.full((5, 4), p.ncal / (g.x_max * g.n_v * g.dv))
    for i in range(1, 6):
        assert p.background_integral(g, i) == pytest.approx(
            g.cumulative_trapz(f, i), rel=1e-13
        )
        assert p.background_integral(g, i) == pytest.approx(
            (i - 1) * p.ncal / g.n_x
        )
    with pytest.raises(ValueError):
        p.background_integral(g, 0)
    with pytest.raises(ValueError):
        p.background_integral(g, 6)


def test_load_initial_csv_roundtrip(tmp_path):
    g = GridSpec(n_x=3, n_v=4, x_max=1.0, v_max=1.0)
    f = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "f.csv"
    np.savetxt(path, f, delimiter=",")
    u = load_initial_csv(path, g)
    np.testing.assert_allclose(u, f.reshape(-1))
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.zeros((2, 4)), delimiter=",")
    with pytest.raises(ValueError, match=r"bad\.csv has shape \(2, 4\); the grid needs \(3, 4\)"):
        load_initial_csv(bad, g)
    # one value a line is a column, not a row
    np.savetxt(bad, np.zeros((4, 1)), delimiter=",")
    with pytest.raises(ValueError, match=r"bad\.csv has shape \(4, 1\); the grid needs \(4, 2\)"):
        load_initial_csv(bad, GridSpec(n_x=4, n_v=2, x_max=1.0, v_max=1.0))
