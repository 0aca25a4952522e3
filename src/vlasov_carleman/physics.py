"""Plasma parameters, collision profiles, and canonical grid states.

Everything is SI internally.  A normalized mode (all physical constants
set to 1) exists for numeric tests and toy runs; it is just a different
PlasmaParams instance, not a separate code path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import GridSpec

__all__ = [
    "ELEMENTARY_CHARGE",
    "ELECTRON_MASS",
    "VACUUM_PERMITTIVITY",
    "BOLTZMANN",
    "PlasmaParams",
    "BeamSpec",
    "quadratic_collision_variation",
    "load_initial_csv",
]

# CODATA 2018 values.
ELEMENTARY_CHARGE = 1.602176634e-19
ELECTRON_MASS = 9.1093837015e-31
VACUUM_PERMITTIVITY = 8.8541878128e-12
BOLTZMANN = 1.380649e-23


def quadratic_collision_variation(
    nu0: float, v_max: float, eps_h: float = 1.0e-3
) -> Callable[[float], float]:
    """Default velocity variation of the collision rate.

    Returns h(v) = eps_h * nu0 * (v / v_max)**2, an even nonnegative
    bump that keeps the collision operator dissipative while breaking
    the exact degeneracy of a constant rate.
    """
    if nu0 < 0 or v_max <= 0 or eps_h < 0:
        raise ValueError("nu0 and eps_h must be >= 0 and v_max > 0")

    def h(v: float) -> float:
        return eps_h * nu0 * (v / v_max) ** 2

    return h


@dataclass(frozen=True)
class PlasmaParams:
    """Physical constants and plasma state for the one-species model.

    Parameters
    ----------
    q, m_e, eps0, k_b : float
        Charge magnitude, electron mass, vacuum permittivity, Boltzmann
        constant.  Defaults are SI; pass 1.0 for normalized runs.
    ncal : float
        Areal electron density (per area): the line density integrated
        over the position period.
    b : float
        Velocity decay factor of the Maxwellian, b = m_e / (2 k_B T).
    nu0 : float
        Constant part of the collision rate.
    h_coll : callable or None
        Even nonnegative velocity variation of the collision rate;
        None means no variation (h = 0).
    nbar : float or None
        Volume density, used only by the collision-rate model and the
        feasibility bounds.
    log_lambda : float
        Coulomb logarithm for the collision-rate model.
    """

    q: float = ELEMENTARY_CHARGE
    m_e: float = ELECTRON_MASS
    eps0: float = VACUUM_PERMITTIVITY
    k_b: float = BOLTZMANN
    ncal: float = 1.0
    b: float = 1.0
    nu0: float = 0.0
    h_coll: Callable[[float], float] | None = field(default=None, compare=False)
    nbar: float | None = None
    log_lambda: float = 10.0

    def __post_init__(self) -> None:
        for name in ("q", "m_e", "eps0", "k_b", "ncal", "b"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if self.nu0 < 0:
            raise ValueError("nu0 must be >= 0")
        if self.nbar is not None and self.nbar <= 0:
            raise ValueError("nbar must be positive when given")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def normalized(cls, **kwargs) -> "PlasmaParams":
        """All physical constants set to 1 (toy units)."""
        base = dict(q=1.0, m_e=1.0, eps0=1.0, k_b=1.0)
        base.update(kwargs)
        return cls(**base)

    # ------------------------------------------------------------------
    # derived quantities

    @property
    def temperature(self) -> float:
        """Temperature implied by b, T = m_e / (2 k_B b)."""
        return self.m_e / (2.0 * self.k_b * self.b)

    def nu(self, v: float) -> float:
        """Collision rate nu0 + h(v) at velocity v."""
        if self.h_coll is None:
            return self.nu0
        return self.nu0 + self.h_coll(v)

    def nu_values(self, g: GridSpec) -> np.ndarray:
        """Collision rate on the velocity grid, shape (n_v,)."""
        return np.array([self.nu(v) for v in g.v_coords()], dtype=float)

    # ------------------------------------------------------------------
    # model formulas

    def collision_frequency_model(self) -> float:
        """Electron-electron collision rate from density and temperature.

        q^4 nbar log_lambda / [(4 pi eps0)^2 m_e^(1/2) (T k_B)^(3/2)].
        """
        if self.nbar is None:
            raise ValueError("collision-rate model needs nbar")
        num = self.q**4 * self.nbar * self.log_lambda
        den = (
            (4.0 * math.pi * self.eps0) ** 2
            * math.sqrt(self.m_e)
            * (self.temperature * self.k_b) ** 1.5
        )
        return num / den

    def nv_feasibility_bound(self, x_max: float, temperature: float) -> float:
        """Largest velocity-grid size with a convergent embedding.

        [(5 log_lambda / (2 pi^2)) * q^2 / (eps0 k_B) / (x_max T)]^(2/3);
        at the default Coulomb logarithm 10 the bracket's constant is
        25/pi^2.  Independent of density (it cancels against the
        collision rate).
        """
        if x_max <= 0 or temperature <= 0:
            raise ValueError("x_max and temperature must be positive")
        coeff = (5.0 * self.log_lambda / 2.0) / math.pi**2
        bracket = coeff * self.q**2 / (self.eps0 * self.k_b) / (x_max * temperature)
        return bracket ** (2.0 / 3.0)

    def xmax_temperature_bound(self, n_v: int) -> float:
        """Largest x_max * T (m K) with a convergent embedding at n_v."""
        if n_v < 1:
            raise ValueError("n_v must be >= 1")
        coeff = (5.0 * self.log_lambda / 2.0) / math.pi**2
        return coeff * self.q**2 / (self.eps0 * self.k_b) / n_v**1.5

    # ------------------------------------------------------------------
    # grid states

    def maxwellian_vector(
        self, g: GridSpec, normalization: str = "paper"
    ) -> np.ndarray:
        """Discrete Maxwellian on the velocity grid, shape (n_v,).

        f^M_j = pref * exp(-b v_j^2) / sum_J exp(-b v_J^2) with
        pref = ncal / (2 x_max dv).  Under the grid's x-periodic
        trapezoid rule this carries total mass ncal/2; pass
        normalization="unit_mass" to double it so the full grid
        integral is ncal.  A grid too coarse to hold a weight above 0
        is a ValueError.
        """
        if normalization not in ("paper", "unit_mass"):
            raise ValueError(f"unknown normalization {normalization!r}")
        v = g.v_coords()
        with np.errstate(over="ignore"):  # b v^2 = inf weighs 0
            weights = np.exp(-self.b * v * v)
        total = weights.sum()
        if not total > 0.0:
            raise ValueError(
                f"exp(-b v^2) underflows to 0 at every grid velocity (b = {self.b:.6g}, "
                f"smallest |v| = {np.abs(v).min():.6g}); lower v_max or raise n_v"
            )
        pref = self.ncal / (2.0 * g.x_max * g.dv)
        if normalization == "unit_mass":
            pref *= 2.0
        return pref * weights / total

    def two_beam_initial(self, g: GridSpec, beams: "BeamSpec") -> np.ndarray:
        """Symmetric two-beam state, flattened to shape (N,).

        Mass ncal sits in two velocity columns j = j_beam and
        j = n_v + 1 - j_beam, uniform in x:
        u_n = ncal / (2 x_max dv) * (delta_{j,j_beam} + delta_{j,mirror}).
        """
        j = beams.j_beam
        if not 1 <= j <= g.n_v // 2:
            raise ValueError(f"j_beam={j} out of range 1..{g.n_v // 2}")
        pref = self.ncal / (2.0 * g.x_max * g.dv)
        f = np.zeros((g.n_x, g.n_v))
        f[:, j - 1] = pref
        f[:, g.n_v - j] = pref
        return f.reshape(-1)

    def background_integral(self, g: GridSpec, i: int) -> float:
        """Uniform-background charge integral over [0, x_i].

        (i-1) * ncal / n_x: the neutralizing background contributes a
        linearly growing column integral, exactly the trapezoid rule
        applied to a constant line density ncal / x_max.
        """
        if not 1 <= i <= g.n_x:
            raise ValueError(f"i={i} out of range 1..{g.n_x}")
        return (i - 1) * self.ncal / g.n_x


@dataclass(frozen=True)
class BeamSpec:
    """Velocity column of the symmetric two-beam initial state.

    j_beam indexes the negative-velocity beam (1-based, at most n_v/2);
    the positive beam mirrors it at n_v + 1 - j_beam.
    """

    j_beam: int = 1

    def __post_init__(self) -> None:
        if self.j_beam < 1:
            raise ValueError("j_beam must be >= 1")


def load_initial_csv(path, g: GridSpec) -> np.ndarray:
    """Load an (n_x, n_v) grid function from CSV and flatten row-major;
    a file that is not a table of numbers, or is empty, names itself."""
    shape = (g.n_x, g.n_v)
    try:
        with warnings.catch_warnings():  # numpy warns on an empty file
            warnings.simplefilter("ignore", UserWarning)
            f = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:  # numpy's reason, without its advice
        reason = str(exc).split(";")[0].rstrip(".")
        raise ValueError(f"CSV {path} is not a {shape} table of numbers: {reason}") from None
    if f.size == 0:
        raise ValueError(f"CSV {path} holds no numbers; expected {shape}")
    if f.shape != shape:
        raise ValueError(f"CSV {path} has shape {f.shape}; the grid needs {shape}")
    if not np.isfinite(f).all():
        raise ValueError(f"CSV {path} holds non-finite entries")
    return f.reshape(-1)
