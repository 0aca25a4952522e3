"""Phase-space grid: coordinates and discrete calculus.

The grid is periodic in position x and truncated in velocity v.  Position
points are x_i = (i-1)*dx for i = 1..n_x with dx = x_max/n_x (the right
endpoint x_max aliases x_1).  Velocity points are v_j = -v_max + (j-1)*dv
for j = 1..n_v with dv = 2*v_max/(n_v - 1), so v_1 = -v_max and
v_{n_v} = +v_max.  n_v must be even so that v = 0 is never a grid point
and the velocity grid is symmetric.

All public index arguments are 1-based.  A grid function is either an
(n_x, n_v) matrix f with f[i-1, j-1] = f(x_i, v_j) or its row-major
flattening u with u[n-1] = f(x_i, v_j), n = (i-1)*n_v + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridSpec"]


@dataclass(frozen=True)
class GridSpec:
    """Immutable phase-space grid description.

    Parameters
    ----------
    n_x : int
        Number of position points, >= 1.
    n_v : int
        Number of velocity points, even and >= 2.
    x_max : float
        Position-domain length, > 0 and finite.
    v_max : float
        Velocity cutoff, > 0 and finite; the grid spans [-v_max, +v_max].

    The spacings dx, dv are computed at construction, never passed in.
    """

    n_x: int
    n_v: int
    x_max: float
    v_max: float
    dx: float = field(init=False)
    dv: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n_x < 1:
            raise ValueError(f"n_x must be >= 1, got {self.n_x}")
        if self.n_v < 2:
            raise ValueError(f"n_v must be >= 2, got {self.n_v}")
        if self.n_v % 2 != 0:
            raise ValueError(f"n_v must be even, got {self.n_v}")
        for name in ("x_max", "v_max"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        object.__setattr__(self, "dx", self.x_max / self.n_x)
        object.__setattr__(self, "dv", 2.0 * self.v_max / (self.n_v - 1))

    # ------------------------------------------------------------------
    # coordinates

    @property
    def n_points(self) -> int:
        """Total number of phase-space points N = n_x * n_v."""
        return self.n_x * self.n_v

    def v_coord(self, j: int) -> float:
        """Velocity of grid line j (1-based), v_j = -v_max + (j-1)*dv."""
        self._check_j(j)
        return -self.v_max + (j - 1) * self.dv

    def x_coords(self) -> np.ndarray:
        """All positions as an (n_x,) array."""
        return np.arange(self.n_x, dtype=float) * self.dx

    def v_coords(self) -> np.ndarray:
        """All velocities as an (n_v,) array."""
        return -self.v_max + np.arange(self.n_v, dtype=float) * self.dv

    # ------------------------------------------------------------------
    # discrete calculus

    def ddx(self, f: np.ndarray, i: int, j: int) -> float:
        """Central x-derivative at (i, j) with periodic wrap in i.

        (f_{i+1,j} - f_{i-1,j}) / (2*dx), indices taken mod n_x so that
        i = 1 uses f_{n_x, j} on the left and i = n_x uses f_{1, j} on
        the right.
        """
        f = self._check_f(f)
        self._check_i(i)
        self._check_j(j)
        up = i % self.n_x + 1
        dn = (i - 2) % self.n_x + 1
        return (f[up - 1, j - 1] - f[dn - 1, j - 1]) / (2.0 * self.dx)

    def ddv(self, f: np.ndarray, i: int, j: int) -> float:
        """Central v-derivative at (i, j); f is zero outside the v range.

        (f_{i,j+1} - f_{i,j-1}) / (2*dv) with the out-of-range neighbor
        dropped at j = 1 and j = n_v (distribution vanishes beyond the
        velocity cutoff).
        """
        f = self._check_f(f)
        self._check_i(i)
        self._check_j(j)
        hi = f[i - 1, j] if j < self.n_v else 0.0
        lo = f[i - 1, j - 2] if j > 1 else 0.0
        return (hi - lo) / (2.0 * self.dv)

    def cumulative_trapz(self, f: np.ndarray, i: int) -> float:
        """Trapezoid-rule integral of f over [0, x_i] x [-v_max, v_max].

        Zero at i = 1 (empty x-interval).  For i >= 2 the x-rule weights
        the first and last x-lines by 1/2 and interior lines by 1; the
        v-sum is the plain row sum (velocity endpoints carry the same
        weight as the interior, matching the operator entry maps built
        from this rule).  i = n_x + 1 is admitted and closes the period:
        line n_x + 1 aliases line 1.
        """
        f = self._check_f(f)
        if not 1 <= i <= self.n_x + 1:
            raise ValueError(f"i={i} out of range 1..{self.n_x + 1}")
        if i == 1:
            return 0.0
        row_sums = f.sum(axis=1)
        first = row_sums[0]
        last = row_sums[0] if i == self.n_x + 1 else row_sums[i - 1]
        interior = row_sums[1 : i - 1].sum()
        return 0.5 * self.dx * self.dv * (first + last + 2.0 * interior)

    # ------------------------------------------------------------------
    # helpers

    def _check_i(self, i: int) -> None:
        if not 1 <= i <= self.n_x:
            raise ValueError(f"i={i} out of range 1..{self.n_x}")

    def _check_j(self, j: int) -> None:
        if not 1 <= j <= self.n_v:
            raise ValueError(f"j={j} out of range 1..{self.n_v}")

    def _check_f(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_x, self.n_v):
            raise ValueError(
                f"grid function shape {f.shape} != ({self.n_x}, {self.n_v})"
            )
        return f
