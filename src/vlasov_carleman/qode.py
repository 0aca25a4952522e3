"""Sparse operator assembly for the collisional phase-space model.

The semi-discrete model is a quadratic ODE on the flattened state u,

    du/dt = F2 (u (x) u) + (F1a + F1b) u + F0,

where F2 carries the self-consistent field built from the accumulated
charge (a cumulative trapezoid in x contracted with a central velocity
derivative), F1b carries streaming plus the uniform-background field,
F1a is the collision damping, and F0 is the collision source pulling
toward the Maxwellian.

F2 is kept in factored form: a velocity stencil with its prefactor,
times a per-x-line cumulative charge.  ``rhs_matrix`` applies it in
O(N) through the two factors; the d x d^2 sparse matrix is assembled
from the same factors only when ``QuadraticODE.f2`` is first read
(norms, the embedding, sparsity accounting).

Two coupling closures are supported:

* ``gauss``: the field is eliminated through the accumulated-charge
  integral, which makes the field term quadratic in u (full F2).
* ``ampere``: the field E is kept as extra state evolved by the current;
  only the linear operator is built here (its quadratic coupling is out
  of scope, so F2 is zero), which is enough for the non-convergence
  diagnosis.

All builders produce scipy CSR arrays with duplicate entries summed and
exact zeros dropped.  Row/column semantics are 1-based in the docs and
0-based in the arrays, following the grid's flattening n = (i-1)*n_v + j.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .grid import GridSpec
from .physics import PlasmaParams

__all__ = [
    "QuadraticODE",
    "trapezoid_weight_row",
    "build_f0_gauss",
    "build_f1_gauss",
    "build_f2_gauss",
    "build_f1_ampere",
    "gauss_ode",
    "ampere_ode",
    "rhs_direct",
    "rhs_matrix",
    "write_coo_text",
    "sparsity_report",
]


@dataclass
class QuadraticODE:
    """Quadratic ODE du/dt = F2 (u(x)u) + (f1a + f1b) u + f0.

    Treated as immutable after construction.  ``d`` is the state
    dimension: n_x*n_v for the gauss coupling, n_x*(n_v+1) for ampere
    (field values appended after the distribution block).  F2 is held
    as its two factors: ``f2_pref`` times the central velocity
    difference, times the cumulative charge of each x-line (both on the
    grid's (n_x, n_v) layout); ``f2_pref`` is zero for ampere, which has
    no quadratic term.
    """

    f2_pref: float
    f1a: sparse.csr_array
    f1b: sparse.csr_array
    f0: np.ndarray
    coupling: str
    grid: GridSpec
    params: PlasmaParams
    normalization: str = "paper"
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.f1a.shape[0]
        if self.f1a.shape != (d, d) or self.f1b.shape != (d, d):
            raise ValueError("f1a/f1b must be square and same size")
        if self.f0.shape != (d,):
            raise ValueError(f"f0 shape {self.f0.shape} != ({d},)")
        if self.coupling not in ("gauss", "ampere"):
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.coupling == "gauss" and self.grid.n_points != d:
            raise ValueError(f"quadratic factors act on {self.grid.n_points} values, d = {d}")
        if self.coupling == "ampere" and self.f2_pref != 0.0:
            raise ValueError("the ampere coupling has no quadratic term")

    @property
    def d(self) -> int:
        return self.f0.shape[0]

    @property
    def f1(self) -> sparse.csr_array:
        """Full linear operator f1a + f1b (cached)."""
        if "f1" not in self._cache:
            f1 = (self.f1a + self.f1b).tocsr()
            f1.sum_duplicates()
            f1.eliminate_zeros()
            self._cache["f1"] = f1
        return self._cache["f1"]

    @property
    def f2(self) -> sparse.csr_array:
        """Quadratic operator as a d x d^2 CSR matrix, assembled from the
        factors on first access (cached)."""
        if "f2" not in self._cache:
            if self.coupling == "gauss":
                f2 = _assemble_f2(self.grid, self.f2_pref)
            else:
                f2 = sparse.csr_array((self.d, self.d * self.d))
            self._cache["f2"] = f2
        return self._cache["f2"]

    def scaled(self, f2_scale: float, f0_scale: float) -> "QuadraticODE":
        """New ODE with F2 and f0 scaled (f1 unchanged)."""
        return replace(self, f2_pref=self.f2_pref * f2_scale, f0=self.f0 * f0_scale)


# ----------------------------------------------------------------------
# the two factors of the self-field term


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


def _f2_pref(p: PlasmaParams, g: GridSpec) -> float:
    return -(p.q**2) * g.dx / (8.0 * p.m_e * p.eps0)


def _assemble_f2(g: GridSpec, pref: float) -> sparse.csr_array:
    """F2 as a d x d^2 CSR matrix, built from the two factors.

    Row (i, j) holds one leg per in-range velocity neighbor a = (i, j -/+ 1)
    (value -/+ pref, lower leg first), each spread over the columns
    a*N + b with b running over the weight window of x-line i: the
    charge weights of lines 1..i, repeated over the velocity block.
    Rows of the first x-line are zero; the densest rows sit at i = n_x
    with 2*N entries.  Column indices come out sorted within each row.
    """
    n_x, n_v, big_n = g.n_x, g.n_v, g.n_points
    line_weights = _line_charge(np.tri(n_x))  # row i: weight of each line sum
    stencil = _velocity_difference(np.eye(n_v)).T  # row j: weight of f[k]
    leg_row, leg_col = np.nonzero(stencil)
    leg_val = pref * stencil[leg_row, leg_col]
    # line i's window is the nonzero prefix of its weights: lines 0..i
    width = np.count_nonzero(line_weights, axis=1) * n_v
    row_nnz = np.outer(width, np.bincount(leg_row, minlength=n_v))  # (line, velocity)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    # 32-bit indices whenever they fit, as scipy's own constructors choose
    fits = max(big_n * big_n, indptr[-1]) <= np.iinfo(np.int32).max
    idx = np.int32 if fits else np.int64
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    for i in np.flatnonzero(width):
        lo, hi = indptr[i * n_v], indptr[(i + 1) * n_v]
        block = (leg_row.size, width[i])  # one block row per leg, in CSR row order
        np.add(
            ((i * n_v + leg_col) * big_n).astype(idx)[:, None],
            np.arange(width[i], dtype=idx),
            out=indices[lo:hi].reshape(block),
        )
        np.multiply(
            leg_val[:, None],
            np.repeat(line_weights[i, : width[i] // n_v], n_v),
            out=data[lo:hi].reshape(block),
        )
    return sparse.csr_array(
        (data, indices, indptr.astype(idx)), shape=(big_n, big_n * big_n)
    )


def build_f0_gauss(
    p: PlasmaParams, g: GridSpec, normalization: str = "paper"
) -> np.ndarray:
    """Collision source: nu(v_j) * maxwellian_j, replicated per x-line."""
    fm = p.maxwellian_vector(g, normalization=normalization)
    row = p.nu_values(g) * fm
    return np.tile(row, g.n_x)


def build_f1_gauss(
    p: PlasmaParams, g: GridSpec
) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Linear operators (f1a, f1b) for the gauss coupling.

    f1a is the diagonal collision damping -nu(v_j).  f1b holds the
    periodic streaming stencil (coefficient -v_j/(2 dx) on the two
    x-neighbors) and the uniform-background field stencil (coefficient
    q^2 ncal (i-1)/(2 m_e eps0 dv n_x) on the two v-neighbors, with the
    out-of-range neighbor dropped at the velocity edges).  f1b is
    exactly antisymmetric; at n_x = 2 the two streaming neighbors
    coincide and cancel to zero during duplicate summation.
    """
    n_x, n_v = g.n_x, g.n_v
    big_n = g.n_points
    nu_j = p.nu_values(g)
    f1a = sparse.csr_array(
        sparse.diags_array(-np.tile(nu_j, n_x), offsets=0, shape=(big_n, big_n))
    )

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    v_j = g.v_coords()
    n_idx = np.arange(big_n)  # 0-based flat rows
    i_idx = n_idx // n_v  # 0-based x-line
    j_idx = n_idx % n_v  # 0-based v-line

    # streaming: +coeff on the forward x-neighbor, -coeff on the backward
    coeff_s = -v_j[j_idx] / (2.0 * g.dx)
    fwd = ((i_idx + 1) % n_x) * n_v + j_idx
    bwd = ((i_idx - 1) % n_x) * n_v + j_idx
    rows += [n_idx, n_idx]
    cols += [fwd, bwd]
    vals += [coeff_s, -coeff_s]

    # background field: +coeff on the upper v-neighbor, -coeff on the lower
    coeff_f = (
        p.q**2 * p.ncal * i_idx.astype(float) / (2.0 * p.m_e * p.eps0 * g.dv * n_x)
    )
    up = j_idx < n_v - 1
    dn = j_idx > 0
    rows += [n_idx[up], n_idx[dn]]
    cols += [n_idx[up] + 1, n_idx[dn] - 1]
    vals += [coeff_f[up], -coeff_f[dn]]

    f1b = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(big_n, big_n),
    ).tocsr()
    f1b.sum_duplicates()
    f1b.eliminate_zeros()
    return f1a, f1b


def build_f2_gauss(p: PlasmaParams, g: GridSpec) -> sparse.csr_array:
    """Quadratic operator coupling the velocity derivative to the
    accumulated charge, scaled by -q^2 dx/(8 m_e eps0)."""
    return _assemble_f2(g, _f2_pref(p, g))


def build_f1_ampere(
    p: PlasmaParams, g: GridSpec
) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Linear operators (f1a, f1b) for the ampere coupling.

    State layout: n_x*n_v distribution values followed by n_x field
    values.  Distribution rows carry collision damping and streaming
    (no background-field stencil: the field acts through the quadratic
    coupling, which is out of scope here).  Field rows accumulate the
    current, dv*q*v_J/eps0 against x-line J-block of the distribution.
    The field columns are identically zero, which is what blocks any
    dissipation from reaching the field variables.
    """
    n_x, n_v = g.n_x, g.n_v
    big_n = g.n_points
    d = n_x * (n_v + 1)
    nu_j = p.nu_values(g)
    diag = np.concatenate([-np.tile(nu_j, n_x), np.zeros(n_x)])
    f1a = sparse.csr_array(sparse.diags_array(diag, offsets=0, shape=(d, d)))

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    v_j = g.v_coords()
    n_idx = np.arange(big_n)
    i_idx = n_idx // n_v
    j_idx = n_idx % n_v

    coeff_s = -v_j[j_idx] / (2.0 * g.dx)
    fwd = ((i_idx + 1) % n_x) * n_v + j_idx
    bwd = ((i_idx - 1) % n_x) * n_v + j_idx
    rows += [n_idx, n_idx]
    cols += [fwd, bwd]
    vals += [coeff_s, -coeff_s]

    # current accumulation rows, one per x-line
    moment = g.dv * p.q * v_j / p.eps0
    for i in range(n_x):
        rows.append(np.full(n_v, big_n + i))
        cols.append(i * n_v + np.arange(n_v))
        vals.append(moment)

    f1b = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d, d),
    ).tocsr()
    f1b.sum_duplicates()
    f1b.eliminate_zeros()
    return f1a, f1b


# ----------------------------------------------------------------------
# assembled systems


def gauss_ode(
    p: PlasmaParams,
    g: GridSpec,
    normalization: str = "paper",
) -> QuadraticODE:
    """Assemble the quadratic ODE for the gauss coupling (F2 factored)."""
    f1a, f1b = build_f1_gauss(p, g)
    return QuadraticODE(
        f2_pref=_f2_pref(p, g),
        f1a=f1a,
        f1b=f1b,
        f0=build_f0_gauss(p, g, normalization=normalization),
        coupling="gauss",
        grid=g,
        params=p,
        normalization=normalization,
    )


def ampere_ode(p: PlasmaParams, g: GridSpec) -> QuadraticODE:
    """Assemble the linear part of the ampere coupling.

    The quadratic field coupling and the collision source are out of
    scope for this route; F2 and f0 are zero with the right shapes so
    the diagnosis tools and rhs_matrix work mechanically.
    """
    f1a, f1b = build_f1_ampere(p, g)
    return QuadraticODE(
        f2_pref=0.0,
        f1a=f1a,
        f1b=f1b,
        f0=np.zeros(f1a.shape[0]),
        coupling="ampere",
        grid=g,
        params=p,
    )


# ----------------------------------------------------------------------
# right-hand sides


def rhs_direct(
    p: PlasmaParams, g: GridSpec, f: np.ndarray, normalization: str = "paper"
) -> np.ndarray:
    """Pointwise evaluation of the semi-discrete rate, shape (n_x, n_v).

    Evaluates the four physical terms literally through the grid's
    calculus ops: self-field from the accumulated charge, streaming,
    uniform-background field, and the collision relaxation.  This is the
    independent oracle for the matrix route; it never touches the
    assembled operators.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n_x, g.n_v):
        raise ValueError(f"state shape {f.shape} != ({g.n_x}, {g.n_v})")
    fm = p.maxwellian_vector(g, normalization=normalization)
    field_const = p.q**2 / (p.m_e * p.eps0)
    out = np.empty_like(f)
    for i in range(1, g.n_x + 1):
        charge = g.cumulative_trapz(f, i)
        background = p.background_integral(g, i)
        for j in range(1, g.n_v + 1):
            v = g.v_coord(j)
            dv_f = g.ddv(f, i, j)
            dx_f = g.ddx(f, i, j)
            out[i - 1, j - 1] = (
                -field_const * dv_f * charge
                + (-v * dx_f + field_const * dv_f * background)
                - p.nu(v) * f[i - 1, j - 1]
                + p.nu(v) * fm[j - 1]
            )
    return out


def rhs_matrix(ode: QuadraticODE, u: np.ndarray) -> np.ndarray:
    """Operator evaluation F2 (u(x)u) + f1 u + f0 on the flat state.

    The quadratic term is applied through its factors in O(N): on
    f = u reshaped to (n_x, n_v), f2_pref * (velocity difference of f)
    times each x-line's accumulated charge, read off one running sum of
    u.  Neither the d^2 tensor square nor the assembled F2 is formed.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ode.d,):
        raise ValueError(f"state shape {u.shape} != ({ode.d},)")
    out = ode.f1 @ u
    if ode.coupling == "gauss":
        n_v = ode.grid.n_v
        quad = _velocity_difference(u.reshape(-1, n_v))
        # every n_v-th running sum of u closes an x-line: S_1, S_2, ...
        charge = _line_charge(np.add.accumulate(u)[n_v - 1 :: n_v], ode.f2_pref)
        quad *= charge[:, None]
        out += quad.reshape(-1)
    out += ode.f0
    return out


# ----------------------------------------------------------------------
# export


def write_coo_text(mat, path) -> None:
    """Write a sparse matrix as 1-based 'row col value' lines."""
    coo = sparse.coo_array(mat)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"# shape {coo.shape[0]} {coo.shape[1]} nnz {coo.nnz}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def _matrix_stats(mat) -> dict:
    csr = sparse.csr_array(mat)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    row_counts = np.diff(csr.indptr)
    total = csr.shape[0] * csr.shape[1]
    return {
        "shape": list(csr.shape),
        "nnz": int(csr.nnz),
        "max_row_nnz": int(row_counts.max()) if csr.shape[0] else 0,
        "density": csr.nnz / total if total else 0.0,
    }


def sparsity_report(ode: QuadraticODE) -> dict:
    """JSON-ready sparsity accounting for the assembled operators."""
    return {
        "coupling": ode.coupling,
        "d": ode.d,
        "f2": _matrix_stats(ode.f2),
        "f1": _matrix_stats(ode.f1),
        "f1a": _matrix_stats(ode.f1a),
        "f1b": _matrix_stats(ode.f1b),
        "f0_nnz": int(np.count_nonzero(ode.f0)),
    }
