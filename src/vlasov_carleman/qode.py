"""Sparse operator assembly for the collisional phase-space model.

The semi-discrete model is a quadratic ODE on the flattened state u,

    du/dt = F2 (u (x) u) + (F1a + F1b) u + F0,

where F2 carries the self-consistent field built from the accumulated
charge (a cumulative trapezoid in x contracted with a central velocity
derivative), F1b carries streaming plus the uniform-background field,
F1a is the collision damping, and F0 is the collision source pulling
toward the Maxwellian.

Two coupling closures are supported:

* ``gauss``: the field is eliminated through the accumulated-charge
  integral, which makes the field term quadratic in u (full F2).
* ``ampere``: the field E is kept as extra state evolved by the current;
  only the linear operator is built here (its quadratic coupling is out
  of scope), which is enough for the non-convergence diagnosis.

All builders produce scipy CSR arrays with duplicate entries summed and
exact zeros dropped.  Row/column semantics are 1-based in the docs and
0-based in the arrays, following the grid's flattening n = (i-1)*n_v + j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Assembled quadratic ODE du/dt = f2 (u(x)u) + (f1a + f1b) u + f0.

    Treated as immutable after construction.  ``d`` is the state
    dimension: n_x*n_v for the gauss coupling, n_x*(n_v+1) for ampere
    (field values appended after the distribution block).
    """

    f2: sparse.csr_array
    f1a: sparse.csr_array
    f1b: sparse.csr_array
    f0: np.ndarray
    coupling: str
    grid: GridSpec
    params: PlasmaParams
    normalization: str = "paper"
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.f1a.shape[0]
        if self.f1a.shape != (d, d) or self.f1b.shape != (d, d):
            raise ValueError("f1a/f1b must be square and same size")
        if self.f2.shape != (d, d * d):
            raise ValueError(f"f2 shape {self.f2.shape} != ({d}, {d * d})")
        if self.f0.shape != (d,):
            raise ValueError(f"f0 shape {self.f0.shape} != ({d},)")
        if self.coupling not in ("gauss", "ampere"):
            raise ValueError(f"unknown coupling {self.coupling!r}")

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

    def _f2_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """COO data of f2 with columns split into the (a, b) pair factors."""
        if "f2_triplets" not in self._cache:
            coo = self.f2.tocoo()
            a, b = np.divmod(coo.col, self.d)
            self._cache["f2_triplets"] = (coo.row, a, b, coo.data)
        return self._cache["f2_triplets"]

    def scaled(self, f2_scale: float, f0_scale: float) -> "QuadraticODE":
        """New ODE with f2 and f0 scaled (f1 unchanged)."""
        return QuadraticODE(
            f2=(self.f2 * f2_scale).tocsr(),
            f1a=self.f1a,
            f1b=self.f1b,
            f0=self.f0 * f0_scale,
            coupling=self.coupling,
            grid=self.grid,
            params=self.params,
            normalization=self.normalization,
        )


# ----------------------------------------------------------------------
# entry-map building blocks


def trapezoid_weight_row(g: GridSpec, i: int) -> np.ndarray:
    """Dense weight row of the accumulated-charge rule up to x-line i.

    Length N = n_x*n_v.  Zero for i = 1.  For i >= 2 it weights the
    velocity block of x-line 1 and of x-line i by 2 and every block in
    between by 4, matching twice the cumulative trapezoid weights
    (endpoint 1, interior 2) used by the quadratic operator.
    """
    if not 1 <= i <= g.n_x:
        raise ValueError(f"i={i} out of range 1..{g.n_x}")
    big_n = g.n_points
    t = np.zeros(big_n)
    if i == 1:
        return t
    n_v = g.n_v
    t[:n_v] = 2.0
    t[n_v : (i - 1) * n_v] = 4.0
    t[(i - 1) * n_v : i * n_v] += 2.0
    return t


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


def build_f2_gauss(
    p: PlasmaParams, g: GridSpec, method: str = "block_sum"
) -> sparse.csr_array:
    """Quadratic operator coupling the velocity derivative to the
    accumulated charge.

    Two construction paths that must produce identical entries:

    * ``block_sum``: direct sum over x-lines of (velocity difference
      stencil) (x) (trapezoid weight row), scaled by -q^2 dx/(8 m_e eps0).
    * ``entry_map``: per-row case analysis placing the weight window at
      tensor-pair offsets N*n (upper v-neighbor) and N*(n-2) (lower),
      scaled by -q^2 dx/(4 m_e eps0) with half weights.

    Rows of the first x-line (n <= n_v) are zero; the densest rows sit
    at i = n_x with 2*N entries.
    """
    if method == "block_sum":
        return _f2_block_sum(p, g)
    if method == "entry_map":
        return _f2_entry_map(p, g)
    raise ValueError(f"unknown method {method!r}")


def _f2_block_sum(p: PlasmaParams, g: GridSpec) -> sparse.csr_array:
    n_v = g.n_v
    big_n = g.n_points
    pref = -(p.q**2) * g.dx / (8.0 * p.m_e * p.eps0)
    ones = np.ones(n_v - 1)
    stencil = sparse.diags_array([-ones, ones], offsets=[-1, 1], shape=(n_v, n_v))
    blocks = []
    for i in range(1, g.n_x + 1):
        t_row = sparse.csr_array(trapezoid_weight_row(g, i).reshape(1, big_n))
        blocks.append(sparse.kron(stencil, t_row))
    f2 = sparse.block_diag(blocks, format="csr") * pref
    f2 = sparse.csr_array(f2)
    f2.sum_duplicates()
    f2.eliminate_zeros()
    return f2


def _f2_entry_map(p: PlasmaParams, g: GridSpec) -> sparse.csr_array:
    n_v = g.n_v
    big_n = g.n_points
    pref = -(p.q**2) * g.dx / (4.0 * p.m_e * p.eps0)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for n in range(1, big_n + 1):  # 1-based flat row
        i, j = g.unflatten_index(n)
        if i == 1:
            continue
        # weight window: half the trapezoid weight row, nonzero part only
        pos = np.concatenate(
            [np.arange(n_v), np.arange((i - 1) * n_v, i * n_v), np.arange(n_v, (i - 1) * n_v)]
        )
        w = np.concatenate(
            [np.ones(n_v), np.ones(n_v), 2.0 * np.ones((i - 2) * n_v)]
        )
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
    f2_method: str = "block_sum",
) -> QuadraticODE:
    """Assemble the full quadratic ODE for the gauss coupling."""
    f1a, f1b = build_f1_gauss(p, g)
    return QuadraticODE(
        f2=build_f2_gauss(p, g, method=f2_method),
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
    scope for this route; f2 and f0 are zero with the right shapes so
    the diagnosis tools and rhs_matrix work mechanically.
    """
    f1a, f1b = build_f1_ampere(p, g)
    d = f1a.shape[0]
    return QuadraticODE(
        f2=sparse.csr_array((d, d * d)),
        f1a=f1a,
        f1b=f1b,
        f0=np.zeros(d),
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
    """Operator evaluation f2 (u(x)u) + f1 u + f0 on the flat state.

    The quadratic term runs matrix-free over f2's stored entries
    (value * u_a * u_b accumulated by row), so the d^2 tensor square is
    never materialized.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ode.d,):
        raise ValueError(f"state shape {u.shape} != ({ode.d},)")
    row, a, b, data = ode._f2_triplets()
    quad = np.bincount(row, weights=data * u[a] * u[b], minlength=ode.d)
    return quad + ode.f1 @ u + ode.f0


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
