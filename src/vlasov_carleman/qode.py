"""Sparse operator assembly for the collisional phase-space model.

The semi-discrete model is a quadratic ODE on the flattened state u,

    du/dt = F2 (u (x) u) + (F1a + F1b) u + F0,

where F2 carries the self-consistent field built from the accumulated
charge (a cumulative trapezoid in x contracted with a central velocity
derivative), F1b carries streaming plus the uniform-background field,
F1a is the collision damping, the Krook diagonal -nu(v_j) on every
x-line, and F0 is the collision source pulling toward the Maxwellian.

F2 is kept in factored form: a velocity stencil with its prefactor,
times a per-x-line cumulative charge.  Both are written from their
closed forms, in memory proportional to the entries they fill: velocity
j takes -1 at j-1 and +1 at j+1 (``_velocity_legs``), and line i's
charge weighs lines 1..i by 2, 4, ..., 4, 2.  ``rhs_matrix`` applies
the whole rate through one operator compiled once per ODE
(``QuadraticODE.rate``), applied to the state with a trailing 1: the
Krook diagonal and streaming with F0 in the last column, stacked over
the block velocity difference and over the per-line charge increments,
which hold the background field's increments in that last column.  So
one sparse product gives those linear rows, every stencil value and,
after one running sum, every line's charge plus its background field,
in O(N), and the rate is staged from the factors without F1.  The
reference integrator applies the rate as ``QuadraticODE.stage_operator``
holds it: while the model is small (``_DENSE_RATE_LIMIT``) the dense
bilinear tensor T that the same blocks define, so a stage is
y = T (u, 1) and then y (u, 1), two BLAS products; else the CSR
``rate`` itself.  F2's norm and densest row come from the factors too;
the d x d^2 sparse F2 is assembled from them only when
``QuadraticODE.f2`` is first read (the embedding, and the flattening
check's transported F2).

``QuadraticODE`` is the gauss closure, whose field is eliminated through
the accumulated-charge integral.  It holds F1a as its diagonal, a vector,
and f1b as two factors: the streaming coefficient v_j/(2 dx) of each
velocity on the periodic x-neighbors, and the background-field
coefficient of each x-line on the same velocity legs as F2.  Both terms
are antisymmetric by construction, which makes F1's log-norm the largest
entry of f1a, and F1's l1 bound and densest row are closed forms of the
factors, so the certificate, the plan and the reference assemble no
F1.  The sparse f1b and F1 are assembled on first read (the embedding,
an eigensolver norm), once per ODE and its rescaled copies,
and every assembled f1b is checked to be exactly antisymmetric.  The
ampere closure keeps the field as extra state; ``ampere_ode`` builds
only its F1, all that its diagnosis reads.

Every sparse operator is staged as (row, col, value) triplets and
converted to CSR once by ``_csr``, with duplicate entries summed and
exact zeros dropped.  Row/column semantics are 1-based in the docs and
0-based in the arrays, following the grid's flattening n = (i-1)*n_v + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from .grid import GridSpec
from .physics import PlasmaParams

__all__ = [
    "QuadraticODE",
    "AmpereLinear",
    "gauss_ode",
    "ampere_ode",
    "rhs_direct",
    "rhs_matrix",
]


@dataclass(frozen=True, eq=False)
class QuadraticODE:
    """Quadratic ODE du/dt = F2 (u(x)u) + (diag(f1a) + f1b) u + f0.

    Frozen; the operators derived from the fields are built on first
    read.  ``d`` = n_x*n_v is the state dimension.  F2 is held as its
    two factors: ``f2_pref`` times the central velocity difference,
    times the cumulative charge of each x-line (both on the grid's
    (n_x, n_v) layout).  f1a is the length-d Krook rate vector, the
    diagonal of F1a.  f1b is held as its two factors too: the streaming
    coefficient ``f1_stream[j]`` = v_j/(2 dx), taken with sign -/+ on
    the forward/backward periodic x-neighbor, and the background-field
    coefficient ``f1_field[i]`` of x-line i on the -1/+1 velocity legs of
    ``_velocity_legs``.  Both terms are antisymmetric by construction,
    and the sparse f1b and f1 are assembled only when first read, each
    assembled f1b checked to be exactly antisymmetric.  A copy made by
    ``scaled`` shares that cache, since the scaling leaves F1 alone; a
    copy given other linear factors starts its own.
    """

    f2_pref: float
    f1a: np.ndarray
    f1_stream: np.ndarray
    f1_field: np.ndarray
    f0: np.ndarray
    grid: GridSpec
    params: PlasmaParams
    _f1_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        d = self.f1a.shape[0]
        if self.grid.n_points != d:
            raise ValueError(f"quadratic factors act on {self.grid.n_points} values, d = {d}")
        for name, vec, n in (
            ("f1a", self.f1a, d),
            ("f0", self.f0, d),
            ("f1_stream", self.f1_stream, self.grid.n_v),
            ("f1_field", self.f1_field, self.grid.n_x),
        ):
            if vec.shape != (n,):
                raise ValueError(f"{name} shape {vec.shape} != ({n},)")
        # copies share the assembled F1 while they hold the same factors
        linear = (self.f1a, self.f1_stream, self.f1_field)
        if any(a is not b for a, b in zip(self._f1_cache.setdefault("of", linear), linear)):
            object.__setattr__(self, "_f1_cache", {"of": linear})

    @property
    def d(self) -> int:
        return self.f0.shape[0]

    @property
    def f1b(self) -> sparse.csr_array:
        """The antisymmetric part of F1 as a d x d CSR matrix, assembled
        from the two factors and checked on first read."""
        if "f1b" not in self._f1_cache:
            g = self.grid
            self._f1_cache["f1b"] = _antisymmetric(
                _csr(_f1b_terms(g.n_x, g.n_v, self.f1_stream, self.f1_field), (self.d, self.d))
            )
        return self._f1_cache["f1b"]

    @property
    def f1(self) -> sparse.csr_array:
        """Full linear operator diag(f1a) + f1b, assembled on first read;
        the diagonal and the zero-diagonal f1b never overlap, so the sum
        is canonical."""
        if "f1" not in self._f1_cache:
            self._f1_cache["f1"] = sparse.diags_array(self.f1a, format="csr") + self.f1b
        return self._f1_cache["f1"]

    @property
    def f1_l1_bound(self) -> float:
        """F1's largest absolute row sum, from its factors: row (i, j)
        sums |f1a|, |v_j|/dx (on n_x >= 3) and n_j times the field
        coefficient, n_j in {1, 2} velocity j's in-range neighbors.  |F1|
        is symmetric, so this is also its largest column sum, and
        sqrt(||F1||_1 ||F1||_inf) is this one number."""
        n_x, n_v = self.grid.n_x, self.grid.n_v
        n_legs = _leg_counts(n_v)
        stream = 2.0 * abs(self.f1_stream) if n_x >= 3 else 0.0
        with np.errstate(over="ignore"):
            rows = abs(self.f1a.reshape(n_x, n_v)) + stream + abs(self.f1_field)[:, None] * n_legs
        return float(rows.max())

    @property
    def f1_row_nnz(self) -> int:
        """Entries in F1's densest row, from its factors: a nonzero
        diagonal, two streaming entries (on n_x >= 3) and n_j field
        entries, each stored only where its coefficient is nonzero."""
        n_x, n_v = self.grid.n_x, self.grid.n_v
        n_legs = _leg_counts(n_v)
        rows = (
            (self.f1a.reshape(n_x, n_v) != 0).astype(int)
            + 2 * (n_x >= 3) * (self.f1_stream != 0)
            + (self.f1_field != 0)[:, None] * n_legs
        )
        return int(rows.max())

    @cached_property
    def f2(self) -> sparse.csr_array:
        """Quadratic operator as a d x d^2 CSR matrix, assembled from the
        factors on first access."""
        return _assemble_f2(self.grid, self.f2_pref)

    @property
    def f2_norm(self) -> float:
        """Spectral norm of F2 from its factors (see _f2_norm)."""
        return _f2_norm(self.grid, self.f2_pref)

    @property
    def f2_row_nnz(self) -> int:
        """Entries in F2's densest row, from its factors (0 on a one-line
        grid, where F2 is zero; see _assemble_f2)."""
        if self.grid.n_x < 2:
            return 0
        return (2 if self.grid.n_v > 2 else 1) * self.grid.n_points

    @cached_property
    def rate(self) -> sparse.csr_array:
        """The operator G that ``rhs_matrix`` applies to (u, 1).

        G stacks [diag(f1a) + streaming, f0], the block velocity
        difference I_{n_x} (x) D_v, and n_x charge rows.  With c_i =
        f2_pref times the accumulated charge of x-line i, charge row
        i >= 2 holds 2 f2_pref on the velocities of lines i-1 and i, the
        increment c_i - c_{i-1}, and every charge row holds in column d,
        met by the trailing 1, the increment of the background-field
        coefficient from line i-1 (from 0 on row 1).  So the running sum
        of those entries of G (u, 1) is c plus the field coefficient,
        each line's total coefficient of its velocity difference: the
        charge sum carries the background field, and G reads no
        assembled F1.  The blocks are staged from their closed forms for
        ``_csr``; a zero entry (an underflow, or the first line's zero
        field) stores nothing.
        """
        d = self.d
        n_x, n_v = self.grid.n_x, self.grid.n_v
        j, k, sign = _velocity_legs(n_v)
        line_start = (np.arange(n_x) * n_v)[:, None]
        # charge row i >= 1 spans lines i-1 and i, contiguous in the state
        line = np.arange(1, n_x)
        span = 2 * n_v
        with np.errstate(invalid="ignore"):  # inf - inf past an overflowed field
            field_steps = np.diff(self.f1_field, prepend=0.0)
        n_idx = np.arange(d)
        parts = [
            (n_idx, n_idx, self.f1a),
            *_streaming_terms(n_x, n_v, self.f1_stream),
            (n_idx, np.full(d, d), self.f0),
            ((d + line_start + j).ravel(), (line_start + k).ravel(), np.tile(sign, n_x)),
            (np.repeat(2 * d + line, span),
             ((line - 1)[:, None] * n_v + np.arange(span)).ravel(),
             np.full(line.size * span, 2.0 * self.f2_pref)),
            (2 * d + np.arange(n_x), np.full(n_x, d), field_steps),
        ]
        return _csr(parts, (2 * d + n_x, d + 1))

    @cached_property
    def stage_operator(self) -> np.ndarray | sparse.csr_array:
        """The rate as the reference's stages apply it to x = (u, 1).

        While d (d+1)^2 is at most _DENSE_RATE_LIMIT, the dense bilinear
        tensor T of shape (d (d+1), d+1), T[(n, a), b] = D[n, a] C[n, b]
        + [b = d] L[n, a], with L = [diag(f1a) + streaming, f0], D the
        velocity-difference rows and C the running-summed charge rows
        (whose column d is the background field) repeated over each
        line's n_v velocities: y = T x reshaped to (d, d+1), then y x, is
        the rate.  Above the limit, ``rate`` itself, no copy.
        """
        d = self.d
        if d * (d + 1) ** 2 > _DENSE_RATE_LIMIT:
            return self.rate
        rate = self.rate.toarray()
        charge = np.repeat(np.add.accumulate(rate[2 * d :], axis=0), self.grid.n_v, axis=0)
        op = rate[d : 2 * d, :, None] * charge[:, None, :]
        op[:, :, d] += rate[:d]  # column d: D times the field, plus L
        return op.reshape(d * (d + 1), d + 1)

    def scaled(self, f2_scale: float, f0_scale: float) -> "QuadraticODE":
        """New ODE with F2 and f0 scaled.  F1 is unchanged, so the copy
        shares the assembled-F1 cache; ``f2``, ``rate`` and
        ``stage_operator`` depend on the scaled fields and are not."""
        return replace(self, f2_pref=self.f2_pref * f2_scale, f0=self.f0 * f0_scale)


def _index_dtype(maxval: int) -> type:
    """32-bit sparse indices whenever maxval fits, as scipy's own
    constructors choose."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _csr(parts: list[tuple], shape: tuple[int, int], idx: type | None = None) -> sparse.csr_array:
    """The CSR array of the (rows, cols, values) triplets in parts.

    The parts are raveled and concatenated, then released (parts is left
    empty, so a caller holding no other reference frees them before the
    conversion allocates), and converted once with duplicates summed and
    exact zeros dropped.  Indices are staged in idx, by default 32-bit
    whenever the shape and the entry count fit, which scipy keeps.
    """
    row, col, val = (np.concatenate([t[n].ravel() for t in parts]) for n in range(3))
    parts.clear()
    if idx is None:
        idx = _index_dtype(max(*shape, val.size))
    out = sparse.csr_array(
        (val, (row.astype(idx, copy=False), col.astype(idx, copy=False))), shape=shape
    )
    del row, col, val
    out.eliminate_zeros()
    return out


# ----------------------------------------------------------------------
# the two factors of the self-field term


def _velocity_legs(n_v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The central velocity difference f[j+1] - f[j-1] as legs (j, k,
    sign): velocity j takes -1 at k = j-1 and +1 at k = j+1, the lower
    leg first, with an out-of-range neighbor dropped at the edges."""
    j = np.repeat(np.arange(n_v), 2)
    k = j + np.tile([-1, 1], n_v)
    keep = (k >= 0) & (k < n_v)
    return j[keep], k[keep], np.tile([-1.0, 1.0], n_v)[keep]


def _f2_pref(p: PlasmaParams, g: GridSpec) -> float:
    return -(p.q**2) * g.dx / (8.0 * p.m_e * p.eps0)


def _f2_norm(g: GridSpec, pref: float) -> float:
    """Spectral norm of the F2 with prefactor pref on grid g.

    Rows of different x-lines share no column, so
    F2 F2^T = pref^2 blockdiag_i(n_v ||w_i||^2 D D^T), with D the
    velocity difference, ||D|| = 2 cos(pi/(n_v+1)), and w_i the charge
    weights of x-line i.  The largest are the last line's, 2, 4, ..., 4, 2,
    with ||w||^2 = 8 (2 n_x - 3).  A one-line grid carries no charge.
    """
    if g.n_x < 2:
        return 0.0
    stencil_norm = 2.0 * math.cos(math.pi / (g.n_v + 1))
    return abs(pref) * stencil_norm * math.sqrt(8.0 * g.n_v * (2 * g.n_x - 3))


def _assemble_f2(g: GridSpec, pref: float) -> sparse.csr_array:
    """F2 as a d x d^2 CSR matrix, built from the two factors.

    Row (i, j) holds one leg per in-range velocity neighbor a = (i, j -/+ 1)
    (value -/+ pref, lower leg first), each spread over the columns
    a*N + b with b running over the weight window of x-line i: lines
    1..i weighted 2, 4, ..., 4, 2, repeated over the velocity block.
    Rows of the first x-line are zero; the densest sit at i = n_x, with
    2*N entries (N if n_v = 2).  Column indices come out sorted per row.
    """
    n_x, n_v, big_n = g.n_x, g.n_v, g.n_points
    leg_row, leg_col, sign = _velocity_legs(n_v)
    leg_val = pref * sign
    # line i >= 1 weighs lines 0..i; line 0 carries no charge
    width = np.arange(n_x) * n_v + n_v
    width[0] = 0
    row_nnz = np.outer(width, np.bincount(leg_row, minlength=n_v))  # (line, velocity)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    idx = _index_dtype(max(big_n * big_n, indptr[-1]))
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    for i in range(1, n_x):
        lo, hi = indptr[i * n_v], indptr[(i + 1) * n_v]
        block = (leg_row.size, width[i])  # one block row per leg, in CSR row order
        np.add(
            ((i * n_v + leg_col) * big_n).astype(idx)[:, None],
            np.arange(width[i], dtype=idx),
            out=indices[lo:hi].reshape(block),
        )
        window = np.full(i + 1, 4.0)
        window[[0, -1]] = 2.0
        np.multiply(leg_val[:, None], np.repeat(window, n_v), out=data[lo:hi].reshape(block))
    return sparse.csr_array(
        (data, indices, indptr.astype(idx)), shape=(big_n, big_n * big_n)
    )


def _leg_counts(n_v: int) -> np.ndarray:
    """The legs ``_velocity_legs`` keeps for each velocity: 2, or 1 at
    an edge."""
    return np.bincount(_velocity_legs(n_v)[0], minlength=n_v)


def _streaming_terms(n_x: int, n_v: int, stream: np.ndarray) -> list[tuple]:
    """The periodic streaming stencil of f1b as (rows, cols, vals)
    triplets on the first n_x*n_v state values: row (i, j) holds
    -stream[j] at x-line i+1 and +stream[j] at i-1.  On n_x <= 2 the two
    x-neighbors coincide and the legs cancel, so none are staged."""
    if n_x < 3:
        return []
    n_idx = np.arange(n_x * n_v)
    i_idx, j_idx = np.divmod(n_idx, n_v)
    return [
        (n_idx, ((i_idx + 1) % n_x) * n_v + j_idx, -stream[j_idx]),  # forward x-neighbor
        (n_idx, ((i_idx - 1) % n_x) * n_v + j_idx, stream[j_idx]),  # backward
    ]


def _stream_coeff(g: GridSpec) -> np.ndarray:
    """The streaming factor v_j/(2 dx), one per velocity."""
    return g.v_coords() / (2.0 * g.dx)


def _f1b_terms(n_x: int, n_v: int, stream: np.ndarray, line_field: np.ndarray) -> list[tuple]:
    """f1b's triplets from its two factors: streaming, and x-line i's
    field coefficient on velocity j's legs, -1 at j-1 and +1 at j+1."""
    j, k, sign = _velocity_legs(n_v)
    line_start = (np.arange(n_x) * n_v)[:, None]
    field_legs = (line_start + j, line_start + k, line_field[:, None] * sign)
    return _streaming_terms(n_x, n_v, stream) + [field_legs]


def _antisymmetric(f1b: sparse.csr_array) -> sparse.csr_array:
    """f1b itself, checked to be exactly antisymmetric: its CSC arrays,
    which are the transpose's CSR arrays, equal its own with the values
    negated.  That makes F1's log-norm the largest entry of f1a."""
    t = f1b.tocsc()
    if not (
        np.array_equal(t.indptr, f1b.indptr)
        and np.array_equal(t.indices, f1b.indices)
        and np.array_equal(t.data, -f1b.data)
    ):
        raise ValueError("f1b is not exactly antisymmetric")
    return f1b


# ----------------------------------------------------------------------
# assembled systems


def gauss_ode(
    p: PlasmaParams,
    g: GridSpec,
    normalization: str = "paper",
) -> QuadraticODE:
    """Assemble the quadratic ODE for the gauss coupling (F2 and f1b factored).

    f1a is the Krook rate -nu(v_j) and f0 the collision source
    nu(v_j) maxwellian_j, each repeated on every x-line.  f1b's factors
    are the streaming coefficient v_j/(2 dx) (see _streaming_terms) and
    the uniform-background field coefficient q^2 ncal (i-1)/(2 m_e eps0
    dv n_x) of x-line i, on the two v-neighbors with the out-of-range one
    dropped at the velocity edges.  A coefficient that overflows is inf,
    with no warning: the norms that read it name the overflow.
    """
    nu = p.nu_values(g)
    line = np.arange(g.n_x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        line_field = p.q**2 * p.ncal * line / (2.0 * p.m_e * p.eps0 * g.dv * g.n_x)
        stream = _stream_coeff(g)
    return QuadraticODE(
        f2_pref=_f2_pref(p, g),
        f1a=-np.tile(nu, g.n_x),
        f1_stream=stream,
        f1_field=line_field,
        f0=np.tile(nu * p.maxwellian_vector(g, normalization=normalization), g.n_x),
        grid=g,
        params=p,
    )


@dataclass(frozen=True)
class AmpereLinear:
    """The linear part F1 of the ampere coupling, on d = n_x*(n_v+1)
    values (field values appended after the distribution block).  Its
    quadratic field coupling and collision source are out of scope; F1
    is what the non-convergence diagnosis reads."""

    f1: sparse.csr_array
    d: int


def ampere_ode(p: PlasmaParams, g: GridSpec) -> AmpereLinear:
    """Assemble the linear part of the ampere coupling.

    State layout: n_x*n_v distribution values followed by n_x field
    values.  Distribution rows carry the Krook damping on the diagonal
    and streaming (no background-field stencil: the field acts through
    the quadratic coupling, which is out of scope here).  Field rows
    accumulate the current, dv*q*v_J/eps0 against x-line J-block of the
    distribution.  The field columns are identically zero, which is what
    blocks any dissipation from reaching the field variables.
    """
    big_n, d = g.n_points, g.n_x * (g.n_v + 1)
    n_idx = np.arange(big_n)
    i_idx, j_idx = np.divmod(n_idx, g.n_v)
    moment = g.dv * p.q * g.v_coords() / p.eps0
    current = (big_n + i_idx, n_idx, moment[j_idx])
    damping = np.append(-np.tile(p.nu_values(g), g.n_x), np.zeros(g.n_x))
    f1b = _csr(_streaming_terms(g.n_x, g.n_v, _stream_coeff(g)) + [current], (d, d))
    f1 = sparse.diags_array(damping, format="csr") + f1b
    return AmpereLinear(f1=f1, d=d)


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

    One sparse product of the cached ``ode.rate`` G with (u, 1) gives
    f1a u + streaming + f0, the velocity difference of f = u reshaped to
    (n_x, n_v), and the n_x charge increments, whose running sum is
    f2_pref times each line's accumulated charge plus its background
    field coefficient; each line's difference, scaled by it, is added to
    the linear rows.  Neither the d^2 tensor square nor the assembled F1
    or F2 is formed.  This is the public path and the oracle of the
    reference's stages, which apply G as ``ode.stage_operator`` holds
    it.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ode.d,):
        raise ValueError(f"state shape {u.shape} != ({ode.d},)")
    d = ode.d
    lin = ode.rate @ np.append(u, 1.0)
    out, quad = lin[:d], lin[d : 2 * d].reshape(-1, ode.grid.n_v)
    quad *= np.add.accumulate(lin[2 * d :])[:, None]
    out += quad.reshape(-1)
    return out


# Largest bilinear stage tensor, in d (d+1)^2 entries, that the stages
# apply dense (d <= 24): below it the two BLAS products beat the bound
# CSR kernel, the running charge sum, the line scaling and the add.  The
# whole RK4 step, bilinear against CSR, medians of 15 runs of 500 steps
# on one BLAS thread, two to three ladders on a noisy 2-core Xeon, in us:
# 4x4 (4,624 entries) 8.9-15.3 against 15.6-27.9, 3x6 (6,498) 10.1-11.8
# against 15.6-19.1, 5x4 (8,820) 13.2-17.4 against 17.1-25.5, 11x2
# (11,638) 17.9-20.7 against 20.1-25.3, 4x6 (15,000) 15.9-23.3 against
# 15.4-27.0, 13x2 (18,954) 19.1-21.5 against 15.7-17.3, 7x4 (23,548)
# 20.8-23.4 against 15.1-19.4, 5x6 (28,830) 25.7-26.6 against 15.1-16.5.
# The two tie at d = 24; from d = 26 on the CSR stage wins.
_DENSE_RATE_LIMIT = 15_000
