"""Truncated-Taylor evolution of the embedded linear system, run either
as explicit stepping or through a single block-structured linear solve.

The stepping form advances y_{l+1} = T_k(A tau) y_l + S_k(A tau) tau b
with the degree-k Taylor polynomials

    T_k(w) = sum_{j=0}^{k} w^j / j!,
    S_k(w) = sum_{j=1}^{k} w^{j-1} / j!.

The linear-solve form encodes the same recurrence as one system
L y = psi over three registers (time step, Taylor degree, state), as in
Berry, Childs, Ostrander and Wang: within a stepping slot, degree j+1
holds (A tau / (j+1)) times degree j, so the degrees carry the terms of
T_k y_i and S_k tau b, and their sum is degree 0 of the next slot.  p
extra identity steps pad the final state so a norm-biased solver (or
sampler) would favor the answer.  L is unit lower triangular, so forward
substitution solves it exactly; solving L and stepping must agree to
round-off, which is the emulation's core consistency check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import gmres, spsolve_triangular

from .analysis import TruncationPlan
from .carleman import CarlemanSystem
from .grid import GridSpec

__all__ = [
    "taylor_apply",
    "EvolveResult",
    "evolve_iterative",
    "LinearEncoding",
    "build_linear_encoding",
    "solve_encoding",
    "extract_solution",
]


def taylor_apply(
    a, tau: float, v: np.ndarray, k: int, norm_a: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the degree-k Taylor polynomials of (a*tau) to v.

    Returns (T_k(a tau) v, S_k(a tau) v) using the running-term
    recurrence p_j = (a tau) p_{j-1} / j, so the cost is k matvecs and
    no matrix powers.  If norm_a is given and tau*norm_a > 1 a warning
    is emitted (the error analysis assumes substeps inside the unit
    ball, but the bound is sufficient, not necessary).
    """
    if k < 1:
        raise ValueError("taylor degree k must be >= 1")
    if norm_a is not None and tau * norm_a > 1.0 + 1e-12:
        warnings.warn(
            f"tau*||A|| = {tau * norm_a:.3g} > 1: Taylor step outside the "
            "guaranteed-convergence region",
            RuntimeWarning,
            stacklevel=2,
        )
    v = np.asarray(v, dtype=float)
    p = v.copy()
    t_acc = v.copy()
    s_acc = np.zeros_like(v)
    for j in range(1, k + 1):
        s_acc += p / j
        p = (a @ p) * (tau / j)
        t_acc += p
    return t_acc, s_acc


@dataclass
class EvolveResult:
    """Outcome of an embedded-system evolution.

    y_blocks holds y_0..y_m when trajectory storage is on (always for
    the encoding route, which produces them anyway).  padding_blocks
    holds the p padded copies from the encoding route, all of which
    must equal y_m.  diagnostics carries route-specific scalars
    (residuals, padding deviation, negativity of the extracted state).
    """

    y_final: np.ndarray
    m: int
    k: int
    tau: float
    d: int
    method: str
    y_blocks: list[np.ndarray] | None = None
    step_norms: np.ndarray | None = None
    padding_blocks: list[np.ndarray] | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def y1m(self) -> np.ndarray:
        """First-level block of the final state (base-dimension slice)."""
        return self.y_final[: self.d]


def evolve_iterative(
    system: CarlemanSystem,
    z0: np.ndarray,
    plan: TruncationPlan,
    store_trajectory: bool = True,
) -> EvolveResult:
    """March the embedded system with m truncated-Taylor steps.

    The source contribution S_k(A tau) tau b is constant across steps
    and computed once.  Records per-step norms; stores the full
    trajectory unless switched off.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state shape {z0.shape} != ({system.dim},)")
    norm_hint = plan.norm_a if plan.norm_a_is_bound else None
    _, s_b = taylor_apply(system.a, plan.tau, system.b, plan.k, norm_a=norm_hint)
    source = plan.tau * s_b
    y = z0.copy()
    blocks = [y.copy()] if store_trajectory else None
    norms = [float(np.linalg.norm(y))]
    for _ in range(plan.m):
        t_y, _ = taylor_apply(system.a, plan.tau, y, plan.k)
        y = t_y + source
        norms.append(float(np.linalg.norm(y)))
        if store_trajectory:
            blocks.append(y.copy())
    return EvolveResult(
        y_final=y,
        m=plan.m,
        k=plan.k,
        tau=plan.tau,
        d=system.d,
        method="taylor_stepping",
        y_blocks=blocks,
        step_norms=np.array(norms),
    )


# ----------------------------------------------------------------------
# linear-system encoding


@dataclass
class LinearEncoding:
    """One-shot linear system reproducing the Taylor stepping.

    Registers: time i = 0..m+p (stepping for i < m, padding after),
    Taylor degree j = 0..k, state of the embedding's emulated size dim;
    total dimension (m+p+1) (k+1) dim, in that (row-major) order.  l is
    I - N with N strictly lower triangular; psi_in is the normalized
    right-hand side; normalizer restores physical scale after the solve.
    """

    l: sparse.csr_array
    psi_in: np.ndarray
    normalizer: float
    m: int
    p: int
    k: int
    tau: float
    dim: int
    d: int
    total_dim: int

    @property
    def time_dim(self) -> int:
        return self.m + self.p + 1

    @property
    def taylor_dim(self) -> int:
        return self.k + 1


def _time_shift(time_dim: int, slots: range) -> sparse.coo_array:
    """|i+1><i| summed over the given time slots."""
    cols = np.arange(slots.start, slots.stop)
    return sparse.coo_array(
        (np.ones(cols.size), (cols + 1, cols)), shape=(time_dim, time_dim)
    )


def build_linear_encoding(
    system: CarlemanSystem,
    z0: np.ndarray,
    plan: TruncationPlan,
    nnz_budget: int = 50_000_000,
) -> LinearEncoding:
    """Assemble L = I - N and psi_in for the one-shot solve.

    In each stepping slot i < m, N sends degree j to degree j+1 through
    A tau / (j+1), so degree j holds (A tau)^j / j! y_i plus the source
    term (A tau)^{j-1} / j! tau b that psi places at degree 1; the sum
    over degrees, T_k y_i + S_k tau b, is one Taylor step and N shifts it
    to degree 0 of slot i+1.  Padding slots m..m+p-1 copy degree 0
    forward.  N is strictly lower triangular, and the stored entries of
    L are known in closed form, so nnz_budget is checked before assembly.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state shape {z0.shape} != ({system.dim},)")
    m, p, k, tau = plan.m, plan.p, plan.k, plan.tau
    dim = system.dim
    kk = k + 1
    time_dim = m + p + 1
    total = time_dim * kk * dim
    nnz = total + m * (k * system.a.nnz + kk * dim) + p * dim
    if nnz > nnz_budget:
        raise ValueError(f"encoding nnz {nnz} exceeds budget {nnz_budget}")

    stepping = sparse.coo_array(
        (np.ones(m), (np.arange(m), np.arange(m))), shape=(time_dim, time_dim)
    )
    ladder = sparse.diags_array(1.0 / np.arange(1, kk), offsets=-1, shape=(kk, kk))
    gather = sparse.coo_array(
        (np.ones(kk), (np.zeros(kk, dtype=int), np.arange(kk))), shape=(kk, kk)
    )
    keep = sparse.coo_array(([1.0], ([0], [0])), shape=(kk, kk))
    shifts = sparse.kron(_time_shift(time_dim, range(m)), gather) + sparse.kron(
        _time_shift(time_dim, range(m, m + p)), keep
    )
    n_op = sparse.kron(sparse.kron(stepping, ladder), system.a * tau)
    n_op = n_op + sparse.kron(shifts, sparse.identity(dim))
    l_mat = sparse.csr_array(sparse.identity(total, format="csr") - n_op)

    psi = np.zeros(total)
    psi[0:dim] = z0  # time 0, degree 0
    hb = tau * system.b
    for i in range(m):
        off = (i * kk + 1) * dim  # time i, degree 1
        psi[off : off + dim] += hb
    normalizer = math.sqrt(
        float(np.dot(z0, z0)) + m * tau**2 * float(np.dot(system.b, system.b))
    )
    if normalizer == 0.0:
        raise ValueError("zero initial data and source: nothing to solve")
    psi /= normalizer

    return LinearEncoding(
        l=l_mat,
        psi_in=psi,
        normalizer=normalizer,
        m=m,
        p=p,
        k=k,
        tau=tau,
        dim=dim,
        d=system.d,
        total_dim=total,
    )


def solve_encoding(
    enc: LinearEncoding, method: str = "auto", rtol: float = 1.0e-14
) -> EvolveResult:
    """Solve L y = psi_in and unpack the per-step states.

    "auto" and "direct" solve by forward substitution, exact and without
    fill-in since L is unit lower triangular; "iterative" runs restarted
    GMRES to rtol.  The relative residual must meet rtol either way.
    The solution is multiplied back by the input normalizer so blocks
    are in physical scale; block (i, 0) is y_i, and the p padding blocks
    must equal y_m.
    """
    if method not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if method == "iterative":
        y, info = gmres(
            enc.l, enc.psi_in, rtol=rtol, atol=0.0, restart=50, maxiter=20_000
        )
        if info != 0:
            raise RuntimeError(f"iterative solve failed to converge (info={info})")
    else:
        y = spsolve_triangular(enc.l, enc.psi_in, lower=True, unit_diagonal=True)
    resid = float(
        np.linalg.norm(enc.l @ y - enc.psi_in) / np.linalg.norm(enc.psi_in)
    )
    if resid > 10.0 * rtol:
        raise RuntimeError(f"solve residual {resid:.3e} above tolerance {rtol:.1e}")
    y = y * enc.normalizer
    kk = enc.k + 1
    cube = y.reshape(enc.time_dim, kk, enc.dim)
    y_blocks = [cube[i, 0, :].copy() for i in range(enc.m + 1)]
    padding = [cube[i, 0, :].copy() for i in range(enc.m + 1, enc.time_dim)]
    pad_dev = 0.0
    y_m = y_blocks[-1]
    scale = max(float(np.linalg.norm(y_m)), 1e-300)
    for block in padding:
        pad_dev = max(pad_dev, float(np.linalg.norm(block - y_m)) / scale)
    return EvolveResult(
        y_final=y_m.copy(),
        m=enc.m,
        k=enc.k,
        tau=enc.tau,
        d=enc.d,
        method="linear_encoding",
        y_blocks=y_blocks,
        step_norms=np.array([float(np.linalg.norm(b)) for b in y_blocks]),
        padding_blocks=padding,
        diagnostics={"residual": resid, "padding_deviation": pad_dev},
    )


def extract_solution(
    result: EvolveResult, gamma: float, g: GridSpec
) -> tuple[np.ndarray, dict]:
    """Undo the rescaling and reshape the first block to the grid.

    Returns (f, info): f is gamma * y_m[:d] reshaped to (n_x, n_v)
    row-major; info flags negative entries (the embedding does not
    preserve positivity, so this is a diagnostic, not an error).
    """
    if result.d != g.n_points:
        raise ValueError(
            f"result base dimension {result.d} != grid size {g.n_points}"
        )
    flat = gamma * result.y1m
    f = flat.reshape(g.n_x, g.n_v)
    negatives = int(np.count_nonzero(f < 0.0))
    info = {
        "negative_entries": negatives,
        "min_value": float(f.min()),
        "max_value": float(f.max()),
    }
    return f, info
