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
sampler) would favor the answer.  L is unit lower triangular, and N
joins each (slot, degree) block of states only to earlier blocks, so
forward substitution one block at a time solves it exactly; solving L
and stepping must agree to round-off, which is the emulation's core
consistency check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .analysis import TruncationPlan
from .carleman import CarlemanSystem
from .grid import GridSpec
from .qode import _index_dtype

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
    s_acc = np.zeros_like(v)
    return _taylor_terms(a, tau, v, k, s_acc), s_acc


def _taylor_terms(a, tau: float, v: np.ndarray, k: int, s_acc=None) -> np.ndarray:
    """T_k(a tau) v by the running-term recurrence; when s_acc is given,
    S_k(a tau) v is accumulated into it from the same terms."""
    p = v
    t_acc = v.copy()
    for j in range(1, k + 1):
        if s_acc is not None:
            s_acc += p / j
        p = (a @ p) * (tau / j)
        t_acc += p
    return t_acc


@dataclass
class EvolveResult:
    """Outcome of an embedded-system evolution.

    y_blocks holds y_0..y_m when trajectory storage is on (always for
    the encoding route, which produces them anyway).  diagnostics
    carries the encoding route's residual and padding deviation, the
    largest relative distance of the p padded copies from y_m.
    """

    y_final: np.ndarray
    m: int
    k: int
    tau: float
    d: int
    method: str
    y_blocks: list[np.ndarray] | None = None
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
    and computed once; the steps form only T_k(A tau) y.  Stores the
    full trajectory unless switched off.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state shape {z0.shape} != ({system.dim},)")
    norm_hint = plan.norm_a if plan.norm_a_is_bound else None
    _, s_b = taylor_apply(system.a, plan.tau, system.b, plan.k, norm_a=norm_hint)
    source = plan.tau * s_b
    y = z0.copy()
    blocks = [y.copy()] if store_trajectory else None
    for _ in range(plan.m):
        y = _taylor_terms(system.a, plan.tau, y, plan.k) + source
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


def _unit_lower_encoding(
    a: sparse.csr_array, tau: float, m: int, p: int, k: int
) -> sparse.csr_array:
    """L = I - N written directly as CSR, row by row in register order.

    Row (i, j, s) holds, in column order, the entries of N and then its
    diagonal 1: for i < m and j >= 1 the row s of -(A tau) / j against
    degree j-1; for 1 <= i <= m and j = 0 a -1 against every degree of
    slot i-1 (the gather); for i > m and j = 0 a -1 against degree 0 of
    slot i-1 (the padding copy).  The row pointer follows from A's row
    lengths, so nothing larger than L itself is staged.
    """
    dim = a.shape[0]
    kk = k + 1
    a_len = np.diff(a.indptr)
    row_nnz = np.ones((m + p + 1, kk, dim), dtype=np.int64)
    row_nnz[:m, 1:] += a_len
    row_nnz[1 : m + 1, 0] += kk
    row_nnz[m + 1 :, 0] += 1
    total = row_nnz.size
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(row_nnz.reshape(-1), out=indptr[1:])
    idx = _index_dtype(max(total, int(indptr[-1])))
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    diag = indptr[1:] - 1
    indices[diag] = np.arange(total, dtype=idx)
    data[diag] = 1.0

    # one template for every stepping block: A's entries of row s sit
    # after s diagonals of the rows above
    a_pos = np.arange(a.nnz) + np.repeat(np.arange(dim), a_len)
    a_tau = a.data * tau
    degrees = np.arange(1, kk)
    for i in range(m):
        rows = (i * kk + degrees) * dim  # first row of each block (i, j)
        pos = indptr[rows][:, None] + a_pos
        indices[pos] = (rows - dim).astype(idx)[:, None] + a.indices
        data[pos] = a_tau * -(1.0 / degrees)[:, None]
    # the gather rows of slots 1..m and the copy rows of the padding slots
    s = np.arange(dim)
    rows = (np.arange(1, m + 1)[:, None] * kk * dim + s).reshape(-1)
    pos = indptr[rows][:, None] + np.arange(kk)
    indices[pos] = (rows - kk * dim)[:, None] + np.arange(kk) * dim
    data[pos] = -1.0
    rows = (np.arange(m + 1, m + p + 1)[:, None] * kk * dim + s).reshape(-1)
    indices[indptr[rows]] = rows - kk * dim
    data[indptr[rows]] = -1.0
    return sparse.csr_array((data, indices, indptr.astype(idx)), shape=(total, total))


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
    l_mat = _unit_lower_encoding(system.a, tau, m, p, k)

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


# relative residual ||L y - psi|| / ||psi|| an exact substitution must meet
_RESIDUAL_GATE = 1.0e-13


def _block_substitution(enc: LinearEncoding) -> np.ndarray:
    """y with L y = psi_in, one (slot, degree) block of dim rows at a time.

    Every row of L stores its diagonal, so no row is empty and each row's
    sum is one reduceat segment of the block's stored entries.
    """
    indptr, indices, data = enc.l.indptr, enc.l.indices, enc.l.data
    y = np.zeros(enc.total_dim)
    for r0 in range(0, enc.total_dim, enc.dim):
        r1 = r0 + enc.dim
        s, e = indptr[r0], indptr[r1]
        y[r0:r1] = enc.psi_in[r0:r1] - np.add.reduceat(
            data[s:e] * y.take(indices[s:e]), indptr[r0:r1] - s
        )
    return y


def solve_encoding(enc: LinearEncoding, method: str = "direct") -> EvolveResult:
    """Solve L y = psi_in and unpack the per-step states.

    The solve is block forward substitution over the (slot, degree)
    blocks of dim rows, in register order, reading L's CSR arrays and
    never writing them.  N joins each block only to earlier blocks, so
    block b of the solution is psi_b minus the rows of block b applied
    to y while y_b is still zero: the unit diagonal meets that zero and
    adds nothing, and the substitution is exact.  "direct" is the only
    method.  The relative residual must stay under _RESIDUAL_GATE.  The
    solution is multiplied back by the input normalizer so blocks are in
    physical scale; block (i, 0) is y_i, and the p padding blocks must
    equal y_m.
    """
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    y = _block_substitution(enc)
    resid = float(
        np.linalg.norm(enc.l @ y - enc.psi_in) / np.linalg.norm(enc.psi_in)
    )
    if resid > _RESIDUAL_GATE:
        raise RuntimeError(
            f"solve residual {resid:.3e} above tolerance {_RESIDUAL_GATE:.1e}"
        )
    y = y * enc.normalizer
    kk = enc.k + 1
    cube = y.reshape(enc.time_dim, kk, enc.dim)
    y_blocks = [cube[i, 0, :].copy() for i in range(enc.m + 1)]
    pad_dev = 0.0
    y_m = y_blocks[-1]
    scale = max(float(np.linalg.norm(y_m)), 1e-300)
    for block in cube[enc.m + 1 :, 0, :]:
        pad_dev = max(pad_dev, float(np.linalg.norm(block - y_m)) / scale)
    return EvolveResult(
        y_final=y_m.copy(),
        m=enc.m,
        k=enc.k,
        tau=enc.tau,
        d=enc.d,
        method="linear_encoding",
        y_blocks=y_blocks,
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
