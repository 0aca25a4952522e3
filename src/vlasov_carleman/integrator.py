"""Truncated-Taylor evolution of the embedded linear system, run either
as explicit stepping or through a single block-structured linear solve.

The stepping form advances y_{l+1} = T_k(A tau) y_l + S_k(A tau) tau b
with the degree-k Taylor polynomials

    T_k(w) = sum_{j=0}^{k} w^j / j!,
    S_k(w) = sum_{j=1}^{k} w^{j-1} / j!,

as running terms: term 1 is tau (A y_l + b) and term j is (A tau / j)
times term j-1.  The linear-solve form encodes the same recurrence as
one system L y = psi over three registers (time step, Taylor degree,
state), as in Berry, Childs, Ostrander and Wang: psi puts tau b at
degree 1 of each stepping slot, degree j+1 holds (A tau / (j+1)) times
degree j, and the sum over degrees is degree 0 of the next slot.  p
extra identity steps pad the final state so a norm-biased solver (or
sampler) would favor the answer.  L is unit lower triangular, and N
joins each (slot, degree) register only to earlier ones, so filling the
registers in order through A solves it exactly; L is assembled only
when something reads it.

Caution: the fill takes degree 1 as tau A y_i + tau b on the normalized
psi, so its agreeing with the stepping to round-off
(stepping_vs_encoding_rel) checks the fill, not L, which CLI runs never
build.  L is checked in tests/ against the fill and against the apply
that takes the residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .analysis import TruncationPlan
from .carleman import CarlemanSystem
from .grid import GridSpec

__all__ = [
    "EvolveResult",
    "evolve_iterative",
    "LinearEncoding",
    "build_linear_encoding",
    "solve_encoding",
    "extract_solution",
]


def _taylor_step(a, tau: float, y: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """T_k(a tau) y + S_k(a tau) tau b in k products with a: term 1 is
    tau (a y + b), and term j is (a tau / j) times term j-1."""
    p = (a @ y + b) * tau
    out = y + p
    for j in range(2, k + 1):
        p = a @ p
        p *= tau / j
        out += p
    return out


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

    The source enters each step through its first term, tau (A y + b),
    so the march takes m k products with A.  Stores the full trajectory
    unless switched off.  Warns when tau ||A|| > 1 on a plan whose
    norm_a is the bound (the error analysis assumes substeps inside the
    unit ball, but the bound is sufficient, not necessary); a planned
    step has tau norm_a <= 1, so only a hand-built plan can.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state shape {z0.shape} != ({system.dim},)")
    if plan.k < 1:
        raise ValueError("taylor degree k must be >= 1")
    if plan.norm_a_is_bound and plan.tau * plan.norm_a > 1.0 + 1e-12:
        warnings.warn(
            f"tau*||A|| = {plan.tau * plan.norm_a:.3g} > 1: Taylor step outside "
            "the guaranteed-convergence region",
            RuntimeWarning,
            stacklevel=2,
        )
    y = z0.copy()
    blocks = [y.copy()] if store_trajectory else None
    for _ in range(plan.m):
        y = _taylor_step(system.a, plan.tau, y, system.b, plan.k)
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


@dataclass(frozen=True, eq=False)
class LinearEncoding:
    """One-shot linear system reproducing the Taylor stepping.

    Registers: time i = 0..m+p (stepping for i < m, padding after),
    Taylor degree j = 0..k, state of the embedding's emulated size dim;
    total dimension (m+p+1) (k+1) dim, in that (row-major) order.  The
    record holds only the embedded matrix a and the register sizes;
    psi_in is the normalized right-hand side, and normalizer restores
    physical scale after the solve.  L = I - N is assembled on first
    read of l, which no solve does.
    """

    a: sparse.csr_array
    psi_in: np.ndarray
    normalizer: float
    m: int
    p: int
    k: int
    tau: float
    d: int

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def time_dim(self) -> int:
        return self.m + self.p + 1

    @property
    def total_dim(self) -> int:
        return self.time_dim * (self.k + 1) * self.dim

    @cached_property
    def l(self) -> sparse.csr_array:
        """L = I - N from Kronecker products over (time, degree, state):
        the degree ladder A tau / j in the stepping slots, the gather of
        every degree into degree 0 of the next slot, and the padding
        copies."""
        m, p, kk, time_dim = self.m, self.p, self.k + 1, self.time_dim
        step, pad, deg = np.arange(m), np.arange(m, m + p), np.arange(kk)
        ladder = sparse.diags_array(1.0 / deg[1:], offsets=-1, shape=(kk, kk))
        gather = _ones(np.zeros(kk, dtype=int), deg, kk)
        shifts = sparse.kron(_ones(step + 1, step, time_dim), gather) + sparse.kron(
            _ones(pad + 1, pad, time_dim), _ones([0], [0], kk)
        )
        stepping = sparse.kron(_ones(step, step, time_dim), ladder)
        n_op = sparse.kron(stepping, self.a * self.tau)
        n_op = n_op + sparse.kron(shifts, sparse.identity(self.dim))
        return sparse.csr_array(sparse.identity(self.total_dim, format="csr") - n_op)


def _ones(rows, cols, n: int) -> sparse.coo_array:
    """n x n with ones at (rows, cols)."""
    return sparse.coo_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def build_linear_encoding(
    system: CarlemanSystem,
    z0: np.ndarray,
    plan: TruncationPlan,
    nnz_budget: int = 1_000_000,
) -> LinearEncoding:
    """The registers of the one-shot solve: psi_in over the embedded A.

    In each stepping slot i < m, N sends degree j to degree j+1 through
    A tau / (j+1), so degree j holds (A tau)^j / j! y_i plus the source
    term (A tau)^{j-1} / j! tau b that psi places at degree 1; the sum
    over degrees, T_k y_i + S_k tau b, is one Taylor step and N shifts it
    to degree 0 of slot i+1.  Padding slots m..m+p-1 copy degree 0
    forward.  The registers are what the encoding stores, so their row
    count is checked against nnz_budget before anything is allocated.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state shape {z0.shape} != ({system.dim},)")
    m, p, k, tau = plan.m, plan.p, plan.k, plan.tau
    total = (m + p + 1) * (k + 1) * system.dim
    if total > nnz_budget:
        raise ValueError(f"encoding registers {total} exceed budget {nnz_budget}")

    psi = np.zeros((m + p + 1, k + 1, system.dim))
    psi[0, 0] = z0
    psi[:m, 1] = tau * system.b
    normalizer = math.sqrt(
        float(np.dot(z0, z0)) + m * tau**2 * float(np.dot(system.b, system.b))
    )
    if normalizer == 0.0:
        raise ValueError("zero initial data and source: nothing to solve")
    psi /= normalizer
    return LinearEncoding(
        a=system.a, psi_in=psi.reshape(-1), normalizer=normalizer,
        m=m, p=p, k=k, tau=tau, d=system.d,
    )


# relative residual ||L y - psi|| / ||psi|| an exact fill must meet
_RESIDUAL_GATE = 1.0e-13


def _fill_registers(enc: LinearEncoding) -> np.ndarray:
    """y with L y = psi_in, filled (slot, degree) in order through A.

    y[i, j] = psi[i, j] + (A tau / j) y[i, j-1] in the stepping slots;
    degree 0 of slots 1..m gathers every degree of the slot before; each
    padding slot copies degree 0 forward.  Every other register holds
    its psi.
    """
    m, kk = enc.m, enc.k + 1
    y = enc.psi_in.reshape(enc.time_dim, kk, enc.dim).copy()
    for i in range(m):
        for j in range(1, kk):
            y[i, j] += (enc.a @ y[i, j - 1]) * (enc.tau / j)
        y[i + 1, 0] += y[i].sum(axis=0)
    for i in range(m + 1, enc.time_dim):
        y[i, 0] += y[i - 1, 0]
    return y.reshape(-1)


def _apply_l(enc: LinearEncoding, y: np.ndarray) -> np.ndarray:
    """L y from the registers, written apart from the fill: one product
    of A with the m k stacked ladder blocks, then the gathers and the
    padding copies."""
    m, k = enc.m, enc.k
    cube = y.reshape(enc.time_dim, k + 1, enc.dim)
    out = cube.copy()
    ladder = (enc.a @ cube[:m, :k].reshape(m * k, enc.dim).T).T
    out[:m, 1:] -= ladder.reshape(m, k, enc.dim) * (enc.tau / np.arange(1, k + 1))[:, None]
    out[1 : m + 1, 0] -= cube[:m].sum(axis=1)
    out[m + 1 :, 0] -= cube[m:-1, 0]
    return out.reshape(-1)


def solve_encoding(enc: LinearEncoding, method: str = "direct") -> EvolveResult:
    """Solve L y = psi_in by the register fill and unpack the per-step
    states.

    N joins each (slot, degree) register only to earlier ones, so
    filling them in order through A solves L exactly, and L itself is
    never assembled.  "direct" is the only method.  The relative
    residual, taken by an apply of L written apart from the fill, must
    stay under _RESIDUAL_GATE.  The solution is multiplied back by the
    input normalizer so blocks are in physical scale; block (i, 0) is
    y_i, and the p padding blocks must equal y_m.
    """
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    y = _fill_registers(enc)
    r = _apply_l(enc, y)
    r -= enc.psi_in
    resid = float(np.linalg.norm(r) / np.linalg.norm(enc.psi_in))
    if resid > _RESIDUAL_GATE:
        raise RuntimeError(
            f"solve residual {resid:.3e} above tolerance {_RESIDUAL_GATE:.1e}"
        )
    y *= enc.normalizer
    cube = y.reshape(enc.time_dim, enc.k + 1, enc.dim)
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
