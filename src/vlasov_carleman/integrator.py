"""Truncated-Taylor evolution of the embedded linear system, run either
as explicit stepping or through a single block-structured linear solve.

The stepping form advances y_{l+1} = T_k(A tau) y_l + S_k(A tau) tau b
with the degree-k Taylor polynomials

    T_k(w) = sum_{j=0}^{k} w^j / j!,
    S_k(w) = sum_{j=1}^{k} w^{j-1} / j!,

as running terms: term 0 is y_l, term 1 is tau (A y_l + b) and term j
is (A tau / j) times term j-1.  The linear-solve form encodes the same
recurrence as one system L y = psi over three registers (time step,
Taylor degree, state), as in Berry, Childs, Ostrander and Wang: psi puts
y_0 at degree 0 of slot 0 and tau b at degree 1 of each stepping slot,
degree j+1 holds (A tau / (j+1)) times degree j, and the sum over
degrees is degree 0 of the next slot.  p extra identity steps pad the
final state so a norm-biased solver (or sampler) would favor the answer.
L is unit lower triangular, so its forward fill is the stepping itself:
each stepping slot's registers are one step's terms, and both routes run
_taylor_step.  L joins slot i only to slots i and i-1, so the solve
holds two slots and takes the residual of L slot by slot, while
nnz_budget still bounds the register count, which is also L's row
count.  L is assembled only when something reads it.
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
from .qode import _csr_product

__all__ = [
    "EvolveResult",
    "evolve_iterative",
    "LinearEncoding",
    "build_linear_encoding",
    "solve_encoding",
    "extract_solution",
]


def _taylor_step(
    a, tau: float, y: np.ndarray, b: np.ndarray, terms: np.ndarray
) -> np.ndarray:
    """T_k(a tau) y + S_k(a tau) tau b in k products with the CSR a, for
    the (k+1, dim) buffer terms: term 0 is y, term 1 is tau (a y + b),
    and term j is (a tau / j) times term j-1.  Each product is written
    into its term's row by ``_csr_product``, bit-identical to ``a @``.
    The terms are summed in order."""
    terms[0] = y
    _csr_product(a, y, terms[1])
    terms[1] += b
    terms[1] *= tau
    for j in range(2, len(terms)):
        _csr_product(a, terms[j - 1], terms[j])
        terms[j] *= tau / j
    return terms.sum(axis=0)


def _checked_state(system: CarlemanSystem, z0, plan: TruncationPlan) -> np.ndarray:
    """z0 as a float state of the embedding's size, for a plan of degree
    k >= 1; both routes check these before they allocate anything."""
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state shape {z0.shape} != ({system.dim},)")
    if plan.k < 1:
        raise ValueError("taylor degree k must be >= 1")
    return z0


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
    z0 = _checked_state(system, z0, plan)
    if plan.norm_a_is_bound and plan.tau * plan.norm_a > 1.0 + 1e-12:
        warnings.warn(
            f"tau*||A|| = {plan.tau * plan.norm_a:.3g} > 1: Taylor step outside "
            "the guaranteed-convergence region",
            RuntimeWarning,
            stacklevel=2,
        )
    y = z0.copy()
    blocks = [y.copy()] if store_trajectory else None
    terms = np.empty((plan.k + 1, system.dim))
    for _ in range(plan.m):
        y = _taylor_step(system.a, plan.tau, y, system.b, terms)
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
    record holds the embedded a and b, the initial state z0 and the
    register sizes; psi is z0 at register (0, 0) and tau b at (i, 1) for
    i < m, and normalizer is its norm.  L = I - N is assembled on first
    read of l, which no solve does.
    """

    a: sparse.csr_array
    b: np.ndarray
    z0: np.ndarray
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
    """The one-shot system over the embedded A, b and initial state z0.

    In each stepping slot i < m, N sends degree j to degree j+1 through
    A tau / (j+1), so degree j holds (A tau)^j / j! y_i plus the source
    term (A tau)^{j-1} / j! tau b that psi places at degree 1; the sum
    over degrees, T_k y_i + S_k tau b, is one Taylor step and N shifts it
    to degree 0 of slot i+1.  Padding slots m..m+p-1 copy degree 0
    forward.  The registers are L's rows, so their count is checked
    against nnz_budget.
    """
    z0 = _checked_state(system, z0, plan)
    m, p, k, tau = plan.m, plan.p, plan.k, plan.tau
    total = (m + p + 1) * (k + 1) * system.dim
    if total > nnz_budget:
        raise ValueError(f"encoding registers {total} exceed budget {nnz_budget}")
    normalizer = math.sqrt(
        float(np.dot(z0, z0)) + m * tau**2 * float(np.dot(system.b, system.b))
    )
    if normalizer == 0.0:
        raise ValueError("zero initial data and source: nothing to solve")
    return LinearEncoding(
        a=system.a, b=system.b, z0=z0, normalizer=normalizer,
        m=m, p=p, k=k, tau=tau, d=system.d,
    )


# relative residual ||L y - psi|| / ||psi|| an exact fill must meet
_RESIDUAL_GATE = 1.0e-13


def _apply_l(
    enc: LinearEncoding, i: int, prev: np.ndarray, cur: np.ndarray
) -> np.ndarray:
    """Slot i's rows of L y from its (k+1, dim) registers cur and slot
    i-1's prev (unread for i = 0), written apart from the fill: one
    product of A with the slot's k stacked ladder registers, then the
    gather or the padding copy."""
    out = cur.copy()
    if i < enc.m:
        ladder = (enc.a @ cur[:-1].T).T
        out[1:] -= ladder * (enc.tau / np.arange(1, enc.k + 1))[:, None]
    if 0 < i <= enc.m:
        out[0] -= prev.sum(axis=0)
    elif i > enc.m:
        out[0] -= prev[0]
    return out


def solve_encoding(enc: LinearEncoding, method: str = "direct") -> EvolveResult:
    """Solve L y = psi by forward substitution, two slots at a time, and
    unpack the per-step states.

    L is unit lower triangular, so its forward fill is the stepping:
    stepping slot i holds _taylor_step's terms on y_i, whose sum is
    y_{i+1}; slot m holds y_m at degree 0, and each padding slot copies
    degree 0 forward.  Every other register is zero.  L itself is never
    assembled; "direct" is the only method.  The relative residual
    ||L y - psi|| / ||psi||, summed slot by slot from an apply of L
    written apart from the fill, must stay under _RESIDUAL_GATE.  Block
    (i, 0) is y_i, and the p padding blocks must equal y_m.
    """
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    m, source = enc.m, enc.tau * enc.b
    prev, cur = np.empty((2, enc.k + 1, enc.dim))
    y_blocks = [enc.z0.copy()]
    pad_dev, squares = 0.0, 0.0
    for i in range(enc.time_dim):
        if i < m:
            y_blocks.append(_taylor_step(enc.a, enc.tau, y_blocks[i], enc.b, cur))
        else:
            cur[0] = y_blocks[m] if i == m else prev[0]
            cur[1:] = 0.0
        r = _apply_l(enc, i, prev, cur)
        if i == 0:
            r[0] -= enc.z0
        if i < m:
            r[1] -= source
        squares += float(np.vdot(r, r))
        if i > m:
            pad_dev = max(pad_dev, float(np.linalg.norm(cur[0] - y_blocks[m])))
        prev, cur = cur, prev
    resid = math.sqrt(squares) / enc.normalizer
    if resid > _RESIDUAL_GATE:
        raise RuntimeError(
            f"solve residual {resid:.3e} above tolerance {_RESIDUAL_GATE:.1e}"
        )
    y_m = y_blocks[m]
    pad_dev /= max(float(np.linalg.norm(y_m)), 1e-300)
    return EvolveResult(
        y_final=y_m.copy(),
        m=m,
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
