"""Embedding of the quadratic ODE into a truncated linear system.

The quadratic ODE du/dt = F2 (u(x)u) + F1 u + F0 becomes exactly linear
on the sequence of tensor powers z_l = u^((x)l).  Truncating at level
N_C gives the block-tridiagonal system

    dz/dt = A z + b,   z = (z_1, ..., z_{N_C}),

where level l couples to l+1 through F2, to itself through F1, and to
l-1 through F0 (acting as a d-by-1 column), each lifted by the Kronecker
sum over the l slot positions.  The embedded dimension is
d_A = d + d^2 + ... + d^{N_C}, which explodes quickly: everything here
is assembled sparsely, with identity factors entering only through
sparse Kronecker products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .analysis import embedding_dimension
from .qode import QuadraticODE

__all__ = [
    "CarlemanSystem",
    "kron_sum_lift",
    "build_carleman",
    "build_z0",
    "first_block_rate",
]


@dataclass
class CarlemanSystem:
    """Truncated linear system dz/dt = a z + b on stacked tensor powers.

    offsets[l-1] is the 0-based start of level l in the stacked vector;
    offsets[n_c] is d_a.  Constructible directly for synthetic linear
    systems (n_c=1, d=d_a) in tests and tooling.
    """

    a: sparse.csr_array
    b: np.ndarray
    n_c: int
    d: int
    d_a: int
    offsets: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.a.shape != (self.d_a, self.d_a):
            raise ValueError(f"a shape {self.a.shape} != ({self.d_a}, {self.d_a})")
        if self.b.shape != (self.d_a,):
            raise ValueError(f"b shape {self.b.shape} != ({self.d_a},)")
        if not self.offsets:
            self.offsets = _level_offsets(self.d, self.n_c)
        if self.offsets[-1] != self.d_a:
            raise ValueError("offsets do not add up to d_a")

    def level_slice(self, z: np.ndarray, level: int) -> np.ndarray:
        """View of level l (1-based) inside a stacked vector."""
        if not 1 <= level <= self.n_c:
            raise ValueError(f"level {level} out of range 1..{self.n_c}")
        return z[self.offsets[level - 1] : self.offsets[level]]


def _level_offsets(d: int, n_c: int) -> list[int]:
    offs = [0]
    for level in range(1, n_c + 1):
        offs.append(offs[-1] + d**level)
    return offs


def kron_sum_lift(mat, level: int, d: int) -> sparse.csr_array:
    """Kronecker-sum lift of a block operator to tensor-power level l.

    sum_{pos=1}^{l} I_{d^(pos-1)} (x) mat (x) I_{d^(l-pos)} with sparse
    identities.  mat must have d rows; its column count q fixes the
    domain level: the result is (d^l, q * d^(l-1)), so q=d maps level l
    to itself, q=d^2 maps from level l+1, and q=1 maps from level l-1.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    m = sparse.csr_array(mat)
    if m.shape[0] != d:
        raise ValueError(f"operator must have {d} rows, got {m.shape[0]}")
    out = None
    for pos in range(1, level + 1):
        term = m
        left = d ** (pos - 1)
        right = d ** (level - pos)
        if left > 1:
            term = sparse.kron(sparse.identity(left, format="csr"), term)
        if right > 1:
            term = sparse.kron(term, sparse.identity(right, format="csr"))
        out = term if out is None else out + term
    out = sparse.csr_array(out)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def estimate_nnz(ode_bar: QuadraticODE, n_c: int) -> int:
    """Upper estimate of the embedded matrix's stored entries."""
    d = ode_bar.d
    nnz_f1 = ode_bar.f1.nnz
    nnz_f2 = ode_bar.f2.nnz
    nnz_f0 = int(np.count_nonzero(ode_bar.f0))
    total = 0
    for level in range(1, n_c + 1):
        per_term = d ** (level - 1)
        total += level * per_term * nnz_f1
        if level < n_c:
            total += level * per_term * nnz_f2
        if level > 1:
            total += level * per_term * nnz_f0
    return total


def build_carleman(
    ode_bar: QuadraticODE, n_c: int, nnz_budget: int = 1_000_000
) -> CarlemanSystem:
    """Assemble the truncated embedding of a (rescaled) quadratic ODE.

    Raises if the embedded dimension or the entry estimate exceeds
    nnz_budget; the caller is expected to have rescaled the system
    first (the builder itself is scale-agnostic).
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    d = ode_bar.d
    d_a = embedding_dimension(d, n_c)
    est = estimate_nnz(ode_bar, n_c)
    if d_a > nnz_budget or est > nnz_budget:
        raise ValueError(
            f"embedding budget exceeded: d_A={d_a}, estimated nnz={est}, "
            f"budget={nnz_budget}"
        )
    f0_col = sparse.csr_array(ode_bar.f0.reshape(d, 1))
    grid = [[None] * n_c for _ in range(n_c)]
    for level in range(1, n_c + 1):
        row = level - 1
        grid[row][row] = kron_sum_lift(ode_bar.f1, level, d)
        if level < n_c:
            grid[row][row + 1] = kron_sum_lift(ode_bar.f2, level, d)
        if level > 1:
            grid[row][row - 1] = kron_sum_lift(f0_col, level, d)
    a = sparse.csr_array(sparse.bmat(grid, format="csr"))
    a.sum_duplicates()
    a.eliminate_zeros()
    b = np.zeros(d_a)
    b[:d] = ode_bar.f0
    return CarlemanSystem(a=a, b=b, n_c=n_c, d=d, d_a=d_a)


def build_z0(u_bar: np.ndarray, n_c: int) -> np.ndarray:
    """Stack the tensor powers u, u(x)u, ..., u^((x)N_C) of a state."""
    u_bar = np.asarray(u_bar, dtype=float)
    if u_bar.ndim != 1:
        raise ValueError("state must be a flat vector")
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    total = embedding_dimension(u_bar.shape[0], n_c)
    if total > 50_000_000:
        raise ValueError(f"stacked state of size {total} exceeds budget")
    parts = [u_bar]
    for _ in range(2, n_c + 1):
        parts.append(np.kron(parts[-1], u_bar))
    return np.concatenate(parts)


def first_block_rate(system: CarlemanSystem, z: np.ndarray) -> np.ndarray:
    """First-level block of A z + b, the embedded rate of the base state."""
    rate = system.a @ z + system.b
    return rate[: system.d]
