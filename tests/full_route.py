"""The full Kronecker route, kept as the oracle of the symmetric embedding.

The paper's embedded matrix acts on the stacked tensor powers
(u, u(x)u, ..., u^((x)N_C)) of dimension d_A = d + ... + d^{N_C}.  The
library emulates it on the symmetric subspace; ``symmetric_basis`` is
that subspace's orthonormal basis P, built here independently of the
library (every tuple sorted and ranked in closed form), so the reduced
system must equal P^T A_full P, and its states P^T z_full.  The dense
exponential ``exact_linear_solution`` is the oracle of the stepping.
"""

import math

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from vlasov_carleman import CarlemanSystem

_DENSE_ORACLE_LIMIT = 2000


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


def full_carleman(ode, n_c: int) -> CarlemanSystem:
    """The paper's embedding on the full tensor powers, as a plain linear
    system of dimension d_A (n_c=1 in CarlemanSystem's terms), so the
    library's integrator can step it."""
    d = ode.d
    f0_col = sparse.csr_array(np.asarray(ode.f0).reshape(d, 1))
    grid = [[None] * n_c for _ in range(n_c)]
    for level in range(1, n_c + 1):
        row = level - 1
        grid[row][row] = kron_sum_lift(ode.f1, level, d)
        if level < n_c:
            grid[row][row + 1] = kron_sum_lift(ode.f2, level, d)
        if level > 1:
            grid[row][row - 1] = kron_sum_lift(f0_col, level, d)
    a = sparse.csr_array(sparse.bmat(grid, format="csr"))
    a.sum_duplicates()
    a.eliminate_zeros()
    d_a = a.shape[0]
    b = np.zeros(d_a)
    b[:d] = ode.f0
    return CarlemanSystem(a=a, b=b, n_c=1, d=d_a, d_a=d_a)


def kron_stack(u: np.ndarray, n_c: int) -> np.ndarray:
    """The stacked tensor powers u, u(x)u, ..., u^((x)N_C)."""
    parts = [np.asarray(u, dtype=float)]
    for _ in range(2, n_c + 1):
        parts.append(np.kron(parts[-1], u))
    return np.concatenate(parts)


def symmetric_level_basis(d: int, level: int) -> sparse.csr_array:
    """Orthonormal basis of the symmetric tensors at one level, (d^l, C(d+l-1, l)).

    Column alpha (a sorted multiset i_1 <= ... <= i_l, ranked
    sum_t C(i_t + t - 1, t)) is the normalized sum of the tensor slots
    whose sorted indices are alpha.
    """
    slots = np.indices((d,) * level).reshape(level, -1).T  # row-major = kron order
    ranks = sum(
        np.array([math.comb(int(i) + t, t + 1) for i in range(d)])[np.sort(slots, axis=1)[:, t]]
        for t in range(level)
    )
    orbit = np.bincount(ranks)
    return sparse.csr_array(
        (1.0 / np.sqrt(orbit[ranks]), (np.arange(d**level), ranks)),
        shape=(d**level, orbit.size),
    )


def symmetric_basis(d: int, n_c: int) -> sparse.csr_array:
    """Block-diagonal P over levels 1..N_C: (d_A, emulated dimension)."""
    blocks = [symmetric_level_basis(d, level) for level in range(1, n_c + 1)]
    return sparse.csr_array(sparse.block_diag(blocks, format="csr"))


def first_block_rate(system: CarlemanSystem, z: np.ndarray) -> np.ndarray:
    """First-level block of A z + b, the embedded rate of the base state."""
    rate = system.a @ z + system.b
    return rate[: system.d]


def exact_linear_solution(
    system: CarlemanSystem, z0: np.ndarray, t_final: float
) -> np.ndarray:
    """Dense oracle exp(A T) z0 + int_0^T exp(A (T-s)) b ds.

    Both pieces come from one scaling-and-squaring exponential of the
    augmented matrix [[A, b], [0, 0]]: its top-left block is exp(A T)
    and its last column carries the source integral.  A naive series
    for the integral loses all digits to cancellation once T ||A|| is
    large, which this form avoids.  Guarded to small systems
    (at most 2000 dimensions).
    """
    if system.dim > _DENSE_ORACLE_LIMIT:
        raise ValueError(
            f"dense oracle limited to {_DENSE_ORACLE_LIMIT} dimensions, "
            f"got {system.dim}"
        )
    z0 = np.asarray(z0, dtype=float)
    d = system.dim
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = system.a.toarray()
    aug[:d, d] = system.b
    phi = expm(aug * t_final)
    return phi[:d, :d] @ z0 + phi[:d, d]
