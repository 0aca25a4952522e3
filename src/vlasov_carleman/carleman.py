"""Embedding of the quadratic ODE into a truncated linear system.

The quadratic ODE du/dt = F2 (u(x)u) + F1 u + F0 becomes exactly linear
on the sequence of tensor powers z_l = u^((x)l).  Truncating at level
N_C gives the paper's block-tridiagonal system

    dz/dt = A z + b,   z = (z_1, ..., z_{N_C}),

where level l couples to l+1 through F2, to itself through F1, and to
l-1 through F0 (acting as a d-by-1 column), each lifted by the Kronecker
sum over the l slot positions.  Its dimension is the paper's
d_A = d + d^2 + ... + d^{N_C}.

Every u^((x)l) is a symmetric tensor, and every Kronecker-sum lift maps
symmetric tensors to symmetric tensors, so the system closes on the
symmetric subspace; it is emulated there.  Level l keeps one coordinate
per monomial u^alpha, alpha a multiset of l indices (sorted
i_1 <= ... <= i_l): C(d+l-1, l) coordinates instead of d^l.  The basis is
orthonormal (each vector is the normalized sum of the d^l tensor slots
holding that multiset), so the state's coordinate is
sqrt(multinomial(alpha)) u^alpha, norms are those of the full vectors,
and the matrix is P^T A P for that basis P.  It is assembled directly by
the monomial-derivative rule

    d/dt u^alpha = sum_i alpha_i u^(alpha - e_i) du_i/dt,

which sends each entry F[i, j] to the pair (alpha' + e_i, alpha' + e_j)
for every monomial alpha' one level down, then conjugated by the
sqrt-multinomial weights.  Level 1 is u itself, so the stepping, the
encoding and the extraction of the first block are unchanged.

Monomials are ranked in the combinatorial number system: the sorted
multiset i_1 <= ... <= i_l has rank sum_t C(i_t + t - 1, t) (colex
order), so the monomials ending in index j are those of the level below
ending at or before j, each extended by j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .analysis import _d_a_past_limit, embedding_dimension
from .qode import QuadraticODE, _csr, _index_dtype

__all__ = [
    "CarlemanSystem",
    "build_carleman",
    "build_z0",
]


def _level_offsets(d: int, n_c: int) -> list[int]:
    # offsets[l] = sum_{l'=1}^{l} C(d+l'-1, l') = C(d+l, l) - 1
    return [math.comb(d + level, level) - 1 for level in range(n_c + 1)]


@dataclass
class CarlemanSystem:
    """Truncated linear system dz/dt = a z + b in symmetric coordinates.

    d_a is the paper's embedded dimension d + d^2 + ... + d^{N_C}; dim is
    the emulated one, sum_l C(d+l-1, l) = C(d+N_C, N_C) - 1, which a, b
    and the states have.
    offsets[l-1] is the 0-based start of level l in the stacked vector;
    offsets[n_c] is dim.  Both dimensions are d at n_c = 1, so a
    synthetic linear system is CarlemanSystem(a, b, n_c=1, d=d, d_a=d).
    """

    a: sparse.csr_array
    b: np.ndarray
    n_c: int
    d: int
    d_a: int
    offsets: list[int] = field(default_factory=list)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        paper = embedding_dimension(self.d, self.n_c)
        if self.d_a != paper:
            raise ValueError(f"d_a {self.d_a} != d + ... + d^n_c = {paper}")
        levels = _level_offsets(self.d, self.n_c)
        if not self.offsets:
            self.offsets = levels
        if list(self.offsets) != levels:
            raise ValueError(f"offsets {self.offsets} != symmetric levels {levels}")
        self.dim = levels[-1]
        if self.a.shape != (self.dim, self.dim):
            raise ValueError(f"a shape {self.a.shape} != ({self.dim}, {self.dim})")
        if self.b.shape != (self.dim,):
            raise ValueError(f"b shape {self.b.shape} != ({self.dim},)")


def _monomial_levels(d: int, top: int, with_up: bool = True):
    """Yield (parent, last, counts, up) for the monomial levels 0..top.

    Level l lists the multisets alpha of l indices in rank order:
    alpha_r = alpha_{parent[r]} + e_{last[r]}, last[r] its largest index
    and parent[r] a rank one level down; counts[r] is alpha_r as a row of
    d multiplicities, and up[r, j] the rank of alpha_r + e_j one level
    up (None unless with_up).
    """
    cols = np.arange(d)
    parent = last = np.zeros(1, dtype=np.intp)
    counts = np.zeros((1, d), dtype=np.int16)
    up = cols[None, :] if with_up else None
    yield parent, last, counts, up
    for level in range(1, top + 1):
        # the monomials ending in j extend the C(j+l-1, l-1) lowest ranks
        sizes = [math.comb(j + level - 1, level - 1) for j in range(d)]
        parent = np.concatenate([np.arange(s) for s in sizes])
        last = np.repeat(cols, sizes)
        counts = counts[parent]
        counts[np.arange(parent.size), last] += 1
        if with_up:
            # rank of alpha + e_j: alpha's rank plus C(j+l, l+1) when j
            # comes last, else the parent's (alpha' + e_j) extended by last
            shift = np.array([math.comb(j + level, level + 1) for j in range(d)])
            up = np.where(
                cols >= last[:, None],
                np.arange(parent.size)[:, None] + shift,
                up[parent] + shift[last][:, None],
            )
        yield parent, last, counts, up


def _magnitude(n: int, exact: str = "", approx: str = "≈ ") -> str:
    """n written out after exact, or past 18 digits as 10^e after approx,
    e = floor(log10 n).  An emulated dimension can run to thousands of
    digits, past a float's range and Python's int-to-str limit, so this
    uses integer arithmetic only."""
    if n < 10**18:
        return f"{exact}{n}"
    e = (n.bit_length() - 1) * 30102 // 100000  # <= floor(log10 n)
    while 10 ** (e + 1) <= n:
        e += 1
    return f"{approx}10^{e}"


def _budget_error(what: str, level: int, n_c: int, budget: int, d: int, dim: int):
    d_a = _d_a_past_limit(d, n_c) or _magnitude(embedding_dimension(d, n_c), "= ")
    return ValueError(
        f"embedding budget exceeded: the reduced nnz(A) {what} by level {level} "
        f"of {n_c}, budget {budget} (d_A {d_a}, reduced dimension {_magnitude(dim)})"
    )


def _level_blocks(ode_bar: QuadraticODE, n_c: int, nnz_budget: int):
    """Yield the CSR row block of A at each level 1..n_c, checking the budget.

    Each block spans all dim columns and holds its indices in the index
    dtype the whole of A needs; ``_csr`` drops its staged triplets as soon
    as they are concatenated.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    d = ode_bar.d
    dim = math.comb(d + n_c, n_c) - 1  # the last level offset, before listing them
    if dim > nnz_budget:
        raise _budget_error(
            f"is at least {_magnitude(dim, approx='')}", n_c, n_c, nnz_budget, d, dim
        )
    offs = _level_offsets(d, n_c)
    f1 = ode_bar.f1.tocoo()
    f2 = ode_bar.f2.tocoo() if n_c > 1 else None
    f0_at = np.flatnonzero(ode_bar.f0)
    # ranks staged in the index dtype that every index and row pointer
    # fits, so scipy's COO -> CSR conversion keeps it
    idx = _index_dtype(max(dim, nnz_budget))

    levels = _monomial_levels(d, n_c - 1)
    _, _, counts, up = next(levels)
    up = up.astype(idx)
    nnz = 0
    for level in range(1, n_c + 1):
        # Row alpha = alpha' + e_i, for each alpha' one level down, takes
        # alpha_i F[i, .]; in sqrt-multinomial coordinates, with
        # c = counts(alpha') + 1, F1[i, j] lands on alpha' + e_j times
        # sqrt(c_i c_j), F2[i, (j, k)] on alpha' + e_j + e_k times
        # sqrt(c_i c_j (c_k + [j = k]) / (l + 1)), f0[i] on alpha' times
        # sqrt(l c_i).
        n_below = counts.shape[0]
        staged = n_below * (
            f1.nnz + (f2.nnz if level < n_c else 0) + (f0_at.size if level > 1 else 0)
        )
        bound = nnz + staged // (2 * level)
        if level > 1 and bound > nnz_budget:
            raise _budget_error(f"is at least {bound}", level, n_c, nnz_budget, d, dim)
        c = counts + 1.0
        terms = [
            (up[:, f1.row], up[:, f1.col] + offs[level - 1],
             f1.data * np.sqrt(c[:, f1.row] * c[:, f1.col])),
        ]
        if level < n_c:
            counts_up, up_next = next(levels)[2:]
            up_next = up_next.astype(idx)
            j, k = np.divmod(f2.col, d)
            terms.append(
                (up[:, f2.row], up_next[up[:, j], k] + offs[level],
                 f2.data * np.sqrt(c[:, f2.row] * c[:, j] * (c[:, k] + (j == k)) / (level + 1)))
            )
        if level > 1:
            below = np.arange(n_below, dtype=idx)[:, None] + offs[level - 2]
            terms.append(
                (up[:, f0_at], np.broadcast_to(below, (n_below, f0_at.size)),
                 ode_bar.f0[f0_at] * np.sqrt(level * c[:, f0_at]))
            )
        block = _csr(terms, (offs[level] - offs[level - 1], dim), idx)
        nnz += block.nnz
        if nnz > nnz_budget:
            raise _budget_error(f"reached {nnz}", level, n_c, nnz_budget, d, dim)
        yield block
        if level < n_c:
            counts, up = counts_up, up_next


def build_carleman(
    ode_bar: QuadraticODE, n_c: int, nnz_budget: int = 1_000_000
) -> CarlemanSystem:
    """Assemble the truncated embedding of a (rescaled) quadratic ODE.

    Rows are assembled one level at a time.  Raises before staging any
    level when the emulated dimension exceeds nnz_budget (a certified A
    stores a nonzero Krook diagonal in every row, since mu < 0), once the
    stored entries exceed nnz_budget, or before staging a level whose
    stored entries must exceed it: each stored entry of level l gathers
    at most 2l staged terms (level 1 stages only F1 and F2 themselves).
    sparse.vstack stacks the level blocks into A in their index dtype.
    The caller is expected to have rescaled the system first (the
    builder itself is scale-agnostic).
    """
    a = sparse.vstack(list(_level_blocks(ode_bar, n_c, nnz_budget)), format="csr")
    d = ode_bar.d
    b = np.zeros(a.shape[0])
    b[:d] = ode_bar.f0
    return CarlemanSystem(a=a, b=b, n_c=n_c, d=d, d_a=embedding_dimension(d, n_c))


def build_z0(u_bar: np.ndarray, n_c: int) -> np.ndarray:
    """Embedded initial state: P^T of the stacked powers u, ..., u^((x)N_C).

    Level l holds sqrt(multinomial(alpha)) u^alpha over its monomials,
    each the parent's coordinate times u_last and sqrt(l / alpha_last).
    """
    u_bar = np.asarray(u_bar, dtype=float)
    if u_bar.ndim != 1:
        raise ValueError("state must be a flat vector")
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    parts = [np.ones(1)]
    levels = _monomial_levels(u_bar.shape[0], n_c, with_up=False)
    next(levels)
    for level, (parent, last, counts, _) in enumerate(levels, start=1):
        repeats = counts[np.arange(last.size), last]
        parts.append(parts[-1][parent] * u_bar[last] * np.sqrt(level / repeats))
    return np.concatenate(parts[1:])
