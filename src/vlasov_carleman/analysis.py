"""Convergence diagnostics, rescaling, and truncation planning.

The embedding of the quadratic ODE into a truncated linear system only
converges when the linear part is dissipative and the ratio

    R = (||F2|| ||u_in|| + ||F0|| / ||u_in||) / |mu|

is below 1, with mu the log-norm (largest symmetric-part eigenvalue) of
F1.  F1b is exactly antisymmetric (``QuadraticODE`` holds it by its two
antisymmetric factors), so mu is the largest entry of the Krook diagonal
F1a, read off without an eigensolve; F1's l1 bound and densest row are
the ODE's closed forms, so with ``use_l1_f1`` the certificate, the plan
and the accounting assemble no sparse operator.  This module computes
that certificate, the rescaling gamma
that puts the initial state inside the unit ball, the truncation level
and Taylor degree meeting an error budget, and the sparsity/size
accounting for the embedded system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grid import GridSpec
from .physics import PlasmaParams
from .qode import AmpereLinear, QuadraticODE, _f2_norm, _f2_pref

__all__ = [
    "spectral_norm",
    "lognorm",
    "f2_norm_closed_form",
    "f1_norm_l1_bound",
    "ConvergenceReport",
    "convergence_report",
    "rescale",
    "choose_truncation_level",
    "choose_taylor_degree",
    "TruncationPlan",
    "make_plan",
    "AmpereDiagnosis",
    "ampere_diagnosis",
    "column_major_permutation",
    "vectorization_invariance",
    "embedding_dimension",
    "complexity_accounting",
]

# Operators up to this size get a dense eigensolve; larger ones go to
# Lanczos.  The bound is the measured crossover: with one BLAS thread
# the log-norm, ||F1|| and ||F2|| of one model cost the same either way
# between 224 and 256 rows, dense is 2-4x faster below 128 and Lanczos
# 3x faster at 512 and 70-650x faster at 2000-2560.
_DENSE_LIMIT = 240


def _top_eigenvalue(op, seed: int) -> float:
    """Largest eigenvalue of a symmetric operator.

    Up to _DENSE_LIMIT rows LAPACK's eigvalsh, exact to rounding whatever
    the eigenvalue gap; above it ARPACK's Lanczos (eigsh) from a start
    vector drawn from seed.  op is an ndarray, a sparse matrix or, on the
    Lanczos side, a LinearOperator.
    """
    n = op.shape[0]
    if n <= _DENSE_LIMIT:
        dense = op.toarray() if sparse.issparse(op) else np.asarray(op, dtype=float)
        return float(np.linalg.eigvalsh(dense)[-1])
    v0 = np.random.default_rng(seed).standard_normal(n)
    if not np.any(op @ v0):  # the zero operator; ARPACK cannot start on it
        return 0.0
    # imported where used: scipy.sparse.linalg loads scipy.linalg, ARPACK
    # and SuperLU, about 10 MB and 70 ms that most runs never need
    from scipy.sparse.linalg import eigsh

    return float(eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])


def spectral_norm(mat, seed: int = 0) -> float:
    """Largest singular value: the root of the top eigenvalue of the
    smaller Gram matrix, M M^T or M^T M.

    The Gram matrix is formed when it is small (up to _DENSE_LIMIT rows)
    or M is not square: a wide n x m M's Gram is only n x n, and one
    product with it replaces a product with M and one with M^T.  A
    large square M's Gram fills
    in (about 20x nnz for the Carleman matrix), so it stays a
    LinearOperator.  A formed Gram matrix with a non-finite entry is a
    ValueError before any eigensolver runs.  seed only reaches the
    Lanczos start vector.
    """
    m = sparse.csr_array(mat) if sparse.issparse(mat) else np.asarray(mat, dtype=float)
    if m.shape[0] > m.shape[1]:
        m = m.T
    n = m.shape[0]
    if n <= _DENSE_LIMIT or n < m.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m @ m.T
        if not np.isfinite(gram.data if sparse.issparse(gram) else gram).all():
            raise ValueError(
                f"the Gram matrix of a {m.shape[0]} x {m.shape[1]} operator overflows, "
                "so its spectral norm is not finite"
            )
    else:
        from scipy.sparse.linalg import LinearOperator

        gram = LinearOperator((n, n), matvec=lambda x: m @ (m.T @ x), dtype=float)
    return math.sqrt(max(_top_eigenvalue(gram, seed), 0.0))


def lognorm(mat, seed: int = 0) -> float:
    """Log-norm mu(M): largest eigenvalue of the symmetric part (M + M^T)/2.

    seed only reaches the Lanczos start vector.
    """
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("lognorm needs a square matrix")
    m = sparse.csr_array(mat) if sparse.issparse(mat) else np.asarray(mat, dtype=float)
    return _top_eigenvalue((m + m.T) * 0.5, seed)


# ----------------------------------------------------------------------
# closed-form norms


def f2_norm_closed_form(p: PlasmaParams, g: GridSpec) -> float:
    """Spectral norm of the unscaled gauss quadratic operator.

    q^2 x_max / (sqrt(2) m_e eps0) * cos(pi/(n_v+1))
    * sqrt(n_v (2 n_x - 3)) / n_x: ``QuadraticODE.f2_norm`` at the
    prefactor ``gauss_ode`` sets.  Needs n_x >= 2 (F2 is zero otherwise).
    """
    if g.n_x < 2:
        raise ValueError("closed form needs n_x >= 2")
    return _f2_norm(g, _f2_pref(p, g))


def f1_norm_l1_bound(ode: QuadraticODE | AmpereLinear) -> float:
    """sqrt(||F1||_1 ||F1||_inf), the geometric mean of F1's max absolute
    column and row sums: an upper bound on its spectral norm.  The two
    sums are equal for the gauss F1 (diagonal plus antisymmetric), whose
    bound is the ODE's closed form ``f1_l1_bound``; the ampere F1's are
    summed over its sparse matrix.
    """
    if isinstance(ode, QuadraticODE):
        return ode.f1_l1_bound
    a = abs(ode.f1)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


# ----------------------------------------------------------------------
# convergence certificate


@dataclass
class ConvergenceReport:
    """Norms and the convergence ratio for an assembled system."""

    mu_f1: float
    norm_f2: float
    norm_f0: float
    norm_u_in: float
    r_value: float
    r_asymptotic: float
    r_plus: float | None
    gamma: float | None
    feasible: bool
    verdict: str


def r_asymptotic_estimate(p: PlasmaParams, g: GridSpec) -> float:
    """Collision-dominated estimate of the convergence ratio.

    q^2 ncal n_v^(3/2) / (2 sqrt(2) m_e eps0 v_max nu0); valid when the
    Maxwellian source term is subdominant and the grid is fine.
    """
    if p.nu0 <= 0:
        return math.inf
    return (
        p.q**2
        * p.ncal
        * g.n_v**1.5
        / (2.0 * math.sqrt(2.0) * p.m_e * p.eps0 * g.v_max * p.nu0)
    )


def _finite(name: str, value: float) -> float:
    """value, or a ValueError naming the quantity that over- or underflowed."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value}: the configured scales overflow it")
    return value


def convergence_report(ode: QuadraticODE, u_in: np.ndarray) -> ConvergenceReport:
    """Compute mu (the largest entry of the Krook rate vector f1a: no
    eigensolver runs), the operator norms (||F2|| from F2's factors, never
    assembled), R, and the rescaling root.

    Infeasibility (mu >= 0, a zero quadratic term, or R >= 1) is a
    result, not an error: the report carries feasible=False and a
    verdict string.  R < 1 implies a real rescaling root, since
    2 sqrt(||F2|| ||F0||) <= ||F2|| ||u_in|| + ||F0|| / ||u_in||.
    A norm, R or gamma that is not finite, or an ||u_in|| that
    underflows to 0, is an error naming the quantity.
    """
    u_in = np.asarray(u_in, dtype=float)
    if not np.any(u_in):
        raise ValueError("initial state must be nonzero")
    with np.errstate(over="ignore"):
        norm_u = _finite("||u_in||", float(np.linalg.norm(u_in)))
        norm_f0 = _finite("||F0||", float(np.linalg.norm(ode.f0)))
    if norm_u == 0.0:
        raise ValueError("||u_in|| underflows to 0 on a nonzero initial state")
    mu = float(ode.f1a.max())
    norm_f2 = ode.f2_norm
    r_value, r_plus, gamma = math.inf, None, None
    if mu >= 0.0:
        verdict = "non_dissipative: log-norm of the linear part is nonnegative"
    else:
        r_value = _finite("R", (norm_f2 * norm_u + norm_f0 / norm_u) / abs(mu))
        if norm_f2 == 0.0:
            verdict = (
                "no_quadratic_term: ||F2|| = 0 (n_x = 1), so the rescaling "
                "is undefined and there is nothing to embed"
            )
        elif r_value < 1.0:
            disc = mu * mu - 4.0 * norm_f2 * norm_f0
            r_plus = (-mu + math.sqrt(disc)) / (2.0 * norm_f2)
            gamma = _finite("gamma", math.sqrt(norm_u * r_plus))
            verdict = "convergent: R < 1"
        else:
            verdict = "non_convergent: R >= 1 (collisions too weak for this grid)"
    return ConvergenceReport(
        mu_f1=mu,
        norm_f2=norm_f2,
        norm_f0=norm_f0,
        norm_u_in=norm_u,
        r_value=r_value,
        r_asymptotic=r_asymptotic_estimate(ode.params, ode.grid),
        r_plus=r_plus,
        gamma=gamma,
        feasible=gamma is not None,
        verdict=verdict,
    )


def rescale(
    ode: QuadraticODE, u_in: np.ndarray, report: ConvergenceReport
) -> tuple[QuadraticODE, np.ndarray, float]:
    """Rescale state and operators so the initial state enters the unit
    ball while the dissipation margin survives.

    gamma = sqrt(||u_in|| r_plus) with r_plus the larger root of
    ||F2|| r^2 + mu r + ||F0|| = 0; returns (ode_bar, u_bar, gamma)
    with F2_bar = gamma F2, F0_bar = F0/gamma, u_bar = u_in/gamma.
    report is the certificate of (ode, u_in), which supplies mu, the
    norms and gamma, and must be feasible; verifies ||u_bar|| < 1 and
    |mu| > ||F2_bar|| + ||F0_bar|| after the fact.
    """
    if not report.feasible:
        raise ValueError(f"system is not feasible: {report.verdict}")
    gamma = report.gamma
    ode_bar = ode.scaled(f2_scale=gamma, f0_scale=1.0 / gamma)
    u_bar = np.asarray(u_in, dtype=float) / gamma
    norm_u_bar = float(np.linalg.norm(u_bar))
    margin = abs(report.mu_f1) - (
        gamma * report.norm_f2 + report.norm_f0 / gamma
    )
    if not (norm_u_bar < 1.0 and margin > 0.0):
        raise ValueError(
            f"rescaling postcondition failed: ||u_bar||={norm_u_bar}, "
            f"margin={margin}"
        )
    return ode_bar, u_bar, gamma


# ----------------------------------------------------------------------
# truncation selection


def choose_truncation_level(
    t_final: float,
    norm_f2_bar: float,
    delta: float,
    norm_u_t_bar: float,
    norm_u_in_bar: float,
) -> int:
    """Smallest embedding level with truncation error below delta.

    ceil(2 log(T ||F2_bar|| / (delta ||u_bar(T)||)) / log(1/||u_bar_in||)),
    floored at 1.  Needs the rescaled initial state strictly inside the
    unit ball and every other input positive and finite.
    """
    if not 0.0 < norm_u_in_bar < 1.0:
        raise ValueError(
            f"rescaled initial norm must lie in (0, 1), got {norm_u_in_bar}"
        )
    for name, val in (
        ("t_final", t_final),
        ("norm_f2_bar", norm_f2_bar),
        ("delta", delta),
        ("norm_u_t_bar", norm_u_t_bar),
    ):
        if not 0.0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    arg = t_final * norm_f2_bar / (delta * norm_u_t_bar)
    if not math.isfinite(arg):
        raise ValueError(
            f"T ||F2_bar|| / (delta ||u_bar(T)||) overflows at t_final = {t_final:g}"
        )
    level = math.ceil(2.0 * math.log(arg) / math.log(1.0 / norm_u_in_bar))
    return max(1, level)


def implied_truncation_error(
    t_final: float, norm_f2_bar: float, norm_u_t_bar: float,
    norm_u_in_bar: float, n_c: int,
) -> float:
    """Error budget the chosen level guarantees (level formula inverted)."""
    return (
        t_final * norm_f2_bar * norm_u_in_bar ** (n_c / 2.0) / norm_u_t_bar
    )


def choose_taylor_degree(
    t_final: float,
    norm_a: float,
    delta_prime: float,
    norm_b: float,
    norm_u_t: float,
) -> tuple[int, float]:
    """Taylor degree k with stepping error below delta_prime.

    Omega = e^3 T ||A|| / delta' * (1 + T e^2 ||b|| / ||u(T)||);
    k starts at ceil(2 log Omega / log log Omega) (floored at 1) and
    grows until (k+1)! >= Omega.  Returns (k, Omega).
    """
    for name, val in (
        ("t_final", t_final),
        ("delta_prime", delta_prime),
        ("norm_u_t", norm_u_t),
    ):
        if not 0.0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if not (0.0 <= norm_a < math.inf and 0.0 <= norm_b < math.inf):
        raise ValueError("norms must be nonnegative and finite")
    omega = (
        math.e**3
        * t_final
        * norm_a
        / delta_prime
        * (1.0 + t_final * math.e**2 * norm_b / norm_u_t)
    )
    if not math.isfinite(omega):
        raise ValueError(f"Omega overflows at t_final = {t_final:g}")
    if omega > math.e:
        k = max(1, math.ceil(2.0 * math.log(omega) / math.log(math.log(omega))))
    else:
        k = 1
    while math.factorial(k + 1) < omega:
        k += 1
    return k, omega


@dataclass
class TruncationPlan:
    """Resolved discretization of the embedded linear evolution.

    norm_a sizes the steps (m = ceil(T norm_a)).  It is the bound
    N_C (||F0_bar|| + ||F1|| + ||F2_bar||) on the paper's ||A||
    (norm_a_is_bound), or the computed 2-norm of the emulated matrix,
    A restricted to the symmetric subspace.  That restriction is what
    the evolution applies, and its norm is at most ||A||, so the step
    rule stays valid.
    """

    n_c: int
    k: int
    omega: float
    delta: float
    delta_prime: float
    eps_q: float
    eps_c: float
    t_final: float
    tau: float
    m: int
    p: int
    norm_a: float
    norm_a_is_bound: bool
    norm_u_t_bar: float
    norm_u_in_bar: float

    def as_dict(self) -> dict:
        return {
            "N_C": self.n_c,
            "k": self.k,
            "Omega": self.omega,
            "delta": self.delta,
            "delta_prime": self.delta_prime,
            "eps_q": self.eps_q,
            "eps_c": self.eps_c,
            "T": self.t_final,
            "tau": self.tau,
            "m": self.m,
            "p": self.p,
            "norm_A": self.norm_a,
            "norm_A_is_bound": self.norm_a_is_bound,
            "norm_u_T_bar": self.norm_u_t_bar,
            "norm_u_in_bar": self.norm_u_in_bar,
        }


def make_plan(
    report: ConvergenceReport,
    norm_f1: float,
    u_bar: np.ndarray,
    t_final: float,
    eps_q: float,
    eps_c: float = 0.01,
    norm_u_t_bar: float | None = None,
    n_c: int | None = None,
    k: int | None = None,
    norm_a: float | None = None,
) -> TruncationPlan:
    """Select truncation level, Taylor degree, and step count.

    Arithmetic on norms already computed: the certificate's rescaling
    gamma gives ||F2_bar|| = gamma ||F2|| and ||F0_bar|| = ||F0|| / gamma,
    and with ||F1|| (unchanged by the rescaling) the embedded operator
    norm is bounded by N_C (||F0_bar|| + ||F1|| + ||F2_bar||).
    The error budget eps_q is split as delta = eps_q/4 on the embedding
    truncation and delta' = eps_q/((4+eps_q) sqrt(N_C)) on the time
    stepping, so the combined relative error stays below eps_q/2.
    u_bar is the rescaled initial state; norm_u_t_bar is the rescaled
    solution norm at T (measured or estimated by the caller) and
    defaults to the rescaled initial norm.  n_c, k, norm_a may be pinned
    to bypass the selection rules.
    """
    if report.gamma is None:
        raise ValueError(f"planning needs a rescalable system: {report.verdict}")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if not 0.0 < eps_q < 2.0:
        raise ValueError("eps_q must lie in (0, 2)")
    norm_u_in_bar = float(np.linalg.norm(u_bar))
    if norm_u_t_bar is None:
        norm_u_t_bar = norm_u_in_bar
    norm_f2_bar = report.gamma * report.norm_f2
    norm_f0_bar = report.norm_f0 / report.gamma

    delta = eps_q / 4.0
    if n_c is None:
        n_c = choose_truncation_level(
            t_final, norm_f2_bar, delta, norm_u_t_bar, norm_u_in_bar
        )
    if n_c >= 2**1024:  # its square root below is a float
        raise ValueError("N_C is past 2^1024, the float range its error split needs")
    delta_prime = eps_q / ((4.0 + eps_q) * math.sqrt(n_c))
    # budget split check: delta + (1+delta) delta' sqrt(N_C) == eps_q/2
    combined = delta + (1.0 + delta) * delta_prime * math.sqrt(n_c)
    if combined > eps_q / 2.0 + 1.0e-12:
        raise AssertionError("error budget split violated")

    norm_a_is_bound = norm_a is None
    if norm_a is None:
        norm_a = _finite("||A|| bound", n_c * (norm_f0_bar + norm_f1 + norm_f2_bar))
    m = max(1, math.ceil(t_final * norm_a))
    tau = t_final / m
    k_chosen, omega_val = choose_taylor_degree(
        t_final, norm_a, delta_prime, norm_f0_bar, norm_u_t_bar
    )
    if k is None:
        k = k_chosen
    return TruncationPlan(
        n_c=n_c,
        k=k,
        omega=omega_val,
        delta=delta,
        delta_prime=delta_prime,
        eps_q=eps_q,
        eps_c=eps_c,
        t_final=t_final,
        tau=tau,
        m=m,
        p=m,
        norm_a=norm_a,
        norm_a_is_bound=norm_a_is_bound,
        norm_u_t_bar=norm_u_t_bar,
        norm_u_in_bar=norm_u_in_bar,
    )


# ----------------------------------------------------------------------
# ampere diagnosis


@dataclass
class AmpereDiagnosis:
    """Why the ampere-coupling route cannot be embedded convergently."""

    d: int
    mu_f1: float
    zero_column_count: int
    zero_columns: list[int]
    dissipative: bool
    verdict: str

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "mu": self.mu_f1,
            "zero_column_count": self.zero_column_count,
            "zero_columns": self.zero_columns,
            "dissipative": self.dissipative,
            "verdict": self.verdict,
        }


def ampere_diagnosis(ode: AmpereLinear, seed: int = 0) -> AmpereDiagnosis:
    """Structural non-convergence evidence for the ampere coupling.

    The field columns of F1 are identically zero (nothing damps the
    field variables), which forces the log-norm to be nonnegative; the
    embedding's error bound then never contracts.
    """
    col_counts = np.diff(ode.f1.tocsc().indptr)
    zero_cols = np.flatnonzero(col_counts == 0)
    mu = lognorm(ode.f1, seed=seed)
    dissipative = mu < 0.0
    verdict = (
        "non_convergent: field columns carry no dissipation, log-norm >= 0"
        if not dissipative
        else "unexpectedly dissipative"
    )
    return AmpereDiagnosis(
        d=ode.d,
        mu_f1=mu,
        zero_column_count=int(zero_cols.size),
        zero_columns=[int(c) + 1 for c in zero_cols],
        dissipative=dissipative,
        verdict=verdict,
    )


# ----------------------------------------------------------------------
# vectorization invariance


def column_major_permutation(g: GridSpec) -> np.ndarray:
    """0-based permutation mapping row-major to column-major flattening.

    perm[l] is the row-major flat index stored at column-major slot l,
    so u_tilde = u[perm].
    """
    return np.arange(g.n_points).reshape(g.n_x, g.n_v).T.reshape(-1)


def vectorization_invariance(
    ode: QuadraticODE, perm: np.ndarray, seed: int = 0
) -> dict:
    """Check that re-flattening the state leaves the diagnostics alone.

    perm is a 0-based permutation; the transported operators are
    P^T F1 P, P^T F2 (P (x) P), P^T F0 with P the permutation matrix of
    u = P u_tilde.  Returns the before/after norms, mu, and (for d up
    to 400) the largest absolute difference of the sorted F1
    eigenvalue multisets.
    """
    perm = np.asarray(perm)
    d = ode.d
    if sorted(perm.tolist()) != list(range(d)):
        raise ValueError("perm must be a 0-based permutation of range(d)")
    p_mat = sparse.coo_array(
        (np.ones(d), (perm, np.arange(d))), shape=(d, d)
    ).tocsr()
    pt = p_mat.T.tocsr()
    f1_t = (pt @ ode.f1 @ p_mat).tocsr()
    f2_t = (pt @ ode.f2 @ sparse.kron(p_mat, p_mat)).tocsr()
    f0_t = pt @ ode.f0

    out = {
        "mu": (lognorm(ode.f1, seed=seed), lognorm(f1_t, seed=seed)),
        "norm_F1": (spectral_norm(ode.f1, seed=seed), spectral_norm(f1_t, seed=seed)),
        "norm_F2": (spectral_norm(ode.f2, seed=seed), spectral_norm(f2_t, seed=seed)),
        "norm_F0": (
            float(np.linalg.norm(ode.f0)),
            float(np.linalg.norm(f0_t)),
        ),
    }
    devs = [abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in out.values()]
    out["max_relative_deviation"] = max(devs)
    if d <= 400:
        # eigenvalues come back in arbitrary order and a lexicographic
        # sort mispairs conjugate partners with equal real parts, so
        # match the multisets by optimal assignment instead
        from scipy.optimize import linear_sum_assignment

        ev_a = np.linalg.eigvals(ode.f1.toarray())
        ev_b = np.linalg.eigvals(f1_t.toarray())
        cost = np.abs(ev_a[:, None] - ev_b[None, :])
        rows, cols = linear_sum_assignment(cost)
        out["eig_multiset_max_diff"] = float(cost[rows, cols].max())
    return out


# ----------------------------------------------------------------------
# size and cost accounting


def _log10_d_a(d: int, n_c: int) -> float:
    """log10 d_A from its leading term, N_C log10 d + log10(d / (d - 1)),
    without forming d_A; d = 1 gives N_C.  A logarithm past the float
    range is _finite's named error."""
    if d == 1:
        return math.log10(n_c)
    lead = n_c * math.log10(d) if n_c < 2**1024 else math.inf
    return _finite("log10 d_A", lead + math.log10(d / (d - 1)))


def embedding_dimension(d: int, n_c: int) -> int:
    """The paper's embedded dimension d_A = sum_{l=1}^{N_C} d^l, exact
    (Python int); the emulated one is CarlemanSystem.dim."""
    if d < 1 or n_c < 1:
        raise ValueError("d and n_c must be >= 1")
    if d == 1:
        return n_c
    return (d ** (n_c + 1) - d) // (d - 1)


def complexity_accounting(ode: QuadraticODE, plan: TruncationPlan) -> dict:
    """Sparsity, size and conditioning accounting.

    s is the max nonzeros per row over F1 and F2 (2N on the densest
    quadratic rows), each counted from the operator's factors; the
    embedded matrix obeys s_A <= 3 s N_C.  d_A is exact below 2^53 and
    None above, where log10_d_A, always reported, comes from its leading
    term.  kappa_L_bound is (m+p) C(A) (1+delta) e (1+e) with C(A) = 1,
    its bound after rescaling.
    """
    s = max(ode.f2_row_nnz, ode.f1_row_nnz, 1)
    kappa = (plan.m + plan.p) * (1.0 + plan.delta) * math.e * (1.0 + math.e)
    log10_d_a = _log10_d_a(ode.d, plan.n_c)
    # the leading term is below twice d_A, so past 10^17 d_A is past 2^53
    d_a = embedding_dimension(ode.d, plan.n_c) if log10_d_a < 17 else None
    if d_a is not None and d_a < 2**53:
        log10_d_a = math.log10(d_a)
    else:
        d_a = None
    return {
        "d_A": d_a,
        "log10_d_A": log10_d_a,
        "s": s,
        "s_A": 3 * s * plan.n_c,
        "kappaL_bound": kappa,
    }
