"""Fixed-step explicit integration of the full nonlinear system.

This is the ground truth the embedded linear evolution is judged
against.  It integrates du/dt = F2 (u(x)u) + F1 u + F0 directly (no
truncation, no rescaling) with explicit one-step methods of order 1, 2,
or 4.  Each stage is one product of ``QuadraticODE.stage_operator``
with the stage input and its trailing 1, giving f1 u + f0, every
velocity difference and the charges (after a running sum on the CSR
side, as in ``rhs_matrix``), then one scaling of each x-line's
difference by its charge and one add.  The state and the stages are
the rows of one array, so each stage's input, u + c_i dt k_{i-1}, and
each step, u + dt/D (b_1 k_1 + ... + b_s k_s), are one weighted sum of
those rows.  Every dense product is a bound ``ndarray.dot``: at these
sizes the dispatch of ``np.matmul`` costs about as much as the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qode import QuadraticODE

__all__ = [
    "ReferenceRun",
    "integrate_nonlinear",
    "compare_solutions",
]


@dataclass
class ReferenceRun:
    """Final state and bookkeeping of a nonlinear reference integration."""

    u_final: np.ndarray
    t_final: float
    steps: int
    order: int
    rhs_evals: int


# Per order: the stage offsets c_i (stage i > 1 is evaluated at
# u + c_i dt k_{i-1}), the weights b_i of the stage sum, and its divisor
# D, so a step is u + (dt / D) (b_1 k_1 + ... + b_s k_s): forward
# Euler, explicit midpoint, and the classic four-stage Runge-Kutta scheme.
_TABLEAUS = {
    1: ((0.0,), (1.0,), 1.0),
    2: ((0.0, 0.5), (0.0, 1.0), 1.0),
    4: ((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0),
}


def integrate_nonlinear(
    ode: QuadraticODE,
    u0: np.ndarray,
    t_final: float,
    steps: int,
    order: int = 4,
) -> ReferenceRun:
    """March the quadratic ODE with a fixed-step explicit method.

    order selects forward Euler (1), explicit midpoint (2), or the
    classic four-stage Runge-Kutta scheme (4).  The state is checked
    once; every buffer and view the stages use is made before the loop.
    """
    if order not in _TABLEAUS:
        raise ValueError("order must be 1, 2, or 4")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    u0 = np.asarray(u0, dtype=float)
    d = ode.d
    if u0.shape != (d,):
        raise ValueError(f"state shape {u0.shape} != ({d},)")
    offsets, weights, divisor = _TABLEAUS[order]
    op = ode.stage_operator
    dense = isinstance(op, np.ndarray)
    dt = t_final / steps
    # row 0 is the state with a trailing 1, the coefficient of the
    # operator's f0 column; rows 1..s are the stages with a trailing 0
    rows = np.zeros((len(weights) + 1, d + 1))
    rows[0, :d] = u0
    rows[0, d] = 1.0
    state = rows[0]
    step_dot = np.array([1.0, *(b * dt / divisor for b in weights)]).dot
    new_u = np.empty(d + 1)
    x = np.empty(d + 1)
    lin = np.empty(op.shape[0])
    lin_d = lin[:d]
    quad = lin[d : 2 * d].reshape(-1, ode.grid.n_v)
    sums = lin[2 * d :]
    charge = sums[:, None]
    op_dot = op.dot if dense else None
    # stage i reads u + c_i dt k_{i-1} as (1, 0, ..., c_i dt) . rows[:i+1]
    plan = []
    for i, c in enumerate(offsets):
        coef = np.zeros(i + 1)
        coef[0], coef[i] = 1.0, c * dt
        k = rows[i + 1, :d]
        plan.append((coef.dot if c else None, rows[: i + 1], k, k.reshape(quad.shape)))
    for _ in range(steps):
        for coef_dot, prev, k, k_lines in plan:
            if coef_dot is None:
                src = state
            else:
                coef_dot(prev, out=x)
                src = x
            if dense:
                op_dot(src, out=lin)
            else:
                lin[:] = op @ src
                np.add.accumulate(sums, out=sums)
            np.multiply(quad, charge, out=k_lines)
            k += lin_d
        step_dot(rows, out=new_u)
        state[:] = new_u
    return ReferenceRun(
        u_final=state[:d].copy(),
        t_final=t_final,
        steps=steps,
        order=order,
        rhs_evals=steps * len(weights),
    )


def compare_solutions(u_ref: np.ndarray, u_test: np.ndarray) -> dict:
    """Error metrics between a reference state and a candidate state.

    rel_l2 is ||diff|| / ||ref||; max_abs is the largest per-cell
    deviation; normalized_state_error compares the direction only
    (both states scaled to unit norm first), which is the right metric
    when the candidate comes from a solver that returns the state up to
    its norm.
    """
    u_ref = np.asarray(u_ref, dtype=float)
    u_test = np.asarray(u_test, dtype=float)
    if u_ref.shape != u_test.shape:
        raise ValueError(f"shape mismatch {u_ref.shape} vs {u_test.shape}")
    diff = u_test - u_ref
    nref = float(np.linalg.norm(u_ref))
    ntest = float(np.linalg.norm(u_test))
    rel = float(np.linalg.norm(diff)) / nref if nref > 0 else float(
        np.linalg.norm(diff)
    )
    if nref > 0 and ntest > 0:
        nse = float(np.linalg.norm(u_test / ntest - u_ref / nref))
    else:
        nse = float("nan")
    return {
        "rel_l2": rel,
        "max_abs": float(np.abs(diff).max()) if diff.size else 0.0,
        "normalized_state_error": nse,
    }
