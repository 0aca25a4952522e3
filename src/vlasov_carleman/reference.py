"""Fixed-step explicit integration of the full nonlinear system.

This is the ground truth the embedded linear evolution is judged
against.  It integrates du/dt = F2 (u(x)u) + F1 u + F0 directly (no
truncation, no rescaling) with explicit one-step methods of order 1, 2,
or 4.  Each stage evaluates the right-hand side as ``rhs_matrix`` does,
through the same stage function, but with the rate operator compiled
once per ODE into the product that is fastest at its size (dense up to
a fixed number of entries, CSR above), then the O(N) charge scaling of
the quadratic term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qode import QuadraticODE, _rate_stage, _stage_operator

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
    once; the stages reuse their buffers and skip the check.
    """
    if order not in _TABLEAUS:
        raise ValueError("order must be 1, 2, or 4")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (ode.d,):
        raise ValueError(f"state shape {u.shape} != ({ode.d},)")
    offsets, weights, divisor = _TABLEAUS[order]
    op = _stage_operator(ode)
    dt = t_final / steps
    step = dt / divisor
    acc, x, tmp = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    for _ in range(steps):
        acc.fill(0.0)
        for c, w in zip(offsets, weights):
            if c:
                np.multiply(k, c * dt, out=x)
                x += u
                k = _rate_stage(ode, op, x)
            else:
                k = _rate_stage(ode, op, u)
            if w == 1.0:
                acc += k
            elif w:
                np.multiply(k, w, out=tmp)
                acc += tmp
        acc *= step
        u += acc
    return ReferenceRun(
        u_final=u,
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
