"""Fixed-step explicit integration of the full nonlinear system.

This is the ground truth the embedded linear evolution is judged
against.  It integrates du/dt = F2 (u(x)u) + F1 u + F0 directly (no
truncation, no rescaling) with explicit one-step methods of order 1, 2,
or 4.  Each stage runs ``QuadraticODE.stage_calls``, the bound calls
that write the rate at its input x = (u, 1) into the stage's row.  The
state and the stages are the rows of one array, so each stage's input,
u + c_i dt k_{i-1}, and each step, u + dt/D (b_1 k_1 + ... + b_s k_s),
are one bound ``ndarray.dot`` over those rows, its output passed
positionally.  Two such arrays alternate, so a step writes its sum into
the other array's state row.  Each step is a flat list of bound calls
built once from the tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
    once; every buffer, view and bound call the steps make is made
    before the loop.
    """
    if order not in _TABLEAUS:
        raise ValueError("order must be 1, 2, or 4")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    u0 = np.asarray(u0, dtype=float)
    d = ode.d
    if u0.shape != (d,):
        raise ValueError(f"state shape {u0.shape} != ({d},)")
    offsets, weights, divisor = _TABLEAUS[order]
    dt = t_final / steps
    # two alternating row buffers: row 0 the state with a trailing 1,
    # the coefficient of f0's column, rows 1..s the stages with a
    # trailing 0; a step from one buffer writes its sum to the other's
    # state row
    bufs = np.zeros((2, len(weights) + 1, d + 1))
    bufs[0, 0, :d] = u0
    bufs[:, 0, d] = 1.0
    step_dot = np.array([1.0, *(b * dt / divisor for b in weights)]).dot
    x = np.empty(d + 1)
    plans = []
    for rows, other in ((bufs[0], bufs[1]), (bufs[1], bufs[0])):
        calls = []
        # stage i reads u + c_i dt k_{i-1} as (1, 0, ..., c_i dt) . rows[:i+1]
        for i, c in enumerate(offsets):
            src = rows[0]
            if c:
                coef = np.zeros(i + 1)
                coef[0], coef[i] = 1.0, c * dt
                calls.append(partial(coef.dot, rows[: i + 1], x))
                src = x
            calls += ode.stage_calls(src, rows[i + 1, :d])
        calls.append(partial(step_dot, rows, other[0]))
        plans.append(calls)
    for n in range(steps):
        for call in plans[n & 1]:
            call()
    return ReferenceRun(
        u_final=bufs[steps & 1, 0, :d].copy(),
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
