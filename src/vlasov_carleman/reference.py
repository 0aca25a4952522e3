"""Fixed-step explicit integration of the full nonlinear system.

This is the ground truth the embedded linear evolution is judged
against.  It integrates du/dt = F2 (u(x)u) + F1 u + F0 directly (no
truncation, no rescaling) with explicit one-step methods of order 1, 2,
or 4, using the assembled operators as the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qode import QuadraticODE, rhs_matrix

__all__ = [
    "ReferenceRun",
    "integrate_nonlinear",
    "compare_solutions",
]


@dataclass
class ReferenceRun:
    """Trajectory record of a nonlinear reference integration."""

    u_final: np.ndarray
    t_final: float
    steps: int
    order: int
    rhs_evals: int
    times: np.ndarray
    states: list[np.ndarray] | None = None
    step_norms: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def integrate_nonlinear(
    ode: QuadraticODE,
    u0: np.ndarray,
    t_final: float,
    steps: int,
    order: int = 4,
    store_trajectory: bool = False,
) -> ReferenceRun:
    """March the quadratic ODE with a fixed-step explicit method.

    order selects forward Euler (1), explicit midpoint (2), or the
    classic four-stage Runge-Kutta scheme (4).
    """
    if order not in (1, 2, 4):
        raise ValueError("order must be 1, 2, or 4")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (ode.d,):
        raise ValueError(f"state shape {u.shape} != ({ode.d},)")
    dt = t_final / steps
    evals = 0
    states = [u.copy()] if store_trajectory else None
    norms = [float(np.linalg.norm(u))]
    for _ in range(steps):
        if order == 1:
            u = u + dt * rhs_matrix(ode, u)
            evals += 1
        elif order == 2:
            k1 = rhs_matrix(ode, u)
            k2 = rhs_matrix(ode, u + 0.5 * dt * k1)
            u = u + dt * k2
            evals += 2
        else:
            k1 = rhs_matrix(ode, u)
            k2 = rhs_matrix(ode, u + 0.5 * dt * k1)
            k3 = rhs_matrix(ode, u + 0.5 * dt * k2)
            k4 = rhs_matrix(ode, u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            evals += 4
        norms.append(float(np.linalg.norm(u)))
        if store_trajectory:
            states.append(u.copy())
    return ReferenceRun(
        u_final=u,
        t_final=t_final,
        steps=steps,
        order=order,
        rhs_evals=evals,
        times=np.linspace(0.0, t_final, steps + 1),
        states=states,
        step_norms=np.array(norms),
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
