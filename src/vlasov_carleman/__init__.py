"""Collisional phase-space dynamics embedded into truncated linear systems.

The pipeline: assemble the quadratic operators on a periodic
position / truncated velocity grid (qode), certify convergence of the
embedding and pick truncation parameters (analysis), lift to the
stacked-tensor-power linear system, emulated in symmetric tensor
coordinates (carleman), march or one-shot solve it (integrator), and
check against direct nonlinear integration (reference).  The pipeline
module wires these into the CLI's modes; the cli module parses configs
and writes reports.

The exports load with their module on first access (PEP 562), so
importing the package, or the cli to parse a config, loads numpy but
not scipy.
"""

import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_SOURCE = {
    "GridSpec": "grid",
    "PlasmaParams": "physics",
    "BeamSpec": "physics",
    "QuadraticODE": "qode",
    "gauss_ode": "qode",
    "ampere_ode": "qode",
    "rhs_direct": "qode",
    "rhs_matrix": "qode",
    "ConvergenceReport": "analysis",
    "TruncationPlan": "analysis",
    "AmpereDiagnosis": "analysis",
    "convergence_report": "analysis",
    "rescale": "analysis",
    "make_plan": "analysis",
    "spectral_norm": "analysis",
    "lognorm": "analysis",
    "ampere_diagnosis": "analysis",
    "complexity_accounting": "analysis",
    "CarlemanSystem": "carleman",
    "build_carleman": "carleman",
    "build_z0": "carleman",
    "EvolveResult": "integrator",
    "LinearEncoding": "integrator",
    "evolve_iterative": "integrator",
    "build_linear_encoding": "integrator",
    "solve_encoding": "integrator",
    "extract_solution": "integrator",
    "integrate_nonlinear": "reference",
    "compare_solutions": "reference",
}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
