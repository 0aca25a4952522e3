"""Collisional phase-space dynamics embedded into truncated linear systems.

The pipeline: assemble the quadratic operators on a periodic
position / truncated velocity grid (qode), certify convergence of the
embedding and pick truncation parameters (analysis), lift to the
stacked-tensor-power linear system, emulated in symmetric tensor
coordinates (carleman), march or one-shot solve it (integrator), and
check against direct nonlinear integration (reference).  The cli
module wires these into subcommands.
"""

from .analysis import (
    AmpereDiagnosis,
    ConvergenceReport,
    TruncationPlan,
    ampere_diagnosis,
    complexity_accounting,
    convergence_report,
    lognorm,
    make_plan,
    rescale,
    spectral_norm,
)
from .carleman import CarlemanSystem, build_carleman, build_z0
from .grid import GridSpec
from .integrator import (
    EvolveResult,
    LinearEncoding,
    build_linear_encoding,
    evolve_iterative,
    extract_solution,
    solve_encoding,
)
from .physics import BeamSpec, PlasmaParams
from .qode import QuadraticODE, ampere_ode, gauss_ode, rhs_direct, rhs_matrix
from .reference import compare_solutions, integrate_nonlinear

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GridSpec",
    "PlasmaParams",
    "BeamSpec",
    "QuadraticODE",
    "gauss_ode",
    "ampere_ode",
    "rhs_direct",
    "rhs_matrix",
    "ConvergenceReport",
    "TruncationPlan",
    "AmpereDiagnosis",
    "convergence_report",
    "rescale",
    "make_plan",
    "spectral_norm",
    "lognorm",
    "ampere_diagnosis",
    "complexity_accounting",
    "CarlemanSystem",
    "build_carleman",
    "build_z0",
    "EvolveResult",
    "LinearEncoding",
    "evolve_iterative",
    "build_linear_encoding",
    "solve_encoding",
    "extract_solution",
    "integrate_nonlinear",
    "compare_solutions",
]
