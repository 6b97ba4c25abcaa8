"""Structured AMG for block Toeplitz-plus-Cross collocation systems.

A V-cycle algebraic multigrid solver whose levels stay Toeplitz-plus-Cross
under Galerkin coarsening, with FFT matvecs giving O(N log N) work and
O(N) storage, plus the nonlocal-diffusion and peridynamic collocation
models it targets, a BDF4 time stepper, and a benchmark CLI.
"""

from .gamma_model import (GammaCoefficients, GammaModelConfig, GammaSystem,
                          assemble_gamma_system, gamma_coefficients,
                          gamma_exact_forcing)
from .hierarchy import (Hierarchy, build_hierarchy, coarsen_banded,
                        coarsen_tpc, prolong, restrict)
from .kernels import (BandedCorrection, ToeplitzSpec, TpcOperator,
                      toeplitz_matvec)
from .peridynamic import (PdCoefficients, PdModelConfig, PdSystem,
                          assemble_pd_system, fold_boundary_rhs,
                          pd_coefficients, pd_exact_forcing, sample_collar)
from .solver import (SingularSmootherError, SmootherConfig, SolveReport,
                     solve, vcycle)
from .timestepper import (MarchResult, TransientConfig, TransientProblem,
                          bdf4_march, build_step_operator,
                          gamma_manufactured_problem, pd_manufactured_problem)

__version__ = "0.1.0"

__all__ = [
    "BandedCorrection", "ToeplitzSpec", "TpcOperator", "toeplitz_matvec",
    "Hierarchy", "build_hierarchy", "coarsen_tpc", "coarsen_banded",
    "restrict", "prolong",
    "GammaModelConfig", "GammaCoefficients", "GammaSystem",
    "gamma_coefficients", "assemble_gamma_system", "gamma_exact_forcing",
    "PdModelConfig", "PdCoefficients", "PdSystem", "pd_coefficients",
    "assemble_pd_system", "fold_boundary_rhs", "sample_collar",
    "pd_exact_forcing",
    "SmootherConfig", "SolveReport", "SingularSmootherError",
    "vcycle", "solve",
    "TransientConfig", "TransientProblem", "MarchResult",
    "build_step_operator", "bdf4_march",
    "gamma_manufactured_problem", "pd_manufactured_problem",
    "__version__",
]
