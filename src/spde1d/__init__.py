"""Spectral Galerkin exponential Euler toolkit for 1-D stochastic
reaction-diffusion equations on (0,1) with Dirichlet boundaries.

Layout:
  spectral      sine eigenbasis, semigroup/phi1 factors, H_r norms, DST grids
  nonlinearity  cubic drift, dealiased spectral projection, inequality audits
  noise         counter-based white-noise tape, coarsening, Monte Carlo estimator
  heat_errors   exact linear strong errors with sharp lower/upper bounds
  scheme        the truncated exponential Euler scheme itself
  experiments   coupled Monte Carlo convergence studies and moment audits
  cli           `spde1d` command-line entry point
"""

from . import experiments, heat_errors, noise, nonlinearity, scheme, spectral
from .experiments import StudyConfig, run_convergence_study
from .heat_errors import (
    fit_rate,
    full_error_exact,
    spatial_error_exact,
    temporal_error_exact,
)
from .noise import NoiseTape
from .nonlinearity import CubicCoefficients, allen_cahn, project_F
from .scheme import (
    DiscretizationParams,
    ModelParams,
    simulate_trajectory,
    truncation_indicator,
)

__version__ = "0.1.0"

__all__ = [
    "CubicCoefficients",
    "DiscretizationParams",
    "ModelParams",
    "NoiseTape",
    "StudyConfig",
    "allen_cahn",
    "cli",
    "experiments",
    "fit_rate",
    "full_error_exact",
    "heat_errors",
    "noise",
    "nonlinearity",
    "project_F",
    "run_convergence_study",
    "scheme",
    "simulate_trajectory",
    "spatial_error_exact",
    "spectral",
    "temporal_error_exact",
    "truncation_indicator",
]
