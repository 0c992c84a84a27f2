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
