"""Sine spectral basis for the interval (0,1) with Dirichlet boundary.

Functions are represented by coefficients against e_k(x) = sqrt(2) sin(k pi x),
k = 1..N, which diagonalize A = nu * d^2/dx^2 with eigenvalues -mu_k,
mu_k = nu pi^2 k^2.  Everything here is float64 numpy on plain arrays.
weighted_norm (behind hr_norm) is the only arithmetic of the H_r norms
||(-A)^r v||_H: the scheme's taming indicator, the moment audit and the
coercivity check all use it.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.fftpack  # scipy.fft's DST-I kernel and bits, without its backend dispatch

SQRT2 = np.sqrt(2.0)

# below this value of mu*h the phi1 quotient switches to its Taylor series
PHI1_SERIES_THRESHOLD = 1e-5


def eigenvalues(n_modes: int, nu: float, first: int = 1) -> np.ndarray:
    """mu_k = nu pi^2 k^2 for k = first..n_modes."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    k = np.arange(first, n_modes + 1, dtype=np.float64)
    return nu * np.pi**2 * k * k


def hr_norm(coeffs: np.ndarray, r: float, nu: float) -> float | np.ndarray:
    """Interpolation-space norm ||(-A)^r v||_H of a coefficient vector.

    Parameters
    ----------
    coeffs : array, shape (..., N)
        Sine coefficients; the norm is taken along the last axis.
    r : float
        Smoothness exponent; r = 0 gives the plain H = L^2 norm,
        r = 1/2 one spatial derivative, negative r the dual scale.
    nu : float
        Diffusivity entering the eigenvalues.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return weighted_norm(eigenvalues(coeffs.shape[-1], nu) ** (2.0 * r), coeffs)


def weighted_norm(w: np.ndarray, X: np.ndarray, out: np.ndarray | None = None,
                  segments=None) -> np.ndarray:
    """sqrt(sum_k w_k X_k^2) of each row of X (..., N), w = mu^{2r}: the one
    H_r norm arithmetic, written to `out` (shape X.shape[:-1]) if given.
    With `segments`, slices of the last axis, each row has one norm per
    segment, shape (..., len(segments)), from one square-and-weight pass.  At
    most 2^15 values at a time; each row and segment is reduced on its own,
    so its bits do not depend on its neighbours."""
    if X.ndim > 1 and X.size > 1 << 15:
        k = max(1, (1 << 15) // (X.size // len(X)))
        return np.concatenate([weighted_norm(w, X[s:s + k], segments=segments)
                               for s in range(0, len(X), k)], out=out)
    sq = X * X
    sq *= w
    if segments is None:
        return np.sqrt(np.add.reduce(sq, axis=-1, out=out), out=out)
    out = np.empty(X.shape[:-1] + (len(segments),)) if out is None else out
    for r, seg in enumerate(segments):
        np.add.reduce(sq[..., seg], axis=-1, out=out[..., r])
    return np.sqrt(out, out=out)


def semigroup_factors(n_modes: int, nu: float, t: float) -> np.ndarray:
    """Mode multipliers e^{-mu_k t} of the heat semigroup; t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return np.exp(-eigenvalues(n_modes, nu) * t)


def phi1_factors(n_modes: int, nu: float, h: float) -> np.ndarray:
    """Mode multipliers of phi1(h) = A^{-1}(e^{hA} - Id), i.e. (1 - e^{-mu h})/mu.

    Two-branch evaluation: for mu*h below PHI1_SERIES_THRESHOLD the Taylor
    series h*(1 - x/2 + x^2/6) is used to avoid 0/0; above, the expm1 form.
    The branches agree at the threshold to better than 1e-12 relative.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    mu = eigenvalues(n_modes, nu)
    x = mu * h
    small = x < PHI1_SERIES_THRESHOLD
    out = np.empty_like(x)
    xs = x[small]
    out[small] = h * (1.0 - xs / 2.0 + xs * xs / 6.0)
    out[~small] = -np.expm1(-x[~small]) / mu[~small]
    return out


def default_grid(n_modes: int) -> int:
    """Smallest alias-free grid with a fast transform: the least G with
    G-1 >= 3N+1 whose DST-I, an FFT of length 2G, has no prime factor
    above 5 (G = 5, 27, 50, 100, 200, 400 for N = 1, 8, 16, 32, 64, 128)."""
    return scipy.fft.next_fast_len(3 * n_modes + 2, real=True)


def to_grid(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """Evaluate sum_k c_k e_k at the interior nodes j/G via DST-I.

    Accepts batched input (..., N); returns (..., G-1).  Requires N <= G-1,
    otherwise the input is not representable on the grid.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[-1]
    if n > grid - 1:
        raise ValueError(f"need grid-1 >= n_modes, got grid={grid}, n_modes={n}")
    pad = np.zeros(coeffs.shape[:-1] + (grid - 1,))
    pad[..., :n] = coeffs
    # dst-I computes 2 sum_j x_j sin(pi j m / G); fold in the sqrt(2) basis factor
    values = scipy.fftpack.dst(pad, type=1, axis=-1, overwrite_x=True)
    values *= SQRT2 / 2.0
    return values


def from_grid(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Sine coefficients of the trigonometric interpolant through grid values.

    Exact inverse of to_grid for band-limited input.  `values` has shape
    (..., G-1) at the interior nodes of a size-G grid.
    """
    values = np.asarray(values, dtype=np.float64)
    grid = values.shape[-1] + 1
    if n_modes > grid - 1:
        raise ValueError(f"need grid-1 >= n_modes, got grid={grid}, n_modes={n_modes}")
    # scaling the kept modes into a new array leaves the caller contiguous rows
    return scipy.fftpack.dst(values, type=1, axis=-1)[..., :n_modes] * (SQRT2 / (2.0 * grid))


def lq_norm_on_grid(values: np.ndarray, q: float) -> float | np.ndarray:
    """L^q(0,1) norm by the trapezoid rule with zero boundary values.

    Exact for the even trigonometric polynomials |v|^q produces when q is an
    even integer and the grid resolves the product degree.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    values = np.asarray(values, dtype=np.float64)
    grid = values.shape[-1] + 1
    return (np.sum(np.abs(values) ** q, axis=-1) / grid) ** (1.0 / q)
