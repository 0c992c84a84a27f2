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
    so its bits do not depend on its neighbours.  Chunks are runs of the
    flattened leading rows; a single row wider than 2^15 goes alone."""
    if X.size > max(1 << 15, X.shape[-1]):  # several rows, too many values for one pass
        rows = X.reshape(-1, X.shape[-1])
        k = max(1, (1 << 15) // X.shape[-1])
        norms = np.concatenate([weighted_norm(w, rows[s:s + k], segments=segments)
                                for s in range(0, len(rows), k)])
        norms = norms.reshape(X.shape[:-1] + norms.shape[1:])
        if out is None:
            return norms
        out[...] = norms
        return out
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


_pocketfft_dst = None  # the DST-I kernel, resolved by the first transform


def _dst1(pad: np.ndarray, views) -> None:
    """In-place DST-I along the last axis of pad's column slices `views`: the
    pocketfft kernel as scipy.fft.dst calls it (type 1, no norm, one worker),
    or scipy.fft.dst itself (same bits) in a scipy that moved that private
    binding; resolved once per process: a process with no transform loads no scipy."""
    global _pocketfft_dst
    if _pocketfft_dst is None:
        try:
            from scipy.fft._pocketfft.pypocketfft import dst as _pocketfft_dst
        except ImportError:
            import scipy.fft

            def _pocketfft_dst(x, _type, _axes, _norm, out, _nthreads):
                out[...] = scipy.fft.dst(x, type=1, axis=-1)
    for view in views:
        segment = pad[..., view]
        _pocketfft_dst(segment, 1, (-1,), 0, segment, 1)


def _fast_grid(points: int) -> int:
    """The least G >= points whose DST-I, an FFT of length 2G, is 5-smooth."""
    import scipy.fft
    return scipy.fft.next_fast_len(points, real=True)


def default_grid(n_modes: int) -> int:
    """Least fast G >= 2N+1 (3, 18, 36, 72, 135, 270 for N = 1, 8, 16, 32, 64, 128):
    each frequency m in (G, 3N] of the cube aliases onto 2G - m > N, off the kept modes."""
    return _fast_grid(2 * n_modes + 1)


class GridLayout:
    """Coefficient segments side by side, each on its own transform grid, all
    on one shared grid array.

    Segment i holds widths[i] sine coefficients (columns `modes[i]` of a
    coefficient array) and their values at the grids[i] - 1 interior nodes
    (columns `views[i]` of a grid array of `points` columns).  `columns` is
    the grid column of each coefficient column, an index array, and
    `scale` its inverse-transform factor sqrt(2)/(2G).  Grids default to
    default_grid; each needs G-1 >= its width.  `alias_free` says whether
    every grid keeps its segment's cube off its kept modes, G-1 >= 2n, as
    nonlinearity.project_F requires.  Built once per run: every call of
    to_grid, from_grid and nonlinearity.project_F on it then takes one
    scatter, one scale and one gather for all segments, and one DST-I per
    segment.
    """

    def __init__(self, widths, grids=None):
        self.widths = tuple(int(n) for n in widths)
        self.grids = (tuple(default_grid(n) for n in self.widths) if grids is None
                      else tuple(int(g) for g in grids))
        if not self.widths or len(self.grids) != len(self.widths):
            raise ValueError(f"need one grid per width, got widths {self.widths} "
                             f"and grids {self.grids}")
        for n, g in zip(self.widths, self.grids):
            if n > g - 1:
                raise ValueError(f"need grid-1 >= n_modes, got grid={g}, n_modes={n}")
        starts = np.cumsum((0,) + self.widths)
        self.modes = [slice(s, s + n) for s, n in zip(starts, self.widths)]
        self.n_modes = int(starts[-1])
        starts = np.cumsum((0,) + tuple(g - 1 for g in self.grids))
        self.views = [slice(s, s + g - 1) for s, g in zip(starts, self.grids)]
        self.points = int(starts[-1])
        self.columns = np.concatenate([np.arange(v.start, v.start + n)
                                       for v, n in zip(self.views, self.widths)])
        self.scale = np.concatenate([np.full(n, SQRT2 / (2.0 * g))
                                     for n, g in zip(self.widths, self.grids)])
        self.alias_free = all(g - 1 >= 2 * n for n, g in zip(self.widths, self.grids))


def to_grid(coeffs: np.ndarray, layout: GridLayout) -> np.ndarray:
    """Evaluate sum_k c_k e_k at the interior nodes j/G of each segment's grid
    via DST-I.

    Accepts batched input (..., layout.n_modes); returns (...,
    layout.points), each segment's values in its view.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] != layout.n_modes:
        raise ValueError(f"{coeffs.shape[-1]} coefficient columns do not match "
                         f"widths {layout.widths}")
    pad = np.zeros(coeffs.shape[:-1] + (layout.points,))
    pad[..., layout.columns] = coeffs
    _dst1(pad, layout.views)  # each segment's own DST-I
    # dst-I computes 2 sum_j x_j sin(pi j m / G); fold in the sqrt(2) basis factor
    pad *= SQRT2 / 2.0
    return pad


def from_grid(values: np.ndarray, layout: GridLayout) -> np.ndarray:
    """Sine coefficients of the trigonometric interpolant through grid values.

    Exact inverse of to_grid for band-limited input.  `values` has shape
    (..., layout.points); each segment keeps its first widths[i] modes.  The
    transforms run in place, so `values` is overwritten.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != layout.points:
        raise ValueError(f"{values.shape[-1]} grid columns do not match grids {layout.grids}")
    _dst1(values, layout.views)
    out = values.take(layout.columns, axis=-1)
    out *= layout.scale
    return out


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
