"""Sine spectral basis for the interval (0,1) with Dirichlet boundary.

Functions are represented by coefficients against e_k(x) = sqrt(2) sin(k pi x),
k = 1..N, which diagonalize A = nu * d^2/dx^2 with eigenvalues -mu_k,
mu_k = nu pi^2 k^2.  Everything here is float64 numpy on plain arrays.
weighted_norm (behind hr_norm), whose loop body is _RowNorms, is the only
arithmetic of the H_r norms ||(-A)^r v||_H: the scheme's taming indicator,
the moment audit and the coercivity check all use it.
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
    H_r norm arithmetic, written to `out` (shape X.shape[:-1], contiguous) if
    given; a scalar for one vector.  With `segments`, slices of the last
    axis, each row has one norm per segment, shape (..., len(segments)).
    Runs of the flattened rows, at most 2^15 values or one row, are squared
    and weighted in one pass; each row and segment is then reduced on its
    own, straight into `out`, so its bits do not depend on its neighbours.
    An `out` of another shape, or one whose rows are not one view, is refused."""
    segs = (slice(None),) if segments is None else segments
    shape = X.shape[:-1] + (() if segments is None else (len(segs),))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous array of shape {shape}, "
                         f"got shape {out.shape}")
    rows, flat = X.reshape(-1, X.shape[-1]), out.reshape(-1, len(segs))
    k = (1 << 15) // X.shape[-1] or 1
    for s in range(0, len(rows), k):
        run = rows[s:s + k]
        _RowNorms(w, run.shape, segs, flat[s:s + k])(run)
    return out[()]  # [()]: a 0-d result as a scalar


class _RowNorms:
    """weighted_norm of (rows, N) blocks X of one shape into `out` (rows,
    len(segments)), with the square buffer and each segment's views made
    once, for a loop that takes one such block per step: each call squares
    and weights X into the buffer, reduces each segment's view into its
    column of `out`, and takes the roots in place.  Returns `out`."""

    def __init__(self, w: np.ndarray, shape, segments, out: np.ndarray):
        self.w, self.sq, self.out = w, np.empty(shape), out
        self.views = [(self.sq[:, seg], out[:, r]) for r, seg in enumerate(segments)]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        np.multiply(X, X, out=self.sq)
        self.sq *= self.w
        for sq, dst in self.views:
            np.add.reduce(sq, axis=1, out=dst)
        return np.sqrt(self.out, out=self.out)


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
