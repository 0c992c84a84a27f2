"""Cubic reaction term F(v) = a0 + a1 v + a2 v^2 + a3 v^3 and its Galerkin projection.

The projection is exact for band-limited input: the odd parts (a1 v, a3 v^3)
go through a dealiased DST-I round trip, the even parts (a0, a2 v^2) through
coefficient convolutions and the analytic cosine-to-sine projection.  The
structural inequality checkers at the bottom evaluate every inner product in
trig coefficient space, so their residuals carry no quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import spectral
from .spectral import SQRT2


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients (a0, a1, a2, a3) of the reaction polynomial.

    The cubic coefficient must satisfy a3 < 0, or a3 = 0 together with
    a2 = 0: a positive or lone-quadratic leading term has no one-sided
    dissipativity and the scheme's truncation argument does not apply.
    """

    a0: float
    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        vals = (self.a0, self.a1, self.a2, self.a3)
        if not all(isfinite(float(a)) for a in vals):
            raise ValueError(f"coefficients must be finite, got {vals}")
        if self.a3 > 0:
            raise ValueError(f"a3 must be <= 0, got {self.a3}")
        if self.a3 == 0 and self.a2 != 0:
            raise ValueError("a2 must vanish when a3 = 0")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (float(self.a0), float(self.a1), float(self.a2), float(self.a3))


def allen_cahn() -> CubicCoefficients:
    """F(v) = v - v^3."""
    return CubicCoefficients(0.0, 1.0, 0.0, -1.0)


def _odd_part_on_grid(u: np.ndarray, a1: float, a3: float) -> np.ndarray:
    """a1 u + a3 u^3 as u (a1 + a3 (u u)), built in one new array; a libm
    power is far slower than a product."""
    v = u * u
    v *= a3
    v += a1
    v *= u
    return v


# ---------------------------------------------------------------------------
# exact trigonometric coefficient algebra (unnormalized sin/cos series)
#
# Sine vectors b are indexed b[0] = 0, b[k] = coefficient of sin(k pi x);
# cosine vectors q have q[m] = coefficient of cos(m pi x), q[0] the constant.

def cos_coeffs_of_square(c: np.ndarray, sine: bool) -> np.ndarray:
    """Cosine series of (sum_m c_m cos(m pi x))^2, or with sine=True of
    (sum_k c_k sin(k pi x))^2 (then c[0] = 0); returns q[0..2M].

    2 f(a) f(b) = cos(a - b) + s cos(a + b), s = -1 for f = sin and +1 for
    f = cos: q[r] is the correlation sum_l c_{l+r} c_l plus s/2 times the
    convolution sum_{k+j=r} c_k c_j, and q[0] half of both.
    """
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0] - 1
    s = -1.0 if sine else 1.0
    conv = np.convolve(c, c)                       # conv[r] = sum_{k+j=r} c_k c_j
    corr = np.zeros(2 * m + 1)
    # corr[r] = sum_l c_{l+r} c_l; for sine input corr[M] = c_M c_0 is zero,
    # and it stays +0.0 rather than taking the sign of c_M
    for r in range(m if sine else m + 1):
        corr[r] = np.dot(c[r:], c[: c.shape[0] - r])
    q = np.zeros(2 * m + 1)
    q[0] = 0.5 * (corr[0] + s * conv[0])
    q[1:] = corr[1:] + (0.5 * s) * conv[1:]
    return q


def cos_to_sine_matrix(n_rows: int, n_cols: int) -> np.ndarray:
    """g[k, m] = <e_k, cos(m pi x)> for k = 1..n_rows, m = 0..n_cols-1.

    Closed form sqrt(2) (1 - (-1)^{k+m}) k / (pi (k^2 - m^2)); zero on the
    same-parity lattice, so the k = m diagonal never divides by zero.
    """
    k = np.arange(1, n_rows + 1)[:, None].astype(np.float64)
    m = np.arange(0, n_cols)[None, :].astype(np.float64)
    odd = (k + m) % 2 == 1
    denom = np.where(odd, k * k - m * m, 1.0)
    return np.where(odd, 2.0 * SQRT2 * k / (np.pi * denom), 0.0)


def constant_term_coeffs(n_modes: int) -> np.ndarray:
    """Sine coefficients of the constant function 1: sqrt(2)(1-(-1)^k)/(k pi)."""
    k = np.arange(1, n_modes + 1, dtype=np.float64)
    return SQRT2 * (1.0 - (-1.0) ** k) / (k * np.pi)


def project_F(coeffs: np.ndarray, a: CubicCoefficients,
              grid: spectral.GridLayout | None = None) -> np.ndarray:
    """First N sine coefficients of F(v) for band-limited v, exact to roundoff.

    Parameters
    ----------
    coeffs : array, shape (..., N)
        Sine coefficients of v; batched input is allowed.
    a : CubicCoefficients
    grid : spectral.GridLayout, optional
        Transform grids for the odd part.  Each segment of the layout
        (columns layout.modes[i]) is projected on its own, with the bits of a
        separate call per segment; the odd part u (a1 + a3 u^2) is formed
        once over the whole grid array.  The default is one segment of all
        N columns on spectral.default_grid(N).  Every segment needs
        grid-1 >= 2N, so that no frequency of the cube aliases onto a kept mode.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    layout = spectral.GridLayout(coeffs.shape[-1:]) if grid is None else grid
    if not layout.alias_free:
        raise ValueError(f"alias risk: need grid-1 >= 2N for each of widths "
                         f"{layout.widths}, got grids {layout.grids}")
    a0, a1, a2, a3 = a.as_tuple()
    if a1 != 0.0 or a3 != 0.0:
        out = spectral.from_grid(_odd_part_on_grid(spectral.to_grid(coeffs, layout), a1, a3),
                                 layout)
    else:
        out = np.zeros_like(coeffs)
    if a2 != 0.0:
        for seg in layout.modes:
            out[..., seg] += a2 * _even_part(coeffs[..., seg])
    if a0 != 0.0:
        out += a0 * np.concatenate([constant_term_coeffs(w) for w in layout.widths])
    return out


def _even_part(coeffs: np.ndarray) -> np.ndarray:
    """First N sine coefficients of v^2 for v = sum c_k e_k, (..., N), by
    coefficient convolution; the even part is off the hot path."""
    n = coeffs.shape[-1]
    g = cos_to_sine_matrix(n, 2 * n + 1)
    flat = coeffs.reshape(-1, n)
    proj = np.empty_like(flat)
    for i, row in enumerate(flat):
        b = np.concatenate(([0.0], SQRT2 * row))
        proj[i] = g @ cos_coeffs_of_square(b, sine=True)
    return proj.reshape(coeffs.shape)


# ---------------------------------------------------------------------------
# structural inequality checks

def monotonicity_constant(a: CubicCoefficients) -> float:
    """One-sided constant c with <v-w, A(v-w) + F(v)-F(w)> <= c ||v-w||^2."""
    a0, a1, a2, a3 = a.as_tuple()
    lead = abs(a3) if a3 != 0.0 else 1.0
    return 2.0 * max(1.0, 1.0 / lead) * max(1.0, max(abs(a1), 2.0 * abs(a2)) ** 2)


def check_monotonicity(
    v: np.ndarray, w: np.ndarray, a: CubicCoefficients, nu: float
) -> float:
    """Residual <v-w, A(v-w) + F(v)-F(w)> - c||v-w||^2; nonpositive up to roundoff."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError("v and w must be coefficient vectors of equal length")
    n = v.shape[0]
    d = v - w
    mu = spectral.eigenvalues(n, nu)
    quad = -np.dot(mu * d, d)
    drift = np.dot(d, project_F(v, a) - project_F(w, a))
    return quad + drift - monotonicity_constant(a) * np.dot(d, d)


def _f_difference_h_norm_sq(
    v: np.ndarray, w: np.ndarray, a: CubicCoefficients, uv: np.ndarray, uw: np.ndarray
) -> float:
    """||F(v) - F(w)||_H^2, exact: sine block + cosine block + mixed Gram term;
    uv and uw are v and w on a grid with G-1 >= 3N+1, which resolves the cube."""
    n = v.shape[0]
    a0, a1, a2, a3 = a.as_tuple()
    odd = _odd_part_on_grid(uv, a1, a3) - _odd_part_on_grid(uw, a1, a3)
    # normalized sine coeffs of the degree-3N odd part, exact
    s = spectral.from_grid(odd, spectral.GridLayout((3 * n,), (uv.shape[-1] + 1,)))
    total = float(np.dot(s, s))
    if a2 != 0.0:
        bv = np.concatenate(([0.0], SQRT2 * v))
        bw = np.concatenate(([0.0], SQRT2 * w))
        dq = a2 * (cos_coeffs_of_square(bv, sine=True) - cos_coeffs_of_square(bw, sine=True))
        total += dq[0] ** 2 + 0.5 * float(np.dot(dq[1:], dq[1:]))
        g = cos_to_sine_matrix(3 * n, 2 * n + 1)
        total += 2.0 * float(s @ (g @ dq))
    return total


def check_lipschitz(v: np.ndarray, w: np.ndarray, a: CubicCoefficients) -> float:
    """Residual of the polynomial Lipschitz bound in L^6-weighted form.

    ||F(v)-F(w)||_H^2 <= 36 max(|a1|,|a2|,|a3|)^2 ||v-w||_{L^6}^2
                         (1 + ||v||_{L^6}^4 + ||w||_{L^6}^4)
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError("v and w must be coefficient vectors of equal length")
    # grid-1 >= 3N+1, not default_grid: the whole cube and the L^6 norms are exact
    layout = spectral.GridLayout(v.shape, (spectral._fast_grid(3 * v.shape[0] + 2),))
    uv = spectral.to_grid(v, layout)
    uw = spectral.to_grid(w, layout)
    lhs = _f_difference_h_norm_sq(v, w, a, uv, uw)
    l6v = spectral.lq_norm_on_grid(uv, 6)
    l6w = spectral.lq_norm_on_grid(uw, 6)
    l6d = spectral.lq_norm_on_grid(uv - uw, 6)
    amax = max(abs(a.a1), abs(a.a2), abs(a.a3))
    rhs = 36.0 * amax**2 * l6d**2 * (1.0 + l6v**4 + l6w**4)
    return lhs - rhs


def check_coercivity_gradient(v: np.ndarray, a: CubicCoefficients, nu: float) -> float:
    """Residual of the gradient-weighted coercivity bound.

    -nu sum_{k=1..3} a_k <v'', v^k> = nu int v'(x)^2 (a1 + 2 a2 v + 3 a3 v^2) dx
    <= (|a1| + a2^2/(3|a3| or 1)) ||v||_{H_{1/2}}^2.

    Equality holds for a = (*, a1, 0, 0), which pins the constant.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("v must be a coefficient vector")
    n = v.shape[0]
    a0, a1, a2, a3 = a.as_tuple()
    k = np.arange(1, n + 1, dtype=np.float64)
    p = np.concatenate(([0.0], SQRT2 * v * k * np.pi))   # cos series of v'
    qp = cos_coeffs_of_square(p, sine=False)             # cos series of v'^2
    lhs = a1 * qp[0]
    if a2 != 0.0:
        g = cos_to_sine_matrix(n, 2 * n + 1)
        lhs += 2.0 * a2 * float(v @ (g @ qp))
    if a3 != 0.0:
        b = np.concatenate(([0.0], SQRT2 * v))
        qv = cos_coeffs_of_square(b, sine=True)
        lhs += 3.0 * a3 * (qp[0] * qv[0] + 0.5 * float(np.dot(qp[1:], qv[1:])))
    lhs *= nu
    lead = 3.0 * abs(a3) if a3 != 0.0 else 1.0
    h_half_sq = float(spectral.hr_norm(v, 0.5, nu) ** 2)
    rhs = (abs(a1) + a2**2 / lead) * h_half_sq
    return lhs - rhs


# ---------------------------------------------------------------------------
# randomized audit driver (shared by the CLI `check` command and the tests)

AUDIT_COEFFICIENT_SETS = (
    (0.0, 1.0, 0.0, -1.0),
    (0.5, -1.0, 0.0, 0.0),
    (1.0, 2.0, 3.0, -4.0),
    (2.0, 0.0, 0.0, -1.0),
    (0.0, 1.0, 0.0, 0.0),
)


def _random_coeff_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=np.float64)
    amp = rng.uniform(0.1, 2.0)
    return amp * rng.standard_normal(n) / k


def run_inequality_audit(name: str, trials: int = 1000, seed: int = 0) -> float:
    """Run `trials` randomized residual evaluations; returns the max residual.

    name is one of 'monotonicity', 'lipschitz', 'coercivity'.  A correct
    implementation keeps every residual at roundoff level below zero.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for t in range(trials):
        a = CubicCoefficients(*AUDIT_COEFFICIENT_SETS[t % len(AUDIT_COEFFICIENT_SETS)])
        n = int(rng.integers(1, 33))  # 1 to 32 modes
        v = _random_coeff_vector(rng, n)
        w = _random_coeff_vector(rng, n)
        nu = float(rng.uniform(0.3, 3.0))
        if name == "monotonicity":
            r = check_monotonicity(v, w, a, nu)
        elif name == "lipschitz":
            r = check_lipschitz(v, w, a)
        elif name == "coercivity":
            r = check_coercivity_gradient(v, a, nu)
        else:
            raise ValueError(f"unknown audit {name!r}")
        worst = max(worst, float(r))
    return worst
