"""Independent slow-path oracles used to pin values in the test suite.

Everything here is deliberately naive: termwise integer combinatorics and
arbitrary-precision arithmetic, no transforms, no shared code paths with the
package. Costs are O(N^4) and worse; keep inputs small.  The last sections
hold the few helpers that do read the package or repeat its arithmetic: one
mode of its closed form, the quadrature it is checked against, the scalar
form of the vectorized temporal lower bound, an OU moment built on the
per-mode variances below, the scheme stepped one whole step at a time, the
odd part of project_F through scipy.fft's DST-I, the closed-form terminal
variance of the discretized OU, and a Monte Carlo estimate of the temporal
OU error through an exact bridge coupling to the package's noise tape (its
own per-path loop, not the study engine's).
"""
import math

import mpmath as mp
import numpy as np
import scipy.fft

from spde1d import heat_errors, nonlinearity, spectral
from spde1d.noise import (SUBSTREAM_AUX, SUBSTREAM_INCREMENTS, NoiseTape, mean_stderr,
                          sum_and_m2)


def sine_integral(m):
    """int_0^1 sin(m pi x) dx for integer m, elementwise; odd in m."""
    m = np.asarray(m)
    out = np.zeros(m.shape, dtype=float)
    odd = m % 2 != 0
    out[odd] = 2.0 / (np.pi * m[odd])
    return out


def cos_cos_integral(p, q):
    """int_0^1 cos(p pi x) cos(q pi x) dx for integer p, q, elementwise."""
    p = np.abs(np.asarray(p))
    q = np.abs(np.asarray(q))
    both_zero = (p == 0) & (q == 0)
    return np.where(both_zero, 1.0, np.where(p == q, 0.5, 0.0))


def project_cubic_oracle(coeffs, c):
    """Sine coefficients of P_N (a0 + a1 v + a2 v^2 + a3 v^3), brute force.

    v = sum c_k sqrt(2) sin(k pi x). Triple and quadruple sine products are
    integrated analytically through product-to-sum identities, one (i, j[, l])
    mesh per output mode.
    """
    a0, a1, a2, a3 = (float(a) for a in coeffs)
    c = np.asarray(c, dtype=float)
    n = c.size
    k_idx = np.arange(1, n + 1)
    b = a0 * math.sqrt(2.0) * sine_integral(k_idx) + a1 * c
    if a2 != 0.0:
        i = k_idx[:, None]
        j = k_idx[None, :]
        cc = c[:, None] * c[None, :]
        for t, k in enumerate(k_idx):
            # int e_i e_j e_k = 2 sqrt(2) * (1/4) [S(k+i-j)+S(k-i+j)-S(k+i+j)-S(k-i-j)]
            trip = (sine_integral(k + i - j) + sine_integral(k - i + j)
                    - sine_integral(k + i + j) - sine_integral(k - i - j))
            b[t] += a2 * (math.sqrt(2.0) / 2.0) * float(np.sum(cc * trip))
    if a3 != 0.0:
        i = k_idx[:, None, None]
        j = k_idx[None, :, None]
        l = k_idx[None, None, :]
        ccc = c[:, None, None] * c[None, :, None] * c[None, None, :]
        for t, k in enumerate(k_idx):
            # int e_i e_j e_l e_k = C(i-j,l-k) - C(i-j,l+k) - C(i+j,l-k) + C(i+j,l+k)
            quad = (cos_cos_integral(i - j, l - k) - cos_cos_integral(i - j, l + k)
                    - cos_cos_integral(i + j, l - k) + cos_cos_integral(i + j, l + k))
            b[t] += a3 * float(np.sum(ccc * quad))
    return b


def hr_norm_mp(c, r, nu, dps=50):
    """H_r norm of sum c_k e_k at dps decimal digits, returned as float."""
    with mp.workdps(dps):
        nu_mp = mp.mpf(nu)
        total = mp.mpf(0)
        for k, ck in enumerate(np.asarray(c, dtype=float), start=1):
            mu = nu_mp * mp.pi**2 * k**2
            total += mu ** (2 * mp.mpf(r)) * mp.mpf(ck) ** 2
        return float(mp.sqrt(total))


def temporal_mode_mp(M, k, T, nu, dps=60):
    """Closed-form per-mode temporal error integral in mp arithmetic.

    sum_j int_{t_j}^{t_{j+1}} (e^{-mu(T-s)} - e^{-mu(T-t_j)})^2 ds evaluated
    as a geometric sum; at dps=60 the small-x cancellation is harmless.
    """
    with mp.workdps(dps):
        mu = mp.mpf(nu) * mp.pi**2 * k**2
        h = mp.mpf(T) / M
        x = mu * h
        G = (1 - mp.e**(-2 * mu * T)) / (1 - mp.e**(-2 * x))
        J = mp.e**(-2 * x) * ((mp.e**(2 * x) - 1) / 2 - 2 * (mp.e**x - 1) + x) / mu
        return float(G * J)


def temporal_mode_quad_mp(M, k, T, nu, dps=40):
    """Same integral by direct mp.quad on each step interval (no closed form)."""
    with mp.workdps(dps):
        mu = mp.mpf(nu) * mp.pi**2 * k**2
        h = mp.mpf(T) / M
        total = mp.mpf(0)
        for j in range(M):
            t = j * h
            total += mp.quad(
                lambda s: (mp.e**(-mu * (T - s)) - mp.e**(-mu * (T - t)))**2,
                [t, t + h])
        return float(total)


def spatial_tail_mp(N, T, nu, dps=40):
    """sum_{k>N} (1 - e^{-2 mu_k T}) / (2 mu_k) via mp.nsum, as float."""
    with mp.workdps(dps):
        nu_mp = mp.mpf(nu)
        T_mp = mp.mpf(T)

        def term(k):
            mu = nu_mp * mp.pi**2 * k**2
            return (1 - mp.e**(-2 * mu * T_mp)) / (2 * mu)

        return float(mp.nsum(term, [N + 1, mp.inf]))


def ou_pair_mismatch_brute(M, M_ref, N, N_ref, T, nu):
    """E||O^{ref}(t_m) - O(t_m)||^2 on the coarse grid, O(M_ref N_ref) per time.

    Walks the fine grid once per mode accumulating the variance of the
    kernel difference; the package's closed-form recursion must match this.
    """
    r = M_ref // M
    h_f = T / M_ref
    out = np.zeros(M + 1)
    for k in range(1, N_ref + 1):
        mu = nu * math.pi**2 * k**2
        for m in range(1, M + 1):
            t = m * (T / M)
            acc = 0.0
            for j in range(m * r):
                s = j * h_f
                fine = math.exp(-mu * (t - s))
                if k <= N:
                    coarse_left = math.floor(s / (T / M)) * (T / M)
                    coarse = math.exp(-mu * (t - coarse_left))
                else:
                    coarse = 0.0
                acc += h_f * (fine - coarse) ** 2
            out[m] += acc
    return out


# ---------------------------------------------------------------------------
# helpers on top of the package

def temporal_mode_integral(M, k, T, nu):
    """Exact squared temporal error carried by mode k after M steps (package closed form)."""
    mu = np.array([nu * math.pi**2 * k * k])
    return float(heat_errors._temporal_mode_terms(mu, M, T)[0])


def temporal_mode_integral_quadrature(M, k, T, nu):
    """Adaptive quadrature of the defining integral, step by step, in double precision."""
    from scipy.integrate import quad

    mu = nu * math.pi**2 * k * k
    h = T / M
    pieces = []
    for j in range(M):
        t0 = j * h

        def integrand(s, t0=t0):
            return math.exp(-2 * mu * (T - s)) * (-math.expm1(-mu * (s - t0))) ** 2

        val, _ = quad(integrand, t0, t0 + h, epsabs=1e-16, epsrel=1e-13, limit=200)
        pieces.append(val)
    return math.fsum(pieces)


def lower_temporal_sq_scalar(M, N, T, nu, denom_factor):
    """One cell of heat_errors._lower_temporal_sq in scalar libm arithmetic (N int or "all")."""
    ratio_n2 = math.inf if N == "all" else T * N**2 / (2 * M)
    ratio_np1 = math.inf if N == "all" else T * (N + 1) ** 2 / (2 * M)
    damp = -math.expm1(-nu * math.pi**2 * min(1.0, ratio_n2))
    c = math.sqrt(T) * -math.expm1(-nu * math.pi**2 * T) * damp**2 \
        / (denom_factor * nu * math.pi**2 * math.sqrt(2))
    a = (1 + math.sqrt(T)) ** 2
    upper_limit = max(0.0, ratio_np1 - (1 + math.sqrt(T / (2 * M))) ** 2)
    integral = 2 * c * (1 / math.sqrt(a) - 1 / math.sqrt(upper_limit + a))
    return integral / math.sqrt(M)


def ou_second_moment(n_steps, n_modes, T, nu, r=0.0):
    """E ||O_T||_{H_r}^2 of the zero-initial discretized OU, from ou_variance_discrete."""
    mu = spectral.eigenvalues(n_modes, nu)
    return float(np.sum(mu ** (2 * r) * ou_variance_discrete(n_steps, n_modes, T, nu)))


def run_scheme_stepwise(model, d, dw, start=None):
    """The truncated exponential Euler scheme one step at a time: per step,
    O and Y advance together and the indicator is taken from both norms.

    dw is (P, k, N); start=(Y, O) of shape (P, N), else Y_0 = O_0 = P_N xi.
    Returns (Y rows (P, k+1, N), O rows (P, k+1, N), suppressed per path,
    indicator (k, P)).  The recursion is the one in scheme's module
    docstring; the indicator is written out here, not taken from scheme.
    """
    dw = np.asarray(dw, dtype=np.float64)
    paths, steps, n = dw.shape
    h = model.T / d.M
    decay = spectral.semigroup_factors(n, model.nu, h)
    phi = spectral.phi1_factors(n, model.nu, h)
    w = spectral.eigenvalues(n, model.nu) ** (2 * d.gamma)
    thr = d.threshold(model.T)
    drift_on = any(v != 0 for v in model.a.as_tuple())
    if start is None:
        start = (np.tile(model.xi_projected(n), (paths, 1)),) * 2
    y, o = (np.array(x, dtype=np.float64) for x in start)
    ys, os_, ons = [y], [o], []
    for m in range(steps):
        o_next = decay * (o + dw[:, m])
        y_next = decay * y + o_next - decay * o
        on = (np.sqrt((w * (y * y)).sum(axis=-1))
              + np.sqrt((w * (o * o)).sum(axis=-1))) <= thr
        if drift_on and on.any():
            y_next[on] += phi * nonlinearity.project_F(y[on], model.a,
                                                       spectral.GridLayout((n,)))
        y, o = y_next, o_next
        ys.append(y)
        os_.append(o)
        ons.append(on)
    ons = np.array(ons, dtype=bool).reshape(steps, paths)
    return (np.stack(ys, axis=1), np.stack(os_, axis=1), steps - ons.sum(axis=0), ons)


def project_F_reference(coeffs, a1, a3, grid):
    """First N sine coefficients of a1 v + a3 v^3 for v = sum c_k e_k, (..., N),
    as one expression per stage: evaluate v on the grid by scipy.fft's DST-I,
    form u (a1 + a3 (u u)) there, transform back and keep the first N modes.
    project_F's odd part must give these bits."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[-1]
    pad = np.zeros(coeffs.shape[:-1] + (grid - 1,))
    pad[..., :n] = coeffs
    u = scipy.fft.dst(pad, type=1, axis=-1) * (math.sqrt(2.0) / 2.0)
    v = u * (a1 + a3 * (u * u))
    return (scipy.fft.dst(v, type=1, axis=-1) * (math.sqrt(2.0) / (2.0 * grid)))[..., :n]


# ---------------------------------------------------------------------------
# moments of the discretized OU process O^{M,N}

def ou_variance_discrete(n_steps: int, n_modes: int, T: float, nu: float) -> np.ndarray:
    """Per-mode Var(O_T) for the zero-initial discretized OU after n_steps steps.

    Closed form of sum_{j=1..M} h e^{-2 mu j h}.  The step O -> e^{hA}(O +
    Delta W) is the exponential Euler OU, not exact in law: this is the
    continuum (1 - e^{-2 mu T})/(2 mu) times 2 mu h/(e^{2 mu h} - 1) < 1,
    so a mode with mu h >> 1 keeps almost none of its variance.
    """
    h = T / n_steps
    mu = spectral.eigenvalues(n_modes, nu)
    return h * np.exp(-2 * mu * h) * np.expm1(-2 * mu * T) / np.expm1(-2 * mu * h)


# ---------------------------------------------------------------------------
# exact coupling of the true stochastic convolution to the tape
#
# For mode k on step j the integral I_j = int e^{-mu(T-s)} dW(s) is jointly
# Gaussian with the step increment; conditioning gives
#   I_j = alpha_j Delta W_j + beta_j Z_j,   Z_j fresh standard normal,
# with alpha_j h = Cov(I_j, Delta W_j) and beta_j^2 = Var I_j - alpha_j^2 h.
# Summing I_j - e^{-mu(T - t_j)} Delta W_j over j realizes the difference
# P_N O_T - O^{M,N}_T pathwise with the exact joint law.

def _bridge_coefficients(n_steps: int, n_modes: int, T: float, nu: float):
    h = T / n_steps
    mu = spectral.eigenvalues(n_modes, nu)
    j = np.arange(n_steps, dtype=np.float64)[:, None]
    e_end = np.exp(-mu * (T - (j + 1) * h))
    e_start = np.exp(-mu * (T - j * h))
    var_i = e_end**2 * (-np.expm1(-2 * mu * h)) / (2 * mu)
    alpha = e_end * (-np.expm1(-mu * h)) / (mu * h)
    beta = np.sqrt(np.maximum(var_i - alpha**2 * h, 0.0))
    coef_z = (alpha - e_start) * np.sqrt(h)  # multiplies the increment normal
    return coef_z, beta


def bridge_estimate(seed: int, n_steps: int, n_modes: int, T: float, nu: float,
                    paths: int) -> tuple[float, float]:
    """MC estimate of ||P_N O_T - O^{M,N}_T||_{L^2(P;H)} with delta-method stderr.

    Uses a master tape at exactly (n_steps, n_modes); the coupling above makes
    the estimator unbiased for the closed-form value, so agreement within
    Monte Carlo error is a two-sided validation of both constructions.
    """
    coef_z, beta = _bridge_coefficients(n_steps, n_modes, T, nu)
    samples = []
    for p in range(paths):
        tape = NoiseTape(seed=seed, M_master=n_steps, N_master=n_modes, T=T, path=p)
        z = tape.normals(substream=SUBSTREAM_INCREMENTS)
        resid = tape.normals(substream=SUBSTREAM_AUX)
        gap = np.einsum("jk,jk->k", coef_z, z) + np.einsum("jk,jk->k", beta, resid)
        samples.append(float(np.dot(gap, gap)))
    return mean_stderr(*sum_and_m2(samples), paths, root=True)
