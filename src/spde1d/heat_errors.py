"""Exact strong errors and sharp bounds for linear stochastic heat equations.

For the linear equation (zero drift) the approximation error of the spectral
exponential scheme is a Gaussian quantity with a closed-form second moment:
the Ito isometry turns E||P_N O_T - O^{M,N}_T||^2 into a deterministic time
integral that is piecewise elementary, and the spatial truncation error is an
explicit eigenvalue series.  This module evaluates those expressions to
machine precision, together with lower/upper bounds that pin the M^{-1/4}
and N^{-1/2} rates from both sides.  It is the ground truth the Monte Carlo
machinery is tested against.

Conventions: errors are L^2(P; H) norms (square roots of summed per-mode
variances); N may be the string "all" to include every spatial mode.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import polygamma

from . import spectral

ALL_MODES = "all"

# Most modes one exact evaluation may hold in a vector.  Every grid the
# tests and benchmarks use stays under 5000; far above that, tiny nu or huge
# N would otherwise ask for gigabytes (the series branch of the temporal
# terms holds a (modes, 43) table).
MAX_MODES = 100_000
# Most float values any one array of a run may hold (512 MiB of float64), checked
# before it is allocated.  The largest arrays of the tests, CI, demos and
# benchmarks hold about 2^21 values.
MAX_VALUES = 2**26
# Largest M or N accepted: the closed forms take 2M and N + 64 as floats.
MAX_COUNT = int(sys.float_info.max) // 2

# x = mu*h below this uses the Taylor branch of the per-mode integral J;
# branches agree to ~1e-15 at the crossover
_J_SERIES_CUTOFF = 0.5
# Taylor coefficients (2^{n-1} - 2)/n! for n = 3..45; at x = 0.5 the dropped
# n = 46 term is below 1e-30 relative
_J_SERIES_N = np.arange(3, 46)
_J_SERIES_COEFFS = np.array(
    [(2.0 ** (n - 1) - 2.0) / math.factorial(n) for n in _J_SERIES_N]
)


def _validate_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _int_at_least(value, requirement: str, least: int = 1, most: int = MAX_COUNT) -> int:
    """value as an int, if it is a number (not a bool) with an integral value
    in [least, most]."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = least - 1
    if n != value or n < least or isinstance(value, bool):
        raise ValueError(f"{requirement}, got {value!r}")
    if n > most:
        raise ValueError(f"{requirement}, at most {most:.6g}; "
                         f"got a {len(str(n))}-digit integer")
    return n


def _number(value, name: str) -> float:
    """value as a float, if it is an int or a float (not a bool or a string)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _mode_count(N) -> int | None:
    """None means every mode ("all")."""
    if N == ALL_MODES:
        return None
    return _int_at_least(N, "N must be a positive integer or 'all'")


def _check_modes(count: float, what: str) -> None:
    """Refuse, before allocating, a mode vector longer than MAX_MODES."""
    if not count <= MAX_MODES:  # inf and nan too
        raise ValueError(f"{what} needs {count:.6g} modes, more than the limit "
                         f"of {MAX_MODES}")


def _check_values(count: float, what: str) -> None:
    """Refuse, before allocating, an array of more than MAX_VALUES floats;
    count is a float, so a product of huge counts is inf, not an error."""
    if not count <= MAX_VALUES:
        raise ValueError(f"{what} needs {count:.6g} values in one array, more than "
                         f"the limit of {MAX_VALUES}")


def _fsum(values) -> float:
    # compensated accumulation keeps the 1e-12 sandwich tolerances honest
    return math.fsum(np.asarray(values, dtype=np.float64).tolist())


# ---------------------------------------------------------------------------
# temporal error: exact per-mode integrals

def _temporal_mode_terms(mu: np.ndarray, M: int, T: float,
                         g_numer: np.ndarray | None = None) -> np.ndarray:
    """Per-mode value of int_0^T e^{-2 mu (T-s)} (1 - e^{-mu (s - floor(s))})^2 ds.

    Factorizes as G * J: G sums the geometric decay over steps, J is the
    single-step integral.  J cancels catastrophically for small x = mu*h
    (three terms of size 1 leaving O(x^3)), hence the series branch; the
    closed branch is written against e^{-x} only so it cannot overflow.
    G's numerator expm1(-2 mu T) does not depend on M: a caller that reuses
    mu for several M passes it as g_numer.  expm1(-2x) is G's denominator
    and J's first term, and e^{-2x} serves both branches of J.
    """
    h = T / M
    x = mu * h
    expm1_2x = np.expm1(-2 * x)
    G = (np.expm1(-2 * mu * T) if g_numer is None else g_numer) / expm1_2x
    exp_2x = np.exp(-2 * x)

    J = np.empty_like(mu)
    small = x < _J_SERIES_CUTOFF
    if np.any(small):
        xs = x[small]
        powers = xs[:, None] ** _J_SERIES_N[None, :]
        # ascending-term series; sum smallest terms first
        series = (powers * _J_SERIES_COEFFS[None, :])[:, ::-1].sum(axis=1)
        J[small] = exp_2x[small] * series / mu[small]
    big = ~small
    if np.any(big):
        xb, exp_2xb = x[big], exp_2x[big]
        J[big] = (
            -expm1_2x[big] / 2
            - 2 * (np.exp(-xb) - exp_2xb)
            + xb * exp_2xb
        ) / mu[big]
    return G * J


def _all_modes_cutoff(M: int, T: float, nu: float) -> int:
    """Modes summed explicitly for N = "all": every mode with mu_k h < 45, and at least 8."""
    k_max = math.sqrt(45.0 / (nu * math.pi**2 * (T / M)))
    _check_modes(k_max, f"the temporal error at M={M}, N='all'")  # before ceil: k_max may be inf
    return max(8, math.ceil(k_max))


def _trigamma_tail(cutoff: int, nu: float) -> float:
    """sum_{k > cutoff} 1/(2 mu_k), in closed form."""
    # a float: scipy takes no int beyond int64; below 2^53 the bits are the int's
    return float(polygamma(1, float(cutoff + 1))) / (2 * nu * math.pi**2)


def temporal_error_exact(M: int, N, T: float, nu: float) -> float:
    """||P_N O_T - O^{M,N}_T||_{L^2(P;H)}, exactly.

    For N = "all" the per-mode terms approach the full mode variance
    1/(2 mu_k) once mu_k h >> 1 (the scheme resolves nothing above the step
    frequency), so modes beyond mu_k h >= 45 are summed in closed form via
    the trigamma function; the swap error is of relative size e^{-90}.
    """
    _validate_positive(T=T, nu=nu)
    M = _int_at_least(M, "M must be a positive integer")
    n = _mode_count(N)
    if n is not None:
        _check_modes(n, f"the temporal error at N={n}")
        return math.sqrt(_fsum(_temporal_mode_terms(spectral.eigenvalues(n, nu), M, T)))
    cutoff = _all_modes_cutoff(M, T, nu)
    terms = _temporal_mode_terms(spectral.eigenvalues(cutoff, nu), M, T)
    return math.sqrt(_fsum(terms) + _trigamma_tail(cutoff, nu))


# ---------------------------------------------------------------------------
# spatial error: eigenvalue tail series

@np.errstate(over="ignore")  # mu_k past k ~ 1e154 is inf, whose term 1/inf = 0 is right
def spatial_error_exact(N: int, T: float, nu: float) -> float:
    """||O_T - P_N O_T||_{L^2(P;H)} = sqrt(sum_{k>N} (1 - e^{-2 mu_k T})/(2 mu_k)).

    Modes up to a cutoff K are summed explicitly; the remaining pure
    1/(2 mu_k) tail is added in closed form (trigamma), so the only neglect is
    the exponentially small sum_{k>K} e^{-2 mu_k T}/(2 mu_k), kept below 1e-12
    of the total (the explicit range grows if ever needed).
    """
    _validate_positive(T=T, nu=nu)
    N = _int_at_least(N, "N must be a nonnegative integer", least=0)
    k_min = math.sqrt(22.5 / (nu * math.pi**2 * T))
    _check_modes(k_min - N, f"the spatial error at N={N}")
    cutoff = max(N + 64, math.ceil(k_min))
    while True:
        _check_modes(cutoff - N, f"the spatial error at N={N}")
        mu = spectral.eigenvalues(cutoff + 1, nu, first=N + 1)  # mu_{N+1}..mu_{K+1}
        explicit = _fsum(-np.expm1(-2 * mu[:-1] * T) / (2 * mu[:-1]))
        total = explicit + _trigamma_tail(cutoff, nu)
        # neglected part <= e^{-2 mu_{K+1} T} * (pi^2/6)/(2 nu pi^2)
        neglected = math.exp(-2 * mu[-1] * T) / (12 * nu)
        if neglected <= 1e-12 * total:
            return math.sqrt(total)
        cutoff *= 2


def full_error_exact(M: int, N, T: float, nu: float) -> float:
    """||O_T - O^{M,N}_T||_{L^2(P;H)}: Pythagorean sum of the two error parts.

    The spatial remainder (I - P_N) O_T and the resolved-mode mismatch are
    independent Gaussians, so the squares add.  N = "all" collapses to the
    temporal error; the M -> infinity limit is spatial_error_exact.
    """
    n = _mode_count(N)
    if n is None:
        return temporal_error_exact(M, ALL_MODES, T, nu)
    return math.hypot(temporal_error_exact(M, n, T, nu), spatial_error_exact(n, T, nu))


# ---------------------------------------------------------------------------
# sharp bounds

def bound_upper_temporal(M: int, T: float, nu: float) -> float:
    _validate_positive(T=T, nu=nu)
    M = _int_at_least(M, "M must be a positive integer")
    const = math.sqrt(T) / 2 * (
        1 / (math.pi * math.sqrt(nu)) + 1 / (nu * math.pi**2)
        + 4 * math.pi * math.sqrt(nu)
    )
    return M ** -0.25 * math.sqrt(const)


@np.errstate(over="ignore")  # n^2 past 1e154 is inf: the value of N = "all"
def _lower_temporal_sq(M: int, n, T: float, nu: float) -> np.ndarray:
    """Closed form of M^{-1/2} int_0^X c / (x+a)^{3/2} dx via -2(x+a)^{-1/2}.

    One value per entry of n, the mode counts as floats (inf for every
    mode).  The damping factor takes math.expm1 and a Python square entry by
    entry: numpy's SIMD expm1 and its x*x square differ from libm in the
    last bit on some of these inputs, and the CSV bytes are libm's.  Every
    entry with T n^2/(2M) >= 1 is clipped to 1 and shares one value.
    """
    n = np.asarray(n, dtype=np.float64)
    ratio_n2 = T * n**2 / (2 * M)
    ratio_np1 = T * (n + 1) ** 2 / (2 * M)
    rate = -nu * math.pi**2
    clipped = (-math.expm1(rate)) ** 2
    damp_sq = np.array([clipped if r >= 1.0 else (-math.expm1(rate * r)) ** 2
                        for r in ratio_n2.tolist()])
    c = math.sqrt(T) * -math.expm1(-nu * math.pi**2 * T) * damp_sq \
        / (8 * nu * math.pi**2 * math.sqrt(2))
    a = (1 + math.sqrt(T)) ** 2
    upper_limit = np.maximum(0.0, ratio_np1 - (1 + math.sqrt(T / (2 * M))) ** 2)
    integral = 2 * c * (1 / math.sqrt(a) - 1 / np.sqrt(upper_limit + a))
    return integral / math.sqrt(M)


def bound_lower_temporal(M: int, N, T: float, nu: float) -> float:
    _validate_positive(T=T, nu=nu)
    M = _int_at_least(M, "M must be a positive integer")
    n = _mode_count(N)
    return math.sqrt(_lower_temporal_sq(M, [math.inf if n is None else n], T, nu)[0])


def bound_lower_spatial(N: int, T: float, nu: float) -> float:
    _validate_positive(T=T, nu=nu)
    N = _int_at_least(N, "N must be a positive integer")
    return math.sqrt(-math.expm1(-nu * T)) / (2 * math.pi * math.sqrt(nu) * math.sqrt(N))


def bound_upper_spatial(N: int, T: float, nu: float) -> float:
    _validate_positive(T=T, nu=nu)
    N = _int_at_least(N, "N must be a positive integer")
    return 1.0 / (math.pi * math.sqrt(2 * nu) * math.sqrt(N))


def bounds_full(M: int, N: int, T: float, nu: float) -> tuple[float, float]:
    """(lower, upper) for the combined space-time error: the lower bound is
    half the sum of the two one-axis lower bounds (the temporal constant
    weakened 8 -> 32, whose square root halves it, and the spatial one
    halved), the upper bound their sum."""
    _validate_positive(T=T, nu=nu)
    M = _int_at_least(M, "M must be a positive integer")
    N = _int_at_least(N, "N must be a positive integer")
    lower = (bound_lower_temporal(M, N, T, nu) + bound_lower_spatial(N, T, nu)) / 2
    upper = bound_upper_temporal(M, T, nu) + bound_upper_spatial(N, T, nu)
    return lower, upper


# ---------------------------------------------------------------------------
# monotonicity of the Hilbert-Schmidt factors

def _hs_factor_sq(N: int, s: float, t: float, nu: float = 1.0) -> float:
    """sum_{k<=N} ||e^{sA}(Id - e^{tA}) e_k||^2 = sum e^{-2 mu s}(1-e^{-mu t})^2."""
    mu = spectral.eigenvalues(N, nu)
    return _fsum(np.exp(-2 * mu * s) * np.expm1(-mu * t) ** 2)


def hs_factor_monotone_in_semigroup_time(N: int, s1: float, s2: float, t: float,
                                         nu: float = 1.0) -> bool:
    """True iff the factor does not grow when the semigroup time s1 -> s2 >= s1."""
    if not (0 <= s1 <= s2):
        raise ValueError(f"need 0 <= s1 <= s2, got {s1}, {s2}")
    return _hs_factor_sq(N, s2, t, nu) <= _hs_factor_sq(N, s1, t, nu)


def hs_factor_monotone_in_increment_time(N: int, s: float, t1: float, t2: float,
                                         nu: float = 1.0) -> bool:
    """True iff the factor does not shrink when the increment time t1 -> t2 >= t1."""
    if not (0 <= t1 <= t2):
        raise ValueError(f"need 0 <= t1 <= t2, got {t1}, {t2}")
    return _hs_factor_sq(N, s, t1, nu) <= _hs_factor_sq(N, s, t2, nu)


def run_hs_monotonicity_audit(trials: int = 200, seed: int = 0) -> int:
    """Randomized audit of both monotonicity directions; returns violation count."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        N = int(rng.integers(1, 65))  # 1 to 64 modes
        nu = float(rng.uniform(0.25, 4.0))
        a, b = np.sort(rng.uniform(0.0, 2.0, size=2))
        t = float(rng.uniform(0.0, 2.0))
        if not hs_factor_monotone_in_semigroup_time(N, float(a), float(b), t, nu):
            violations += 1
        if not hs_factor_monotone_in_increment_time(N, t, float(a), float(b), nu):
            violations += 1
    return violations


# ---------------------------------------------------------------------------
# mismatch between two nested discretizations of the same noise

def ou_pair_mismatch_exact(M: int, M_ref: int, N: int, N_ref: int,
                           T: float, nu: float) -> np.ndarray:
    """E||O^{M_ref,N_ref}_t - O^{M,N}_t||_H^2 at the coarse grid times, exactly.

    Both processes start from O_0 = 0 and integrate the same noise against
    step-frozen decay profiles, so the squared gap is a deterministic sum.
    One law covers every reference mode k = 1..N_ref: the gap variance obeys
    V(m+1) = e^{-2 mu h} V(m) + S_k, so V(m) = S_k expm1(-2 mu m h) /
    expm1(-2 mu h).  The per-step injection is the within-step profile
    difference, S_k = h_f sum_{i<r} (e^{-mu (h - i h_f)} - c_k e^{-mu h})^2
    with r = M_ref/M, h_f = T/M_ref, c_k = 1 on the kept modes k <= N and 0
    above N, where S_k is the reference's own exponential-Euler variance
    injected per coarse step.  Another reference law changes S_k only.  A
    start P xi != 0 would add e^{-2 mu_k t} xi_k^2 for N < k <= N_ref, a
    term this function leaves out.  Shape of the result: (M+1,), entry m at
    time mT/M.
    """
    _validate_positive(T=T, nu=nu)
    M = _int_at_least(M, "M must be a positive integer")
    M_ref = _int_at_least(M_ref, "M_ref must be a positive integer")
    N = _int_at_least(N, "N must be a nonnegative integer", least=0)
    N_ref = _int_at_least(N_ref, "N_ref must be a nonnegative integer", least=0)
    if M_ref % M != 0:
        raise ValueError(f"M must divide M_ref, got {M} vs {M_ref}")
    if not N <= N_ref:
        raise ValueError(f"need 0 <= N <= N_ref, got {N} vs {N_ref}")
    _check_modes(N_ref, f"the OU mismatch at N_ref={N_ref}")
    _check_values(float(max(M + 1, M_ref // M)) * max(N_ref, 1),
                  f"the OU mismatch at M={M}, M_ref={M_ref}")
    h, h_f, r = T / M, T / M_ref, M_ref // M
    mu = spectral.eigenvalues(N_ref, nu) if N_ref else np.empty(0)
    kept = np.arange(N_ref) < N  # c_k
    i = np.arange(r, dtype=np.float64)[:, None]
    injection = h_f * np.sum((np.exp(-mu * (h - i * h_f)) - kept * np.exp(-mu * h)) ** 2, axis=0)
    m_times = np.arange(M + 1, dtype=np.float64)[:, None] * h
    return np.expm1(-2 * mu * m_times) / np.expm1(-2 * mu * h) @ injection


# ---------------------------------------------------------------------------
# rate fitting and report rows

@dataclass(frozen=True)
class RateFit:
    """Least-squares power law through (resolution, error) points in log-log."""
    slope: float
    intercept: float
    residual: float  # RMS of log-space residuals
    points: tuple = ()

    def as_dict(self, axis: str) -> dict:
        return {
            "axis": axis,
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "points": [[float(r), float(v)] for r, v in self.points],
        }


def fit_rate(errors: dict) -> RateFit:
    """OLS fit of log(error) against log(resolution); needs >= 3 positive points."""
    if len(errors) < 3:
        raise ValueError(f"need at least 3 points to fit a rate, got {len(errors)}")
    res = np.array(sorted(errors.keys()), dtype=np.float64)
    vals = np.array([errors[r] for r in sorted(errors.keys())], dtype=np.float64)
    if np.any(res <= 0) or np.any(vals <= 0):
        raise ValueError("resolutions and errors must be positive for a log-log fit")
    x = np.log(res)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
        points=tuple(zip(res.tolist(), vals.tolist())),
    )


REPORT_HEADER = "M,N,exact,lower,upper,kind"


class ErrorBoundsReport(NamedTuple):
    kind: str
    M: int
    N: object  # the grid entry: an integer, or "all"
    exact: float
    lower: float
    upper: float

    def sandwiched(self, tol: float = 1e-12) -> bool:
        return self.lower - tol <= self.exact <= self.upper + tol


@np.errstate(over="ignore", invalid="ignore")  # the finite check below reports these
def error_table(m_grid, n_grid, T: float, nu: float) -> tuple[list[ErrorBoundsReport], str]:
    """Exact values plus their bracketing bounds over an (M, N) grid, and their CSV.

    Rows come kind by kind, then M, then N, in the order given, repeats
    included; N = "all" gives a temporal row only, because the spatial
    remainder is zero with every mode kept.  The text is REPORT_HEADER and
    one line per row, each value as %.17g.

    Everything is evaluated per axis, and each value is formatted once.
    Per table: the eigenvalues up to the widest integer N and the numerator
    of the geometric factor G.  Per distinct M: one temporal term vector
    whose prefixes give every integer N and, when its cutoff fits, the
    "all" entry (with its trigamma tail), the temporal upper bound, and the
    temporal lower bound as one array over the N axis.  Per distinct N: the
    spatial series and both spatial bounds.  A full value is the hypot of
    its two parts, as in full_error_exact, and its bounds are those of
    bounds_full, from the same per-axis values.  Each prefix is summed by
    fsum, correctly rounded, so it is bit for bit the value a vector of
    exactly that many terms gives.
    """
    _validate_positive(T=T, nu=nu)
    ms = [_int_at_least(M, "M must be a positive integer") for M in m_grid]
    ns = [_mode_count(N) for N in n_grid]
    counts = sorted({n for n in ns if n is not None})
    width = counts[-1] if counts else 0  # the widest integer N
    _check_modes(width, f"the temporal error at N={width}")
    n_axis = [math.inf if n is None else n for n in ns]
    n_txt = [ALL_MODES if n is None else str(n) for n in ns]

    spatial = {}  # n -> (exact, lower, upper, text of the three)
    for n in counts:
        values = (spatial_error_exact(n, T, nu), bound_lower_spatial(n, T, nu),
                  bound_upper_spatial(n, T, nu))
        spatial[n] = (*values, "%.17g,%.17g,%.17g" % values)

    mu = spectral.eigenvalues(width, nu) if counts else np.empty(0)
    g_numer = np.expm1(-2 * mu * T)
    temporal = {}  # M -> (exact by n, lower by N entry, upper, text)
    for M in dict.fromkeys(ms):
        terms = _temporal_mode_terms(mu, M, T, g_numer).tolist()
        exact = {n: math.sqrt(math.fsum(itertools.islice(terms, n))) for n in counts}
        if None in ns:
            cutoff = _all_modes_cutoff(M, T, nu)
            exact[None] = (
                math.sqrt(math.fsum(itertools.islice(terms, cutoff))
                          + _trigamma_tail(cutoff, nu))
                if cutoff <= width else temporal_error_exact(M, ALL_MODES, T, nu))
        lower = np.sqrt(_lower_temporal_sq(M, n_axis, T, nu)).tolist()
        upper = bound_upper_temporal(M, T, nu)
        temporal[M] = (exact, lower, upper, "%.17g" % upper)
    # every value is >= 0, so their sum is finite exactly when each of them is
    if not math.isfinite(sum(sum(s[:3]) for s in spatial.values()) + sum(
            sum(e.values()) + sum(lo) + up for e, lo, up, _ in temporal.values())):
        raise ValueError(f"exact errors or bounds overflow a float at T={T!r}, nu={nu!r}")

    reports, lines = [], [REPORT_HEADER]
    for M in ms:
        exact, lower, upper, upper_txt = temporal[M]
        for i, (N, n) in enumerate(zip(n_grid, ns)):
            reports.append(ErrorBoundsReport("temporal", M, N, exact[n], lower[i], upper))
            lines.append("%d,%s,%.17g,%.17g,%s,temporal"
                         % (M, n_txt[i], exact[n], lower[i], upper_txt))
    for M in ms:
        for i, (N, n) in enumerate(zip(n_grid, ns)):
            if n is not None:
                reports.append(ErrorBoundsReport("spatial", M, N, *spatial[n][:3]))
                lines.append("%d,%s,%s,spatial" % (M, n_txt[i], spatial[n][3]))
    for M in ms:
        exact, lower, upper, _ = temporal[M]
        for i, (N, n) in enumerate(zip(n_grid, ns)):
            if n is not None:
                s_exact, s_lower, s_upper, _ = spatial[n]
                row = ("full", M, N, math.hypot(exact[n], s_exact),
                       (lower[i] + s_lower) / 2, upper + s_upper)
                reports.append(ErrorBoundsReport(*row))
                lines.append("%d,%s,%.17g,%.17g,%.17g,full" % (M, n_txt[i], *row[3:]))
    return reports, "\n".join(lines) + "\n"
