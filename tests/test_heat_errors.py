import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde1d import heat_errors as he

from oracles import (lower_temporal_sq_scalar, ou_pair_mismatch_brute, ou_variance_discrete,
                     spatial_tail_mp, temporal_mode_integral, temporal_mode_integral_quadrature,
                     temporal_mode_mp, temporal_mode_quad_mp)

# values pinned from the mp oracles in oracles.py; regression guards
FROZEN = {
    "temporal_1_1": 0.2250558010675487,
    "temporal_16_64": 0.18332083461176604,
    "temporal_8_all": 0.22103800978968863,
    "spatial_4": 0.10588839370418567,
    "full_16_64": 0.18545066245028516,
    "upper_temporal_1": 2.5481367392847365,
    "lower_spatial_4": 0.06326887229572566,
    "mode_1_1": 0.050650113594156054,
}


def test_frozen_values():
    assert he.temporal_error_exact(1, 1, 1.0, 1.0) == pytest.approx(
        FROZEN["temporal_1_1"], rel=1e-12)
    assert he.temporal_error_exact(16, 64, 1.0, 1.0) == pytest.approx(
        FROZEN["temporal_16_64"], rel=1e-12)
    assert he.temporal_error_exact(8, "all", 1.0, 1.0) == pytest.approx(
        FROZEN["temporal_8_all"], rel=1e-12)
    assert he.spatial_error_exact(4, 1.0, 1.0) == pytest.approx(
        FROZEN["spatial_4"], rel=1e-12)
    assert he.full_error_exact(16, 64, 1.0, 1.0) == pytest.approx(
        FROZEN["full_16_64"], rel=1e-12)
    assert he.bound_upper_temporal(1, 1.0, 1.0) == pytest.approx(
        FROZEN["upper_temporal_1"], rel=1e-12)
    assert he.bound_lower_spatial(4, 1.0, 1.0) == pytest.approx(
        FROZEN["lower_spatial_4"], rel=1e-12)
    assert temporal_mode_integral(1, 1, 1.0, 1.0) == pytest.approx(
        FROZEN["mode_1_1"], rel=1e-12)


@pytest.mark.parametrize("M,k,T,nu", [
    (1, 1, 1.0, 1.0), (4, 2, 1.0, 1.0), (16, 5, 1.0, 1.0),
    (3, 7, 1.0, 1.0), (7, 3, 0.5, 2.0), (32, 1, 2.0, 0.05),
])
def test_mode_integral_against_mp(M, k, T, nu):
    got = temporal_mode_integral(M, k, T, nu)
    assert got == pytest.approx(temporal_mode_mp(M, k, T, nu), rel=1e-13)
    assert got == pytest.approx(temporal_mode_quad_mp(M, k, T, nu), rel=1e-12)


def test_mode_integral_against_package_quadrature():
    for M, k in [(2, 3), (9, 9), (16, 1)]:
        closed = temporal_mode_integral(M, k, 1.0, 1.0)
        quad = temporal_mode_integral_quadrature(M, k, 1.0, 1.0)
        assert closed == pytest.approx(quad, rel=1e-10)


def test_mode_integral_branches_meet_at_crossover():
    # x = mu h straddling the series/closed switch must agree with mp
    mu = math.pi**2
    for eps in (-1e-9, 0.0, 1e-9):
        h = (0.5 + eps) / mu
        M = 1
        got = temporal_mode_integral(M, 1, h * M, 1.0)
        want = temporal_mode_mp(M, 1, h * M, 1.0)
        assert got == pytest.approx(want, rel=1e-13)


def test_spatial_series_basel_limit():
    # T large: squared value approaches sum 1/(2 pi^2 k^2) = 1/12
    val = he.spatial_error_exact(0, 50.0, 1.0)
    assert val**2 == pytest.approx(1.0 / 12.0, rel=1e-6)


@pytest.mark.parametrize("N", [1, 4, 17])
def test_spatial_series_against_mp(N):
    got = he.spatial_error_exact(N, 1.0, 1.0)
    assert got**2 == pytest.approx(spatial_tail_mp(N, 1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5, True, -1])
def test_spatial_series_refuses_mode_counts_that_do_not_exist(bad):
    with pytest.raises(ValueError, match="N must be a nonnegative integer"):
        he.spatial_error_exact(bad, 1.0, 1.0)


def test_spatial_series_refuses_what_its_one_pass_cannot_bound():
    # mu_{K+1} T = 22.5 at the cutoff K = N + 64 leaves a neglected part of
    # about 4.7e-20 (K + 1) of the total: above 1e-12 once K passes ~2.1e7
    N = 30_000_000
    with pytest.raises(ValueError, match="the spatial error at N=30000000 neglects more than 1e-12"):
        he.spatial_error_exact(N, 22.5 / (math.pi**2 * (N + 64) ** 2), 1.0)


def test_spatial_series_refuses_a_cutoff_that_a_rounded_n_hides():
    # float(N) rounds up to k_min = 1e150, so k_min - N reads 0, but the
    # cutoff ceil(k_min) lies 1e130 modes past N
    T, N = 2.2797266319526e-300, int(1e150) - 10**130
    assert math.sqrt(22.5 / (math.pi**2 * T)) == float(N) == 1e150
    with pytest.raises(ValueError, match="needs 1e\\+130 modes, more than the limit"):
        he.spatial_error_exact(N, T, 1.0)


def test_temporal_error_monotone_in_steps():
    vals = [he.temporal_error_exact(M, 32, 1.0, 1.0) for M in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_temporal_error_vanishing_time_step():
    assert he.temporal_error_exact(2**20, 4, 1.0, 1.0) <= 1e-2


def test_temporal_all_exceeds_any_finite_band():
    finite = he.temporal_error_exact(8, 4096, 1.0, 1.0)
    full = he.temporal_error_exact(8, "all", 1.0, 1.0)
    assert finite < full
    # the gap is the pure-diffusion tail above the band, 1/(2 mu_k) summed
    from scipy.special import polygamma
    tail = float(polygamma(1, 4097)) / (2 * math.pi**2)
    assert full**2 - finite**2 == pytest.approx(tail, rel=1e-3)


def _unequal_to_scipy(qs):
    """(q, port, scipy) wherever the port's bits differ from polygamma(1, q)'s."""
    from scipy.special import polygamma
    values = ((q, he._trigamma(q), float(polygamma(1, q))) for q in qs)
    return [v for v in values if v[1] != v[2]]


def test_trigamma_is_scipys_polygamma_bit_for_bit():
    # every integer up to 2^17, which holds every cutoff + 1 a mode vector
    # within MAX_MODES can reach; powers of two and their neighbours, past
    # 2^53 where an integer rounds; and both sides of the q > 1e8 branch
    assert he.MAX_MODES + 1 < 2**17
    qs = [float(q) for q in range(1, 2**17 + 1)]
    qs += [float(2**k + d) for k in range(1, 63) for d in (-1, 0, 1)]
    qs += [1e8 - 1, math.nextafter(1e8, 0), 1e8, math.nextafter(1e8, math.inf), 1e8 + 1,
           1e15, 2.0**63, 1e300, sys.float_info.max]
    assert _unequal_to_scipy(qs) == []


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.floats(1.0, 2.0**63), min_size=1, max_size=50))
def test_trigamma_matches_scipy_on_reals(qs):
    assert _unequal_to_scipy(qs) == []


@pytest.mark.parametrize("cutoff", [8, he.MAX_MODES - 1, he.MAX_MODES, 2**53 + 1, 2**64 + 5,
                                    10**155, he.MAX_COUNT],
                         ids=["8", "max_modes_less_1", "max_modes", "past_2_53", "past_int64",
                              "1e155", "max_count"])
def test_trigamma_tail_rounds_its_cutoff_as_scipy_did(cutoff):
    from scipy.special import polygamma
    want = float(polygamma(1, float(cutoff + 1))) / (2 * 0.3 * math.pi**2)
    assert he._trigamma_tail(cutoff, 0.3) == want


def test_full_error_composition():
    t = he.temporal_error_exact(16, 64, 1.0, 1.0)
    s = he.spatial_error_exact(64, 1.0, 1.0)
    assert he.full_error_exact(16, 64, 1.0, 1.0) == pytest.approx(
        math.hypot(t, s), rel=1e-15)
    with pytest.raises(ValueError):  # the M -> infinity limit is spatial_error_exact
        he.full_error_exact(math.inf, 64, 1.0, 1.0)
    assert he.full_error_exact(16, "all", 1.0, 1.0) == pytest.approx(
        he.temporal_error_exact(16, "all", 1.0, 1.0), rel=1e-15)


@pytest.mark.parametrize("T,nu", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.1)])
@pytest.mark.parametrize("M,N", [(1, 1), (4, 16), (64, 3), (1024, 256)])
def test_bounds_sandwich_spot_checks(T, nu, M, N):
    t = he.temporal_error_exact(M, N, T, nu)
    assert he.bound_lower_temporal(M, N, T, nu) <= t <= he.bound_upper_temporal(M, T, nu)
    s = he.spatial_error_exact(N, T, nu)
    assert he.bound_lower_spatial(N, T, nu) <= s <= he.bound_upper_spatial(N, T, nu)
    f = he.full_error_exact(M, N, T, nu)
    lo, hi = he.bounds_full(M, N, T, nu)
    assert lo <= f <= hi


@pytest.mark.parametrize("bad", [math.inf, 2.5, True, 0], ids=["inf", "2.5", "True", "0"])
@pytest.mark.parametrize("call", [
    lambda x: he.bound_upper_temporal(x, 1.0, 1.0),
    lambda x: he.bound_lower_temporal(x, 4, 1.0, 1.0),
    lambda x: he.bound_lower_temporal(4, x, 1.0, 1.0),
    lambda x: he.bound_lower_spatial(x, 1.0, 1.0),
    lambda x: he.bound_upper_spatial(x, 1.0, 1.0),
    lambda x: he.bounds_full(x, 4, 1.0, 1.0),
    lambda x: he.bounds_full(4, x, 1.0, 1.0),
    lambda x: he.ou_pair_mismatch_exact(x, 4, 1, 2, 1.0, 1.0),
    lambda x: he.ou_pair_mismatch_exact(1, x, 1, 2, 1.0, 1.0),
], ids=["upper_temporal_M", "lower_temporal_M", "lower_temporal_N", "lower_spatial_N",
        "upper_spatial_N", "full_M", "full_N", "mismatch_M", "mismatch_M_ref"])
def test_bounds_refuse_grids_that_do_not_exist(call, bad):
    # a bound or a mismatch for a step or mode count no grid has
    with pytest.raises(ValueError, match="must be a positive integer"):
        call(bad)


def test_lower_temporal_clamps_to_zero_when_band_resolved():
    # N^2 T / (2M) small: the lower-bound integration window is empty
    assert he.bound_lower_temporal(64, 1, 1.0, 1.0) == 0.0


def test_upper_spatial_closed_form():
    assert he.bound_upper_spatial(9, 1.0, 2.0) == pytest.approx(
        1.0 / (math.pi * math.sqrt(2.0 * 2.0)) / math.sqrt(9.0), rel=1e-15)


@pytest.mark.parametrize("M, M_ref, N, N_ref, T, nu", [
    (4, 16, 2, 3, 1.0, 1.0),
    (4, 16, 0, 3, 1.0, 1.0),
    (4, 16, 3, 3, 0.5, 2.0),
    (16, 16, 2, 5, 1.0, 1.0),
    (4, 16, 0, 0, 1.0, 1.0),
], ids=["mixed", "no_kept_mode", "every_mode_kept", "same_steps", "no_mode"])
def test_ou_pair_mismatch_against_brute_force(M, M_ref, N, N_ref, T, nu):
    got = he.ou_pair_mismatch_exact(M, M_ref, N, N_ref, T, nu)
    want = ou_pair_mismatch_brute(M, M_ref, N, N_ref, T, nu)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-16)
    assert got[0] == 0.0


@pytest.mark.parametrize("M, N, T, nu", [(1, 1, 1.0, 1.0), (16, 64, 1.0, 1.0),
                                         (64, 128, 2.0, 0.5), (2048, 128, 0.5, 2.0)])
def test_ou_pair_mismatch_with_no_kept_mode_is_the_discrete_ou_variance(M, N, T, nu):
    # r = 1 and c_k = 0: the injection is h e^{-2 mu h}, summed over the steps
    got = he.ou_pair_mismatch_exact(M, M, 0, N, T, nu)[-1]
    assert got == pytest.approx(math.fsum(ou_variance_discrete(M, N, T, nu)), rel=1e-13)


@pytest.mark.parametrize("r", [10**3, 10**4])
@pytest.mark.parametrize("mu_h", [0.01, 0.62, 9.9, 39.5])
def test_ou_pair_mismatch_injection_tends_to_the_one_step_integral(r, mu_h):
    # one coarse step of one kept mode against r fine ones: the injection is a
    # Riemann sum of the one-step integral J of _temporal_mode_terms, O(1/r) off
    h = mu_h / math.pi**2  # nu = 1, mode 1
    got = he.ou_pair_mismatch_exact(1, r, 1, 1, h, 1.0)[-1]
    assert abs(got / temporal_mode_integral(1, 1, h, 1.0) - 1) <= (2 + mu_h) / r


def test_ou_pair_mismatch_guards():
    with pytest.raises(ValueError):
        he.ou_pair_mismatch_exact(5, 16, 2, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        he.ou_pair_mismatch_exact(4, 16, 4, 3, 1.0, 1.0)
    for bad in (math.inf, 2.5, True):  # N = 0 is a valid mode count here
        with pytest.raises(ValueError, match="N must be a nonnegative integer"):
            he.ou_pair_mismatch_exact(1, 4, bad, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match="N_ref must be a nonnegative integer"):
            he.ou_pair_mismatch_exact(1, 4, 1, bad, 1.0, 1.0)


@pytest.mark.parametrize("args", [(1, 2**40, 2, 3, 1.0, 1.0), (2**40, 2**40, 2, 3, 1.0, 1.0),
                                  (1, 2, 1, he.MAX_MODES + 1, 1.0, 1.0)],
                         ids=["fine_steps", "coarse_times", "modes"])
def test_ou_pair_mismatch_refuses_oversized_arrays_before_allocating(args):
    with pytest.raises(ValueError, match="more than the limit of"):
        he.ou_pair_mismatch_exact(*args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [2**64 + 5, 10**155, he.MAX_COUNT],
                         ids=["beyond_int64", "mu_beyond_the_float_range", "max_count"])
def test_spatial_error_at_huge_N_is_the_trigamma_tail(N):
    # past 2^53 the trigamma argument rounds, and past k ~ 1e154 mu_k is inf; the
    # explicit terms are then below 1/N of the tail sum_{k>N} 1/(2 mu_k) ~ 1/(2 pi^2 N),
    # taken in mpmath, where 2 pi^2 N does not overflow at MAX_COUNT
    tail = float(mpmath.sqrt(1 / (2 * mpmath.pi**2 * N)))
    assert he.spatial_error_exact(N, 1.0, 1.0) == pytest.approx(tail, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [10**200, he.MAX_COUNT], ids=["1e200", "max_count"])
def test_lower_temporal_at_huge_N_is_the_all_modes_value(N):
    assert he.bound_lower_temporal(4, N, 1.0, 1.0) == he.bound_lower_temporal(4, "all", 1.0, 1.0)


def test_fit_rate_recovers_synthetic_power_law():
    errors = {M: 1.7 * M**-0.25 for M in (4, 16, 64, 256)}
    fit = he.fit_rate(errors)
    assert fit.slope == pytest.approx(-0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(1.7), abs=1e-12)
    assert fit.residual < 1e-12
    assert len(fit.points) == 4


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        he.fit_rate({4: 1.0, 16: 0.5})
    with pytest.raises(ValueError):
        he.fit_rate({4: 1.0, 16: 0.5, 64: -0.1})


def test_exact_rate_windows():
    temporal = {M: he.temporal_error_exact(M, 2048, 1.0, 1.0)
                for M in (4, 16, 64, 256, 1024, 4096)}
    slope_t = he.fit_rate(temporal).slope
    assert -0.30 <= slope_t <= -0.20
    spatial = {N: he.spatial_error_exact(N, 1.0, 1.0) for N in (8, 16, 32, 64, 128)}
    slope_s = he.fit_rate(spatial).slope
    assert -0.55 <= slope_s <= -0.45


def test_error_report_row_roundtrip():
    reports, text = he.error_table([16], [64], 1.0, 1.0)
    rep = reports[0]
    assert rep.sandwiched(1e-12)
    header, row, *rest = text.splitlines()
    assert header == he.REPORT_HEADER == "M,N,exact,lower,upper,kind"
    m, n, exact, lower, upper, kind = row.split(",")
    assert (int(m), int(n), kind) == (16, 64, "temporal")
    assert (float(exact), float(lower), float(upper)) == (rep.exact, rep.lower, rep.upper)
    assert len(rest) == len(reports) - 1 and text.endswith("\n")


def test_error_report_all_modes_row():
    [rep], text = he.error_table([16], ["all"], 1.0, 1.0)
    assert (rep.kind, rep.N) == ("temporal", "all")
    assert text.splitlines()[1].startswith("16,all,")


def test_error_table_all_modes_entry_from_its_own_term_vector(monkeypatch):
    # "all" cutoffs: 8 at M=1, inside the widest integer N; 512 at M=57344,
    # exactly the widest integer N; and 2187 at M=2^20, beyond it; each is a
    # prefix of its M's term vector, never a call of temporal_error_exact, and
    # equals its value bit for bit
    assert [he._all_modes_cutoff(M, 1.0, 1.0) for M in (1, 57344, 1048576)] == [8, 512, 2187]
    calls, scalar = [], he.temporal_error_exact

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(he, "temporal_error_exact", counted)
    rows, _ = he.error_table([1, 57344, 1048576], [2, 512, "all"], 1.0, 1.0)
    assert calls == []
    all_rows = [r for r in rows if r.N == "all"]
    assert [r.M for r in all_rows] == [1, 57344, 1048576]
    for r in all_rows:
        assert r.exact == scalar(r.M, "all", 1.0, 1.0)
    for r in rows:  # the integer prefixes of the longer vector too
        if r.kind == "temporal" and r.N != "all":
            assert r.exact == scalar(r.M, r.N, 1.0, 1.0)


_M = st.one_of(st.integers(1, 64), st.integers(65, 5000), st.integers(5001, he.MAX_MODES))
_N = st.one_of(st.integers(1, 64), st.integers(65, 5000), st.integers(5001, he.MAX_MODES),
               st.just("all"))
_SCALE = st.floats(0.25, 4.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_M, min_size=1, max_size=4), st.lists(_N, min_size=1, max_size=5),
       _SCALE, _SCALE)
def test_error_reports_equal_the_per_cell_functions(m_grid, n_grid, T, nu):
    _assert_rows_equal_the_per_cell_functions(m_grid, n_grid, T, nu)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 4096), min_size=1, max_size=4),
       st.lists(st.one_of(st.integers(1, 512), st.just("all")), min_size=1, max_size=5),
       st.sampled_from((0.5, 1.0, 2.0)), st.sampled_from((0.5, 1.0, 2.0)))
def test_error_table_rows_equal_the_per_cell_functions_on_drawn_grids(m_grid, n_grid, T, nu):
    # the same identity on the grids users run, drawn the same way on every run
    _assert_rows_equal_the_per_cell_functions(m_grid, n_grid, T, nu)


def _assert_rows_equal_the_per_cell_functions(m_grid, n_grid, T, nu):
    m_grid, n_grid = m_grid + m_grid[:1], n_grid + n_grid[:1]  # a repeat on each axis
    rows, text = he.error_table(m_grid, n_grid, T, nu)
    assert text.splitlines() == [he.REPORT_HEADER, *(
        "%s,%s,%.17g,%.17g,%.17g,%s" % (r.M, r.N, r.exact, r.lower, r.upper, r.kind)
        for r in rows)]
    assert [(r.kind, r.M, r.N) for r in rows] == [
        (kind, M, N) for kind in ("temporal", "spatial", "full") for M in m_grid for N in n_grid
        if N != "all" or kind == "temporal"]
    for r in rows:
        M, N = r.M, r.N
        if r.kind == "temporal":
            want = (he.temporal_error_exact(M, N, T, nu), he.bound_lower_temporal(M, N, T, nu),
                    he.bound_upper_temporal(M, T, nu))
        elif r.kind == "spatial":
            want = (he.spatial_error_exact(N, T, nu), he.bound_lower_spatial(N, T, nu),
                    he.bound_upper_spatial(N, T, nu))
        else:
            want = (he.full_error_exact(M, N, T, nu), *he.bounds_full(M, N, T, nu))
        assert (r.exact, r.lower, r.upper) == want
        assert r.sandwiched(1e-12)
        # the vectorized lower bounds equal the scalar libm formulas bit for bit
        if r.kind == "temporal":
            assert r.lower == math.sqrt(lower_temporal_sq_scalar(M, N, T, nu, 8.0))
        elif r.kind == "full":
            assert r.lower == math.sqrt(lower_temporal_sq_scalar(M, N, T, nu, 32.0)) \
                + math.sqrt(-math.expm1(-nu * T)) / (4 * math.pi * math.sqrt(nu) * math.sqrt(N))
