"""End-to-end acceptance gates, one test per numbered criterion.

Every test prints a single summary line with its measured quantities and
asserts its own wall-clock budget.  Criterion 8's activation-trend clause is
strict-xfail: the assertion states the contracted inequality and the current
engine genuinely does not satisfy it (README, "Known limitation"); a future
pass would surface as an error demanding review.
"""
import json
import math
import time

import numpy as np
import pytest

from spde1d import cli
from spde1d import experiments as ex
from spde1d import heat_errors as he
from spde1d import nonlinearity, scheme

from oracles import bridge_estimate, temporal_mode_integral, temporal_mode_integral_quadrature

TOL = 1e-12


def test_criterion_1_spatial_sandwich():
    t0 = time.perf_counter()
    lo_c = math.sqrt(1.0 - math.exp(-1.0)) / (2.0 * math.pi)
    hi_c = 1.0 / (math.pi * math.sqrt(2.0))
    for N in range(1, 257):
        err = he.spatial_error_exact(N, 1.0, 1.0)
        root = math.sqrt(N)
        assert lo_c / root - TOL <= err <= hi_c / root + TOL, f"N={N}: {err}"
        # the packaged bound functions must be the same constants
        assert he.bound_lower_spatial(N, 1.0, 1.0) == pytest.approx(lo_c / root, rel=1e-13, abs=0)
        assert he.bound_upper_spatial(N, 1.0, 1.0) == pytest.approx(hi_c / root, rel=1e-13, abs=0)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: PASS spatial sandwich N=1..256 (tol {TOL:g}, {elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_2_temporal_sandwich_and_slope():
    t0 = time.perf_counter()
    for M in range(1, 65):
        upper = he.bound_upper_temporal(M, 1.0, 1.0)
        assert upper == pytest.approx(
            M**-0.25 * math.sqrt(math.sqrt(1.0) / 2.0
                                 * (1.0 / math.pi + 1.0 / math.pi**2 + 4.0 * math.pi)),
            rel=1e-13, abs=0)
        for N in range(1, 65):
            err = he.temporal_error_exact(M, N, 1.0, 1.0)
            lower = he.bound_lower_temporal(M, N, 1.0, 1.0)
            assert lower - TOL <= err <= upper + TOL, f"(M,N)=({M},{N})"
    slope = he.fit_rate({M: he.temporal_error_exact(M, 2048, 1.0, 1.0)
                         for M in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)}).slope
    assert -0.30 <= slope <= -0.20, f"slope {slope}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: PASS temporal sandwich 64x64 and slope {slope:+.4f} "
          f"({elapsed:.2f}s)")
    assert elapsed < 10.0


def test_criterion_3_full_sandwich_parameter_sweep():
    t0 = time.perf_counter()
    checked = 0
    for T in (0.5, 1.0, 2.0):
        for nu in (0.5, 1.0, 2.0):
            for M in range(1, 65):
                for N in range(1, 65):
                    f = he.full_error_exact(M, N, T, nu)
                    lo, hi = he.bounds_full(M, N, T, nu)
                    assert lo - TOL <= f <= hi + TOL, f"(M,N,T,nu)=({M},{N},{T},{nu})"
                    checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: PASS full sandwich, {checked} tuples (tol {TOL:g}, "
          f"{elapsed:.2f}s)")
    assert elapsed < 30.0


def test_criterion_4_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for M in range(1, 17):
        for k in range(1, 17):
            closed = temporal_mode_integral(M, k, 1.0, 1.0)
            quad = temporal_mode_integral_quadrature(M, k, 1.0, 1.0)
            worst = max(worst, abs(closed - quad) / quad)
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: PASS per-mode closed form vs quadrature, worst rel "
          f"{worst:.2e} ({elapsed:.2f}s)")
    assert elapsed < 10.0


def test_criterion_5_mc_exact_bridge():
    t0 = time.perf_counter()
    est, se = bridge_estimate(seed=7, n_steps=16, n_modes=64,
                              T=1.0, nu=1.0, paths=10_000)
    exact = he.temporal_error_exact(16, 64, 1.0, 1.0)
    z = (est - exact) / se
    assert abs(est - exact) < 3.0 * se, f"z={z:.2f}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: PASS bridge MC {est:.6f} vs exact {exact:.6f} "
          f"(z={z:+.2f}, {elapsed:.2f}s)")
    assert elapsed < 60.0


def test_criterion_6_inequality_suites():
    t0 = time.perf_counter()
    assert (0.0, 1.0, 0.0, -1.0) in nonlinearity.AUDIT_COEFFICIENT_SETS
    residuals = {}
    for name in ("monotonicity", "lipschitz", "coercivity"):
        residuals[name] = nonlinearity.run_inequality_audit(name, trials=1000, seed=0)
        assert residuals[name] <= 1e-8, f"{name}: {residuals[name]}"
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in residuals.items())
    print(f"criterion 6: PASS 1000-trial audits ({detail}, {elapsed:.2f}s)")
    assert elapsed < 30.0


def _monotone_within_3se(rows):
    for a, b in zip(rows, rows[1:]):
        if b.estimate > a.estimate + 3.0 * math.hypot(a.stderr, b.stderr):
            return False
    return True


def test_criterion_7_nonlinear_convergence():
    t0 = time.perf_counter()
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(),
                         m_grid=(16, 32, 64, 128), n_grid=(8, 16, 32, 64),
                         m_ref=2048, n_ref=128, paths=200, seed=0)
    rows, fits = ex.run_convergence_study(cfg)
    slope_t = fits["temporal"].slope
    slope_s = fits["spatial"].slope
    assert slope_t <= -0.15, f"temporal slope {slope_t}"
    assert slope_s <= -0.35, f"spatial slope {slope_s}"
    temporal = [r for r in rows if r.kind == "temporal"]
    spatial = [r for r in rows if r.kind == "spatial"]
    assert _monotone_within_3se(temporal), "temporal errors not monotone within 3 se"
    assert _monotone_within_3se(spatial), "spatial errors not monotone within 3 se"
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: PASS Allen-Cahn study, slopes {slope_t:+.3f}/{slope_s:+.3f}, "
          f"monotone within 3 se ({elapsed:.1f}s)")
    assert elapsed < 900.0


def test_criterion_8_moment_boundedness():
    t0 = time.perf_counter()
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(),
                         m_grid=(8, 16, 32, 64, 128), n_grid=(8, 16, 32, 64, 128),
                         m_ref=128, n_ref=128, paths=200, seed=0, gamma=0.2)
    rows, flagged = ex.moment_audit(cfg)
    assert not flagged, "moment estimate beyond 3x grid median"
    by_cell = {(r.M, r.N): r for r in rows}
    # along N at each M: nothing above the widest band beyond joint noise
    for M in cfg.m_grid:
        full = by_cell[(M, 128)]
        for N in cfg.n_grid:
            r = by_cell[(M, N)]
            assert r.estimate <= full.estimate + 3.0 * math.hypot(r.stderr, full.stderr), \
                f"H_gamma moment grows with N at M={M}"
    # along M at N=128: increments must not accelerate (saturation, not blow-up)
    seq = [by_cell[(M, 128)] for M in cfg.m_grid]
    diffs = [b.estimate - a.estimate for a, b in zip(seq, seq[1:])]
    joint = [3.0 * math.hypot(a.stderr, b.stderr) for a, b in zip(seq, seq[1:])]
    for i in range(1, len(diffs)):
        assert diffs[i] <= diffs[i - 1] + joint[i], \
            f"moment increments accelerate at step {i}: {diffs}"
    elapsed = time.perf_counter() - t0
    lo = min(r.estimate for r in rows)
    hi = max(r.estimate for r in rows)
    print(f"criterion 8: PASS moment boundedness, estimates {lo:.4f}..{hi:.4f} "
          f"saturating ({elapsed:.1f}s)")
    assert elapsed < 600.0


@pytest.mark.xfail(
    strict=True,
    reason="activation fraction rises 0.1402 -> 0.3492 from M=64 to M=1024: the "
    "truncation threshold (M/T)^chi grows at most 8% over that range for any "
    "admissible (gamma, chi) while the discrete H_gamma norms are still "
    "mode-filling; the contracted inequality only holds at astronomically "
    "large M (README, Known limitation)",
)
def test_criterion_8_activation_fraction_trend():
    t0 = time.perf_counter()
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(),
                         m_grid=(64, 1024), n_grid=(128,),
                         m_ref=1024, n_ref=128, paths=200, seed=0,
                         m_master=1024, n_master=128)
    fractions = dict(
        ((M, N), f) for M, N, f in
        ex.activation_fractions(cfg, [(64, 128), (1024, 128)]))
    coarse = fractions[(64, 128)]
    fine = fractions[(1024, 128)]
    elapsed = time.perf_counter() - t0
    print(f"criterion 8 (activation trend): FAIL measured fraction(M=64)={coarse:.6f}, "
          f"fraction(M=1024)={fine:.6f} ({elapsed:.1f}s)")
    assert elapsed < 600.0
    assert fine <= coarse, (
        f"activation fraction at M=1024 ({fine:.6f}) exceeds M=64 ({coarse:.6f}); "
        "documented honest failure (README, Known limitation)")


def test_criterion_9_thread_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"a": [0.0, 1.0, 0.0, -1.0], "initial": "bump"},
        "study": {"m_grid": [4, 8, 16], "n_grid": [2, 4, 8],
                  "M_ref": 128, "N_ref": 16, "paths": 96},
    }))
    outputs = []
    for threads in ("1", "2", "3"):
        rc = cli.main(["converge", "--config", str(cfg_path),
                       "--out", str(tmp_path), "--threads", threads])
        assert rc == cli.EXIT_OK
        outputs.append(((tmp_path / "spde1d_errors.csv").read_bytes(),
                        (tmp_path / "spde1d_rates.json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: PASS byte-identical CSV/JSON across --threads 1/2/3 "
          f"({elapsed:.1f}s)")
    assert elapsed < 120.0
