import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde1d import experiments as ex
from spde1d import heat_errors, noise, nonlinearity, scheme, spectral

from oracles import ou_second_moment, ou_variance_discrete


def ou_model(n_xi=1):
    return scheme.ModelParams(T=1.0, nu=1.0,
                              a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                              xi=np.zeros(n_xi))


def small_cfg(**kw):
    args = dict(model=ou_model(), m_grid=(4, 8, 16), n_grid=(2, 4, 8),
                m_ref=128, n_ref=16, paths=64, seed=0)
    args.update(kw)
    return ex.StudyConfig(**args)


def strong_error(cfg, M, N):
    """(estimate, stderr, activation_fraction) of one target, with no reference-ratio guard."""
    target = ("single", M, N)
    return ex._estimate(ex._accumulate(cfg, [target])[target], M)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(m_grid=(7, 16))                 # 7 does not divide m_master=128
    with pytest.raises(ValueError):
        small_cfg(n_grid=(4, 32))                 # exceeds n_ref
    with pytest.raises(ValueError):
        small_cfg(paths=0)
    with pytest.raises(ValueError):
        small_cfg(moment_p=3)
    with pytest.raises(ValueError):
        small_cfg(model=scheme.allen_cahn_model(), exact=True)
    with pytest.raises(ValueError, match="nonempty"):
        small_cfg(m_grid=())
    with pytest.raises(ValueError, match="N_ref <= N_master"):
        small_cfg(n_master=8)                     # below n_ref=16
    # every count is an integer, never rounded to one; a bool is not a count
    for bad in (dict(m_grid=(4.7, 8, 16)), dict(m_grid=("4", 8, 16)), dict(n_grid=(2, 4.5)),
                dict(paths=True), dict(paths=2.5), dict(threads=1.5), dict(threads=0),
                dict(m_ref=128.5), dict(n_ref="16"), dict(seed=-1), dict(seed=False),
                dict(m_master=256.5), dict(n_master=True), dict(moment_p=2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            small_cfg(**bad)
    # an integral float or a numpy integer is the integer it equals
    cfg = small_cfg(m_grid=(np.int32(4), 8.0, 16), m_ref=128.0, n_ref=np.int64(16),
                    paths=np.uint8(2), threads=2.0)
    assert (cfg.m_grid, cfg.m_ref, cfg.n_ref, cfg.paths, cfg.threads) \
        == ((4, 8, 16), 128, 16, 2, 2)
    assert all(type(v) is int for v in (*cfg.m_grid, cfg.m_ref, cfg.n_ref, cfg.paths))
    assert ex.run_convergence_study(cfg) == ex.run_convergence_study(small_cfg(paths=2))
    cfg = small_cfg()
    assert cfg.m_master == 128 and cfg.n_master == 16


@pytest.mark.parametrize("exact", [False, True], ids=["monte_carlo", "exact"])
def test_seed_beyond_64_bits_is_refused_naming_seed(exact):
    # the noise tape's key is a 64-bit word, in exact mode too, whose CSV prints the seed
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, "
                                         "at most 18446744073709551615;"):
        small_cfg(seed=2**64, exact=exact)
    assert small_cfg(seed=2**64 - 1, exact=exact).seed == noise.MAX_COUNTER


def test_oversized_batch_is_refused_before_it_allocates():
    # at N_ref = 2e7 laying out the runs alone takes 1.58 GB, so the batch
    # must refuse from its plan before it lays out any run
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(), xi=np.zeros(1))
    cfg = ex.StudyConfig(model=model, m_grid=(1, 2, 4), n_grid=(2.5e6, 5e6, 1e7),
                         m_ref=32, n_ref=2e7, paths=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the limit of 67108864"):
            ex.run_convergence_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


def test_reference_ratio_guard_and_escape(monkeypatch):
    def never(job):
        raise AssertionError("a path batch ran")
    with monkeypatch.context() as patch:  # the rules refuse before any batch runs
        patch.setattr(ex, "_path_batch", never)
        with pytest.raises(ValueError, match="must be a multiple and >= 8x of target M=32"):
            ex.run_convergence_study(small_cfg(m_grid=(4, 8, 32)))   # m_ref only 4x target
        with pytest.raises(ValueError, match="must be >= 2x target N=12"):
            ex.run_convergence_study(small_cfg(n_grid=(2, 4, 12)))   # n_ref below 2x target
        # the closed form has no reference run, so exact mode takes the same grid
        rows, _ = ex.run_convergence_study(small_cfg(m_grid=(4, 8, 32), exact=True))
        assert [(r.kind, r.M) for r in rows[:3]] == [("temporal", 4), ("temporal", 8),
                                                     ("temporal", 32)]
    # below the study, a target near the reference still has an estimate
    est, se, _ = strong_error(small_cfg(), 32, 16)
    assert est > 0 and se > 0


def test_self_comparison_is_exactly_zero():
    cfg = small_cfg(paths=8)
    est, se, frac = strong_error(cfg, 128, 16)
    assert est == 0.0 and se == 0.0
    assert 0.0 <= frac <= 1.0


def test_zero_drift_matches_exact_mismatch_oracle():
    cfg = ex.StudyConfig(model=ou_model(), m_grid=(16,), n_grid=(32,),
                         m_ref=256, n_ref=64, paths=192, seed=2)
    est, se, _ = strong_error(cfg, 16, 32)
    oracle = math.sqrt(float(np.max(
        heat_errors.ou_pair_mismatch_exact(16, 256, 32, 64, 1.0, 1.0))))
    assert abs(est - oracle) < 3 * se


def test_single_path_stderr_is_nan():
    cfg = small_cfg(paths=1)
    est, se, frac = strong_error(cfg, 16, 8)
    assert est > 0
    assert math.isnan(se)
    assert 0.0 <= frac <= 1.0


def test_study_rows_and_fits_mc():
    cfg = small_cfg(paths=96)
    rows, fits = ex.run_convergence_study(cfg)
    assert len(rows) == 6
    kinds = [(r.kind, r.M, r.N) for r in rows]
    assert ("temporal", 8, 16) in kinds and ("spatial", 128, 4) in kinds
    for r in rows:
        assert r.paths == 96 and r.seed == 0
        assert r.estimate > 0 and r.stderr > 0
    assert set(fits) == {"temporal", "spatial"}
    assert fits["temporal"].slope < 0 and fits["spatial"].slope < 0


def test_study_threads_do_not_change_bytes():
    cfg = small_cfg(paths=96)
    rows1, fits1 = ex.run_convergence_study(cfg)
    rows2, fits2 = ex.run_convergence_study(replace(cfg, threads=2))
    rows3, fits3 = ex.run_convergence_study(replace(cfg, threads=3))
    assert ex.error_table_csv(rows1) == ex.error_table_csv(rows2) == ex.error_table_csv(rows3)
    assert ex.fits_json(fits1) == ex.fits_json(fits2) == ex.fits_json(fits3)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: maps lazily and in order, in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_threads_are_capped_at_the_number_of_path_batches(monkeypatch):
    # the pool starts all its workers at the first submit, so a large
    # --threads must not become that many processes; the fake runs in process
    seen = []

    def pool(max_workers):
        seen.append(max_workers)
        return InProcessPool()

    monkeypatch.setattr(ex, "ProcessPoolExecutor", pool)
    ex.run_convergence_study(small_cfg(paths=3 * ex.BATCH_PATHS, threads=100_000))
    assert seen and set(seen) == {3}


_M_DIVIDING_16 = st.sampled_from((1, 2, 4, 8, 16))
_TARGETS = st.one_of(st.tuples(st.sampled_from(("temporal", "spatial")), _M_DIVIDING_16,
                               st.integers(1, 4)),
                     st.tuples(_M_DIVIDING_16, st.integers(1, 4)))
_MODELS = (ou_model(4), scheme.allen_cahn_model(n_xi_modes=4),
           scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.CubicCoefficients(1, 2, 3, -4),
                              xi=scheme.initial_coefficients("bump", 4)))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, ex.BATCH_PATHS), st.lists(_TARGETS, min_size=1,
       max_size=4), st.sampled_from(_MODELS), st.integers(0, 2**32 - 1))
def test_accumulate_totals_do_not_depend_on_the_thread_count(batches, last, targets, model,
                                                             seed):
    # one to three path batches, the last one partial or full; (kind, M, N)
    # targets and (M, N) cells in any mix: the totals merged from 2 or 3
    # worker processes equal the serial ones bit for bit
    cfg = ex.StudyConfig(model=model, m_grid=(16,), n_grid=(4,), m_ref=16, n_ref=4,
                         paths=(batches - 1) * ex.BATCH_PATHS + last, seed=seed)
    serial = ex._accumulate(cfg, targets)
    for threads in (2, 3):
        pooled = ex._accumulate(replace(cfg, threads=threads), targets)
        assert pooled.keys() == serial.keys()
        for target in serial:
            _assert_same_moments(pooled[target], serial[target])


def test_no_target_runs_no_batch(monkeypatch):
    def never(job):
        raise AssertionError("a path batch ran")
    monkeypatch.setattr(ex, "_path_batch", never)
    assert ex._accumulate(small_cfg(), []) == {}
    assert ex.activation_fractions(small_cfg(), []) == []


@pytest.mark.parametrize("threads", [1, 3])
def test_accumulate_merges_each_batch_before_the_next_runs(monkeypatch, threads):
    # a batch's moments are dead once merged: when batch k starts, at most one
    # earlier batch (the one just merged, or the first, which the merge folds
    # into) may still hold its arrays; the in-process pool maps lazily, in order
    live, seen = [], []  # live[k]: arrays of batch k not yet freed

    def freed(k):
        live[k] -= 1

    def batch(job):
        seen.append(sum(n > 0 for n in live))
        part = {t: {"paths": 1, "sum": np.full(4, float(job[2])), "m2": np.zeros(4),
                    "suppressed": 0} for t in job[1]}
        live.append(0)
        for a in part.values():
            for name in ("sum", "m2"):
                live[-1] += 1
                weakref.finalize(a[name], freed, len(live) - 1)
        return part

    monkeypatch.setattr(ex, "_path_batch", batch)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", lambda max_workers: InProcessPool())
    total = ex._accumulate(small_cfg(paths=6 * ex.BATCH_PATHS, threads=threads),
                           [(4, 2), ("temporal", 8, 4)])
    assert len(seen) == 6 and max(seen) <= 1, seen
    assert total[(4, 2)]["paths"] == 6
    assert total[(4, 2)]["sum"].tolist() == [15 * ex.BATCH_PATHS] * 4


def test_exact_mode_study():
    cfg = ex.StudyConfig(model=ou_model(), m_grid=(4, 16, 64, 256),
                         n_grid=(4, 8, 16, 32, 64), m_ref=2048, n_ref=128,
                         paths=1, seed=0, exact=True)
    rows, fits = ex.run_convergence_study(cfg)
    for r in rows:
        assert r.paths == 0 and r.stderr == 0.0 and math.isnan(r.activation_fraction)
        want = heat_errors.full_error_exact(r.M, r.N, 1.0, 1.0)
        assert r.estimate == pytest.approx(want, rel=1e-14, abs=0)
    assert -0.30 <= fits["temporal"].slope <= -0.20
    assert -0.55 <= fits["spatial"].slope <= -0.45


def test_error_table_csv_layout():
    cfg = small_cfg(paths=4)
    rows, _ = ex.run_convergence_study(cfg)
    text = ex.error_table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ex.ERROR_TABLE_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] in ("temporal", "spatial")
    assert float(first[3]) == rows[0].estimate  # %.17g roundtrip


def test_fits_json_shape():
    cfg = small_cfg(paths=8)
    _, fits = ex.run_convergence_study(cfg)
    payload = json.loads(ex.fits_json(fits))
    assert set(payload) == {"temporal", "spatial"}
    for axis, key in (("temporal", "M"), ("spatial", "N")):
        assert set(payload[axis]) == {"slope", "intercept", "residual", "points", "axis"}
        assert payload[axis]["axis"] == key


def test_moment_audit_zero_drift_matches_closed_form():
    cfg = ex.StudyConfig(model=ou_model(), m_grid=(16,), n_grid=(16,),
                         m_ref=16, n_ref=16, paths=256, seed=3, gamma=0.2)
    rows, flagged = ex.moment_audit(cfg)
    assert not flagged
    row = rows[0]
    exact = ou_second_moment(16, 16, 1.0, 1.0, r=0.2)
    assert abs(row.estimate - exact) < 3 * row.stderr


@pytest.mark.parametrize("M, N", [(8, 4), (16, 1), (4, 8)])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_moment_sample_is_the_hr_norm_of_the_final_state(M, N, p):
    # one path: the cell's estimate is its one sample ||Y_T||_{H_gamma}^p,
    # taken through spectral.hr_norm, the norm of the taming indicator
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(), m_grid=(M,), n_grid=(N,),
                         m_ref=16, n_ref=8, paths=1, seed=7, moment_p=p)
    tape = noise.NoiseTape(seed=7, M_master=16, N_master=8, T=1.0, path=0)
    y, _ = scheme.simulate_trajectory(cfg.model, cfg.discretization(M, N), tape)
    [row], _ = ex.moment_audit(cfg)
    assert row.estimate == spectral.hr_norm(y[-1], cfg.gamma, cfg.model.nu) ** p


def test_moment_audit_bounded_on_allen_cahn_grid():
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(n_xi_modes=32),
                         m_grid=(8, 32), n_grid=(8, 32), m_ref=32, n_ref=32,
                         paths=64, seed=1)
    rows, flagged = ex.moment_audit(cfg)
    assert not flagged
    assert all(r.estimate > 0 for r in rows)
    assert all(0.0 <= r.activation_fraction <= 1.0 for r in rows)


def test_activation_fraction_regression():
    # frozen baseline: deterministic engine output at the documented config
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(n_xi_modes=512),
                         m_grid=(16,), n_grid=(16,), m_ref=2048, n_ref=128,
                         paths=200, seed=0, m_master=2048, n_master=128)
    [(M, N, frac)] = ex.activation_fractions(cfg, [(16, 16)])
    assert (M, N) == (16, 16)
    assert frac == pytest.approx(0.0434375, abs=0.02)
    assert frac < 0.06


def test_activation_fraction_is_the_share_of_steps_with_the_drift_off():
    # the definition, path by path: each path run alone through run_scheme on
    # its own tape, the steps whose indicator was false counted, over M * paths;
    # two batches, cells at several M and N, counts that differ across both
    cfg = ex.StudyConfig(model=scheme.allen_cahn_model(n_xi_modes=16), m_grid=(4, 8, 32),
                         n_grid=(4, 8, 16), m_ref=32, n_ref=16, paths=70, seed=3)
    cells = [(4, 16), (8, 2), (8, 16), (32, 1), (32, 8), (32, 16)]
    counts = []
    for M, N in cells:
        d = cfg.discretization(M, N)
        counts.append(sum(int(scheme.run_scheme(cfg.model, d, noise.NoiseTape(
            seed=cfg.seed, M_master=cfg.m_master, N_master=cfg.n_master, T=cfg.model.T,
            path=p).increments(M, N)[None])[2][0]) for p in range(cfg.paths)))
    assert cfg.paths > ex.BATCH_PATHS and len(set(counts)) > 3 and max(counts) > 0
    assert ex.activation_fractions(cfg, cells) == [
        (M, N, count / (M * cfg.paths)) for (M, N), count in zip(cells, counts)]


def test_repeated_grid_entries_are_not_double_counted():
    cfg = small_cfg(m_grid=(4, 4), n_grid=(8,), m_ref=16, n_ref=8, paths=8)
    rows, _ = ex.moment_audit(cfg)
    [single], _ = ex.moment_audit(small_cfg(m_grid=(4,), n_grid=(8,), m_ref=16,
                                            n_ref=8, paths=8))
    assert rows == [single, single]
    assert ex.activation_fractions(cfg, [(16, 8), (16, 8)]) \
        == 2 * ex.activation_fractions(cfg, [(16, 8)])


def test_targets_off_the_reference_grid_are_rejected():
    cfg = small_cfg(m_master=256, n_master=32)
    for M, N in [(48, 4), (256, 4), (0, 4), (16, 32)]:
        with pytest.raises(ValueError, match=f"target M={M}, N={N}"):
            strong_error(cfg, M, N)


def test_cells_guard_on_master_mismatch():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        ex.activation_fractions(cfg, [(7, 4)])
    with pytest.raises(ValueError):
        ex.activation_fractions(cfg, [(8, 64)])


def test_target_at_the_reference_resolution_is_exactly_zero():
    # the reference and a target at its resolution share one state per block;
    # stepping that resolution twice in a block would make this nonzero
    cfg = small_cfg(model=scheme.allen_cahn_model(n_xi_modes=16), paths=70)
    assert strong_error(cfg, cfg.m_ref, cfg.n_ref) \
        == (0.0, 0.0, strong_error(cfg, cfg.m_ref, 8)[2])
    rows, _ = ex.run_convergence_study(replace(cfg, m_grid=(4, 8, 16, 128)))
    base, _ = ex.run_convergence_study(cfg)
    assert [r for r in rows if r.M != 128 or r.kind != "temporal"] == base
    [at_ref] = [r for r in rows if r.kind == "temporal" and r.M == 128]
    assert at_ref.estimate == 0.0 and at_ref.stderr == 0.0


def _blown_up_cfg(x):
    xi = scheme.initial_coefficients("bump", 16)
    xi[0] = x  # finite, so ModelParams accepts it
    return small_cfg(model=scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(),
                                              xi=xi), paths=70)


def test_non_finite_sample_fails_the_run():
    with pytest.raises(ValueError, match=r"squared-distance sample of temporal M=4 N=16 "
                                         r"on path 0"):
        ex.run_convergence_study(_blown_up_cfg(1e160))


def test_non_finite_state_or_moment_fails_the_run():
    with pytest.raises(ValueError, match=r"non-finite state of reference on path 0"):
        strong_error(_blown_up_cfg(1.7e308), 16, 8)
    with pytest.raises(ValueError, match=r"non-finite state of cell M=128 N=8 on path 0"):
        ex.activation_fractions(_blown_up_cfg(1.7e308), [(128, 8)])
    with pytest.raises(ValueError, match=r"non-finite moment sample of cell M=4 N=8 on path 0"):
        ex.moment_audit(replace(_blown_up_cfg(1.7e308), m_grid=(4,), n_grid=(8,)))
    with pytest.raises(ValueError, match=r"non-finite moment sample of cell M=4 N=8 on path 0"):
        ex.moment_audit(replace(_blown_up_cfg(1e60), m_grid=(4,), n_grid=(8,), moment_p=8))


def test_traced_layers_are_reached_once_per_drift_step(monkeypatch):
    # the benchmark's trace wraps these names where their callers look them
    # up; a renamed or bypassed boundary fails here, not only in a traced run
    calls, rows = {}, {}

    def shim(module, name):
        inner = getattr(module, name)

        def counted(x, *args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            rows[name] = rows.get(name, 0) + math.prod(np.shape(x)[:-1])
            return inner(x, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    shim(scheme, "project_F")
    shim(spectral, "to_grid")
    shim(spectral, "from_grid")
    cfg = small_cfg(model=scheme.allen_cahn_model(n_xi_modes=16), paths=6)
    targets = [(16, 8), (32, 16), (128, 4)]
    acc = ex._accumulate(cfg, targets)
    steps = sum(M * acc[(M, N)]["paths"] for M, N in targets)
    kept = steps - sum(acc[t]["suppressed"] for t in targets)
    assert 0 < kept < steps  # the indicator switched the drift both ways
    assert rows["project_F"] == rows["to_grid"] == rows["from_grid"] == kept
    # one call per kernel step with a path that keeps the drift
    assert 0 < calls["project_F"] == calls["to_grid"] == calls["from_grid"] \
        <= sum(M for M, _ in targets)


def test_each_run_is_set_up_once_per_run_not_per_block(monkeypatch):
    # a run's constants, its GridLayout among them, are made at its first
    # block and shared by the rest
    layouts, calls = [], []
    grid_layout, run_scheme = spectral.GridLayout, ex.run_scheme

    def counted_layout(*args, **kwargs):
        layouts.append(args[0])
        return grid_layout(*args, **kwargs)

    def counted_run(*args, **kwargs):
        calls.append(args[1].M)
        return run_scheme(*args, **kwargs)
    monkeypatch.setattr(spectral, "GridLayout", counted_layout)
    monkeypatch.setattr(ex, "run_scheme", counted_run)
    scheme._run_constants.cache_clear()
    cfg = small_cfg(model=scheme.allen_cahn_model(n_xi_modes=16), paths=2)
    ex._accumulate(cfg, [("temporal", 16, 16), ("spatial", 128, 8), (32, 4)])
    runs = {16, 32, 128}
    assert set(calls) == runs and len(calls) >= 2 * len(runs)  # two blocks or more
    assert sorted(layouts) == [(4,), (16,), (16, 8)]  # one per run, by its widths
    scheme._run_constants.cache_clear()  # no layout of this counter stays cached


def _criterion_7_peak_bytes(model, paths=16):
    """tracemalloc peak of one batch of the criterion-7 study shape (M_ref=2048, N_ref=128)."""
    cfg = ex.StudyConfig(model=model, m_grid=(16, 32, 64, 128), n_grid=(8, 16, 32, 64),
                         m_ref=2048, n_ref=128, paths=paths, seed=0)
    targets = [("temporal", M, 128) for M in cfg.m_grid] \
        + [("spatial", 2048, N) for N in cfg.n_grid]
    tracemalloc.start()
    try:
        ex._accumulate(cfg, targets)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_stays_within_a_block():
    # heat_mc shape of the benchmark: 16 zero-drift paths, M_ref=2048, N_ref=128.
    # Stepping block by block, each block's samples reduced as they are taken,
    # peaks near 7.2 MB; one whole tape per path costs more than 14 MB.
    peak = _criterion_7_peak_bytes(ou_model())
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


def test_allen_cahn_batch_memory_stays_within_a_block():
    # the same shape with the drift: the reference and the four spatial
    # targets step as one run whose Y holds 128 + 8 + 16 + 32 + 64 modes
    # side by side; it peaks near 9.2 MB
    peak = _criterion_7_peak_bytes(scheme.allen_cahn_model())
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("model, bound", [(ou_model(), 37e6),
                                          (scheme.allen_cahn_model(), 45e6)],
                         ids=["zero_drift", "allen_cahn"])
def test_full_batch_memory_holds_no_per_path_sample_store(model, bound):
    # a full batch of 64 paths peaks near 27.3 MB (zero drift) and 36.4 MB
    # (Allen-Cahn); storing every path's sample at every grid time of every
    # target before reducing them peaked near 39.0 and 47.0 MB
    peak = _criterion_7_peak_bytes(model, paths=64)
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB"


def test_batch_whose_only_large_array_would_be_its_sample_store_runs(monkeypatch):
    # 2 paths of a spatial target at M_ref=4096 have 2 x 4097 samples, above
    # a limit of 5000 values; its 4097 sums and M2s and every block fit, and
    # the study gives the bits it gives under the default limit
    cfg = ex.StudyConfig(model=ou_model(), m_grid=(128, 256, 512), n_grid=(1, 2, 4),
                         m_ref=4096, n_ref=8, paths=2, seed=3)
    want = ex.run_convergence_study(cfg)
    monkeypatch.setattr(heat_errors, "MAX_VALUES", 5000)
    assert ex.run_convergence_study(cfg) == want
    with pytest.raises(ValueError, match="a batch of 2 paths needs"):  # a block of 4096 rows
        ex.run_convergence_study(ex.StudyConfig(
            model=ou_model(), m_grid=(1, 2, 4), n_grid=(1, 2, 4), m_ref=4096, n_ref=8,
            paths=2, seed=3))


def test_moment_stderr_survives_a_large_mean():
    # ||Y_T||^2 of a zero-drift path started far out: the samples sit near
    # 3e21 with a relative spread near 1e-11, so E[x^2] - mean^2 cancels
    # every digit while the M2 merge keeps the spread.  70 paths: two batches.
    xi = np.array([1e15, 0.0])
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                               xi=xi)
    cfg = ex.StudyConfig(model=model, m_grid=(4,), n_grid=(2,), m_ref=4, n_ref=2,
                         paths=70, seed=11)
    (row,), _ = ex.moment_audit(cfg)
    mu = spectral.eigenvalues(2, 1.0)
    w = mu ** (2 * cfg.gamma)
    mean = np.exp(-mu) * xi
    var = ou_variance_discrete(4, 2, 1.0, 1.0)
    true_se = math.sqrt(np.sum(w * w * (4 * mean * mean * var + 2 * var * var)) / cfg.paths)
    assert 0.7 < row.stderr / true_se < 1.4


def _zero_drift_cfg(**kw):
    # xi_k ~ k^-0.9: the H_gamma norm of P_N xi grows like sqrt(log N), so the
    # suppressed counts differ across N
    xi = 0.3 * np.arange(1, 17) ** -0.9 / math.pi ** 0.4
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                               xi=xi)
    return small_cfg(model=model, paths=70, **kw)  # 70 paths: two batches merge


def _assert_same_moments(shared, alone):
    assert shared.keys() == alone.keys()
    for name in shared:
        assert np.asarray(shared[name]).tobytes() == np.asarray(alone[name]).tobytes(), name


def test_zero_drift_study_steps_shared_and_alone_give_the_same_moments():
    # with zero drift every N at one M reads prefixes of one run at the widest
    # N; each target alone must give the same bits
    cfg = _zero_drift_cfg()
    targets = [("temporal", M, cfg.n_ref) for M in cfg.m_grid] \
        + [("spatial", cfg.m_ref, N) for N in cfg.n_grid]
    shared = ex._accumulate(cfg, targets)
    for target in targets:
        _assert_same_moments(shared[target], ex._accumulate(cfg, [target])[target])
    # a cell run of one (M, N) steps that N on its own
    for _, M, N in targets[len(cfg.m_grid):]:
        assert shared[("spatial", M, N)]["suppressed"] \
            == ex._accumulate(cfg, [(M, N)])[(M, N)]["suppressed"]
    assert len({shared[t]["suppressed"] for t in targets}) > 2


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 3)), st.permutations((1, 2, 4, 8)),
       st.lists(st.tuples(st.sampled_from((1, 2, 3, 4, 6)), st.sampled_from((1, 2, 4, 8))),
                max_size=3), st.sampled_from(_MODELS), st.integers(0, 2**32 - 1))
def test_each_distance_target_of_a_study_has_the_bits_it_has_alone(blocks, widths, others,
                                                                   model, seed):
    # a run takes every squared distance from one copy of the reference rows,
    # which its widths fill narrowest first: spatial widths in any order,
    # N = N_ref among them, a temporal target at M_ref, targets off M_ref at
    # several N and a cell beside them, on `blocks` time blocks, with and
    # without a drift; each target's sum and M2 are those it has alone
    cfg = ex.StudyConfig(model=model, m_grid=(12,), n_grid=(8,), m_ref=12, n_ref=8,
                         paths=5, seed=seed)
    targets = [("temporal", blocks, 8), *(("spatial", 12, N) for N in widths),
               ("temporal", 12, 8), (blocks, 4),
               *(("temporal", M, N) for M, N in others if M % blocks == 0)]
    shared = ex._accumulate(cfg, targets)
    for target in shared:
        if len(target) == 3:
            _assert_same_moments(shared[target], ex._accumulate(cfg, [target])[target])


@pytest.mark.parametrize("model", [ou_model(8), scheme.allen_cahn_model(n_xi_modes=8)],
                         ids=["zero_drift", "allen_cahn"])
def test_distance_samples_are_the_squared_distance_to_the_reference_path(model):
    # one path: each column's sum is its one sample ||Y_ref(t) - Y^{M,N}(t)||^2,
    # from the two trajectories simulated on their own; with a drift the
    # widths of the reference run step their own columns, so a head that
    # read the reference's columns would drop their difference
    cfg = ex.StudyConfig(model=model, m_grid=(4, 16), n_grid=(2, 8), m_ref=16, n_ref=8,
                         paths=1, seed=3)
    tape = noise.NoiseTape(seed=3, M_master=cfg.m_master, N_master=cfg.n_master, T=1.0, path=0)
    y_ref, _ = scheme.simulate_trajectory(model, cfg.discretization(16, 8), tape)
    targets = [("spatial", 16, 2), ("spatial", 16, 8), ("temporal", 4, 8), ("temporal", 4, 2)]
    acc = ex._accumulate(cfg, targets)
    for target in targets:
        _, M, N = target
        y, _ = scheme.simulate_trajectory(model, cfg.discretization(M, N), tape)
        diff = y_ref[:: 16 // M].copy()
        diff[:, :N] -= y
        np.testing.assert_array_equal(acc[target]["sum"], np.einsum("ij,ij->i", diff, diff))


def test_spatial_estimate_is_the_sup_over_grid_times():
    # zero drift and xi_k = 1 on every mode: each N reads a prefix of the
    # reference run, so its squared distance is ||Y_ref[N:]||^2, which is
    # N_ref - N on every path at t = 0 and decays from there; the estimate is
    # read at t = 0, with a stderr of 0 (the sample at T is far smaller)
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                               xi=np.ones(16))
    cfg = small_cfg(model=model, n_grid=(2, 4, 8, 16), paths=ex.BATCH_PATHS + 3)
    rows, _ = ex.run_convergence_study(cfg)
    spatial = [(r.N, r.estimate, r.stderr) for r in rows if r.kind == "spatial"]
    assert spatial == [(N, math.sqrt(cfg.n_ref - N), 0.0) for N in cfg.n_grid]
    acc = ex._accumulate(cfg, [("spatial", cfg.m_ref, 2)])[("spatial", cfg.m_ref, 2)]
    assert acc["sum"][-1] / acc["paths"] < 0.01 * (cfg.n_ref - 2)


@pytest.mark.parametrize("model", [None, scheme.allen_cahn_model(n_xi_modes=16)],
                         ids=["zero_drift", "allen_cahn"])
def test_cells_at_one_m_equal_each_cell_alone(model):
    # N = 1 shares the run of N = 16 at a coarsening group of 8 master steps
    cfg = _zero_drift_cfg(m_grid=(16,), n_grid=(1, 8, 16))
    cfg = cfg if model is None else replace(cfg, model=model)
    cells = [(16, 8), (16, 16), (16, 1)]  # the widest N is not first
    shared = ex._accumulate(cfg, cells)
    for cell in cells:
        _assert_same_moments(shared[cell], ex._accumulate(cfg, [cell])[cell])
    # with zero drift N = 8 is read from the run at N = 16, and its own count differs
    assert model is not None or shared[(16, 8)]["suppressed"] != shared[(16, 16)]["suppressed"]
    rows, _ = ex.moment_audit(cfg)
    assert rows == [ex.moment_audit(replace(cfg, n_grid=(N,)))[0][0] for N in cfg.n_grid]
    assert ex.activation_fractions(cfg, cells) \
        == [row for cell in cells for row in ex.activation_fractions(cfg, [cell])]


@pytest.mark.parametrize("model", [ou_model(), scheme.allen_cahn_model(n_xi_modes=16)],
                         ids=["zero_drift", "allen_cahn"])
def test_study_steps_each_run_of_the_plan_once_per_block(monkeypatch, model):
    # whatever the drift, each N of an M, N = 1 included, is one width of its
    # M's run, in target order after the reference
    runs = [(128, (16, 1, 4, 8)), (4, (16,)), (8, (16,)), (16, (16,))]
    # experiments.run_scheme is the name the benchmark's trace wraps
    calls = []
    kernel = ex.run_scheme

    def counted(model, d, dw, start=None, widths=None):
        assert d.N == max(widths) == dw.shape[2]
        calls.append((d.M, widths))
        return kernel(model, d, dw, start=start, widths=widths)
    monkeypatch.setattr(ex, "run_scheme", counted)
    ex.run_convergence_study(small_cfg(model=model, n_grid=(1, 4, 8), paths=70))
    # two batches of 64 and 6 paths, each in 4 blocks of 32 master steps
    # (one step at M = 4), the reference's run first in each block
    assert calls == 2 * 4 * runs


def _blown_up_zero_drift_cfg(mode):
    # nu = 0.01 keeps the modes up to 8 from decaying within a step at M = 128,
    # so e^{hA} Y + O overflows in the mode that starts near the float limit
    xi = np.zeros(16)
    xi[mode] = 1.7e308
    model = scheme.ModelParams(T=1.0, nu=0.01, a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                               xi=xi)
    return small_cfg(model=model, paths=70)


def test_zero_drift_non_finite_state_names_the_resolution_a_separate_run_names():
    # each N is checked on its own prefix of the shared run, in the order of
    # the targets, so the named resolution is the one that stepping every N
    # on its own finds first
    with pytest.raises(ValueError, match=r"non-finite state of reference on path 0"):
        strong_error(_blown_up_zero_drift_cfg(0), 128, 8)
    with pytest.raises(ValueError, match=r"non-finite state of cell M=128 N=2 on path 0"):
        ex.activation_fractions(_blown_up_zero_drift_cfg(0), [(128, 2), (128, 8)])
    # mode 8 overflows: N = 2 stays finite, and the N = 8 after it is named
    with pytest.raises(ValueError, match=r"non-finite state of cell M=128 N=8 on path 0"):
        ex.activation_fractions(_blown_up_zero_drift_cfg(7), [(128, 2), (128, 8), (128, 16)])
    assert ex.activation_fractions(_blown_up_zero_drift_cfg(7), [(128, 2)])[0][2] >= 0
