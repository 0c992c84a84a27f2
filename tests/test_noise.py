import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spde1d import heat_errors, noise, nonlinearity, scheme, spectral

from oracles import (_bridge_coefficients, bridge_estimate, ou_second_moment,
                     ou_variance_discrete, temporal_mode_integral)


def small_tape(**kw):
    args = dict(seed=42, M_master=8, N_master=5, T=1.0, path=0)
    args.update(kw)
    return noise.NoiseTape(**args)


def ou_run(dw, nu=1.0, xi=(), T=1.0):
    """O rows of zero-drift run_scheme on increments (paths, M, N), O_0 = P_N xi."""
    *_, M, N = np.shape(dw)
    model = scheme.ModelParams(T=T, nu=nu, a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                               xi=np.asarray(xi, dtype=np.float64))
    return scheme.run_scheme(model, scheme.DiscretizationParams(M=M, N=N), dw)[1]


def test_tape_validation():
    with pytest.raises(ValueError):
        small_tape(seed=-1)
    with pytest.raises(ValueError):
        small_tape(seed=2**64)
    with pytest.raises(ValueError):
        small_tape(path=-3)
    with pytest.raises(ValueError):
        small_tape(M_master=0)
    with pytest.raises(ValueError):
        small_tape(T=0.0)
    for bad in (math.inf, -math.inf, math.nan):  # as ModelParams: increments would be +-inf
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            small_tape(T=bad)
    # a non-integral index would be truncated to another tape's; a bool is
    # not an integer, a numpy integer is
    for bad in (dict(seed=1.5), dict(seed=True), dict(seed=np.float64(3.0)), dict(path=2.7),
                dict(path=False), dict(M_master=4.0), dict(N_master=5.0), dict(N_master=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            small_tape(**bad)
    np.testing.assert_array_equal(small_tape(seed=np.uint64(42), path=np.int32(0),
                                             M_master=np.int64(8)).increments(8, 5),
                                  small_tape().increments(8, 5))
    # every 64-bit seed and path is its own tape, also past 2^53 and 2^63
    for big in (2**60, 2**64 - 2):
        for field in ("seed", "path"):
            assert not np.array_equal(small_tape(**{field: big}).increments(8, 5),
                                      small_tape(**{field: big + 1}).increments(8, 5))


def test_identical_tapes_reproduce_bitwise():
    a = small_tape().increments(8, 5)
    b = small_tape().increments(8, 5)
    np.testing.assert_array_equal(a, b)
    c = small_tape(path=1).increments(8, 5)
    assert not np.array_equal(a, c)
    d = small_tape(seed=43).increments(8, 5)
    assert not np.array_equal(a, d)


def test_normal_at_matches_block_everywhere():
    tape = small_tape()
    for sub in (noise.SUBSTREAM_INCREMENTS, noise.SUBSTREAM_AUX):
        block = tape.normals(substream=sub)
        for j, k in [(0, 0), (0, 4), (3, 2), (7, 4), (5, 0)]:
            assert tape.normal_at(j, k, substream=sub) == block[j, k]


def test_block_prefix_identity():
    tape = small_tape()
    full = tape.normals()
    np.testing.assert_array_equal(tape.normals(rows=4, cols=3), full[:4, :3])
    np.testing.assert_array_equal(tape.normals(rows=8, cols=1), full[:, :1])


def test_master_increment_rows_match_the_full_block():
    # N_master=5 and odd row starts put blocks off the 4-word Philox boundary
    tape = small_tape(M_master=12)
    full = tape.master_increments()
    for first, stop in [(0, 12), (0, 1), (3, 7), (5, 12), (11, 12), (6, 6)]:
        np.testing.assert_array_equal(tape.master_increments(rows=(first, stop)),
                                      full[first:stop])
        np.testing.assert_array_equal(tape.master_increments(3, rows=(first, stop)),
                                      full[first:stop, :3])
    for bad in [(-1, 3), (4, 3), (0, 13)]:
        with pytest.raises(ValueError):
            tape.master_increments(rows=bad)


def test_coarsening_keeps_leading_path_axis():
    blocks = np.stack([small_tape(path=p).master_increments() for p in range(3)])
    coarse = noise.coarsen_increments(blocks, 2)
    for p in range(3):
        np.testing.assert_array_equal(coarse[p], small_tape(path=p).increments(2, 5))
    assert noise.coarsen_increments(blocks, 8) is blocks  # nothing to sum


@st.composite
def _coarsening_cases(draw):
    modes = draw(st.integers(2, 40))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 17)), draw(st.integers(1, 9)), modes)
    return shape, draw(st.lists(st.integers(1, modes), min_size=1, max_size=3))


_PREFIXES = (1, 2, 3, 7, 8, 64, 127)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_coarsening_cases(), st.integers(0, 2**32 - 1))
@example(((1, 16, 4, 128), _PREFIXES), 8)
@example(((3, 9, 1, 128), _PREFIXES), 8)
@example(((64, 128, 1, 128), _PREFIXES), 8)
@example(((64, 2, 8, 128), _PREFIXES), 8)
def test_coarsening_is_a_prefix_of_a_wider_one(case, seed):
    # zero-drift studies read every N from a run at a wider N on the strength
    # of this, one mode included, which numpy alone would sum in another order.
    # Shapes are (paths, group, steps, modes); each n >= 1 is a prefix width
    (paths, group, steps, modes), prefixes = case
    master = np.random.default_rng(seed).standard_normal((paths, group * steps, modes))
    wide = noise.coarsen_increments(master, steps)
    for n in prefixes:
        np.testing.assert_array_equal(noise.coarsen_increments(master[..., :n], steps),
                                      wide[..., :n])


def test_substreams_are_distinct():
    tape = small_tape()
    assert not np.array_equal(tape.normals(substream=0), tape.normals(substream=1))


def test_block_bounds_guard():
    tape = small_tape()
    with pytest.raises(ValueError):
        tape.normals(rows=9)
    with pytest.raises(ValueError):
        tape.normal_at(8, 0)
    with pytest.raises(ValueError, match="-1 columns"):
        tape.normals(cols=-1)
    with pytest.raises(ValueError, match="-2 columns"):
        tape.master_increments(n_modes=-2)


def test_increment_moments_large_sample():
    # one million mode-1 increments at unit master step
    tape = noise.NoiseTape(seed=123, M_master=10**6, N_master=1, T=float(10**6))
    z = tape.master_increments()[:, 0]
    n = z.size
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 0.01


def test_coarsen_identity_and_pairwise_sum():
    tape = small_tape()
    fine = tape.master_increments()
    np.testing.assert_array_equal(tape.increments(8, 5), fine)
    coarse = tape.increments(4, 5)
    np.testing.assert_allclose(coarse, fine[0::2] + fine[1::2], rtol=0, atol=0)


def test_coarsen_telescopes_to_total():
    tape = noise.NoiseTape(seed=5, M_master=24, N_master=3, T=2.0)
    total = tape.master_increments().sum(axis=0)
    for m in (1, 2, 3, 4, 6, 8, 12, 24):
        np.testing.assert_allclose(tape.increments(m, 3).sum(axis=0), total,
                                   rtol=1e-12, atol=1e-14)


def test_coarsen_rejects_nondivisor():
    with pytest.raises(ValueError):
        small_tape().increments(3, 5)
    for n_steps in (0, -4):  # a zero or negative count, not a division or reshape error
        with pytest.raises(ValueError, match=f"got {n_steps}"):
            small_tape().increments(n_steps, 5)
        with pytest.raises(ValueError, match=f"got {n_steps}"):
            noise.coarsen_increments(np.zeros((2, 8, 3)), n_steps)


def test_ou_pure_decay():
    out = ou_run(np.zeros((1, 1, 1)), xi=[1.0], T=0.25)[0, 1]
    assert out[0] == pytest.approx(math.exp(-0.25 * math.pi**2), rel=1e-15)


def test_ou_one_step_variance_mc():
    # 1e5 independent single steps; Var O_1 = h e^{-2 mu h}
    h = 0.125
    n = 100_000
    tape = noise.NoiseTape(seed=9, M_master=n, N_master=1, T=n * h)
    dw = tape.master_increments()[:, 0]
    mu = float(spectral.eigenvalues(1, 1.0)[0])
    o1 = math.exp(-mu * h) * dw
    want = h * math.exp(-2 * mu * h)
    got = o1.var(ddof=1)
    se = want * math.sqrt(2.0 / (n - 1))
    assert abs(got - want) < 3 * se


def test_ou_terminal_variance_closed_form_mc():
    M, N, T, nu, paths = 8, 3, 1.0, 1.0, 600
    dw = np.stack([noise.NoiseTape(seed=21, M_master=M, N_master=N, T=T, path=p)
                   .increments(M, N) for p in range(paths)])
    samples = ou_run(dw, nu, T=T)[:, -1]
    want = ou_variance_discrete(M, N, T, nu)
    got = samples.var(axis=0, ddof=1)
    se = want * math.sqrt(2.0 / (paths - 1))
    assert np.all(np.abs(got - want) < 3 * se)


def test_ou_modes_uncorrelated():
    M, N, paths = 8, 4, 50_000
    decay = spectral.semigroup_factors(N, 1.0, 1.0 / M)
    # O_T as an explicit weighted sum of the increments, one tape per path
    weights = decay[None, :] ** np.arange(M, 0, -1)[:, None]
    terminal = np.empty((paths, N))
    for p in range(paths):
        tape = noise.NoiseTape(seed=77, M_master=M, N_master=N, T=1.0, path=p)
        terminal[p] = np.einsum("jk,jk->k", weights, tape.master_increments())
    cov = np.cov(terminal, rowvar=False)
    var = np.diag(cov)
    for i in range(N):
        for j in range(i + 1, N):
            se = math.sqrt(var[i] * var[j] / paths)
            assert abs(cov[i, j]) < 3 * se


def test_ou_initial_row():
    dw = small_tape().increments(8, 5)
    xi = np.array([0.5, -0.25, 0.0, 1.0, 2.0])
    [path] = ou_run(dw[None], xi=xi)
    np.testing.assert_array_equal(path[0], xi)
    assert path.shape == (9, 5)
    assert np.all(ou_run(dw[None])[0, 0] == 0.0)


def test_ou_second_moment_sums_mode_variances():
    direct = float(np.sum(ou_variance_discrete(16, 8, 1.0, 0.5)))
    assert ou_second_moment(16, 8, 1.0, 0.5) == pytest.approx(direct, rel=1e-15)


def test_bridge_variance_identity_per_mode():
    # sum_j coef_z^2 + beta^2 telescopes to the exact temporal mode integral
    M, N, T, nu = 16, 8, 1.0, 1.0
    coef_z, beta = _bridge_coefficients(M, N, T, nu)
    per_mode = (coef_z**2 + beta**2).sum(axis=0)
    for k in range(1, N + 1):
        want = temporal_mode_integral(M, k, T, nu)
        assert per_mode[k - 1] == pytest.approx(want, rel=1e-13)


def test_bridge_mc_agrees_with_exact_error():
    est, se = bridge_estimate(seed=7, n_steps=16, n_modes=64,
                              T=1.0, nu=1.0, paths=400)
    exact = heat_errors.temporal_error_exact(16, 64, 1.0, 1.0)
    assert abs(est - exact) < 3 * se


def test_bridge_scaling_flat_after_quarter_rate():
    # M^{0.24} x estimate should stay within a narrow band across three decades
    scaled = []
    for M in (4, 16, 64, 256, 1024):
        est, _ = bridge_estimate(seed=31, n_steps=M, n_modes=64,
                                 T=1.0, nu=1.0, paths=200)
        scaled.append(M**0.24 * est)
    assert max(scaled) / min(scaled) < 1.5
