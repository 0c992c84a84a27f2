import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde1d import noise, nonlinearity, scheme, spectral

from oracles import run_scheme_stepwise

PI2 = math.pi**2


def zero_model(T=1.0, nu=1.0, n_xi=4):
    return scheme.ModelParams(T=T, nu=nu,
                              a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                              xi=np.zeros(n_xi))


def test_model_params_validation():
    with pytest.raises(ValueError):
        zero_model(T=0.0)
    with pytest.raises(ValueError):
        zero_model(nu=-1.0)
    with pytest.raises(ValueError):
        scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(),
                           xi=np.array([np.inf]))


def test_xi_projection_pads_and_truncates():
    m = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(),
                           xi=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(m.xi_projected(4), [1.0, 2.0, 0.0, 0.0])
    np.testing.assert_array_equal(m.xi_projected(1), [1.0])


def test_discretization_params_windows():
    scheme.DiscretizationParams(M=4, N=4)           # defaults admissible
    scheme.DiscretizationParams(M=4, N=4, gamma=0.24, chi=0.024)
    with pytest.raises(ValueError):
        scheme.DiscretizationParams(M=4, N=4, gamma=1.0 / 6.0)   # boundary open
    with pytest.raises(ValueError):
        scheme.DiscretizationParams(M=4, N=4, gamma=0.25)
    with pytest.raises(ValueError):
        scheme.DiscretizationParams(M=4, N=4, gamma=0.2, chi=0.2 / 3 - 1 / 18 + 1e-9)
    with pytest.raises(ValueError):
        scheme.DiscretizationParams(M=4, N=4, chi=0.0)
    with pytest.raises(ValueError):
        scheme.DiscretizationParams(M=0, N=4)
    # M and N are integers, never rounded to one; a bool is not a count
    for bad in (dict(M=2.5, N=4), dict(M=4, N=4.5), dict(M=True, N=4), dict(M=4, N=False),
                dict(M="4", N=4), dict(M=4, N=None)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            scheme.DiscretizationParams(**bad)
    # an integral float or a numpy integer is stored as the Python int it equals
    d = scheme.DiscretizationParams(M=np.int64(4), N=4.0)
    assert (d.M, d.N) == (4, 4) and type(d.M) is int and type(d.N) is int


def test_default_chi_is_cap():
    assert scheme.DEFAULT_CHI == pytest.approx(scheme.DEFAULT_GAMMA / 3 - 1 / 18,
                                               rel=1e-12)


def test_threshold_power_law():
    d = scheme.DiscretizationParams(M=512, N=4)
    assert d.threshold(2.0) == pytest.approx((512 / 2.0) ** d.chi, rel=1e-15)
    assert scheme.DiscretizationParams(M=1, N=1).threshold(1.0) == 1.0


def test_initial_presets():
    assert np.all(scheme.initial_coefficients("zero", 5) == 0.0)
    np.testing.assert_array_equal(scheme.initial_coefficients("first_mode", 3),
                                  [1.0, 0.0, 0.0])
    bump = scheme.initial_coefficients("bump", 6)
    assert bump[0] == pytest.approx(4 * math.sqrt(2) / math.pi**3, rel=1e-14)
    assert np.all(bump[1::2] == 0.0)
    with pytest.raises(ValueError):
        scheme.initial_coefficients("spike", 4)


def test_bump_preset_reconstructs_parabola():
    c = scheme.initial_coefficients("bump", 256)
    G = spectral.default_grid(256)
    x = np.arange(1, G) / G
    err = np.max(np.abs(spectral.to_grid(c, spectral.GridLayout((256,), (G,))) - x * (1 - x)))
    assert err < 1e-6


def test_indicator_zero_state_and_blowup():
    d = scheme.DiscretizationParams(M=4, N=2)
    z = np.zeros(2)
    assert scheme.truncation_indicator(z, z, d, 1.0, 1.0)
    assert not scheme.truncation_indicator(np.array([50.0, 0.0]), z, d, 1.0, 1.0)


def test_indicator_boundary_is_nonstrict():
    # hunt the ulp neighborhood for a state whose norm sum lands exactly on
    # the threshold (M=T=1 makes the threshold exactly 1.0)
    d = scheme.DiscretizationParams(M=1, N=1)
    assert d.threshold(1.0) == 1.0
    w = float(spectral.hr_norm(np.array([1.0]), d.gamma, 1.0))
    c0 = 0.5 / w
    hit = None
    for step in range(-120, 121):
        c = c0
        for _ in range(abs(step)):
            c = np.nextafter(c, np.inf if step > 0 else -np.inf)
        v = np.array([float(c)])
        total = spectral.hr_norm(v, d.gamma, 1.0) + spectral.hr_norm(v, d.gamma, 1.0)
        if total == 1.0:
            hit = v
            break
    assert hit is not None, "no exact boundary state within 120 ulps"
    assert scheme.truncation_indicator(hit, hit, d, 1.0, 1.0)
    # first scale strictly above the threshold flips the indicator off
    up = hit.copy()
    while True:
        up[0] = np.nextafter(up[0], np.inf)
        total = 2.0 * float(spectral.hr_norm(up, d.gamma, 1.0))
        if total > 1.0:
            break
    assert not scheme.truncation_indicator(up, up, d, 1.0, 1.0)


def test_indicator_is_the_kernels_decision_at_the_boundary():
    # sqrt(sum(w * v * v)), a summed H_gamma norm with its own rounding, and
    # the kernel's can fall on opposite sides of the threshold; hunt the ulp
    # neighborhood of ||v||_{H_gamma} = 1/2 for such a state Y = O = v (M=T=1:
    # threshold 1.0), so that an indicator built on another norm would fail
    # the assertions below
    d = scheme.DiscretizationParams(M=1, N=8)
    w = spectral.eigenvalues(8, 1.0) ** (2 * d.gamma)
    hit = None
    for seed in range(20):
        u = np.random.default_rng(seed).standard_normal(8)
        c = 0.5 / float(np.sqrt(np.sum(w * u * u)))
        for _ in range(20):
            c = np.nextafter(c, -np.inf)
        for _ in range(40):
            v = c * u
            kernel_on = 2.0 * float(spectral.weighted_norm(w, v)) <= 1.0
            summed_on = 2.0 * float(np.sqrt(np.sum(w * v * v))) <= 1.0
            if kernel_on != summed_on:
                hit = v
                break
            c = np.nextafter(c, np.inf)
        if hit is not None:
            break
    assert hit is not None, "no straddling state within 20 ulps for 20 directions"
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(), xi=hit)
    _, _, [suppressed] = scheme.run_scheme(model, d, np.zeros((1, 1, 8)))
    assert scheme.truncation_indicator(hit, hit, d, 1.0, 1.0) == (suppressed == 0)
    assert (2.0 * float(spectral.hr_norm(hit, d.gamma, 1.0)) <= 1.0) == (suppressed == 0)
    Y, O = scheme.simulate_trajectory(model, d, noise.NoiseTape(0, 1, 8, 1.0))
    first_row = "".join(scheme.trajectory_csv(model, d, Y, O)).split("\n")[1]
    indicator_column = first_row.split(",")[-1]
    assert indicator_column == str(int(suppressed == 0))


def test_one_step_suppressed_is_bare_semigroup():
    # xi = e_1 exceeds every admissible threshold, so the drift must not fire
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(),
                               xi=np.array([1.0]))
    d = scheme.DiscretizationParams(M=1, N=1)
    [y], [o], [suppressed] = scheme.run_scheme(model, d, np.zeros((1, 1, 1)))
    assert suppressed == 1
    assert y[1, 0] == pytest.approx(math.exp(-PI2), rel=1e-14)


def test_one_step_closed_form_when_drift_active():
    # scaled initial state keeps the indicator on; with a single mode the
    # projected Allen-Cahn drift of c*e_1 is c - (3/2) c^3
    c = 0.1
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(),
                               xi=np.array([c]))
    d = scheme.DiscretizationParams(M=1, N=1)
    [y], [o], [suppressed] = scheme.run_scheme(model, d, np.zeros((1, 1, 1)))
    assert suppressed == 0
    drift = c - 1.5 * c**3
    want = c * math.exp(-PI2) + (1 - math.exp(-PI2)) / PI2 * drift
    assert y[1, 0] == pytest.approx(want, rel=1e-13)
    assert o[1, 0] == pytest.approx(c * math.exp(-PI2), rel=1e-14)


def test_euler_step_matches_run_scheme():
    # the one-step recursion of the module docstring, written out per state
    model = scheme.allen_cahn_model(n_xi_modes=8)
    d = scheme.DiscretizationParams(M=4, N=8)
    tape = noise.NoiseTape(seed=3, M_master=4, N_master=8, T=1.0)
    Y, O = scheme.simulate_trajectory(model, d, tape)
    dw = tape.increments(4, 8)
    decay = spectral.semigroup_factors(8, model.nu, 0.25)
    phi = spectral.phi1_factors(8, model.nu, 0.25)
    for m in range(4):
        o_next = decay * (O[m] + dw[m])
        y_next = decay * Y[m] + o_next - decay * O[m]
        if scheme.truncation_indicator(Y[m], O[m], d, model.T, model.nu):
            y_next = y_next + phi * nonlinearity.project_F(Y[m], model.a)
        np.testing.assert_allclose(y_next, Y[m + 1], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(o_next, O[m + 1])


def test_zero_drift_reduces_to_ou():
    model = zero_model(n_xi=16)
    d = scheme.DiscretizationParams(M=32, N=16)
    tape = noise.NoiseTape(seed=11, M_master=32, N_master=16, T=1.0)
    Y, O = scheme.simulate_trajectory(model, d, tape)
    decay = spectral.semigroup_factors(16, 1.0, 1.0 / 32)
    ou = np.zeros((33, 16))
    for m, dw in enumerate(tape.increments(32, 16)):
        ou[m + 1] = decay * (ou[m] + dw)
    np.testing.assert_allclose(Y, ou, rtol=0, atol=1e-14)
    np.testing.assert_allclose(O, ou, rtol=0, atol=1e-14)


def test_trajectory_reproducible_across_tape_objects():
    model = scheme.allen_cahn_model(n_xi_modes=8)
    d = scheme.DiscretizationParams(M=8, N=8)
    t1 = noise.NoiseTape(seed=5, M_master=64, N_master=16, T=1.0)
    t2 = noise.NoiseTape(seed=5, M_master=64, N_master=16, T=1.0)
    for a, b in zip(scheme.simulate_trajectory(model, d, t1),
                    scheme.simulate_trajectory(model, d, t2)):
        np.testing.assert_array_equal(a, b)


def test_suppression_counter_counts_indicator_offs():
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.allen_cahn(),
                               xi=np.array([2.0, 0.0, 0.0, 0.0]))
    d = scheme.DiscretizationParams(M=16, N=4)
    tape = noise.NoiseTape(seed=1, M_master=16, N_master=4, T=1.0)
    Y, O = scheme.simulate_trajectory(model, d, tape)
    _, _, [suppressed] = scheme.run_scheme(model, d, tape.increments(16, 4)[None])
    manual = sum(
        0 if scheme.truncation_indicator(y, o, d, model.T, model.nu) else 1
        for y, o in zip(Y[:-1], O[:-1]))
    assert suppressed == manual
    assert 0 < suppressed <= 16  # the large first mode suppresses at least once


def test_simulate_trajectory_guards():
    model = zero_model()
    tape = noise.NoiseTape(seed=0, M_master=8, N_master=4, T=1.0)
    with pytest.raises(ValueError):
        scheme.simulate_trajectory(model, scheme.DiscretizationParams(M=3, N=4), tape)
    with pytest.raises(ValueError):
        scheme.simulate_trajectory(model, scheme.DiscretizationParams(M=8, N=8), tape)
    with pytest.raises(ValueError):
        scheme.simulate_trajectory(zero_model(T=2.0),
                                   scheme.DiscretizationParams(M=8, N=4), tape)


def test_trajectory_csv_roundtrip_and_indicator():
    model = scheme.allen_cahn_model(n_xi_modes=4)
    d = scheme.DiscretizationParams(M=4, N=4)
    tape = noise.NoiseTape(seed=13, M_master=4, N_master=4, T=1.0)
    Y, O = scheme.simulate_trajectory(model, d, tape)
    text = "".join(scheme.trajectory_csv(model, d, Y, O))
    lines = text.strip().split("\n")
    assert lines[0] == scheme.TRAJECTORY_HEADER
    assert len(lines) == 1 + 5 * 4
    for row in lines[1:]:
        t, k, yc, oc, ind = row.split(",")
        m = round(float(t) * d.M / model.T)
        k = int(k) - 1
        # %.17g serialization is lossless for doubles
        assert float(yc) == Y[m, k]
        assert float(oc) == O[m, k]
        want = int(scheme.truncation_indicator(Y[m], O[m], d, model.T, model.nu))
        assert int(ind) == want


def test_allen_cahn_model_defaults():
    m = scheme.allen_cahn_model()
    assert m.T == 1.0 and m.nu == 1.0
    assert m.a.as_tuple() == (0.0, 1.0, 0.0, -1.0)
    assert m.xi.shape == (512,)


def _batch_inputs(paths=5, M=32, N=16):
    model = scheme.allen_cahn_model(n_xi_modes=N)
    d = scheme.DiscretizationParams(M=M, N=N)
    dw = np.stack([noise.NoiseTape(seed=4, M_master=M, N_master=N, T=1.0, path=p)
                   .increments(M, N) for p in range(paths)])
    y0 = np.tile(model.xi_projected(N), (paths, 1))
    y0[0, 0] = 5.0  # path 0 starts far above the threshold
    return model, d, dw, (y0, y0.copy())


def test_path_batch_equals_serial_runs_bit_for_bit():
    model, d, dw, (y0, o0) = _batch_inputs()
    # the first step's mask is mixed: drift off on path 0 only
    on = [scheme.truncation_indicator(y0[p], o0[p], d, model.T, model.nu)
          for p in range(len(y0))]
    assert on == [False] + [True] * (len(y0) - 1)
    y, o, suppressed = scheme.run_scheme(model, d, dw, start=(y0, o0))
    assert y.shape == o.shape == (len(y0), d.M + 1, d.N)
    for p in range(len(y0)):
        [ys], [os_], [sup] = scheme.run_scheme(model, d, dw[p:p + 1], start=(y0[p], o0[p]))
        np.testing.assert_array_equal(y[p], ys)
        np.testing.assert_array_equal(o[p], os_)
        assert suppressed[p] == sup
    assert suppressed[0] > 0 and suppressed[0] != suppressed[1]


def test_run_in_pieces_through_start_equals_one_shot():
    model, d, dw, _ = _batch_inputs()
    [y], [o], [suppressed] = scheme.run_scheme(model, d, dw[1:2])
    cut = 11
    xi = model.xi_projected(d.N)
    [y1], [o1], [s1] = scheme.run_scheme(model, d, dw[1:2, :cut], start=(xi, xi))
    [y2], [o2], [s2] = scheme.run_scheme(model, d, dw[1:2, cut:], start=(y1[-1], o1[-1]))
    np.testing.assert_array_equal(np.concatenate([y1, y2[1:]]), y)
    np.testing.assert_array_equal(np.concatenate([o1, o2[1:]]), o)
    assert s1 + s2 == suppressed
    # the same with every path
    yb1, ob1, sb1 = scheme.run_scheme(model, d, dw[:, :cut], start=(xi, xi))
    yb2, ob2, sb2 = scheme.run_scheme(model, d, dw[:, cut:], start=(yb1[:, -1], ob1[:, -1]))
    np.testing.assert_array_equal(np.concatenate([yb1[1], yb2[1, 1:]]), y)
    assert sb1[1] + sb2[1] == suppressed


@pytest.mark.parametrize("case", ["mixed_mask", "mixed_mask_64", "all_off_then_on", "from_xi",
                                  "zero_drift"])
def test_run_scheme_equals_the_stepwise_oracle_bit_for_bit(case):
    # the kernel steps O first and gates Y afterwards; the oracle steps both
    # together, one step at a time, so a fault that a batch and a single run
    # share still shows here.  64 paths is the study's batch width.
    model, d, dw, (y0, o0) = _batch_inputs(paths=64 if case == "mixed_mask_64" else 5)
    start = (y0, o0)
    if case == "all_off_then_on":
        y0[:, 0] = 5.0  # every path starts far above the threshold
    elif case == "from_xi":
        start = None
    elif case == "zero_drift":
        model = scheme.ModelParams(T=1.0, nu=1.0, xi=np.array([2.0]),
                                   a=nonlinearity.CubicCoefficients(0, 0, 0, 0))
        start = None
    y, o, suppressed = scheme.run_scheme(model, d, dw, start=start)
    ys, os_, sup, on = run_scheme_stepwise(model, d, dw, start=start)
    np.testing.assert_array_equal(y, ys)
    np.testing.assert_array_equal(o, os_)
    np.testing.assert_array_equal(suppressed, sup)
    steps_on = on.sum(axis=1)
    if case == "mixed_mask_64":  # every step masks some paths and keeps others
        assert 0 < steps_on.min() and steps_on.max() < len(y0)
    else:
        assert steps_on.max() == len(y0)  # an all-on step
    if case == "mixed_mask":
        assert 0 < steps_on[0] < len(y0)
    if case in ("all_off_then_on", "zero_drift"):
        assert steps_on.min() == 0
    for p in range(len(y0)):  # one path at a time too
        start_p = None if start is None else (y0[p], o0[p])
        [yp], [op], [sp] = scheme.run_scheme(model, d, dw[p:p + 1], start=start_p)
        np.testing.assert_array_equal(yp, ys[p])
        np.testing.assert_array_equal(op, os_[p])
        assert sp == sup[p]


def test_lockstep_widths_equal_each_width_alone_bit_for_bit():
    # Allen-Cahn at the study's batch width of 64 paths, so that steps are
    # mixed; unsorted, odd widths, one width below N, or a repeated width
    # whose columns add up to N, run in two halves through `start`.  A drift
    # lays the widths side by side; zero drift steps one block at the widest
    # width, whose prefixes the widths read.
    for drift in (True, False):
        for widths in ((16, 3, 12, 5), (4,), (8, 8)):
            _check_lockstep_widths(drift, widths)


def test_lockstep_widths_of_the_general_cubic_equal_each_width_alone_bit_for_bit():
    # the even part a2 v^2 and the constant a0 are added segment by segment
    general = nonlinearity.CubicCoefficients(1, 2, 3, -4)
    for widths in ((16, 3, 12, 5), (4,), (8, 8)):
        _check_lockstep_widths(True, widths, a=general)


def _check_lockstep_widths(drift, widths, a=None):
    model, d, dw, (y0, o0) = _batch_inputs(paths=64)
    if not drift or a is not None:
        model = scheme.ModelParams(T=model.T, nu=model.nu, xi=model.xi,
                                   a=a or nonlinearity.CubicCoefficients(0, 0, 0, 0))
    ends, cut = np.cumsum(widths), 13
    columns = [slice(e - n, e) if drift else slice(n) for n, e in zip(widths, ends)]
    y_start = np.concatenate([y0[:, :n] for n in widths], axis=1) if drift \
        else y0[:, :max(widths)]
    y1, o1, s1 = scheme.run_scheme(model, d, dw[:, :cut], start=(y_start, o0), widths=widths)
    y2, o2, s2 = scheme.run_scheme(model, d, dw[:, cut:], start=(y1[:, -1], o1[:, -1]),
                                   widths=widths)
    assert y1.shape == (len(y0), cut + 1, y_start.shape[1])
    assert s1.shape == (len(y0), len(widths))
    y, o = np.concatenate([y1, y2[:, 1:]], axis=1), np.concatenate([o1, o2[:, 1:]], axis=1)
    for r, n in enumerate(widths):
        dn, start = scheme.DiscretizationParams(M=d.M, N=n), (y0[:, :n], o0[:, :n])
        alone = scheme.run_scheme(model, dn, dw[..., :n], start=start)
        ys, os_, sup, on = run_scheme_stepwise(model, dn, dw[..., :n], start=start)
        steps_on = on.sum(axis=1)
        assert 0 < steps_on.min() and steps_on.max() < len(y0)  # every step is mixed
        for ref_y, ref_o, ref_s in (alone, (ys, os_, sup)):
            np.testing.assert_array_equal(_bits(y[..., columns[r]]), _bits(ref_y))
            np.testing.assert_array_equal(_bits(o[..., :n]), _bits(ref_o))
            np.testing.assert_array_equal(s1[:, r] + s2[:, r], ref_s)


_DRIFTS = ((0, 0, 0, 0), (0, 1, 0, -1), (1, 2, 3, -4))


@st.composite
def _lockstep_cases(draw):
    widths = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    n = draw(st.sampled_from((max(widths), sum(widths), sum(widths) + 3)))
    m = draw(st.sampled_from((1, 2, 4, 8)))
    return widths, n, m, draw(st.integers(0, m)), draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_lockstep_cases(), st.sampled_from(_DRIFTS), st.integers(0, 2**32 - 1))
def test_lockstep_run_resumed_anywhere_equals_each_width_alone(case, coeffs, seed):
    # widths a multiset of [1, N], N their maximum, their sum or more; path
    # 0 starts far above the threshold, and with a drift path 1 in its last
    # segment only, so steps mix kept and dropped drift across rows and
    # segments.  The run split at `cut` through `start` equals the unsplit
    # run, and each width's columns equal a run at that width alone and the
    # stepwise oracle, bit for bit.  With a drift, the unsplit run projects
    # once per step that keeps any drift, exactly the rows that the oracle
    # keeps in some segment
    widths, n, m, cut, paths = case
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.CubicCoefficients(*coeffs),
                               xi=scheme.initial_coefficients("bump", n))
    drift = any(coeffs)
    d = scheme.DiscretizationParams(M=m, N=n)
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((paths, m, n)) * math.sqrt(model.T / m)
    y0 = np.tile(model.xi_projected(n), (paths, 1))
    y0[0, 0] = 5.0
    o0 = y0.copy()
    starts = [y0[:, :w].copy() for w in widths]  # each width's own Y_0
    if drift and paths > 1:
        starts[-1][1, 0] = 5.0
    ends = np.cumsum(widths)
    columns = [slice(e - w, e) if drift else slice(w) for w, e in zip(widths, ends)]
    y_start = np.concatenate(starts, axis=1) if drift else y0[:, :max(widths)]
    with mock.patch.object(scheme, "project_F", wraps=scheme.project_F) as projected:
        y, o, s = scheme.run_scheme(model, d, dw, start=(y_start, o0), widths=widths)
    y1, o1, s1 = scheme.run_scheme(model, d, dw[:, :cut], start=(y_start, o0), widths=widths)
    y2, o2, s2 = scheme.run_scheme(model, d, dw[:, cut:], start=(y1[:, -1], o1[:, -1]),
                                   widths=widths)
    np.testing.assert_array_equal(_bits(np.concatenate([y1, y2[:, 1:]], axis=1)), _bits(y))
    np.testing.assert_array_equal(_bits(np.concatenate([o1, o2[:, 1:]], axis=1)), _bits(o))
    np.testing.assert_array_equal(s1 + s2, s)
    kept = np.zeros((m, paths), dtype=bool)  # the oracle's rows that keep any drift
    for r, w in enumerate(widths):
        dn, start = scheme.DiscretizationParams(M=m, N=w), (starts[r], o0[:, :w])
        alone = scheme.run_scheme(model, dn, dw[..., :w], start=start)
        ys, os_, sup, on = run_scheme_stepwise(model, dn, dw[..., :w], start=start)
        kept |= on
        for ref_y, ref_o, ref_s in (alone, (ys, os_, sup)):
            np.testing.assert_array_equal(_bits(y[..., columns[r]]), _bits(ref_y))
            np.testing.assert_array_equal(_bits(o[..., :w]), _bits(ref_o))
            np.testing.assert_array_equal(s[:, r], ref_s)
    steps = np.flatnonzero(kept.any(axis=1)) if drift else []
    assert projected.call_count == len(steps)
    for call, k in zip(projected.call_args_list, steps):
        np.testing.assert_array_equal(_bits(call.args[0]), _bits(y[kept[k], k]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.sampled_from(_DRIFTS),
       st.integers(2, 6), st.sampled_from((1, 2, 4, 8)), st.integers(0, 2**32 - 1))
def test_each_path_alone_equals_its_row_of_the_lockstep_run(widths, coeffs, paths, m, seed):
    # path 0 starts far above the threshold and path 1 in its last segment
    # only, so steps mix rows and segments that keep and drop the drift;
    # the kernel adds the drift to the kept rows and columns only, which
    # each path run alone (P = 1) must see as the same bits
    n = max(widths)
    model = scheme.ModelParams(T=1.0, nu=1.0, a=nonlinearity.CubicCoefficients(*coeffs),
                               xi=scheme.initial_coefficients("bump", n))
    d = scheme.DiscretizationParams(M=m, N=n)
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((paths, m, n)) * math.sqrt(model.T / m)
    o0 = np.tile(model.xi_projected(n), (paths, 1))
    cols, _ = scheme.lockstep_layout(widths, any(coeffs))
    y0 = o0[:, cols]
    y0[0, 0] = 5.0
    y0[1, -widths[-1]] = 5.0
    y, o, s = scheme.run_scheme(model, d, dw, start=(y0, o0), widths=widths)
    for p in range(paths):
        [yp], [op], [sp] = scheme.run_scheme(model, d, dw[p:p + 1], start=(y0[p], o0[p]),
                                             widths=widths)
        np.testing.assert_array_equal(_bits(yp), _bits(y[p]))
        np.testing.assert_array_equal(_bits(op), _bits(o[p]))
        np.testing.assert_array_equal(sp, s[p])


def test_lockstep_segment_with_a_huge_state_warns_of_nothing():
    # path 1's width-8 segment starts near 1e103, so its indicator is off,
    # while its width-16 segment keeps the drift: the one projection of that
    # row takes the huge segment too, whose cube overflows and is never added
    model, d, dw, _ = _batch_inputs(paths=3)
    widths = (16, 8)
    y0 = np.tile(model.xi_projected(d.N), (3, 1))
    o0 = y0.copy()
    y_start = np.concatenate([y0[:, :n] for n in widths], axis=1)
    y_start[1, 16:] = 1e103
    on = scheme.truncation_indicator(y_start[1, :16], o0[1], d, model.T, model.nu)
    off = scheme.truncation_indicator(y_start[1, 16:], o0[1, :8], d, model.T, model.nu)
    assert on and not off
    with pytest.warns(RuntimeWarning, match="overflow"):
        nonlinearity.project_F(y_start[1], model.a, spectral.GridLayout(widths))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, o, suppressed = scheme.run_scheme(model, d, dw, start=(y_start, o0), widths=widths)
    assert suppressed[1, 1] == d.M and suppressed[1, 0] < d.M
    for seg, n in zip((slice(16), slice(16, 24)), widths):
        dn, start = scheme.DiscretizationParams(M=d.M, N=n), (y_start[:, seg], o0[:, :n])
        alone, _, sup = scheme.run_scheme(model, dn, dw[..., :n], start=start)
        np.testing.assert_array_equal(_bits(y[..., seg]), _bits(alone))
        np.testing.assert_array_equal(suppressed[:, widths.index(n)], sup)


@pytest.mark.parametrize("model", [zero_model(), scheme.allen_cahn_model(n_xi_modes=16)],
                         ids=["zero_drift", "allen_cahn"])
def test_run_scheme_from_a_huge_o_warns_of_nothing(model):
    # ||O||_{H_gamma} overflows to inf in the bulk O-norm pass, which turns the
    # drift off at every step; with zero drift the indicator pass after the
    # Y loop reads those norms too
    M, N, paths = 4, 16, 2
    d = scheme.DiscretizationParams(M=M, N=N)
    dw = np.stack([noise.NoiseTape(seed=4, M_master=M, N_master=N, T=1.0, path=p)
                   .increments(M, N) for p in range(paths)])
    start = (np.zeros((paths, N)), np.full((paths, N), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, o, suppressed = scheme.run_scheme(model, d, dw, start=start)
    np.testing.assert_array_equal(suppressed, [M] * paths)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(o))


def test_run_scheme_shape_guards():
    model, d, dw, _ = _batch_inputs()
    with pytest.raises(ValueError):
        scheme.run_scheme(model, d, dw[:1, :10])          # a whole run needs M rows
    with pytest.raises(ValueError):
        scheme.run_scheme(model, d, dw[:, :, :8])         # wrong mode count
    xi = model.xi_projected(d.N)
    with pytest.raises(ValueError):
        scheme.run_scheme(model, d, np.zeros((1, d.M + 1, d.N)), start=(xi, xi))
    with pytest.raises(ValueError):
        scheme.run_scheme(model, d, dw[0])                # one path is (1, M, N)
    with pytest.raises(ValueError):
        scheme.run_scheme(model, d, dw, widths=(8, d.N + 1))  # a width beyond N


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_wide_batch_equals_each_path_alone():
    # 64 paths of 1024 modes: each grid time's O rows hold 65,536 values,
    # more than one norm pass takes, so the norms go in chunks of rows
    model = scheme.allen_cahn_model(n_xi_modes=1024)
    d = scheme.DiscretizationParams(M=2, N=1024)
    dw = np.random.default_rng(3).standard_normal((64, 2, 1024)) * math.sqrt(0.5)
    y, o, suppressed = scheme.run_scheme(model, d, dw)
    for p in range(64):
        alone = scheme.run_scheme(model, d, dw[p:p + 1])
        for got, want in zip((y, o, suppressed), alone):
            np.testing.assert_array_equal(_bits(got[p:p + 1]), _bits(want))


def test_run_constants_are_read_only():
    # every call of a run shares them: a write would reach the next block
    consts = scheme._run_constants(16, 1.0, 1.0 / 16, 0.2, (16, 8), True)
    grids = consts[-1][0]
    arrays = [a for a in consts[:-1] + consts[-1][1:] + (grids.columns, grids.scale)
              if isinstance(a, np.ndarray)]
    assert len(arrays) == 9
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("nu", [0.15, 1.0, 2.0])
@pytest.mark.parametrize("h", [1e-6, 1.0 / 16, 1.0 / 2048])
def test_mode_factors_are_prefix_equal_across_n(nu, h):
    # every factor of mode k is a function of k alone, so a narrower N sees
    # the first modes of a wider one, bit for bit; the zero-drift engine
    # steps each M once at its widest N on the strength of this
    wide = {"mu": spectral.eigenvalues(1024, nu),
            "decay": spectral.semigroup_factors(1024, nu, h),
            "phi": spectral.phi1_factors(1024, nu, h),
            "weights": spectral.eigenvalues(1024, nu) ** (2 * scheme.DEFAULT_GAMMA)}
    for n in (1, 7, 8, 64, 128, 1000):
        narrow = {"mu": spectral.eigenvalues(n, nu),
                  "decay": spectral.semigroup_factors(n, nu, h),
                  "phi": spectral.phi1_factors(n, nu, h),
                  "weights": spectral.eigenvalues(n, nu) ** (2 * scheme.DEFAULT_GAMMA)}
        for name, values in narrow.items():
            np.testing.assert_array_equal(_bits(values), _bits(wide[name][:n]), err_msg=name)


@pytest.mark.parametrize("nu", [0.15, 1.0, 2.0])
@pytest.mark.parametrize("resume", [False, True])
def test_zero_drift_runs_are_prefixes_of_a_wider_run(nu, resume):
    M, wide, paths = 16, 128, 3
    # xi_k ~ k^-0.9: the H_gamma norm of P_N xi grows like sqrt(log N) and
    # crosses the threshold between N = 1 and N = 64
    xi = 0.3 * np.arange(1, 257) ** -0.9 / (nu * PI2) ** 0.2
    model = scheme.ModelParams(T=1.0, nu=nu, a=nonlinearity.CubicCoefficients(0, 0, 0, 0),
                               xi=xi)
    dw = np.stack([noise.NoiseTape(seed=9, M_master=M, N_master=wide, T=1.0, path=p)
                   .increments(M, wide) for p in range(paths)])
    start = None
    if resume:  # a resumed run takes k < M steps from a state that is not xi
        rng = np.random.default_rng(3)
        dw = dw[:, :5]
        start = tuple(rng.standard_normal((paths, wide)) * xi[:wide] for _ in range(2))
    y, o, suppressed = scheme.run_scheme(model, scheme.DiscretizationParams(M=M, N=wide),
                                         dw, start=start)
    # the same run with widths: one block at the widest, each width's count from its prefix
    widths = (1, 7, 8, 64)
    yw, ow, sw = scheme.run_scheme(model, scheme.DiscretizationParams(M=M, N=wide), dw,
                                   start=None if start is None else (start[0][:, :64], start[1]),
                                   widths=widths)
    np.testing.assert_array_equal(_bits(yw), _bits(y[..., :64]))
    np.testing.assert_array_equal(_bits(ow), _bits(o))
    counts = {}
    for r, n in enumerate(widths):
        d = scheme.DiscretizationParams(M=M, N=n)
        part = None if start is None else tuple(s[:, :n] for s in start)
        yn, on, sn = scheme.run_scheme(model, d, dw[..., :n], start=part)
        np.testing.assert_array_equal(_bits(yn), _bits(y[..., :n]))
        np.testing.assert_array_equal(_bits(on), _bits(o[..., :n]))
        np.testing.assert_array_equal(sn, len(dw[0]) - scheme.truncation_indicator(
            y[:, :-1, :n], o[:, :-1, :n], d, 1.0, nu).sum(1))
        for p in range(paths):  # one path at a time
            start_p = None if part is None else (part[0][p], part[1][p])
            [yp], [op], [sp] = scheme.run_scheme(model, d, dw[p:p + 1, :, :n], start=start_p)
            np.testing.assert_array_equal(_bits(yp), _bits(y[p, :, :n]))
            np.testing.assert_array_equal(_bits(op), _bits(o[p, :, :n]))
            assert sp == sn[p]
        np.testing.assert_array_equal(sw[:, r], sn)
        counts[n] = tuple(sn)
    np.testing.assert_array_equal(suppressed, len(dw[0]) - scheme.truncation_indicator(
        y[:, :-1], o[:, :-1], scheme.DiscretizationParams(M=M, N=wide), 1.0, nu).sum(1))
    assert len(set(counts.values())) > 1  # the indicator tells the widths apart
