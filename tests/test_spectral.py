import math
import sys

import numpy as np
import pytest
import scipy.fft

from spde1d import spectral

from oracles import hr_norm_mp

PI2 = math.pi**2


def test_eigenvalues_closed_form():
    mu = spectral.eigenvalues(3, 1.0)
    assert mu[0] == pytest.approx(PI2, rel=1e-15)
    assert mu[1] == pytest.approx(4 * PI2, rel=1e-15)
    mu_half = spectral.eigenvalues(3, 0.5)
    assert mu_half[2] == pytest.approx(4.5 * PI2, rel=1e-15)


def test_eigenvalues_reject_bad_args():
    with pytest.raises(ValueError):
        spectral.eigenvalues(0, 1.0)
    with pytest.raises(ValueError):
        spectral.eigenvalues(4, -1.0)
    with pytest.raises(ValueError, match="semigroup time"):
        spectral.semigroup_factors(4, 1.0, -0.5)
    with pytest.raises(ValueError, match="step size"):
        spectral.phi1_factors(4, 1.0, 0.0)
    with pytest.raises(ValueError, match="one grid per width"):
        spectral.GridLayout((2, 3), grids=(9,))
    with pytest.raises(ValueError, match="grid-1 >= n_modes"):
        spectral.GridLayout((8,), grids=(8,))
    layout = spectral.GridLayout((4,))
    with pytest.raises(ValueError, match="coefficient columns"):
        spectral.to_grid(np.ones(3), layout)
    with pytest.raises(ValueError, match="grid columns"):
        spectral.from_grid(np.ones(layout.points + 1), layout)
    with pytest.raises(ValueError, match="q must be >= 1"):
        spectral.lq_norm_on_grid(np.ones(3), 0.5)


def test_hr_norm_basis_vectors():
    e1 = np.array([1.0])
    assert spectral.hr_norm(e1, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    # mu_1^{1/2} = pi for nu = 1
    assert spectral.hr_norm(e1, 0.5, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_hr_norm_against_mp_oracle():
    rng = np.random.default_rng(2024)
    for n in (1, 7, 33):
        c = rng.standard_normal(n)
        got = spectral.hr_norm(c, 0.24, 0.7)
        want = hr_norm_mp(c, 0.24, 0.7)
        assert got == pytest.approx(want, rel=1e-12)


def test_hr_norm_monotone_in_r_when_mu_above_one():
    # nu pi^2 >= 1 makes every weight nondecreasing in r
    rng = np.random.default_rng(5)
    c = rng.standard_normal(12)
    norms = [spectral.hr_norm(c, r, 1.0) for r in (0.0, 0.1, 0.25, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_hr_norm_batched_last_axis():
    rng = np.random.default_rng(8)
    block = rng.standard_normal((5, 9))
    batched = spectral.hr_norm(block, 0.3, 2.0)
    rows = np.array([spectral.hr_norm(row, 0.3, 2.0) for row in block])
    np.testing.assert_allclose(batched, rows, rtol=1e-15)
    # more than 2^15 values go in several passes; each row keeps its bits,
    # also where one leading slice, or one row, holds more than 2^15 values
    for shape in ((2000, 17), (3, 1500, 17), (1, 300, 200), (2, 40000)):
        big = rng.standard_normal(shape)
        assert big.size > 1 << 15
        rows = [spectral.hr_norm(row, 0.3, 2.0) for row in big.reshape(-1, shape[-1])]
        np.testing.assert_array_equal(spectral.hr_norm(big, 0.3, 2.0).ravel(), rows)


def test_weighted_norm_refuses_an_out_it_cannot_write_through():
    # a transposed out reshapes into a copy: the norms would go there, and
    # the square roots of the untouched out would come back
    X = np.arange(12.0).reshape(2, 2, 3)
    w, segs = np.ones(3), [slice(0, 2), slice(0, 3)]
    out = np.full((2, 2, 2), -1.0).transpose(1, 0, 2)
    for bad in (out, np.empty((2, 2)), np.empty((4, 2))):
        with pytest.raises(ValueError, match="out must be a contiguous array of shape"):
            spectral.weighted_norm(w, X, out=bad, segments=segs)
    assert (out == -1.0).all()
    # the norms themselves, written through a contiguous out
    good = np.empty((2, 2, 2))
    spectral.weighted_norm(w, X, out=good, segments=segs)
    np.testing.assert_array_equal(good, np.sqrt(np.stack(
        [(X[..., :2] ** 2).sum(-1), (X ** 2).sum(-1)], axis=-1)))


def test_semigroup_identity_at_zero_time():
    np.testing.assert_array_equal(spectral.semigroup_factors(6, 1.0, 0.0),
                                  np.ones(6))


def test_semigroup_first_mode_value():
    v = np.array([1.0]) * spectral.semigroup_factors(1, 1.0, 0.1)
    assert v[0] == pytest.approx(math.exp(-0.1 * PI2), rel=1e-14)
    assert v[0] == pytest.approx(0.37268, rel=1e-4)


def test_semigroup_contraction_and_composition():
    factors = spectral.semigroup_factors(64, 0.3, 0.7)
    # high modes underflow to exactly 0, which is still a contraction
    assert np.all(factors >= 0) and np.all(factors <= 1)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(64)
    once = v * spectral.semigroup_factors(64, 0.3, 0.7)
    split = v * spectral.semigroup_factors(64, 0.3, 0.3) * spectral.semigroup_factors(64, 0.3, 0.4)
    np.testing.assert_allclose(split, once, rtol=1e-12)


def test_phi1_first_mode_value():
    out = np.array([1.0]) * spectral.phi1_factors(1, 1.0, 1.0)
    want = (1.0 - math.exp(-PI2)) / PI2
    assert out[0] == pytest.approx(want, rel=1e-14)
    assert out[0] == pytest.approx(0.1013159, rel=1e-5)


def test_phi1_small_argument_is_h():
    # mu h = 1e-12 sits deep in the series branch; multiplier ~ h
    h = 1e-12 / PI2
    fac = spectral.phi1_factors(1, 1.0, h)
    assert fac[0] == pytest.approx(h, rel=1e-6, abs=0)


def test_phi1_branches_agree_at_threshold():
    thr = spectral.PHI1_SERIES_THRESHOLD
    for x in (thr * (1 - 1e-9), thr * (1 + 1e-9)):
        h = x / PI2
        got = spectral.phi1_factors(1, 1.0, h)[0]
        exact = -math.expm1(-x) / PI2
        assert got == pytest.approx(exact, rel=1e-12, abs=0)


def test_phi1_semigroup_identity():
    # mu_k phi1_k(h) + e^{-mu_k h} = 1 for every mode
    for nu, h in ((1.0, 0.25), (0.03, 1.0), (2.0, 1e-7)):
        mu = spectral.eigenvalues(128, nu)
        lhs = mu * spectral.phi1_factors(128, nu, h) + spectral.semigroup_factors(128, nu, h)
        np.testing.assert_allclose(lhs, 1.0, atol=1e-14)


def test_to_grid_first_mode_explicit():
    vals = spectral.to_grid(np.array([1.0]), spectral.GridLayout((1,), (9,)))
    nodes = np.arange(1, 9) / 9
    np.testing.assert_allclose(vals, math.sqrt(2) * np.sin(math.pi * nodes),
                               rtol=1e-13, atol=1e-15)
    assert vals.shape == (8,)


def test_grid_roundtrip():
    rng = np.random.default_rng(16)
    v = rng.standard_normal(16)
    layout = spectral.GridLayout((16,), (65,))
    back = spectral.from_grid(spectral.to_grid(v, layout), layout)
    np.testing.assert_allclose(back, v, rtol=1e-12, atol=1e-12)


def test_grid_quadrature_parseval():
    # band-limited: (1/G) sum v(x_j)^2 equals the L2 norm squared exactly
    rng = np.random.default_rng(21)
    v = rng.standard_normal(20)
    G = spectral.default_grid(20)
    vals = spectral.to_grid(v, spectral.GridLayout((20,), (G,)))
    quad = spectral.lq_norm_on_grid(vals, 2.0) ** 2
    assert quad == pytest.approx(float(np.dot(v, v)), rel=1e-10)


def test_lq_and_sup_norms_of_first_mode():
    vals = spectral.to_grid(np.array([1.0]), spectral.GridLayout((1,), (1025,)))
    assert spectral.lq_norm_on_grid(vals, 2.0) == pytest.approx(1.0, rel=1e-8)
    assert np.max(np.abs(vals)) == pytest.approx(math.sqrt(2), rel=1e-4)


def _is_5_smooth(g):
    for p in (2, 3, 5):
        while g % p == 0:
            g //= p
    return g == 1


def test_default_grid_rule():
    # least G with G-1 >= 2N (the projected cube aliases onto no kept mode)
    # and 5-smooth G (DST-I is an FFT of length 2G)
    for n in range(1, 1025):
        G = spectral.default_grid(n)
        assert G - 1 >= 2 * n and _is_5_smooth(G), n
        assert not any(_is_5_smooth(g) for g in range(2 * n + 1, G)), n
    assert [spectral.default_grid(n) for n in (1, 8, 16, 32, 64, 128)] == \
        [3, 18, 36, 72, 135, 270]


def test_transform_batched_rows_match_single():
    rng = np.random.default_rng(31)
    block = rng.standard_normal((4, 12))
    layout = spectral.GridLayout((12,))
    stacked = spectral.to_grid(block, layout)
    for i in range(4):
        np.testing.assert_array_equal(stacked[i], spectral.to_grid(block[i], layout))


@pytest.mark.parametrize("lead", [(), (1,), (4,), (64,), (2, 3)])
@pytest.mark.parametrize("n_modes", [1, 8, 16, 32, 64, 128, 512,
                                     pytest.param((128, 8, 16, 32, 64), id="5-segments")])
def test_transforms_equal_scipy_fft_dst_bit_for_bit(n_modes, lead):
    # to_grid / from_grid call pocketfft's DST-I kernel in place on each
    # segment's view of the grid array, a strided view when several segments
    # share rows; every segment must equal public scipy.fft.dst of its own pad,
    # so a scipy whose kernel and public transform part ways fails here first
    layout = spectral.GridLayout(np.atleast_1d(n_modes))
    rng = np.random.default_rng(layout.n_modes)
    c = rng.standard_normal(lead + (layout.n_modes,))
    v = rng.standard_normal(lead + (layout.points,))
    values, coeffs = spectral.to_grid(c, layout), spectral.from_grid(v.copy(), layout)
    for seg, view, n, G in zip(layout.modes, layout.views, layout.widths, layout.grids):
        pad = np.zeros(lead + (G - 1,))
        pad[..., :n] = c[..., seg]
        np.testing.assert_array_equal(values[..., view],
                                      scipy.fft.dst(pad, type=1, axis=-1) * (np.sqrt(2.0) / 2.0))
        want = scipy.fft.dst(v[..., view], type=1, axis=-1) * (np.sqrt(2.0) / (2.0 * G))
        np.testing.assert_array_equal(coeffs[..., seg], want[..., :n])


@pytest.mark.parametrize("n_modes", [1, 16, pytest.param((128, 8, 16, 32, 64), id="5-segments")])
def test_transforms_without_the_private_kernel_keep_its_bits(n_modes, monkeypatch):
    # a scipy that moves pocketfft's private binding makes its import fail;
    # _dst1 then resolves to public scipy.fft.dst, with the same bits
    layout = spectral.GridLayout(np.atleast_1d(n_modes))
    rng = np.random.default_rng(layout.n_modes)
    c = rng.standard_normal((4, layout.n_modes))
    v = rng.standard_normal((4, layout.points))
    want = spectral.to_grid(c, layout), spectral.from_grid(v.copy(), layout)
    monkeypatch.setattr(spectral, "_pocketfft_dst", None)
    monkeypatch.setitem(sys.modules, "scipy.fft._pocketfft.pypocketfft", None)
    got = spectral.to_grid(c, layout), spectral.from_grid(v.copy(), layout)
    assert spectral._pocketfft_dst.__module__ == "spde1d.spectral"
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
