import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde1d import nonlinearity as nl
from spde1d import spectral

from oracles import project_F_reference, project_cubic_oracle

SQRT2 = math.sqrt(2.0)


def test_allen_cahn_coefficients():
    a = nl.allen_cahn()
    assert a.as_tuple() == (0.0, 1.0, 0.0, -1.0)


def test_coefficients_reject_unstable_cubic():
    with pytest.raises(ValueError):
        nl.CubicCoefficients(0.0, 1.0, 0.0, 1.0)   # a3 > 0
    with pytest.raises(ValueError):
        nl.CubicCoefficients(0.0, 1.0, 0.5, 0.0)   # quadratic with no cubic
    with pytest.raises(ValueError, match="finite"):
        nl.CubicCoefficients(math.nan, 1.0, 0.0, -1.0)


def test_project_identity_drift():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(10)
    out = nl.project_F(c, nl.CubicCoefficients(0.0, 1.0, 0.0, 0.0))
    np.testing.assert_allclose(out, c, rtol=1e-13, atol=1e-14)


def test_project_cubic_of_first_mode_closed_form():
    # -(sqrt2 sin)^3 projects onto modes 1 and 3 with -3/2 and +1/2
    out = nl.project_F(np.array([1.0, 0.0, 0.0]),
                       nl.CubicCoefficients(0.0, 0.0, 0.0, -1.0))
    np.testing.assert_allclose(out, [-1.5, 0.0, 0.5], rtol=1e-14, atol=1e-14)


def test_project_constant_term_closed_form():
    out = nl.project_F(np.zeros(3), nl.CubicCoefficients(1.0, 0.0, 0.0, 0.0))
    want = [2 * SQRT2 / math.pi, 0.0, 2 * SQRT2 / (3 * math.pi)]
    np.testing.assert_allclose(out, want, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 32])
def test_project_matches_brute_force_oracle(n):
    rng = np.random.default_rng(100 + n)
    c = rng.standard_normal(n) / np.arange(1, n + 1)
    for coeffs in [(0.0, 1.0, 0.0, -1.0), (0.3, -0.7, 1.1, -2.0), (1.0, 0.0, 2.0, -0.5)]:
        a = nl.CubicCoefficients(*coeffs)
        got = nl.project_F(c, a)
        want = project_cubic_oracle(coeffs, c)
        scale = np.max(np.abs(want)) + 1.0
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


@pytest.mark.parametrize("n", [1, 8, 16, 32, 64, 128])
@pytest.mark.parametrize("a", [nl.allen_cahn(), nl.CubicCoefficients(0, 0, 0, -1),
                               nl.CubicCoefficients(0, 3, 0, 0)], ids=["ac", "cube", "linear"])
def test_project_F_odd_part_has_the_reference_bits(n, a):
    # the stepwise oracle calls project_F itself, so only this test sees a
    # change of rounding inside it; bytes, so that signed zeros count too
    rng = np.random.default_rng(n)
    grid = spectral.default_grid(n)
    for lead in [(), (1,), (4,), (64,)]:
        c = rng.standard_normal(lead + (n,)) / np.arange(1, n + 1)
        if lead:
            c[0] = 0.0  # a zero state: its cube and transforms are signed zeros
        got = nl.project_F(c, a)
        want = project_F_reference(c, a.a1, a.a3, grid)
        assert got.shape == want.shape == c.shape
        assert got.tobytes() == want.tobytes(), (lead, n)


@pytest.mark.parametrize("widths", [(128, 8, 16, 32, 64), (1, 3), (8, 8)])
@pytest.mark.parametrize("coeffs", nl.AUDIT_COEFFICIENT_SETS)
def test_project_F_on_a_layout_equals_one_call_per_segment(widths, coeffs):
    # a lockstep run projects all its segments in one call; each segment must
    # keep the bytes of its own call on its default grid, with the a0 and a2
    # branches too
    a = nl.CubicCoefficients(*coeffs)
    layout = spectral.GridLayout(widths)
    k = np.concatenate([np.arange(1, n + 1) for n in widths])
    rng = np.random.default_rng(len(widths))
    for lead in [(), (1,), (4,)]:
        rows = rng.standard_normal(lead + (sum(widths),)) / k
        if lead:
            rows[0, layout.modes[-1]] = 0.0  # a zero segment beside nonzero ones
        got = nl.project_F(rows, a, layout)
        assert got.shape == rows.shape
        for seg, n in zip(layout.modes, widths):
            want = nl.project_F(rows[..., seg], a, spectral.GridLayout((n,)))
            assert got[..., seg].tobytes() == want.tobytes(), (lead, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(0, 3),
       st.sampled_from(nl.AUDIT_COEFFICIENT_SETS), st.integers(0, 2**32 - 1))
def test_layout_transforms_and_projection_equal_one_call_per_segment(widths, paths, coeffs,
                                                                     seed):
    # the lockstep identities for any multiset of widths and path count
    # (0 is one unbatched row): project_F on a layout, and to_grid then
    # from_grid, give each segment the bytes of its own one-segment call
    layout = spectral.GridLayout(widths)
    a = nl.CubicCoefficients(*coeffs)
    rng = np.random.default_rng(seed)
    lead = (paths,) if paths else ()
    rows = rng.standard_normal(lead + (layout.n_modes,))
    values = spectral.to_grid(rows, layout)
    back = spectral.from_grid(values.copy(), layout)
    got = nl.project_F(rows, a, layout)
    for seg, view, n in zip(layout.modes, layout.views, widths):
        alone = spectral.GridLayout((n,))
        assert values[..., view].tobytes() == spectral.to_grid(rows[..., seg], alone).tobytes()
        assert back[..., seg].tobytes() == spectral.from_grid(
            values[..., view].copy(), alone).tobytes()
        assert got[..., seg].tobytes() == nl.project_F(rows[..., seg], a).tobytes()


def _signed(lo, hi):
    # zero, or a magnitude in [lo, hi]: keeps products clear of underflow
    return st.one_of(st.just(0.0), st.floats(lo, hi), st.floats(-hi, -lo))


@settings(max_examples=80, deadline=None)
@given(st.lists(_signed(1e-6, 2.0), min_size=1, max_size=10),
       st.tuples(_signed(1e-3, 3.0), _signed(1e-3, 3.0), _signed(1e-3, 3.0),
                 st.floats(-3.0, -1e-3)))
def test_project_on_default_grid_matches_oracle_and_4n_grid(c, coeffs):
    c = np.array(c)
    a = nl.CubicCoefficients(*coeffs)
    got = nl.project_F(c, a)
    want = project_cubic_oracle(coeffs, c)
    scale = np.max(np.abs(want)) + 1.0
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)
    # relative to the a priori size of F: |v| <= sqrt(2) sum |c_k| on (0,1)
    s = SQRT2 * np.sum(np.abs(c))
    size = sum(abs(ai) * s**i for i, ai in enumerate(coeffs))
    wide = nl.project_F(c, a, grid=spectral.GridLayout((c.size,), (4 * c.size + 1,)))
    assert np.max(np.abs(got - wide)) <= 1e-13 * size


@pytest.mark.parametrize("n", range(1, 65))
def test_projection_grid_rule_is_tight(n):
    # G-1 >= 2N keeps every frequency of the cube, up to 3N, off the N kept
    # modes: the default grid agrees with a 4N+1 grid to roundoff, and a
    # transform forced onto G = 2N or 2N-1 (project_F refuses both) misses
    assert spectral.GridLayout((n,), (2 * n + 1,)).alias_free
    assert not spectral.GridLayout((n,), (2 * n,)).alias_free
    a = nl.allen_cahn()
    c = np.random.default_rng(n).standard_normal((4, n))
    got = nl.project_F(c, a)
    scale = np.max(np.abs(got))
    wide = nl.project_F(c, a, spectral.GridLayout((n,), (4 * n + 1,)))
    assert np.max(np.abs(got - wide)) <= 1e-14 * scale
    for g in (2 * n, 2 * n - 1)[:n]:  # at N = 1 no grid G = 1 holds a mode
        layout = spectral.GridLayout((n,), (g,))
        with pytest.raises(ValueError, match="alias"):
            nl.project_F(c, a, layout)
        u = spectral.to_grid(c, layout)
        aliased = spectral.from_grid(u - u**3, layout)
        assert np.max(np.abs(aliased - got)) > 1e-9 * scale, g


def test_lipschitz_audit_keeps_its_own_grid():
    # check_lipschitz reads the whole cube on a grid with G-1 >= 3N+1, not on
    # the projection's default grid; a change of either grid that reached the
    # audit would move this value
    assert nl.run_inequality_audit("lipschitz", trials=200, seed=0) == -4.53534117232955


def test_project_alias_guard():
    with pytest.raises(ValueError, match="alias"):
        nl.project_F(np.ones(8), nl.allen_cahn(), grid=spectral.GridLayout((8,), (16,)))


def test_project_grid_override_consistent():
    rng = np.random.default_rng(9)
    c = rng.standard_normal(6)
    a = nl.CubicCoefficients(0.2, 1.0, -0.4, -1.0)
    base = nl.project_F(c, a)
    finer = nl.project_F(c, a, grid=spectral.GridLayout((6,), (257,)))
    np.testing.assert_allclose(finer, base, rtol=1e-11, atol=1e-13)


def test_odd_drift_preserves_odd_mode_support():
    # modes k=1,3,5,... are symmetric about x=1/2; an odd F keeps that symmetry
    rng = np.random.default_rng(77)
    c = np.zeros(16)
    c[0::2] = rng.standard_normal(8)
    out = nl.project_F(c, nl.allen_cahn())
    assert np.max(np.abs(out[1::2])) < 1e-12


def test_monotonicity_residual_zero_difference():
    v = np.array([0.4, -0.2, 0.9])
    r = nl.check_monotonicity(v, v, nl.allen_cahn(), 1.0)
    assert r <= 0.0 and r == pytest.approx(0.0, abs=1e-14)


def test_coercivity_equality_for_linear_drift():
    # a = (0, 1, 0, 0): both sides equal nu ||v'||^2, residual is roundoff
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8) / np.arange(1, 9)
    r = nl.check_coercivity_gradient(v, nl.CubicCoefficients(0.0, 1.0, 0.0, 0.0), 0.8)
    assert abs(r) < 1e-10


def test_lipschitz_shape_guard():
    with pytest.raises(ValueError):
        nl.check_lipschitz(np.ones(3), np.ones(4), nl.allen_cahn())
    with pytest.raises(ValueError, match="equal length"):
        nl.check_monotonicity(np.ones(3), np.ones(4), nl.allen_cahn(), 1.0)
    with pytest.raises(ValueError, match="coefficient vector"):
        nl.check_coercivity_gradient(np.ones((2, 3)), nl.allen_cahn(), 1.0)
    with pytest.raises(ValueError, match="unknown audit"):  # and an audit name it lacks
        nl.run_inequality_audit("bogus", trials=1)


@pytest.mark.parametrize("name", ["monotonicity", "lipschitz", "coercivity"])
def test_randomized_inequality_audit(name):
    worst = nl.run_inequality_audit(name, trials=300, seed=7)
    assert worst <= 1e-8


def test_monotonicity_constant_covers_audit_sets():
    for coeffs in nl.AUDIT_COEFFICIENT_SETS:
        assert nl.monotonicity_constant(nl.CubicCoefficients(*coeffs)) > 0


def test_cos_to_sine_matrix_against_quadrature():
    # g[k, m] = int e_k(x) cos(m pi x) dx, checked numerically
    g = nl.cos_to_sine_matrix(4, 5)
    x = np.linspace(0.0, 1.0, 20001)
    for k in range(1, 5):
        ek = SQRT2 * np.sin(k * np.pi * x)
        for m in range(5):
            want = np.trapezoid(ek * np.cos(m * np.pi * x), x)
            assert g[k - 1, m] == pytest.approx(want, abs=2e-7)


@pytest.mark.parametrize("sine", [True, False])
def test_cos_coeffs_of_square_evaluate_the_square(sine):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(7)
    if sine:
        c[0] = 0.0
    x = np.linspace(0.0, 1.0, 101)
    basis = np.sin if sine else np.cos
    v = sum(ck * basis(k * np.pi * x) for k, ck in enumerate(c))
    q = nl.cos_coeffs_of_square(c, sine=sine)
    assert q.shape == (13,)
    square = sum(qm * np.cos(m * np.pi * x) for m, qm in enumerate(q))
    np.testing.assert_allclose(square, v * v, rtol=0, atol=1e-12)
