"""Parameter objects, the spreading law, wall folding and bin discretization."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from branchbox.model import (
    DEFAULT_BIN_WIDTH_FRACTION,
    PhysicalParams,
    bin_weights,
    ndtr,
    reflect_center,
    spread_variance,
)

import reference


# ---------------------------------------------------------------------------
# parameters


def test_default_params_derived_quantities():
    p = PhysicalParams()
    assert p.delta2() == 1.0
    assert p.bin_width() == 0.5
    assert p.diffusion_constant() == 0.5
    assert DEFAULT_BIN_WIDTH_FRACTION == 0.5


def test_delta2_formula_nonunit_params():
    p = PhysicalParams(m=2.0, w=0.5, tau=3.0, hbar=1.5, L=40.0)
    expected = (3.0 * 1.5 / (2.0 * 0.5)) ** 2
    assert p.delta2() == pytest.approx(expected, rel=1e-15)
    assert p.diffusion_constant() == pytest.approx(expected / 6.0, rel=1e-15)


@pytest.mark.parametrize("field,value", [
    ("m", 0.0), ("m", -1.0), ("w", 0.0), ("hbar", -2.0),
    ("L", 0.0), ("tau", -0.5), ("m", math.nan), ("L", math.inf),
])
def test_params_reject_nonpositive(field, value):
    with pytest.raises(ValueError):
        PhysicalParams(**{field: value})


def test_params_reject_wide_packet_vs_box():
    # w must stay below L/20 so wall tails are negligible
    with pytest.raises(ValueError):
        PhysicalParams(w=1.1, L=20.0)
    PhysicalParams(w=1.0, L=20.0)  # boundary value is allowed


def test_tau_zero_allowed_but_no_diffusion_constant():
    p = PhysicalParams(tau=0.0)
    assert p.delta2() == 0.0
    with pytest.raises(ValueError):
        p.diffusion_constant()


# ---------------------------------------------------------------------------
# spreading law


def test_spread_variance_matches_formula():
    p = PhysicalParams()
    for var0, dt in [(1.0, 1.0), (0.25, 0.5), (4.0, 2.5), (1.0, 0.0)]:
        expected = var0 + (dt * p.hbar / (p.m * math.sqrt(var0))) ** 2
        assert spread_variance(var0, dt, p) == pytest.approx(expected, rel=1e-15)
    # per-branch variance arrays follow the same law elementwise
    var0 = np.array([1.0, 0.25, 4.0])
    expected = [spread_variance(float(v), 0.5, p) for v in var0]
    np.testing.assert_array_equal(spread_variance(var0, 0.5, p), expected)


def test_spread_variance_unit_case():
    # fresh width-w packet gains exactly delta^2 over one period
    p = PhysicalParams()
    assert spread_variance(p.w**2, p.tau, p) == pytest.approx(
        p.w**2 + p.delta2(), rel=1e-15
    )


def test_spread_variance_monotone_in_dt():
    p = PhysicalParams(m=1.3, w=0.9, tau=0.7, hbar=1.1, L=30.0)
    v = [spread_variance(0.81, dt, p) for dt in np.linspace(0.0, 5.0, 40)]
    assert all(b > a for a, b in zip(v, v[1:]))


def test_spread_variance_rejects_bad_inputs():
    p = PhysicalParams()
    with pytest.raises(ValueError):
        spread_variance(0.0, 1.0, p)
    with pytest.raises(ValueError):
        spread_variance(1.0, -0.1, p)
    with pytest.raises(ValueError):
        spread_variance(np.array([1.0, 0.0]), 1.0, p)


# ---------------------------------------------------------------------------
# wall folding


def test_reflect_center_identity_inside_box():
    assert reflect_center(3.7, 10.0) == 3.7
    assert reflect_center(0.0, 10.0) == 0.0
    assert reflect_center(10.0, 10.0) == 10.0


def test_reflect_center_single_mirrors():
    assert reflect_center(-2.5, 10.0) == pytest.approx(2.5, abs=1e-15)
    assert reflect_center(12.5, 10.0) == pytest.approx(7.5, abs=1e-15)


def test_reflect_center_periodicity_and_idempotence():
    L = 7.0
    xs = np.linspace(-40.0, 40.0, 301)
    folded = reflect_center(xs, L)
    assert np.all((folded >= 0.0) & (folded <= L))
    # folding twice changes nothing
    assert np.array_equal(reflect_center(folded, L), folded)
    # shifting by a full period 2L changes nothing
    assert np.allclose(reflect_center(xs + 2 * L, L), folded, atol=1e-12)


def test_reflect_center_scalar_vs_array():
    L = 20.0
    xs = np.array([-3.0, 5.0, 23.0, 41.5])
    arr = reflect_center(xs, L)
    for x, y in zip(xs, arr):
        scalar = reflect_center(float(x), L)
        assert isinstance(scalar, float)
        assert scalar == y


def test_reflect_center_rejects_bad_box():
    with pytest.raises(ValueError):
        reflect_center(1.0, 0.0)


# ---------------------------------------------------------------------------
# Gaussian CDF

# a dense grid over |x| <= 40, and the points around +-37.68 past which the
# upper tail is exactly 0
NDTR_GRID = np.concatenate([np.linspace(-40.0, 40.0, 1_600_001),
                            np.linspace(37.6, 37.7, 20_001), np.linspace(-37.7, -37.6, 20_001)])


def test_ndtr_within_4_ulps_of_scipy():
    got, want = ndtr(NDTR_GRID), scipy.special.ndtr(NDTR_GRID)
    nonzero = (got != 0) | (want != 0)
    ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert ulps[nonzero].max() <= 4


def test_ndtr_exact_where_scipy_is():
    got, want = ndtr(NDTR_GRID), scipy.special.ndtr(NDTR_GRID)
    for value in (0.0, 0.5, 1.0):
        assert np.array_equal(got == value, want == value), value
    assert (want == 0).any() and (want == 1).any() and (want == 0.5).any()
    edge = np.array([-np.inf, np.inf, np.nan, -0.0, 0.0])
    assert np.array_equal(ndtr(edge), [0.0, 1.0, np.nan, 0.5, 0.5], equal_nan=True)
    assert np.isnan(ndtr(np.nan))


def test_ndtr_against_mpmath():
    # the lower tail to a relative error that grows with x^2, as exp(-x^2/2)'s
    # does from rounding its argument; the upper half to an ulp of 1
    rng = np.random.default_rng(3)
    lower = np.concatenate([rng.uniform(-37.5, 0.0, 400), np.linspace(-37.5, 0.0, 151)])
    upper = np.concatenate([rng.uniform(0.0, 9.0, 200), np.linspace(0.0, 9.0, 91)])
    with mpmath.workprec(120):
        exact_lower = np.array([float(mpmath.ncdf(v)) for v in lower])
        exact_upper = np.array([float(mpmath.ncdf(v)) for v in upper])
    assert np.all(np.abs(ndtr(lower) / exact_lower - 1.0) <= 4e-16 * (8.0 + lower**2))
    assert np.abs(ndtr(upper) - exact_upper).max() <= 2.0**-52


def test_ndtr_keeps_the_shape():
    # 0-d input gives a numpy scalar, as a ufunc does
    for scalar in (0.3, np.array(-1.5)):
        assert isinstance(ndtr(scalar), np.float64)
        assert ndtr(scalar) == ndtr(np.array([scalar]))[0]
    x = np.linspace(-9.0, 9.0, 24)
    for shaped in (x, x.reshape(4, 6), x.reshape(2, 3, 4), np.zeros((3, 0))):
        assert ndtr(shaped).shape == shaped.shape
        assert np.array_equal(ndtr(shaped), ndtr(shaped.ravel()).reshape(shaped.shape))
    # a row of 2-d input does not depend on its neighbours, past-the-tail ones included
    rows = np.stack([x, np.full(24, -50.0), x[::-1]])
    assert np.array_equal(ndtr(rows)[0], ndtr(x)) and np.array_equal(ndtr(rows)[2], ndtr(x[::-1]))


# ---------------------------------------------------------------------------
# bin discretization, checked against quadrature


@pytest.mark.parametrize("center,variance,h", [
    (0.0, 1.0, 0.5),          # symmetric, lattice-aligned
    (0.3, 1.0, 0.5),          # off-lattice center
    (10.0, 2.5, 0.5),         # displaced, wider
    (0.0, 0.04, 0.5),         # sub-bin sigma: nearly all mass in one bin
    (1.7, 0.7, 0.25),         # finer lattice
    (0.25, 0.0625, 0.5),      # 6 sigma lands exactly on bin edges
])
def test_bin_weights_match_quadrature(center, variance, h):
    got_c, got_w = bin_weights(center, variance, h)
    exp_c, exp_w = reference.lattice_bin_masses(center, variance, h)
    assert np.array_equal(got_c, exp_c)
    np.testing.assert_allclose(got_w, exp_w, atol=1e-12)


def test_bin_weights_basic_properties():
    c, w = bin_weights(0.2, 1.3, 0.5)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    # centers sit on the fixed lattice anchored at zero
    assert np.array_equal(c, np.round(c / 0.5) * 0.5)
    assert np.all(np.diff(c) == pytest.approx(0.5, abs=1e-12))


def test_bin_weights_symmetric_for_lattice_center():
    c, w = bin_weights(0.0, 1.0, 0.5)
    assert np.allclose(w, w[::-1], atol=1e-15)
    assert c[0] == -c[-1]


def test_bin_weights_sheppard_inflation():
    # discretizing onto a lattice of pitch h inflates the variance by
    # h^2/12 to leading order (h well below sigma)
    h = 0.5
    c, w = bin_weights(0.0, 1.0, h)
    var = float(w @ c**2) - float(w @ c) ** 2
    assert var == pytest.approx(1.0 + h * h / 12.0, rel=1e-4)


def test_bin_weights_truncation_window():
    c, w = bin_weights(0.0, 1.0, 0.5)
    assert np.all(np.abs(c) <= 6.0 + 0.25 + 1e-12)
    assert c.size == 25  # bins intersecting [-6, 6] at pitch 0.5


def test_bin_weights_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bin_weights(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        bin_weights(0.0, 1.0, 0.0)


def test_bin_weights_tiny_variance_concentrates():
    c, w = bin_weights(1.0, 1e-6, 0.5)
    assert c.size == 1
    assert c[0] == 1.0
    assert w[0] == 1.0
