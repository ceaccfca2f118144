"""Ensemble statistics: histograms, fits, frequency tests, z-comparisons."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from branchbox import stats
from branchbox.branching import CollapseBatch, Ensemble, evolve_ensemble_step, midbox_ensemble
from branchbox.branching import apportion_counts
from branchbox.config import RunConfig
from branchbox.model import PhysicalParams, bin_weights, ndtr
from branchbox.rng import lineage_hash_root
from branchbox.runner import BORN_TOTAL_COUNT, _born_event, _series_rows
from branchbox.stats import (
    _coarse_histograms,
    _entropy_tv,
    _position_masses,
    chi_square_frequencies,
    chi_square_quantile,
    effective_branch_count,
    expectation_compare,
    fit_diffusion,
    pool_small_cells,
    position_square,
    position_value,
    sample_branch_centers,
)

import reference

P = PhysicalParams()


def weighted_ensemble(sites, weights, p=P, origin=0.0, time=0.0):
    """Branches of width p.w on unfolded lattice sites from ``origin``."""
    return Ensemble(
        time=float(time), site=np.array(sites, np.int64),
        origin=float(origin), params=p, weight=np.array(weights, float),
        lineage_hash=lineage_hash_root(np.arange(len(sites), dtype=np.uint64)),
    )


# ---------------------------------------------------------------------------
# moments and effective size


def moments(e):
    """The (mean_x, var_x) columns of the series row of ``e``."""
    return _series_rows([e], RunConfig())[0][3:5]


def histogram(e, k=20):
    """The coarse histogram over k bins of ``e`` alone."""
    return _coarse_histograms(e.tables, *_position_masses([e]), k)[:, 0]


def positions(e):
    """The distinct positions ``e``'s branches fold onto."""
    return set(_position_masses([e])[0].tolist())


def test_position_moments_hand_case():
    # sites 4 and 12 at pitch 0.5 sit at 2 and 6; width w = 1
    e = weighted_ensemble([4, 12], [0.25, 0.75])
    mean = 0.25 * 2 + 0.75 * 6
    second = 0.25 * (4 + 1) + 0.75 * (36 + 1)
    assert moments(e) == pytest.approx((mean, second - mean**2), rel=1e-15)


def test_variance_includes_packet_width():
    # a single branch has no center dispersion; variance is the packet's
    e = weighted_ensemble([0], [1.0], p=PhysicalParams(w=0.7), origin=5.0)
    assert moments(e)[1] == pytest.approx(0.49, rel=1e-15)


def test_variance_is_translation_invariant_far_from_the_origin():
    # freespread's box is 10 000 wide: shifting an ensemble 5000 along it
    # must keep its variance to 1e-12, which E[x^2] - mean^2 does not
    p = PhysicalParams(L=10_000.0)
    sites, weights = [0, 1, 3, 4, 9], [0.1, 0.3, 0.2, 0.25, 0.15]
    near = moments(weighted_ensemble(sites, weights, p=p, origin=5.3))[1]
    far = moments(weighted_ensemble(sites, weights, p=p, origin=5005.3))[1]
    assert far == pytest.approx(near, rel=1e-12)


def test_moments_fold_unfolded_sites():
    # sites past the walls read as their mirror images: -4 -> 2 and
    # 36 -> 18 at pitch 0.5 in a box of 20
    e = weighted_ensemble([-4, 36, 4], [0.5, 0.25, 0.25])
    folded = weighted_ensemble([4, 36, 4], [0.5, 0.25, 0.25])
    mean = 0.75 * 2 + 0.25 * 18
    assert moments(e)[0] == pytest.approx(mean, rel=1e-15)
    assert moments(e) == moments(folded)


def test_effective_branch_count_kish():
    e = weighted_ensemble([2, 4, 6, 8], [0.25] * 4)
    assert effective_branch_count(e) == pytest.approx(4.0, rel=1e-12)
    skew = weighted_ensemble([2, 4], [0.99, 0.01])
    expected = 1.0 / (0.99**2 + 0.01**2)
    assert effective_branch_count(skew) == pytest.approx(expected, rel=1e-12)


def test_effective_branch_count_count_mode():
    e = midbox_ensemble(P, "count", multiplicity=7)
    assert effective_branch_count(e) == pytest.approx(1.0)
    # integer masses are squared as floats: 4e9 squared overflows int64
    hits = dataclasses.replace(
        weighted_ensemble([2, 4], [0.5, 0.5]), weight=np.array([4_000_000_000, 1])
    )
    expected = (4e9 + 1) ** 2 / (4e9**2 + 1)
    assert effective_branch_count(hits) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("counts", [
    [2**31 - 2, 1],
    # squares summed in floats round differently here: 3.3421106101030937
    [85_617_061, 111_326_927, 223_164_540, 270_575_462],
    [2**31 - 1, 1],
    [2**33, 1],
])
def test_effective_branch_count_squares_counts_exactly_below_the_guard(counts):
    # below a total of 2**31 the int64 dot m @ m is exact, and n_eff rounds
    # only its float conversion and the quotient; from 2**31 on, where the
    # dot could wrap ((2**33)**2 does), squares are summed in floats
    n = len(counts)
    e = dataclasses.replace(weighted_ensemble(np.arange(n), np.full(n, 1 / n)),
                            weight=np.array(counts, np.int64))
    total = sum(counts)
    if total < 2**31:
        expected = float(total) ** 2 / float(sum(c * c for c in counts))
    else:
        expected = float(total) ** 2 / float(np.square(np.array(counts), dtype=float).sum())
    assert effective_branch_count(e) == expected > 1.0


def test_effective_branch_count_of_counts_is_the_float_formula():
    def kish_in_floats(e):
        m = np.asarray(e.weight, float)
        return float(m.sum() ** 2 / (m * m).sum())

    capped, rng = midbox_ensemble(P), np.random.Generator(np.random.PCG64(1))
    for _ in range(6):
        capped = evolve_ensemble_step(capped, P, 8, 100_000, rng)
    assert capped.weight.dtype == np.int64 and capped.weight.sum() == 100_000
    # born_test's event: its parent sits on a bin edge
    start = midbox_ensemble(P, "count", multiplicity=BORN_TOTAL_COUNT, center=10.25)
    _, _, born = _born_event(P, start, P.m * P.w**2 / (3.0 * P.hbar))
    draws = np.random.default_rng(2).integers(1, 10**6, 5000)
    random = dataclasses.replace(weighted_ensemble(np.arange(5000), np.full(5000, 2e-4)),
                                 weight=draws)
    for e in (capped, born, random):
        assert e.weight.dtype == np.int64
        assert effective_branch_count(e) == kish_in_floats(e)
    # 2**40 squared overflows int64
    assert effective_branch_count(midbox_ensemble(P, "count", multiplicity=2**40)) == 1.0


# ---------------------------------------------------------------------------
# coarse histograms vs quadrature


@pytest.mark.parametrize("center,variance", [
    (10.0, 1.0),     # mid box
    (2.0, 1.0),      # off center
    (0.25, 2.25),    # pressed against the wall, images matter
    (19.5, 4.0),     # mid box at w = 2, whose box is at least 40 wide
    (39.5, 4.0),     # against the far wall
])
def test_histogram_single_branch_matches_quadrature(center, variance):
    # width w = sqrt(variance) in the smallest box it allows, 20 w
    w = math.sqrt(variance)
    p = PhysicalParams(w=w, L=max(20.0, 20.0 * w))
    e = weighted_ensemble([0], [1.0], p=p, origin=center)
    got = histogram(e)
    expected = reference.reflected_bin_masses(center, variance, p.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)
    assert got.sum() == pytest.approx(1.0, abs=1e-14)


def test_histogram_mixture_is_mass_weighted():
    e = weighted_ensemble([8, 30], [0.3, 0.7])
    got = histogram(e)
    expected = 0.3 * reference.reflected_bin_masses(4.0, 1.0, P.L, 20) \
        + 0.7 * reference.reflected_bin_masses(15.0, 1.0, P.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_histogram_lattice_fast_path_agrees():
    # many branches on few lattice sites exercises the aggregation path;
    # the result must match the direct mixture quadrature
    sites = [4, 4, 7, 7, 7, 20]
    weights = [0.1, 0.2, 0.1, 0.15, 0.15, 0.3]
    e = weighted_ensemble(sites, weights)
    got = histogram(e)
    expected = 0.3 * reference.reflected_bin_masses(2.0, 1.0, P.L, 20) \
        + 0.4 * reference.reflected_bin_masses(3.5, 1.0, P.L, 20) \
        + 0.3 * reference.reflected_bin_masses(10.0, 1.0, P.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_histogram_off_lattice_merges_duplicate_packets():
    # an off-lattice origin, sites repeated and interleaved, one against
    # the wall and one past it: duplicates merge and every distinct site
    # keeps its mass (site -1 sits at -0.2 and reads as 0.2)
    p = PhysicalParams(w=0.6)
    sites = [6, 6, 0, 32, 58, 0, 6, -1]
    weights = [0.1, 0.15, 0.05, 0.2, 0.25, 0.1, 0.1, 0.05]
    e = weighted_ensemble(sites, weights, p=p, origin=0.1)
    got = histogram(e)
    expected = 0.35 * reference.reflected_bin_masses(1.9, 0.36, p.L, 20) \
        + 0.15 * reference.reflected_bin_masses(0.1, 0.36, p.L, 20) \
        + 0.2 * reference.reflected_bin_masses(9.7, 0.36, p.L, 20) \
        + 0.25 * reference.reflected_bin_masses(17.5, 0.36, p.L, 20) \
        + 0.05 * reference.reflected_bin_masses(0.2, 0.36, p.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# the run's folded bin-mass rows


def uncached_histogram(e):
    """``histogram`` of ``e`` through fresh tables, which hold no bin-mass rows."""
    fresh = dataclasses.replace(e, tables=None)
    assert fresh.tables is not e.tables and not fresh.tables.bin_rows
    return histogram(fresh)


def test_memo_rows_match_uncached_as_positions_appear():
    p = PhysicalParams(w=0.3, L=20.0)
    rng = np.random.Generator(np.random.PCG64(3))
    e, seen, rows_with_new = midbox_ensemble(p), set(), 0
    for _ in range(20):
        e = evolve_ensemble_step(e, p, 1, 2000, rng)
        x = positions(e)
        rows_with_new += bool(x - seen)
        seen |= x
        assert np.array_equal(histogram(e), uncached_histogram(e))
    assert rows_with_new >= 15
    # a warm ensemble re-placed in another geometry gets tables of its own
    for other in (dataclasses.replace(e, origin=e.origin + 0.1),
                  dataclasses.replace(e, params=dataclasses.replace(p, w=p.w / 2, L=2 * p.L))):
        assert other.tables is not e.tables
        assert np.array_equal(histogram(other), uncached_histogram(other))


def test_memo_holds_exactly_the_positions_seen():
    p = PhysicalParams(L=40.0)
    rng = np.random.Generator(np.random.PCG64(5))
    e = midbox_ensemble(p)
    seen = positions(e)
    histogram(e)
    for _ in range(300):
        e = evolve_ensemble_step(e, p, 1, 2000, rng, timing="poisson")
        seen |= positions(e)
        histogram(e)
    # the run's tables hold one bin count's rows, one per position seen
    (k, (known, rows)), = e.tables.bin_rows.items()
    assert k == 20 and e.tables.params == p
    assert known.tolist() == sorted(seen)
    assert known.size <= p.L / p.bin_width() + 1
    edges = np.linspace(0.0, p.L, k + 1)
    assert np.array_equal(rows, stats._folded_bin_masses(known, p.w, edges, p.L))


def all_images_bin_masses(centers, s, edges, L):
    """``_folded_bin_masses`` evaluating every image, in the same order."""
    n_images = int(math.ceil(6.0 * s / (2.0 * L))) + 1
    shift = (2.0 * L * np.arange(-n_images, n_images + 1))[:, None, None]
    c = centers[:, None]
    direct, mirrored = ndtr(np.stack([edges + shift - c, shift - edges - c]) / s)
    out = np.zeros((centers.size, edges.size - 1))
    for d, m in zip(direct, mirrored):
        out += d[:, 1:] - d[:, :-1]
        out += m[:, :-1] - m[:, 1:]
    return np.maximum(out, 0.0)


@settings(max_examples=200, deadline=None)
@given(L=st.floats(0.5, 1e4), s_over_L=st.floats(1e-4, 10.0), k=st.integers(2, 40),
       at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
@example(L=40.0, s_over_L=1 / 40, k=20, at=[0.0, 0.5, 1.0])
@example(L=20.0, s_over_L=3.0, k=2, at=[0.25])
def test_folded_bin_masses_skip_only_images_that_add_zero(L, s_over_L, k, at):
    # an image out of every center's reach adds exactly 0 to every bin, so
    # skipping it leaves each mass bit-equal to the all-images sum
    centers, s = L * np.array(at), s_over_L * L
    edges = np.linspace(0.0, L, k + 1)
    got = stats._folded_bin_masses(centers, s, edges, L)
    assert got.tobytes() == all_images_bin_masses(centers, s, edges, L).tobytes()


# ---------------------------------------------------------------------------
# density-vector functionals


def entropy_tv(h):
    """(coarse entropy, TV to uniform) of one density vector."""
    entropy, tv = _entropy_tv(np.asarray(h, float)[:, None])
    return entropy[0], tv[0]


def test_tv_to_uniform_values():
    assert entropy_tv(np.full(20, 0.05))[1] == 0.0
    point = np.zeros(4)
    point[0] = 1.0
    assert entropy_tv(point)[1] == pytest.approx(0.75, rel=1e-15)


def test_coarse_entropy_values():
    assert entropy_tv(np.full(20, 0.05))[0] == pytest.approx(math.log(20), rel=1e-12)
    point = np.zeros(4)
    point[0] = 1.0
    assert entropy_tv(point)[0] == 0.0
    h = np.array([0.5, 0.25, 0.25])
    assert entropy_tv(h)[0] == pytest.approx(
        -(0.5 * math.log(0.5) + 0.5 * math.log(0.25)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# diffusion fit


def test_fit_diffusion_exact_line():
    t = np.arange(1.0, 31.0)
    d, c0 = 0.37, 1.2
    fit = fit_diffusion(t, 2 * d * t + c0)
    assert fit.diffusion == pytest.approx(d, rel=1e-12)
    assert fit.intercept == pytest.approx(c0, rel=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.n_samples == 30


def test_fit_diffusion_recovers_noisy_slope():
    rng = np.random.Generator(np.random.PCG64(3))
    t = np.arange(1.0, 101.0)
    d = 0.5
    noise = rng.normal(0.0, 0.3, t.size)
    fit = fit_diffusion(t, 2 * d * t + 1.0 + noise)
    assert abs(fit.diffusion - d) < 4 * fit.stderr
    assert fit.stderr < 0.01


def test_fit_diffusion_validation():
    with pytest.raises(ValueError, match="at least 10"):
        fit_diffusion(np.arange(9.0) + 1, np.ones(9))
    fit_diffusion(np.arange(10.0) + 1, np.arange(10.0) + 1)


def test_variance_series_validation():
    t = np.arange(12.0) + 1
    for times, variances, match in (
        (np.r_[t[:5], t[4:11]], np.ones(12), "strictly increasing"),
        (np.r_[t[:5], math.nan, t[6:]], np.ones(12), "strictly increasing"),
        (t, np.r_[np.ones(11), 0.0], "finite and > 0"),
        (t, np.r_[np.ones(11), math.inf], "finite and > 0"),
        (t, np.r_[np.ones(11), math.nan], "finite and > 0"),
        (t, np.ones(13), "matching"),
        (t[:, None], np.ones((12, 1)), "matching"),
    ):
        with pytest.raises(ValueError, match=match):
            fit_diffusion(times, variances)


# ---------------------------------------------------------------------------
# frequency tests


def test_pool_small_cells_hand_case():
    obs = np.array([1.0, 47.0, 3.0, 49.0])
    exp = np.array([0.01, 0.48, 0.02, 0.49])
    pooled_obs, pooled_exp = pool_small_cells(obs, exp)
    # cell 0 merges right (no left neighbor), then old cell 2 merges into
    # the left of its equal-expectation neighbors
    np.testing.assert_array_equal(pooled_obs, [51.0, 49.0])
    np.testing.assert_allclose(pooled_exp, [0.51, 0.49], rtol=1e-12)


def test_pool_small_cells_keeps_adequate_cells():
    obs = np.full(10, 100.0)
    exp = np.full(10, 0.1)
    pooled_obs, pooled_exp = pool_small_cells(obs, exp)
    assert pooled_obs.size == 10  # nothing to merge


def test_pool_small_cells_stops_at_two():
    obs = np.array([1.0, 1.0, 1.0])
    exp = np.array([1 / 3, 1 / 3, 1 / 3])
    pooled_obs, _ = pool_small_cells(obs, exp)
    assert pooled_obs.size == 2


@st.composite
def cell_tables(draw):
    """Observed/expected pairs with repeated expected values (ties) and
    runs of tiny cells at either end, as a discretized Gaussian has."""
    body = draw(st.lists(
        st.sampled_from([1e-4, 0.002, 0.01, 0.05, 0.2]) | st.floats(1e-9, 1.0),
        min_size=0, max_size=40,
    ))
    tiny = st.lists(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4]), max_size=15)
    exp = draw(tiny) + body + draw(tiny)
    if len(exp) < 2:
        exp = exp + [0.5, 0.5]
    obs = draw(st.lists(st.integers(0, 60), min_size=len(exp), max_size=len(exp)))
    return np.array(obs, float), np.array(exp)


@settings(max_examples=300, deadline=None)
@given(table=cell_tables(), floor=st.sampled_from([5.0, 1.0, 20.0]))
@example(table=(np.full(6, 3.0), np.full(6, 1 / 6)), floor=5.0)
@example(table=(np.array([0.0, 0.0, 4.0]), np.array([1e-9, 1e-9, 1e-9])), floor=5.0)
def test_pool_small_cells_matches_rescan(table, floor):
    obs, exp = table
    got_obs, got_exp = pool_small_cells(obs, exp, floor)
    want_obs, want_exp = reference.pool_small_cells_rescan(obs, exp, floor)
    np.testing.assert_array_equal(got_obs, want_obs)
    np.testing.assert_array_equal(got_exp, want_exp)


def test_pool_small_cells_matches_rescan_on_born_kernels():
    # wide kernels at a fixed total count: long all-tiny tails on both sides
    for var, pitch in ((4.0, 0.05), (30.0, 0.1), (0.3, 0.01)):
        _, weights = bin_weights(0.3, var, pitch)
        counts = apportion_counts(weights, 10_000).astype(float)
        got = pool_small_cells(counts, weights)
        want = reference.pool_small_cells_rescan(counts, weights)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_pool_small_cells_hundred_thousand_cells():
    # a rescan per merge is quadratic and cannot finish this in test time
    rng = np.random.Generator(np.random.PCG64(6))
    exp = np.exp(-0.5 * np.linspace(-6.0, 6.0, 100_000) ** 2)
    exp /= exp.sum()
    obs = rng.multinomial(10_000, exp).astype(float)
    pooled_obs, pooled_exp = pool_small_cells(obs, exp)
    assert pooled_obs.sum() == 10_000.0
    assert pooled_exp.sum() == pytest.approx(1.0, abs=1e-12)
    assert 2 < pooled_obs.size < 2000
    assert (pooled_exp * 10_000).min() >= 5.0
    assert chi_square_frequencies(pooled_obs, pooled_exp, alpha=0.001).passed


def test_pool_small_cells_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        pool_small_cells(np.array([1.0, np.nan, 3.0]), np.array([0.2, 0.3, 0.5]))


def ulps(got, want):
    """|got - want| in units of the spacing of doubles at want."""
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


def test_chi_square_matches_scipy():
    rng = np.random.Generator(np.random.PCG64(14))
    p = np.array([0.2, 0.3, 0.1, 0.4])
    obs = rng.multinomial(5000, p).astype(float)
    res = chi_square_frequencies(obs, p, alpha=0.01)
    ref = sps.chisquare(obs, p * obs.sum())
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert res.dof == 3
    assert ulps(res.threshold, sps.chi2.ppf(0.99, 3)) <= QUANTILE_ULPS
    assert res.threshold == chi_square_quantile(3, 0.01)
    assert res.passed == (res.statistic < res.threshold)
    assert res.passed


# Fixed before the quantile was first compared: within 16 ulps below 400 dof,
# and 40 ulps up to 2000.  The reference is the exact quantile, not scipy's:
# 2 gammaincinv(dof/2, 1 - alpha) is itself 28 ulps from it at dof 351,
# alpha 1e-6 (a 50-digit root), where this quantile is within 1.
QUANTILE_ULPS, QUANTILE_ULPS_LARGE = 16, 40


def ulps_from_exact_quantile(x, dof, alpha):
    """(x - x*) / spacing(x), x* the exact upper-alpha point of chi^2_dof at the
    double 1 - alpha: one Newton step in 20-digit arithmetic from an x within a
    few ulps of x* leaves an error far below one ulp."""
    a, X = mpmath.mpf(dof) / 2, mpmath.mpf(x)
    tail = mpmath.gammainc(a, X / 2, mpmath.inf, regularized=True)
    density = mpmath.exp((a - 1) * mpmath.log(X / 2) - X / 2 - mpmath.loggamma(a)) / 2
    q = 1 - mpmath.mpf(1.0 - alpha)
    return float((q - tail) / density / mpmath.mpf(float(np.spacing(x))))


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1e-2, 0.05, 0.5])
def test_chi_square_quantile_within_ulps_of_exact(alpha):
    with mpmath.workdps(20):
        err = np.abs([ulps_from_exact_quantile(chi_square_quantile(dof, alpha), dof, alpha)
                      for dof in range(1, 2001)])
    assert err[:399].max() <= QUANTILE_ULPS, 1 + err[:399].argmax()
    assert err[399:].max() <= QUANTILE_ULPS_LARGE, 400 + err[399:].argmax()


def test_chi_square_quantile_refuses_bad_arguments():
    for dof in (1.5, 2.0, 0, -3, True, np.float64(4.0)):
        with pytest.raises(ValueError, match="dof"):
            chi_square_quantile(dof, 0.05)
    for alpha in (0.0, 1.0, -0.1, 1.5, math.nan, 0.75, 1e-20):
        with pytest.raises(ValueError, match="alpha"):
            chi_square_quantile(3, alpha)
    assert chi_square_quantile(np.int64(3), 0.01) == chi_square_quantile(3, 0.01)


def test_chi_square_rejects_wrong_model():
    obs = np.array([900.0, 100.0])
    res = chi_square_frequencies(obs, np.array([0.5, 0.5]), alpha=0.001)
    assert not res.passed
    assert res.statistic > res.threshold


def test_chi_square_validity_guards():
    with pytest.raises(ValueError):
        chi_square_frequencies(np.array([2.0, 3.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        chi_square_frequencies(np.array([50.0, 50.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        chi_square_frequencies(np.array([-1.0, 101.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        chi_square_frequencies(np.array([50.0, 50.0]), np.array([0.5, 0.5]), alpha=1.5)


def test_chi_square_false_positive_rate():
    # calibration: at alpha = 0.1 roughly 10% of true-model draws fail
    rng = np.random.Generator(np.random.PCG64(5))
    p = np.array([0.25, 0.25, 0.25, 0.25])
    fails = sum(
        not chi_square_frequencies(
            rng.multinomial(2000, p).astype(float), p, alpha=0.1
        ).passed
        for _ in range(400)
    )
    assert 15 <= fails <= 70  # binomial(400, 0.1) within ~4.5 sigma


# ---------------------------------------------------------------------------
# two-sample KS test


@st.composite
def ks_sample_pairs(draw):
    """Equal-size samples: continuous or tied draws, identical (h = 0), disjoint
    (D = 1, p near 0) or shifted."""
    n = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["continuous", "ties", "identical", "disjoint", "shifted"]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    if kind == "ties":
        levels = draw(st.integers(1, 12))
        return (rng.integers(0, levels, n).astype(float),
                rng.integers(0, levels, n).astype(float))
    a = rng.normal(size=n)
    if kind == "identical":
        return a, rng.permutation(a)
    if kind == "disjoint":
        return a, a + (a.max() - a.min() + 1.0)
    shift = draw(st.floats(0.0, 0.5)) if kind == "shifted" else 0.0
    return a, rng.normal(shift, 1.0, n)


@settings(max_examples=300, deadline=None)
@given(pair=ks_sample_pairs())
@example(pair=(np.array([0.0]), np.array([0.0])))
@example(pair=(np.array([0.0]), np.array([1.0])))
@example(pair=(np.arange(2000.0), np.arange(2000.0) + 1e4))
def test_ks_two_sample_is_scipys_bit_for_bit(pair):
    a, b = pair
    try:
        got = stats.ks_two_sample(a, b)
    except ValueError as err:
        # refused exactly where scipy leaves its exact path
        assert "rounds" in str(err)
        with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
            sps.ks_2samp(a, b)
        return
    want = sps.ks_2samp(a, b)
    assert got.statistic == want.statistic
    assert got.pvalue == want.pvalue


def test_ks_two_sample_edges():
    a = np.arange(5.0)
    assert stats.ks_two_sample(a, a[::-1]) == stats.KSResult(statistic=0.0, pvalue=1.0)
    assert stats.ks_two_sample(a, a + 10.0).statistic == 1.0
    # D = 1/5: the p-value product rounds to 1 + 2^-52, and scipy falls back to
    # its asymptotic form
    with pytest.raises(ValueError, match="rounds"):
        stats.ks_two_sample(a, a + 0.5)
    with pytest.warns(RuntimeWarning, match="Switching to method=asymp"):
        sps.ks_2samp(a, a + 0.5)


def test_ks_two_sample_refusals():
    a = np.arange(10.0)
    with pytest.raises(ValueError, match="one size"):
        stats.ks_two_sample(a, a[:9])
    with pytest.raises(ValueError, match="one size"):
        stats.ks_two_sample(a.reshape(2, 5), a.reshape(2, 5))
    for alternative in ("less", "greater"):
        with pytest.raises(ValueError, match="two-sided"):
            stats.ks_two_sample(a, a, alternative=alternative)
    with pytest.raises(ValueError, match="10000"):
        stats.ks_two_sample(np.arange(10_001.0), np.arange(10_001.0))
    with pytest.raises(ValueError, match="10000"):
        stats.ks_two_sample(a[:0], a[:0])
    with pytest.raises(ValueError, match="NaN"):
        stats.ks_two_sample(a, np.where(a == 3.0, np.nan, a))


# ---------------------------------------------------------------------------
# observables and trajectory comparison


def test_observables():
    c = np.array([1.0, 2.0])
    v = 0.5
    np.testing.assert_array_equal(position_value(c, v), c)
    np.testing.assert_array_equal(position_square(c, v), c**2 + v)


def test_sample_branch_centers_follows_masses():
    e = weighted_ensemble([0, 2, 4], [0.5, 0.3, 0.2])
    rng = np.random.Generator(np.random.PCG64(6))
    draws = sample_branch_centers(e, 30_000, rng)
    counts = np.array([(draws == c).sum() for c in (0.0, 1.0, 2.0)])
    res = sps.chisquare(counts, np.array([0.5, 0.3, 0.2]) * 30_000)
    assert res.pvalue > 1e-4
    with pytest.raises(ValueError):
        sample_branch_centers(e, 0, rng)


def test_expectation_compare_z_formula():
    ref = weighted_ensemble([0, 4], [0.5, 0.5], time=3.0)
    traj = CollapseBatch(
        time=3.0, center=np.array([0.0, 1.0, 2.0, 3.0]),
        variance=1.0,
    )
    cmp = expectation_compare(traj, ref)
    assert cmp.reference_mean == pytest.approx(1.0, rel=1e-15)
    assert cmp.trajectory_mean == pytest.approx(1.5, rel=1e-15)
    sem = np.std([0, 1, 2, 3], ddof=1) / 2
    assert cmp.trajectory_sem == pytest.approx(sem, rel=1e-12)
    assert cmp.z_score == pytest.approx(0.5 / sem, rel=1e-12)
    assert cmp.n_trajectories == 4


def test_expectation_compare_degenerate_spread():
    ref = weighted_ensemble([0, 4], [0.5, 0.5], time=1.0)
    same = CollapseBatch(1.0, np.full(5, 1.0), 1.0)
    assert expectation_compare(same, ref).z_score == 0.0
    shifted = CollapseBatch(1.0, np.full(5, 2.0), 1.0)
    assert expectation_compare(shifted, ref).z_score == math.inf
    low = CollapseBatch(1.0, np.full(5, 0.0), 1.0)
    assert expectation_compare(low, ref).z_score == -math.inf


def test_expectation_compare_guards():
    ref = weighted_ensemble([0], [1.0], time=1.0)
    with pytest.raises(ValueError):
        expectation_compare(CollapseBatch(2.0, np.zeros(5), 1.0), ref)
    with pytest.raises(ValueError, match="at least 2 trajectories"):
        expectation_compare(CollapseBatch(1.0, np.zeros(1), 1.0), ref)
