"""Ensemble statistics: histograms, fits, frequency tests, z-comparisons."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from branchbox.branching import CollapseBatch, Ensemble, midbox_ensemble
from branchbox.model import PhysicalParams
from branchbox.rng import lineage_hash_root
from branchbox.stats import (
    VarianceSeries,
    chi_square_frequencies,
    coarse_entropy,
    effective_branch_count,
    ensemble_position_mean,
    ensemble_position_variance,
    expectation_compare,
    fit_diffusion,
    pool_small_cells,
    position_histogram,
    position_square,
    position_value,
    sample_branch_centers,
    tv_to_uniform,
)

import reference

P = PhysicalParams()


def weighted_ensemble(centers, variances, weights, time=0.0):
    n = len(centers)
    return Ensemble(
        mode="weighted", time=float(time), center=np.array(centers, float),
        variance=np.array(variances, float), weight=np.array(weights, float),
        multiplicity=None, birth_time=np.zeros(n), uid=np.arange(n),
        parent_uid=np.full(n, -1), offspring_index=np.full(n, -1),
        lineage_hash=lineage_hash_root(np.arange(n, dtype=np.uint64)),
        depth=np.zeros(n, np.int32), next_uid=n,
    )


# ---------------------------------------------------------------------------
# moments and effective size


def test_position_moments_hand_case():
    e = weighted_ensemble([2.0, 6.0], [1.0, 4.0], [0.25, 0.75])
    mean = 0.25 * 2 + 0.75 * 6
    second = 0.25 * (4 + 1) + 0.75 * (36 + 4)
    assert ensemble_position_mean(e) == pytest.approx(mean, rel=1e-15)
    assert ensemble_position_variance(e) == pytest.approx(second - mean**2, rel=1e-15)


def test_variance_includes_packet_width():
    # a single branch has no center dispersion; variance is the packet's
    e = weighted_ensemble([5.0], [2.5], [1.0])
    assert ensemble_position_variance(e) == pytest.approx(2.5, rel=1e-15)


def test_effective_branch_count_kish():
    e = weighted_ensemble([1.0, 2.0, 3.0, 4.0], [1.0] * 4, [0.25] * 4)
    assert effective_branch_count(e) == pytest.approx(4.0, rel=1e-12)
    skew = weighted_ensemble([1.0, 2.0], [1.0] * 2, [0.99, 0.01])
    expected = 1.0 / (0.99**2 + 0.01**2)
    assert effective_branch_count(skew) == pytest.approx(expected, rel=1e-12)


def test_effective_branch_count_count_mode():
    e = midbox_ensemble(P, "count", multiplicity=7)
    assert effective_branch_count(e) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# coarse histograms vs quadrature


@pytest.mark.parametrize("center,variance", [
    (10.0, 1.0),     # mid box
    (2.0, 1.0),      # off center
    (0.25, 2.25),    # pressed against the wall, images matter
    (19.5, 4.0),     # against the far wall
])
def test_histogram_single_branch_matches_quadrature(center, variance):
    e = weighted_ensemble([center], [variance], [1.0])
    got = position_histogram(e, P, 20)
    expected = reference.reflected_bin_masses(center, variance, P.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)
    assert got.sum() == pytest.approx(1.0, abs=1e-14)


def test_histogram_mixture_is_mass_weighted():
    e = weighted_ensemble([4.0, 15.0], [1.0, 2.0], [0.3, 0.7])
    got = position_histogram(e, P, 20)
    expected = 0.3 * reference.reflected_bin_masses(4.0, 1.0, P.L, 20) \
        + 0.7 * reference.reflected_bin_masses(15.0, 2.0, P.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_histogram_lattice_fast_path_agrees():
    # many branches on few lattice sites exercises the aggregation path;
    # the result must match the direct mixture quadrature
    centers = [2.0, 2.0, 3.5, 3.5, 3.5, 10.0]
    weights = [0.1, 0.2, 0.1, 0.15, 0.15, 0.3]
    e = weighted_ensemble(centers, [1.0] * 6, weights)
    got = position_histogram(e, P, 20)
    expected = 0.3 * reference.reflected_bin_masses(2.0, 1.0, P.L, 20) \
        + 0.4 * reference.reflected_bin_masses(3.5, 1.0, P.L, 20) \
        + 0.3 * reference.reflected_bin_masses(10.0, 1.0, P.L, 20)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_histogram_validation():
    e = midbox_ensemble(P)
    with pytest.raises(ValueError):
        position_histogram(e, P, 1)
    with pytest.raises(ValueError):
        position_histogram(e, P, 21)  # L/k < w resolves single packets


# ---------------------------------------------------------------------------
# density-vector functionals


def test_tv_to_uniform_values():
    assert tv_to_uniform(np.full(20, 0.05)) == 0.0
    point = np.zeros(4)
    point[0] = 1.0
    assert tv_to_uniform(point) == pytest.approx(0.75, rel=1e-15)


def test_coarse_entropy_values():
    assert coarse_entropy(np.full(20, 0.05)) == pytest.approx(math.log(20), rel=1e-12)
    point = np.zeros(4)
    point[0] = 1.0
    assert coarse_entropy(point) == 0.0
    h = np.array([0.5, 0.25, 0.25])
    assert coarse_entropy(h) == pytest.approx(
        -(0.5 * math.log(0.5) + 0.5 * math.log(0.25)), rel=1e-12
    )


@pytest.mark.parametrize("bad", [
    np.array([0.5, 0.4]),          # does not sum to 1
    np.array([1.5, -0.5]),         # negative entry
    np.zeros((2, 2)),              # wrong rank
])
def test_density_vector_validation(bad):
    with pytest.raises(ValueError):
        tv_to_uniform(bad)
    with pytest.raises(ValueError):
        coarse_entropy(bad)


# ---------------------------------------------------------------------------
# diffusion fit


def test_fit_diffusion_exact_line():
    t = np.arange(1.0, 31.0)
    d, c0 = 0.37, 1.2
    series = VarianceSeries(t, 2 * d * t + c0, np.full(t.size, 100.0))
    fit = fit_diffusion(series)
    assert fit.diffusion == pytest.approx(d, rel=1e-12)
    assert fit.intercept == pytest.approx(c0, rel=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.n_samples == 30


def test_fit_diffusion_recovers_noisy_slope():
    rng = np.random.Generator(np.random.PCG64(3))
    t = np.arange(1.0, 101.0)
    d = 0.5
    noise = rng.normal(0.0, 0.3, t.size)
    series = VarianceSeries(t, 2 * d * t + 1.0 + noise, np.full(t.size, 100.0))
    fit = fit_diffusion(series)
    assert abs(fit.diffusion - d) < 4 * fit.stderr
    assert fit.stderr < 0.01


def test_fit_diffusion_validation():
    short = VarianceSeries(np.arange(5.0) + 1, np.ones(5), np.ones(5))
    with pytest.raises(ValueError):
        fit_diffusion(short)


def test_variance_series_validation():
    with pytest.raises(ValueError):
        VarianceSeries(np.array([1.0, 1.0]), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        VarianceSeries(np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.ones(2))
    with pytest.raises(ValueError):
        VarianceSeries(np.array([1.0, 2.0]), np.ones(3), np.ones(2))


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


def test_chi_square_matches_scipy():
    rng = np.random.Generator(np.random.PCG64(14))
    p = np.array([0.2, 0.3, 0.1, 0.4])
    obs = rng.multinomial(5000, p).astype(float)
    res = chi_square_frequencies(obs, p, alpha=0.01)
    ref = sps.chisquare(obs, p * obs.sum())
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert res.dof == 3
    assert res.threshold == pytest.approx(sps.chi2.ppf(0.99, 3), rel=1e-12)
    assert res.passed == (res.statistic < res.threshold)
    assert res.passed


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
# observables and trajectory comparison


def test_observables():
    c = np.array([1.0, 2.0])
    v = np.array([0.5, 1.5])
    np.testing.assert_array_equal(position_value(c, v), c)
    np.testing.assert_array_equal(position_square(c, v), c**2 + v)


def test_sample_branch_centers_follows_masses():
    e = weighted_ensemble([0.0, 1.0, 2.0], [1.0] * 3, [0.5, 0.3, 0.2])
    rng = np.random.Generator(np.random.PCG64(6))
    draws = sample_branch_centers(e, 30_000, rng)
    counts = np.array([(draws == c).sum() for c in (0.0, 1.0, 2.0)])
    res = sps.chisquare(counts, np.array([0.5, 0.3, 0.2]) * 30_000)
    assert res.pvalue > 1e-4
    with pytest.raises(ValueError):
        sample_branch_centers(e, 0, rng)


def test_expectation_compare_z_formula():
    ref = weighted_ensemble([0.0, 2.0], [1.0, 1.0], [0.5, 0.5], time=3.0)
    traj = CollapseBatch(
        time=3.0, center=np.array([0.0, 1.0, 2.0, 3.0]),
        variance=np.ones(4), n_steps=3,
    )
    cmp = expectation_compare(traj, ref)
    assert cmp.reference_mean == pytest.approx(1.0, rel=1e-15)
    assert cmp.trajectory_mean == pytest.approx(1.5, rel=1e-15)
    sem = np.std([0, 1, 2, 3], ddof=1) / 2
    assert cmp.trajectory_sem == pytest.approx(sem, rel=1e-12)
    assert cmp.z_score == pytest.approx(0.5 / sem, rel=1e-12)
    assert cmp.n_trajectories == 4


def test_expectation_compare_degenerate_spread():
    ref = weighted_ensemble([0.0, 2.0], [1.0, 1.0], [0.5, 0.5], time=1.0)
    same = CollapseBatch(1.0, np.full(5, 1.0), np.ones(5), 1)
    assert expectation_compare(same, ref).z_score == 0.0
    shifted = CollapseBatch(1.0, np.full(5, 2.0), np.ones(5), 1)
    assert expectation_compare(shifted, ref).z_score == math.inf
    low = CollapseBatch(1.0, np.full(5, 0.0), np.ones(5), 1)
    assert expectation_compare(low, ref).z_score == -math.inf


def test_expectation_compare_guards():
    ref = weighted_ensemble([0.0], [1.0], [1.0], time=1.0)
    with pytest.raises(ValueError):
        expectation_compare(CollapseBatch(2.0, np.zeros(5), np.ones(5), 1), ref)
    with pytest.raises(ValueError):
        expectation_compare(CollapseBatch(1.0, np.zeros(1), np.ones(1), 1), ref)
