"""Branch bookkeeping, apportionment, capping, evolution, collapse batches."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from branchbox import branching
from branchbox.branching import (
    Ensemble,
    _cap_keyed,
    _stratified_hits,
    apportion_counts,
    evolve_ensemble_step,
    exact_weighted_reference,
    midbox_ensemble,
    run_collapse_trajectories,
    trajectory_seed,
    verify_tag_uniqueness,
)
from branchbox.model import PhysicalParams, bin_weights, spread_variance
from branchbox.rng import lineage_hash_child, lineage_hash_root, mix
from branchbox.runner import BORN_TOTAL_COUNT, _born_event
from branchbox.stats import ensemble_position_mean, ensemble_position_variance

import reference

P = PhysicalParams()


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def initial_ensemble(centers, weights, mode="weighted", roots=None):
    """Unit-variance branches at t = 0 with root lineages (default 0..n-1)."""
    n = len(centers)
    roots = np.arange(n) if roots is None else np.asarray(roots)
    return Ensemble(
        mode=mode, time=0.0, center=np.array(centers, float),
        variance=np.ones(n), weight=np.array(weights, float), multiplicity=None,
        birth_time=np.zeros(n), uid=np.arange(n), parent_uid=np.full(n, -1),
        offspring_index=np.full(n, -1),
        lineage_hash=lineage_hash_root(roots.astype(np.uint64)),
        depth=np.zeros(n, np.int32), next_uid=n,
    )


# ---------------------------------------------------------------------------
# ensembles


def test_midbox_default_center_is_lattice_aligned():
    e = midbox_ensemble(P)
    assert e.n_branches == 1
    assert e.center[0] == 10.0
    assert e.variance[0] == P.w**2
    assert e.mode == "weighted"
    # explicit centers are taken as given
    e2 = midbox_ensemble(P, center=9.87)
    assert e2.center[0] == 9.87


def test_midbox_snaps_odd_geometry():
    p = PhysicalParams(L=20.6, w=1.0)
    e = midbox_ensemble(p)
    bw = p.bin_width()
    assert e.center[0] == round((p.L / 2) / bw) * bw


def test_midbox_count_mode_multiplicity():
    e = midbox_ensemble(P, "count", multiplicity=1250)
    assert int(e.multiplicity.sum()) == 1250
    assert e.weight is None
    np.testing.assert_array_equal(e.masses(), [1250.0])


def test_ensemble_validation():
    with pytest.raises(ValueError):
        initial_ensemble([], [])
    # weights must sum to one
    with pytest.raises(ValueError):
        initial_ensemble([1.0, 1.0], [0.4, 0.4])
    # collapse mode holds exactly one branch
    with pytest.raises(ValueError):
        initial_ensemble([1.0, 1.0], [0.5, 0.5], mode="collapse")


# ---------------------------------------------------------------------------
# apportionment


def test_apportion_matches_reference_oracle():
    rng = gen(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        w = rng.dirichlet(np.ones(n))
        total = int(rng.integers(1, 5000))
        got = apportion_counts(w, total)
        assert np.array_equal(got, reference.largest_remainder(w, total))


def test_apportion_exactness_properties():
    rng = gen(12)
    for _ in range(100):
        w = rng.dirichlet(np.ones(7))
        total = int(rng.integers(1, 10**6))
        c = apportion_counts(w, total)
        assert c.sum() == total
        assert np.all(np.abs(c - w * total) < 1.0)


def test_apportion_tie_breaks_toward_lower_index():
    assert np.array_equal(apportion_counts([1 / 3, 1 / 3, 1 / 3], 10), [4, 3, 3])
    assert np.array_equal(apportion_counts([0.25, 0.25, 0.25, 0.25], 6), [2, 2, 1, 1])


def test_apportion_claws_back_float_overshoot():
    # weights summing just above 1 (inside tolerance) at a huge total can
    # make the floors overshoot; the result must still sum exactly
    w = np.array([0.5 + 4e-10, 0.5 + 4e-10])
    total = 10**12
    c = apportion_counts(w, total)
    assert c.sum() == total


def test_apportion_rejects_bad_inputs():
    with pytest.raises(ValueError):
        apportion_counts([0.5, 0.4], 10)
    with pytest.raises(ValueError):
        apportion_counts([1.2, -0.2], 10)
    with pytest.raises(ValueError):
        apportion_counts([1.0], 0)


# ---------------------------------------------------------------------------
# decoherence events


def test_decohere_count_conserves_multiplicity():
    # count mode's only event: born_test's parent, one leaf holding the
    # whole count on a bin edge, apportioned over its offspring
    initial = midbox_ensemble(P, "count", multiplicity=BORN_TOTAL_COUNT, center=10.25)
    zero_leaves = 0
    for dt in (P.m * P.w**2 / (3.0 * P.hbar), 0.9, 2.5):
        weights, counts, after = _born_event(P, initial, dt)
        assert counts.sum() == BORN_TOTAL_COUNT
        assert after.multiplicity.sum() == BORN_TOTAL_COUNT
        assert np.all(np.abs(counts / BORN_TOTAL_COUNT - weights) <= 1.0 / BORN_TOTAL_COUNT)
        # zero-count leaves hold no branch
        kept = np.flatnonzero(counts)
        np.testing.assert_array_equal(after.offspring_index, kept)
        np.testing.assert_array_equal(after.multiplicity, counts[kept])
        zero_leaves += int((counts == 0).sum())
        np.testing.assert_array_equal(
            after.lineage_hash,
            lineage_hash_child(initial.lineage_hash[0], dt, kept.astype(np.uint64)),
        )
        assert np.unique(after.lineage_hash).size == after.n_branches
    assert zero_leaves > 0  # the wide kernels have tails below one unit


# ---------------------------------------------------------------------------
# capping


def test_stratified_hits_exact_total_and_support():
    rng = gen(21)
    for _ in range(50):
        w = rng.dirichlet(np.ones(40))
        k = 12
        idx, hits = _stratified_hits(w, rng.random(k))
        assert hits.sum() == k
        assert idx.size <= k
        assert np.all(np.diff(idx) > 0)


def test_stratified_hits_unbiased():
    # E[hits_i] = K * w_i for every branch
    w = np.array([0.02, 0.4, 0.18, 0.25, 0.15])
    k = 8
    rng = gen(22)
    trials = 40_000
    mean_hits = np.zeros(w.size)
    for _ in range(trials):
        idx, hits = _stratified_hits(w, rng.random(k))
        mean_hits[idx] += hits
    mean_hits /= trials
    # per-probe variance is below 1/4, so the SE of each mean is tiny
    np.testing.assert_allclose(mean_hits, k * w, atol=0.02)


def test_stratified_hits_heavy_branch_always_survives():
    # a branch with weight above 1/K owns at least one full stride
    w = np.array([0.5, 0.3, 0.1, 0.06, 0.04])
    rng = gen(23)
    for _ in range(200):
        idx, _ = _stratified_hits(w, rng.random(4))
        assert 0 in idx and 1 in idx


def _flat_rows(parent_mass, kern):
    """Materialized rows of the shared-kernel form and their group starts."""
    flat = (parent_mass[:, None] * kern[None, :]).ravel()
    return flat, np.arange(parent_mass.size) * kern.size


def test_stratified_hits_two_level_matches_flat_search():
    # both two-level forms return the flat search's probe landings,
    # sorted, with run lengths equal to np.unique's counts
    rng = gen(24)
    for _ in range(200):
        pm = rng.dirichlet(np.ones(rng.integers(1, 40)))
        kern = rng.dirichlet(np.ones(rng.integers(1, 30)))
        k = int(rng.integers(1, 300))
        u = rng.random(k)
        flat, starts = _flat_rows(pm, kern)
        cdf = np.cumsum(flat)
        raw = np.searchsorted(cdf, (u + np.arange(k)) / k * cdf[-1], side="left")
        want_idx, want_hits = np.unique(raw, return_counts=True)
        for idx, hits in (
            _stratified_hits(kern, u, parent_mass=pm),
            _stratified_hits(flat, u, group_start=starts),
        ):
            assert hits.sum() == k
            assert np.all(np.diff(idx) > 0)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(hits, want_hits)


def test_stratified_hits_unbiased_per_implicit_row():
    # E[hits of row (g, b)] = K * w_g * kern_b with unequal parents and a
    # lopsided kernel
    pm = np.array([0.5, 0.1, 0.3, 0.1])
    kern = np.array([0.05, 0.6, 0.25, 0.1])
    flat, _ = _flat_rows(pm, kern)
    k = 6
    rng = gen(25)
    trials = 40_000
    mean_hits = np.zeros(flat.size)
    for _ in range(trials):
        u = rng.random(k)
        idx, hits = _stratified_hits(kern, u, parent_mass=pm)
        mean_hits[idx] += hits
    mean_hits /= trials
    np.testing.assert_allclose(mean_hits, k * flat, atol=0.02)


def test_stratified_hits_skip_zero_mass_rows_and_groups():
    cases = [
        # probe 0 sits exactly on the end of group 0, whose neighbours
        # are zero-mass rows and an all-zero group
        ([0.375, 0.0, 0.625], [0.0, 1.0, 0.0], [0.75, 0.75], [1, 7], [1, 1]),
        # the probe's fraction of group 1 (7e-17) vanishes when added to
        # the group offset 1; it must still skip group 1's zero-mass lead row
        ([0.25, 0.75], [0.0, 1.0], [np.nextafter(0.25, 1.0)], [3], [1]),
    ]
    with np.errstate(divide="raise", invalid="raise"):
        for pm, kern, u, want_idx, want_hits in cases:
            pm, kern, u = np.array(pm), np.array(kern), np.array(u)
            flat, starts = _flat_rows(pm, kern)
            for idx, hits in (
                _stratified_hits(kern, u, parent_mass=pm),
                _stratified_hits(flat, u, group_start=starts),
            ):
                np.testing.assert_array_equal(idx, want_idx)
                np.testing.assert_array_equal(hits, want_hits)
        rng = gen(26)
        for _ in range(300):
            pm = rng.dirichlet(np.ones(12)) * (rng.random(12) < 0.6)
            kern = rng.dirichlet(np.ones(9)) * (rng.random(9) < 0.6)
            if pm.sum() == 0 or kern.sum() == 0:
                continue
            flat, starts = _flat_rows(pm, kern)
            k = int(rng.integers(1, 60))
            u = rng.random(k)
            a = _stratified_hits(kern, u, parent_mass=pm)
            b = _stratified_hits(flat, u, group_start=starts)
            for idx, hits in (a, b):
                assert np.all(flat[idx] > 0)
                assert hits.sum() == k
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])


def test_cap_resample_identity_below_cap():
    e = midbox_ensemble(P)
    e = evolve_ensemble_step(e, P, 8, 10**9, gen(1))
    assert _cap_keyed(e, e.n_branches, np.uint64(2)) is e
    assert _cap_keyed(e, e.n_branches + 5, np.uint64(2)) is e


def test_cap_resample_weighted_invariants():
    e = midbox_ensemble(P)
    for _ in range(3):
        e = evolve_ensemble_step(e, P, 8, 10**9, gen(3))
    assert e.n_branches > 400
    capped = _cap_keyed(e, 100, np.uint64(4))
    assert capped.n_branches <= 100
    assert capped.weight.sum() == pytest.approx(1.0, abs=1e-12)
    # survivors keep their identity arrays aligned
    i = capped.n_branches // 2
    orig = np.flatnonzero(e.uid == capped.uid[i])[0]
    assert e.center[orig] == capped.center[i]
    assert e.lineage_hash[orig] == capped.lineage_hash[i]


def test_cap_equal_masses_is_exchangeable():
    # 2K equal-mass branches: every branch must survive equally often
    k = 16
    e = initial_ensemble(np.arange(2.0 * k), np.full(2 * k, 1.0 / (2 * k)))
    seen = np.zeros(2 * k)
    trials = 4000
    for t in range(trials):
        capped = _cap_keyed(e, k, mix(np.uint64(7), np.uint64(t)))
        seen[capped.uid] += 1
    freq = seen / trials
    # marginal inclusion probability is exactly 1/2 for every branch
    assert np.all(np.abs(freq - 0.5) < 4 * math.sqrt(0.25 / trials) + 0.02)


def test_capped_mean_unbiased_over_seeds():
    # Statistic of a capped ensemble vs the uncapped value: the mean over
    # 50 independent cappings must land within 3 standard errors.
    e = midbox_ensemble(P, center=5.0)
    for _ in range(3):
        e = evolve_ensemble_step(e, P, 8, 10**9, gen(8))
    target = ensemble_position_mean(e)
    means = np.array([
        ensemble_position_mean(_cap_keyed(e, 300, np.uint64(100 + s)))
        for s in range(50)
    ])
    se = means.std(ddof=1) / math.sqrt(means.size)
    assert abs(means.mean() - target) < 3 * se


def test_capped_variance_unbiased_over_seeds():
    # second moments survive capping too (the old failure mode of a
    # weight-proportional selection that kept the original weights)
    e = midbox_ensemble(P)
    for _ in range(3):
        e = evolve_ensemble_step(e, P, 8, 10**9, gen(9))
    m = e.masses() / e.masses().sum()
    target = float(m @ e.center**2)
    vals = []
    for s in range(50):
        c = _cap_keyed(e, 300, np.uint64(500 + s))
        mc = c.masses() / c.masses().sum()
        vals.append(float(mc @ c.center**2))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) < 3 * se


def test_cap_keyed_is_deterministic():
    e = midbox_ensemble(P)
    for _ in range(2):
        e = evolve_ensemble_step(e, P, 8, 10**9, gen(10))
    seed = np.uint64(0xABCDEF)
    a = _cap_keyed(e, 40, seed)
    b = _cap_keyed(e, 40, seed)
    np.testing.assert_array_equal(a.uid, b.uid)
    np.testing.assert_array_equal(a.weight, b.weight)
    c = _cap_keyed(e, 40, np.uint64(0x123456))
    assert not np.array_equal(a.uid, c.uid)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_advances_time_and_resets_width():
    e = midbox_ensemble(P)
    out = evolve_ensemble_step(e, P, 8, 10**9, gen(30))
    assert out.time == P.tau
    assert np.all(out.variance == P.w**2)
    assert np.all(out.birth_time == P.tau)
    np.testing.assert_array_equal(out.parent_uid, np.zeros(out.n_branches))
    np.testing.assert_array_equal(out.depth, np.ones(out.n_branches))


def test_evolve_single_step_equals_kernel():
    e = midbox_ensemble(P)
    out = evolve_ensemble_step(e, P, 8, 10**9, gen(31))
    rel, kern = bin_weights(0.0, spread_variance(P.w**2, P.tau, P) - P.w**2, 0.5)
    np.testing.assert_array_equal(out.center, 10.0 + rel)
    np.testing.assert_allclose(out.weight, kern, rtol=1e-15)
    np.testing.assert_array_equal(out.offspring_index, np.arange(rel.size))


def test_evolve_lineage_hashes_chain():
    e = midbox_ensemble(P)
    out = evolve_ensemble_step(e, P, 8, 10**9, gen(32))
    expected = lineage_hash_child(
        e.lineage_hash[0], out.time, np.arange(out.n_branches, dtype=np.uint64)
    )
    np.testing.assert_array_equal(out.lineage_hash, expected)


def test_evolve_reproducible_from_seed():
    def run(seed):
        e = midbox_ensemble(P)
        r = gen(seed)
        for _ in range(5):
            e = evolve_ensemble_step(e, P, 8, 500, r)
        return e

    a, b = run(77), run(77)
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.weight, b.weight)
    np.testing.assert_array_equal(a.lineage_hash, b.lineage_hash)
    c = run(78)
    assert not np.array_equal(a.weight, c.weight)


def test_evolve_fast_path_matches_materialize_then_cap():
    # the capped weighted fast path must be bit-identical to building
    # every offspring row and then capping with the same step seed
    e = midbox_ensemble(P)
    e = evolve_ensemble_step(e, P, 8, 10**9, gen(33))
    cap = 37

    r1 = gen(99)
    capped = evolve_ensemble_step(e, P, 8, cap, r1)

    r2 = gen(99)
    step_seed = np.uint64(r2.integers(0, 2**64, dtype=np.uint64))
    r3 = gen(99)
    full = evolve_ensemble_step(e, P, 8, 10**9, r3)
    manual = _cap_keyed(full, cap, step_seed)

    np.testing.assert_array_equal(capped.uid, manual.uid)
    np.testing.assert_array_equal(capped.center, manual.center)
    np.testing.assert_array_equal(capped.weight, manual.weight)
    np.testing.assert_array_equal(capped.lineage_hash, manual.lineage_hash)
    np.testing.assert_array_equal(capped.parent_uid, manual.parent_uid)


def test_evolve_fast_path_matches_materialize_then_cap_after_capped_step():
    # same contract on an ensemble the cap has already thinned: several
    # parents, weights hits / cap
    e = midbox_ensemble(P)
    e = evolve_ensemble_step(e, P, 8, 10**9, gen(34))
    e = evolve_ensemble_step(e, P, 8, 60, gen(35))
    assert np.unique(e.parent_uid).size > 1
    np.testing.assert_array_equal(e.weight * 60, np.round(e.weight * 60))
    cap = 45

    capped = evolve_ensemble_step(e, P, 8, cap, gen(98))
    step_seed = np.uint64(gen(98).integers(0, 2**64, dtype=np.uint64))
    full = evolve_ensemble_step(e, P, 8, 10**9, gen(98))
    assert full.n_branches > cap
    manual = _cap_keyed(full, cap, step_seed)

    np.testing.assert_array_equal(capped.uid, manual.uid)
    np.testing.assert_array_equal(capped.center, manual.center)
    np.testing.assert_array_equal(capped.weight, manual.weight)
    np.testing.assert_array_equal(capped.lineage_hash, manual.lineage_hash)
    np.testing.assert_array_equal(capped.parent_uid, manual.parent_uid)


@st.composite
def geometries(draw):
    """Parameters PhysicalParams accepts: any w, any box at least 20 w wide."""
    w = draw(st.floats(0.1, 2.0))
    L = draw(st.floats(20.0 * w, 60.0 * w))
    assume(w <= L / 20.0)
    return PhysicalParams(w=w, L=L)


@settings(max_examples=25, deadline=None)
@given(p=geometries(), start=st.none() | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32))
@example(p=PhysicalParams(w=0.3, L=6.0), start=None, seed=0)    # non-dyadic pitch
@example(p=PhysicalParams(w=0.1, L=3.0), start=None, seed=1)    # non-dyadic pitch
@example(p=PhysicalParams(w=0.3, L=20.0), start=None, seed=2)   # incommensurate box
@example(p=PhysicalParams(w=0.3, L=20.0), start=0.123, seed=3)  # off-lattice start
def test_every_geometry_shares_one_offset_kernel(p, start, seed):
    # no geometry has a second path: each weighted step bins one offset
    # kernel, and the capped step equals materialize-then-cap bit for bit
    calls = []

    def counted_bin_weights(*args, **kwargs):
        calls.append(args)
        return bin_weights(*args, **kwargs)

    e = midbox_ensemble(p, center=None if start is None else start * p.L)
    cap = 37
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branching, "bin_weights", counted_bin_weights)
        e = evolve_ensemble_step(e, p, 8, 60, gen(seed))
        capped = evolve_ensemble_step(e, p, 8, cap, gen(seed + 1))
        full = evolve_ensemble_step(e, p, 8, 10**9, gen(seed + 1))
    assert len(calls) == 3
    assert full.n_branches > cap

    step_seed = np.uint64(gen(seed + 1).integers(0, 2**64, dtype=np.uint64))
    manual = _cap_keyed(full, cap, step_seed)
    for name in ("uid", "center", "weight", "lineage_hash", "parent_uid"):
        np.testing.assert_array_equal(getattr(capped, name), getattr(manual, name))


def test_evolve_wall_reflection_keeps_box():
    e = midbox_ensemble(P, center=0.5)
    r = gen(37)
    for _ in range(4):
        e = evolve_ensemble_step(e, P, 8, 5000, r)
        assert np.all((e.center >= 0) & (e.center <= P.L))


def test_evolve_poisson_timing_reproducible_and_exponential():
    times = []
    r = gen(38)
    for _ in range(4000):
        e = midbox_ensemble(P)
        e = evolve_ensemble_step(e, P, 8, 10**9, r, timing="poisson")
        times.append(e.time)
    times = np.array(times)
    assert times.mean() == pytest.approx(P.tau, rel=0.05)
    res = sps.kstest(times, "expon", args=(0, P.tau))
    assert res.pvalue > 1e-4
    # reproducibility
    e1 = evolve_ensemble_step(midbox_ensemble(P), P, 8, 10**9, gen(39), timing="poisson")
    e2 = evolve_ensemble_step(midbox_ensemble(P), P, 8, 10**9, gen(39), timing="poisson")
    assert e1.time == e2.time


def test_evolve_rejects_bad_arguments():
    e = midbox_ensemble(P)
    with pytest.raises(ValueError):
        evolve_ensemble_step(e, P, 8, 0, gen(40))
    with pytest.raises(ValueError):
        evolve_ensemble_step(e, P, 0, 100, gen(40))
    with pytest.raises(ValueError):
        evolve_ensemble_step(e, P, 8, 100, gen(40), timing="jittered")
    with pytest.raises(ValueError):
        evolve_ensemble_step(e, PhysicalParams(tau=0.0), 8, 100, gen(40))
    # count mode holds born_test's single event; the engine refuses it
    with pytest.raises(ValueError, match="count-mode"):
        evolve_ensemble_step(midbox_ensemble(P, "count"), P, 8, 100, gen(40))
    # branches of different widths would need different kernels; only a
    # hand-built ensemble has them
    mixed = initial_ensemble([9.0, 11.0], [0.5, 0.5])
    mixed = dataclasses.replace(mixed, variance=np.array([1.0, 1.5]))
    with pytest.raises(ValueError, match="one variance"):
        evolve_ensemble_step(mixed, P, 8, 100, gen(40))


def test_evolve_collapse_stays_single_and_lattice_bound():
    # a collapse step keeps one branch whatever cap it is given; 1e5 is
    # the runner's default max_branches
    for cap in (1, 100_000):
        e = midbox_ensemble(P, "collapse")
        r = gen(41)
        for k in range(30):
            e = evolve_ensemble_step(e, P, 8, cap, r)
            assert e.mode == "collapse"
            assert e.n_branches == 1
            assert e.weight[0] == 1.0
            assert e.variance[0] == P.w**2
            assert e.depth[0] == k + 1
            assert e.center[0] == round(e.center[0] / 0.5) * 0.5
            assert 0.0 <= e.center[0] <= P.L


@pytest.mark.parametrize("p, timing", [
    (P, "deterministic"),
    (P, "poisson"),
    (PhysicalParams(w=0.3, L=20.0), "deterministic"),
])
def test_collapse_step_is_the_weighted_step_at_cap_one(p, timing):
    # collapse = cap at K = 1: same generator seed, same branch, bit for bit
    c = midbox_ensemble(p, "collapse")
    w = midbox_ensemble(p)
    rc, rw = gen(43), gen(43)
    for _ in range(20):
        c = evolve_ensemble_step(c, p, 8, 100_000, rc, timing=timing)
        w = evolve_ensemble_step(w, p, 8, 1, rw, timing=timing)
        assert (c.mode, w.mode) == ("collapse", "weighted")
        assert c.time == w.time
        for name in ("center", "uid", "parent_uid", "offspring_index",
                     "lineage_hash", "depth", "weight"):
            np.testing.assert_array_equal(getattr(c, name), getattr(w, name))
        assert c.next_uid == w.next_uid


def test_evolve_collapse_follows_born_weights():
    # selection frequencies over many seeds match the offspring kernel
    rel, kern = bin_weights(0.0, 1.0, 0.5)
    picks = np.zeros(rel.size)
    n = 30_000
    for s in range(n):
        e = midbox_ensemble(P, "collapse")
        e = evolve_ensemble_step(e, P, 8, 1, gen(10_000 + s))
        picks[int(e.offspring_index[0])] += 1
    # pool far tails so the chi-square is calibrated
    obs, exp = picks, kern * n
    sel = exp >= 5
    obs = np.concatenate([[obs[~sel].sum()], obs[sel]])
    exp = np.concatenate([[exp[~sel].sum()], exp[sel]])
    res = sps.chisquare(obs, exp * (obs.sum() / exp.sum()))
    assert res.pvalue > 1e-4


# ---------------------------------------------------------------------------
# collapse batches


def test_batch_matches_sequential_collapse_evolution():
    master, steps = 4242, 12
    # unit parameters, and a non-dyadic pitch in a box that is no whole
    # number of bins wide
    for p in (P, PhysicalParams(w=0.3, L=20.0)):
        batch = run_collapse_trajectories(p, 8, steps, master)
        for i in range(8):
            e = midbox_ensemble(p, "collapse")
            r = gen(trajectory_seed(master, i))
            for _ in range(steps):
                e = evolve_ensemble_step(e, p, 8, 1, r)
            assert e.center[0] == batch.center[i]
            assert e.time == batch.time


def test_batch_deterministic_and_seed_sensitive():
    a = run_collapse_trajectories(P, 64, 10, 1)
    b = run_collapse_trajectories(P, 64, 10, 1)
    c = run_collapse_trajectories(P, 64, 10, 2)
    np.testing.assert_array_equal(a.center, b.center)
    assert not np.array_equal(a.center, c.center)
    assert a.time == 10 * P.tau
    assert a.n_steps == 10


def test_batch_select_rule_override():
    batch = run_collapse_trajectories(
        P, 16, 5, 7,
        select_rule=lambda kern, u: np.zeros(u.size, np.int64),
    )
    assert np.unique(batch.center).size == 1  # every run drifts identically


def test_batch_validates_geometry():
    with pytest.raises(ValueError):
        run_collapse_trajectories(P, 0, 3, 0)
    with pytest.raises(ValueError):
        run_collapse_trajectories(P, 4, -1, 0)


def test_trajectory_seed_distinct():
    seeds = {trajectory_seed(9, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert trajectory_seed(9, 0) != trajectory_seed(10, 0)


# ---------------------------------------------------------------------------
# exact weighted reference


def test_exact_reference_zero_steps():
    e = exact_weighted_reference(P, 0)
    assert e.n_branches == 1
    assert e.center[0] == 10.0
    assert e.weight[0] == 1.0
    assert e.time == 0.0


def test_exact_reference_matches_dict_chain():
    # same kernel, independent dict-based folding arithmetic
    rel, kern = bin_weights(0.0, spread_variance(P.w**2, P.tau, P) - P.w**2, 0.5)
    sites = np.rint(rel / 0.5).astype(int)
    mass = reference.walk_chain_masses(sites, kern, 20, 40, steps=9)
    e = exact_weighted_reference(P, 9)
    got = {int(round(c / 0.5)): w for c, w in zip(e.center, e.weight)}
    assert set(got) == {k for k, v in mass.items() if v > 0}
    for k, v in mass.items():
        if v > 0:
            assert got[k] == pytest.approx(v, rel=1e-12, abs=1e-300)


def test_exact_reference_matches_uncapped_engine():
    # aggregating the uncapped weighted engine by center must reproduce
    # the chain exactly
    e = midbox_ensemble(P)
    r = gen(50)
    steps = 4
    for _ in range(steps):
        e = evolve_ensemble_step(e, P, 8, 10**9, r)
    sites = np.rint(e.center / 0.5).astype(np.int64)
    agg = np.bincount(sites, weights=e.weight, minlength=41)
    ref = exact_weighted_reference(P, steps)
    ref_mass = np.zeros(41)
    ref_mass[np.rint(ref.center / 0.5).astype(int)] = ref.weight
    np.testing.assert_allclose(agg, ref_mass, atol=1e-14)


def test_exact_reference_agrees_with_heat_kernel():
    # continuum physics check: the chain center distribution, widened by
    # the packet width, must track the reflecting-wall heat kernel with
    # the empirical per-step variance (lattice Sheppard inflation
    # included) and the packet width folded into an earlier start time
    from branchbox.stats import position_histogram

    steps = 12
    c, m = reference.lattice_bin_masses(0.0, 1.0, 0.5)
    var_step = float(m @ c**2)
    d_eff = var_step / (2.0 * P.tau)
    t_eff = steps * P.tau + P.w**2 / var_step
    expected = reference.box_heat_bin_masses(10.0, t_eff, d_eff, P.L, 20)
    got = position_histogram(exact_weighted_reference(P, steps), P, 20)
    np.testing.assert_allclose(got, expected, atol=1e-3)


def test_exact_reference_converges_to_uniformity():
    from branchbox.stats import position_histogram, tv_to_uniform

    h = position_histogram(exact_weighted_reference(P, 2000), P, 20)
    assert tv_to_uniform(h) < 1e-3


def test_exact_reference_validates_geometry():
    # w = 0.6: pitch 0.3, and 2L / 0.3 = 133.3 sites do not fill the box
    with pytest.raises(ValueError, match="commensurate"):
        exact_weighted_reference(PhysicalParams(w=0.6), 3)
    with pytest.raises(ValueError):
        exact_weighted_reference(P, -1)


# ---------------------------------------------------------------------------
# uniqueness audit


def test_uniqueness_passes_for_engine_output():
    e = midbox_ensemble(P)
    r = gen(60)
    for _ in range(10):
        e = evolve_ensemble_step(e, P, 8, 3000, r)
    rep = verify_tag_uniqueness(e)
    assert rep.passed
    assert rep.n_branches == e.n_branches


def test_uniqueness_catches_duplicate_lineage():
    # distinct uids, same root lineage
    dup = initial_ensemble([1.0, 1.0], [0.5, 0.5], roots=[0, 0])
    rep = verify_tag_uniqueness(dup)
    assert not rep.passed
    assert rep.duplicate_indices == (0, 1)


def test_uniqueness_catches_duplicate_uid():
    e = midbox_ensemble(P)
    e = evolve_ensemble_step(e, P, 8, 10**9, gen(61))
    uid = e.uid.copy()
    uid[1] = uid[0]
    bad = Ensemble(
        mode=e.mode, time=e.time, center=e.center, variance=e.variance,
        weight=e.weight, multiplicity=None, birth_time=e.birth_time,
        uid=uid, parent_uid=e.parent_uid, offspring_index=e.offspring_index,
        lineage_hash=e.lineage_hash, depth=e.depth, next_uid=e.next_uid,
    )
    rep = verify_tag_uniqueness(bad)
    assert not rep.passed
    assert rep.duplicate_indices == (0, 1)
