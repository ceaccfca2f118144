"""Branch bookkeeping, apportionment, capping, evolution, collapse batches."""

import collections
import copy
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from branchbox import branching
from branchbox.branching import (
    Ensemble,
    Tables,
    _cdf_index,
    _cdf_search,
    _exact_chain,
    _probe_cells,
    _shared_kernel_hits,
    _site_ensemble,
    apportion_counts,
    evolve_ensemble_step,
    midbox_ensemble,
    run_collapse_trajectories,
    trajectory_seed,
    verify_tag_uniqueness,
)
from branchbox.config import parse_config
from branchbox.model import PhysicalParams, bin_weights, reflect_center, spread_variance
from branchbox.rng import KEY_CAP, lineage_hash_child, lineage_hash_root
from branchbox.runner import BORN_TOTAL_COUNT, _born_event
from branchbox.stats import ensemble_position_mean, ensemble_position_variance

import reference
from test_config_space import ACCEPTANCE

P = PhysicalParams()


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _kernel_cdf(kern):
    """Cumulative kernel weights normalised to end at exactly 1, as ``Tables.kernel`` has them."""
    cdf = np.cumsum(kern)
    cdf /= cdf[-1]
    return cdf


def initial_ensemble(sites, weights, roots=None):
    """Unit-width branches at t = 0 on lattice sites from origin 0, with
    root lineages (default 0..n-1); integer masses stay int64."""
    roots = np.arange(len(sites)) if roots is None else np.asarray(roots)
    return Ensemble(
        time=0.0, site=np.array(sites, np.int64), origin=0.0, params=P,
        weight=np.asarray(weights), lineage_hash=lineage_hash_root(roots.astype(np.uint64)),
    )


# ---------------------------------------------------------------------------
# ensembles


def test_midbox_default_center_is_lattice_aligned():
    e = midbox_ensemble(P)
    assert e.n_branches == 1
    assert e.center[0] == 10.0
    assert (e.origin, e.site[0]) == (0.0, 20)
    assert e.variance == P.w**2
    assert e.params == P
    # explicit centers are taken as given: they become the origin
    e2 = midbox_ensemble(P, center=9.87)
    assert e2.center[0] == 9.87
    assert (e2.origin, e2.site[0]) == (9.87, 0)


def test_midbox_snaps_odd_geometry():
    p = PhysicalParams(L=20.6, w=1.0)
    e = midbox_ensemble(p)
    bw = p.bin_width()
    assert e.center[0] == round((p.L / 2) / bw) * bw


def test_midbox_count_mode_multiplicity():
    # the count rides in the one mass array, as an int64
    e = midbox_ensemble(P, "count", multiplicity=1250)
    assert e.weight.dtype == np.int64
    np.testing.assert_array_equal(e.weight, [1250])
    np.testing.assert_array_equal(e.masses(), [1250])
    np.testing.assert_array_equal(
        midbox_ensemble(P, "count", multiplicity=np.int64(3)).weight, [3])
    np.testing.assert_array_equal(midbox_ensemble(P, "count").weight, [1])
    # the mode picks only the mass type: the other modes start from weight 1.0
    for mode in ("weighted", "collapse"):
        e = midbox_ensemble(P, mode)
        assert (e.weight.dtype, e.weight[0], e.site[0]) == (np.float64, 1.0, 20)


@pytest.mark.parametrize("mode, multiplicity, fragment", [
    # a bad count raises instead of being clamped to 1 or truncated to 2
    ("count", 0, "integer >= 1"),
    ("count", -4, "integer >= 1"),
    ("count", 2.7, "integer >= 1"),
    ("count", 3.0, "integer >= 1"),
    ("count", True, "integer >= 1"),
    # only count mode holds a count
    ("weighted", 5, "count mode only"),
    ("collapse", 1, "count mode only"),
])
def test_midbox_refuses_bad_multiplicity(mode, multiplicity, fragment):
    with pytest.raises(ValueError, match=fragment):
        midbox_ensemble(P, mode, multiplicity=multiplicity)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        initial_ensemble([], [])
    # weights must sum to one
    with pytest.raises(ValueError):
        initial_ensemble([1, 1], [0.4, 0.4])
    # integer sites from one finite origin; one mass per branch
    with pytest.raises(ValueError, match="int64"):
        dataclasses.replace(initial_ensemble([1], [1.0]), site=np.array([1.0]))
    with pytest.raises(ValueError, match="origin"):
        dataclasses.replace(initial_ensemble([1], [1.0]), origin=math.nan)
    with pytest.raises(ValueError, match="'weight'"):
        initial_ensemble([1, 2], [1.0])
    # counts (born_test's leaves, a cap's hits) are int64 and need not sum
    # to one, but each branch holds at least one unit
    counted = initial_ensemble([1, 2], [3, 4])
    assert counted.weight.sum() == 7
    with pytest.raises(ValueError, match="sum to 1"):
        initial_ensemble([1, 2], [3.0, 0.5])
    with pytest.raises(ValueError, match=">= 1"):
        initial_ensemble([1, 2], [3, 0])
    with pytest.raises(ValueError, match="float64 weights"):
        initial_ensemble([1, 2], np.array([0.5, 0.5], np.float32))


def test_center_folds_unfolded_sites_into_the_box():
    # sites are unfolded offsets from the origin; centers fold them at the
    # walls by images, and the width is the parameters' w
    e = initial_ensemble([0, 1, -3, 41, 79, 80, 200], np.full(7, 1 / 7))
    np.testing.assert_array_equal(e.center, [0.0, 0.5, 1.5, 19.5, 0.5, 0.0, 20.0])
    np.testing.assert_array_equal(e.center, reflect_center(e.site * 0.5, P.L))
    assert e.variance == P.w**2


# ---------------------------------------------------------------------------
# the fold indexes


def _assert_per_row_fold(e):
    x, m = e.position_masses
    rx, rm = reference.folded_site_masses(
        e.site, e.weight, e.origin, e.params.bin_width(), e.params.L)
    assert (x.tobytes(), m.tobytes()) == (rx.tobytes(), rm.tobytes())


def _acceptance_run(overrides):
    c = parse_config("", overrides)
    # as the runner steps it: collapse is the cap at one branch
    return c.params, c.mode, None, 1 if c.mode == "collapse" else c.max_branches, c.timing


# (params, mode, start center, cap, timing)
FOLD_RUNS = {o["scenario"]: _acceptance_run(o) for o in ACCEPTANCE} | {
    "off-lattice w 0.3": (PhysicalParams(w=0.3), "weighted", None, 2000, "deterministic"),
    # born_test's parent sits half a pitch off the lattice
    "half-pitch origin": (P, "weighted", round(10.0 / 0.5) * 0.5 + 0.25, 2000, "poisson"),
    "far start": (P, "weighted", -123_456.789, 2000, "deterministic"),
}


@pytest.mark.parametrize("case", sorted(FOLD_RUNS))
def test_position_masses_equal_the_per_row_fold(case):
    p, mode, center, cap, timing = FOLD_RUNS[case]
    e, rng = midbox_ensemble(p, mode, center=center), gen(17)
    _assert_per_row_fold(e)
    for _ in range(12):
        e = evolve_ensemble_step(e, p, 8, cap, rng, timing=timing)
        _assert_per_row_fold(e)
    # a warm ensemble re-placed in another geometry gets tables of its own
    for other in (dataclasses.replace(e, origin=e.origin + 0.1),
                  dataclasses.replace(e, params=dataclasses.replace(p, w=p.w / 2, L=2 * p.L))):
        assert other.tables is not e.tables
        _assert_per_row_fold(other)


@pytest.mark.parametrize("counts", [
    [1, 1, 1, 1, 1],                    # every mass 1: a plain count
    [3, 1, 2, 7, 1],                    # multiplicities: a weighted count
    # the site-1 pair sums to a fraction that its two normalized masses,
    # added in floats, miss: counted exactly at a total of 2**31 - 1, the
    # last below the bound, and normalized in floats at 2**31 + 1
    [1_728_228_697, 274_414_308, 1, 2, 144_840_639],
    [1_728_228_699, 274_414_308, 1, 2, 144_840_639],
    [2**40, 3, 1, 2**35, 5],
])
def test_position_masses_of_counts_round_once_below_the_exact_total(counts):
    # sites 0 and 80 fold onto one position, and so do 1 and 79
    e = initial_ensemble([0, 1, 80, 79, 1], np.array(counts, np.int64))
    _assert_per_row_fold(e)
    x, m = e.position_masses
    assert x.tolist() == [0.0, 0.5]
    if sum(counts) < 2**31:
        total = sum(counts)
        expected = [Fraction(counts[0] + counts[2], total),
                    Fraction(counts[1] + counts[3] + counts[4], total)]
        # the folded sums add sites' once-rounded fractions
        sites = [float(Fraction(c, total)) for c in (counts[0], counts[2])]
        assert m[0] == sites[0] + sites[1]
        assert abs(m - np.array(expected, float)).max() <= 2**-52


def test_fold_index_grows_and_restarts_bit_for_bit():
    # a 300-step Poisson walk grows its fold index a few times, never past
    # twice the sites it has seen, and never shrinks it
    e, rng, ranges, lo, hi = midbox_ensemble(P), gen(4), [], math.inf, -math.inf
    for _ in range(300):
        e = evolve_ensemble_step(e, P, 8, 40, rng, timing="poisson")
        _assert_per_row_fold(e)
        lo, hi = min(lo, e.site.min()), max(hi, e.site.max())
        first, _, which = e.tables.fold(e.site.min(), e.site.max() + 1)
        ranges.append((first, first + which.size))
        assert first <= lo and hi < first + which.size
        assert which.size <= 2 * (hi - lo + 1)
    moves = [(a, b) for a, b in zip(ranges, ranges[1:]) if a != b]
    assert 0 < len(moves) <= 5
    assert all(b[0] <= a[0] and a[1] <= b[1] for a, b in moves)
    # tables built afresh from the last row give the grown index's aggregation
    grown = e.position_masses
    again = dataclasses.replace(e, tables=None)
    assert again.tables is not e.tables
    assert [a.tobytes() for a in again.position_masses] == [g.tobytes() for g in grown]


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
        assert after.weight.sum() == BORN_TOTAL_COUNT
        assert np.all(np.abs(counts / BORN_TOTAL_COUNT - weights) <= 1.0 / BORN_TOTAL_COUNT)
        # zero-count leaves hold no branch
        kept = np.flatnonzero(counts)
        assert after.weight.dtype == np.int64
        np.testing.assert_array_equal(after.weight, counts[kept])
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
        idx, hits = reference.stratified_hits(w, rng.random(k))
        assert hits.sum() == k
        assert idx.size <= k
        assert np.all(np.diff(idx) > 0)


def test_stratified_hits_unbiased():
    # E[hits_i] = K * w_i for every branch.  All trials are one selection:
    # trial t is group t with multiplicity K, so it gets exactly its own K
    # probes, at (u + j) / K of its mass
    w = np.array([0.02, 0.4, 0.18, 0.25, 0.15])
    k = 8
    trials = 40_000
    u = gen(22).random((trials, k))
    idx, hits = reference.stratified_hits(
        np.tile(w, trials), u.ravel(),
        group_start=np.arange(trials) * w.size, group_mass=np.full(trials, k),
    )
    mean_hits = np.bincount(idx % w.size, weights=hits, minlength=w.size) / trials
    # per-probe variance is below 1/4, so the SE of each mean is tiny
    np.testing.assert_allclose(mean_hits, k * w, atol=0.02)


def test_stratified_hits_heavy_branch_always_survives():
    # a branch with weight above 1/K owns at least one full stride
    w = np.array([0.5, 0.3, 0.1, 0.06, 0.04])
    rng = gen(23)
    for _ in range(200):
        idx, _ = reference.stratified_hits(w, rng.random(4))
        assert 0 in idx and 1 in idx


def _flat_rows(parent_mass, kern):
    """Materialized rows of the shared-kernel form and their group starts."""
    flat = (parent_mass[:, None] * kern[None, :]).ravel()
    return flat, np.arange(parent_mass.size) * kern.size


def _shared_hits(kern, u, parent_mass):
    """``_shared_kernel_hits`` on kern's CDF and bucket table for u's probes."""
    cdf = _kernel_cdf(kern)
    return _shared_kernel_hits(cdf, _cdf_index(cdf, u.size), u, parent_mass)


def _shared_flat(kern, u, parent_mass):
    """``_shared_kernel_hits`` as flat row indices g * kern.size + b, and hits."""
    g, b, hits = _shared_hits(kern, u, parent_mass)
    return g * kern.size + b, hits


def test_stratified_hits_two_level_matches_flat_search():
    # the engine's shared-kernel form and the reference's materialized rows
    # both return the flat search's probe landings,
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
            _shared_flat(kern, u, pm),
            reference.stratified_hits(flat, u, starts),
        ):
            assert hits.sum() == k
            assert np.all(np.diff(idx) > 0)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(hits, want_hits)


def test_stratified_hits_unbiased_per_implicit_row():
    # E[hits of row (g, b)] = K * w_g * kern_b with unequal parents and a
    # lopsided kernel.  All trials are one selection over the parents
    # repeated once per trial, each repeat collecting its own K probes
    pm = np.array([0.5, 0.1, 0.3, 0.1])
    kern = np.array([0.05, 0.6, 0.25, 0.1])
    flat, _ = _flat_rows(pm, kern)
    k = 6
    trials = 40_000
    u = gen(25).random((trials, k))
    g, b, hits = _shared_hits(kern, u.ravel(), np.tile(pm, trials))
    row = (g % pm.size) * kern.size + b
    mean_hits = np.bincount(row, weights=hits, minlength=flat.size) / trials
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
                _shared_flat(kern, u, pm),
                reference.stratified_hits(flat, u, starts),
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
            a = _shared_flat(kern, u, pm)
            b = reference.stratified_hits(flat, u, starts)
            for idx, hits in (a, b):
                assert np.all(flat[idx] > 0)
                assert hits.sum() == k
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])


# phases in unit_uniform's range [2**-53, 1 - 2**-53], with ones that move
# u + j onto j or j + 1
_PHASES = st.sampled_from([2.0**-53, 1e-15, 0.5, 1.0 - 1e-15, 1.0 - 2.0**-53]) | st.floats(
    2.0**-53, 1.0 - 2.0**-53
)


def _ulps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = float(np.nextafter(x, np.inf if n > 0 else -np.inf))
    return x


def _assert_multiplicity_first_level(h, u):
    """Parent g gets exactly probes H[g-1] .. H[g]-1, and each fraction puts
    its probe at (u + j) / K of the total to within a few ulps."""
    k = u.size
    cell, per_cell, frac = _probe_cells(h, u)
    np.testing.assert_array_equal(per_cell, h)
    np.testing.assert_array_equal(cell, np.repeat(np.arange(h.size), h))
    assert np.all((frac > 0) & (frac <= 1))
    pos = (u + np.arange(k)) / k
    start = np.cumsum(h) - h
    assert np.all(np.abs((start[cell] + frac * h[cell]) / k - pos) <= 4 * np.spacing(pos))
    return cell


@st.composite
def multiplicity_cases(draw):
    """(integer multiplicities >= 1, one phase per unit of their sum)."""
    h = np.array(draw(st.lists(st.integers(1, 6), min_size=1, max_size=40)), np.int64)
    k = int(h.sum())
    return h, np.array(draw(st.lists(_PHASES, min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(case=multiplicity_cases())
@example(case=(np.array([1]), np.array([0.5])))                            # K = n = 1
@example(case=(np.array([3]), np.array([2.0**-53] * 3)))                   # one parent
@example(case=(np.ones(4, np.int64), np.array([1.0 - 2.0**-53] * 4)))      # every h = 1
def test_first_level_gives_each_parent_its_multiplicity(case):
    _assert_multiplicity_first_level(*case)


def test_first_level_at_the_cap():
    # engine-sized first level on integer ensembles with sum K: every
    # parent gets its multiplicity, and the float route, searching the
    # same positions on the float CDF of the masses, finds the same cells
    rng = gen(27)
    for k in (1, 7, 1000, 100_000):
        u = branching._cap_probe_phases(Tables(0.0, P).ladder(k), np.uint64(k))
        for n in sorted({1, max(k // 3, 1), k}):
            h = 1 + rng.multinomial(k - n, np.full(n, 1.0 / n))
            cell = _assert_multiplicity_first_level(h, u)
            float_cell, _, float_frac = _probe_cells(h.astype(float), u)
            np.testing.assert_array_equal(float_cell, cell)
            assert np.all((float_frac > 0) & (float_frac <= 1))


@st.composite
def kernel_cases(draw):
    """(CDF, probes): kernels with zero-mass bins and tails crowded into one
    bucket; probes on CDF entries, bucket bounds and their neighbours."""
    kern = np.array(draw(st.lists(
        st.sampled_from([0.0, 1e-300, 1e-17, 1e-9, 1e-4]) | st.floats(1e-3, 1.0),
        min_size=1, max_size=30,
    )))
    assume(kern.sum() > 0)
    cdf = _kernel_cdf(kern)
    n = draw(st.sampled_from([1, 16, 32, 100, 2000, 5000, 100_000]))
    nb = _cdf_index(cdf, n).size - 1
    marks = [float(c) for c in cdf if c > 0] + [q / nb for q in range(1, nb + 1)]
    picks = draw(st.lists(
        st.tuples(st.sampled_from(marks) | st.floats(0.0, 1.0, exclude_min=True),
                  st.integers(-2, 2)),
        min_size=1, max_size=50,
    ))
    probe = [min(max(_ulps(x, d), 5e-324), 1.0) for x, d in picks] + [5e-324, 1.0]
    return cdf, np.resize(np.array(probe), n)


@settings(max_examples=200, deadline=None)
@given(case=kernel_cases())
@example(case=(np.array([1.0]), np.array([5e-324, 0.5, 1.0])))
@example(case=(_kernel_cdf(np.array([1e-300, 0.0, 1.0, 0.0, 0.0])), np.full(2000, 1.0)))
def test_cdf_search_equals_searchsorted(case):
    # the bucketed kernel lookup is the binary search it replaces, bit for bit
    cdf, probe = case
    np.testing.assert_array_equal(
        _cdf_search(cdf, probe, _cdf_index(cdf, probe.size)),
        np.searchsorted(cdf, probe, side="left"),
    )


def test_cdf_index_sizes_buckets_to_the_probes_and_is_memoized():
    tables = Tables(0.0, P)
    step, kern, cdf, index = tables.kernel(P.tau, 64)
    assert cdf[-1] == 1.0 and np.array_equal(cdf, _kernel_cdf(kern))
    # nb + 1 entries, nb a power of two near K / 16, at least 1 and at most 4096
    sizes = [_cdf_index(cdf, n).size for n in (1, 31, 32, 64, 2000, 100_000)]
    assert sizes == [2, 2, 3, 5, 65, 4097]
    # the run's tables keep the kernel while (dt, probes) repeat, and only then
    assert tables.kernel(P.tau, 64)[3] is index
    assert np.array_equal(tables.kernel(P.tau, 2000)[3], _cdf_index(cdf, 2000))
    assert tables.kernel(0.5 * P.tau, 2000)[1].size < kern.size
    # unit parameters: at most 20 of 4097 buckets hold a CDF entry, so one
    # gather answers almost every probe of a cap-1e5 step
    table = _cdf_index(cdf, 100_000)
    assert (table < 0).sum() <= 20
    # every other bucket answers with the count of entries below it
    q = np.flatnonzero(table >= 0)
    np.testing.assert_array_equal(table[q], np.searchsorted(cdf, q / 4096, side="left"))


def test_engine_and_batch_share_the_kernel_lookup(monkeypatch):
    calls = []

    def counted(cdf, probe, index):
        calls.append(probe.size)
        return _cdf_search(cdf, probe, index)

    monkeypatch.setattr(branching, "_cdf_search", counted)
    run_collapse_trajectories(P, 5, 3, 1)
    e = evolve_ensemble_step(midbox_ensemble(P, "collapse"), P, 8, 1, gen(1))
    e = evolve_ensemble_step(evolve_ensemble_step(midbox_ensemble(P), P, 8, 10**9, gen(2)),
                             P, 8, 100, gen(3))
    assert calls == [5, 5, 5, 1, 100]


def _uncapped(e, steps, seed):
    r = gen(seed)
    for _ in range(steps):
        e = evolve_ensemble_step(e, P, 8, 10**9, r)
    return e


def test_cap_resample_identity_below_cap():
    # a cap at or above the offspring rows keeps every row as it is
    e = _uncapped(midbox_ensemble(P), 1, 1)
    full = evolve_ensemble_step(e, P, 8, 10**9, gen(2))
    for cap in (full.n_branches, full.n_branches + 5):
        at = evolve_ensemble_step(e, P, 8, cap, gen(2))
        for name in ("site", "weight", "lineage_hash"):
            np.testing.assert_array_equal(getattr(at, name), getattr(full, name))
    assert evolve_ensemble_step(e, P, 8, full.n_branches - 1, gen(2)).weight.dtype == np.int64


def test_cap_resample_weighted_invariants():
    e = _uncapped(midbox_ensemble(P), 2, 3)
    assert e.n_branches > 400
    r = gen(4)
    _, step, g, b, _ = branching._step_rows(e, 100, _step_seed(r), "deterministic")
    capped = evolve_ensemble_step(e, P, 8, 100, r)
    assert capped.n_branches <= 100
    # survivors hold their hits out of the cap as int64 multiplicities
    assert capped.weight.dtype == np.int64
    assert capped.weight.sum() == 100
    # each survivor sits on its own (parent, bin) row
    np.testing.assert_array_equal(capped.site, e.site[g] + step[0] + b)


def test_cap_equal_masses_is_exchangeable():
    # 2K equal-mass parents and a one-bin kernel: every parent must survive
    # a cap at K equally often
    k = 16
    p = PhysicalParams(tau=1e-6)
    e = dataclasses.replace(initial_ensemble(np.arange(2 * k), np.full(2 * k, 1.0 / (2 * k))),
                            params=p)
    seen = np.zeros(2 * k)
    trials = 4000
    r = gen(7)
    for _ in range(trials):
        seen[evolve_ensemble_step(e, p, 8, k, r).site] += 1
    freq = seen / trials
    # marginal inclusion probability is exactly 1/2 for every branch
    assert np.all(np.abs(freq - 0.5) < 4 * math.sqrt(0.25 / trials) + 0.02)


def test_capped_mean_unbiased_over_seeds():
    # Statistic of a capped step vs the uncapped step's: the mean over 50
    # independent cappings must land within 3 standard errors.
    e = _uncapped(midbox_ensemble(P, center=5.0), 2, 8)
    target = ensemble_position_mean(_uncapped(e, 1, 8))
    means = np.array([
        ensemble_position_mean(evolve_ensemble_step(e, P, 8, 300, gen(100 + s)))
        for s in range(50)
    ])
    se = means.std(ddof=1) / math.sqrt(means.size)
    assert abs(means.mean() - target) < 3 * se


def test_capped_variance_unbiased_over_seeds():
    # second moments survive capping too (the old failure mode of a
    # weight-proportional selection that kept the original weights)
    e = _uncapped(midbox_ensemble(P), 2, 9)
    full = _uncapped(e, 1, 9)
    target = float(full.weight @ full.center**2)
    vals = []
    for s in range(50):
        c = evolve_ensemble_step(e, P, 8, 300, gen(500 + s))
        vals.append(float(c.weight / c.weight.sum() @ c.center**2))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) < 3 * se


def test_cap_keyed_is_deterministic():
    # the capped step's selection is keyed off the step seed alone
    e = _uncapped(midbox_ensemble(P), 2, 10)
    a = evolve_ensemble_step(e, P, 8, 40, gen(0xABCDEF))
    b = evolve_ensemble_step(e, P, 8, 40, gen(0xABCDEF))
    for name in ("site", "weight", "lineage_hash"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = evolve_ensemble_step(e, P, 8, 40, gen(0x123456))
    assert not np.array_equal(a.lineage_hash, c.lineage_hash)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_advances_time_and_resets_width():
    e = midbox_ensemble(P)
    out = evolve_ensemble_step(e, P, 8, 10**9, gen(30))
    assert out.time == P.tau
    assert out.variance == P.w**2
    # a second step: the children of a whole-width parent reset to w^2;
    # next_uid counts the offspring rows of the steps so far
    out2 = evolve_ensemble_step(out, P, 8, 10**9, gen(30))
    assert out2.time == 2 * P.tau
    assert out2.variance == P.w**2
    nk = out.n_branches
    assert (e.next_uid, out.next_uid, out2.next_uid) == (0, nk, nk + nk * nk)


def test_evolve_single_step_equals_kernel():
    e = midbox_ensemble(P)
    out = evolve_ensemble_step(e, P, 8, 10**9, gen(31))
    rel, kern = bin_weights(0.0, spread_variance(P.w**2, P.tau, P) - P.w**2, 0.5)
    np.testing.assert_array_equal(out.center, 10.0 + rel)
    np.testing.assert_allclose(out.weight, kern, rtol=1e-15)
    assert out.next_uid == e.next_uid + rel.size


def test_evolve_lineage_hashes_chain():
    # the first offspring keeps its parent's tag; every other one on bin b
    # gets the child hash of b
    e = midbox_ensemble(P)
    out = evolve_ensemble_step(e, P, 8, 10**9, gen(32))
    assert out.lineage_hash[0] == e.lineage_hash[0]
    expected = lineage_hash_child(
        e.lineage_hash[0], out.time, np.arange(1, out.n_branches, dtype=np.uint64)
    )
    np.testing.assert_array_equal(out.lineage_hash[1:], expected)


def test_evolve_reproducible_from_seed():
    def run(seed):
        e = midbox_ensemble(P)
        r = gen(seed)
        for _ in range(5):
            e = evolve_ensemble_step(e, P, 8, 500, r)
        return e

    a, b = run(77), run(77)
    np.testing.assert_array_equal(a.site, b.site)
    np.testing.assert_array_equal(a.weight, b.weight)
    np.testing.assert_array_equal(a.lineage_hash, b.lineage_hash)
    c = run(78)
    assert not np.array_equal(a.weight, c.weight)


def _step_seed(r):
    """The step seed ``evolve_ensemble_step`` draws next from ``r``, drawn from a copy."""
    return np.uint64(copy.deepcopy(r).integers(0, 2**64, dtype=np.uint64))


def _tags_at_splits(g, b, parent: Ensemble, t: float) -> np.ndarray:
    """The tag rule on rows (g, b) of a step from ``parent``: each parent's
    first row keeps its tag, and every further row on bin b gets
    ``lineage_hash_child(parent tag, t, b)``."""
    first = np.concatenate(([True], g[1:] != g[:-1]))
    own = parent.lineage_hash[g]
    return np.where(first, own, lineage_hash_child(own, t, b))


def _materialize_then_cap(e, p, cap, seed):
    """Every offspring of ``e`` built, then capped by the reference's two-level
    resample with the parents' masses as the group masses.  Returns each
    survivor's parent, bin, site, hits and tag under the tag rule."""
    nk = branching._offset_kernel(p.tau, p)[0].size
    full = evolve_ensemble_step(e, p, 8, 10**9, gen(seed))
    assert full.n_branches == e.n_branches * nk > cap
    u = reference.cap_probe_phases(cap, _step_seed(gen(seed)), KEY_CAP)
    idx, hits = reference.stratified_hits(full.weight, u, np.arange(e.n_branches) * nk, e.weight)
    g, b = np.divmod(idx, nk)
    return g, b, full.site[idx], hits, _tags_at_splits(g, b, e, full.time)


def _assert_fast_path_matches(e, cap, seed, p=P):
    """The capped step equals materializing every offspring, then capping
    with the parents' masses as the group masses: the same (parent, bin)
    rows, sites, hits and tags."""
    _, _, g, b, _ = branching._step_rows(e, cap, _step_seed(gen(seed)), "deterministic")
    capped = evolve_ensemble_step(e, p, 8, cap, gen(seed))
    want = _materialize_then_cap(e, p, cap, seed)
    g = np.arange(e.n_branches) if g is None else g
    for got, ref in zip((g, b, capped.site, capped.weight, capped.lineage_hash), want):
        np.testing.assert_array_equal(got, ref)
    assert capped.weight.dtype == np.int64 and capped.weight.sum() == cap
    return capped


def test_evolve_fast_path_matches_materialize_then_cap():
    # the capped weighted fast path must be bit-identical to building
    # every offspring row and then capping with the same step seed
    e = midbox_ensemble(P)
    e = evolve_ensemble_step(e, P, 8, 10**9, gen(33))
    _assert_fast_path_matches(e, 37, 99)

    # heavy rows: 25 parents, 625 rows, the central rows collect several
    # of the 300 probes each
    capped = _assert_fast_path_matches(e, 300, 97)
    assert capped.weight.max() > 1

    # integer parents: their multiplicities (1 to 3, summing to the cap)
    # give each parent its own probes
    e = evolve_ensemble_step(e, P, 8, 300, gen(95))
    assert e.weight.max() > 1
    _assert_fast_path_matches(e, 300, 94)
    # as many parents as the cap, but multiplicities summing past it
    _assert_fast_path_matches(e, e.n_branches, 93)

    # the box regime at the cap: every multiplicity 1, one probe per
    # parent, so every probe hits a distinct row
    cap = 2000
    for s in range(8):
        e = evolve_ensemble_step(e, P, 8, cap, gen(40 + s))
    np.testing.assert_array_equal(e.weight, 1)
    capped = _assert_fast_path_matches(e, cap, 96)
    np.testing.assert_array_equal(capped.weight, 1)


def test_evolve_fast_path_matches_materialize_then_cap_after_capped_step():
    # same contract on an ensemble the cap has already thinned: several
    # parents, weights hits / cap
    e = midbox_ensemble(P)
    e = evolve_ensemble_step(e, P, 8, 10**9, gen(34))
    e = evolve_ensemble_step(e, P, 8, 60, gen(35))
    assert e.n_branches > 1
    assert e.weight.dtype == np.int64 and e.weight.sum() == 60
    # a cap other than the multiplicities' sum takes the float first level
    _assert_fast_path_matches(e, 45, 98)


def test_born_leaves_evolve_as_materialize_then_cap():
    # born_test's leaves hold int64 counts summing to 10 000, and the engine
    # steps them as it steps any masses.  A period of 100 spreads each of the
    # 6 leaves over 2401 bins, so their 14 406 rows exceed caps below, equal
    # to and above the total; at the total the counts are the parents'
    # multiplicities, and each capped step equals materialize-then-cap
    p = PhysicalParams(tau=100.0)
    start = midbox_ensemble(p, "count", multiplicity=BORN_TOTAL_COUNT, center=10.25)
    _, _, leaves = _born_event(p, start, p.m * p.w**2 / (3.0 * p.hbar))
    assert leaves.weight.dtype == np.int64 and leaves.weight.sum() == BORN_TOTAL_COUNT
    assert leaves.n_branches == 6
    for cap in (BORN_TOTAL_COUNT // 2, BORN_TOTAL_COUNT, BORN_TOTAL_COUNT + 2000):
        assert branching._are_multiplicities(leaves.weight, cap) == (cap == BORN_TOTAL_COUNT)
        _assert_fast_path_matches(leaves, cap, cap, p=p)


_FIELDS = ("site", "weight", "lineage_hash")


@pytest.fixture(scope="module")
def box_at_cap():
    """The box steady state at cap 1e5: 1e5 parents, every multiplicity 1."""
    e = midbox_ensemble(P)
    r = gen(70)
    for _ in range(12):
        e = evolve_ensemble_step(e, P, 8, 100_000, r)
    assert e.n_branches == 100_000
    np.testing.assert_array_equal(e.weight, 1)
    return e


def test_step_leaves_its_parent_ensemble_unchanged(box_at_cap):
    # the in-place kernels write only into arrays the step allocated, on
    # every path: the steady state, the general capped path, uncapped.
    # Only the steady state, where every parent keeps one survivor, shares
    # the parents' tags, as it shares their masses.
    e = evolve_ensemble_step(midbox_ensemble(P), P, 8, 10**9, gen(71))
    thinned = evolve_ensemble_step(e, P, 8, 300, gen(72))
    for parent, cap in ((box_at_cap, 100_000), (thinned, 300), (thinned, 10**9), (e, 30)):
        before = {name: getattr(parent, name).copy() for name in _FIELDS}
        out = evolve_ensemble_step(parent, P, 8, cap, gen(73))
        shared = ("weight",)
        if parent is box_at_cap:
            assert out.lineage_hash is parent.lineage_hash
            shared += ("lineage_hash",)
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(parent, name), before[name])
            if name not in shared:
                assert not np.shares_memory(getattr(out, name), getattr(parent, name))


def test_steady_step_allocates_no_temporaries(box_at_cap):
    # one steady cap-1e5 step holds at most three 1e5-element arrays at
    # once: the probe phases, their bucket indices and the bins (and a mask
    # an eighth their size) while the kernel is looked up; the bins then
    # become the child sites.  The child tags and masses are the parents' own
    # arrays
    evolve_ensemble_step(box_at_cap, P, 8, 100_000, gen(74))  # memos filled
    tracemalloc.start()
    try:
        out = evolve_ensemble_step(box_at_cap, P, 8, 100_000, gen(74))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_branches == 100_000
    assert peak < 3.5 * 8 * 100_000


def test_one_bin_step_keeps_multiplicities():
    # a step too short to spread past one bin has a one-bin kernel: under
    # the cap each parent keeps its integer multiplicity and its site
    p = PhysicalParams(tau=1e-6)
    assert branching._offset_kernel(p.tau, p)[0].size == 1
    e = dataclasses.replace(initial_ensemble([3, 5, 8], [2, 1, 3]), params=p)
    out = evolve_ensemble_step(e, p, 8, 6, gen(63))
    assert out.weight.dtype == np.int64
    np.testing.assert_array_equal(out.weight, e.weight)
    np.testing.assert_array_equal(out.site, e.site)
    np.testing.assert_array_equal(out.lineage_hash, e.lineage_hash)


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

    _, _, site, hits, tag = _materialize_then_cap(e, p, cap, seed + 1)
    for got, want in zip((capped.site, capped.weight, capped.lineage_hash), (site, hits, tag)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(p=geometries(), m=st.floats(0.3, 3.0), hbar=st.floats(0.3, 3.0),
       dt=st.floats(1e-3, 10.0))
def test_offset_kernel_spreads_as_spread_variance_does_on_an_array(p, m, hbar, dt):
    # the kernel's scalar spread rounds as spread_variance on one element
    p = dataclasses.replace(p, m=m, hbar=hbar)
    spread = float(spread_variance(np.full(1, p.w**2), dt, p)[0]) - p.w**2
    rel, kern = bin_weights(0.0, spread, p.bin_width())
    step, got = branching._offset_kernel(dt, p)
    assert got.tobytes() == kern.tobytes()
    np.testing.assert_array_equal(step, np.rint(rel / p.bin_width()))


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
    p0 = PhysicalParams(tau=0.0)
    with pytest.raises(ValueError, match="tau > 0"):
        evolve_ensemble_step(midbox_ensemble(p0), p0, 8, 100, gen(40))
    # the engine evolves an ensemble under its own parameters only
    with pytest.raises(ValueError, match="differ"):
        evolve_ensemble_step(e, PhysicalParams(tau=0.5), 8, 100, gen(40))


def test_evolve_collapse_stays_single_and_lattice_bound():
    # a collapse step is the step at cap 1: it keeps one branch of mass 1
    e = midbox_ensemble(P, "collapse")
    r = gen(41)
    for k in range(30):
        prev = e
        e = evolve_ensemble_step(e, P, 8, 1, r)
        assert e.n_branches == 1
        assert e.weight[0] == 1.0
        assert e.variance == P.w**2
        assert e.lineage_hash[0] == prev.lineage_hash[0]
        assert e.center[0] == round(e.center[0] / 0.5) * 0.5
        assert 0.0 <= e.center[0] <= P.L


@pytest.mark.parametrize("p, timing", [
    (P, "deterministic"),
    (P, "poisson"),
    (PhysicalParams(w=0.3, L=20.0), "deterministic"),
])
def test_collapse_step_is_the_weighted_step_at_cap_one(p, timing):
    # collapse is the step at cap K = 1: a lone packet keeps the one
    # offspring its single probe phase picks on the kernel CDF, whether its
    # mass is the float 1.0 it starts with or the one hit it then holds
    e, r = midbox_ensemble(p, "collapse"), gen(43)
    for _ in range(20):
        e = dataclasses.replace(e, time=0.0)  # so the event time is the period itself
        u = reference.cap_probe_phases(1, _step_seed(r), KEY_CAP)
        out = evolve_ensemble_step(e, p, 8, 1, r, timing=timing)
        step, kern = branching._offset_kernel(out.time, p)
        picked = np.searchsorted(_kernel_cdf(kern), u)
        np.testing.assert_array_equal(out.site, e.site + step[picked])
        assert out.weight.tolist() == [1] and out.lineage_hash[0] == e.lineage_hash[0]
        e = out


def test_evolve_collapse_follows_born_weights():
    # selection frequencies over many trajectories match the offspring
    # kernel; the batch makes the engine's collapse selection bit for bit
    # (test_batch_matches_sequential_collapse_evolution)
    rel, kern = bin_weights(0.0, 1.0, 0.5)
    n = 30_000
    start = midbox_ensemble(P, "collapse").center[0]
    batch = run_collapse_trajectories(P, n, 1, 10_000)
    offset = batch.center - start
    picks_idx = np.rint((offset - rel[0]) / 0.5).astype(np.int64)
    np.testing.assert_allclose(rel[picks_idx], offset, atol=1e-12)
    picks = np.bincount(picks_idx, minlength=rel.size).astype(float)
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


def exact_weighted_reference(p, steps):
    """The uncapped weighted ensemble at t = steps * tau, aggregated by site:
    ``_site_ensemble`` over the exact chain's last item, as runs build it."""
    return _site_ensemble(p, *collections.deque(_exact_chain(p, steps), maxlen=1)[0])


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
    # unfolded sites that fold onto one box site add up
    got = np.bincount(np.rint(e.center / 0.5).astype(np.int64), weights=e.weight)
    assert set(np.flatnonzero(got)) == {k for k, v in mass.items() if v > 0}
    for k, v in mass.items():
        if v > 0:
            assert got[k] == pytest.approx(v, rel=1e-12, abs=1e-300)


def test_exact_reference_matches_uncapped_engine():
    # aggregating the uncapped weighted engine by unfolded site must
    # reproduce the chain exactly, in a box that is a whole number of bins
    # wide and in one that is not (pitch 0.3); both runs reach both walls
    for p, steps in ((P, 4), (PhysicalParams(w=0.6), 3)):
        e = midbox_ensemble(p)
        r = gen(50)
        for _ in range(steps):
            e = evolve_ensemble_step(e, p, 8, 10**9, r)
        ref = exact_weighted_reference(p, steps)
        assert (e.origin, ref.origin) == (0.0, 0.0)
        assert ref.center.min() < p.bin_width() and ref.center.max() > p.L - p.bin_width()
        lo = min(e.site.min(), ref.site.min())
        size = max(e.site.max(), ref.site.max()) - lo + 1
        agg = np.bincount(e.site - lo, weights=e.weight, minlength=size)
        ref_mass = np.bincount(ref.site - lo, weights=ref.weight, minlength=size)
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
    got = position_histogram(exact_weighted_reference(P, steps), 20)
    np.testing.assert_allclose(got, expected, atol=1e-3)


def test_exact_reference_converges_to_uniformity():
    from branchbox.stats import position_histogram, tv_to_uniform

    h = position_histogram(exact_weighted_reference(P, 2000), 20)
    assert tv_to_uniform(h) < 1e-3


def test_exact_reference_builds_one_ensemble(monkeypatch):
    # the chain carries site masses; only the item read becomes an Ensemble
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return Ensemble(*args, **kwargs)

    monkeypatch.setattr(branching, "Ensemble", counting)
    last = collections.deque(_exact_chain(P, 50), maxlen=1)[0]
    assert built == []
    e = _site_ensemble(P, *last)
    assert len(built) == 1
    assert e.time == 50 * P.tau


def test_exact_reference_validates_geometry():
    # w = 0.6: pitch 0.3, and 2L / 0.3 = 133.3 sites do not fill the box;
    # the free chain needs no lattice of the box
    p = PhysicalParams(w=0.6)
    e = exact_weighted_reference(p, 3)
    assert e.time == 3 * p.tau
    assert e.weight.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((e.center >= 0.0) & (e.center <= p.L))
    with pytest.raises(ValueError):
        exact_weighted_reference(P, -1)


@pytest.mark.parametrize("p", [
    PhysicalParams(w=1.0, L=20.0),
    PhysicalParams(w=0.5, L=20.0),
    PhysicalParams(w=1.0, L=21.5, tau=0.7),
])
def test_folded_free_chain_matches_box_chain(p):
    # in a box that is a whole number of bins wide, the free chain folded
    # at observation is the chain reflected at the walls
    bw = p.bin_width()
    top = round(p.L / bw)
    assert top * bw == p.L
    step, kern = branching._offset_kernel(p.tau, p)
    box = reference.box_chain_reference(step, kern, round(p.L / 2 / bw), top, 50)
    fold = midbox_ensemble(p).tables.position
    n = 0
    for (t, lo, mass), want in zip(branching._exact_chain(p, 50), box):
        box_site = np.rint(fold(lo + np.arange(mass.size)) / bw).astype(np.int64)
        got = np.bincount(box_site, weights=mass, minlength=top + 1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        n += 1
    assert n == 51


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


def test_child_hashes_distinct_over_a_capped_run():
    # every (parent hash, event, bin) triple of a 300-step capped run is
    # distinct, so every child hash the run makes from them must be too:
    # all offspring rows' fresh hashes, and each survivor carries its
    # parent's tag or its own row's fresh hash
    e = midbox_ensemble(P)
    r = gen(62)
    nk = branching._offset_kernel(P.tau, P)[0].size
    rows = []
    for _ in range(300):
        _, step, g, b, _ = branching._step_rows(e, 400, _step_seed(r), "deterministic")
        out = evolve_ensemble_step(e, P, 8, 400, r)
        g = np.arange(e.n_branches) if g is None else g
        # survivor (g, b) sits on its row's site
        np.testing.assert_array_equal(out.site, e.site[g] + step[0] + b)
        row = lineage_hash_child(
            np.repeat(e.lineage_hash, nk), out.time, np.tile(np.arange(nk), e.n_branches)
        )
        rows.append(row)
        tag = out.lineage_hash
        assert np.all((tag == row[g * nk + b]) | (tag == e.lineage_hash[g]))
        e = out
    h = np.sort(np.concatenate(rows))
    assert h.size > 2_000_000
    assert np.all(h[1:] != h[:-1])


@settings(max_examples=40, deadline=None)
@given(w=st.sampled_from([0.3, 0.1]), cap=st.sampled_from([1, 30, 300, None]),
       timing=st.sampled_from(["deterministic", "poisson"]),
       steps=st.integers(1, 5), seed=st.integers(0, 2**32))
@example(w=0.1, cap=300, timing="poisson", steps=5, seed=0)
@example(w=0.3, cap=None, timing="deterministic", steps=3, seed=1)
@example(w=0.3, cap=30, timing="deterministic", steps=5, seed=2)
@example(w=0.1, cap=1, timing="poisson", steps=5, seed=3)
def test_a_tag_changes_only_where_its_lineage_splits(w, cap, timing, steps, seed):
    # after every step: live tags are distinct, a parent's first survivor
    # (and no other) carries the parent's tag, and every other survivor
    # carries lineage_hash_child(parent, t, b) of its own row; a collapse
    # run's one branch (cap 1) keeps its root tag
    p = PhysicalParams(w=w)
    e, r = midbox_ensemble(p), gen(seed)
    root = e.lineage_hash[0]
    for _ in range(steps):
        if cap is None and e.n_branches > 300:
            break  # uncapped rows grow as the kernel's size to the steps
        k = 10**9 if cap is None else cap
        t, step, g, b, _ = branching._step_rows(e, k, _step_seed(r), timing)
        out = evolve_ensemble_step(e, p, 8, k, r, timing=timing)
        # the step's surviving rows (g, b), sorted by parent, are the ones built
        g = np.arange(e.n_branches) if g is None else g
        assert out.time == t and g.size == out.n_branches
        assert np.all(np.diff(g) >= 0) and np.all((0 <= b) & (b < step.size))
        np.testing.assert_array_equal(out.site, e.site[g] + step[0] + b)
        tag = out.lineage_hash
        assert np.unique(tag).size == out.n_branches
        inherits = tag == e.lineage_hash[g]
        first = np.concatenate(([True], g[1:] != g[:-1]))
        np.testing.assert_array_equal(inherits, first)
        split = np.flatnonzero(~first)
        if split.size:
            np.testing.assert_array_equal(
                tag[split], lineage_hash_child(e.lineage_hash[g[split]], out.time, b[split]))
        if cap == 1:
            assert tag.tolist() == [root]
        e = out


def test_uniqueness_catches_duplicate_lineage():
    # two branches on one root lineage
    dup = initial_ensemble([1, 1], [0.5, 0.5], roots=[0, 0])
    rep = verify_tag_uniqueness(dup)
    assert not rep.passed
    assert rep.duplicate_indices == (0, 1)
    assert rep.message == f"branches 0 and 1 share lineage hash {int(dup.lineage_hash[0])}"


def test_uniqueness_names_a_duplicate_among_many_hashes(box_at_cap):
    h = box_at_cap.lineage_hash.copy()
    h[77_777] = h[31_337]
    rep = verify_tag_uniqueness(dataclasses.replace(box_at_cap, lineage_hash=h))
    assert not rep.passed and rep.n_branches == 100_000
    assert rep.duplicate_indices == (31_337, 77_777)
    assert rep.message == f"branches 31337 and 77777 share lineage hash {int(h[31_337])}"
    # the most repeated value is named, at its first two branches
    h[[5, 90_000, 99_999]] = h[60_000]
    rep = verify_tag_uniqueness(dataclasses.replace(box_at_cap, lineage_hash=h))
    assert rep.duplicate_indices == (5, 60_000)
