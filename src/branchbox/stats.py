"""Observables over branch ensembles and the statistical checks built on them.

Everything here treats an ensemble as a Gaussian mixture: branch masses
are the mixture weights and every branch contributes both its center
dispersion and the ensemble's packet variance.  Histograms integrate each
component's Gaussian over each bin (fold-by-images at the walls) instead
of point-assigning centers, so results are exact for the mixture and do
not depend on the branching lattice.  Series rows (``runner._series_rows``)
reduce a position-major mass array of many ensembles (``_position_masses``)
column by column, every sum in position (or bin) order, so a row's bytes
depend only on its own ensemble, not on what shares the array nor on what
the run's tables (``branching.Tables``) memoize: each position's folded
bin masses.  The kernels check nothing: ``RunConfig`` validated the bins.

The checks (diffusion fit, chi-square frequency test, collapse-vs-
ensemble z-scores) are deliberately plain: ordinary least squares and
Pearson statistics, with validity preconditions enforced rather than
silently waived.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# a lazy namespace, which bench/worker.py reads for its version; scipy.special
# loads when the chi-square threshold reads it
import scipy

from .branching import CollapseBatch, Ensemble, Tables
from .model import _Z_ZERO, ndtr

__all__ = [
    "VarianceSeries",
    "DiffusionEstimate",
    "ChiSquareResult",
    "ExpectationComparison",
    "effective_branch_count",
    "fit_diffusion",
    "chi_square_frequencies",
    "pool_small_cells",
    "sample_branch_centers",
    "expectation_compare",
    "position_value",
    "position_square",
]


# ---------------------------------------------------------------------------
# series types


@dataclass(frozen=True)
class VarianceSeries:
    """Per-step (time, ensemble variance, effective branch count) samples."""

    times: np.ndarray
    variances: np.ndarray
    n_effective: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("series must contain at least one sample")
        if self.variances.shape != t.shape or self.n_effective.shape != t.shape:
            raise ValueError("series arrays must have matching lengths")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.variances)) or np.any(self.variances <= 0):
            raise ValueError("variances must be finite and > 0")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class DiffusionEstimate:
    diffusion: float
    stderr: float
    intercept: float
    n_samples: int


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    threshold: float
    alpha: float
    passed: bool


@dataclass(frozen=True)
class ExpectationComparison:
    z_score: float
    trajectory_mean: float
    trajectory_sem: float
    reference_mean: float
    n_trajectories: int


# ---------------------------------------------------------------------------
# moments


def _in_order(a: np.ndarray) -> np.ndarray:
    """Sums over the first axis of ``a`` added in index order, so an exact 0 adds
    nothing wherever it sits.  numpy adds pairwise only along its inner loop: it
    sums the outer axis of a C-contiguous array row by row, a lone column by
    accumulating."""
    a = np.ascontiguousarray(a)
    return np.add.reduce(a) if a[0].size > 1 else np.add.accumulate(a)[-1]


def _position_masses(ensembles: list[Ensemble]) -> tuple[np.ndarray, np.ndarray]:
    """(x, m) of ensembles of one run's tables: the sorted distinct positions in
    [0, L] their branches fold onto, and m[i, j] the normalized mass of
    ensemble j at x[i] (position-major, 0 where it has none).

    One ``bincount`` of the sites, offset by ensemble, sums masses per site:
    exact counts (``mass_total``) are counted, then divided by the total, and
    other masses normalized, then summed.  One more sums the sites per
    position (``Tables.fold``) in site order, empty sites adding exact zeros,
    so column j is ensemble j's bit for bit, whatever shares its array.
    """
    t = ensembles[0].tables
    if any(e.tables is not t for e in ensembles):
        raise ValueError("the ensembles of one array must share one run's tables")
    totals, n = [e.mass_total for e in ensembles], len(ensembles)
    site = np.concatenate([e.site for e in ensembles]) if n > 1 else ensembles[0].site
    lo = int(site.min())
    if n > 1:  # ensemble j's sites from j * width on
        width = int(site.max()) + 1 - lo
        site += np.repeat(np.arange(-lo, n * width - lo, width), [e.n_branches for e in ensembles])
    else:
        width, site = 0, site - lo
    weights = None if all(unit for *_, unit in totals) else np.concatenate(
        [e.weight if exact else e.weight / total for e, (total, exact, _) in zip(ensembles, totals)])
    div = np.array([float(total) if exact else 1.0 for total, exact, _ in totals])
    mass = np.bincount(site, weights, n * width).reshape(n, -1) / div[:, None]
    first, x, which = t.fold(lo, lo + mass.shape[1])
    which = which[lo - first:lo - first + mass.shape[1]]
    low = int(which.min())  # the positions of these sites only, from x[low] on
    cell = (which - low) * n + np.arange(n)[:, None]
    m = np.bincount(cell.ravel(), mass.ravel(), (int(which.max()) - low + 1) * n).reshape(-1, n)
    hit = np.flatnonzero(m.any(axis=1))
    return x[low + hit], m[hit]


def _mixture_moments(x: np.ndarray, m: np.ndarray, v: float):
    """Mean and variance sum m (x - mean)^2 + v of each column of position-major
    masses m at positions x and packet variance v, centered first so a box
    far from the origin keeps every digit; sums in position order."""
    mean = _in_order(m * x[:, None])
    return mean, _in_order(m * np.square(x[:, None] - mean)) + v


def effective_branch_count(e: Ensemble) -> float:
    """Kish effective sample size (sum m)^2 / sum m^2 of the branch masses.

    Exact counts (``Ensemble.mass_total``) square and sum exactly as the
    int64 dot m @ m, which is the total when every mass is 1; larger counts
    and Born weights are squared and summed in floats.
    """
    m = e.weight
    total, exact, unit = e.mass_total
    if exact:
        return float(total) ** 2 / float(total if unit else m @ m)
    return float(total) ** 2 / float(np.square(m, dtype=float).sum())


# ---------------------------------------------------------------------------
# coarse-grained histograms


def _folded_bin_masses(
    centers: np.ndarray, s: float, edges: np.ndarray, L: float
) -> np.ndarray:
    """Per-component Gaussian mass (std ``s``) in each bin of [0, L], walls folded in.

    Reflecting walls map x to the box by mirroring across 0 and L, so the
    in-box density is the image sum rho(y) = sum_j rho_free(2jL + y) +
    rho_free(2jL - y).  Enough images are taken that the neglected tail
    is below double precision.  An image whose CDF arguments all sit in
    ``ndtr``'s zero tail on one side, for every center, adds exactly 0 to
    each bin, so only the images in reach of some center are evaluated.
    """
    n_images = int(math.ceil(6.0 * s / (2.0 * L))) + 1
    shift = (2.0 * L * np.arange(-n_images, n_images + 1))[:, None, None]
    c = centers[:, None]
    # image j's direct arguments at row 2j, its mirrored ones at row 2j + 1
    a = np.stack([edges + shift - c, shift - edges - c], axis=1) / s
    a = a.reshape(2 * shift.size, centers.size, edges.size)
    x = a * math.sqrt(0.5)  # ndtr's own scaling, so the tail test is its own
    flat = ((x >= _Z_ZERO).all(axis=2) | (x <= -_Z_ZERO).all(axis=2)).all(axis=1)
    reach = np.flatnonzero(~flat)
    out = np.zeros((centers.size, edges.size - 1))
    for row, cdf in zip(reach, ndtr(a[reach])):
        out += cdf[:, :-1] - cdf[:, 1:] if row % 2 else cdf[:, 1:] - cdf[:, :-1]
    return np.maximum(out, 0.0)


def _bin_mass_rows(t: Tables, x: np.ndarray, k: int) -> np.ndarray:
    """``_folded_bin_masses`` over k bins of sorted distinct positions x of t's geometry.

    The rows of the positions seen so far are kept in ``t.bin_rows[k]``,
    sorted by position.  Each row depends only on its own position, so a
    row computed once is the row every later call would compute, bit for
    bit.
    """
    known, rows = t.bin_rows.get(k, (np.empty(0), np.empty((0, k))))
    at = np.searchsorted(known, x)
    new = x[known.take(at, mode="clip") != x] if known.size else x
    if new.size:
        where = np.searchsorted(known, new)
        s, L = math.sqrt(t.params.w**2), t.params.L
        new_rows = _folded_bin_masses(new, s, np.linspace(0.0, L, k + 1), L)
        known = np.insert(known, where, new)
        rows = np.insert(rows, where, new_rows, axis=0)
        t.bin_rows[k] = known, rows
        at = np.searchsorted(known, x)
    return rows.take(at, axis=0)


def _coarse_histograms(t: Tables, x: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """Bin-major densities over k equal bins of [0, L] (no finer than w) of each
    column of masses m at positions x of t's geometry, each renormalized to sum
    1; sums in position, then bin order."""
    h = _in_order(m[:, None, :] * _bin_mass_rows(t, x, k)[:, :, None])
    return h / _in_order(h)


def _entropy_tv(h: np.ndarray):
    """Shannon entropy -sum h ln h, in nats, and the total-variation distance to
    uniform of each column of bin-major density vectors h; sums in bin order."""
    h_ln_h = h * np.log(np.where(h > 0, h, 1.0))
    return -_in_order(h_ln_h), 0.5 * _in_order(np.abs(h - 1.0 / h.shape[0]))


# ---------------------------------------------------------------------------
# diffusion fit


def fit_diffusion(series: VarianceSeries) -> DiffusionEstimate:
    """Least-squares fit of var(t) = 2 D t + c.

    Returns the slope-derived diffusion constant, its standard error from
    the fit residuals, and the intercept.  The caller is responsible for
    restricting the series to the pre-wall regime (var well below L^2);
    the fit itself only demands enough samples for a meaningful residual.
    """
    if len(series) < 10:
        raise ValueError(f"need at least 10 samples to fit, got {len(series)}")
    t = np.asarray(series.times, float)
    v = np.asarray(series.variances, float)
    if t[-1] - t[0] <= 0:
        raise ValueError("degenerate time span")
    x = 2.0 * t
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ v) / sxx
    intercept = float(v.mean() - slope * x.mean())
    resid = v - (slope * x + intercept)
    s2 = float(resid @ resid) / (len(series) - 2)
    return DiffusionEstimate(
        diffusion=slope,
        stderr=math.sqrt(s2 / sxx),
        intercept=intercept,
        n_samples=len(series),
    )


# ---------------------------------------------------------------------------
# frequency tests


def pool_small_cells(
    observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0
) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent cells until every expected count reaches the floor.

    The Pearson test is only calibrated when all expected counts are
    moderately large; tails of a discretized Gaussian violate that.
    The cell with the smallest expected count is merged into its smaller
    adjacent neighbor (ties toward the left) until the floor holds or
    two cells remain.  Assumes the natural cell order is meaningful
    (adjacent bins), which is true for all histograms here.

    Cells sit in a doubly linked list and a min-heap keyed on (expected
    count, original index) finds the next one to merge; a merged cell
    keeps its original index, so that key breaks ties to the left.  Heap
    entries left behind by a merge are skipped when popped.  O(n log n).
    """
    obs = [float(o) for o in np.asarray(observed, float)]
    exp = [float(x) for x in np.asarray(expected, float)]
    n = len(obs)
    if n != len(exp) or n < 2:
        raise ValueError("need matching observed/expected with >= 2 cells")
    if not all(math.isfinite(v) for v in obs + exp):
        raise ValueError("observed and expected must be finite")
    n_total = sum(obs)
    left = list(range(-1, n - 1))
    right = list(range(1, n + 1))
    right[-1] = -1
    alive = [True] * n
    heap = [(x * n_total, i) for i, x in enumerate(exp)]
    heapq.heapify(heap)
    cells = n
    while cells > 2:
        scaled, i = heapq.heappop(heap)
        if not alive[i] or scaled != exp[i] * n_total:
            continue
        if scaled >= min_expected:
            break
        lo, hi = left[i], right[i]
        if lo < 0:
            j = hi
        elif hi < 0:
            j = lo
        else:
            j = lo if exp[lo] <= exp[hi] else hi
        obs[j] += obs[i]
        exp[j] += exp[i]
        alive[i] = False
        if lo >= 0:
            right[lo] = hi
        if hi >= 0:
            left[hi] = lo
        cells -= 1
        heapq.heappush(heap, (exp[j] * n_total, j))
    keep = [i for i in range(n) if alive[i]]
    return np.array([obs[i] for i in keep]), np.array([exp[i] for i in keep])


def chi_square_frequencies(
    observed: np.ndarray, expected: np.ndarray, alpha: float = 0.001
) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against expected probabilities.

    Refuses to run outside its validity regime (every expected count must
    be at least 5); probabilities must be positive and sum to 1.  Passes
    iff the statistic is below the (1 - alpha) chi-square quantile at
    cells - 1 degrees of freedom.
    """
    obs = np.asarray(observed, float)
    exp = np.asarray(expected, float)
    if obs.shape != exp.shape or obs.ndim != 1 or obs.size < 2:
        raise ValueError("observed and expected must be matching 1-d vectors, >= 2 cells")
    if np.any(obs < 0) or not np.all(np.isfinite(obs)):
        raise ValueError("observed counts must be finite and >= 0")
    if np.any(exp <= 0) or abs(exp.sum() - 1.0) > 1e-9:
        raise ValueError("expected probabilities must be > 0 and sum to 1 within 1e-9")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n_total = obs.sum()
    scaled = exp * n_total
    if scaled.min() < 5.0 - 1e-12:
        raise ValueError(
            f"smallest expected count {scaled.min():.3g} is below 5; "
            "pool cells (pool_small_cells) before testing"
        )
    statistic = float(((obs - scaled) ** 2 / scaled).sum())
    dof = obs.size - 1
    # the chi-square quantile as scipy.stats.chi2.ppf computes it, bit for
    # bit; scipy.special loads on first use here (a born_test config loads it
    # when validated), and scipy.stats is never imported
    threshold = float(2.0 * scipy.special.gammaincinv(dof / 2, 1.0 - alpha))
    return ChiSquareResult(
        statistic=statistic, dof=dof, threshold=threshold,
        alpha=alpha, passed=bool(statistic < threshold),
    )


# ---------------------------------------------------------------------------
# collapse trajectories vs ensemble


def position_value(center: np.ndarray, variance: float) -> np.ndarray:
    """Per-branch expectation of x."""
    return np.asarray(center, float)


def position_square(center: np.ndarray, variance: float) -> np.ndarray:
    """Per-branch expectation of x^2 (center squared plus packet variance)."""
    return np.asarray(center, float) ** 2 + variance


def sample_branch_centers(e: Ensemble, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n branch centers with probability proportional to branch mass."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    idx = rng.choice(e.n_branches, size=n, p=e.weight / e.mass_total[0])
    return e.center[idx]


def expectation_compare(
    trajectories: CollapseBatch,
    reference: Ensemble,
    observable: Callable[[np.ndarray, float], np.ndarray] = position_value,
) -> ExpectationComparison:
    """z-score of a per-branch observable: collapse runs vs full ensemble.

    Pruning to a single branch with Born-weight selection must leave
    every expectation unchanged, so the trajectory mean should sit within
    sampling error of the ensemble expectation.  A zero-spread trajectory
    set with a displaced mean (a deterministic, biased pruning rule)
    yields an infinite z-score rather than an error.
    """
    if trajectories.n_steps < 0 or trajectories.center.size < 2:
        raise ValueError("need at least 2 trajectories")
    if abs(trajectories.time - reference.time) > 1e-9 * max(1.0, abs(reference.time)):
        raise ValueError(
            f"trajectory time {trajectories.time} does not match "
            f"reference ensemble time {reference.time}"
        )
    values = np.asarray(observable(trajectories.center, trajectories.variance), float)
    m = values.size
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(m))
    ref_vals = np.asarray(observable(reference.center, reference.variance), float)
    ref_mean = float((reference.weight / reference.mass_total[0]) @ ref_vals)
    if sem == 0.0:
        z = 0.0 if mean == ref_mean else math.copysign(math.inf, mean - ref_mean)
    else:
        z = (mean - ref_mean) / sem
    return ExpectationComparison(
        z_score=float(z), trajectory_mean=mean, trajectory_sem=sem,
        reference_mean=ref_mean, n_trajectories=m,
    )
