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

The checks (diffusion fit, chi-square frequency test, two-sample KS test,
collapse-vs-ensemble z-scores) are deliberately plain: ordinary least
squares, Pearson statistics and scipy's exact KS path, with validity
preconditions enforced rather than silently waived.
"""

from __future__ import annotations

import heapq
import importlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .branching import CollapseBatch, Ensemble, Tables
from .model import _Z_ZERO, ndtr

# scipy's lazy namespace alone, which loads none of its subpackages: nothing
# here reads it; bench/worker.py reads its version from sys.modules, and this
# can go once that read tolerates its absence
importlib.import_module("scipy")

__all__ = [
    "DiffusionEstimate",
    "ChiSquareResult",
    "ExpectationComparison",
    "effective_branch_count",
    "fit_diffusion",
    "chi_square_frequencies",
    "chi_square_quantile",
    "KSResult",
    "ks_two_sample",
    "pool_small_cells",
    "sample_branch_centers",
    "expectation_compare",
    "position_value",
    "position_square",
]


# ---------------------------------------------------------------------------
# result types


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
class KSResult:
    statistic: float
    pvalue: float


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


def fit_diffusion(times: np.ndarray, variances: np.ndarray) -> DiffusionEstimate:
    """Least-squares fit of var(t) = 2 D t + c to per-step (time, variance) samples.

    Returns the slope-derived diffusion constant, its standard error from
    the fit residuals, and the intercept.  The caller is responsible for
    restricting the series to the pre-wall regime (var well below L^2);
    the fit demands at least 10 samples, for a meaningful residual, at
    strictly increasing times, with finite variances > 0.
    """
    t = np.asarray(times, float)
    v = np.asarray(variances, float)
    if t.ndim != 1 or v.shape != t.shape:
        raise ValueError("times and variances must be matching 1-d arrays")
    if t.size < 10:
        raise ValueError(f"need at least 10 samples to fit, got {t.size}")
    if not np.all(np.diff(t) > 0):
        raise ValueError("sample times must be strictly increasing")
    if not (np.all(np.isfinite(v)) and np.all(v > 0)):
        raise ValueError("variances must be finite and > 0")
    x = 2.0 * t
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ v) / sxx
    intercept = float(v.mean() - slope * x.mean())
    resid = v - (slope * x + intercept)
    s2 = float(resid @ resid) / (t.size - 2)
    return DiffusionEstimate(
        diffusion=slope,
        stderr=math.sqrt(s2 / sxx),
        intercept=intercept,
        n_samples=t.size,
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
    cells - 1 degrees of freedom (``chi_square_quantile``: alpha in (0, 1/2]).
    """
    obs = np.asarray(observed, float)
    exp = np.asarray(expected, float)
    if obs.shape != exp.shape or obs.ndim != 1 or obs.size < 2:
        raise ValueError("observed and expected must be matching 1-d vectors, >= 2 cells")
    if np.any(obs < 0) or not np.all(np.isfinite(obs)):
        raise ValueError("observed counts must be finite and >= 0")
    if np.any(exp <= 0) or abs(exp.sum() - 1.0) > 1e-9:
        raise ValueError("expected probabilities must be > 0 and sum to 1 within 1e-9")
    n_total = obs.sum()
    scaled = exp * n_total
    if scaled.min() < 5.0 - 1e-12:
        raise ValueError(
            f"smallest expected count {scaled.min():.3g} is below 5; "
            "pool cells (pool_small_cells) before testing"
        )
    statistic = float(((obs - scaled) ** 2 / scaled).sum())
    dof = obs.size - 1
    threshold = chi_square_quantile(dof, alpha)
    return ChiSquareResult(
        statistic=statistic, dof=dof, threshold=threshold,
        alpha=alpha, passed=bool(statistic < threshold),
    )


# Stirling's series for mu(a) = ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi)/2),
# in powers of 1/a^2 (B_2n / (2n (2n - 1))); from a = 10 on the first omitted
# term is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log_gamma_kernel(a: float, y: float) -> float:
    """ln(y^a e^-y / Gamma(a)) for a, y > 0, without the cancellation of its
    three large logs: a ln(y/a) + a - y is -a (d - ln(1 + d)) at d = (y - a)/a,
    and Gamma(a) is Stirling's form times e^mu(a)."""
    if a >= 10.0:
        r = 1.0 / (a * a)
        mu = 0.0
        for c in reversed(_STIRLING):
            mu = mu * r + c
        mu /= a
    else:
        mu = math.lgamma(a) - ((a - 0.5) * math.log(a) - a + 0.5 * math.log(2.0 * math.pi))
    d = (y - a) / a
    return -a * (d - math.log1p(d)) + 0.5 * math.log(a / (2.0 * math.pi)) - mu


def _chi_square_log_tail(x: float, dof: int) -> tuple[float, float]:
    """(ln Q, ln f): the upper tail Q = P(chi^2_dof > x) and the density f at x > 0.

    At integer dof the tail is a finite sum (Abramowitz & Stegun 26.4.4-5).
    With a = dof/2 and y = x/2, Q = sum_j e^-y y^j / Gamma(j + 1) over
    j = a - 1, a - 2, ... down to 0 (even dof, a Poisson sum) or 1/2 (odd dof,
    plus 2 ndtr(-sqrt x)).  The first term is 2 f; each next is j/y times the
    one before, so the sum is taken in log space from the first term's log.
    """
    a, y = 0.5 * dof, 0.5 * x
    log_first = _log_gamma_kernel(a, y) - math.log(y)
    log_f = log_first - math.log(2.0)
    normal = 2.0 * float(ndtr(-math.sqrt(x))) if dof % 2 else 0.0
    if dof == 1:  # no series: the normal tail alone, -inf once it underflows
        return (math.log(normal) if normal > 0 else -math.inf), log_f
    c = np.concatenate(([0.0], np.cumsum(np.log((a - np.arange(1.0, dof // 2)) / y))))
    top = float(c.max())
    log_sum = log_first + top + math.log(float(np.exp(c - top).sum()))
    return (math.log(normal + math.exp(log_sum)) if normal else log_sum), log_f


def chi_square_quantile(dof: int, alpha: float) -> float:
    """The (1 - alpha) quantile of the chi-square distribution at integer dof.

    Solves Q(x) = 1 - (1 - alpha), the upper tail at the double 1 - alpha, as
    ``scipy.stats.chi2.ppf(1 - alpha, dof)`` reads it, by Newton's method on
    ln Q from the Wilson-Hilferty start, kept inside a bracket that every
    step shrinks (a step leaving it bisects instead).  Within 16 ulps of the
    exact quantile below 400 dof and 40 ulps up to 2000, the bounds
    ``tests/test_stats.py`` holds it to; not bit-equal to scipy's, which is
    itself up to 28 ulps from it.  Refuses a dof that is not a positive
    integer, and alpha outside (0, 1/2] or so small that 1 - alpha rounds to 1.
    """
    if isinstance(dof, bool) or not isinstance(dof, numbers.Integral) or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    if not (0 < alpha <= 0.5):
        # above 1/2 the tail is near 1, where Q loses the digits of 1 - alpha
        raise ValueError(f"alpha must be in (0, 1/2], got {alpha}")
    if 1.0 - alpha == 1.0:
        raise ValueError(f"alpha {alpha} rounds 1 - alpha to 1: the quantile is infinite")
    dof = int(dof)
    log_q = math.log(1.0 - (1.0 - alpha))
    # the normal quantile of the upper tail, within 4.5e-4 (A&S 26.2.23)
    t = math.sqrt(-2.0 * math.log(alpha))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    v = 2.0 / (9.0 * dof)
    x = dof * (1.0 - v + z * math.sqrt(v)) ** 3
    lo, hi = 0.0, math.inf
    for _ in range(200):
        log_tail, log_f = _chi_square_log_tail(x, dof)
        if log_tail > log_q:
            lo = x
        else:
            hi = x
        step = (log_tail - log_q) * math.exp(log_tail - log_f)
        if abs(step) <= 4.0 * np.finfo(float).eps * x:
            return x + step
        x += step
        if not lo < x < hi:  # only ever left of the root, where Q > q: bisect
            x = 0.5 * (lo + hi)
    raise ArithmeticError(f"chi-square quantile did not converge at dof {dof}, alpha {alpha}")


# ---------------------------------------------------------------------------
# two-sample test


def ks_two_sample(data1, data2, alternative: str = "two-sided") -> KSResult:
    """Two-sample Kolmogorov-Smirnov test of equal-size samples, exact p-value.

    A port of the one path of ``scipy.stats.ks_2samp`` (scipy's
    ``stats/_stats_py.py``) that two-sided tests of equal sizes n <= 10^4
    take, term for term, so statistic and p-value are scipy's bit for bit.
    The gap between the empirical CDFs is read at every point of both sorted
    samples (``searchsorted(..., "right")``, so ties count whole); D is the
    larger one-sided gap.  With h = round(D n), the statistic is
    h/n and the p-value P(D_{n,n} >= h/n) is the share of lattice paths that
    leave the band |x - y| < h, 1 at h = 0, after Hodges (1958): an
    alternating sum of binomial ratios in a Horner-like product.

    Raises ValueError wherever scipy would take another path or return NaN:
    unequal or empty samples, n > 10^4 (its asymptotic form), a one-sided
    alternative, a NaN in either sample, or a p-value the product rounds
    outside [0, 1].
    """
    if alternative != "two-sided":
        raise ValueError(f"only the two-sided test is ported, got alternative={alternative!r}")
    a, b = np.sort(np.asarray(data1, float)), np.sort(np.asarray(data2, float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"need two 1-d samples of one size, got shapes {a.shape} and {b.shape}")
    n = a.size
    if not 1 <= n <= 10_000:
        raise ValueError(f"the exact path needs 1 <= n <= 10000 points per sample, got {n}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("samples must not contain NaN")
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") / n - np.searchsorted(b, both, side="right") / n
    # both one-sided gaps are >= 0: past the last point both CDFs read 1
    h = int(np.round(max(-gap.min(), gap.max()) * n))
    if h == 0:
        return KSResult(statistic=0.0, pvalue=1.0)
    # p = 2 A_0 (1 - A_1 (1 - A_2 (1 - ...))), A_k = binom(2n, n - (k+1) h) / binom(2n, n - k h)
    p = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
    p = 2 * p
    if not 0 <= p <= 1:
        raise ValueError(f"the exact p-value rounds to {p} at n = {n}, h = {h}")
    return KSResult(statistic=h / n, pvalue=p)


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
    if trajectories.center.size < 2:
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
