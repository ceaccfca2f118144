"""Tagged branching engine.

Every decoherence event splits a spread packet into localized offspring,
one per lattice bin of the center-offset distribution.  Each offspring
carries a tag, a 64-bit lineage hash that names one live branch: the
parent's first surviving offspring keeps the parent's tag, and each
further one gets a fresh tag hashing (event time, offspring index) into
the parent's, so a tag changes only where its lineage splits.  Offsets
are binned relative to the parent, so all parents share one offset
kernel of integer lattice steps whatever their positions.  Tags are what
make branches permanently distinguishable: two components with different
lineages never interfere again, no matter where their packets sit.

Collapse is not a second dynamics: it is the same step capped at one
branch, whose single probe keeps one offspring with probability equal to
its Born weight (the runner passes that cap for ``mode = collapse``).  A
mass is int64 exactly when it is a count (born_test's leaves, each
holding its ``apportion_counts`` share of the parent's count, or the
probe hits of an ensemble the cap K produced, out of K), and a float64
Born weight otherwise; the engine evolves both.  Past the cap each
parent g thus holds an integer multiplicity h_g, and gets exactly h_g of
the next step's probes.

The engine is a free integer walk.  An ensemble is a time, its physical
parameters, one float origin and flat per-branch arrays: an int64
unfolded lattice offset (site), a mass and a 64-bit lineage hash.  A
branch's packet has width w (each event resets it) and sits at
``reflect_center(origin + site * w/2, L)``: the walls enter by the
method of images, folded in only where an observable reads a position.
The offset kernel is symmetric, so the folded free walk is the walk
reflected at the walls.  The hash does not encode every event of a
branch's ancestry, only the splits that made it distinct from its
siblings, which is enough for uniqueness checks and no-recoherence
bookkeeping without O(depth) memory per branch.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from .model import TRUNCATION_SIGMAS, PhysicalParams, bin_weight_rows, reflect_center
from .rng import (
    GAMMA,
    KEY_CAP,
    KEY_PRUNE,
    KEY_TIMING,
    _last_round,
    _rounds,
    _unit_interval,
    lineage_hash_child,
    lineage_hash_root,
    mix,
    step_keys,
    unit_uniform,
)

__all__ = [
    "MODES",
    "Ensemble",
    "TagReport",
    "CollapseBatch",
    "apportion_counts",
    "evolve_ensemble_step",
    "evolve_ensemble_steps",
    "verify_tag_uniqueness",
    "midbox_ensemble",
    "run_collapse_trajectories",
    "trajectory_seed",
]

MODES = ("weighted", "count", "collapse")


@dataclass(frozen=True)
class TagReport:
    passed: bool
    n_branches: int
    message: str
    duplicate_indices: tuple[int, int] | None = None


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class Ensemble:
    """Array-backed set of branches sharing a common time and parameters.

    Branch b sits at the unfolded lattice offset ``site[b]`` from
    ``origin``; ``center`` folds it into the box.  ``weight`` is the
    branch mass: int64 counts, each at least 1 (born_test's leaves, and a
    cap's hits, whose sum is the cap), or float64 Born weights above 0
    summing to 1 within 1e-12.  ``next_uid`` counts the implicit offspring
    rows the run's steps have generated so far (read by bench/tracing.py).
    ``tables`` are the run's (``Tables``).
    """

    time: float
    site: np.ndarray
    origin: float
    params: PhysicalParams
    weight: np.ndarray
    lineage_hash: np.ndarray
    next_uid: int = 0
    tables: Tables | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.site.shape[0]
        if n < 1:
            raise ValueError("ensemble must contain at least one branch")
        for name in ("weight", "lineage_hash"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"array '{name}' length mismatch")
        if self.site.dtype != np.int64:
            raise ValueError("branch sites must be int64 lattice offsets")
        if not math.isfinite(self.origin):
            raise ValueError("the lattice origin must be finite")
        if self.weight.dtype == np.int64:
            if self.weight.min() < 1:
                raise ValueError("branch counts must be >= 1")
        elif self.weight.dtype != np.float64:
            raise ValueError("masses must be int64 counts or float64 weights")
        elif not self.weight.min() > 0:
            raise ValueError("branch weights must be > 0")
        elif abs(self.weight.sum() - 1.0) > 1e-12:
            total = float(self.weight.sum())
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        t = self.tables
        if t is None or t.origin != self.origin or t.params != self.params:
            object.__setattr__(self, "tables", Tables(self.origin, self.params))

    @property
    def n_branches(self) -> int:
        return self.site.shape[0]

    @property
    def variance(self) -> float:
        """Packet variance of every branch: each event resets it to w^2."""
        return self.params.w**2

    @property
    def center(self) -> np.ndarray:
        """Branch positions in [0, L]."""
        return self.tables.position(self.site)

    @functools.cached_property
    def mass_total(self) -> tuple:
        """(total mass, whether the masses are exact counts, whether every mass is 1).

        Counts summing below 2**31 are exact: they count per site exactly in
        float64, and their squares sum exactly in int64, as (2**31)**2 = 2**62.
        Each count is at least 1, so counts totalling n are all 1.
        """
        w = self.weight
        total = w.sum()
        counts = w.dtype == np.int64
        return total, counts and total < 1 << 31, counts and total == w.size

    def masses(self) -> np.ndarray:
        """``weight``, the mass per branch; an alias kept for ``bench/tracing.py``."""
        return self.weight

    def _moved(self, time: float, site: np.ndarray, next_uid: int) -> Ensemble:
        """These branches at ``time`` on ``site``: a steady step's child, which shares
        the masses and tags (and their ``mass_total``) and skips the checks they passed."""
        child = object.__new__(Ensemble)
        vars(child).update(vars(self), time=time, site=site, next_uid=next_uid)
        return child


class Tables:
    """Lookup tables of one run geometry (origin, parameters), grown as the run reads them.

    A run's ensembles share one: each step passes its parent's on, and an
    ensemble built without it, or with another geometry's, gets a fresh one.
    Every entry is what a fresh computation gives, bit for bit.  ``bin_rows``
    holds, per bin count, the sorted positions seen and their folded bin
    masses (``stats._bin_mass_rows``).  ``kernel`` holds one period's offset
    kernel, the run's one under deterministic timing; Poisson steps build
    theirs a block at a time (``_Schedule``) and keep none.
    """

    def __init__(self, origin: float, params: PhysicalParams):
        self.origin, self.params = origin, params
        self.bin_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._seen = (math.inf, -math.inf)  # the extent of the sites folded so far
        self._fold = (0, None, np.empty(0, np.intp))
        self._kernel_key = self._kernel = None
        self._ladder = np.empty(0, np.uint64)

    def position(self, site: np.ndarray) -> np.ndarray:
        """Positions in [0, L] of unfolded sites: the walls folded in by images."""
        return reflect_center(self.origin + site * self.params.bin_width(), self.params.L)

    def fold(self, lo: int, stop: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(first site, distinct positions, each site's index) of a range over lo .. stop-1.

        When a row's sites leave the range, it is rebuilt over every site seen
        so far, grown by half that width on each side: walks drift.
        """
        first, _, which = self._fold
        if lo < first or stop > first + which.size:
            lo, stop = min(lo, self._seen[0]), max(stop, self._seen[1])
            self._seen = lo, stop
            pad = (stop - lo) // 2
            sites = np.arange(lo - pad, stop + pad, dtype=np.int64)
            self._fold = (lo - pad, *np.unique(self.position(sites), return_inverse=True))
        return self._fold

    def kernel(self, dt: float, n_probes: int):
        """(lattice steps, Born weights, CDF) of ``_offset_kernels``' one row at period
        dt, and its ``_cdf_index`` for n_probes probes; kept while (dt, n_probes) repeats."""
        if self._kernel_key != (dt, n_probes):
            first, size, kern, cdf = _offset_kernels(np.array([dt]), self.params)
            n = size[0]
            self._kernel = (first[0] + np.arange(n), kern[0, :n], cdf[0, :n],
                            _cdf_index(cdf[0, :n], n_probes))
            self._kernel_key = dt, n_probes
        return self._kernel

    def ladder(self, k: int) -> np.ndarray:
        """(j + 1) * GAMMA for j = 0 .. k-1, splitmix64's stream offsets; kept while k repeats."""
        if self._ladder.size != k:
            self._ladder = np.arange(1, k + 1, dtype=np.uint64) * GAMMA
        return self._ladder


def _midbox_site(p: PhysicalParams) -> int:
    """Site of L/2 snapped to the offspring lattice anchored at origin 0."""
    return round((p.L / 2.0) / p.bin_width())


def midbox_ensemble(
    p: PhysicalParams,
    mode: str = "weighted",
    *,
    multiplicity: int | None = None,
    center: float | None = None,
) -> Ensemble:
    """Single fresh packet at (or near) the box center.

    The default center is L/2 snapped to the offspring lattice anchored
    at 0.  Pass ``center`` to start elsewhere (it is used as given, not
    snapped).  ``mode`` picks only the mass type: a ``count`` packet holds
    ``multiplicity`` units (default 1) as its int64 mass; the other modes
    hold weight 1.0 and no multiplicity.
    """
    if multiplicity is not None and mode != "count":
        raise ValueError(f"multiplicity applies to count mode only, not {mode}")
    count = 1 if multiplicity is None else multiplicity
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"multiplicity must be an integer >= 1, got {multiplicity!r}")
    origin, site = (0.0, _midbox_site(p)) if center is None else (float(center), 0)
    return Ensemble(
        time=0.0, site=np.array([site], np.int64), origin=origin, params=p,
        weight=np.array([count], np.int64 if mode == "count" else float),
        lineage_hash=lineage_hash_root(np.zeros(1, np.uint64)),
    )


# ---------------------------------------------------------------------------
# apportionment


def apportion_counts(weights, total: int) -> np.ndarray:
    """Largest-remainder rounding of ``weights * total`` to integer counts.

    Counts are floor(w_i * total) plus one unit for the largest
    fractional remainders until the sum reaches ``total``; remainder ties
    break toward the lower index.  Guarantees |count_i - w_i*total| < 1
    and an exact total.
    """
    w = np.asarray(weights, float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and >= 0")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 within 1e-9, got {w.sum()!r}")
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    scaled = w * float(total)
    counts = np.floor(scaled).astype(np.int64)
    leftover = int(total - counts.sum())
    remainders = scaled - counts
    order = np.lexsort((np.arange(w.size), -remainders))
    if leftover > 0:
        counts[order[:leftover]] += 1
    elif leftover < 0:
        # float roundoff at totals near 2**53 can overshoot the floors;
        # claw units back from the least-entitled nonzero cells
        for i in order[::-1]:
            take = min(int(counts[i]), -leftover)
            counts[i] -= take
            leftover += take
            if leftover == 0:
                break
    return counts


# ---------------------------------------------------------------------------
# capping


_MAX_BUCKETS = 4096


def _cdf_index(cdf: np.ndarray, n_probes: int) -> np.ndarray:
    """Bucket table of a CDF ending at 1.0 for n probes, or one per row of CDFs:
    nb buckets, a power of two in (n/8, n/4], at least 1 and at most 4096
    (at 2000 probes a Poisson kernel's 256 buckets send about 3% of the
    probes to the search, 64 buckets about 11%).

    Bucket q holds the probes x in [q/nb, (q+1)/nb), so floor(x * nb) is
    exact; q = nb holds x = 1.0 alone.  A bucket that no CDF entry falls
    in answers each of its probes with the number of entries below q/nb;
    the others hold the sentinel -1, and their probes are searched.  An
    entry c is below q/nb exactly when floor(c * nb) < q, so each row's
    entries are counted per bucket; the 1.0 entries padding a row all
    fall in bucket nb, which always holds the row's last entry.
    """
    nb = min(_MAX_BUCKETS, 1 << max(n_probes.bit_length() - 3, 0))
    rows = cdf.reshape(-1, cdf.shape[-1])
    q = np.multiply(rows, nb, out=np.empty(rows.shape, np.int64), casting="unsafe")
    q += (nb + 1) * np.arange(rows.shape[0])[:, None]
    count = np.bincount(q.ravel(), minlength=rows.shape[0] * (nb + 1)).reshape(-1, nb + 1)
    below = np.cumsum(count, axis=1)
    below -= count
    return np.where(count == 0, below, -1).reshape(cdf.shape[:-1] + (nb + 1,))


def _cdf_search(cdf: np.ndarray, probe: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, probe, "left")`` for probes in (0, 1] through ``_cdf_index``'s table.

    One gather answers the probes of buckets that hold no CDF entry; the
    few in buckets that do are searched.  With a 2-d ``cdf`` and
    ``index``, row r of ``probe`` is looked up on CDF row r.
    """
    nb = index.shape[-1] - 1
    q = np.multiply(probe, nb, out=np.empty(probe.shape, np.int64), casting="unsafe")
    return _bucket_search(cdf, index, q, probe.reshape(-1).take)


def _bucket_search(cdf: np.ndarray, index: np.ndarray, q: np.ndarray, probes) -> np.ndarray:
    """``_cdf_search`` from each probe's bucket q, floor(probe * nb); ``probes(i)`` gives
    the probes at flat positions i, asked for those in buckets holding an entry."""
    if index.ndim > 1:
        q += np.arange(0, index.size, index.shape[-1])[:, None]
    out = index.take(q)
    flat = out.reshape(-1)
    miss = np.flatnonzero(flat < 0)
    if not miss.size:
        return out
    u = probes(miss)
    if cdf.ndim == 1:
        flat[miss] = np.searchsorted(cdf, u, side="left")
        return out
    cut = np.searchsorted(miss, np.arange(0, flat.size + 1, q.shape[-1])).tolist()
    for row, a, b in zip(cdf, cut, cut[1:]):
        flat[miss[a:b]] = np.searchsorted(row, u[a:b], side="left")
    return out


def _are_multiplicities(mass: np.ndarray, k: int) -> bool:
    """Whether masses are integer multiplicities of k probes: int64, summing to k."""
    return mass.dtype == np.int64 and mass.sum() == k


def _probe_cells(mass: np.ndarray, u: np.ndarray):
    """First level: (cell of each probe, probes per cell, fraction through its cell).

    Probe j sits at (u[j] + j) / K of the total mass.  Integer masses >= 1
    summing to K are multiplicities: cell g then holds exactly probes
    H[g-1] .. H[g]-1 (H the integer cumsum), probe j's fraction is
    (u[j] + j - H[g-1]) / mass[g], and when every mass is 1 probe j is
    cell j's with fraction u[j].  Other masses are searched: a cell holds
    the probes in (edge[g], edge[g + 1]] of the normalised float cumsum.
    Either way the fraction lies in (0, 1].
    """
    k = u.size
    if _are_multiplicities(mass, k):
        cell = np.repeat(np.arange(mass.size), mass)
        frac = np.arange(k, dtype=float)
        frac -= (np.cumsum(mass) - mass)[cell]
        frac += u
        frac /= mass[cell]
        return cell, mass, frac
    edge = np.concatenate(([0.0], np.cumsum(mass)))
    edge /= edge[-1]
    pos = np.arange(k, dtype=float)
    pos += u
    pos /= k
    # every probe lies above edge[0] = 0 and at or below edge[-1] = 1
    per_cell = np.diff(np.searchsorted(pos, edge[1:-1], "right"), prepend=0, append=k)
    cell = np.repeat(np.arange(per_cell.size), per_cell)
    pos -= edge[cell]
    pos /= np.diff(edge)[cell]
    return cell, per_cell, pos


def _hit_runs(cell: np.ndarray, row: np.ndarray, per_cell: np.ndarray):
    """(cell, row) of each distinct row the sorted probes hit, and its hits."""
    if per_cell.max() <= 1:
        # no two probes share a cell, let alone a row
        return cell, row, np.ones(cell.size, np.int64)
    first = np.flatnonzero(np.concatenate(
        ([True], (cell[1:] != cell[:-1]) | (row[1:] != row[:-1]))
    ))
    return cell[first], row[first], np.diff(first, append=cell.size)


def _shared_kernel_hits(cdf: np.ndarray, index, u: np.ndarray, parent_mass: np.ndarray):
    """(parent g, bin b, hits) of the rows hit, sorted, among implicit rows of
    mass parent_mass[g] * kern[b]: ``_probe_cells``, then each fraction looked
    up on the shared kernel CDF and its bucket table; no array of all rows is built."""
    cell, per_cell, frac = _probe_cells(parent_mass, u)
    return _hit_runs(cell, _cdf_search(cdf, frac, index), per_cell)


def _cap_probe_phases(ladder: np.ndarray, step_key) -> np.ndarray:
    """Phases of probes 0 .. k-1, a splitmix64 stream per step key.

    Probe j's phase is ``unit_uniform((step_key ^ KEY_CAP) + j * GAMMA)``:
    the key added onto the ladder (``Tables.ladder(k)``), whose offsets
    include splitmix64's own increment, then its rounds and the map to
    (0, 1), in place.  The phases must be independent: a shared phase
    (plain systematic resampling) locks equal-weight parents to the same
    offspring pick, and the ensemble stops mixing.
    """
    return _unit_interval(_rounds(ladder + (step_key ^ KEY_CAP)))


# ---------------------------------------------------------------------------
# evolution


def _offset_kernels(dt: np.ndarray, p: PhysicalParams):
    """(first lattice step, bin count, Born weights, CDF) of one event's offspring
    relative to the parent per period in ``dt``, as padded rows.

    A fresh packet of width w spreads for the period, and the spread
    beyond w is binned at the lattice pitch around 0 (``bin_weight_rows``):
    row i's bin b is the lattice step first[i] + b.  A spread that rounds
    to 0 (a period below about 1e-8 m w^2 / hbar) has not left the packet's
    bin: its row is one bin, at step 0, of weight 1.  Each CDF row is the
    cumulative sum of its weights divided by its last entry, so it ends at
    exactly 1, and so do its padded entries.
    """
    w2 = p.w**2
    # spread_variance's rounding on an array: x**2 is d * d there, not pow()
    d = dt * p.hbar / (p.m * math.sqrt(w2))
    spread = (w2 + d * d) - w2
    flat = spread == 0
    if flat.any():  # binned at w^2 in place of 0, then set to the one bin
        spread[flat] = w2
    first, size, kern = bin_weight_rows(0.0, spread, p.bin_width())
    if flat.any():
        first[flat], size[flat], kern[flat] = 0, 1, np.eye(1, kern.shape[1])
    cdf = np.cumsum(kern, axis=1)
    cdf /= cdf[:, -1:]
    return first, size, kern, cdf


def _offset_kernel(dt: float, p: PhysicalParams):
    """(lattice steps, Born weights) of one event's offspring at period dt:
    ``_offset_kernels``' one-row case."""
    first, size, kern, _ = _offset_kernels(np.array([dt]), p)
    return first[0] + np.arange(size[0]), kern[0, :size[0]]


# per-step work a block holds, in probes or kernel bins, and at most so many
# steps: 16 steps at cap 2000, one step from cap 2**15 on
_BLOCK_WORK = 2**15
_BLOCK_STEPS = 64


def _block_steps(p: PhysicalParams, cap: int) -> int:
    """Steps per block of a run at ``cap``: about 2**15 elements of per-step
    work, the cap's probes or the kernel's bins at one period (12 sigma over
    the pitch), whichever is more, and at most 64 steps, which bounds a
    block's padded kernel rows at small caps and wide kernels."""
    bins = 2 * TRUNCATION_SIGMAS * math.sqrt(p.delta2()) / p.bin_width()
    return max(1, min(_BLOCK_STEPS, int(_BLOCK_WORK // max(cap, bins))))


def _periods(key: np.ndarray, tau: float, timing: str) -> np.ndarray:
    """Each step's period from its key: tau, or under Poisson timing -tau ln(u)
    with u = ``unit_uniform(mix(key ^ KEY_TIMING))``, each logarithm
    ``math.log``'s (numpy's differs from it in the last bit on some inputs)."""
    if timing == "deterministic":
        return np.full(key.size, tau)
    u = unit_uniform(mix(key ^ KEY_TIMING))
    return -tau * np.array([math.log(x) for x in u.tolist()])


class _Schedule:
    """A block of steps known before any of them runs: keys, event times, kernels.

    Step k fires at the previous event time plus its period (``_periods``
    of its key), the times summed in step order.  Deterministic
    steps share the run's one kernel (``Tables.kernel``); Poisson steps get
    one row each of ``_offset_kernels``, built in one pass, and a bucket
    table only for the steps that probe.
    """

    def __init__(self, e: Ensemble, cap: int, key: np.ndarray, timing: str):
        p = e.params
        self.key, self.cap, self.shared = key, cap, timing == "deterministic"
        dt = _periods(key, p.tau, timing)
        if self.shared:
            step, self.kern, self.cdf, self.index = e.tables.kernel(p.tau, cap)
            self.first, self.size = np.full(key.size, step[0]), np.full(key.size, step.size)
        else:
            self.first, self.size, self.kern, self.cdf = _offset_kernels(dt, p)
        self.time = list(accumulate(dt.tolist(), initial=e.time))[1:]

    def kernel(self, k: int) -> np.ndarray:
        """Born weights of step k's bins."""
        return self.kern if self.shared else self.kern[k, :self.size[k]]

    def lookup(self, k: int, stop: int | None = None):
        """(CDF, bucket table) of step k, or of steps k .. stop-1 as rows."""
        if self.shared:
            return self.cdf, self.index
        cdf = self.cdf[k] if stop is None else self.cdf[k:stop]
        return cdf, _cdf_index(cdf, self.cap)


def _steady(e: Ensemble, cap: int) -> bool:
    """Whether every multiplicity is 1 at the cap: each parent then keeps one
    row, on its own probe's bin, and so does every later step."""
    return e.n_branches == cap and e.mass_total[2]


def evolve_ensemble_steps(
    e: Ensemble, cap: int, keys: np.ndarray, *, timing: str = "deterministic",
) -> Iterator[Ensemble]:
    """Yield the ensembles after each decoherence period from ``e``, one per uint64
    key in ``keys`` (a run's are ``rng.step_keys(seed, arange(steps))``).

    Every branch spreads for the period, then decoheres into tagged
    offspring, and the branch count is capped with an unbiased
    stratified resample when it exceeds ``cap``, whatever the masses:
    Born weights or counts.  Collapse is that cap at one branch: its
    single probe keeps one offspring with probability equal to its Born
    weight.  A step's timing and capping are keyed off its key alone, so
    the same keys give the same bytes however the steps are blocked, and
    a run resumes at step k from its ensemble there and ``keys[k:]``.
    Every parent shares one offset kernel: offspring (parent, bin) sits at
    site site_parent + step_bin with mass w_parent * kern_bin, and no wall
    is applied.  Past the cap, each stratified probe finds its parent (by
    integer arithmetic when the parents' multiplicities sum to the cap),
    then its bin on the shared kernel CDF; only the survivors' rows are
    built, holding their hits.  So the capped step is bit-identical to
    materializing every offspring, then resampling them grouped by parent
    with the parents' masses as the group masses.  Among a parent's
    survivors, in probe order, the first keeps the parent's lineage hash
    and each further one on bin b gets ``lineage_hash_child(parent,
    t_event, b)``; where every parent keeps one survivor no hash is
    computed.  Under the cap offspring hold Born weights, but a one-bin
    kernel keeps integer masses.

    Schedule first: the steps run in blocks (``_block_steps``: 16 steps
    at cap 2000, one step from cap 2**15 up), each scheduled at once
    (``_Schedule``).  Until the ensemble is steady (``_steady``) it steps
    one step at a time; from then on the rest of each block is one walk
    (``_steady_walk``).  The checks run on the first step taken.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if timing not in ("deterministic", "poisson"):
        raise ValueError(f"unknown timing '{timing}'")
    if e.params.tau <= 0:
        raise ValueError("evolution requires tau > 0")
    block = _block_steps(e.params, cap)
    for start in range(0, keys.size, block):
        s = _Schedule(e, cap, keys[start:start + block], timing)
        for k in range(s.key.size):
            if _steady(e, cap):
                for e in _steady_walk(e, s, k):
                    yield e
                break
            e = _child(e, s, k, *_step_rows(e, cap, s, k))
            yield e


def evolve_ensemble_step(
    e: Ensemble,
    p: PhysicalParams,
    fanout: int,
    cap: int,
    rng: np.random.Generator,
    *,
    timing: str = "deterministic",
) -> Ensemble:
    """Advance an ensemble through one decoherence period: the one-step case of
    ``evolve_ensemble_steps``, on one key drawn from ``rng``.

    ``p`` must be the ensemble's own parameters, and ``fanout`` is
    validated but does not affect the step: they and the Generator stay
    in the signature because ``bench/worker.py`` passes them positionally.
    """
    if p != e.params:
        raise ValueError(f"parameters {p} differ from the ensemble's {e.params}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    key = rng.integers(0, 2**64, size=1, dtype=np.uint64)
    return next(evolve_ensemble_steps(e, cap, key, timing=timing))


def _child(e: Ensemble, s: _Schedule, k: int, pr, oi, weight) -> Ensemble:
    """The ensemble of step k of ``s`` from ``e``, given its survivors' (parent, bin, mass)."""
    t_event = s.time[k]
    # a tag changes only where its lineage splits: a parent's first survivor
    # keeps it, and each further survivor on bin b gets the child hash of b
    lineage = e.lineage_hash.take(pr)
    split = np.flatnonzero(pr[1:] == pr[:-1])
    if split.size:
        split += 1
        lineage[split] = lineage_hash_child(lineage[split], t_event, oi[split])
    # the child sites are built in the step's own array of bins
    child_site = oi
    child_site += e.site.take(pr)
    child_site += s.first[k]
    return Ensemble(
        time=t_event, site=child_site, origin=e.origin, params=e.params, weight=weight,
        lineage_hash=lineage, next_uid=e.next_uid + e.n_branches * int(s.size[k]),
        tables=e.tables,
    )


def _step_rows(e: Ensemble, cap: int, s: _Schedule, k: int):
    """The surviving offspring rows of step k of ``s`` from ``e``.

    Returns (parent g of each survivor, its bin b, its mass).  Under the
    cap every implicit row (g, b) survives; past it, the rows the probes
    hit, sorted, selected as (parent, bin) pairs without building the
    rows.  A steady ``e`` takes ``_steady_walk`` instead.
    """
    nk, n = int(s.size[k]), e.n_branches
    if n * nk <= cap:
        kern = s.kernel(k)
        mass = (e.weight[:, None] * kern[None, :]).ravel()
        # a one-bin kernel keeps integer multiplicities
        weight = e.weight if nk == 1 and e.weight.dtype == np.int64 else mass / mass.sum()
        return np.repeat(np.arange(n), nk), np.tile(np.arange(nk), n), weight
    u = _cap_probe_phases(e.tables.ladder(cap), s.key[k])
    return _shared_kernel_hits(*s.lookup(k), u, e.weight)


def _walk_bins(e: Ensemble, s: _Schedule, k: int, stop: int) -> np.ndarray:
    """Bins of steps k .. stop-1 of ``s`` from a steady ``e``, one row per step:
    probe g of a step is parent g's, at its own phase, looked up on the step's CDF.

    A steady probe's fraction is its phase (``_cap_probe_phases``), (m + 1/2)
    2**-52 for the top 52 bits m of its hash, so its bucket is the hash's top
    log2(nb) bits, read before splitmix64's last xor-shift, which keeps them.
    Only probes in buckets holding a CDF entry (1-3%) become phases.
    """
    z = _rounds(e.tables.ladder(e.n_branches) + (s.key[k:stop, None] ^ KEY_CAP), last=False)
    cdf, index = s.lookup(k, stop)
    bits = (index.shape[-1] - 1).bit_length() - 1  # log2(nb) of nb + 1 entries
    q = (z >> (64 - bits)).view(np.int64) if bits else np.zeros(z.shape, np.int64)
    return _bucket_search(cdf, index, q,
                          lambda miss: _unit_interval(_last_round(z.reshape(-1)[miss])))


def _steady_walk(e: Ensemble, s: _Schedule, k: int) -> Iterator[Ensemble]:
    """Yield the ensembles of steps k .. of ``s`` from a steady ``e``.

    Every parent keeps one survivor with its one hit and its tag, so only
    the sites move: each step adds its first lattice step and its bins to
    the previous step's sites, a running sum over the steps, exact in
    int64 (``Ensemble._moved``).
    """
    site = _walk_bins(e, s, k, s.key.size)
    site += s.first[k:, None]
    for row, t, nk in zip(site, s.time[k:], s.size[k:].tolist()):
        row += e.site
        e = e._moved(t, row, e.next_uid + e.n_branches * nk)
        yield e


# ---------------------------------------------------------------------------
# uniqueness


def verify_tag_uniqueness(e: Ensemble) -> TagReport:
    """Check that no two live branches share a lineage hash.

    Engine-built branches are unique by construction: only a parent's
    first survivor inherits its hash, and every other survivor gets a
    fresh hash of (parent hash, event time, offspring index).  The audit
    catches a hand-built duplicate.  A sort finds whether any hash
    repeats; only then does ``np.unique`` name the most repeated one (the
    smallest on ties) and its first two branches.
    """
    h, n = e.lineage_hash, e.n_branches
    s = np.sort(h)
    if (s[1:] == s[:-1]).any():
        _, first, counts = np.unique(h, return_index=True, return_counts=True)
        dup = h[first[np.argmax(counts)]]
        i, j = (int(k) for k in np.flatnonzero(h == dup)[:2])
        return TagReport(
            passed=False, n_branches=n,
            message=f"branches {i} and {j} share lineage hash {int(dup)}",
            duplicate_indices=(i, j),
        )
    return TagReport(passed=True, n_branches=n, message="all lineages distinct")


# ---------------------------------------------------------------------------
# collapse trajectories (batch)


@dataclass(frozen=True)
class CollapseBatch:
    """Final packets of many independent collapse runs (common schedule)."""

    time: float
    center: np.ndarray
    variance: float


def trajectory_seed(master_seed: int, index: int | np.ndarray):
    """Run seed of the ``index``-th collapse trajectory of a batch, as a uint64
    (an array of them for an array of indices)."""
    return mix(np.uint64(master_seed), KEY_PRUNE, index)


def run_collapse_trajectories(
    p: PhysicalParams,
    n_traj: int,
    steps: int,
    master_seed: int,
    *,
    select_rule: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> CollapseBatch:
    """Run many single-branch collapse histories in lockstep.

    Trajectory i is ``evolve_ensemble_steps`` at cap 1 under deterministic
    timing from ``midbox_ensemble(p, "collapse")``, over the step keys of
    its run seed ``trajectory_seed(master_seed, i)``, bit for bit.  Every
    trajectory shares the event schedule and offset kernel, so step k
    takes all their keys in one ``step_keys`` call and looks their probe
    phases up on the kernel CDF (``_cdf_search``), as a capped step does
    for one parent of weight 1; the sites are folded into the box once, by
    the ensemble's own rule.  ``select_rule`` replaces the Born-weighted
    survivor choice, for bias-detection tests.
    """
    if n_traj < 1 or steps < 0:
        raise ValueError("need n_traj >= 1 and steps >= 0")
    seeds = trajectory_seed(master_seed, np.arange(n_traj, dtype=np.uint64))
    start = midbox_ensemble(p, "collapse")
    site = np.full(n_traj, start.site[0])
    step, kern, cdf, index = start.tables.kernel(p.tau, n_traj)
    ladder = start.tables.ladder(1)
    t = 0.0
    for k in range(steps):
        t += p.tau
        u = _cap_probe_phases(ladder, step_keys(seeds, k))
        site += step[_cdf_search(cdf, u, index) if select_rule is None
                     else np.asarray(select_rule(kern, u))]
    return CollapseBatch(time=t, center=start.tables.position(site), variance=start.variance)


def _exact_chain(p: PhysicalParams, steps: int) -> Iterator[tuple[float, int, np.ndarray]]:
    """Yield (t, first site, masses on consecutive sites) after k = 0 .. steps steps.

    The chain is the free walk on the integers: each step convolves the
    site masses with the offset kernel and trims the tail sites whose
    mass has underflowed to 0.  Sites are unfolded offsets from
    ``midbox_ensemble(p)``'s origin 0, so the walls enter only when an
    observable folds the sites, which makes the chain exact in a box of
    any width.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    lo = _midbox_site(p)
    mass = np.ones(1)
    t = 0.0
    yield t, lo, mass
    if steps > 0:
        # bin_weights' bins are consecutive: kern[j] is the step step[0] + j
        step, kern = _offset_kernel(p.tau, p)
    for _ in range(steps):
        t += p.tau
        mass = np.convolve(mass, kern)
        nz = np.flatnonzero(mass)
        lo += int(step[0] + nz[0])
        mass = mass[nz[0]:nz[-1] + 1]
        yield t, lo, mass


def _site_ensemble(p: PhysicalParams, t: float, lo: int, mass: np.ndarray,
                   tables: Tables | None = None) -> Ensemble:
    """Weighted ensemble of one branch per site of a chain mass vector, in ``tables``
    if given: over an ``_exact_chain`` item, the exact uncapped ensemble."""
    n = mass.size
    return Ensemble(
        time=t, site=lo + np.arange(n, dtype=np.int64),
        origin=0.0, params=p, weight=mass / mass.sum(),
        lineage_hash=lineage_hash_root(np.arange(n, dtype=np.uint64)), tables=tables,
    )

