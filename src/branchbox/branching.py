"""Tagged branching engine.

Every decoherence event splits a spread packet into localized offspring,
one per lattice bin of the center-offset distribution, and stamps each
offspring with a tag recording (event time, offspring index) on top of
the parent's lineage.  Offsets are binned relative to the parent, so all
parents share one offset kernel whatever their centers; for a
lattice-aligned start in a box that is a whole number of bins wide the
centers themselves stay on a fixed lattice.  Tags are what make branches
permanently distinguishable: two components with different lineages
never interfere again, no matter where their packets sit.

``evolve_ensemble_step`` runs two ensemble modes:

* ``weighted``  - branches carry Born weights; the ensemble is the full
                  decoherent mixture.
* ``collapse``  - one surviving branch; each event is the weighted step
                  capped at one branch, which keeps one offspring with
                  probability equal to its Born weight.

A third mode, ``count``, carries integer multiplicities instead of
weights.  It exists only for born_test's single event, whose leaves get
``apportion_counts`` of the parent's multiplicity, so unweighted branch
counting reproduces the Born weights to within one unit per bin; the
engine does not evolve count-mode ensembles.

Ensembles are stored as flat arrays and compress ancestry to (uid,
parent uid, last event, depth, 64-bit lineage hash), which is enough for
uniqueness checks, reproducible per-branch random streams and
no-recoherence bookkeeping without O(depth) memory per branch.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import PhysicalParams, bin_weights, reflect_center, spread_variance
from .rng import (
    KEY_CAP,
    KEY_PRUNE,
    KEY_TIMING,
    lineage_hash_child,
    lineage_hash_root,
    mix,
    unit_uniform,
)

__all__ = [
    "MODES",
    "Ensemble",
    "TagReport",
    "CollapseBatch",
    "apportion_counts",
    "evolve_ensemble_step",
    "verify_tag_uniqueness",
    "midbox_ensemble",
    "run_collapse_trajectories",
    "trajectory_seed",
    "exact_weighted_reference",
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
    """Array-backed set of branches sharing a common time.

    ``weight`` is meaningful in weighted/collapse modes, ``multiplicity``
    in count mode; the other is None.  ``offspring_index`` is -1 and
    ``parent_uid`` is -1 for initial branches that have not been through
    a decoherence event.
    """

    mode: str
    time: float
    center: np.ndarray
    variance: np.ndarray
    weight: np.ndarray | None
    multiplicity: np.ndarray | None
    birth_time: np.ndarray
    uid: np.ndarray
    parent_uid: np.ndarray
    offspring_index: np.ndarray
    lineage_hash: np.ndarray
    depth: np.ndarray
    next_uid: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown ensemble mode '{self.mode}'")
        n = self.center.shape[0]
        if n < 1:
            raise ValueError("ensemble must contain at least one branch")
        for name in ("variance", "birth_time", "uid", "parent_uid",
                     "offspring_index", "lineage_hash", "depth"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"array '{name}' length mismatch")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("branch centers must be finite")
        if not np.all(self.variance > 0):
            raise ValueError("branch variances must be > 0")
        if self.mode == "count":
            if self.multiplicity is None or self.weight is not None:
                raise ValueError("count mode carries multiplicities, not weights")
            if not np.all(self.multiplicity >= 1):
                raise ValueError("count-mode multiplicities must be >= 1")
        else:
            if self.weight is None or self.multiplicity is not None:
                raise ValueError(f"{self.mode} mode carries weights, not multiplicities")
            if not np.all(self.weight > 0):
                raise ValueError("branch weights must be > 0")
            total = float(self.weight.sum())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        if self.mode == "collapse" and n != 1:
            raise ValueError("collapse-mode ensemble must hold exactly one branch")

    @property
    def n_branches(self) -> int:
        return self.center.shape[0]

    def masses(self) -> np.ndarray:
        """Statistical mass per branch: weights, or multiplicities as floats."""
        if self.mode == "count":
            return self.multiplicity.astype(float)
        return self.weight


def midbox_ensemble(
    p: PhysicalParams,
    mode: str = "weighted",
    *,
    multiplicity: int = 1,
    center: float | None = None,
) -> Ensemble:
    """Single fresh packet at (or near) the box center.

    The default center is L/2 snapped to the offspring lattice, so in a
    box that is a whole number of bins wide every later center stays on
    the lattice.  Pass ``center`` to start elsewhere (it is used as
    given, not snapped).
    """
    if center is None:
        bw = p.bin_width()
        center = round((p.L / 2.0) / bw) * bw
    count = mode == "count"
    return Ensemble(
        mode=mode, time=0.0,
        center=np.array([float(center)]), variance=np.array([p.w**2]),
        weight=None if count else np.ones(1),
        multiplicity=np.array([max(1, int(multiplicity))], np.int64) if count else None,
        birth_time=np.zeros(1),
        uid=np.zeros(1, np.int64), parent_uid=np.full(1, -1, np.int64),
        offspring_index=np.full(1, -1, np.int32),
        lineage_hash=lineage_hash_root(np.zeros(1, np.uint64)),
        depth=np.zeros(1, np.int32), next_uid=1,
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


def _stratified_hits(
    row_mass: np.ndarray,
    u: np.ndarray,
    *,
    group_start: np.ndarray | None = None,
    parent_mass: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-level stratified resampling: one CDF probe per stride, independent phases.

    Rows come in groups.  By default ``row_mass`` holds every row and
    ``group_start`` the first row of each contiguous group (one group if
    omitted).  With ``parent_mass`` instead, every parent g has the same
    implicit rows: row (g, b) has mass parent_mass[g] * row_mass[b] and
    flat index g * row_mass.size + b, and no array of all rows is built.

    Probe j lands at (u[j] + j) / K of the total mass.  The first level
    finds its group on the group CDF; the second searches the probe's
    fraction of the way through that group's cell, clipped to [0, 1], on
    the group's row CDF, normalised to end at exactly 1.  Grouped rows
    keep every group's row CDF in one array, group g's shifted up by g,
    so one search serves all groups; shared rows search the one shared
    CDF.  Resolved this way the probes land where a flat search of all
    rows puts them, so row i collects K * mass_i / total probes in
    expectation (exactly unbiased, total exactly K), at most K distinct
    rows survive and zero-mass rows or groups are never hit.  The flat
    indices come out sorted, so hits are run lengths.  The phases must
    lie in (0, 1) and be independent: a shared phase (plain systematic
    resampling) locks equal-weight parents to the same offspring pick and
    the ensemble stops mixing.  Returns (surviving flat indices, strictly
    increasing; probe hits per survivor).
    """
    k = u.size
    cum = np.cumsum(row_mass)
    if parent_mass is None:
        start = np.zeros(1, np.int64) if group_start is None else group_start
        group = np.repeat(np.arange(start.size), np.diff(start, append=row_mass.size))
        edge = np.append(np.concatenate(([0.0], cum))[start], cum[-1])
        span = np.diff(edge)
        # (cum - edge) / span is exactly 1 on each group's last row
        row_cdf = group + (cum - edge[group]) / np.where(span > 0, span, 1.0)[group]
    else:
        edge = np.concatenate(([0.0], np.cumsum(parent_mass)))
        row_cdf = cum / cum[-1]
    edge /= edge[-1]
    pos = (u + np.arange(k, dtype=float)) / k
    cell = np.searchsorted(edge, pos, side="left") - 1
    lo = edge[cell]
    frac = np.clip((pos - lo) / (edge[cell + 1] - lo), 0.0, 1.0)
    shift, base = (cell, 0) if parent_mass is None else (0, cell * row_mass.size)
    # a fraction lost to rounding against the offset still lands past the
    # previous group's last entry and this group's zero-mass lead rows
    probe = np.maximum(shift + frac, np.nextafter(shift, np.inf))
    idx = base + np.searchsorted(row_cdf, probe, side="left")
    first = np.flatnonzero(np.diff(idx, prepend=-1))
    return idx[first], np.diff(first, append=k)


def _cap_probe_phases(max_branches: int, step_seed) -> np.ndarray:
    """Phases of probes 0 .. max_branches-1; at one probe, one per step seed."""
    return unit_uniform(mix(
        step_seed ^ KEY_CAP, np.arange(max_branches, dtype=np.uint64)
    ))


def _cap_keyed(e: Ensemble, max_branches: int, step_seed: np.uint64) -> Ensemble:
    """Thin a weighted ensemble to at most ``max_branches`` branches.

    Survivors are picked by two-level stratified resampling with probe
    phases derived from (step seed, probe index): branches are grouped
    into contiguous runs of equal ``parent_uid`` (an engine step's
    offspring of one parent), each probe finds its group on the group
    CDF and then its branch on that group's own CDF.  Evolving an
    ensemble past the cap makes the same selection from the parents'
    CDF and the shared kernel CDF without building the offspring, and a
    hand-built ensemble, whose branches share one parent uid, is one
    group: a flat search.  Survivors carry equal
    shares of the total per probe hit, so every ensemble statistic stays
    an exactly unbiased estimate of the uncapped one.  Under the cap the
    ensemble is returned unchanged.
    """
    if e.n_branches <= max_branches:
        return e
    pu = e.parent_uid
    idx, hits = _stratified_hits(
        e.weight, _cap_probe_phases(max_branches, step_seed),
        group_start=np.flatnonzero(np.concatenate(([True], pu[1:] != pu[:-1]))),
    )
    return Ensemble(
        mode=e.mode, time=e.time,
        center=e.center[idx], variance=e.variance[idx],
        weight=hits / float(max_branches), multiplicity=None,
        birth_time=e.birth_time[idx], uid=e.uid[idx],
        parent_uid=e.parent_uid[idx], offspring_index=e.offspring_index[idx],
        lineage_hash=e.lineage_hash[idx], depth=e.depth[idx],
        next_uid=e.next_uid,
    )


# ---------------------------------------------------------------------------
# evolution


def _offset_kernel(var0: float, dt: float, p: PhysicalParams):
    """(offsets, Born weights) of one event's offspring relative to the parent.

    A packet of variance ``var0`` spreads for ``dt``, and the spread
    beyond the fresh width w is binned at the lattice pitch around 0.
    """
    # spread on an array: there x**2 is the rounded exact square, while a
    # scalar ** goes through pow() and can differ in the last bit
    spread = float(spread_variance(np.full(1, var0), dt, p)[0]) - p.w**2
    return bin_weights(0.0, spread, p.bin_width())


def evolve_ensemble_step(
    e: Ensemble,
    p: PhysicalParams,
    fanout: int,
    cap: int,
    rng: np.random.Generator,
    *,
    timing: str = "deterministic",
) -> Ensemble:
    """Advance a weighted or collapse ensemble through one decoherence period.

    Every branch spreads for the period, then decoheres into tagged
    offspring, and the branch count is capped with an unbiased
    stratified resample when it exceeds ``cap``.  Collapse is that cap
    at one branch: its single probe keeps one offspring with probability
    equal to its Born weight, whatever ``cap`` is passed.  One uint64 is
    drawn from ``rng`` per step; timing and capping are keyed off it
    alone, so results do not depend on internal batching.  Offsets are
    binned relative to the parent, so every parent shares one offset
    kernel in any geometry: offspring (parent, bin) sits at
    reflect(center_parent + rel_bin) with mass w_parent * kern_bin.
    Past the cap, each stratified probe is resolved first on
    the n-entry parent CDF, then on the shared kernel CDF, and only the
    survivors' rows are built.  That is the selection ``_cap_keyed``
    makes on the materialized offspring, grouped by parent, so the
    capped step is bit-identical to materializing everything and then
    capping.  ``fanout`` is validated but does not affect the step.
    Count-mode ensembles and ensembles whose branches have different
    variances (only a hand-built one can) are rejected.
    """
    if e.mode == "count":
        raise ValueError(
            "count-mode ensembles hold a single counted event and do not "
            "evolve; use weighted or collapse mode"
        )
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if timing not in ("deterministic", "poisson"):
        raise ValueError(f"unknown timing '{timing}'")
    if p.tau <= 0:
        raise ValueError("evolution requires tau > 0")
    if np.any(e.variance != e.variance[0]):
        raise ValueError(
            "branches must share one variance to share the offset kernel; "
            "every decoherence event resets them to w^2"
        )
    cap = 1 if e.mode == "collapse" else cap
    step_seed = np.uint64(rng.integers(0, 2**64, dtype=np.uint64))
    if timing == "poisson":
        dt = -p.tau * math.log(float(unit_uniform(mix(step_seed ^ KEY_TIMING))))
    else:
        dt = p.tau
    t_event = e.time + dt
    rel, kern = _offset_kernel(e.variance[0], dt, p)
    nk = rel.size

    # over cap, survivors are selected from implicit (parent, bin) row
    # indices and only their rows are built
    noff = e.n_branches * nk
    if noff > cap:
        idx, hits = _stratified_hits(
            kern, _cap_probe_phases(cap, step_seed), parent_mass=e.weight
        )
        weight = hits / float(cap)
    else:
        idx = np.arange(noff, dtype=np.int64)
        mass = (e.weight[:, None] * kern[None, :]).ravel()
        weight = mass / mass.sum()
    pr, oi = idx // nk, idx % nk
    return Ensemble(
        mode=e.mode, time=t_event,
        center=reflect_center(e.center[pr] + rel[oi], p.L),
        variance=np.full(idx.size, p.w**2),
        weight=weight, multiplicity=None,
        birth_time=np.full(idx.size, t_event),
        uid=e.next_uid + idx,
        parent_uid=e.uid[pr],
        offspring_index=oi.astype(np.int32),
        lineage_hash=lineage_hash_child(
            e.lineage_hash[pr], t_event, oi.astype(np.uint64)
        ),
        depth=e.depth[pr] + 1,
        next_uid=int(e.next_uid + noff),
    )


# ---------------------------------------------------------------------------
# uniqueness


def verify_tag_uniqueness(e: Ensemble) -> TagReport:
    """Check that no two live branches share a lineage.

    Engine-built branches are unique by construction (fresh offspring
    index per event, fresh uid per branch); this audits both the uids and
    the lineage hashes so a hand-built duplicate is caught either way.
    """
    n = e.n_branches
    for name, arr in (("uid", e.uid), ("lineage hash", e.lineage_hash)):
        _, first, counts = np.unique(arr, return_index=True, return_counts=True)
        if counts.max(initial=1) > 1:
            dup_value = arr[first[np.argmax(counts)]]
            where = np.flatnonzero(arr == dup_value)
            i, j = int(where[0]), int(where[1])
            return TagReport(
                passed=False, n_branches=n,
                message=(
                    f"branches {i} and {j} share the same {name} "
                    f"(last event t={e.birth_time[i]!r}, offspring index "
                    f"{int(e.offspring_index[i])})"
                ),
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
    variance: np.ndarray
    n_steps: int


def trajectory_seed(master_seed: int, index: int) -> int:
    """Run seed of the ``index``-th collapse trajectory of a batch."""
    return int(mix(np.uint64(master_seed), KEY_PRUNE, np.uint64(index)))


def run_collapse_trajectories(
    p: PhysicalParams,
    n_traj: int,
    steps: int,
    master_seed: int,
    *,
    select_rule: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> CollapseBatch:
    """Run many single-branch collapse histories in lockstep.

    Equivalent to evolving ``n_traj`` independent collapse ensembles from
    ``midbox_ensemble(p, "collapse")`` with evolve_ensemble_step under
    deterministic timing, trajectory i seeded by
    ``trajectory_seed(master_seed, i)``; vectorizing across trajectories
    is possible because every trajectory shares the fixed event schedule
    and offset kernel.  Each step searches the probe phase
    ``_cap_probe_phases(1, step_seed)`` on the normalized kernel CDF, as
    ``_stratified_hits`` does for one parent of weight 1, so batch and
    sequential runs agree bit for bit.  ``select_rule`` replaces the
    Born-weighted survivor choice and exists for bias-detection tests.
    """
    if n_traj < 1 or steps < 0:
        raise ValueError("need n_traj >= 1 and steps >= 0")
    gens = [np.random.Generator(np.random.PCG64(trajectory_seed(master_seed, i)))
            for i in range(n_traj)]
    center = np.full(n_traj, midbox_ensemble(p).center[0])
    w2 = p.w**2
    rel, kern = _offset_kernel(w2, p.tau, p)
    cdf = np.cumsum(kern)
    cdf /= cdf[-1]
    t = 0.0
    for _ in range(steps):
        step_seeds = np.array(
            [g.integers(0, 2**64, dtype=np.uint64) for g in gens], np.uint64
        )
        t += p.tau
        u = _cap_probe_phases(1, step_seeds)
        if select_rule is None:
            sel = np.searchsorted(cdf, np.maximum(u, np.nextafter(0.0, 1.0)))
        else:
            sel = np.asarray(select_rule(kern, u))
        center = reflect_center(center + rel[sel], p.L)
    return CollapseBatch(
        time=t, center=center, variance=np.full(n_traj, w2), n_steps=steps
    )


def _box_top_site(p: PhysicalParams) -> int:
    """Index of the last offspring-lattice site in [0, L]; sites run 0 .. top.

    The lattice chain folds walls in integer site arithmetic, so both
    walls must sit on the lattice: L and 2L whole multiples of the pitch.
    """
    bw = p.bin_width()
    if round(2.0 * p.L / bw) * bw != 2.0 * p.L or round(p.L / bw) * bw != p.L:
        raise ValueError(
            f"exact reference requires a bin width commensurate with the box; "
            f"L / (w/2) = {p.L / bw!r} is not an integer"
        )
    return int(round(p.L / bw))


def _exact_chain(p: PhysicalParams, steps: int) -> Iterator[Ensemble]:
    """Yield ``exact_weighted_reference(p, k)`` for k = 0 .. steps, one chain pass."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    top = _box_top_site(p)
    bw = p.bin_width()
    k0 = int(round((p.L / 2.0) / bw))

    w2 = p.w**2
    mass = np.zeros(top + 1)
    mass[k0] = 1.0
    t = 0.0
    if steps > 0:
        rel, kern = _offset_kernel(w2, p.tau, p)
        roff = np.rint(rel / bw).astype(np.int64)
        raw = np.arange(top + 1, dtype=np.int64)[:, None] + roff[None, :]
        folded = raw % (2 * top)
        folded = np.where(folded > top, 2 * top - folded, folded).ravel()
    for k in range(steps + 1):
        if k > 0:
            t += p.tau
            mass = np.bincount(
                folded, weights=(mass[:, None] * kern[None, :]).ravel(),
                minlength=top + 1,
            )
        keep = np.flatnonzero(mass > 0.0)
        n = keep.size
        yield Ensemble(
            mode="weighted", time=t,
            center=keep.astype(float) * bw,
            variance=np.full(n, w2),
            weight=mass[keep] / mass[keep].sum(), multiplicity=None,
            birth_time=np.full(n, t),
            uid=np.arange(n, dtype=np.int64),
            parent_uid=np.full(n, -1, np.int64),
            offspring_index=keep.astype(np.int32),
            lineage_hash=lineage_hash_root(np.arange(n, dtype=np.uint64)),
            depth=np.full(n, k, np.int32),
            next_uid=n,
        )


def exact_weighted_reference(p: PhysicalParams, steps: int) -> Ensemble:
    """Uncapped weighted ensemble at t = steps * tau, aggregated by center.

    Under deterministic timing every branch enters each period at width
    w, so the center marginal closes into a Markov chain on the offspring
    lattice driven by the shared offset kernel; iterating the chain gives
    the exact center distribution of the infinite-cap weighted ensemble
    started from ``midbox_ensemble(p)``.  Branches sharing a center are
    merged (weights add), which preserves every position statistic.
    This is the sampling-free reference that capped runs and collapse
    trajectories are compared against.
    """
    return collections.deque(_exact_chain(p, steps), maxlen=1)[0]
