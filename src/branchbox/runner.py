"""Scenario runner: seeded reproducible runs with CSV series and summaries.

Each scenario exercises one cluster of the model's claims and declares
the checks it can attest; the summary records every declared check with
an explicit verdict, and the process exit status (via the CLI) is zero
iff all of them pass.  Runs are pure functions of (config, seed): the
same pair produces byte-identical output files.  All floating-point
output is printed with 17 significant digits and files are written
atomically (write-then-rename).

The CSV series schema is fixed across scenarios:

    t, n_branches, n_effective, mean_x, var_x, coarse_entropy_nats, tv_uniform

For ensemble scenarios a row describes the branch ensemble after each
step; born_test logs the pre- and post-event ensembles of its
deterministic variant; liouville_check logs its first tracked density
matrix per unitary step (n_branches and n_effective are 1 there: one
state, no branch structure).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .branching import (
    Ensemble,
    Tables,
    _block_steps,
    _exact_chain,
    _periods,
    _site_ensemble,
    apportion_counts,
    evolve_ensemble_steps,
    midbox_ensemble,
    run_collapse_trajectories,
    verify_tag_uniqueness,
)
from .config import LIOUVILLE_GRID, PERES_GRID, RunConfig, config_lines
from .density import (
    GridDensityMatrix,
    UnitaryPropagator,
    _localization_factor,
    classical_random_walk_oracle,
    factor_density,
    factor_entropy,
    fringe_content,
    grid_points,
    grw_localization_channel,
    interference_visibility,
    mixture_density,
    packet_state,
    random_mixed_factor,
    superpose,
    von_neumann_entropy,
)
from .model import PhysicalParams, bin_weights, spread_variance
from .rng import lineage_hash_child, mix, step_keys
from .stats import (
    VarianceSeries,
    _coarse_histograms,
    _entropy_tv,
    _mixture_moments,
    _position_masses,
    chi_square_frequencies,
    effective_branch_count,
    expectation_compare,
    fit_diffusion,
    pool_small_cells,
    position_square,
    position_value,
    sample_branch_centers,
)

__all__ = [
    "CheckResult",
    "RunSummary",
    "run_scenario",
    "CSV_COLUMNS",
    "CHECKPOINT_EVERY",
]

CSV_COLUMNS = (
    "t", "n_branches", "n_effective", "mean_x", "var_x",
    "coarse_entropy_nats", "tv_uniform",
)

# series rows sampled for equilibration checks, in steps
CHECKPOINT_EVERY = 100

# fixed scenario geometry; criteria-level constants, not user knobs
LIOUVILLE_STATES = 20
CHANNEL_STATES = 100
COLLAPSE_TRAJECTORIES = 10_000
BORN_TOTAL_COUNT = 10_000
KS_SAMPLE = 1000
KS_PAIRS = 20
KS_AT_STEP = 100
_SERIES_BLOCK = 64  # liouville_check series steps per block; buffers scale with it

# tags deriving auxiliary rng streams from the run seed
_TAG_KS_PAIR = 0x4B50
_TAG_SERIES_STATE = 0x11F0
_TAG_CONSERVATION = 0x11F1
_TAG_CHANNEL = 0x11F2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RunSummary:
    config: RunConfig
    series_path: str
    summary_path: str
    metrics: dict
    checks: tuple[CheckResult, ...]
    duration_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# formatting and IO


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# one series row: _fmt's 17 significant digits for floats, an int's digits
_ROW_FORMAT = "%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g"


def _write_series(path: Path, rows: list[tuple]):
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_ROW_FORMAT % row for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_summary(path: Path, c: RunConfig, series_name: str,
                   metrics: dict, checks: list[CheckResult]):
    lines = ["# branchbox run summary"]
    lines.extend(config_lines(c))
    lines.append(f"series = {series_name}")
    lines.extend(f"metric.{k} = {_fmt(v)}" for k, v in metrics.items())
    lines.extend(
        f"check.{ch.name} = {'pass' if ch.passed else 'fail'}" for ch in checks
    )
    n_pass = sum(1 for ch in checks if ch.passed)
    lines.append(f"checks_passed = {n_pass}/{len(checks)}")
    lines.append(f"exit_status = {0 if n_pass == len(checks) else 1}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _derived_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(int(mix(np.uint64(seed), np.uint64(tag))))
    )


# ---------------------------------------------------------------------------
# shared engine loop


def _series_rows(ensembles: list[Ensemble], c: RunConfig) -> list[tuple]:
    """Rows of ensembles of one run's tables (and c.params, whose bins RunConfig
    validated) from one mass array; a row's bytes depend only on its ensemble."""
    x, m = _position_masses(ensembles)
    mean, var = _mixture_moments(x, m, ensembles[0].variance)
    entropy, tv = _entropy_tv(_coarse_histograms(ensembles[0].tables, x, m, c.bins))
    return list(zip([float(e.time) for e in ensembles], [e.n_branches for e in ensembles],
                    [effective_branch_count(e) for e in ensembles], mean.tolist(),
                    var.tolist(), entropy.tolist(), tv.tolist()))


def _series(ensembles, c: RunConfig, size: int, capture_at: tuple[int, ...] = ()):
    """(last ensemble, series rows, {k: ensemble k for k in capture_at}) of an
    iterable of one run's ensembles, whose rows are built ``size`` at a time."""
    rows, captured, it = [], {}, iter(ensembles)
    while chunk := list(islice(it, size)):
        captured.update((k, chunk[k - len(rows)]) for k in capture_at
                        if 0 <= k - len(rows) < len(chunk))
        rows += _series_rows(chunk, c)
        last = chunk[-1]
    return last, rows, captured


def _run_engine(c: RunConfig, capture_at: tuple[int, ...] = ()):
    """Evolve a midbox ensemble over the ``c.steps`` step keys of seed ``c.seed``,
    logging one series row per step.

    The ``evolve_ensemble_steps`` generator schedules and walks the steps a
    block at a time, and their rows are built a block's steps at a time
    (``_block_steps``); the ensembles of the steps in ``capture_at`` are kept.
    """
    e = midbox_ensemble(c.params, c.mode)
    cap = 1 if c.mode == "collapse" else c.max_branches  # collapse: the cap at one branch
    keys = step_keys(c.seed, np.arange(c.steps, dtype=np.uint64))
    steps = evolve_ensemble_steps(e, cap, keys, timing=c.timing)
    return _series(chain([e], steps), c, _block_steps(c.params, cap), capture_at)


def _series_from_rows(rows: list[tuple]) -> VarianceSeries:
    arr = np.array([(r[0], r[4], r[2]) for r in rows], float)
    return VarianceSeries(times=arr[:, 0], variances=arr[:, 1], n_effective=arr[:, 2])


def _uniqueness_check(e: Ensemble) -> CheckResult:
    report = verify_tag_uniqueness(e)
    return CheckResult(
        name="tag_uniqueness", passed=report.passed,
        detail=f"{report.n_branches} branches: {report.message}",
    )


# ---------------------------------------------------------------------------
# scenarios


def _scenario_midbox(c: RunConfig):
    p = c.params
    final, rows, _ = _run_engine(c)
    metrics = {}
    checks = [_uniqueness_check(final)]

    # diffusion estimate over the pre-wall window (variance below (L/4)^2)
    pre_wall = [r for r in rows[1:] if r[4] <= (p.L / 4.0) ** 2]
    if len(pre_wall) >= 10:
        est = fit_diffusion(_series_from_rows(pre_wall))
        metrics["diffusion"] = est.diffusion
        metrics["diffusion_stderr"] = est.stderr
        metrics["diffusion_intercept"] = est.intercept

    metrics["final_tv_uniform"] = rows[-1][6]
    metrics["final_coarse_entropy"] = rows[-1][5]
    metrics["final_n_effective"] = rows[-1][2]
    t_eq = 10.0 * p.L**2 / p.diffusion_constant()
    metrics["equilibration_time"] = t_eq

    # equilibration checks only claim what this run can attest: they are
    # declared iff the run actually reaches the equilibration time
    checkpoints = rows[::CHECKPOINT_EVERY]
    if rows[-1] is not checkpoints[-1]:
        checkpoints.append(rows[-1])
    if rows[-1][0] >= t_eq:
        late = [r for r in checkpoints if r[0] >= t_eq]
        worst_tv = max(r[6] for r in late)
        checks.append(CheckResult(
            "tv_equilibrated", worst_tv < 0.05,
            f"max TV over {len(late)} checkpoints past t = {_fmt(t_eq)} "
            f"is {_fmt(worst_tv)}",
        ))
        ln_bins = math.log(c.bins)
        checks.append(CheckResult(
            "entropy_saturated", abs(rows[-1][5] - ln_bins) <= 0.01 * ln_bins,
            f"final coarse entropy {_fmt(rows[-1][5])} vs ln({c.bins}) "
            f"= {_fmt(ln_bins)}",
        ))
        worst_margin, worst_drop, worst_allow = -math.inf, 0.0, math.inf
        for prev, cur in zip(checkpoints, checkpoints[1:]):
            drop = prev[5] - cur[5]
            allow = 3.0 * math.sqrt((c.bins - 1) / (2.0 * min(prev[2], cur[2])))
            if drop - allow > worst_margin:
                worst_margin, worst_drop, worst_allow = drop - allow, drop, allow
        checks.append(CheckResult(
            "entropy_monotone", worst_margin <= 0.0,
            f"worst checkpoint entropy drop {_fmt(worst_drop)} vs noise "
            f"allowance {_fmt(worst_allow)}",
        ))
    return rows, metrics, checks


def _scenario_freespread(c: RunConfig):
    p = c.params
    capture = (KS_AT_STEP,) if c.steps >= KS_AT_STEP else ()
    final, rows, captured = _run_engine(c, capture_at=capture)
    metrics = {}
    checks = [_uniqueness_check(final)]

    # variance ladder: var after k steps must track w^2 + k delta^2
    delta2 = p.delta2()
    ladder = [
        abs(r[4] - (p.w**2 + k * delta2)) / (p.w**2 + k * delta2)
        for k, r in enumerate(rows)
        if k >= 20
    ]
    if ladder:
        metrics["ladder_max_rel_err"] = max(ladder)
        checks.append(CheckResult(
            "variance_ladder", max(ladder) < 0.05,
            f"max relative deviation from w^2 + k delta^2 over k >= 20 "
            f"is {_fmt(max(ladder))}",
        ))
        neff_min = min(r[2] for k, r in enumerate(rows) if k >= 20)
        metrics["min_n_effective"] = neff_min
        checks.append(CheckResult(
            "effective_branches", neff_min >= 10_000,
            f"min effective branch count over k >= 20 is {_fmt(neff_min)}",
        ))

    fit_rows = rows[20:]
    if len(fit_rows) >= 10:
        est = fit_diffusion(_series_from_rows(fit_rows))
        metrics["diffusion"] = est.diffusion
        metrics["diffusion_stderr"] = est.stderr
        metrics["diffusion_intercept"] = est.intercept
        target = p.diffusion_constant()
        checks.append(CheckResult(
            "diffusion_range", 0.9 * target <= est.diffusion <= 1.1 * target,
            f"fit D = {_fmt(est.diffusion)} vs delta^2/(2 tau) = {_fmt(target)}",
        ))

    if captured:
        # scipy.stats costs most of a cold import; only this check needs it
        from scipy.stats import ks_2samp

        reference = captured[KS_AT_STEP]
        passes = 0
        for i in range(KS_PAIRS):
            pair_rng = _derived_rng(c.seed, _TAG_KS_PAIR + i)
            sample = sample_branch_centers(reference, KS_SAMPLE, pair_rng)
            walkers = classical_random_walk_oracle(p, KS_SAMPLE, KS_AT_STEP, pair_rng)
            if ks_2samp(sample, walkers).pvalue >= 0.01:
                passes += 1
        metrics["ks_passes"] = passes
        checks.append(CheckResult(
            "ks_vs_classical", passes >= 18,
            f"{passes}/{KS_PAIRS} sample pairs pass the two-sample KS test "
            f"at alpha = 0.01",
        ))
    return rows, metrics, checks


def _born_event(p: PhysicalParams, initial: Ensemble, dt: float):
    """born_test's event: the leaf's count, apportioned.

    Returns the kernel weights, the counts over the full kernel support
    (zeros included) and the leaves; a zero-count leaf gets no branch.  At a
    spread that rounds to 0 the parent, on a bin edge, splits 1/2 and 1/2.
    """
    w2 = p.w**2
    bw = p.bin_width()
    center, spread = float(initial.center[0]), spread_variance(w2, dt, p) - w2
    if spread > 0:
        centers, weights = bin_weights(center, spread, bw)
    else:
        centers, weights = (math.floor(center / bw) + np.arange(2)) * bw, np.full(2, 0.5)
    counts = apportion_counts(weights, int(initial.weight[0]))
    j = np.flatnonzero(counts)
    # bins sit on the lattice anchored at 0: leaf j is on site centers[j] / bw
    after = Ensemble(
        time=dt, site=np.rint(centers[j] / bw).astype(np.int64),
        origin=0.0, params=p, weight=counts[j],
        lineage_hash=lineage_hash_child(initial.lineage_hash[0], dt, j),
    )
    return weights, counts, after


def _scenario_born(c: RunConfig):
    p = c.params
    bw = p.bin_width()
    # parent centered on a bin edge so the offset kernel splits across
    # at least two cells for any realized spread
    edge_center = round((p.L / 2.0) / bw) * bw + bw / 2.0
    # at this interval the offset std is w/3 and the kernel spans exactly
    # 8 bins of width w/2 around the edge-centered parent
    dt_event = p.m * p.w**2 / (3.0 * p.hbar)
    initial = midbox_ensemble(p, "count", multiplicity=BORN_TOTAL_COUNT, center=edge_center)

    weights, counts, after = _born_event(p, initial, dt_event)
    fractions = counts / counts.sum()
    max_dev = float(np.abs(fractions - weights).max())

    metrics = {
        "event_bins": int(weights.size),
        "total_count": int(counts.sum()),
        "max_fraction_deviation": max_dev,
        "fraction_bound": 1.0 / BORN_TOTAL_COUNT,
    }
    checks = [
        CheckResult(
            "apportionment_bound", max_dev <= 1.0 / BORN_TOTAL_COUNT,
            f"max |count fraction - weight| = {_fmt(max_dev)} over "
            f"{weights.size} bins (bound {_fmt(1.0 / BORN_TOTAL_COUNT)})",
        ),
        _uniqueness_check(after),
    ]

    # stochastic-timing variant: the Poisson period of step key 0, counts
    # tested against the weights realized at that interval
    dt_random = float(_periods(step_keys(c.seed, np.zeros(1, np.uint64)), p.tau, "poisson")[0])
    weights_r, counts_r, _ = _born_event(p, initial, dt_random)
    obs, exp = pool_small_cells(counts_r, weights_r)
    chi = chi_square_frequencies(obs, exp, alpha=0.001)
    metrics["random_dt"] = dt_random
    metrics["random_event_bins"] = int(weights_r.size)
    metrics["chi_square"] = chi.statistic
    metrics["chi_square_dof"] = chi.dof
    metrics["chi_square_threshold"] = chi.threshold
    checks.append(CheckResult(
        "chi_square_random_timing", chi.passed,
        f"statistic {_fmt(chi.statistic)} vs threshold {_fmt(chi.threshold)} "
        f"({chi.dof} dof, alpha = {_fmt(chi.alpha)})",
    ))

    # two geometries: the event's leaves sit on the lattice anchored at 0
    rows = _series_rows([initial], c) + _series_rows([after], c)
    return rows, metrics, checks


def _scenario_collapse(c: RunConfig):
    p = c.params
    # reference: the exact (sampling-free) weighted mixture, so the z
    # scores carry only the trajectories' own Monte Carlo error
    tables = Tables(0.0, p)
    chain_ensembles = (_site_ensemble(p, t, lo, mass, tables)
                       for t, lo, mass in _exact_chain(p, c.steps))
    reference, rows, _ = _series(chain_ensembles, c, _block_steps(p, 1))

    batch = run_collapse_trajectories(p, COLLAPSE_TRAJECTORIES, c.steps, c.seed)
    cmp_mean = expectation_compare(batch, reference, position_value)
    cmp_msq = expectation_compare(batch, reference, position_square)

    def leftmost(_kernel, u):
        return np.zeros(u.size, np.int64)

    # its sites drift one fixed step per event, so its folded mean can sit on
    # the box center (it does at t = 10 and 50 tau at unit parameters); its
    # missing spread cannot
    biased = run_collapse_trajectories(
        p, COLLAPSE_TRAJECTORIES, c.steps, c.seed, select_rule=leftmost
    )
    cmp_biased = expectation_compare(biased, reference, position_square)

    metrics = {
        "n_trajectories": COLLAPSE_TRAJECTORIES,
        "z_position_mean": cmp_mean.z_score,
        "z_position_square": cmp_msq.z_score,
        "z_biased_fixture": cmp_biased.z_score,
        "trajectory_mean": cmp_mean.trajectory_mean,
        "reference_mean": cmp_mean.reference_mean,
    }
    checks = [
        CheckResult(
            "z_position_mean", abs(cmp_mean.z_score) < 3.0,
            f"z = {_fmt(cmp_mean.z_score)} for the position mean",
        ),
        CheckResult(
            "z_position_square", abs(cmp_msq.z_score) < 3.0,
            f"z = {_fmt(cmp_msq.z_score)} for the position second moment",
        ),
        CheckResult(
            "bias_detected", abs(cmp_biased.z_score) > 3.0,
            f"always-leftmost pruning shows z = {_fmt(cmp_biased.z_score)} for "
            f"the position second moment",
        ),
    ]
    return rows, metrics, checks


def _scenario_peres(c: RunConfig):
    p = c.params
    half_sep = 10.0 * p.w
    c_left, c_right = p.L / 2.0 - half_sep, p.L / 2.0 + half_sep
    # flight time to overlap: packets spread as hbar t / (2 m w) for
    # t >> 2 m w^2 / hbar, so both reach the midpoint around t*
    t_star = 2.0 * p.m * half_sep * p.w / p.hbar
    prop = UnitaryPropagator(PERES_GRID, p)

    left = packet_state(PERES_GRID, p, c_left, p.w**2)
    right = packet_state(PERES_GRID, p, c_right, p.w**2)
    amp = 1.0 / math.sqrt(2.0)
    coherent = prop.propagate(superpose([left, right], [amp, amp]), t_star)
    left_t = prop.propagate(left, t_star)
    right_t = prop.propagate(right, t_star)
    tagged = mixture_density([left_t, right_t], [0.5, 0.5])
    envelope = 0.5 * left_t.density() + 0.5 * right_t.density()

    # fringe spacing at overlap: 2 pi hbar t / (m * separation)
    spacing = 2.0 * math.pi * p.hbar * t_star / (p.m * 2.0 * half_sep)
    region = (p.L / 2.0 - spacing / 2.0, p.L / 2.0 + spacing / 2.0)
    vis_coherent = interference_visibility(coherent, region)
    vis_tagged = interference_visibility(tagged, region)
    content_coherent = fringe_content(coherent.density(), envelope)
    content_tagged = fringe_content(tagged.density(), envelope)
    separation = content_coherent / max(content_tagged, 1e-300)

    # engine side: tag uniqueness after a long randomized-timing run
    final, rows, _ = _run_engine(c)

    metrics = {
        "t_overlap": t_star,
        "fringe_region_lo": region[0],
        "fringe_region_hi": region[1],
        "visibility_coherent": vis_coherent,
        "visibility_tagged_envelope": vis_tagged,
        "fringe_content_coherent": content_coherent,
        "fringe_content_tagged": content_tagged,
        "fringe_separation_factor": separation,
    }
    checks = [
        CheckResult(
            "coherent_visibility", vis_coherent > 0.5,
            f"coherent two-packet visibility {_fmt(vis_coherent)} over the "
            f"central fringe",
        ),
        CheckResult(
            "tagged_fringe_content", content_tagged < 1e-12,
            f"tagged-mixture fringe content {_fmt(content_tagged)} of envelope",
        ),
        CheckResult(
            "fringe_separation", separation >= 1e6,
            f"coherent/tagged fringe content ratio {_fmt(separation)}",
        ),
        _uniqueness_check(final),
    ]
    return rows, metrics, checks


def _factor_densities(prop: UnitaryPropagator, psi: np.ndarray, weights: np.ndarray,
                      dt: float, steps: int):
    """Blocks (start, densities) of sum_j w_j psi_j psi_j^H evolved by steps of dt: one
    position-major column per step start .. start + 63, through step ``steps``.

    Step k's energy-basis amplitudes are phase^k C, C = V^T psi sqrt(w), with phase^k
    composed as in ``UnitaryPropagator.evolve``.  With Re and Im kept apart, a block's
    densities sum_j |V phase^k c_j|^2 are two real GEMMs, (n x n) (n x 64 r).
    """
    v, (n, r) = prop.vectors, psi.shape
    amp = v.T @ (psi * np.sqrt(weights))
    phase = np.exp(-1j * prop.energies * dt / prop.hbar)
    turn = phase[:, None, None] ** np.arange(_SERIES_BLOCK)[:, None]
    for start in range(0, steps + 1, _SERIES_BLOCK):
        c = (phase**start)[:, None, None] * amp[:, None]
        re = turn.real * c.real - turn.imag * c.imag
        im = turn.real * c.imag + turn.imag * c.real
        dens = np.square(v @ re.reshape(n, -1)) + np.square(v @ im.reshape(n, -1))
        yield start, dens.reshape(n, _SERIES_BLOCK, r).sum(axis=2)[:, :steps + 1 - start]


def _liouville_series(c: RunConfig, prop: UnitaryPropagator, x: np.ndarray) -> list[tuple]:
    """Rows of one tracked state, from its rank-r factor, _SERIES_BLOCK steps at a time."""
    p = c.params
    edges = np.linspace(0.0, p.L, c.bins + 1)
    # one-hot coarse bin of each grid point, fixed for the run
    in_bin = np.eye(c.bins)[np.clip(np.searchsorted(edges, x, side="right") - 1, 0, c.bins - 1)]
    rng = _derived_rng(c.seed, _TAG_SERIES_STATE)
    psi, weights, _ = random_mixed_factor(LIOUVILLE_GRID, p, rng)
    rows = []
    for start, dens in _factor_densities(prop, psi, weights, p.tau, c.steps):
        k = np.arange(start, start + dens.shape[1])
        prob = dens / dens.sum(axis=0)
        # the engine rows' kernels: a grid point is a position, with no packet width
        mean, var = _mixture_moments(x, prob, 0.0)
        entropy, tv = _entropy_tv(in_bin.T @ prob)
        rows.extend(zip((k * p.tau).tolist(), [1] * k.size, [1.0] * k.size, mean.tolist(),
                        var.tolist(), entropy.tolist(), tv.tolist()))
    return rows


def _scenario_liouville(c: RunConfig):
    p = c.params
    prop = UnitaryPropagator(LIOUVILLE_GRID, p)
    x, dx = grid_points(LIOUVILLE_GRID, p)
    rows = _liouville_series(c, prop, x)

    # entropy conservation under pure unitary evolution; an input's entropy
    # is its factor's, each output's a full solve of the matrix under test
    cons_rng = _derived_rng(c.seed, _TAG_CONSERVATION)
    drifts = []
    for _ in range(LIOUVILLE_STATES):
        factor = random_mixed_factor(LIOUVILLE_GRID, p, cons_rng)
        s0 = factor_entropy(*factor)
        s1 = von_neumann_entropy(prop.evolve(factor_density(*factor), p.tau, c.steps))
        drifts.append(abs(s1 - s0))
    worst_ds = float(np.max(drifts))  # a NaN drift stays NaN, and fails the check

    # localization channel: entropy never drops, and strictly grows on
    # low-entropy inputs
    chan_rng = _derived_rng(c.seed, _TAG_CHANNEL)
    damp = _localization_factor(LIOUVILLE_GRID, dx, p.w)
    gains, initial_entropies = [], []
    for i in range(CHANNEL_STATES):
        factor = random_mixed_factor(LIOUVILLE_GRID, p, chan_rng, rank=1 + i % 10)
        s0 = factor_entropy(*factor)
        s1 = von_neumann_entropy(grw_localization_channel(factor_density(*factor), p, damp))
        gains.append(s1 - s0)
        initial_entropies.append(s0)
    gains = np.array(gains)
    lowest = np.argsort(np.array(initial_entropies))[:20]
    min_gain = float(gains.min())
    min_gain_lowest = float(gains[lowest].min())

    mm = GridDensityMatrix(
        np.eye(LIOUVILLE_GRID, dtype=complex) / (LIOUVILLE_GRID * dx), dx
    )
    mm_dev = float(np.abs(grw_localization_channel(mm, p, damp).elements - mm.elements).max())

    metrics = {
        "grid_points": LIOUVILLE_GRID,
        "unitary_steps": c.steps,
        "max_abs_entropy_drift": worst_ds,
        "min_channel_entropy_gain": min_gain,
        "min_gain_lowest20": min_gain_lowest,
        "max_mixed_deviation": mm_dev,
    }
    checks = [
        CheckResult(
            "liouville_conservation", worst_ds < 1e-8,
            f"max |dS| over {LIOUVILLE_STATES} states x {c.steps} unitary "
            f"steps is {_fmt(worst_ds)}",
        ),
        CheckResult(
            "channel_monotone", min_gain >= -1e-10,
            f"min entropy gain over {CHANNEL_STATES} states is {_fmt(min_gain)}",
        ),
        CheckResult(
            "channel_strict_increase", min_gain_lowest > 0.01,
            f"min gain on the 20 lowest-entropy inputs is {_fmt(min_gain_lowest)}",
        ),
        CheckResult(
            "channel_fixed_point", mm_dev < 1e-9,
            f"maximally mixed state moves by {_fmt(mm_dev)} elementwise",
        ),
    ]
    return rows, metrics, checks


_SCENARIOS = {
    "midbox": _scenario_midbox,
    "freespread": _scenario_freespread,
    "born_test": _scenario_born,
    "collapse_compare": _scenario_collapse,
    "peres_test": _scenario_peres,
    "liouville_check": _scenario_liouville,
}


def run_scenario(c: RunConfig) -> RunSummary:
    """Execute a scenario, write its CSV series and summary, return the summary.

    Identical (config, seed) pairs produce byte-identical files; the
    wall-clock duration lives only on the returned object, never in the
    files.
    """
    start = time.perf_counter()
    out_dir = Path(c.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, metrics, checks = _SCENARIOS[c.scenario](c)
    series_path = out_dir / f"{c.scenario}_series.csv"
    summary_path = out_dir / f"{c.scenario}_summary.txt"
    _write_series(series_path, rows)
    _write_summary(summary_path, c, series_path.name, metrics, checks)
    return RunSummary(
        config=c,
        series_path=str(series_path),
        summary_path=str(summary_path),
        metrics=metrics,
        checks=tuple(checks),
        duration_seconds=time.perf_counter() - start,
    )
