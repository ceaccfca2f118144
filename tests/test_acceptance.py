"""Acceptance criteria, one test per criterion, asserted on run artifacts.

Every test prints one PASS/FAIL line (visible with ``pytest -v -rA`` or
``-s``) and asserts the same condition, with tolerances stated inline.
Expensive runs are shared: one wall-free spreading run serves criteria
1-3 and one equilibration run serves criteria 4-5.
"""

import math

import numpy as np
import pytest

from branchbox.config import parse_config
from branchbox.runner import run_scenario
from branchbox.stats import fit_diffusion

SEED = 2025


def report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


def run(tmp, **overrides):
    c = parse_config("", {"seed": SEED, "output_dir": str(tmp)} | overrides)
    return run_scenario(c)


def read_series(summary):
    lines = open(summary.series_path).read().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def checks_by_name(summary):
    return {c.name: c for c in summary.checks}


# ---------------------------------------------------------------------------
# shared full-scale runs


@pytest.fixture(scope="module")
def freespread_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("freespread")
    return run(tmp, scenario="freespread", L=10_000.0, steps=200,
               max_branches=100_000)


@pytest.fixture(scope="module")
def midbox_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("midbox")
    return run(tmp, scenario="midbox", steps=8500, max_branches=100_000)


@pytest.fixture(scope="module")
def liouville_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("liouville")
    return run(tmp, scenario="liouville_check", steps=1000)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_variance_ladder(freespread_run):
    # 200 wall-free steps at unit params: variance at step k must track
    # w^2 + k delta^2 within 5% relative for k >= 20, with at least 1e4
    # effective branches, in under 60 s
    rows = read_series(freespread_run)
    k = np.arange(rows.shape[0])
    target = 1.0 + k  # w^2 + k delta^2 at unit parameters
    rel = np.abs(rows[:, 4] - target) / target
    worst = float(rel[20:].max())
    neff_min = float(rows[20:, 2].min())
    elapsed = freespread_run.duration_seconds
    ok = worst < 0.05 and neff_min >= 10_000 and elapsed < 60.0
    report(1, ok, (
        f"max relative variance deviation for k >= 20 is {worst:.4f} "
        f"(< 0.05), min effective branches {neff_min:.0f} (>= 10000), "
        f"runtime {elapsed:.1f} s (< 60)"
    ))


def test_criterion_02_diffusion_constant(freespread_run):
    # the same run's variance slope: D = delta^2 / (2 tau) = 0.5, fit
    # must land in [0.45, 0.55]
    rows = read_series(freespread_run)[20:]
    fit = fit_diffusion(rows[:, 0], rows[:, 4])
    ok = 0.45 <= fit.diffusion <= 0.55
    report(2, ok, (
        f"fitted D = {fit.diffusion:.4f} (+- {fit.stderr:.4f}) "
        f"within [0.45, 0.55]"
    ))


def test_criterion_03_classical_oracle_ks(freespread_run):
    # branch-center marginal at step 100 vs the classical reflected walk:
    # the two-sample KS test at alpha = 0.01 must pass in >= 18 of 20
    # seeded draws
    passes = int(freespread_run.metrics["ks_passes"])
    ok = checks_by_name(freespread_run)["ks_vs_classical"].passed and passes >= 18
    report(3, ok, f"KS test vs classical walk passed {passes}/20 pairs (need 18)")


def test_criterion_04_equilibration(midbox_run):
    # L = 20 box run to t = 10 L^2 / D = 8000 tau at cap 1e5: TV distance
    # to uniform over 20 bins < 0.05 there and at 5 later checkpoints
    rows = read_series(midbox_run)
    t_eq = float(midbox_run.metrics["equilibration_time"])
    assert t_eq == 8000.0
    checkpoints = rows[::100]
    late = checkpoints[checkpoints[:, 0] >= t_eq]
    if rows[-1, 0] > late[-1, 0]:
        late = np.vstack([late, rows[-1]])
    worst_tv = float(late[:, 6].max())
    ok = late.shape[0] >= 6 and worst_tv < 0.05
    report(4, ok, (
        f"TV to uniform over {late.shape[0]} checkpoints from t = {t_eq:.0f} "
        f"to {late[-1, 0]:.0f} peaks at {worst_tv:.4f} (< 0.05)"
    ))


def test_criterion_05_entropy_growth(midbox_run):
    # coarse entropy in the same run: drops between checkpoints bounded
    # by the 3-sigma histogram-noise allowance, final within 1% of ln 20
    rows = read_series(midbox_run)
    checkpoints = np.vstack([rows[::100], rows[-1]])
    worst_margin = -math.inf
    worst_drop = 0.0
    for prev, cur in zip(checkpoints, checkpoints[1:]):
        drop = prev[5] - cur[5]
        allow = 3.0 * math.sqrt((20 - 1) / (2.0 * min(prev[2], cur[2])))
        if drop - allow > worst_margin:
            worst_margin, worst_drop = drop - allow, drop
    final = float(rows[-1, 5])
    ln20 = math.log(20)
    ok = worst_margin <= 0.0 and abs(final - ln20) <= 0.01 * ln20
    report(5, ok, (
        f"worst checkpoint entropy drop {worst_drop:.2e} stays within the "
        f"noise allowance; final entropy {final:.6f} vs ln 20 = {ln20:.6f} "
        f"(within 1%)"
    ))


def test_criterion_06_liouville_conservation(liouville_run):
    drift = float(liouville_run.metrics["max_abs_entropy_drift"])
    ok = checks_by_name(liouville_run)["liouville_conservation"].passed and drift < 1e-8
    report(6, ok, (
        f"max |dS| over 20 mixed states x 1000 unitary steps on a "
        f"128-point grid is {drift:.2e} (< 1e-8)"
    ))


def test_criterion_07_channel_entropy_increase(liouville_run):
    by = checks_by_name(liouville_run)
    min_gain = float(liouville_run.metrics["min_channel_entropy_gain"])
    min_low = float(liouville_run.metrics["min_gain_lowest20"])
    ok = (by["channel_monotone"].passed and by["channel_strict_increase"].passed
          and min_gain >= -1e-10 and min_low > 0.01)
    report(7, ok, (
        f"localization channel entropy gain >= {min_gain:.2e} over 100 "
        f"states (>= -1e-10) and >= {min_low:.3f} on the 20 lowest-entropy "
        f"inputs (> 0.01)"
    ))


def test_criterion_08_born_counting(tmp_path):
    summary = run(tmp_path, scenario="born_test", mode="count")
    by = checks_by_name(summary)
    bins = int(summary.metrics["event_bins"])
    total = int(summary.metrics["total_count"])
    dev = float(summary.metrics["max_fraction_deviation"])
    chi = float(summary.metrics["chi_square"])
    thr = float(summary.metrics["chi_square_threshold"])
    ok = (bins == 8 and total == 10_000 and dev <= 1e-4
          and by["apportionment_bound"].passed
          and by["chi_square_random_timing"].passed)
    report(8, ok, (
        f"one event over {bins} bins, total count {total}: leaf fractions "
        f"within {dev:.2e} of the weights (bound 1e-4); stochastic-timing "
        f"chi-square {chi:.2f} below the alpha = 0.001 threshold {thr:.2f}"
    ))


def test_criterion_09_pruning_invariance(tmp_path):
    summary = run(tmp_path, scenario="collapse_compare", mode="collapse",
                  steps=50)
    by = checks_by_name(summary)
    z_mean = float(summary.metrics["z_position_mean"])
    z_msq = float(summary.metrics["z_position_square"])
    z_bias = float(summary.metrics["z_biased_fixture"])
    ok = (abs(z_mean) < 3.0 and abs(z_msq) < 3.0 and abs(z_bias) > 3.0
          and all(by[n].passed for n in
                  ("z_position_mean", "z_position_square", "bias_detected")))
    report(9, ok, (
        f"10000 collapse trajectories at t = 50 tau vs the exact ensemble: "
        f"|z| = {abs(z_mean):.2f} (mean) and {abs(z_msq):.2f} (second "
        f"moment), both < 3; biased fixture rejected with |z| = {abs(z_bias):.3g}"
    ))


def test_criterion_10_no_recoherence(tmp_path):
    summary = run(tmp_path, scenario="peres_test", L=40.0, steps=10_000,
                  max_branches=2000, timing="poisson")
    by = checks_by_name(summary)
    vis = float(summary.metrics["visibility_coherent"])
    content = float(summary.metrics["fringe_content_tagged"])
    ok = (vis > 0.5 and content < 1e-12
          and by["tag_uniqueness"].passed and by["fringe_separation"].passed)
    report(10, ok, (
        f"packets 20w apart evolved to overlap: coherent visibility "
        f"{vis:.3f} (> 0.5), tagged fringe content {content:.2e} of the "
        f"envelope (< 1e-12); tag uniqueness holds after 10000 "
        f"random-timing steps"
    ))


def test_criterion_11_reproducibility(tmp_path):
    # every scenario, run twice with identical config and seed, must
    # produce byte-identical series and summary files
    cases = [
        dict(scenario="midbox", steps=25, max_branches=1000),
        dict(scenario="freespread", L=10_000.0, steps=25, max_branches=1000),
        dict(scenario="born_test", mode="count"),
        dict(scenario="collapse_compare", mode="collapse", steps=5),
        dict(scenario="peres_test", L=40.0, steps=50, max_branches=500),
        dict(scenario="liouville_check", steps=20),
    ]
    identical = []
    for case in cases:
        out = tmp_path / case["scenario"]
        a = run(out, **case)
        first = (open(a.series_path, "rb").read(),
                 open(a.summary_path, "rb").read())
        b = run(out, **case)
        second = (open(b.series_path, "rb").read(),
                  open(b.summary_path, "rb").read())
        identical.append(first == second)
    ok = all(identical)
    report(11, ok, (
        f"byte-identical series and summary files on rerun for "
        f"{sum(identical)}/{len(cases)} scenarios"
    ))
