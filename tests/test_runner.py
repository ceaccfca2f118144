"""Scenario runner and CLI: file formats, reproducibility, exit semantics."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import branchbox
from branchbox import branching, runner, stats
from branchbox.cli import main
from branchbox.config import LIOUVILLE_GRID, config_lines, parse_config
from branchbox.density import (
    GridDensityMatrix,
    UnitaryPropagator,
    factor_density,
    grid_points,
    random_mixed_factor,
    random_mixed_state,
)
from branchbox.rng import step_keys
from branchbox.runner import CSV_COLUMNS, run_scenario

import reference


def small_midbox(tmp_path, seed=7, steps=30):
    return parse_config("", {
        "scenario": "midbox", "steps": steps, "max_branches": 2000,
        "seed": seed, "output_dir": str(tmp_path / "out"),
    })


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# series and summary files


def test_run_writes_named_files(tmp_path):
    summary = run_scenario(small_midbox(tmp_path))
    out = tmp_path / "out"
    assert (out / "midbox_series.csv").exists()
    assert (out / "midbox_summary.txt").exists()
    assert summary.series_path == str(out / "midbox_series.csv")
    assert summary.summary_path == str(out / "midbox_summary.txt")
    assert not list(out.glob("*.tmp"))  # atomic writes leave no debris


def test_series_schema_and_length(tmp_path):
    c = small_midbox(tmp_path)
    run_scenario(c)
    header, rows = read_rows(tmp_path / "out" / "midbox_series.csv")
    assert header == list(CSV_COLUMNS)
    assert len(rows) == c.steps + 1  # initial state plus one row per step
    times = [r[0] for r in rows]
    assert times == [float(k) for k in range(c.steps + 1)]


def test_series_first_row_matches_initial_state(tmp_path):
    c = small_midbox(tmp_path)
    run_scenario(c)
    _, rows = read_rows(tmp_path / "out" / "midbox_series.csv")
    # one packet of width w at L/2: its bin masses by quadrature of the
    # wall-folded Gaussian, independent of the package's histogram
    p = c.params
    h = reference.reflected_bin_masses(p.L / 2, p.w**2, p.L, c.bins)
    assert rows[0][:5] == [0.0, 1.0, 1.0, p.L / 2, p.w**2]
    assert rows[0][5:] == pytest.approx(
        [-(h @ np.log(h)), 0.5 * np.abs(h - 1 / c.bins).sum()], rel=1e-10)


def test_series_full_precision(tmp_path):
    run_scenario(small_midbox(tmp_path))
    text = (tmp_path / "out" / "midbox_series.csv").read_text()
    line = text.splitlines()[5]
    entropies = line.split(",")[5]
    # 17 significant digits survive the round trip
    assert float(entropies) == float(format(float(entropies), ".17g"))
    assert len(entropies.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_summary_format(tmp_path):
    c = small_midbox(tmp_path)
    summary = run_scenario(c)
    lines = (tmp_path / "out" / "midbox_summary.txt").read_text().splitlines()
    assert lines[0] == "# branchbox run summary"
    assert lines[1:15] == config_lines(c)
    assert "series = midbox_series.csv" in lines
    metric_keys = [
        line.split(" = ")[0].removeprefix("metric.")
        for line in lines if line.startswith("metric.")
    ]
    assert metric_keys == list(summary.metrics)
    for ch in summary.checks:
        assert f"check.{ch.name} = {'pass' if ch.passed else 'fail'}" in lines
    assert f"checks_passed = {len(summary.checks)}/{len(summary.checks)}" in lines
    assert "exit_status = 0" in lines
    # wall-clock duration stays off the files
    assert not any("duration" in line for line in lines)
    assert summary.duration_seconds > 0.0


def test_short_run_declares_no_equilibration_claims(tmp_path):
    # 30 steps cannot attest equilibration at t_eq = 8000; the runner
    # must not declare those checks rather than fail or fake them
    summary = run_scenario(small_midbox(tmp_path))
    names = [ch.name for ch in summary.checks]
    assert names == ["tag_uniqueness"]
    assert summary.passed


def test_rerun_is_byte_identical(tmp_path):
    c = small_midbox(tmp_path)
    run_scenario(c)
    series1 = (tmp_path / "out" / "midbox_series.csv").read_bytes()
    summary1 = (tmp_path / "out" / "midbox_summary.txt").read_bytes()
    run_scenario(c)
    assert (tmp_path / "out" / "midbox_series.csv").read_bytes() == series1
    assert (tmp_path / "out" / "midbox_summary.txt").read_bytes() == summary1


def test_different_seed_changes_series(tmp_path):
    run_scenario(small_midbox(tmp_path, seed=7))
    a = (tmp_path / "out" / "midbox_series.csv").read_bytes()
    run_scenario(small_midbox(tmp_path, seed=8))
    b = (tmp_path / "out" / "midbox_series.csv").read_bytes()
    assert a != b


@pytest.mark.parametrize("timing", ["deterministic", "poisson"])
def test_collapse_run_is_the_weighted_run_at_cap_one(tmp_path, timing):
    # the runner steps mode = collapse as the weighted run capped at one
    # branch: both write the same series bytes
    series = []
    for mode, cap in (("collapse", {}), ("weighted", {"max_branches": 1})):
        run_scenario(parse_config("", {
            "scenario": "midbox", "mode": mode, "timing": timing, "steps": 200,
            "seed": 7, "output_dir": str(tmp_path / mode)} | cap))
        series.append((tmp_path / mode / "midbox_series.csv").read_bytes())
    assert series[0] == series[1]
    _, rows = read_rows(tmp_path / "collapse" / "midbox_series.csv")
    assert [r[1] for r in rows] == [1.0] * 201


def test_failed_check_sets_exit_status(tmp_path):
    # a freespread run starved of branches cannot hold its effective-size
    # floor; the summary must record the failure and exit status 1
    c = parse_config("", {
        "scenario": "freespread", "L": 10_000.0, "steps": 25,
        "max_branches": 50, "seed": 3, "output_dir": str(tmp_path / "bad"),
    })
    summary = run_scenario(c)
    assert not summary.passed
    by_name = {ch.name: ch for ch in summary.checks}
    assert not by_name["effective_branches"].passed
    text = (tmp_path / "bad" / "freespread_summary.txt").read_text()
    assert "exit_status = 1" in text
    assert "check.effective_branches = fail" in text


def test_unwritable_output_dir_raises(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    c = parse_config("", {
        "scenario": "midbox", "steps": 5, "max_branches": 100,
        "output_dir": str(target),
    })
    with pytest.raises(OSError):
        run_scenario(c)


# ---------------------------------------------------------------------------
# CLI


def test_cli_runs_and_reports(tmp_path, capsys):
    code = main([
        "midbox", "--steps", "20", "--seed", "5",
        "--out", str(tmp_path / "cli"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS tag_uniqueness:" in out
    assert "1/1 checks passed" in out
    assert str(tmp_path / "cli" / "midbox_series.csv") in out
    assert (tmp_path / "cli" / "midbox_summary.txt").exists()


def test_cli_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = midbox\nsteps = 15\nmax_branches = 500\n"
        f"output_dir = {tmp_path / 'fromfile'}\n"
    )
    code = main(["midbox", "--config", str(cfg)])
    assert code == 0
    _, rows = read_rows(tmp_path / "fromfile" / "midbox_series.csv")
    assert len(rows) == 16


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 15\nmax_branches = 500\n")
    code = main([
        "midbox", "--config", str(cfg), "--steps", "8",
        "--out", str(tmp_path / "flags"),
    ])
    assert code == 0
    _, rows = read_rows(tmp_path / "flags" / "midbox_series.csv")
    assert len(rows) == 9


def test_cli_subcommand_sets_scenario(tmp_path, capsys):
    # the config file says midbox; the subcommand wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = midbox\noutput_dir = {tmp_path / 's'}\n")
    code = main([
        "collapse_compare", "--config", str(cfg), "--mode", "collapse",
        "--steps", "10",
    ])
    assert code == 0
    assert (tmp_path / "s" / "collapse_compare_series.csv").exists()


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["midbox", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_config_error_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = -3\n")
    code = main(["midbox", "--config", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_failed_checks_exit_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "L = 10000\nsteps = 25\nmax_branches = 50\n"
        f"output_dir = {tmp_path / 'fail'}\n"
    )
    code = main(["freespread", "--config", str(cfg), "--seed", "3"])
    assert code == 1
    assert "FAIL effective_branches:" in capsys.readouterr().out


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["teleport"])


# ---------------------------------------------------------------------------
# cold start


COLD_START = """
import sys
import branchbox
from branchbox.config import parse_config
from branchbox.runner import run_scenario

out = sys.argv[1]
for overrides in (
    {"scenario": "born_test", "mode": "count"},
    {"scenario": "liouville_check", "steps": 2},
    {"scenario": "midbox", "steps": 3, "max_branches": 200},
):
    c = parse_config("", overrides | {"output_dir": out})
    assert run_scenario(c).passed, overrides["scenario"]
loaded = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
print(loaded)
sys.exit(1 if loaded else 0)
"""


NUMPY_ONLY = """
import sys
import branchbox
from branchbox.config import parse_config
from branchbox.runner import run_scenario

out = sys.argv[1]
for overrides in (
    {"scenario": "midbox", "steps": 3, "max_branches": 200},
    {"scenario": "peres_test", "L": 40.0, "steps": 5, "max_branches": 200,
     "timing": "poisson"},
    {"scenario": "liouville_check", "steps": 2},
):
    c = parse_config("", overrides | {"output_dir": out})
    assert run_scenario(c).passed, overrides["scenario"]
special = sorted(m for m in sys.modules if m.startswith("scipy.special"))
assert not special, special
assert "scipy" in sys.modules, "the benchmark reads scipy's version"
parse_config("", {"scenario": "born_test", "mode": "count"})
assert "scipy.special" in sys.modules, "a born_test config loads its threshold's module"
"""


def _fresh_interpreter(script: str, out) -> subprocess.CompletedProcess:
    src = str(Path(branchbox.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, str(out)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cold_start_leaves_scipy_stats_unimported(tmp_path):
    # a fresh interpreter, since other tests import scipy.stats in this one;
    # only freespread's KS check may import it
    proc = _fresh_interpreter(COLD_START, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_engine_runs_leave_scipy_special_unimported(tmp_path):
    # the package's Gaussian CDF is numpy's; only born_test's chi-square
    # threshold reads scipy.special, and its config loads it at set-up
    proc = _fresh_interpreter(NUMPY_ONLY, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_liouville_runs_at_its_grid_limit(tmp_path):
    # the largest box RunConfig accepts for w = 1 runs to completion
    c = parse_config("", {"scenario": "liouville_check", "L": 32.25, "steps": 1,
                          "output_dir": str(tmp_path)})
    assert run_scenario(c).passed


def _engine_ensembles(c):
    """The ensembles whose rows ``runner._run_engine`` logs: the start, then each step's."""
    e = branching.midbox_ensemble(c.params, c.mode)
    keys = step_keys(c.seed, np.arange(c.steps, dtype=np.uint64))
    steps = branching.evolve_ensemble_steps(e, c.max_branches, keys, timing=c.timing)
    return list(chain([e], steps))


def _born_leaves(c):
    """born_test's count ensembles: the leaves of its event at several periods, in
    one run's tables."""
    p = c.params
    start = branching.midbox_ensemble(p, "count", multiplicity=runner.BORN_TOTAL_COUNT,
                                      center=10.25)
    leaves = [runner._born_event(p, start, f * p.m * p.w**2 / p.hbar)[2]
              for f in (1 / 3, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 1e-9)]
    return [dataclasses.replace(e, tables=leaves[0].tables) for e in leaves]


ROW_RUNS = {
    "peres poisson": ({"scenario": "peres_test", "L": 40.0, "steps": 60,
                       "max_branches": 2000, "timing": "poisson"}, _engine_ensembles),
    "midbox w 0.3": ({"scenario": "midbox", "w": 0.3, "steps": 40, "max_branches": 2000},
                     _engine_ensembles),
    "born_test counts": ({"scenario": "born_test", "mode": "count"}, _born_leaves),
}


@pytest.mark.parametrize("case", sorted(ROW_RUNS))
def test_series_rows_depend_only_on_their_own_ensemble(case):
    overrides, ensembles = ROW_RUNS[case]
    c = parse_config("", overrides | {"seed": 2025})
    run = ensembles(c)
    assert all(e.tables is run[0].tables for e in run)

    def rows_in_chunks(size):
        return [r for i in range(0, len(run), size) for r in runner._series_rows(run[i:i + size], c)]

    # one ensemble at a time, a block's steps at a time and 7 at a time
    one = rows_in_chunks(1)
    block = branching._block_steps(c.params, c.max_branches)
    assert block > 1 or case == "born_test counts"
    for size in (block, 7, len(run)):
        assert np.array(rows_in_chunks(size)).tobytes() == np.array(one).tobytes(), size
    if overrides["scenario"] != "born_test":
        assert runner._run_engine(c)[1] == one

    # the rows of the reference's per-row fold and dot products
    p = c.params
    edges = np.linspace(0.0, p.L, c.bins + 1)

    def bin_masses(x):
        return stats._folded_bin_masses(x, math.sqrt(p.w**2), edges, p.L)

    x, m = stats._position_masses(run)
    for e, row, col in zip(run, one, m.T, strict=True):
        want = reference.series_row(e, c.bins, bin_masses)
        assert row[:3] == want[:3] and [type(v) for v in row] == [type(v) for v in want]
        np.testing.assert_allclose(row[3:], want[3:], rtol=1e-13, atol=1e-15)
        rx, rm = reference.folded_site_masses(e.site, e.weight, e.origin, p.bin_width(), p.L)
        assert (x[col > 0].tobytes(), col[col > 0].tobytes()) == (rx.tobytes(), rm.tobytes())


def test_liouville_series_is_the_evolved_density():
    # the series reads each step's density from the tracked state's rank-r
    # factor; UnitaryPropagator.evolve of the dense matrix is the independent path
    from branchbox import runner
    from branchbox.config import LIOUVILLE_GRID
    from branchbox.density import UnitaryPropagator, grid_points, random_mixed_state

    c = parse_config("", {"scenario": "liouville_check", "steps": 20, "seed": 2025})
    rows = runner._scenario_liouville(c)[0]
    p = c.params
    rho0 = random_mixed_state(
        LIOUVILLE_GRID, p, runner._derived_rng(c.seed, runner._TAG_SERIES_STATE))
    prop = UnitaryPropagator(LIOUVILLE_GRID, p)
    x, _ = grid_points(LIOUVILLE_GRID, p)
    mean_col, var_col = CSV_COLUMNS.index("mean_x"), CSV_COLUMNS.index("var_x")
    for k in (1, 7, 20):
        prob = np.maximum(prop.evolve(rho0, p.tau, k).density(), 0.0)
        prob /= prob.sum()
        mean = prob @ x
        assert rows[k][mean_col] == pytest.approx(mean, rel=1e-12, abs=0)
        assert rows[k][var_col] == pytest.approx(prob @ (x - mean) ** 2, rel=1e-12, abs=0)


@pytest.mark.parametrize("steps", [1, runner._SERIES_BLOCK - 1, runner._SERIES_BLOCK,
                                   runner._SERIES_BLOCK + 1])
def test_liouville_series_blocks_equal_the_per_step_rows(steps):
    # factor densities formed a block at a time give the rows of the
    # per-step dense-matmul loop, across and at block boundaries
    c = parse_config("", {"scenario": "liouville_check", "steps": steps, "seed": 2025})
    p = c.params
    prop = UnitaryPropagator(LIOUVILLE_GRID, p)
    rho0 = random_mixed_state(
        LIOUVILLE_GRID, p, runner._derived_rng(c.seed, runner._TAG_SERIES_STATE))
    x, _ = grid_points(LIOUVILLE_GRID, p)
    want = reference.density_series(rho0.elements, prop.vectors, prop.energies, p.tau,
                                    p.hbar, steps, x, c.bins, p.L)
    got = runner._liouville_series(c, prop, x)
    assert len(got) == steps + 1
    assert [r[:3] for r in got] == [r[:3] for r in want]
    for t, (g, w) in enumerate(zip(got, want)):
        assert all(type(a) is type(b) for a, b in zip(g, w)), t
        np.testing.assert_allclose(g[3:], w[3:], rtol=1e-12, atol=0, err_msg=f"row {t}")


@pytest.mark.parametrize("rank", [1, 8])
def test_factor_densities_are_the_evolved_density(rank):
    # a block's GEMM densities of the factor equal the dense matrix evolved
    # k steps at once, at a block's first and last steps and the run's last
    p = parse_config("", {"scenario": "liouville_check"}).params
    prop = UnitaryPropagator(LIOUVILLE_GRID, p)
    psi, weights, dx = random_mixed_factor(
        LIOUVILLE_GRID, p, np.random.Generator(np.random.PCG64(rank)), rank=rank)
    steps = 200
    blocks = list(runner._factor_densities(prop, psi, weights, p.tau, steps))
    assert [start for start, _ in blocks] == list(range(0, steps + 1, runner._SERIES_BLOCK))
    dens = np.hstack([d for _, d in blocks])
    assert dens.shape == (LIOUVILLE_GRID, steps + 1)
    rho0 = factor_density(psi, weights, dx)
    for k in (0, runner._SERIES_BLOCK - 1, runner._SERIES_BLOCK, runner._SERIES_BLOCK + 1,
              steps):
        np.testing.assert_allclose(dens[:, k], prop.evolve(rho0, p.tau, k).density(),
                                   rtol=1e-12, atol=0, err_msg=f"step {k}")


def test_liouville_conservation_fails_on_a_nan_drift(monkeypatch):
    # a NaN entropy drift must fail the check, not fall out of the fold
    calls = []

    def entropy(rho):
        calls.append(rho)
        return math.nan if len(calls) == 1 else 0.0

    monkeypatch.setattr(runner, "von_neumann_entropy", entropy)
    monkeypatch.setattr(runner, "factor_entropy", lambda *factor: 0.0)
    c = parse_config("", {"scenario": "liouville_check", "steps": 2, "seed": 2025})
    _, metrics, checks = runner._scenario_liouville(c)
    assert math.isnan(metrics["max_abs_entropy_drift"])
    assert not {ch.name: ch.passed for ch in checks}["liouville_conservation"]


def test_liouville_refuses_a_propagator_returning_nan(monkeypatch):
    evolve = UnitaryPropagator.evolve

    def poisoned(self, rho, dt, n_steps):
        out = evolve(self, rho, dt, n_steps).elements.copy()
        out[3, 5] = out[5, 3] = math.nan
        return GridDensityMatrix(out, rho.dx)

    monkeypatch.setattr(UnitaryPropagator, "evolve", poisoned)
    c = parse_config("", {"scenario": "liouville_check", "steps": 2, "seed": 2025})
    with pytest.raises(ValueError, match="finite"):
        runner._scenario_liouville(c)


def test_liouville_solves_only_the_matrices_it_checks(monkeypatch):
    # each input's entropy is its rank <= 10 factor's; the 20 evolved states
    # and the 100 channel outputs each take a full 128 x 128 solve
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    c = parse_config("", {"scenario": "liouville_check", "steps": 20, "seed": 2025})
    checks = runner._scenario_liouville(c)[2]
    assert all(ch.passed for ch in checks)
    assert sizes.count(LIOUVILLE_GRID) == 120
    assert sum(1 for n in sizes if n <= 10) == 120
    assert len(sizes) == 240


def test_liouville_memory_does_not_grow_with_steps():
    # the series buffers are sized by the block, not by the run: 800 more
    # steps add little beyond their rows (a whole-run table of sums would
    # add about 3 MB)
    peaks = []
    tracemalloc.start()
    try:
        for steps in (200, 1000):
            c = parse_config("", {"scenario": "liouville_check", "steps": steps})
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            runner._scenario_liouville(c)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_peres_runs_at_its_grid_limit(tmp_path):
    # the largest box RunConfig accepts for w = 1 runs and passes all checks
    c = parse_config("", {"scenario": "peres_test", "L": 64.25, "steps": 3,
                          "max_branches": 2000, "output_dir": str(tmp_path)})
    summary = run_scenario(c)
    assert len(summary.checks) == 4
    assert summary.passed


# ---------------------------------------------------------------------------
# run state


def _module_globals():
    """repr of every global of every loaded branchbox module, by (module, name)."""
    import branchbox.cli  # noqa: F401  (every module, the CLI's too)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "branchbox" or name.startswith("branchbox.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()
            if not k.startswith("__")}


def test_a_run_leaves_no_state_behind(tmp_path):
    # a run's tables belong to the run: no global of a branchbox module
    # changes across two runs, and none is a functools cache that could grow
    before = {key: repr(v) for key, v in _module_globals().items()}
    for overrides in (
        {"scenario": "peres_test", "L": 40.0, "steps": 20, "max_branches": 200,
         "timing": "poisson"},
        {"scenario": "midbox", "w": 0.3, "steps": 20, "max_branches": 200},
    ):
        assert run_scenario(parse_config("", overrides | {"output_dir": str(tmp_path)})).passed
    after = _module_globals()
    assert {key: repr(v) for key, v in after.items()} == before
    assert [key for key, v in after.items() if hasattr(v, "cache_clear")] == []
