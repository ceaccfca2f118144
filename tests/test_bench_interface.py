"""What the benchmark in ``bench/`` reads of the package keeps working.

``bench/tracing.py`` counts a step's implicit offspring rows from
``Ensemble.next_uid`` and its n_eff from ``Ensemble.masses()``, and
``bench/worker.py`` calls ``evolve_ensemble_step`` with ``fanout``
passed positionally.  ``python3 bench/smoke.py`` exercises both in fresh
interpreters; these tests run a tiny traced box run and a one-cap sweep
in-process, so a change to that interface fails here first.
"""

from pathlib import Path

import numpy as np
import pytest

from branchbox import branching, parse_config, run_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import worker
    import workloads

    return tracing, worker, workloads


def _tiny_box(workloads, tmp_path, **overrides) -> str:
    box = workloads.WORKLOADS["box-cap1e5"].runs[0] | {"steps": 6, "max_branches": 300}
    return workloads.config_text(box | overrides, workloads.DEFAULT_SEED, str(tmp_path))


def test_traced_steps_count_every_implicit_offspring_row(bench, tmp_path):
    tracing, _, workloads = bench
    c = parse_config(_tiny_box(workloads, tmp_path))
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        tracer.wrap("runner.run_scenario", run_scenario)(c)
    finally:
        restore()
    # each step generates one implicit row per (parent, kernel bin)
    nk = branching._offset_kernel(c.params.tau, c.params)[0].size
    rows, survivors = [s[0] for s in tracer.steps], [s[1] for s in tracer.steps]
    assert len(rows) == c.steps
    assert rows == [n * nk for n in [1] + survivors[:-1]]
    assert survivors[-1] == c.max_branches
    metrics = tracing.layer_metrics(tracer.table(), tracer.steps)
    assert metrics["branching.evolve_ensemble_step.calls"] == c.steps
    assert 0.0 < metrics["branching.neff_ratio"] <= 1.0


def test_cap_sweep_steps_the_engine(bench, tmp_path):
    _, worker, workloads = bench
    sweep = {"configs": {"cap300": _tiny_box(workloads, tmp_path)}, "warm": 6, "timed": 2}
    out = worker._cap_sweep(parse_config, sweep)
    assert set(out) == {"cap300"}
    assert out["cap300"]["survivors"] == 300
    assert np.isfinite(out["cap300"]["ms_per_step"]) and out["cap300"]["ms_per_step"] > 0
