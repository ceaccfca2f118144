"""What the benchmark in ``bench/`` reads of the package keeps working.

``bench/tracing.py`` counts a step's implicit offspring rows from
``Ensemble.next_uid`` and its n_eff from ``Ensemble.masses()``, and
``bench/worker.py`` calls ``evolve_ensemble_step`` with ``fanout``
passed positionally.  ``python3 bench/smoke.py`` exercises both in fresh
interpreters; these tests feed the tracer a tiny box run's steps, trace
one ``run_scenario`` and run a one-cap sweep in-process, so a change to
that interface fails here first.
"""

from pathlib import Path

import numpy as np
import pytest

from branchbox import branching, evolve_ensemble_step, midbox_ensemble, parse_config, run_scenario

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
    # the runner steps a generator, whose span closes before its steps run,
    # so the tracer's step counts are fed the steps of the loop that
    # worker._cap_sweep runs
    tracer = tracing.Tracer()
    e = midbox_ensemble(c.params, c.mode)
    rng = np.random.Generator(np.random.PCG64(c.seed))
    for _ in range(c.steps):
        out = evolve_ensemble_step(e, c.params, c.fanout, c.max_branches, rng, timing=c.timing)
        tracer.observe_step((e,), out)
        e = out
    # each step generates one implicit row per (parent, kernel bin)
    nk = branching._offset_kernel(c.params.tau, c.params)[0].size
    rows, survivors = [s[0] for s in tracer.steps], [s[1] for s in tracer.steps]
    assert len(rows) == c.steps
    assert rows == [n * nk for n in [1] + survivors[:-1]]
    assert survivors[-1] == c.max_branches
    assert all(0.0 < s[3] <= 1.0 for s in tracer.steps)

    # a traced run: its spans nest, so their self times sum to its own time
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        tracer.wrap("runner.run_scenario", run_scenario)(c)
    finally:
        restore()
    table = tracer.table()
    assert table["runner.run_scenario"]["calls"] == 1 and len(table) > 1
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        table["runner.run_scenario"]["total_s"], rel=1e-9)


def test_cap_sweep_steps_the_engine(bench, tmp_path):
    _, worker, workloads = bench
    sweep = {"configs": {"cap300": _tiny_box(workloads, tmp_path)}, "warm": 6, "timed": 2}
    out = worker._cap_sweep(parse_config, sweep)
    assert set(out) == {"cap300"}
    assert out["cap300"]["survivors"] == 300
    assert np.isfinite(out["cap300"]["ms_per_step"]) and out["cap300"]["ms_per_step"] > 0
