"""One fresh-interpreter run of a benchmark workload.

The harness (run_bench.py) starts this script once per sample and writes
a job to its stdin as JSON:

    {"role": ..., "spawned": <CLOCK_MONOTONIC at spawn>,
     "configs": [<config document>, ...], "sweep": {...} | null}

The worker imports branchbox, parses every config document, runs each
through ``run_scenario`` and prints one JSON line of measurements.  Roles:

* ``probe`` - import and parse only (set-up time);
* ``run``, ``warmup`` - the untraced workload: nothing but branchbox is
              imported and nothing is patched;
* ``trace`` - the workload with module-boundary spans (tracing.py), then
              the cap sweep with tracing removed;
* ``heap``  - the workload under tracemalloc, for its peak heap.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _outputs(summary) -> dict:
    series = Path(summary.series_path).read_bytes()
    text = Path(summary.summary_path).read_bytes()
    return {
        "scenario": summary.config.scenario,
        "series_sha256": hashlib.sha256(series).hexdigest(),
        "summary_sha256": hashlib.sha256(text).hexdigest(),
        "series_bytes": len(series),
        "checks": {c.name: c.passed for c in summary.checks},
    }


def _cap_sweep(parse_config, sweep: dict) -> dict:
    """ms per evolve_ensemble_step call once the ensemble sits at the cap."""
    import numpy as np

    from branchbox import evolve_ensemble_step, midbox_ensemble

    out = {}
    for label, text in sweep["configs"].items():
        c = parse_config(text)
        e = midbox_ensemble(c.params, c.mode)
        rng = np.random.Generator(np.random.PCG64(c.seed))
        times = []
        for k in range(sweep["warm"] + sweep["timed"]):
            start = time.perf_counter()
            e = evolve_ensemble_step(e, c.params, c.fanout, c.max_branches, rng,
                                     timing=c.timing)
            if k >= sweep["warm"]:
                times.append(time.perf_counter() - start)
        out[label] = {"ms_per_step": 1e3 * float(np.median(times)),
                      "survivors": e.n_branches}
    return out


def main() -> None:
    job = json.loads(sys.stdin.read())
    from branchbox import parse_config, run_scenario

    t_import = time.monotonic()
    configs = [parse_config(text) for text in job["configs"]]
    t_setup = time.monotonic()
    result = {"import_s": t_import - job["spawned"], "setup_s": t_setup - job["spawned"],
              "numpy": sys.modules["numpy"].__version__,
              "scipy": sys.modules["scipy"].__version__}
    role = job["role"]
    if role != "probe":
        run = run_scenario
        if role == "trace":
            from tracing import Tracer

            tracer = Tracer()
            restore = tracer.install()
            run = tracer.wrap("runner.run_scenario", run_scenario)
        elif role == "heap":
            import tracemalloc

            tracemalloc.start()
        wall, outputs = 0.0, []
        for c in configs:
            start = time.perf_counter()
            summary = run(c)
            wall += time.perf_counter() - start
            outputs.append(_outputs(summary))
        result |= {"wall_s": wall, "outputs": outputs}
        if role == "trace":
            restore()
            result |= _trace_result(tracer, parse_config, job["sweep"])
        elif role == "heap":
            result["heap_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def _trace_result(tracer, parse_config, sweep: dict) -> dict:
    from tracing import layer_metrics

    table = tracer.table()
    return {
        "layers": layer_metrics(table, tracer.steps),
        "spans": {name: {k: row[k] for k in ("calls", "total_s", "self_s")}
                  for name, row in sorted(table.items())},
        "self_sum_s": sum(row["self_s"] for row in table.values()),
        "sweep": _cap_sweep(parse_config, sweep),
    }


if __name__ == "__main__":
    main()
