"""branchbox benchmark harness.

    python3 bench/run_bench.py --workload box-cap1e5 --seed 2025 --seconds 25 --trace 0

Runs one workload (see workloads.py) for about ``--seconds`` seconds and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a JSON record with the environment, every sample and, for traced
runs, the full span table.

Each sample is a fresh interpreter (worker.py) that goes through the
public ``parse_config`` -> ``run_scenario`` path, so set-up cost is paid
as a user pays it.  Workers run one at a time and use no pools: the load
is one process.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples: ``wall_s`` (time in the workload's run_scenario calls,
CSV and summary writes included), ``setup_s`` (interpreter start to
validated RunConfigs) and ``peak_rss_mb`` (ru_maxrss of the worker).

``--trace 1`` reports the per-layer metrics: one tracemalloc worker for
the heap peak, then untraced and traced workers in turn, whose ratio is
the tracing overhead.

Every sample is also a correctness check: each check its scenarios
declare must pass, and its series and summary bytes must equal those of
the run's first sample.  Misses count in ``failed`` out of
``attempted``; ``correct`` is true iff there are none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    SWEEP_STEPS,
    SWEEP_STEPS_TINY,
    WORKLOADS,
    sweep_configs,
    workload_configs,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ".bench_out"
# names and units of the metrics a run emits
SPEC = ROOT / "BENCHMARK.json"

# a worker that has not finished by then is killed; the slowest full-size
# worker (tracemalloc on offlattice-w0.3) takes about 10 s
WORKER_TIMEOUT_S = 120
# medians need a few samples even when one sample outlasts --seconds
MIN_SAMPLES = 3
MIN_SETUP_SAMPLES = 5

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Harness:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.out_dir = f"{OUT_ROOT}/{workload}-{seed}-{os.getpid()}"
        self.configs = workload_configs(workload, seed, self.out_dir, tiny)
        self.sweep = {"configs": sweep_configs(seed, self.out_dir)}
        self.sweep |= SWEEP_STEPS_TINY if tiny else SWEEP_STEPS
        self.env = os.environ | {"PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        self.samples: list[dict] = []

    def spawn(self, role: str) -> dict:
        """Run one worker to completion and return its measurements."""
        job = {"role": role, "configs": self.configs,
               "sweep": self.sweep if role == "trace" else None}
        job["spawned"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=self.env,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{role} worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-4000:]}")
        sample = json.loads(proc.stdout.splitlines()[-1]) | {"role": role}
        self.samples.append(sample)
        return sample

    def verify(self) -> dict:
        """Declared checks of every sample, and its bytes against the first."""
        measured = [s for s in self.samples if "outputs" in s]
        first = measured[0]["outputs"]
        attempted, misses = 0, []
        for i, sample in enumerate(measured):
            for out, ref in zip(sample["outputs"], first):
                attempted += len(out["checks"])
                misses += [f"sample {i} {out['scenario']}: check {name} failed"
                           for name, ok in out["checks"].items() if not ok]
                if i > 0:
                    attempted += 1
                    if (out["series_sha256"], out["summary_sha256"]) != (
                            ref["series_sha256"], ref["summary_sha256"]):
                        misses.append(f"sample {i} {out['scenario']}: output bytes "
                                      "differ from sample 0")
        return {"attempted": attempted, "failed": len(misses), "misses": misses,
                "checks_failed": len(misses) / attempted}


def warm_up(h: Harness) -> None:
    """One untraced workload sample whose outputs are kept and timings not.

    It compiles bytecode and fills the file cache, and the first workload
    sample of a run measured 3-6% slower than the rest."""
    h.spawn("warmup")


def measure_end_to_end(h: Harness, seconds: float) -> dict:
    warm_up(h)
    start = time.monotonic()
    runs = []
    while len(runs) < MIN_SAMPLES or time.monotonic() - start < seconds:
        runs.append(h.spawn("run"))
    setups = runs + [h.spawn("probe") for _ in range(MIN_SETUP_SAMPLES - len(runs))]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in runs),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in runs),
    }


def measure_layers(h: Harness, seconds: float) -> dict:
    warm_up(h)
    start = time.monotonic()
    heap = h.spawn("heap")
    untraced, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        untraced.append(h.spawn("run"))
        traced.append(h.spawn("trace"))
    measured = untraced + traced + [heap]
    median = statistics.median
    metrics = {name: median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    for label in traced[0]["sweep"]:
        metrics[f"branching.evolve_ensemble_step.ms_per_step.{label}"] = median(
            s["sweep"][label]["ms_per_step"] for s in traced)
    metrics |= {
        "runner.series_bytes": sum(o["series_bytes"] for o in traced[0]["outputs"]),
        "config.parse_config_s": median(s["setup_s"] - s["import_s"] for s in measured),
        "setup.import_s": median(s["import_s"] for s in measured),
        "trace.heap_peak_mb": heap["heap_peak_mb"],
        "trace.wall_s": median(s["wall_s"] for s in traced),
        "trace.overhead_ratio": (median(s["wall_s"] for s in traced)
                                 / median(s["wall_s"] for s in untraced)),
    }
    return metrics


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def environment(sample: dict) -> dict:
    cores = os.cpu_count()
    return {
        "nproc": cores,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "scipy": sample["scipy"],
        "git_sha": git_sha(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "load": f"one worker process at a time, no worker pools; {cores} cores",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (see workloads.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "branchbox" / "__init__.py").is_file():
        print(f"run_bench: no branchbox source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    h = Harness(args.workload, args.seed, args.tiny)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(h, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"run_bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / h.out_dir, ignore_errors=True)
        if (ROOT / OUT_ROOT).is_dir() and not any((ROOT / OUT_ROOT).iterdir()):
            (ROOT / OUT_ROOT).rmdir()

    verdict = h.verify()
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": environment(h.samples[0]),
        "verification": verdict,
        "samples": [{k: s[k] for k in ("role", "import_s", "setup_s", "wall_s", "rss_mb")
                     if k in s} for s in h.samples],
    }
    if args.trace:
        record["spans"] = [{"spans": s["spans"], "self_sum_s": s["self_sum_s"],
                            "wall_s": s["wall_s"], "sweep": s["sweep"]}
                           for s in h.samples if s["role"] == "trace"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
