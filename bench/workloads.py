"""Benchmark workloads: the config documents each workload hands to branchbox.

A workload is a list of scenario runs, each a flat ``key = value`` config
document exactly as a user would pass it to ``parse_config``.  The
benchmark seed and the output directory are the only values filled in at
run time; everything else is fixed here, so two commits measured with the
same seed run identical inputs.

Step counts are sized so one fresh-interpreter run of a workload takes
1-4 s on a 2-core machine.  Each measurement is the median over several
such runs, and more short runs give a steadier median than a few long
ones on a machine whose speed drifts by several percent from one run to
the next; a whole measurement campaign (about 70 invocations) also has
to fit in under an hour.
"""

from __future__ import annotations

from dataclasses import dataclass

# the acceptance-test seed; benchmark runs default to it
DEFAULT_SEED = 2025


@dataclass(frozen=True)
class Workload:
    runs: tuple[dict, ...]
    # smoke-test sizes: the same scenarios with only these keys shrunk
    tiny: tuple[dict, ...]


# unit parameters at the acceptance box; every workload starts from these
_BOX = {"m": 1.0, "w": 1.0, "tau": 1.0, "hbar": 1.0, "L": 20.0, "bins": 20,
        "mode": "weighted", "timing": "deterministic"}

WORKLOADS = {
    # criteria 4-5 shape: per-step cost is flat from step ~10 (2.5M implicit
    # offspring rows, 1e5 survivors, 41 sites); cap selection and lineage
    # hashing dominate and bin_weights runs once per step
    "box-cap1e5": Workload(
        runs=(_BOX | {"scenario": "midbox", "steps": 60, "max_branches": 100_000},),
        tiny=({"steps": 6},),
    ),
    # w = 0.3 puts centers one ulp off the lattice, so the engine silently
    # falls back to one bin_weights call per branch (~2000 per step).  Not
    # listed in BENCHMARK.json: this Python-bound loop follows the machine's
    # speed drift, and its ten-seed wall_s spread reached 0.22-0.25 against
    # the largest allowed bound of 0.25.  Run it by hand with --workload.
    "offlattice-w0.3": Workload(
        runs=(_BOX | {"scenario": "midbox", "w": 0.3, "L": 6.0, "steps": 20,
                      "max_branches": 2000},),
        tiny=({"steps": 4},),
    ),
    # criterion 10 shape: many small Poisson-timed steps, a kernel rebuilt
    # every step and a position histogram per step
    "peres-poisson": Workload(
        runs=(_BOX | {"scenario": "peres_test", "L": 40.0, "steps": 2000,
                      "max_branches": 2000, "timing": "poisson"},),
        tiny=({"steps": 50},),
    ),
    # criteria 6-8 at their acceptance configs; the only workload that runs
    # the density layer and the count-mode event.  collapse_compare
    # (criterion 9) is left out: its 1e4-generator Python loop ran the same
    # work in 3.3 s to 5.4 s from one sample to the next on the 2-core
    # machine, which spread this workload's ten-seed medians by up to 30%.
    "criteria-small": Workload(
        runs=(
            _BOX | {"scenario": "liouville_check", "steps": 1000},
            _BOX | {"scenario": "born_test", "mode": "count"},
        ),
        tiny=({"steps": 20}, {}),
    ),
}

# cap sweep on the box-cap1e5 geometry: warm up past the cap-bound
# transient (the ensemble reaches 1e5 rows by step 5), then time steps
SWEEP_CAPS = {"cap1e3": 1_000, "cap1e4": 10_000, "cap1e5": 100_000}
SWEEP_STEPS = {"warm": 12, "timed": 10}
SWEEP_STEPS_TINY = {"warm": 6, "timed": 2}


def config_text(run: dict, seed: int, output_dir: str) -> str:
    """Render one run as the config document branchbox parses."""
    values = run | {"seed": seed, "output_dir": output_dir}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def workload_configs(name: str, seed: int, output_dir: str, tiny: bool) -> list[str]:
    w = WORKLOADS[name]
    runs = [r | t for r, t in zip(w.runs, w.tiny)] if tiny else list(w.runs)
    return [config_text(r, seed, output_dir) for r in runs]


def sweep_configs(seed: int, output_dir: str) -> dict[str, str]:
    box = WORKLOADS["box-cap1e5"].runs[0]
    return {
        label: config_text(box | {"max_branches": cap}, seed, output_dir)
        for label, cap in SWEEP_CAPS.items()
    }
