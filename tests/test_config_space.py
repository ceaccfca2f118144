"""Every config RunConfig accepts runs; every other is refused, naming a key.

A property over the whole config space: physical parameters, box, bins,
caps, steps and timing, across all six scenarios.  Each drawn config is
either refused by ``parse_config`` with a ``ConfigError`` that names a
config key, or its summary echo parses back to the same config and it
runs to completion with no ``RuntimeWarning`` and a rerun that writes
byte-identical files.  The cost of a drawn run is bounded by counting
work (offset-kernel rows times steps), not by timing it, so the property
cannot turn flaky on a slow machine.
"""

import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from branchbox.branching import MODES, _offset_kernel
from branchbox.config import SCENARIOS, TIMINGS, ConfigError, config_lines, parse_config
from branchbox.runner import run_scenario

KEYS = ("scenario", "m", "w", "tau", "hbar", "L", "mode", "steps", "fanout",
        "max_branches", "bins", "seed", "timing", "output_dir")
NAMES_A_KEY = re.compile(r"(?<![A-Za-z_])(" + "|".join(KEYS) + r")(?![A-Za-z_])")

# offset-kernel rows times steps; unit parameters are 25 rows per step
WORK_BOUND = 8_000

# the mode each scenario runs in, drawn most of the time so that most
# examples get past the scenario rules
USUAL_MODE = {"born_test": "count", "collapse_compare": "collapse"}

# box widths drawn, in units of w, straddling each scenario's limits:
# PhysicalParams refuses L < 20 w, peres_test L < 28 w, the density
# oracles' grids L > 32.25 w and 64.25 w, freespread a box its walk reaches
L_OVER_W = {"peres_test": (24.0, 70.0), "liouville_check": (18.0, 36.0),
            "freespread": (21.0, 20_000.0)}

# the acceptance criteria's configs (tests/test_acceptance.py)
ACCEPTANCE = (
    {"scenario": "freespread", "L": 10_000.0, "steps": 200, "max_branches": 100_000},
    {"scenario": "midbox", "steps": 8500, "max_branches": 100_000},
    {"scenario": "liouville_check", "steps": 1000},
    {"scenario": "born_test", "mode": "count"},
    {"scenario": "collapse_compare", "mode": "collapse", "steps": 50},
    {"scenario": "peres_test", "L": 40.0, "steps": 10_000, "max_branches": 2000,
     "timing": "poisson"},
)


def log_uniform(lo, hi):
    """Floats from lo to hi, uniform in log."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def configs(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    usual = USUAL_MODE.get(scenario, "weighted")
    w, m, hbar = draw(log_uniform(0.1, 2.0)), draw(log_uniform(0.3, 3.0)), draw(log_uniform(0.3, 3.0))
    return {
        "scenario": scenario,
        "mode": draw(st.sampled_from((usual,) * 4 + MODES)),
        "m": m,
        "w": w,
        # the dimensionless period tau hbar / (m w^2): a packet's spread over
        # a period rounds to 0 below about 1e-8, and WORK_BOUND refuses all
        # but the shortest runs near the top
        "tau": draw(log_uniform(1e-12, 1e2)) * m * w**2 / hbar,
        "hbar": hbar,
        "L": w * draw(log_uniform(*L_OVER_W.get(scenario, (21.0, 200.0)))),
        "bins": draw(st.integers(2, 40)),
        "max_branches": draw(st.integers(1, 2000)),
        # steps >= 1: a drawn 0 would only test its refusal, the example below
        "steps": draw(st.integers(1, 4)),
        "timing": draw(st.sampled_from(("deterministic",) + TIMINGS)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


def run_bytes(c):
    summary = run_scenario(c)
    return (Path(summary.series_path).read_bytes(),
            Path(summary.summary_path).read_bytes())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(overrides=configs())
# periods short enough that a packet's spread (w^2 + d^2) - w^2 rounds to 0,
# every period or (Poisson) some: a one-bin kernel at step 0
@example(overrides={"scenario": "midbox", "tau": 1e-8, "steps": 3})
@example(overrides={"scenario": "freespread", "tau": 1e-9, "L": 100.0})
@example(overrides={"scenario": "collapse_compare", "mode": "collapse", "tau": 1e-9, "steps": 5})
@example(overrides={"scenario": "midbox", "tau": 1e-7, "steps": 50, "timing": "poisson"})
@example(overrides={"scenario": "midbox", "tau": 1e-6, "steps": 200, "timing": "poisson"})
# born_test's random period: its parent sits on a bin edge, split 1/2 and 1/2
@example(overrides={"scenario": "born_test", "mode": "count", "tau": 1e-9})
@example(overrides={"scenario": "born_test", "mode": "count", "tau": 1e-12})
# the one step count RunConfig refuses
@example(overrides={"scenario": "midbox", "steps": 0})
# offset kernels past the memory budget, at unit parameters
@example(overrides={"scenario": "midbox", "tau": 1e6})
@example(overrides={"scenario": "midbox", "tau": 1e8})
# booleans are ints to Python, and their echo "True" would not parse back
@example(overrides={"steps": True})
@example(overrides={"fanout": True})
@example(overrides={"max_branches": True})
@example(overrides={"bins": True})
@example(overrides={"seed": False})
def test_every_config_runs_or_is_refused_naming_a_key(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            c = parse_config("", overrides | {"output_dir": tmp})
        except ConfigError as err:
            named = NAMES_A_KEY.search(str(err))
            assert named, str(err)
            if overrides.get("steps") == 0:
                assert named.group(1) == "steps", str(err)
            if overrides.get("tau", 0.0) >= 1e6:
                assert named.group(1) == "tau", str(err)
            for key, value in overrides.items():
                if isinstance(value, bool):
                    assert named.group(1) == key, str(err)
            event(f"refused, naming {named.group(1)}")
            return
        assert parse_config("\n".join(config_lines(c))) == c
        rows, _ = _offset_kernel(c.params.tau, c.params)
        assume(rows.size * c.steps <= WORK_BOUND)
        event(f"ran {c.scenario}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            first, second = run_bytes(c), run_bytes(c)
    assert first == second


def test_acceptance_configs_stay_accepted():
    for overrides in ACCEPTANCE:
        parse_config("", overrides)
