"""Run configuration: a flat key-value document, strictly validated.

Silent typos in physics parameters corrupt experiments, so parsing is
strict: unknown keys, duplicate keys, malformed lines and invariant
violations are all errors that name the offending key.  An empty
document yields the full default configuration (unit parameters, box
L = 20, seed 42, fanout 8, branch cap 1e5, 20 histogram bins).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field

from .branching import MODES
from .density import grid_points
from .model import TRUNCATION_SIGMAS, PhysicalParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCENARIOS",
    "parse_config",
    "config_lines",
]

SCENARIOS = (
    "midbox",
    "freespread",
    "born_test",
    "peres_test",
    "collapse_compare",
    "liouville_check",
)

TIMINGS = ("deterministic", "poisson")

# the density oracles' fixed grids (liouville_check's density matrices,
# peres_test's wavefunctions); scenario geometry, not user knobs
LIOUVILLE_GRID = 128
PERES_GRID = 256

# the memory model a run must fit in MEMORY_BUDGET by.  Per branch of the cap:
# 24 B of ensemble arrays (site, weight, lineage hash) and about 80 B of a
# capped step's mass and probe temporaries.  Per step: one series row (a tuple
# of seven Python numbers) and one 8 B step key.  Both are tracemalloc peaks of
# midbox runs: 104 B per branch at caps 1e4 to 4e5, 301 B per step of slope
# from 2000 to 20000 steps; 283 B per bin of the widest offset kernel (12 sigma
# of a period's spread at pitch w/2), at 1.7e4 to 7.2e5 bins under either timing.
# A Poisson period is at most 53 ln 2 tau: unit_uniform draws no u below 2**-53.
MEMORY_BUDGET = 4 * 2**30
_BRANCH_BYTES = 104
_STEP_BYTES = 300
_KERNEL_BYTES = 283
_LONGEST_POISSON_PERIOD = 53 * math.log(2)

_PARAM_KEYS = ("m", "w", "tau", "hbar", "L")
_INT_KEYS = ("steps", "fanout", "max_branches", "bins", "seed")
_STR_KEYS = ("scenario", "mode", "timing", "output_dir")


class ConfigError(ValueError):
    """A configuration document or value is invalid; message names the key."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "midbox"
    params: PhysicalParams = field(default_factory=PhysicalParams)
    mode: str = "weighted"
    steps: int = 200
    # changes no series row, metric or check (the engine ignores it);
    # kept because bench/worker.py reads it
    fanout: int = 8
    max_branches: int = 100_000
    bins: int = 20
    seed: int = 42
    timing: str = "deterministic"
    output_dir: str = "runs"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario: unknown scenario '{self.scenario}' (choose from {', '.join(SCENARIOS)})"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode '{self.mode}' (choose from {', '.join(MODES)})")
        if self.timing not in TIMINGS:
            raise ConfigError(f"timing: unknown timing '{self.timing}'")
        # a bool is an int to Python, but its echo "True" would not parse back
        for name, minimum in (("steps", 1), ("fanout", 1), ("max_branches", 1), ("bins", 2)):
            v = getattr(self, name)
            if type(v) is not int or v < minimum:
                raise ConfigError(f"{name}: must be an integer >= {minimum}, got {v!r}")
        if type(self.seed) is not int or not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed: must be an integer in [0, 2^64), got {self.seed!r}")
        if self.params.tau <= 0:
            raise ConfigError("tau: runs require a positive decoherence period")
        if self.params.L / self.bins < self.params.w:
            raise ConfigError(
                f"bins: bin width L/bins = {self.params.L / self.bins} is finer than "
                f"w = {self.params.w}; coarse-graining requires L/bins >= w"
            )
        self._check_scenario()
        self._check_memory()

    def _check_memory(self):
        """Refuse a run the memory model puts over MEMORY_BUDGET, naming the key
        of the largest share.  Weighted engine runs grow to the cap; born_test's
        event, collapse (the cap at one branch) and liouville_check do not.
        liouville_check builds no offset kernel; born_test's is at a Poisson period."""
        p, kernel = self.params, self.scenario != "liouville_check"
        grows = self.mode == "weighted" and kernel
        poisson = self.timing == "poisson" or self.scenario == "born_test"
        spread = (_LONGEST_POISSON_PERIOD if poisson else 1.0) * math.sqrt(p.delta2())
        bins = kernel * 2 * TRUNCATION_SIGMAS * spread / p.bin_width()
        shares = {"max_branches": _BRANCH_BYTES * self.max_branches if grows else 0,
                  "steps": _STEP_BYTES * (self.steps + 1),
                  "tau": _KERNEL_BYTES * bins}
        need = sum(shares.values())
        if need > MEMORY_BUDGET:
            key = max(shares, key=shares.get)
            raise ConfigError(
                f"{key}: {self.steps} steps at cap {self.max_branches} with a {bins:.3g}-bin "
                f"offset kernel need about {need / 2**30:.3g} GiB ({_BRANCH_BYTES} B per "
                f"branch of the cap, {_STEP_BYTES} B per step, {_KERNEL_BYTES} B per kernel "
                f"bin), over the {MEMORY_BUDGET / 2**30:g} GiB budget"
            )

    def _check_scenario(self):
        p = self.params
        if self.scenario == "freespread":
            # the ladder and diffusion fit assume the walk never feels the
            # walls: demand 6 sigma of final spread inside the half-box
            final_sigma = math.sqrt(p.w**2 + self.steps * p.delta2())
            if 6.0 * final_sigma > p.L / 2.0:
                raise ConfigError(
                    f"L: freespread needs a wall-free regime; {self.steps} steps spread "
                    f"to sigma = {final_sigma:.3g}, so L must exceed {12 * final_sigma:.3g}"
                )
        if self.scenario == "peres_test":
            if p.L < 28.0 * p.w:
                raise ConfigError(
                    f"L: peres_test places packets at L/2 +- 10w and needs wall margins; "
                    f"L must be >= 28 w = {28 * p.w}, got {p.L}"
                )
        # the density oracles need dx <= w/4 on their fixed grids; the pitch
        # is the grid's own, so this rule and the grid agree at the limit
        grid = {"peres_test": PERES_GRID, "liouville_check": LIOUVILLE_GRID}.get(self.scenario)
        if grid is not None and grid_points(grid, p)[1] > p.w / 4.0:
            raise ConfigError(
                f"L: {self.scenario}'s {grid}-point grid cannot resolve w = {p.w} "
                f"beyond L = {(grid + 1) / 4} w = {(grid + 1) * p.w / 4}, got {p.L}"
            )
        if self.scenario == "born_test":
            if self.mode != "count":
                raise ConfigError("mode: born_test counts branches and requires mode = count")
            if self.timing != "deterministic":
                raise ConfigError(
                    "timing: born_test runs its own deterministic and stochastic-timing "
                    "variants; leave timing = deterministic"
                )
            # its chi-square threshold reads scipy.special, about 0.25 s to import:
            # loaded with the config, it is set-up, and the run times only itself
            importlib.import_module("scipy.special")
        if self.scenario == "collapse_compare":
            if self.mode != "collapse":
                raise ConfigError("mode: collapse_compare requires mode = collapse")
            if self.timing != "deterministic":
                raise ConfigError(
                    "timing: collapse_compare batches trajectories over a shared "
                    "event schedule and requires timing = deterministic"
                )
        if self.scenario == "freespread" and self.mode == "collapse":
            raise ConfigError(
                "mode: freespread checks the branch-variance ladder, which a "
                "single collapsed branch cannot carry; use weighted"
            )
        if self.scenario in ("peres_test", "liouville_check") and self.mode != "weighted":
            raise ConfigError(f"mode: {self.scenario} does not use mode = {self.mode}")
        if self.mode == "count" and self.scenario != "born_test":
            raise ConfigError(
                f"mode: count mode holds born_test's single event; {self.scenario} "
                "evolves ensembles and requires mode = weighted or collapse"
            )


def _parse_value(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return v


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a flat ``key = value`` document into a validated RunConfig.

    Lines are ``key = value``; blank lines and ``#`` comments are
    ignored.  ``overrides`` (e.g. from command-line flags) are applied on
    top of the document before validation and follow the same key rules.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _STR_KEYS + _INT_KEYS + _PARAM_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ConfigError(f"{key}: empty value")
        values[key] = _parse_value(key, raw)

    for key, value in (overrides or {}).items():
        if key not in _STR_KEYS + _INT_KEYS + _PARAM_KEYS:
            raise ConfigError(f"override: unknown key '{key}'")
        values[key] = _parse_value(key, str(value)) if isinstance(value, str) else value

    param_kwargs = {k: float(values.pop(k)) for k in _PARAM_KEYS if k in values}
    try:
        params = PhysicalParams(**param_kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(params=params, **values)


def config_lines(c: RunConfig) -> list[str]:
    """Deterministic ``key = value`` echo of a config (summary/file format)."""
    p = c.params
    out = [f"scenario = {c.scenario}"]
    for k in _PARAM_KEYS:
        out.append(f"{k} = {getattr(p, k):.17g}")
    out.append(f"mode = {c.mode}")
    for k in ("steps", "fanout", "max_branches", "bins", "seed"):
        out.append(f"{k} = {getattr(c, k)}")
    out.append(f"timing = {c.timing}")
    out.append(f"output_dir = {c.output_dir}")
    return out
