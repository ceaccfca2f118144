"""Command-line interface: one subcommand per scenario.

Flags override config-file values; everything else defaults.  Exit
status is 0 iff every check the scenario declares passes, 2 for usage,
configuration or IO errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .branching import MODES
from .config import SCENARIOS, ConfigError, parse_config
from .runner import run_scenario

_SCENARIO_HELP = {
    "midbox": "start at rest mid-box, evolve toward coarse uniformity",
    "freespread": "wall-free spreading: variance ladder, diffusion fit, classical oracle",
    "born_test": "integer-count apportionment of one decoherence event",
    "collapse_compare": "collapse trajectories against the weighted ensemble",
    "peres_test": "coherent vs tagged-packet interference, tag uniqueness",
    "liouville_check": "entropy under unitary steps and the localization channel",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchbox",
        description="Seeded branching-ensemble scenarios with CSV output.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="scenario")
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=_SCENARIO_HELP[name])
        sp.add_argument("--config", type=Path, default=None,
                        help="flat 'key = value' config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="run seed (unsigned 64-bit)")
        sp.add_argument("--steps", type=int, default=None,
                        help="number of decoherence periods")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: runs)")
        sp.add_argument("--mode", choices=MODES, default=None, help="weighted, count "
                        "(born_test's integer masses) or collapse (the cap at one branch)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict = {"scenario": args.scenario}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.mode is not None:
        overrides["mode"] = args.mode

    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except OSError as err:
        print(f"branchbox: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, overrides)
        summary = run_scenario(config)
    except ConfigError as err:
        print(f"branchbox: config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"branchbox: {err}", file=sys.stderr)
        return 2

    for check in summary.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    n_pass = sum(1 for check in summary.checks if check.passed)
    print(f"{n_pass}/{len(summary.checks)} checks passed "
          f"in {summary.duration_seconds:.1f} s")
    print(f"series:  {summary.series_path}")
    print(f"summary: {summary.summary_path}")
    return 0 if summary.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
