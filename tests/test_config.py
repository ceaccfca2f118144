"""Config parsing, validation rules, deterministic echo."""

import math

import pytest

from branchbox import config
from branchbox.config import (
    LIOUVILLE_GRID,
    PERES_GRID,
    ConfigError,
    RunConfig,
    config_lines,
    parse_config,
)
from branchbox.density import UnitaryPropagator
from branchbox.model import PhysicalParams

GOOD_DOC = """
# run parameters
scenario = midbox
m = 1.0
w = 1.0        # localization width
tau = 1.0
hbar = 1.0
L = 20.0

mode = weighted
steps = 120
fanout = 8
max_branches = 5000
bins = 20
seed = 7
timing = deterministic
output_dir = out/run1
"""


def test_defaults():
    c = RunConfig()
    assert c.scenario == "midbox"
    assert c.mode == "weighted"
    assert c.steps == 200
    assert c.fanout == 8
    assert c.max_branches == 100_000
    assert c.bins == 20
    assert c.seed == 42
    assert c.timing == "deterministic"
    assert c.output_dir == "runs"
    assert c.params == PhysicalParams()


def test_parse_full_document():
    c = parse_config(GOOD_DOC)
    assert c.scenario == "midbox"
    assert c.steps == 120
    assert c.max_branches == 5000
    assert c.seed == 7
    assert c.output_dir == "out/run1"
    assert c.params.L == 20.0


def test_parse_empty_document_gives_defaults():
    assert parse_config("") == RunConfig()


def test_overrides_apply_on_top():
    c = parse_config(GOOD_DOC, {"steps": 12, "seed": "11", "mode": "collapse"})
    assert c.steps == 12
    assert c.seed == 11
    assert c.mode == "collapse"
    assert c.max_branches == 5000  # untouched document value survives


def test_override_unknown_key():
    with pytest.raises(ConfigError, match="override"):
        parse_config("", {"stepz": 3})


@pytest.mark.parametrize("line,fragment", [
    ("bogus = 3", "unknown key"),
    ("steps 12", "expected 'key = value'"),
    ("steps = twelve", "expected an integer"),
    ("w = fat", "expected a number"),
    ("w = inf", "finite"),
    ("steps =", "empty value"),
])
def test_parse_line_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line)


def test_parse_reports_line_numbers():
    doc = "steps = 10\n\n# fine so far\nbogus = 1\n"
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(doc)


def test_parse_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate key 'steps'"):
        parse_config("steps = 1\nsteps = 2\n")


@pytest.mark.parametrize("overrides,fragment", [
    ({"scenario": "warp"}, "unknown scenario"),
    ({"mode": "fuzzy"}, "unknown mode"),
    ({"timing": "sometimes"}, "unknown timing"),
    ({"steps": 0}, "steps"),
    ({"fanout": 0}, "fanout"),
    ({"max_branches": 0}, "max_branches"),
    ({"bins": 1}, "bins"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"tau": 0.0}, "positive decoherence period"),
    ({"bins": 40}, "bin width"),
    ({"w": 3.0}, "exceeds L/20"),
])
def test_value_validation(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config("", overrides)


def test_scenario_rules_born():
    base = {"scenario": "born_test", "mode": "count"}
    parse_config("", base)
    with pytest.raises(ConfigError, match="requires mode = count"):
        parse_config("", {"scenario": "born_test"})
    with pytest.raises(ConfigError, match="timing"):
        parse_config("", base | {"timing": "poisson"})
    # the event's total is fixed at 10000 whatever fanout says
    parse_config("", base | {"fanout": 7})
    parse_config("", base | {"fanout": 16})


def test_scenario_rules_collapse_compare():
    parse_config("", {"scenario": "collapse_compare", "mode": "collapse"})
    with pytest.raises(ConfigError, match="requires mode = collapse"):
        parse_config("", {"scenario": "collapse_compare"})
    with pytest.raises(ConfigError, match="timing"):
        parse_config(
            "", {"scenario": "collapse_compare", "mode": "collapse",
                 "timing": "poisson"},
        )
    # the exact reference is the free chain folded at observation, so any
    # box is accepted, whole number of w/2 bins or not
    base = {"scenario": "collapse_compare", "mode": "collapse"}
    parse_config("", base | {"w": 0.3, "L": 6.0})
    parse_config("", base | {"w": 0.3, "L": 20.0})
    parse_config("", base | {"L": 20.25})
    parse_config("", {"scenario": "midbox", "w": 0.3, "L": 20.0})


def test_scenario_rules_freespread():
    ok = {"scenario": "freespread", "L": 10_000.0, "steps": 200}
    parse_config("", ok)
    with pytest.raises(ConfigError, match="wall-free"):
        parse_config("", {"scenario": "freespread", "steps": 200})
    with pytest.raises(ConfigError, match="collapsed branch.*use weighted$"):
        parse_config("", ok | {"mode": "collapse"})


def test_scenario_rules_peres():
    parse_config("", {"scenario": "peres_test", "L": 40.0})
    with pytest.raises(ConfigError, match=">= 28 w"):
        parse_config("", {"scenario": "peres_test", "L": 20.0})
    with pytest.raises(ConfigError, match="256-point grid"):
        parse_config("", {"scenario": "peres_test", "L": 80.0})
    with pytest.raises(ConfigError, match="mode"):
        parse_config("", {"scenario": "peres_test", "L": 40.0, "mode": "count"})


def test_scenario_rules_liouville():
    parse_config("", {"scenario": "liouville_check"})
    # the acceptance config (criteria 6-7) stays accepted
    parse_config("", {"scenario": "liouville_check", "steps": 1000})
    with pytest.raises(ConfigError, match="mode"):
        parse_config("", {"scenario": "liouville_check", "mode": "collapse"})


def check_grid_limit(scenario, grid, w):
    # the grid resolves w iff L <= (grid + 1)/4 w; the rule must agree with
    # the grid's own check on both sides of that limit and name it
    limit = (grid + 1) / 4 * w
    for L in (limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf),
              2.0 * limit):
        p = PhysicalParams(w=w, L=L)
        try:
            UnitaryPropagator(grid, p)
            grid_ok = True
        except ValueError:
            grid_ok = False
        overrides = {"scenario": scenario, "w": w, "L": L, "bins": 2}
        if grid_ok:
            parse_config("", overrides)
        else:
            with pytest.raises(ConfigError, match=rf"^L: .*L = {(grid + 1) / 4} w = .*got"):
                parse_config("", overrides)
    base = {"scenario": scenario, "w": w, "bins": 2}
    parse_config("", base | {"L": 0.999 * limit})
    with pytest.raises(ConfigError, match=f"{grid}-point grid"):
        parse_config("", base | {"L": 1.001 * limit})


@pytest.mark.parametrize("w", [1.0, 0.3, 0.07])
def test_liouville_grid_limit_matches_the_grid(w):
    check_grid_limit("liouville_check", LIOUVILLE_GRID, w)


@pytest.mark.parametrize("w", [1.0, 0.3, 0.07])
def test_peres_grid_limit_matches_the_grid(w):
    # the old rule refused L > 64 w, which the grid still resolves
    check_grid_limit("peres_test", PERES_GRID, w)
    parse_config("", {"scenario": "peres_test", "w": w, "L": 64.2 * w, "bins": 2})


@pytest.mark.parametrize("scenario", [
    "midbox", "freespread", "peres_test", "collapse_compare", "liouville_check",
])
def test_count_mode_is_born_only(scenario):
    # count mode holds born_test's single event; no other scenario runs it
    valid = {"freespread": {"L": 10_000.0}, "peres_test": {"L": 40.0}}.get(scenario, {})
    with pytest.raises(ConfigError, match="^mode: "):
        parse_config("", {"scenario": scenario, "mode": "count"} | valid)


def test_memory_model_refuses_runs_over_the_budget():
    # parse_config only: none of these configs may be run
    with pytest.raises(ConfigError, match="^max_branches: .* over the 4 GiB budget"):
        parse_config("", {"max_branches": 10**9})
    with pytest.raises(ConfigError, match="^steps: .* over the 4 GiB budget"):
        parse_config("", {"steps": 10**10})
    with pytest.raises(ConfigError, match="^steps: "):
        parse_config("", {"scenario": "liouville_check", "steps": 10**10})
    # the budget is the edge: the largest cap it holds at 1 step, and one more;
    # at unit parameters the kernel spans 12 sigma of 1 at the pitch 1/2
    steps_share = 2 * config._STEP_BYTES + 24 * config._KERNEL_BYTES
    cap = (config.MEMORY_BUDGET - steps_share) // config._BRANCH_BYTES
    assert parse_config("", {"steps": 1, "max_branches": cap}).max_branches == cap
    with pytest.raises(ConfigError, match="^max_branches: "):
        parse_config("", {"steps": 1, "max_branches": cap + 1})
    # no ensemble grows to the cap: born_test's event, collapse and liouville_check
    for overrides in ({"scenario": "born_test", "mode": "count"},
                      {"scenario": "midbox", "mode": "collapse"},
                      {"scenario": "collapse_compare", "mode": "collapse"},
                      {"scenario": "liouville_check"}):
        parse_config("", overrides | {"max_branches": 10**9})


def test_memory_model_charges_the_widest_kernel():
    # parse_config only: none of these configs may be run.  At unit parameters a
    # kernel spans 24 tau bins, and a Poisson period is at most 53 ln 2 tau
    for overrides in ({"tau": 1e6}, {"tau": 1e8},
                      {"scenario": "collapse_compare", "mode": "collapse", "tau": 1e6},
                      {"tau": 1e5, "timing": "poisson"},
                      {"scenario": "born_test", "mode": "count", "tau": 1e5}):
        with pytest.raises(ConfigError, match="^tau: .* over the 4 GiB budget"):
            parse_config("", overrides)
    for overrides in ({"tau": 1e5}, {"tau": 1e4, "timing": "poisson"},
                      {"scenario": "liouville_check", "tau": 1e8}):
        parse_config("", overrides)
    # the kernel share alone at the edge of the budget, and past it
    tau = config.MEMORY_BUDGET / (24 * config._KERNEL_BYTES) / 2
    parse_config("", {"tau": tau, "steps": 1, "max_branches": 1})
    with pytest.raises(ConfigError, match="^tau: "):
        parse_config("", {"tau": 2.01 * tau, "steps": 1, "max_branches": 1})


def test_config_lines_round_trip():
    c = parse_config(GOOD_DOC, {"seed": 123})
    echoed = "\n".join(config_lines(c))
    again = parse_config(echoed)
    assert again == c


def test_config_lines_order():
    keys = [line.split(" = ")[0] for line in config_lines(RunConfig())]
    assert keys == [
        "scenario", "m", "w", "tau", "hbar", "L", "mode", "steps",
        "fanout", "max_branches", "bins", "seed", "timing", "output_dir",
    ]


def test_runconfig_is_frozen():
    c = RunConfig()
    with pytest.raises(AttributeError):
        c.steps = 5
