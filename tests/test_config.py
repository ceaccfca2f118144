"""Config parsing, validation rules, deterministic echo."""

import pytest

from branchbox.config import (
    ConfigError,
    RunConfig,
    config_lines,
    default_config,
    parse_config,
)
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
    c = default_config()
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
    assert parse_config("") == default_config()


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
    # the exact reference is a chain on the w/2 lattice of [0, L]: a box
    # that is not a whole number of bins is refused here, naming L and w,
    # not later by the run
    base = {"scenario": "collapse_compare", "mode": "collapse"}
    parse_config("", base | {"w": 0.3, "L": 6.0})
    with pytest.raises(ConfigError, match=r"^L: .*w = 0\.3"):
        parse_config("", base | {"w": 0.3, "L": 20.0})
    with pytest.raises(ConfigError, match=r"^L: .*L / \(w/2\) = 40\.5"):
        parse_config("", base | {"L": 20.25})
    # weighted runs evolve any such box
    parse_config("", {"scenario": "midbox", "w": 0.3, "L": 20.0})


def test_scenario_rules_freespread():
    ok = {"scenario": "freespread", "L": 10_000.0, "steps": 200}
    parse_config("", ok)
    with pytest.raises(ConfigError, match="wall-free"):
        parse_config("", {"scenario": "freespread", "steps": 200})
    with pytest.raises(ConfigError, match="collapsed branch"):
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
    with pytest.raises(ConfigError, match="mode"):
        parse_config("", {"scenario": "liouville_check", "mode": "collapse"})


@pytest.mark.parametrize("scenario", [
    "midbox", "freespread", "peres_test", "collapse_compare", "liouville_check",
])
def test_count_mode_is_born_only(scenario):
    # count mode holds born_test's single event; no other scenario runs it
    valid = {"freespread": {"L": 10_000.0}, "peres_test": {"L": 40.0}}.get(scenario, {})
    with pytest.raises(ConfigError, match="^mode: "):
        parse_config("", {"scenario": scenario, "mode": "count"} | valid)


def test_config_lines_round_trip():
    c = parse_config(GOOD_DOC, {"seed": 123})
    echoed = "\n".join(config_lines(c))
    again = parse_config(echoed)
    assert again == c


def test_config_lines_order():
    keys = [line.split(" = ")[0] for line in config_lines(default_config())]
    assert keys == [
        "scenario", "m", "w", "tau", "hbar", "L", "mode", "steps",
        "fanout", "max_branches", "bins", "seed", "timing", "output_dir",
    ]


def test_runconfig_is_frozen():
    c = default_config()
    with pytest.raises(AttributeError):
        c.steps = 5
