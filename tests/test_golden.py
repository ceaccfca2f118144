"""Byte identity of run artifacts: sha256 of series and summary, pinned.

Each case is a small run whose series CSV and summary text are hashed
and compared with stored digests, so a refactor that claims to change no
output can be held to it.  Runs write to a relative ``output_dir`` inside
a temporary working directory, so the summary's echoed ``output_dir``
does not depend on where the test runs.  A change that moves output
bytes on purpose updates these digests and says so.
"""

import hashlib

import pytest

from branchbox.config import parse_config
from branchbox.runner import run_scenario

SEED = 2025

CASES = {
    "midbox": {"scenario": "midbox", "steps": 40, "max_branches": 2000},
    "freespread": {"scenario": "freespread", "L": 10_000.0, "steps": 110,
                   "max_branches": 2000},
    "born_test": {"scenario": "born_test", "mode": "count"},
    "collapse_compare": {"scenario": "collapse_compare", "mode": "collapse",
                         "steps": 10},
    "peres_test": {"scenario": "peres_test", "L": 40.0, "steps": 20,
                   "max_branches": 2000, "timing": "poisson"},
    "liouville_check": {"scenario": "liouville_check", "steps": 20},
    "midbox_offlattice": {"scenario": "midbox", "w": 0.3, "L": 20.0,
                          "steps": 20, "max_branches": 2000},
    "midbox_collapse_poisson": {"scenario": "midbox", "mode": "collapse",
                                "timing": "poisson", "steps": 40},
    # past step 7 no two probes of the cap share a row: every hit count is 1
    "midbox_capped_distinct": {"scenario": "midbox", "steps": 12,
                               "max_branches": 20_000},
}

# (series sha256, summary sha256)
GOLDEN = {
    "born_test": (
        "f32c741b37272df999f28439c8ccce4132be4c40720091decf09555cf15faebb",
        "dcbd1643685bfdb02c131aeb248502166a247cc3cce7f04067f8dc4f97a237ba",
    ),
    "collapse_compare": (
        "9907498742b96015785bbd473755b90c1f774eb7b30a3ede6028968526a6558b",
        "8bf5fdd66083a45fa0d88c537db3133edfd4f1a9a349ab9a5e0295d9d4e49705",
    ),
    "freespread": (
        "411f0f295cd65af1f6e1ca960cee57d1b403d2503a0c187e0f5f75e721246102",
        "3c30e4ed0ae85ff3f40b238dc4d47c1d7b4a304d10a79d3179e2c81d712e74ec",
    ),
    "liouville_check": (
        "4168f9b5ad73521ab9939f34c0b8d69a6a1a7f305d71c6517bedd37ebd636cfb",
        "4b2032bcc258ab5186d09bc7233814b04e9ef5a0cd27ffcb3074cb456fa5b83d",
    ),
    "midbox": (
        "f4f1a96976add6a46997cfc61acae756390ba53b05ff930ace171e5dae744d26",
        "d5f106fce5e13723d69c45bdc314014cbb496adf1e14942c031f10170999dd93",
    ),
    "midbox_capped_distinct": (
        "1f6a6c86af3975a2f0c4bdc28c8617ec9250ddfaa1d7e0af1398eb89c407db22",
        "fcf9f9e534ea793f7157a3fa6388c3085499fdc7f9070b14f7b1e5d2d9c9a474",
    ),
    "midbox_collapse_poisson": (
        "6d20233405a945993f666e194a0a88c98dd011cf917cb6f9e4a1b3fb8504439a",
        "03aa19a9eb508c49af9bfe1abf8c6b5ec2d4b9bdc888252009d4f424ac3f9cd1",
    ),
    "midbox_offlattice": (
        "2d3ed9808e37b5edae47d8c878b897e149f4b8c649416a13737fa201652440ee",
        "dd4422b7dd753d613fe671ffa6af34b263f70365b25a4f5c0aa734673d81941a",
    ),
    "peres_test": (
        "0172a326c4c7d97e224e34265fe662717df6397f955b5ea6a6d48a2723346d9c",
        "9e0cfc46fe57f09e7a1138c64cc78bfba7f147ced4c997a6ec5523962e5b09a4",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    c = parse_config("", CASES[case] | {"seed": SEED, "output_dir": "out"})
    summary = run_scenario(c)
    assert (_sha(summary.series_path), _sha(summary.summary_path)) == GOLDEN[case]
