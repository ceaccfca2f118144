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
        "4d6dd077e9a3c6af85b617f087fe3cc9f475e99121f256fd593366b8fc90e289",
        "dcbd1643685bfdb02c131aeb248502166a247cc3cce7f04067f8dc4f97a237ba",
    ),
    "collapse_compare": (
        "0e6126a0a8c77d282467a841a01927814837f4cf036c437b84e901872c2f1a43",
        "8bf5fdd66083a45fa0d88c537db3133edfd4f1a9a349ab9a5e0295d9d4e49705",
    ),
    "freespread": (
        "c5ac9915db185d2c17cc9c2205a3833ba8871539cf5b22962c4cc788e1786fc8",
        "89f3a91d44bcf159e6630d95e04b6c22c26c3fc7ffd6316d75b3d7220c4f9bf7",
    ),
    "liouville_check": (
        "c01709278759241b63052a5a3a78ca9897cd2760f10820448116dfc832c7971b",
        "4b2032bcc258ab5186d09bc7233814b04e9ef5a0cd27ffcb3074cb456fa5b83d",
    ),
    "midbox": (
        "d58c60deebf5598151e55455363845212b6425b68c433f3b566c91dfb660033c",
        "425054543bca3c3c5f5283e9f732cf042786edee51e4b230f5bbc20a8d36693e",
    ),
    "midbox_capped_distinct": (
        "788ed57259b9042a9188b3ffa11ff0ce1ed190265be13f0e4919c860f4bd7b15",
        "dcc595267595fd6f15b9255bb6ae3421f1f7312163729ce5d0c9016ab09c4568",
    ),
    "midbox_collapse_poisson": (
        "3dc13a5096393d3afb63b89324f9f59fdd104dfb714785c15d6e1b287278fee3",
        "273533b2d28c0ac232fe3fc1ee93162376d7016296ce534bdb21b41f08e4a6c9",
    ),
    "midbox_offlattice": (
        "d93c7f745a4550c99a1f79700da218577702313e45337fefdcf8471db2def83a",
        "20b08f97cb401490fbdeb7716ec6961bff8b7cf4c5e9a707f64d3dd18ec6e3fb",
    ),
    "peres_test": (
        "ec7a209efe6197fe2091ec976e3f143589e43b45ba0de0f8cbcd3addb96da686",
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
