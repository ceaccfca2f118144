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
        "43be2f8309dd7fbc1e764d686543736e8617fee82b5e7aa4fcbd10ee4d51be8f",
        "dcbd1643685bfdb02c131aeb248502166a247cc3cce7f04067f8dc4f97a237ba",
    ),
    "collapse_compare": (
        "3287a6f3469c2569dc4f4b0f795b20f431a3cfb0cef909a6e0cbbbbb7ad41aa0",
        "bf9c8fedc65d0e8914dca86868a50468b94e21bf2786b6bb8a2d3af0efbae334",
    ),
    "freespread": (
        "63c4bc550a4f2fdd992d9f3e3d1c68ae93691b08343c102b5a86c56101e7cea9",
        "f725e908eb70fd27b5c941d46a862fed7aa63879a7fa6090cbe1d57c4db2c8e5",
    ),
    "liouville_check": (
        "957fa089f612f59d48d2c0b4f4bd5a4416ca9dede2fc8255b2e66bc6edbe3bd9",
        "737772bfabf5c949359c1488c9c3a79d24233b23f6ece42f88e5f9a9cc25ac54",
    ),
    "midbox": (
        "0125b629a44667c5a66b0a7123427159e782342220b366c084dad72a5a58af1b",
        "277653aa3a229fb543abfaeb919ab6cae966509822e0e76137aedc7ef286cc89",
    ),
    "midbox_capped_distinct": (
        "1e977bc6d2110e53768078d59149f4625d64e05dfc8831266131be87ec30f7a7",
        "0561248c22b94a88521abf517e0fc061ce7c7dbf92dc413f489ba9a16b19db26",
    ),
    "midbox_collapse_poisson": (
        "6da5df288bc16ef316f65a4eff9513ea352339c31816917e173f2a0c616cdc43",
        "3351debc5564f7affcecc76e2a0d42c5b644c41873aaa3a730318849da9aea7e",
    ),
    "midbox_offlattice": (
        "ca16ae9e03279271e6f0ac6cea12f89ea9ad82990838eedb4c73923f365de90e",
        "f2597d00c4393c9682af0dc14df160b867e1564b7e5b384d7a467f7f49222974",
    ),
    "peres_test": (
        "aa0d275a2fd208e9eec3ec1d19e18f14a43b014995bfc41fa848d1d276e1ee27",
        "e12c9d6c0b683568548abf696eab15630028448a4d7a1d7c08e7d7d71ea3e0c6",
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
