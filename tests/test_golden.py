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
}

# (series sha256, summary sha256)
GOLDEN = {
    "born_test": (
        "43be2f8309dd7fbc1e764d686543736e8617fee82b5e7aa4fcbd10ee4d51be8f",
        "dcbd1643685bfdb02c131aeb248502166a247cc3cce7f04067f8dc4f97a237ba",
    ),
    "collapse_compare": (
        "6b8106d6f7ca166309396f84de657cee2f7f6f75c44e856ce6e9fe47badbc64b",
        "577a465a51d6cf1e9a8dec95f84d13a3ec983f22d379bd4e2dfe1467be928ad2",
    ),
    "freespread": (
        "939d9fa04e8a658cc4e0e1abb9581f1738931b80faf21371f92c2c87852c685c",
        "775969488cba25a2c5a03323be6df000ace14e03582bfee7ad2b909c86ad456c",
    ),
    "liouville_check": (
        "957fa089f612f59d48d2c0b4f4bd5a4416ca9dede2fc8255b2e66bc6edbe3bd9",
        "737772bfabf5c949359c1488c9c3a79d24233b23f6ece42f88e5f9a9cc25ac54",
    ),
    "midbox": (
        "c3bac08a0a4c40273d9180545f920b059f1899fd731b8f056398d21a95249bad",
        "60c8d3a3c80e034686036571ce478d47066611b25db2f3b48b93fff8eb23afa4",
    ),
    "midbox_collapse_poisson": (
        "6da5df288bc16ef316f65a4eff9513ea352339c31816917e173f2a0c616cdc43",
        "3351debc5564f7affcecc76e2a0d42c5b644c41873aaa3a730318849da9aea7e",
    ),
    "midbox_offlattice": (
        "eb3fa776ccaf81fe4cc495c1f7a3e474740694f515bb49bde35452c88e582c44",
        "05305f89a4249b390c40baad948b95dc5f2d0e348e7ab0c97859c144efa20bf9",
    ),
    "peres_test": (
        "d858cbc5156dea51812b77e6a2b8c9440e75e163b3376be5bade42e344b6a2f9",
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
