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
        "0a9743d7bfc7dabbb80c1aeb245665a6e329e573f9e90a9ddb02585f72b10d09",
    ),
    "collapse_compare": (
        "0e6126a0a8c77d282467a841a01927814837f4cf036c437b84e901872c2f1a43",
        "207aba1164f28f67e6f9acd0e1f786e72e96374ef44711f52e724d87df00dda7",
    ),
    "freespread": (
        "383abf605447e0b0778c333b1bf229445a16708fbbe73114cbd7a3169db4c1b6",
        "d693606c3d451da4b77a498a04212a406f265f906ae67248901b56c5d69b1209",
    ),
    "liouville_check": (
        "c01709278759241b63052a5a3a78ca9897cd2760f10820448116dfc832c7971b",
        "0e12c9c89c61c36878380e28303f2390c5ae12809c4c42b4ac7468166da46059",
    ),
    "midbox": (
        "9300d692c4bd75bd05b71c707d33eebf41ef8f8c408ad0487a6755a377310384",
        "71eada765a94389f3e2cd4457fb08212b283e30391a0ee141b43976e2025d749",
    ),
    "midbox_capped_distinct": (
        "ada5b01d169eb8c95202f5ab867759c3dc1ca439facd0279ce15eab42db12856",
        "bf4d4e4058b3e9cf7fa67f8512cd76f5a58753be0b343a0c52d016bc6176ec7c",
    ),
    "midbox_collapse_poisson": (
        "e3f45517361496c7bd4954b6058ca05ed4bd036fdca1f974b0636e475e3f56b9",
        "c6bb2812316575c63c8b15b6aadca36e363a19b7a9b223364ca919ac31e27f60",
    ),
    "midbox_offlattice": (
        "55179d4e6c3f47e87400fc451803faad0a1e887e916d7a76d4b51129f836912e",
        "b888107eb2e32d45da6dc1a5a5687f8661b4418f0f8cc76040005e324e827743",
    ),
    "peres_test": (
        "f31c87a442023e97530f9e8442d1119a682d3a90787b2e03f9376c42d5845466",
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
