"""Byte identity of run artifacts: sha256 of series and summary, pinned.

Each case is a small run whose series CSV and summary text are hashed
and compared with stored digests, so a refactor that claims to change no
output can be held to it.  Runs write to a relative ``output_dir`` inside
a temporary working directory, so the summary's echoed ``output_dir``
does not depend on where the test runs.  A change that moves output
bytes on purpose updates these digests and says so: run this file as a
script (``PYTHONPATH=src python tests/test_golden.py``) to print every
case's current digests in ``GOLDEN``'s own format.
"""

import hashlib
import os
import tempfile

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
        "64203591695023bca3bf0a54632f4bb726d04ad86b226092bfc1c49d0828e0b4",
    ),
    "collapse_compare": (
        "bdaa5a2f4635d70d53f651ba90b0fd845fc85fd1ac101159de4195ea2734a790",
        "207aba1164f28f67e6f9acd0e1f786e72e96374ef44711f52e724d87df00dda7",
    ),
    "freespread": (
        "357bc6f3406aa3cdef2b443254ba6e3daf77d1f3fa59dd93ec009c0b80b6b6c0",
        "d693606c3d451da4b77a498a04212a406f265f906ae67248901b56c5d69b1209",
    ),
    "liouville_check": (
        "8439412e2324553ebdc187dfd5e083a340dc95ee7dd0c2733f2dcf9d940637f5",
        "fcceaf943b67ada8891fb0051380179cb438f39eb1ab76dabf95d6cc777c436e",
    ),
    "midbox": (
        "01d5a2a9a596a1d3f1bf543d5516e68f1335ab088799b2f1d6d7d731b52ad499",
        "71eada765a94389f3e2cd4457fb08212b283e30391a0ee141b43976e2025d749",
    ),
    "midbox_capped_distinct": (
        "f2725475cc02c1189a79b0a28f9b4f357e74d6073b0b29bb5aca578fcd49e948",
        "8afad08287f728a8e437dbf45b7df4665ec30833c2a3908d0c0030c21361ee18",
    ),
    "midbox_collapse_poisson": (
        "41283532209f04a1393188d001a390fa42bd8a04b409d3a21dd0f33dbd6e87c3",
        "c6bb2812316575c63c8b15b6aadca36e363a19b7a9b223364ca919ac31e27f60",
    ),
    "midbox_offlattice": (
        "866ec92fba66dad844a020f812487bc896264561e7f8b3244bf544c48b77c301",
        "b888107eb2e32d45da6dc1a5a5687f8661b4418f0f8cc76040005e324e827743",
    ),
    "peres_test": (
        "9267937b8de980b64086302c07bc63391f9f0bd2baf7294bf9354f7cc01c7558",
        "6c5ff6e00bb11f18bd6a41e7442485841ab5209f90e744dadbc4f23fe47517c8",
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print("GOLDEN = {")
        for case in sorted(CASES):
            c = parse_config("", CASES[case] | {"seed": SEED, "output_dir": "out"})
            summary = run_scenario(c)
            print(f'    "{case}": (\n        "{_sha(summary.series_path)}",\n'
                  f'        "{_sha(summary.summary_path)}",\n    ),')
        print("}")
