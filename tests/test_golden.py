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
        "f8a8659517c99d12984e3cec460acc6efad7a7bc8cc0dfc1d324919add7042ec",
        "17da5ad156572a99dd4a61d5425b8fa0c53f529ccf4ef51705dbba527447d39a",
    ),
    "liouville_check": (
        "4168f9b5ad73521ab9939f34c0b8d69a6a1a7f305d71c6517bedd37ebd636cfb",
        "4b2032bcc258ab5186d09bc7233814b04e9ef5a0cd27ffcb3074cb456fa5b83d",
    ),
    "midbox": (
        "93b569a79baffa1036396ecf7d6db1be3efee1d66a9582f91abd44e65fa59ffc",
        "05a0351b28c05904e98b668ee2538255c121816631627c08282e3d6aac57b7e6",
    ),
    "midbox_capped_distinct": (
        "51b3bbf907c0a62cab2f6ef8dbbc6e2ff4e4391f394690d2dcddb1d3528118dd",
        "990ec125060eea1376229de00c295dd2da459e99c57eb84db1d48277e7a00c0c",
    ),
    "midbox_collapse_poisson": (
        "6d20233405a945993f666e194a0a88c98dd011cf917cb6f9e4a1b3fb8504439a",
        "03aa19a9eb508c49af9bfe1abf8c6b5ec2d4b9bdc888252009d4f424ac3f9cd1",
    ),
    "midbox_offlattice": (
        "4c33bb2ed5ad0087e335bb395284f0c0c676d2647aa619a871071825d8bdf61c",
        "5b612c9cd27f945fe769b9ee0466eb039d64ed2c662a07900c693094ffef918c",
    ),
    "peres_test": (
        "bdb6ee5a3c3f3e4e25f6124a31845b62b5eaffedc3cc23f67b03fefe50225616",
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
