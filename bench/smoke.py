"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload in workloads.py, including any BENCHMARK.json does
not list, at smoke-test size (``--tiny``), untraced and traced, and
asserts that:

* the last stdout line has exactly the keys correct, attempted, failed
  and metrics, with every output check passing;
* every metric BENCHMARK.json names for that mode is emitted, with its
  unit, and no other;
* in each traced worker the self times of all spans sum to the traced
  wall time within SELF_SUM_TOLERANCE: the spans cover the whole of the
  run_scenario calls and nothing is counted twice.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SELF_SUM_TOLERANCE = 0.01


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run_bench.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = run(workload, trace)
            where = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, (
                f"{where}: {record['verification']['misses']}")
            assert result["attempted"] >= 1, where
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected[trace], (
                f"{where}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(emitted.items()) ^ set(expected[trace].items()))}")
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{where}: {name}"
            for worker in record.get("spans", []):
                gap = abs(worker["self_sum_s"] - worker["wall_s"]) / worker["wall_s"]
                assert gap <= SELF_SUM_TOLERANCE, (
                    f"{where}: span self times sum to {worker['self_sum_s']} s "
                    f"against a traced wall time of {worker['wall_s']} s")
            print(f"ok {where}: {len(emitted)} metrics, "
                  f"{result['attempted']} checks attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
