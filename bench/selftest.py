"""Fast self-test of the benchmark harness.

Usage: python3 bench/selftest.py

Runs ``verify 2 3 --max-k 1`` through the harness, untraced and traced, and
checks that every metric BENCHMARK.json names is reported, that a recorded
digest passes, and that a corrupted digest counts every check of the
instance as failed and names it.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys

import run

TINY = run.Workload("tiny", True, (((2, 3, 1),),))
ID = "2,3,1"
CHECKS = 13


def run_tiny(seed: int, trace: bool, digests: dict) -> tuple:
    lines: list = []
    result = run.run_workload(TINY, seed, 0, trace, digests, lines.append)
    return result, lines


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    recorded = {ID: json.loads(run.DIGESTS.read_text())[ID]}
    other_seed = run.DEFAULT_SEED + 1

    result, _ = run_tiny(run.DEFAULT_SEED, False, recorded)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and (result["attempted"], result["failed"]) == (CHECKS, 0)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    corrupt_report = {ID: dict(recorded[ID], report="0" * 64)}
    result, lines = run_tiny(run.DEFAULT_SEED, False, corrupt_report)
    assert not result["correct"] and result["failed"] == CHECKS
    assert any(f"MISMATCH ({ID})" in line for line in lines), lines

    # away from the default seed the full digest is printed, not compared ...
    result, lines = run_tiny(other_seed, False, corrupt_report)
    assert result["correct"], lines
    assert any(f"digest ({ID}) at seed {other_seed}" in line for line in lines)
    # ... and the seed-free digest still is
    corrupt_seedfree = {ID: dict(recorded[ID], seedfree="0" * 64)}
    result, _ = run_tiny(other_seed, False, corrupt_seedfree)
    assert result["failed"] == CHECKS

    result, _ = run_tiny(run.DEFAULT_SEED, True, recorded)
    assert result["correct"] and result["attempted"] == 2 * CHECKS
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for name in ("algebra.laurent_mul.calls", "skein.resolve_states.calls",
                 "sprime.rotation_matrix.misses", "traces.trace_word.hits",
                 "cli.main.busy_s", "src.sloc"):
        assert metrics[name] > 0, name
    assert 0 < metrics["skein.resolve_states.wall_share"] <= 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
