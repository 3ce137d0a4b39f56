"""Determinism of the benchmark's counts, and seed sensitivity of its plans.

    python3 -m pytest perfbench -q        # a few minutes: two traced runs per workload

Two traced runs with one seed must report identical counts; a second
seed must change the request mix and still pass every anchor.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

COUNTS = [name for name, unit, _ in METRICS if unit == "count"] + ["cache.rows_hit_ratio"]


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1, 1), bench(workload, 1, 1)
    assert first["correct"] and second["correct"]
    values = [{k: r["metrics"][k]["value"] for k in COUNTS} for r in (first, second)]
    assert values[0] == values[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_mix_and_passes_anchors(workload):
    assert plan(workload, 1) != plan(workload, 2)
    assert plan(workload, 2) == plan(workload, 2)
    result = bench(workload, 2, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
