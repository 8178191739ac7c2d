"""The committed benchmark trajectory: every BENCH_*.json at the root of the
repository is a whole record written by scripts/record_bench.py."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RECORD_KEYS = {"git_sha", "src_tree", "seed", "seconds", "src_lines",
               "tier1_wall_s", "selftest_wall_s", "perfbench"}
WORKLOADS = {"torus-potentials", "zeta-grid", "suq2-action"}
END_TO_END = {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s",
              "peak_rss_mb", "ok_frac"}


def test_trajectory_has_its_first_records():
    names = {path.name for path in RECORDS}
    assert {"BENCH_0.json", "BENCH_1.json"} <= names


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_whole(path):
    record = json.loads(path.read_text())
    assert set(record) == RECORD_KEYS
    assert record["src_lines"] > 0
    assert set(record["perfbench"]) == WORKLOADS
    for workload, runs in record["perfbench"].items():
        assert set(runs) == {"trace0", "trace1"}
        for trace, run in runs.items():
            assert run["meta"]["workload"] == workload
            assert run["meta"]["seed"] == record["seed"]
            assert run["meta"]["trace"] == int(trace[-1])
            result = run["result"]
            assert result["correct"] is True
            assert result["failed"] == 0 < result["attempted"]
        metrics = runs["trace0"]["result"]["metrics"]
        assert set(metrics) == END_TO_END, workload
        for name in END_TO_END:
            value = metrics[name]["value"]
            assert math.isfinite(value) and value > 0, (workload, name)
        assert metrics["ok_frac"]["value"] == 1.0
