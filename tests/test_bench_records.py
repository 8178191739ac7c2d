"""The committed benchmark trajectory: every BENCH_*.json at the root of the
repository is a whole record written by scripts/record_bench.py."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RECORD_KEYS = {"git_sha", "src_tree", "seed", "seconds", "src_lines",
               "tier1_wall_s", "selftest_wall_s", "perfbench"}
WORKLOADS = {"torus-potentials", "zeta-grid", "suq2-action"}
END_TO_END = {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s",
              "peak_rss_mb", "ok_frac"}
SHELL_COMMANDS = {"suq2", "torus", "action", "zeta"}


def test_trajectory_has_its_first_records():
    names = {path.name for path in RECORDS}
    assert {"BENCH_0.json", "BENCH_1.json"} <= names


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_whole(path):
    record = json.loads(path.read_text())
    # records from BENCH_15 on also hold the shell wall times
    assert set(record) - {"shell_s"} == RECORD_KEYS
    if "shell_s" in record:
        assert set(record["shell_s"]) == SHELL_COMMANDS
        for command, times in record["shell_s"].items():
            check_shell_times(times, command)
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


def check_shell_times(times: dict, command: str) -> None:
    assert set(times) == {"best_s", "median_s", "k", "argv"}
    assert times["argv"][0] == command
    assert times["k"] >= 1
    assert 0 < times["best_s"] <= times["median_s"] < 60


def test_record_bench_times_a_shell_call():
    proc = subprocess.run(
        [sys.executable, "scripts/record_bench.py", "--shell-only", "suq2",
         "--shell-k", "1", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    shell = json.loads(proc.stdout)
    assert set(shell) == {"suq2"}
    check_shell_times(shell["suq2"], "suq2")
    assert shell["suq2"]["k"] == 1
    assert shell["suq2"]["best_s"] == shell["suq2"]["median_s"]
    assert all("INPUTS" in a for a in shell["suq2"]["argv"] if "json" in a)
