"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, ROOT_SRC
from perfbench.checks import LINEAR_INTEGRALS, check_group, cval
from perfbench.gen import WORKLOADS, generate
from perfbench.run import per_layer, run_op, traced_passes

sys.path.insert(0, str(ROOT_SRC))
from ncspectral.cli import main as cli_main  # noqa: E402

EXACT_COUNTS = ("nc_torus.weyl_mul.term_pairs", "nc_torus.weyl_mul.calls",
                "nc_torus.curvature.calls_per_n4_op",
                "nc_torus.yang_mills.calls", "lattice_zeta.gammainc.calls",
                "lattice_zeta.value.calls", "suq2.tau0.series_terms",
                "suq2.tau0.calls", "suq2.tau0.hit_frac",
                "suq2.ladder_words_per_op",
                "suq2.LadderElem.matmul.word_pairs",
                "action_assembly.quad.calls", "cli.ops")


def _files(path):
    return {p.name: p.read_text() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = generate(workload, 7, tmp_path / "a")
    b = generate(workload, 7, tmp_path / "b")
    assert json.dumps(a).replace("/a/", "/b/") == json.dumps(b)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    c = generate(workload, 8, tmp_path / "c")
    assert (json.dumps(a).replace("/a/", "/c/"), _files(tmp_path / "a")) != (
        json.dumps(c), _files(tmp_path / "c"))


def test_torus_modes_are_distinct(tmp_path):
    for group in generate("torus-potentials", 3, tmp_path):
        doc = json.loads(open(group["ops"][0]["argv"][2]).read())
        keys = [(e["alpha"], tuple(e["l"])) for e in doc["A"]]
        signed = {(a, min(l, tuple(-x for x in l))) for a, l in keys}
        assert len(signed) == len(keys)


def _small(workload, groups):
    """A quick subset that still reaches every counted layer."""
    if workload == "torus-potentials":
        return [g for g in groups if g["n"] == 2 or "torus-0." in
                g["ops"][0]["argv"][2]]
    if workload == "zeta-grid":
        return groups[:2] + [next(g for g in groups if g["check"] == kind)
                             for kind in ("zeta-zero", "zeta-residue")]
    return groups


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    groups = _small(workload, generate(workload, 5, tmp_path))
    runs = []
    for _ in range(2):
        _, traced, rec, passes, overhead = traced_passes(cli_main, groups,
                                                         1e-9)
        assert traced.failed == 0, traced.errors
        metrics = per_layer(rec, traced, passes, 0.0, overhead)
        runs.append({k: metrics[k][0] for k in EXACT_COUNTS})
    assert runs[0] == runs[1]
    assert any(runs[0][k] for k in EXACT_COUNTS if k != "cli.ops")


def _reports(groups):
    """Run each group once; return (group, reports) per group."""
    out = []
    for group in groups:
        reports = []
        for op in group["ops"]:
            code, text, err, _ = run_op(cli_main, op["argv"])
            assert code == 0, err
            reports.append(json.loads(text))
        out.append((group, reports))
    return out


def _scale(node: dict, key: str, factor: float = 1.0 + 1e-6) -> None:
    value = node[key]
    if isinstance(value, dict):
        node[key] = {"re": value["re"] * factor, "im": value["im"] * factor}
    else:
        node[key] = value * factor


def _perturbations(group, reports):
    """Yield reports with one checked value moved by 1e-6 relative."""
    kind = group["check"]
    if kind == "torus":
        key = "zeta0_shift_power_sums" if group["n"] == 4 else "zeta0_shift"
        bad = copy.deepcopy(reports)
        if group["n"] == 4:
            _scale(bad[0][key], "value")
            yield bad
        bad = copy.deepcopy(reports)
        _scale(bad[0]["expansion"], "total")
        yield bad
    elif kind in ("zeta-pair", "zeta-zero"):
        bad = copy.deepcopy(reports)
        _scale(bad[0]["value"], "value")
        yield bad
    elif kind == "zeta-residue":
        bad = copy.deepcopy(reports)
        _scale(bad[0]["residue"], "value")
        yield bad
    elif kind in ("suq2-table", "suq2-linear"):
        # the largest of the integrals checked for both kinds; below 1e-2 a
        # 1e-6 relative change is under the series tolerance (1e-10)
        integrals = reports[0]["integrals"]
        key = max(LINEAR_INTEGRALS,
                  key=lambda k: abs(cval(integrals[k]["value"])))
        if abs(cval(integrals[key]["value"])) >= 1e-2:
            bad = copy.deepcopy(reports)
            _scale(bad[0]["integrals"][key], "value")
            yield bad
    else:
        bad = copy.deepcopy(reports)
        _scale(bad[0]["expansion"], "total")
        yield bad


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_flags_perturbed_reports(workload, tmp_path):
    flagged = set()
    for group, reports in _reports(_small(workload,
                                          generate(workload, 2, tmp_path))):
        assert all(err <= allowed
                   for _, err, allowed in check_group(group, reports))
        for bad in _perturbations(group, reports):
            assert any(not err <= allowed
                       for _, err, allowed in check_group(group, bad)), group
            flagged.add(group["check"])
    assert flagged == {"torus-potentials": {"torus"},
                       "zeta-grid": {"zeta-pair", "zeta-zero", "zeta-residue"},
                       "suq2-action": {"suq2-table", "suq2-linear",
                                       "action"}}[workload]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "zeta-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
