"""The reports of seeds 1-5 against the committed manifest
scripts/reports.sha256, through `scripts/dump_reports.py --check`."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "dump_reports.py"
MANIFEST = ROOT / "scripts" / "reports.sha256"


def dump_reports():
    spec = importlib.util.spec_from_file_location("dump_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeds_1_to_5_reports_match_the_manifest():
    script = dump_reports()
    header, files = script.read_manifest(MANIFEST)
    assert header["seeds"] == "1-5" and files
    here = script.platform_header(range(1, 6))
    for key, value in header.items():
        if here[key] != value:
            pytest.skip(f"the manifest was made with {key} {value}; this "
                        f"platform has {here[key]}")
    run = subprocess.run([sys.executable, str(SCRIPT), "--check",
                          str(MANIFEST)], cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
