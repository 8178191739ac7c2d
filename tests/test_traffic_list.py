"""The functions that no benchmark op enters against the committed list
scripts/traffic_list.txt, through `scripts/traffic.py --seeds 1`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "traffic.py"


def test_seed_1_matches_the_traffic_list():
    run = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "1"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
