"""Seeded end-to-end and per-layer benchmark of the ncspectral CLI.

Run it from the repository root:

    python3 -m perfbench --workload torus-potentials --seed 1 --seconds 25 --trace 0

See perfbench/README.md for the workloads, metrics and predictions.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROOT_SRC = ROOT / "src"
# generated inputs, result files and spans; listed in .gitignore
WORK = ROOT / ".perfbench"
