"""Write the report of every benchmark op to one tree, to compare two trees.

Run from the root of a checkout:

    python3 scripts/dump_reports.py --seeds 1-5 --out DIR

For each workload of `perfbench.gen` and each seed it generates the inputs
in a temporary directory and runs every op through `ncspectral.cli.main`
with `--out DIR/<workload>/<seed>/<k>.json`, k counting the ops from 0 in
the order of the op list.  An op that exits with a code other than 0
writes that code to `<k>.exit` instead.  The selftest's criterion lines
go to `DIR/selftest.txt`.  Two checkouts give the same reports and
criterion lines exactly when `diff -r` of their trees is empty.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ncspectral import acceptance  # noqa: E402
from ncspectral.cli import main as cli_main  # noqa: E402
from perfbench.gen import WORKLOADS, generate  # noqa: E402


def _seeds(text: str) -> range:
    """'3' or '1-5' (inclusive)."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def dump(workload: str, seed: int, outdir: Path) -> int:
    """Reports of one workload at one seed; returns the number of ops."""
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as inputs:
        ops = [op for group in generate(workload, seed, inputs)
               for op in group["ops"]]
        for k, op in enumerate(ops):
            code = cli_main(op["argv"] + ["--out", str(outdir / f"{k}.json")])
            if code != 0:
                (outdir / f"{k}.exit").write_text(f"{code}\n")
    return len(ops)


def dump_selftest(outdir: Path) -> int:
    """The selftest's criterion lines; returns the number of failures."""
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    failures = acceptance.run_all(report=lines.append)
    (outdir / "selftest.txt").write_text("".join(f"{x}\n" for x in lines))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"),
                        help="a seed or an inclusive range such as 1-5")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        for seed in args.seeds:
            count = dump(workload, seed, args.out / workload / str(seed))
            print(f"{workload} seed {seed}: {count} ops")
    failures = dump_selftest(args.out)
    print(f"selftest: {failures} failing criteria")
    return 0


if __name__ == "__main__":
    sys.exit(main())
