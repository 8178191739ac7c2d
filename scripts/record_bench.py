"""Record one point of the benchmark trajectory as BENCH_<k>.json.

Run from the root of a checkout:

    python3 scripts/record_bench.py --out BENCH_1.json

For each workload it runs `python3 -m perfbench` at the seed with
`--trace 0` and `--trace 1`, and keeps the result record (the JSON object
on the last line of standard output) with the run's provenance.  It adds
the git SHA of HEAD, the git tree of `src/` as staged (so a record made
before a commit names the sources it measured: `git rev-parse C:src` of
the commit C that holds them), the line count of `src/`, and the wall
times of the tier-1 suite and of `ncspectral selftest`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("torus-potentials", "zeta-grid", "suq2-action")
ROOT = Path.cwd()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def _timed(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "-m", "perfbench", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, env=_env(), check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()
    meta = next(json.loads(line[len("meta "):]) for line in lines
                if line.startswith("meta "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    sha, src_tree = (
        subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                       text=True).stdout.strip()
        for argv in (["git", "rev-parse", "HEAD"],
                     ["git", "write-tree", "--prefix=src/"]))
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    runs = {w: {f"trace{t}": _perfbench(w, args.seed, args.seconds, t)
                for t in (0, 1)} for w in WORKLOADS}
    tier1 = _timed([sys.executable, "-m", "pytest", "-q",
                    "--continue-on-collection-errors"])
    selftest = _timed([sys.executable, "-m", "ncspectral.cli", "selftest"])
    record = {"git_sha": sha, "src_tree": src_tree, "seed": args.seed,
              "seconds": args.seconds,
              "src_lines": src_lines, "tier1_wall_s": round(tier1, 2),
              "selftest_wall_s": round(selftest, 2), "perfbench": runs}
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
