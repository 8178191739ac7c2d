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

It also records `shell_s`: per subcommand (`suq2`, `torus`, `action`,
`zeta`), the best and the median wall time of --shell-k fresh
`python -m ncspectral.cli` processes, run in turn across the subcommands.
Each runs the first op of its kind that `perfbench.gen` writes at the seed;
its argv is kept, with the input directory written as INPUTS.  The
benchmark harness cannot show these, as its own imports load numpy and
mpmath into the process it measures.  With --shell-only it times only the
shell calls, of the subcommands named (all four by default), prints them
as JSON and writes no record:

    python3 scripts/record_bench.py --shell-only suq2 zeta --shell-k 9
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.gen import WORKLOADS, generate  # noqa: E402

SHELL_COMMANDS = ("suq2", "torus", "action", "zeta")


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


def shell_seconds(seed: int, k: int, commands=SHELL_COMMANDS) -> dict:
    """{subcommand: {best_s, median_s, k, argv}} of k fresh CLI processes
    per subcommand, on the first op of its kind that perfbench.gen writes
    at the seed."""
    with tempfile.TemporaryDirectory() as inputs:
        first = {}
        for workload in WORKLOADS:
            for group in generate(workload, seed, Path(inputs) / workload):
                for op in group["ops"]:
                    first.setdefault(op["cmd"], op["argv"])
        times = {cmd: [] for cmd in commands}
        for _ in range(k):
            for cmd in commands:
                times[cmd].append(_timed(
                    [sys.executable, "-m", "ncspectral.cli", *first[cmd]]))
        return {cmd: {"best_s": round(min(ts), 4),
                      "median_s": round(statistics.median(ts), 4), "k": k,
                      "argv": [a.replace(inputs, "INPUTS")
                               for a in first[cmd]]}
                for cmd, ts in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--shell-k", type=int, default=9,
                        help="fresh CLI processes per subcommand")
    parser.add_argument("--shell-only", nargs="*", choices=SHELL_COMMANDS,
                        help="time only these subcommands' shell calls "
                             "(default all) and print them")
    args = parser.parse_args(argv)
    if args.shell_k < 1:
        parser.error("--shell-k must be at least 1")
    if args.shell_only is not None:
        shell = shell_seconds(args.seed, args.shell_k,
                              args.shell_only or SHELL_COMMANDS)
        print(json.dumps(shell, indent=2, sort_keys=True))
        return 0
    if args.out is None:
        parser.error("--out is required unless --shell-only is given")

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
    shell = shell_seconds(args.seed, args.shell_k)
    record = {"git_sha": sha, "src_tree": src_tree, "seed": args.seed,
              "seconds": args.seconds,
              "src_lines": src_lines, "tier1_wall_s": round(tier1, 2),
              "selftest_wall_s": round(selftest, 2), "shell_s": shell,
              "perfbench": runs}
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
