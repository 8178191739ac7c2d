"""Set-up probe: one fresh interpreter taken to ready, timed by its parent.

Ready means: ncspectral.cli imported, the workload inputs generated and
loaded, and one untimed warm-up op run.  It prints "ready" when it gets
there and exits.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from . import ROOT_SRC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT_SRC))
    from ncspectral.cli import main as cli_main

    from .gen import generate
    from .run import warm_up

    try:
        warm = warm_up(cli_main, generate(args.workload, args.seed, args.work))
        if warm.failed:
            print(warm.errors[0], file=sys.stderr)
            return 1
        print("ready", flush=True)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
