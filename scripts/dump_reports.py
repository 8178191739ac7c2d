"""Write the report of every benchmark op to one tree, to compare two trees.

Run from the root of a checkout:

    python3 scripts/dump_reports.py --seeds 1-5 --out DIR
    python3 scripts/dump_reports.py --manifest scripts/reports.sha256
    python3 scripts/dump_reports.py --check scripts/reports.sha256

For each workload of `perfbench.gen` and each seed it generates the inputs
in a temporary directory and runs every op through `ncspectral.cli.main`
with `--out DIR/<workload>/<seed>/<k>.json`, k counting the ops from 0 in
the order of the op list.  An op that exits with a code other than 0
writes that code to `<k>.exit` instead.  The selftest's criterion lines
go to `DIR/selftest.txt`.  Two checkouts give the same reports and
criterion lines exactly when `diff -r` of their trees is empty.  Without
--out the tree goes to a temporary directory.

--manifest FILE writes the tree's manifest: a header of `# key: value`
lines (the seeds, and the platform the reports depend on: the machine,
the mantissa bits of np.longdouble and the numpy version), then one line
per file, sorted, with its path relative to the tree and its SHA-256.
--check FILE compares the tree with such a manifest, names each file that
differs, is missing or is extra, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

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


def platform_header(seeds: range) -> dict:
    """The manifest's header: the seeds, and what the bits of the reports
    depend on beyond the checkout."""
    return {"seeds": f"{seeds.start}-{seeds.stop - 1}",
            "machine": platform.machine(),
            "longdouble mantissa bits": str(np.finfo(np.longdouble).nmant),
            "numpy": np.__version__}


def digests(tree: Path) -> dict:
    """{path relative to tree: SHA-256} of every file under tree."""
    return {path.relative_to(tree).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tree.rglob("*")) if path.is_file()}


def write_manifest(path: Path, header: dict, files: dict) -> None:
    lines = [f"# {key}: {value}" for key, value in header.items()]
    lines += [f"{name} {digest}" for name, digest in sorted(files.items())]
    path.write_text("".join(f"{line}\n" for line in lines))


def read_manifest(path: Path) -> tuple:
    """(header, files) of a manifest that write_manifest wrote."""
    header, files = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line:
            name, _, digest = line.rpartition(" ")
            files[name] = digest
    return header, files


def check(path: Path, header: dict, files: dict) -> int:
    """Name on stderr each file that differs from the manifest at path, is
    missing or is extra; 1 if there is any, else 0."""
    expected_header, expected = read_manifest(path)
    for key, value in expected_header.items():
        if header.get(key) != value:
            print(f"note: the manifest was made with {key} {value}, this run "
                  f"has {header.get(key)}", file=sys.stderr)
    faults = [f"differs: {name}" for name in sorted(files.keys() & expected)
              if files[name] != expected[name]]
    faults += [f"missing: {name}" for name in sorted(expected.keys() - files)]
    faults += [f"extra: {name}" for name in sorted(files.keys() - expected)]
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{len(files)} files, {len(faults)} unlike {path.name}")
    return 1 if faults else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"),
                        help="a seed or an inclusive range such as 1-5")
    parser.add_argument("--out", type=Path,
                        help="the tree; a temporary directory if not given")
    parser.add_argument("--manifest", type=Path, metavar="FILE",
                        help="write the tree's manifest to FILE")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare the tree with the manifest FILE")
    args = parser.parse_args(argv)
    if not (args.out or args.manifest or args.check):
        parser.error("give --out, --manifest or --check")
    with tempfile.TemporaryDirectory() as scratch:
        out = args.out or Path(scratch)
        for workload in WORKLOADS:
            for seed in args.seeds:
                count = dump(workload, seed, out / workload / str(seed))
                print(f"{workload} seed {seed}: {count} ops")
        failures = dump_selftest(out)
        print(f"selftest: {failures} failing criteria")
        header, files = platform_header(args.seeds), digests(out)
    if args.manifest:
        write_manifest(args.manifest, header, files)
    return check(args.check, header, files) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
