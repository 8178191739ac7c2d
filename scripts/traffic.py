"""List the library functions that no benchmark op enters.

Run from the root of a checkout:

    python3 scripts/traffic.py --seeds 1-5

For each workload of `perfbench.gen` and each seed it generates the inputs
in a temporary directory, as `dump_reports.py` does, and runs every op
through `ncspectral.cli.main` in this one process, with its report sent to
that directory.  A `sys.settrace` hook notes each function of
`src/ncspectral` that is entered.  The script then prints every function,
method and nested function of `cli`, `lattice_zeta`, `nc_torus`, `suq2` and
`action_assembly` that no op entered, one `module.qualified_name` a line.
After that list it prints the modules the ops loaded beyond those present
after `import ncspectral.cli`, one line per top-level package, or that
there are none, so that an op which starts to import, say, a scipy
subpackage shows here.  It writes nothing in the checkout.

The names are checked against the committed list `traffic_list.txt` next
to this script, which gives each its reason.  The script exits 1, naming
each fault on stderr, when a function that no op entered is not on the
list, when a listed name is entered by an op or no longer defined, or
when a name listed as `tracer-pinned` is not a function that
`perfbench/tracing.py` wraps; else it exits 0.  The list holds for
`--seeds 1` and for seeds 1-5.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
# dump_reports puts the checkout's src and root first on sys.path
from dump_reports import ROOT, _seeds  # noqa: E402
from ncspectral.cli import main as cli_main  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.gen import WORKLOADS, generate  # noqa: E402

# the modules of `import ncspectral.cli` and of this script's own imports
IMPORTED = frozenset(sys.modules)

PACKAGE = ROOT / "src" / "ncspectral"
MODULES = ("cli", "lattice_zeta", "nc_torus", "suq2", "action_assembly")
LIST = Path(__file__).with_name("traffic_list.txt")


def defined_functions(path: Path) -> dict:
    """{(first line, name) of the code object: qualified name} of every
    function in the file; a decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                               child.decorator_list])
                found[first, child.name] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def entered_functions(seeds) -> tuple:
    """(file name, first line, name) of each package function the ops
    entered, and the names of the modules they loaded."""
    entered, loaded = set(), set()
    package = str(PACKAGE)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno,
                         code.co_name))
        # no line events: only calls are noted

    for workload in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                ops = [op for group in generate(workload, seed, tmp)
                       for op in group["ops"]]
                failed = 0
                sys.settrace(trace)
                try:
                    for op in ops:
                        out = str(Path(tmp) / "report.json")
                        failed += cli_main(op["argv"] + ["--out", out]) != 0
                finally:
                    sys.settrace(None)
                loaded.update(set(sys.modules) - IMPORTED)
            print(f"{workload} seed {seed}: {len(ops)} ops, "
                  f"{failed} non-zero exits", file=sys.stderr)
    return entered, loaded


def read_list(path: Path) -> dict:
    """{name: reason} of the list: one `name: reason` a line; blank lines
    and lines that start with # are skipped."""
    listed = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(":")
            if not reason.strip():
                raise SystemExit(f"{path.name}:{number}: {name} has no reason")
            listed[name.strip()] = reason.strip()
    return listed


def traced_names() -> set:
    """`module.path` of each function that perfbench's tracer wraps: the
    entries of SPANS and COUNTS, and the tau0 that `Recorder.__enter__`
    patches by name.  Package modules are named as in the list, without
    `ncspectral.`."""
    pairs = [(module, path) for module, path, *_ in
             tracing.SPANS + tracing.COUNTS] + [("ncspectral.suq2", "tau0")]
    return {f"{module.removeprefix('ncspectral.')}.{path}"
            for module, path in pairs}


def package_summary(modules) -> list:
    """One line per top-level package of the modules: its name, the number
    of its modules in parentheses, and the first six of their subpackages."""
    groups: dict = {}
    for name in modules:
        groups.setdefault(name.split(".")[0], set()).add(name)
    lines = []
    for top, names in sorted(groups.items()):
        subs = sorted({".".join(n.split(".")[:2]) for n in names})
        more = f", and {len(subs) - 6} more" if len(subs) > 6 else ""
        lines.append(f"{top} ({len(names)}): {', '.join(subs[:6])}{more}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"),
                        help="a seed or an inclusive range such as 1-5")
    args = parser.parse_args(argv)
    listed = read_list(LIST)
    entered, loaded = entered_functions(args.seeds)
    defined, unentered = set(), {}  # a dict keeps the order of the files
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        for key, name in sorted(defined_functions(path).items()):
            defined.add(f"{module}.{name}")
            if (str(path), *key) not in entered:
                unentered[f"{module}.{name}"] = None
    for name in unentered:
        print(name)
    print("modules the ops loaded beyond import ncspectral.cli:"
          + ("" if loaded else " none"))
    for line in package_summary(loaded):
        print(f"  {line}")
    faults = [f"{name}: no op enters it, and {LIST.name} does not list it"
              for name in unentered if name not in listed]
    faults += [f"{name}: listed in {LIST.name}, but "
               + ("an op enters it" if name in defined else "not defined")
               for name in listed if name not in unentered]
    traced = traced_names()
    faults += [f"{name}: listed as tracer-pinned, but perfbench.tracing "
               f"wraps no such function"
               for name, reason in listed.items()
               if reason.startswith("tracer-pinned") and name not in traced]
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
