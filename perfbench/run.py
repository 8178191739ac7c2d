"""Benchmark runner: seeded closed-loop workloads through ncspectral.cli.main.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

One client in one thread calls ncspectral.cli.main(argv) in-process; each op
starts when the previous one has returned.  The op list of a workload is
run in whole passes until --seconds have gone by, and every report is
checked against an independent route (checks.py).

--trace 0 prints the end-to-end metrics.  Op times are each op's best over
the passes, scaled by the speed of a fixed reference kernel (see
best_latencies);
set-up time comes from fresh interpreters started for it.  --trace 1 runs
untraced and traced passes in turn and prints the per-layer metrics of one
traced pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any op failed, 2
when the sources are missing or a helper process failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

from . import ROOT, ROOT_SRC, WORK
from .checks import check_group, margin
from .gen import WORKLOADS, generate
from .tracing import Recorder

# Percentile of the per-op best latencies: the highest with at least ten
# samples (ops beyond it times passes) beyond it when the benchmark was
# defined, fixed so that every later commit reports the same percentile.
TAIL_PERCENTILE = {"torus-potentials": 88, "zeta-grid": 90,
                   "suq2-action": 97}
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
# Reported times are scaled to a machine that runs reference_kernel in this
# time; see best_latencies.
REF_KERNEL_S = 4e-3


class HelperError(RuntimeError):
    """A helper process of the benchmark did not do its job."""


def run_op(cli_main, argv):
    """Call the CLI in-process; return (exit code, stdout, stderr, seconds).

    A SystemExit (argparse) or an exception gives a code that is not 0.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception:  # noqa: BLE001 - every exception is an op failure
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def reference_kernel() -> float:
    """Fixed pure-Python work over a few thousand boxed keys and values."""
    table = {}
    for i in range(6000):
        key = (i % 1500, (i * 7) % 13)
        table[key] = table.get(key, 0j) + complex(math.cos(i), math.sin(i))
    return sum(abs(v) for v in table.values())


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Tally:
    """Everything the passes of one phase observed."""

    def __init__(self):
        self.latencies = []
        self.refs = []  # reference-kernel time just before each op
        self.kinds = []  # (cmd, n) per attempted op, indexed by op id
        self.failed = 0
        self.errors = []
        self.worst_margin = 0.0
        self.worst_check = ""
        self.bound_ratio = 0.0  # zeta tail bound / requested tolerance
        self.ladder_words = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def observe(self, report: dict) -> None:
        if report.get("command") == "zeta" and "value" in report:
            bound = report["value"]["tail_bound"] / report["tolerance"]
            self.bound_ratio = max(self.bound_ratio, bound)
        if report.get("command") == "suq2":
            self.ladder_words.append(report["ladder_words"])


def run_pass(cli_main, groups, tally: Tally, rec: Recorder | None = None):
    for group in groups:
        reports, bad = [], 0
        for op in group["ops"]:
            if rec is not None:
                rec.op = tally.attempted
            tally.refs.append(time_reference())
            code, out, err, seconds = run_op(cli_main, op["argv"])
            tally.latencies.append(seconds)
            tally.kinds.append((op["cmd"], group.get("n")))
            report = None
            if code == 0:
                try:
                    report = json.loads(out)
                except ValueError as exc:
                    err = f"unreadable report: {exc}"
            if report is None:
                bad += 1
                tally.fail(1, f"{' '.join(op['argv'])}: exit {code}: "
                              f"{err.strip()[-300:]}")
            else:
                tally.observe(report)
            reports.append(report)
        if bad:
            continue
        try:
            items = check_group(group, reports)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            items = [(f"{group['check']}: check raised {exc!r}", math.inf, 0.0)]
        failures = []
        for label, err, allowed in items:
            m = margin(err, allowed)
            if m > tally.worst_margin:
                tally.worst_margin, tally.worst_check = m, label
            if not err <= allowed:
                failures.append(f"{label}: err {err:.3e} > {allowed:.3e}")
        if failures:
            tally.fail(len(group["ops"]), "; ".join(failures))


def warm_up(cli_main, groups) -> Tally:
    """Run the first op of the list once, untimed; a failure counts."""
    tally = Tally()
    op = groups[0]["ops"][0]
    code, _, err, seconds = run_op(cli_main, op["argv"])
    tally.latencies.append(seconds)
    tally.kinds.append((op["cmd"], groups[0].get("n")))
    if code != 0:
        tally.fail(1, f"warm-up {' '.join(op['argv'])}: exit {code}: "
                      f"{err.strip()[-300:]}")
    return tally


def run_passes(cli_main, groups, seconds: float, tally: Tally) -> int:
    """Whole passes until `seconds` have gone by; returns the pass count."""
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(cli_main, groups, tally)
        passes += 1
        if time.perf_counter() - start >= seconds:
            return passes


def traced_passes(cli_main, groups, seconds: float):
    """Untraced and traced passes in turn until `seconds` have gone by.

    Alternating, and scaling each pass as in best_latencies, keeps slow
    phases of the machine from landing on one side of trace.overhead_frac.
    Returns both tallies, the recorder, the number of traced passes and the
    overhead.
    """
    untraced, traced = Tally(), Tally()
    rec = Recorder()
    traced_main = rec.span("cli.main", cli_main)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(cli_main, groups, untraced)
        with rec:
            run_pass(traced_main, groups, traced, rec)
        passes += 1
    overhead = (_scaled_total(traced, passes)
                / _scaled_total(untraced, passes) - 1.0)
    return untraced, traced, rec, passes, overhead


def _scaled_total(tally: Tally, passes: int) -> float:
    return sum(t * f for t, f in zip(tally.latencies,
                                     pass_scales(tally, passes)))


# ---------------------------------------------------------------------------
# helper processes


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT_SRC) + (
        os.pathsep + path if path else ""))


def setup_seconds(workload: str, seed: int) -> tuple:
    """Fresh interpreter to ready, once per probe (see probe.py).

    Returns the raw times and the times scaled by the reference kernel's
    best of five runs just before each probe.
    """
    times, scaled = [], []
    for i in range(SETUP_PROBES):
        ref = min(time_reference() for _ in range(5))
        argv = [sys.executable, "-m", "perfbench.probe", "--workload",
                workload, "--seed", str(seed), "--work",
                str(WORK / f"probe-{os.getpid()}-{i}")]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                line = (proc.stdout.readline()
                        if sel.select(CHILD_TIMEOUT_S) else "")
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise HelperError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
        scaled.append(elapsed * REF_KERNEL_S / ref)
    return times, scaled


def import_seconds(module: str = "ncspectral.action_assembly") -> float:
    """Cumulative import time of `module` in a fresh `-X importtime` run."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ncspectral.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise HelperError(f"no import time for {module}: {proc.stderr[-500:]}")


# ---------------------------------------------------------------------------
# metrics


def pass_scales(tally: Tally, passes: int) -> list:
    """Per op: REF_KERNEL_S / the fastest reference-kernel time of its pass."""
    per_pass = tally.attempted // passes
    scale = []
    for p in range(passes):
        best_ref = min(tally.refs[p * per_pass:(p + 1) * per_pass])
        scale += [REF_KERNEL_S / best_ref] * per_pass
    return scale


def best_latencies(tally: Tally, passes: int) -> tuple:
    """Per op of the list, its best latency over the passes; raw and scaled.

    Scaled latencies are multiplied by REF_KERNEL_S over the fastest
    reference-kernel time of their own pass.  On a shared virtual machine
    (2 vCPU, Intel Xeon) pure Python ran up to 1.8x slower for 10 s or
    more at a time, and the best latency of one op moved between runs by
    up to 40%; its ratio to the kernel's best in the same 15 s stayed
    within about 3%.  Both lists are sorted.
    """
    per_pass = tally.attempted // passes
    lat = tally.latencies
    scale = pass_scales(tally, passes)
    raw = sorted(min(lat[i::per_pass]) for i in range(per_pass))
    scaled = sorted(min(t * f for t, f in zip(lat[i::per_pass],
                                              scale[i::per_pass]))
                    for i in range(per_pass))
    return raw, scaled


def end_to_end(workload: str, tally: Tally, passes: int,
               setup: tuple) -> tuple:
    raw, best = best_latencies(tally, passes)
    pct = TAIL_PERCENTILE[workload]
    rank = math.ceil(pct / 100 * len(best))
    metrics = {
        "ops_per_s": (len(best) / sum(best), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_tail_ms": (1000 * best[rank - 1], "ms"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    unscaled = {"ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": 1000 * statistics.median(raw),
                "op_tail_ms": 1000 * raw[rank - 1],
                "setup_s": statistics.median(setup[0])}
    notes = {"op_tail_ms": f"p{pct} of {len(best)} ops x {passes} passes, "
                           f"{(len(best) - rank) * passes} samples beyond it",
             "setup_s": "median of "
                        + ", ".join(f"{t:.4f}" for t in setup[1]),
             "unscaled": unscaled}
    return metrics, notes


def per_layer(rec: Recorder, tally: Tally, passes: int, import_s: float,
              overhead: float) -> dict:
    busy, calls = defaultdict(float), Counter()
    for name, start, end, _, _ in rec.spans:
        busy[name] += end - start
        calls[name] += 1
    own = rec.self_times()
    ops = tally.attempted
    cli_self = sum(t for t, span in zip(own, rec.spans) if span[0] == "cli.main")
    n4_ops = {i for i, kind in enumerate(tally.kinds) if kind == ("torus", 4)}
    n4_curvature = sum(1 for span in rec.spans
                       if span[0] == "nc_torus.curvature" and span[4] in n4_ops)
    counts = rec.counts
    words = tally.ladder_words

    def per_pass(x):
        return x / passes

    return {
        "cli.self_ms": (1000 * cli_self / ops, "ms"),
        "cli.ops": (per_pass(ops), "count"),
        "lattice_zeta.value.busy_s": (per_pass(busy["lattice_zeta.value"]), "s"),
        "lattice_zeta.value.calls": (per_pass(calls["lattice_zeta.value"]),
                                     "count"),
        "lattice_zeta.gammainc.calls": (
            per_pass(counts["lattice_zeta.gammainc.calls"]), "count"),
        "lattice_zeta.pole_fit.busy_s": (
            per_pass(busy["lattice_zeta.pole_fit"]), "s"),
        "lattice_zeta.radial_counts.calls": (
            per_pass(counts["lattice_zeta.radial_counts.calls"]), "count"),
        "lattice_zeta.worst_bound_over_tol": (tally.bound_ratio, "ratio"),
        "nc_torus.weyl_mul.busy_s": (per_pass(busy["nc_torus.weyl_mul"]), "s"),
        "nc_torus.weyl_mul.calls": (per_pass(calls["nc_torus.weyl_mul"]),
                                    "count"),
        "nc_torus.weyl_mul.term_pairs": (
            per_pass(counts["nc_torus.weyl_mul.term_pairs"]), "count"),
        "nc_torus.curvature.calls_per_n4_op": (
            n4_curvature / len(n4_ops) if n4_ops else 0.0, "count"),
        "nc_torus.curvature.busy_s": (per_pass(busy["nc_torus.curvature"]),
                                      "s"),
        "nc_torus.yang_mills.busy_s": (per_pass(busy["nc_torus.yang_mills"]),
                                       "s"),
        "nc_torus.yang_mills.calls": (per_pass(calls["nc_torus.yang_mills"]),
                                      "count"),
        **{f"nc_torus.cs_sums.q{q}.busy_s": (
            per_pass(busy[f"nc_torus.cs_sums.q{q}"]), "s") for q in (2, 3, 4)},
        "nc_torus.load_potential.busy_s": (
            per_pass(busy["nc_torus.load_potential"]), "s"),
        "suq2.one_form_from_pairs.busy_s": (
            per_pass(busy["suq2.one_form_from_pairs"]), "s"),
        "suq2.ladder_words_per_op": (
            sum(words) / len(words) if words else 0.0, "count"),
        "suq2.LadderElem.matmul.word_pairs": (
            per_pass(counts["suq2.LadderElem.matmul.word_pairs"]), "count"),
        "suq2.hopf_r.busy_s": (per_pass(busy["suq2.hopf_r"]), "s"),
        "suq2.nc_integral.busy_s": (per_pass(busy["suq2.nc_integral"]), "s"),
        "suq2.tau0.calls": (per_pass(counts["suq2.tau0.calls"]), "count"),
        "suq2.tau0.series_terms": (
            per_pass(counts["suq2.tau0.series_terms"]), "count"),
        "suq2.tau0.hit_frac": (
            counts["suq2.tau0.hits"] / counts["suq2.tau0.calls"]
            if counts["suq2.tau0.calls"] else 0.0, "ratio"),
        "suq2.suq2_action.busy_s": (per_pass(busy["suq2.suq2_action"]), "s"),
        "action_assembly.import_s": (import_s, "s"),
        "action_assembly.cutoff_moments.busy_s": (
            per_pass(busy["action_assembly.cutoff_moments"]), "s"),
        "action_assembly.quad.calls": (
            per_pass(counts["action_assembly.quad.calls"]), "count"),
        "action_assembly.assemble.busy_s": (
            per_pass(busy["action_assembly.assemble"]), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "check.worst_err_over_tol": (tally.worst_margin, "ratio"),
    }


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import mpmath
    import numpy
    import scipy
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"git_sha": git_sha(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": nproc, "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


# ---------------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT_SRC / "ncspectral" / "cli.py").is_file():
        print(f"perfbench: no ncspectral sources under {ROOT_SRC}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"inputs-{os.getpid()}"
    try:
        return _run(args, inputs)
    except (HelperError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def _run(args, inputs) -> int:
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    import_s = import_seconds() if args.trace else 0.0

    sys.path.insert(0, str(ROOT_SRC))
    from ncspectral.cli import main as cli_main

    groups = generate(args.workload, args.seed, inputs)
    warm = warm_up(cli_main, groups)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        untraced, tally, rec, passes, overhead = traced_passes(
            cli_main, groups, args.seconds)
        tallies = [warm, untraced, tally]
        metrics = per_layer(rec, tally, passes, import_s, overhead)
        notes = {"traced_passes": passes, "spans": len(rec.spans)}
        rec.write(WORK / f"spans-{tag}.jsonl")
    else:
        tally = Tally()
        passes = run_passes(cli_main, groups, args.seconds, tally)
        tallies = [warm, tally]
        metrics, notes = end_to_end(args.workload, tally, passes, setup)
        notes["passes"] = passes
        notes["latencies"] = tally.latencies
    failed = sum(t.failed for t in tallies)
    attempted = sum(t.attempted for t in tallies)
    notes["worst_check"] = tally.worst_check
    notes["errors"] = [e for t in tallies for e in t.errors]

    meta = provenance(args)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {k: {"value": v, "unit": u}
                                            for k, (v, u) in metrics.items()}}
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"meta": meta, "notes": notes, **result}, indent=2, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    for message in notes["errors"]:
        print("FAILED " + message)
    print(f"attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.6g})")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:40s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps(result))
    return 0 if failed == 0 else 1
