"""Batch command line: zeta values, torus and SU_q(2) runs, assembly, selftest.

Reports are JSON with sorted keys and fixed float formatting, so a run is
byte-identical for a given configuration.
Exit codes: 0 ok, 2 schema error, 3 tolerance failure, 4 unsupported input.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

from .action_assembly import (AssumptionError, PoleError, ToleranceError,
                              assemble, cutoff_moments, jsonable, lazy_module,
                              load_action)

# each subcommand's module runs on the subcommand's first use, so a call
# loads only what it runs (numpy for torus and table cutoffs, mpmath for
# zeta); they are registered in sys.modules, where the traced benchmark run
# looks up the functions it wraps (its scan of them runs acceptance, whose
# oracles register the scipy.integrate it counts, so acceptance must stay)
acceptance = lazy_module("ncspectral.acceptance")
lz = lazy_module("ncspectral.lattice_zeta")
nt = lazy_module("ncspectral.nc_torus")
suq2 = lazy_module("ncspectral.suq2")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_TOLERANCE = 3
EXIT_UNSUPPORTED = 4


class SchemaError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


def report_text(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) in one
    pass, without the generators of json's indenting encoder; a key that is
    not a str raises TypeError, and NaN and +-inf raise ValueError."""
    parts, encode = [], json.encoder.encode_basestring_ascii
    put = parts.append

    def write(obj, newline):
        # newline: a line break and the indentation of obj's own line
        if isinstance(obj, str):
            put(encode(obj))
        elif isinstance(obj, float):
            if not math.isfinite(obj):
                raise ValueError(f"{obj!r} is not a JSON number")
            put(float.__repr__(obj))
        elif isinstance(obj, dict):
            inner, separator = newline + "  ", "{"
            for key, value in sorted(obj.items()):
                put(separator + inner + encode(key) + ": ")
                write(value, inner)
                separator = ","
            put(newline + "}" if obj else "{}")
        elif isinstance(obj, (list, tuple)):
            inner, separator = newline + "  ", "["
            for value in obj:
                put(separator + inner)
                write(value, inner)
                separator = ","
            put(newline + "]" if obj else "[]")
        elif obj is None or isinstance(obj, int):
            put("null" if obj is None else "true" if obj is True
                else "false" if obj is False else int.__repr__(obj))
        else:
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")

    write(doc, "\n")
    return "".join(parts)


def _emit(doc: dict, path: str | None) -> None:
    try:
        text = report_text(doc)
    except ValueError as exc:
        raise NonFiniteError(
            "the report holds a non-finite number (overflow or NaN)") from exc
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SchemaError(f"cannot write report to {path}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither inf nor NaN."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise SchemaError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise SchemaError(f"{text!r} is not a finite number")
    return value


def _load_json(path: str, parse):
    """parse(the JSON at path); a read or parse failure is a SchemaError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    # the decoder recurses once per level of nesting
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"cannot read input file {path}: {exc}") from exc
    try:
        return parse(doc)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def _run_zeta(args) -> dict:
    ev = lz.EpsteinEvaluator(args.n, tol=args.tol)
    report = {"command": "zeta", "n": args.n, "tolerance": args.tol}
    if args.residue:
        report["residue"] = {"value": ev.residue(), "provenance": "analytic"}
        report["pole_fit"] = {
            "value": lz.epstein_pole_fit(args.n, tol=args.tol),
            "provenance": f"trapezoid rule, {lz.CONTOUR_NODES} nodes on "
                          f"|s - n| = {lz.CONTOUR_RADIUS:g}"}
    else:
        s = _parse_complex("0" if args.s is None else args.s)
        out = ev.value(s)
        report["s"] = jsonable(s)
        report["value"] = {"value": jsonable(out.value),
                           "provenance": out.route,
                           "tail_bound": out.bound}
    return report


def _run_torus(args) -> dict:
    parsed = _load_json(args.input, nt.load_potential)
    n, theta, flag, A = (parsed["n"], parsed["theta"],
                         parsed["diophantine_asserted"], parsed["A"])
    if n not in (2, 4):
        raise ValueError(f"torus action implemented for n in {{2, 4}}, got {n}")
    moments = cutoff_moments({"family": args.cutoff}, [1, 2, 3, 4][:n])
    ym = nt.yang_mills(A, theta)
    report = {
        "command": "torus",
        "n": n,
        "diophantine_asserted": flag,
        "yang_mills": {"value": ym, "provenance": "curvature double trace"},
        "moments": moments.to_dict(),
    }
    if n == 4:
        sums = [nt.cs_sums(A, theta, q) for q in (2, 3, 4)]
        report["power_sums"] = {
            str(q): {"value": v, "provenance": "closed finite sum"}
            for q, v in zip((2, 3, 4), sums)}
        zshift_sums = 2.0 * sum((-1.0) ** q / q * v
                                for q, v in zip((2, 3, 4), sums))
        report["zeta0_shift_power_sums"] = {
            "value": zshift_sums, "provenance": "alternating power sums"}
    shift = nt.zeta0_shift(A, theta, diophantine_asserted=flag)
    report["zeta0_shift"] = {"value": shift,
                             "provenance": "curvature closed form"}
    report["expansion"] = nt.torus_action(n, shift, moments,
                                          args.lam).to_dict()
    return report


def _run_suq2(args) -> dict:
    q_file, pairs = _load_json(args.one_form, suq2.load_one_form)
    q = args.q if args.q is not None else q_file
    if q is None:
        raise SchemaError("q missing: pass --q or put it in the input file")
    ctx = suq2.QContext(q, tol=args.tol)
    try:
        A = suq2.one_form_from_pairs(pairs)
    except ValueError as exc:  # a word that overflows
        raise SchemaError(str(exc)) from exc
    moments = cutoff_moments({"family": args.cutoff}, [1, 2, 3])
    out = suq2.suq2_action(A, ctx, moments, args.lam,
                           with_reality=not args.no_reality)
    report = {
        "command": "suq2",
        "q": q,
        "with_reality": not args.no_reality,
        "tolerance": ctx.tol,
        "ladder_words": len(A.words),
        "integrals": {k: {"value": jsonable(v),
                          "provenance": "tau functionals on half-line legs"}
                      for k, v in out["integrals"].items()},
        "zeta0": {"value": jsonable(out["zeta0"]),
                  "provenance": "fluctuation assembly"},
        "coefficients": {str(k): jsonable(v)
                         for k, v in out["coefficients"].items()},
        "moments": moments.to_dict(),
        "expansion": out["report"].to_dict(),
    }
    return report


def _run_action(args) -> dict:
    cutoff, lam, coeffs, zeta0 = _load_json(args.input, load_action)
    moments = cutoff_moments(cutoff, sorted(coeffs))
    rep = assemble(coeffs, zeta0, moments, lam)
    return {"command": "action", "moments": moments.to_dict(),
            "expansion": rep.to_dict()}


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> tuple:
    """The parser and its subparsers by name, unchanged by parsing."""
    parser = argparse.ArgumentParser(
        prog="ncspectral",
        description="Spectral-action coefficients on the noncommutative "
                    "torus and SU_q(2)")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--tol": dict(type=_finite_float, default=1e-10,
                      help="accuracy the reported values must meet"),
        "--out": dict(default=None, help="write the report here"),
    }

    def options(p, *names):
        for name in names:
            p.add_argument(name, **shared[name])

    p_zeta = sub.add_parser("zeta", help="Epstein zeta values and residues")
    p_zeta.add_argument("--n", type=int, required=True)
    # --s and --residue exclude each other: a residue run reads no s
    mode = p_zeta.add_mutually_exclusive_group()
    mode.add_argument("--s", default=None, help="the argument s (default 0)")
    mode.add_argument("--residue", action="store_true",
                      help="report the residue at s = n instead of a value")
    options(p_zeta, "--tol", "--out")

    p_torus = sub.add_parser("torus", help="noncommutative-torus action")
    p_torus.add_argument("--input", required=True,
                         help="JSON potential {n, theta, diophantine_asserted, A}")
    p_torus.add_argument("--lambda", dest="lam", type=_finite_float,
                         required=True)
    p_torus.add_argument("--cutoff", default="exponential",
                         choices=["exponential", "gaussian"])
    options(p_torus, "--out")

    p_suq2 = sub.add_parser("suq2", help="SU_q(2) spectral action")
    p_suq2.add_argument("--q", type=_finite_float, default=None)
    p_suq2.add_argument("--one-form", required=True,
                        help="JSON one-form {q, one_form: [{x, y, coeff}]}")
    p_suq2.add_argument("--lambda", dest="lam", type=_finite_float,
                        default=1.0)
    p_suq2.add_argument("--cutoff", default="exponential",
                        choices=["exponential", "gaussian"])
    p_suq2.add_argument("--no-reality", action="store_true",
                        help="drop the real-structure doubling")
    options(p_suq2, "--tol", "--out")

    p_action = sub.add_parser("action", help="assemble an expansion from "
                                             "coefficients and a cutoff")
    p_action.add_argument("--input", required=True,
                          help="JSON {cutoff, lambda, coefficients, zeta0}")
    options(p_action, "--out")

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    if argv and argv[0] in commands:  # one parse, by the subcommand's parser
        args = commands[argv[0]].parse_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    else:  # no name, -h or an unknown name: the top-level usage and help
        args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            failures = acceptance.run_all(report=print)
            return EXIT_TOLERANCE if failures else EXIT_OK
        runner = {"zeta": _run_zeta, "torus": _run_torus,
                  "suq2": _run_suq2, "action": _run_action}[args.command]
        _emit(runner(args), args.out)
    except (SchemaError, AssumptionError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (PoleError, MemoryError, ValueError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
