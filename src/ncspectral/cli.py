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

from . import acceptance
from . import lattice_zeta as lz
from . import nc_torus as nt
from . import suq2
from .action_assembly import assemble, cutoff_moments

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_TOLERANCE = 3
EXIT_UNSUPPORTED = 4


class SchemaError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


def _cnum(x) -> dict | float:
    x = complex(x)
    if x.imag == 0:
        return x.real
    return {"re": x.real, "im": x.imag}


def _emit(doc: dict, path: str | None) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
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


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read input file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _run_zeta(args) -> dict:
    ev = lz.EpsteinEvaluator(args.n, tol=args.tol)
    report = {"command": "zeta", "n": args.n, "tolerance": args.tol}
    if args.residue:
        report["residue"] = {"value": ev.residue(), "provenance": "analytic"}
        report["pole_fit"] = {"value": lz.epstein_pole_fit(args.n,
                                                           tol=args.tol),
                              "provenance": "pole fit near s = n"}
    else:
        s = _parse_complex(args.s)
        value = ev.value(s)
        report["s"] = _cnum(s)
        report["value"] = {"value": _cnum(value),
                           "provenance": ev.last_route,
                           "tail_bound": ev.last_error_bound}
    return report


def _run_torus(args) -> dict:
    doc = _load_json(args.input)
    try:
        parsed = nt.load_potential(doc)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    n, theta, flag, A = (parsed["n"], parsed["theta"],
                         parsed["diophantine_asserted"], parsed["A"])
    if n not in (2, 4):
        raise UnsupportedError(f"torus action implemented for n in {{2, 4}}, got {n}")
    modes = sum(len(comp.coeffs) for comp in A.components)
    if modes > args.trunc:
        raise UnsupportedError(
            f"potential has {modes} modes after skew completion, over the "
            f"cap {args.trunc}")
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
    report["zeta0_shift"] = {
        "value": nt.zeta0_shift(A, theta, n, diophantine_asserted=flag,
                                ym=ym),
        "provenance": "curvature closed form"}
    report["expansion"] = nt.torus_action(
        A, theta, n, moments, args.lam, diophantine_asserted=flag,
        ym=ym).to_dict()
    return report


def _run_suq2(args) -> dict:
    doc = _load_json(args.one_form)
    try:
        q_file, pairs = suq2.load_one_form(doc)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    q = args.q if args.q is not None else q_file
    if q is None:
        raise SchemaError("q missing: pass --q or put it in the input file")
    ctx = suq2.QContext(q, tol=args.tol, max_terms=args.max_terms)
    bound = suq2.ladder_word_bound(pairs)
    if bound > args.trunc:
        raise UnsupportedError(
            f"one-form may expand to {bound:.6g} ladder words, over the "
            f"cap {args.trunc}")
    A = suq2.one_form_from_pairs(pairs, ctx)
    moments = cutoff_moments({"family": args.cutoff}, [1, 2, 3])
    out = suq2.suq2_action(A, ctx, moments, args.lam,
                           with_reality=not args.no_reality)
    report = {
        "command": "suq2",
        "q": q,
        "with_reality": not args.no_reality,
        "tolerance": ctx.tol,
        "ladder_words": len(A.words),
        "integrals": {k: {"value": _cnum(v),
                          "provenance": "tau functionals on half-line legs"}
                      for k, v in out["integrals"].items()},
        "zeta0": {"value": _cnum(out["zeta0"]),
                  "provenance": "fluctuation assembly"},
        "coefficients": {str(k): _cnum(v)
                         for k, v in out["coefficients"].items()},
        "moments": moments.to_dict(),
        "expansion": out["report"].to_dict(),
    }
    return report


def _run_action(args) -> dict:
    doc = _load_json(args.input)
    try:
        cutoff = doc["cutoff"]
        lam = float(doc["lambda"])
        coeffs = {int(k): complex(v["re"], v.get("im", 0.0))
                  if isinstance(v, dict) else complex(v)
                  for k, v in doc["coefficients"].items()}
        zeta0 = float(doc.get("zeta0", 0.0))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SchemaError(f"malformed action document: {exc}") from exc
    if not (math.isfinite(lam) and math.isfinite(zeta0)
            and all(cmath.isfinite(c) for c in coeffs.values())):
        raise SchemaError("non-finite number in the action document")
    try:
        moments = cutoff_moments(cutoff, sorted(coeffs))
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed cutoff: {exc}") from exc
    rep = assemble(coeffs, zeta0, moments, lam)
    return {"command": "action", "moments": moments.to_dict(),
            "expansion": rep.to_dict()}


class UnsupportedError(ValueError):
    pass


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncspectral",
        description="Spectral-action coefficients on the noncommutative "
                    "torus and SU_q(2)")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--tol": dict(type=_finite_float, default=1e-10,
                      help="series / evaluation tolerance"),
        "--max-terms": dict(type=int, default=20000,
                            help="cap on regularized-trace series terms"),
        "--trunc": dict(type=int, default=200000,
                        help="cap on a bound on the expanded ladder words "
                             "(suq2) or on skew-completed potential modes "
                             "(torus)"),
        "--out": dict(default=None, help="write the report here"),
    }

    def options(p, *names):
        for name in names:
            p.add_argument(name, **shared[name])

    p_zeta = sub.add_parser("zeta", help="Epstein zeta values and residues")
    p_zeta.add_argument("--n", type=int, required=True)
    p_zeta.add_argument("--s", default="0")
    p_zeta.add_argument("--residue", action="store_true",
                        help="report the residue at s = n instead of a value")
    options(p_zeta, "--tol", "--out")

    p_torus = sub.add_parser("torus", help="noncommutative-torus action")
    p_torus.add_argument("--input", required=True,
                         help="JSON potential {n, theta, diophantine_asserted, A}")
    p_torus.add_argument("--lambda", dest="lam", type=_finite_float,
                         required=True)
    p_torus.add_argument("--cutoff", default="exponential",
                         choices=["exponential", "gaussian"])
    options(p_torus, "--trunc", "--out")

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
    options(p_suq2, "--tol", "--max-terms", "--trunc", "--out")

    p_action = sub.add_parser("action", help="assemble an expansion from "
                                             "coefficients and a cutoff")
    p_action.add_argument("--input", required=True,
                          help="JSON {cutoff, lambda, coefficients, zeta0}")
    options(p_action, "--out")

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            failures = acceptance.run_all(report=print)
            return EXIT_TOLERANCE if failures else EXIT_OK
        runner = {"zeta": _run_zeta, "torus": _run_torus,
                  "suq2": _run_suq2, "action": _run_action}[args.command]
        _emit(runner(args), args.out)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except lz.ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (lz.AssumptionError,) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (UnsupportedError, lz.PoleError, MemoryError, ValueError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
