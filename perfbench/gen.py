"""Seeded input generator: JSON input documents plus the CLI argv of every op.

The same seed gives the same files and the same op list.  Sizes, degrees and
q strata are fixed per slot and the seed only draws the details inside a
slot, so the cost of one pass over the op list barely moves between seeds
while the inputs themselves differ.

An op list is a list of groups.  A group holds the ops whose reports are
checked together (see checks.py) and the facts the check needs:

    {"check": "zeta-pair", "n": 4, "s": [re, im], "tol": 1e-10,
     "ops": [{"cmd": "zeta", "argv": [...]}, {"cmd": "zeta", "argv": [...]}]}

Run as a script to write the inputs and ops.json for one workload:

    python3 -m perfbench.gen --workload suq2-action --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from pathlib import Path

WORKLOADS = ("torus-potentials", "zeta-grid", "suq2-action")

GOLDEN = (math.sqrt(5) - 1) / 2
CUTOFFS = ("exponential", "gaussian")

# (n, explicit entries) per torus op, one pass runs each once.  Twice as
# many n = 4, 5-entry ops as all others put the median in the middle of
# them; their cost hardly varies between potentials, while n = 2 costs move
# by a factor of two with the mode collisions.  The tail percentile sits on
# the n = 4, 10-entry ops.  An n = 4, 20-entry op took 2-3 s when the
# benchmark was defined, too long to be repeated often enough in one run
# for a steady best-of-passes time.
TORUS_SLOTS = ((4, 5), (2, 10), (4, 5), (4, 10), (4, 5), (2, 20), (4, 5),
               (4, 15), (4, 5), (4, 5), (4, 10), (4, 5), (2, 20), (4, 5),
               (4, 5), (2, 10), (4, 5), (4, 10), (4, 5), (4, 5), (2, 20),
               (4, 5), (4, 15), (4, 5), (4, 5), (4, 10), (4, 5), (4, 5),
               (4, 5), (4, 5), (4, 5), (4, 5), (4, 5), (4, 5))
TORUS_LAMBDA = 10.0

# zeta pairs per n and kind: (strip |Im s| <= 1, high |Im s| <= 25,
# far Re s); n = 2 gets more so the median op sits inside one dimension.
ZETA_PAIRS = {2: (4, 3, 3), 4: (2, 2, 2)}

# suq2 combination one-forms: monomial degrees (deg x, deg y) per pair.
SUQ2_COMBOS = (
    ((1, 1),),
    ((2, 1), (1, 2)),
    ((2, 2), (3, 1), (1, 3)),
    ((4, 4),),
    ((3, 3), (2, 2), (1, 4), (4, 1)),
    ((4, 4), (4, 3), (3, 4), (4, 4)),
)
# the single-generator one-forms with closed table rows: x d y.  Each runs
# at three q, so these cheap ops outnumber the dearer ones and the median
# lies well inside them instead of at the edge of a jump in cost.
TABLE_PAIRS = (("a*", "a"), ("b*", "b"), ("a", "a*"), ("b", "b*"))
SUQ2_TABLE = TABLE_PAIRS * 3
Q_RANGE = (0.2, 0.94)
# rows of the tabulated cutoff of each action op
ACTION_ROWS = (8, 200, 16, 100, 32, 64, 12, 150, 24, 48)

GEN_EXPONENTS = {"a": (1, 0, 0), "a*": (-1, 0, 0), "b": (0, 1, 0),
                 "b*": (0, 0, 1)}


def theta_matrix(n: int) -> list:
    """Golden-ratio based skew matrix, badly approximable by construction."""
    vals = [GOLDEN, GOLDEN / 2, 1 / math.pi, GOLDEN / 4, GOLDEN / 10,
            2 * GOLDEN]
    th = [[0.0] * n for _ in range(n)]
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            th[i][j] = 2 * math.pi * vals[idx % len(vals)]
            th[j][i] = -th[i][j]
            idx += 1
    return th


def _cplx(rng: random.Random, scale: float) -> dict:
    return {"re": rng.gauss(0.0, scale), "im": rng.gauss(0.0, scale)}


def torus_potential(rng: random.Random, n: int, entries: int) -> dict:
    """Potential with `entries` explicit modes in [-3, 3]^n.

    Components are filled round-robin so every component has the same
    support size; no two entries share (alpha, +-l).
    """
    seen = set()
    A = []
    while len(A) < entries:
        alpha = len(A) % n + 1
        l = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(l):
            continue
        neg = tuple(-x for x in l)
        if (alpha, l) in seen or (alpha, neg) in seen:
            continue
        seen.add((alpha, l))
        c = _cplx(rng, 0.4)
        A.append({"alpha": alpha, "l": list(l), "re": c["re"], "im": c["im"]})
    return {"n": n, "theta": theta_matrix(n), "diophantine_asserted": True,
            "A": A}


def _write(outdir: Path, name: str, doc: dict) -> str:
    path = outdir / name
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _torus_groups(rng, outdir):
    groups = []
    for i, (n, entries) in enumerate(TORUS_SLOTS):
        path = _write(outdir, f"torus-{i}.json",
                      torus_potential(rng, n, entries))
        cutoff = CUTOFFS[i % 2]
        argv = ["torus", "--input", path, "--lambda", repr(TORUS_LAMBDA),
                "--cutoff", cutoff]
        groups.append({"check": "torus", "n": n, "cutoff": cutoff,
                       "lambda": TORUS_LAMBDA,
                       "ops": [{"cmd": "torus", "argv": argv}]})
    return groups


def _zeta_op(n: int, s: complex, tol: float) -> dict:
    return {"cmd": "zeta",
            "argv": ["zeta", "--n", str(n), f"--s={s.real!r}{s.imag:+.17g}j",
                     "--tol", repr(tol)]}


def _strata(rng, lo: float, hi: float, count: int) -> list:
    """One uniform draw in each of `count` equal cells of [lo, hi)."""
    return [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]


def _zeta_groups(rng):
    """Pairs s, n - s, then Z_n(0) and the residue, n = 2 and 4 alternating.

    The list starts with an n = 2 strip pair, so the warm-up op always pays
    the mpmath start-up.
    """
    per_n = []
    j = 0
    for n, (strip, high, far) in ZETA_PAIRS.items():
        groups = []
        # the mirror n - s covers the other half of each range
        points = [complex(x, rng.uniform(-1.0, 1.0))
                  for x in _strata(rng, 0.25, n / 2, strip)]
        points += [complex(rng.uniform(0.25, n / 2), rng.choice((-1, 1)) * y)
                   for y in _strata(rng, 5.0, 25.0, high)]
        # |Im s| >= 0.1 keeps clear of the trivial zeros at -2, -4, -6
        points += [complex(x, rng.choice((-1, 1)) * rng.uniform(0.1, 1.0))
                   for x in _strata(rng, -6.0, -2.0, far)]
        for s in points:
            tol = 1e-12 if j % 4 == 1 else 1e-10
            j += 1
            groups.append({"check": "zeta-pair", "n": n,
                           "s": [s.real, s.imag], "tol": tol,
                           "ops": [_zeta_op(n, s, tol),
                                   _zeta_op(n, n - s, tol)]})
        groups.append({"check": "zeta-zero", "n": n,
                       "ops": [{"cmd": "zeta",
                                "argv": ["zeta", "--n", str(n), "--s=0"]}]})
        groups.append({"check": "zeta-residue", "n": n,
                       "ops": [{"cmd": "zeta",
                                "argv": ["zeta", "--n", str(n),
                                         "--residue"]}]})
        per_n.append(groups)
    return [g for both in itertools.zip_longest(*per_n) for g in both if g]


def _monomial(rng, degree: int) -> dict:
    """A random canonical monomial a^i b^j b*^k with |i| + j + k = degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(2))
    i, j, k = cuts[0], cuts[1] - cuts[0], degree - cuts[1]
    if rng.random() < 0.5:
        i = -i
    return {"a": i, "b": j, "bstar": k, "coeff": {"re": 1.0, "im": 0.0}}


def _generator(name: str) -> dict:
    i, j, k = GEN_EXPONENTS[name]
    return {"a": i, "b": j, "bstar": k, "coeff": {"re": 1.0, "im": 0.0}}


def _suq2_op(outdir, name, q, pairs, rng, with_reality: bool) -> dict:
    doc = {"q": q, "one_form": [{"x": [x], "y": [y], "coeff": c}
                                for x, y, c in pairs]}
    path = _write(outdir, name, doc)
    argv = ["suq2", "--one-form", path, "--q", repr(q),
            "--lambda", repr(round(rng.uniform(0.5, 4.0), 6)),
            "--cutoff", rng.choice(CUTOFFS)]
    if not with_reality:
        argv.append("--no-reality")
    return {"cmd": "suq2", "argv": argv}


def _q_strata(rng, count: int) -> list:
    """One q per stratum of Q_RANGE, strata in a fixed interleaved order."""
    order = list(range(0, count, 2)) + list(range(count - 1 - count % 2, 0, -2))
    qs = _strata(rng, *Q_RANGE, count)
    return [round(qs[i], 6) for i in order]


def _action_op(rng, outdir, idx: int, rows: int) -> dict:
    family = CUTOFFS[idx % 2]
    rate = rng.uniform(0.5, 2.0)
    if family == "exponential":
        end = 20.0 / rate
        phi = lambda t: math.exp(-rate * t)  # noqa: E731
    else:
        end = 4.0 / rate
        phi = lambda t: math.exp(-(rate * t) ** 2)  # noqa: E731
    table = [[end * r / (rows - 1), phi(end * r / (rows - 1))]
             for r in range(rows)]
    coeffs = {"3": rng.gauss(0.0, 2.0), "2": _cplx(rng, 1.0),
              "1": rng.gauss(0.0, 1.0)}
    doc = {"cutoff": {"table": table}, "lambda": round(rng.uniform(0.5, 4.0), 6),
           "coefficients": coeffs, "zeta0": rng.gauss(0.0, 1.0)}
    path = _write(outdir, f"action-{idx}.json", doc)
    return {"check": "action", "coefficients": coeffs, "zeta0": doc["zeta0"],
            "lambda": doc["lambda"],
            "ops": [{"cmd": "action", "argv": ["action", "--input", path]}]}


def _suq2_groups(rng, outdir):
    suq2 = []
    qs = _q_strata(rng, len(SUQ2_TABLE) + len(SUQ2_COMBOS))
    for i, (x, y) in enumerate(SUQ2_TABLE):
        q = qs.pop(0)
        with_reality = (i + i // len(TABLE_PAIRS)) % 2 == 0
        op = _suq2_op(outdir, f"table-{i}.json", q,
                      [(_generator(x), _generator(y), {"re": 1.0, "im": 0.0})],
                      rng, with_reality)
        suq2.append({"check": "suq2-table", "q": q, "pair": [x, y],
                     "with_reality": with_reality, "ops": [op]})
    for i, degrees in enumerate(SUQ2_COMBOS):
        q = qs.pop(0)
        pairs = [(_monomial(rng, dx), _monomial(rng, dy), _cplx(rng, 1.0))
                 for dx, dy in degrees]
        ops = [_suq2_op(outdir, f"combo-{i}.json", q, pairs, rng, True)]
        for j, (x, y, _) in enumerate(pairs):
            ops.append(_suq2_op(outdir, f"combo-{i}-{j}.json", q,
                                [(x, y, {"re": 1.0, "im": 0.0})], rng,
                                j % 2 == 1))
        suq2.append({"check": "suq2-linear", "q": q,
                     "coeffs": [c for _, _, c in pairs], "ops": ops})
    # one action op per entry of ACTION_ROWS, spread evenly between them
    groups = []
    done = 0
    for i, group in enumerate(suq2):
        groups.append(group)
        while done < (i + 1) * len(ACTION_ROWS) // len(suq2):
            groups.append(_action_op(rng, outdir, done, ACTION_ROWS[done]))
            done += 1
    return groups


def generate(workload: str, seed: int, outdir) -> list:
    """Write the inputs of one workload under outdir; return its groups."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "torus-potentials":
        return _torus_groups(rng, outdir)
    if workload == "zeta-grid":
        return _zeta_groups(rng)
    if workload == "suq2-action":
        return _suq2_groups(rng, outdir)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for inputs")
    args = parser.parse_args(argv)
    groups = generate(args.workload, args.seed, args.out)
    _write(Path(args.out), "ops.json", {"workload": args.workload,
                                        "seed": args.seed, "groups": groups})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
