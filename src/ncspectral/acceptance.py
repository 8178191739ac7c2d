"""The acceptance suite: every check runs at its pinned tolerance.

Each criterion returns (passed, detail).  The CLI selftest and the pytest
wrapper both iterate CRITERIA, so there is a single source of truth.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from . import lattice_zeta as lz
from . import nc_torus as nt
from . import oracles
from . import suq2
from .action_assembly import cutoff_moments

GOLDEN = (math.sqrt(5) - 1) / 2
Q_SAMPLES = (0.3, 0.5, 0.7)


def _irrational_theta(n):
    vals = [GOLDEN, GOLDEN / 2, 1 / math.pi, GOLDEN / 4, GOLDEN / 10,
            2 * GOLDEN]
    th = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            th[i, j] = 2 * math.pi * vals[idx % len(vals)]
            th[j, i] = -th[i, j]
            idx += 1
    return nt.Theta(th)


def _random_one_form(rng, n=4, nmodes=3):
    """A draw whose mode, or its negative, its component already has is
    skipped after its coefficient is drawn, so every draw takes the same
    random numbers and a seed without such a draw keeps its potential."""
    entries = []
    taken = set()
    for _ in range(nmodes):
        alpha = int(rng.integers(1, n + 1))
        l = tuple(int(x) for x in rng.integers(-2, 3, size=n))
        if not any(l):
            continue
        c = complex(rng.normal(scale=0.4), rng.normal(scale=0.4))
        if (alpha, l) in taken or (alpha, tuple(-x for x in l)) in taken:
            continue
        taken.add((alpha, l))
        entries.append((alpha, l, c))
    return nt.OneFormTorus(n, entries)


def _check(errs, tol, label):
    worst = max(errs) if errs else 0.0
    return worst <= tol, f"{label}: worst error {worst:.3e} (tol {tol:g})"


def crit_epstein_values():
    errs = [abs(lz.EpsteinEvaluator(n).value(0).value.real + 1.0)
            for n in (2, 4)]
    return _check(errs, 1e-8, "Z_2(0) = Z_4(0) = -1")


def crit_epstein_residues():
    errs = [abs(lz.epstein_pole_fit(2) - 2 * math.pi),
            abs(lz.epstein_pole_fit(4) - 2 * math.pi ** 2)]
    return _check(errs, 1e-5, "contour residues vs 2pi, 2pi^2")


def crit_functional_equation():
    errs = []
    for n in (2, 4):
        ev = lz.EpsteinEvaluator(n)
        for re in np.linspace(0.5, n - 0.5, 10):
            for im in (0.3, -0.7):
                s = complex(re, im)
                pref = complex(
                    mpmath.power(mpmath.pi, s - n / 2)
                    * mpmath.gamma((n - s) / 2) / mpmath.gamma(s / 2))
                errs.append(abs(ev.value(s).value
                                - pref * ev.value(n - s).value))
    return _check(errs, 1e-8, "20-point functional-equation sweep per n")


def crit_residue_table():
    errs_analytic = [
        abs(lz.residue_lattice_sum(2, lz.LatticePoly.monomial(2, (2, 0)), 4)
            - math.pi),
        abs(lz.residue_lattice_sum(2, lz.LatticePoly.monomial(2, (1, 1)), 4)),
        abs(lz.residue_lattice_sum(4, lz.LatticePoly.monomial(4, (2, 0, 0, 0)), 6)
            - math.pi ** 2 / 2),
        abs(lz.residue_lattice_sum(4, lz.LatticePoly.monomial(4, (2, 2, 0, 0)), 8)
            - math.pi ** 2 / 12),
    ]
    ok1, msg1 = _check(errs_analytic, 1e-12, "analytic path")
    oracle = oracles.residue_direct_oracle
    errs_oracle = [
        abs(oracle(2, lz.LatticePoly.monomial(2, (2, 0)), 4, radius=60)
            - math.pi),
        abs(oracle(4, lz.LatticePoly.monomial(4, (2, 0, 0, 0)), 6, radius=22)
            - math.pi ** 2 / 2),
        abs(oracle(4, lz.LatticePoly.monomial(4, (2, 2, 0, 0)), 8, radius=22)
            - math.pi ** 2 / 12),
    ]
    ok2, msg2 = _check(errs_oracle, 1e-5, "direct-summation pole-fit oracle")
    return ok1 and ok2, f"{msg1}; {msg2}"


def crit_torus_identity():
    rng = np.random.default_rng(42)
    theta = _irrational_theta(4)
    errs = []
    for _ in range(10):
        A = _random_one_form(rng)
        ff = oracles._curvature_ff_trace(A, theta)
        z1 = -nt.YM_CONSTANT * ff
        z2 = oracles.zeta0_shift_via_power_sums(A, theta,
                                                diophantine_asserted=True)
        ym = nt.yang_mills(A, theta)
        errs.append(abs(z1 - z2))
        errs.append(abs(z1 + nt.YM_CONSTANT * ym))
    return _check(errs, 1e-10, "zeta0 shift: curvature route vs power sums vs YM")


def crit_torus_gauge_invariance():
    rng = np.random.default_rng(43)
    theta = _irrational_theta(4)
    errs = []
    for _ in range(20):
        A = _random_one_form(rng)
        k = tuple(int(x) for x in rng.integers(-2, 3, size=4))
        u = nt.TorusElement(4, {k: 1.0})
        moved = oracles.gauge_transform(A, u, theta)
        errs.append(abs(nt.yang_mills(A, theta) - nt.yang_mills(moved, theta)))
    return _check(errs, 1e-10, "Yang-Mills under 20 Weyl gauge moves")


def crit_torus_spectrum():
    spectrum = oracles.dirac_truncated(2, 3)
    counts = lz.radial_counts(2, 9)
    ok = spectrum.kernel_dim == 2
    mismatches = 0
    for m in range(1, 10):
        expected = int(counts[m])  # 2^(m-1) = 1 per sign for n = 2
        if spectrum.multiplicity(math.sqrt(m)) != expected:
            mismatches += 1
        if spectrum.multiplicity(-math.sqrt(m)) != expected:
            mismatches += 1
    ok = ok and mismatches == 0
    return ok, (f"kernel dim {spectrum.kernel_dim} (want 2), "
                f"{mismatches} multiplicity mismatches")


def crit_suq2_integrals():
    errs = []
    g = suq2.PBWElem.generator
    for q in Q_SAMPLES:
        ctx = suq2.QContext(q)
        table = {
            ("a", "a*"): (q * q + 3) / (2 * (q * q - 1)),
            ("a*", "a"): (3 * q * q + 1) / (2 * (q * q - 1)),
            ("b", "b"): 0.0,
            ("b*", "b*"): 0.0,
            ("b", "b*"): -2.0 / (q * q - 1),
            ("b*", "b"): -2.0 / (q * q - 1),
        }
        for (x, y), expected in table.items():
            got = suq2.nc_integral(suq2.delta_one_form(g(x), g(y)), 1, ctx)
            errs.append(abs(got.real - expected) + abs(got.imag))
        # the tadpole of the commutator form
        errs.append(abs(suq2.nc_integral(
            suq2.delta_one_form(g("b"), g("b*")), 1, ctx).real
            - 2.0 / (1 - q * q)))
        for n in (1, 2, 3):
            weight = suq2.rep_ladder(suq2.PBWElem({(0, n, n): 1.0}))
            q2n, q2n2 = q ** (2 * n), q ** (2 * n + 2)
            fam = {
                None: -2 * (1 + q2n) / (1 - q2n) ** 2,
                ("b*", "b"): 2 / (1 - q2n2),
                ("b", "b*"): 2 / (1 - q2n2),
                ("a", "a*"): (-2 * q ** (4 * n + 2) - 2 * q ** (4 * n)
                              - 2 * q2n2 + 6 * q2n)
                / ((1 - q2n) ** 2 * (1 - q2n2)),
                ("a*", "a"): (6 * q2n2 - 2 * q2n - 2 * q * q - 2)
                / ((1 - q2n) ** 2 * (1 - q2n2)),
            }
            for key, expected in fam.items():
                elem = weight if key is None else weight @ suq2.delta_one_form(
                    g(key[0]), g(key[1]))
                got = suq2.nc_integral(elem, 1, ctx)
                errs.append(abs(got.real - expected) + abs(got.imag))
    return _check(errs, 1e-8, "weight-1 integrals at q in {0.3, 0.5, 0.7}")


def _table_rows(q):
    return {
        ("a*", "a"): (2.0, 2.0, 2.0,
                      4 * q ** 2 / (q ** 2 - 1),
                      4 * q ** 2 * (q ** 2 + 2) / (q ** 4 - 1),
                      (3 * q ** 2 + 1) / (2 * (q ** 2 - 1)),
                      (11 * q ** 4 + 36 * q ** 2 + 13) / (3 * (q ** 4 - 1))),
        ("b*", "b"): (0.0, 0.0, 0.0, 0.0, -4 / (q ** 4 - 1),
                      -2 / (q ** 2 - 1), 4 * q ** 2 / (q ** 4 - 1)),
        ("a", "a*"): (-2.0, 2.0, -2.0, -4 / (q ** 2 - 1),
                      4 * (2 * q ** 2 + 1) / (q ** 4 - 1),
                      (q ** 2 + 3) / (2 * (q ** 2 - 1)),
                      (13 * q ** 4 + 36 * q ** 2 + 11) / (3 * (q ** 4 - 1))),
        ("b", "b*"): (0.0, 0.0, 0.0, 0.0, -4 / (q ** 4 - 1),
                      -2 / (q ** 2 - 1), 4 * q ** 2 / (q ** 4 - 1)),
    }


def plus_adjoint(B: suq2.LadderElem) -> suq2.LadderElem:
    """B + B*: B's words, and each word reversed with its letters starred
    added in at the conjugate coefficient."""
    words = dict(B.words)
    for w, c in B.words.items():
        star = tuple(suq2.STAR[letter] for letter in reversed(w))
        words[star] = words.get(star, 0.0) + c.conjugate()
    return suq2.LadderElem(words)


def crit_suq2_table():
    errs = []
    g = suq2.PBWElem.generator
    moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
    for q in Q_SAMPLES:
        ctx = suq2.QContext(q)
        for (x, y), expected in _table_rows(q).items():
            A = suq2.delta_one_form(g(x), g(y))
            out = suq2.suq2_action(A, ctx, moments, 1.0)
            ia = out["integrals"]
            got = (ia["A|D|^-3"], ia["A^2|D|^-3"], ia["A^3|D|^-3"],
                   ia["A|D|^-2"], ia["A^2|D|^-2"], ia["A|D|^-1"],
                   out["zeta0"])
            errs.extend(abs(complex(a) - b) for a, b in zip(got, expected))
        # assembled action of A_n vs its closed form
        lam = 2.0
        for n in (0, 1, 2):
            Bn = suq2.rep_ladder(suq2.PBWElem({(0, n, n): 1.0})) \
                @ suq2.delta_one_form(g("b"), g("b*"))
            out = suq2.suq2_action(plus_adjoint(Bn), ctx, moments, lam)
            expected_total = (2 * moments.phi(3) * lam ** 3
                              - 0.5 * moments.phi(1) * lam
                              + 8.0 / (1 + q ** (2 * n + 2)))
            errs.append(abs(complex(out["report"].total) - expected_total))
    return _check(errs, 1e-8, "Table rows (7 columns) and assembled actions")


def crit_dual_path_weight2():
    errs = []
    tags = ["one", "bdb*", "b*db", "ada*", "a*da", "dada*", "da*da",
            "dbdb", "dbdb*", "db*db*",
            "a*b*dadb", "ab*da*db", "a*bdadb*", "abda*db*"]
    for q in Q_SAMPLES:
        ctx = suq2.QContext(q)
        for n in (0, 1, 2, 3):
            for tag in tags:
                if tag == "one" and n == 0:
                    continue
                lhs = suq2.nc_integral(
                    oracles.table_entry_ladder(n, tag, ctx), 2, ctx)
                rhs = oracles.lqmq_integral(
                    oracles.ideal_r_reduce(n, tag, q), ctx)
                errs.append(abs(lhs - rhs))
    return _check(errs, 1e-8, "representation path vs L/M substitution path")


def crit_shell_asymptotics():
    errs = []
    ctx = suq2.QContext(0.5)
    cases = [(suq2.LadderElem({(): 1.0}), 2.0),
             (suq2.LadderElem({(suq2.BP, suq2.BPS): 1.0}), 0.0),
             (suq2.LadderElem({(suq2.AP, suq2.APS): 1.0}), 2.0)]
    for elem, expected in cases:
        fit = oracles.shell_fit_weight3(elem, ctx, shells=40, start=20)
        errs.append(abs(fit - expected) / max(1.0, abs(expected)))
    return _check(errs, 1e-4, "40-shell quadratic fits vs weight-3 integrals")


def crit_cocycle():
    errs = []
    g = suq2.PBWElem.generator
    for q in Q_SAMPLES:
        ctx = suq2.QContext(q)
        lhs = suq2.nc_integral(suq2.delta_one_form(g("a"), g("a*")), 1, ctx)
        rhs = suq2.nc_integral(suq2.delta_one_form(g("a*"), g("a")), 1, ctx)
        errs.append(abs((lhs - rhs) - (-1.0)))
    return _check(errs, 1e-8, "antisymmetrized tadpole cocycle = -1")


def crit_moments():
    errs = []
    for k in (1, 2, 3, 4):
        val, _ = oracles.moment_quadrature(lambda t: math.exp(-t), k)
        errs.append(abs(val - 0.5 * math.gamma(k / 2.0)))
    return _check(errs, 1e-8, "exponential-cutoff moments vs Gamma(k/2)/2")


CRITERIA = [
    (1, "Epstein special values Z_n(0)", crit_epstein_values),
    (2, "Epstein residues by pole fit", crit_epstein_residues),
    (3, "Epstein functional-equation sweep", crit_functional_equation),
    (4, "Residue table vs direct-summation oracle", crit_residue_table),
    (5, "Torus scale-invariant term, three routes", crit_torus_identity),
    (6, "Torus Yang-Mills gauge invariance", crit_torus_gauge_invariance),
    (7, "Truncated-Dirac spectrum pattern", crit_torus_spectrum),
    (8, "SU_q(2) weight-1 integral families", crit_suq2_integrals),
    (9, "SU_q(2) integral table and assembled actions", crit_suq2_table),
    (10, "SU_q(2) dual-path weight-2 integrals", crit_dual_path_weight2),
    (11, "SU_q(2) shell-trace asymptotics", crit_shell_asymptotics),
    (12, "SU_q(2) cocycle spot check", crit_cocycle),
    (13, "Cutoff moments vs quadrature", crit_moments),
]


def run_all(report=print):
    """Run every criterion, emitting one pass/fail line each."""
    failures = 0
    for num, name, func in CRITERIA:
        ok, detail = func()
        status = "PASS" if ok else "FAIL"
        report(f"[{status}] criterion {num:2d} - {name}: {detail}")
        if not ok:
            failures += 1
    return failures
