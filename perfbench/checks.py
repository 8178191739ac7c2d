"""Output checks: each report against a route independent of the one that
produced it.

check_group(group, reports) returns a list of (label, err, allowed); an op
group passes when err <= allowed for every item, and err / allowed is the
margin kept for check.worst_err_over_tol.
"""

from __future__ import annotations

import math

import mpmath

# the pole fit near s = n is about 2e-6 off the analytic residue
RESIDUE_FIT_TOL = 1e-5
TORUS_ROUTES_RTOL = 1e-9
# sums of a few float64 products
ASSEMBLY_RTOL = 1e-12
# tau0 series stop at the context tolerance; an integral sums a handful
# of them with O(1) weights
SUQ2_TOL_FACTOR = 10.0
LINEAR_INTEGRALS = ("A|D|^-3", "A|D|^-2", "A|D|^-1")
TABLE_COLUMNS = ("A|D|^-3", "A^2|D|^-3", "A^3|D|^-3", "A|D|^-2",
                 "A^2|D|^-2", "A|D|^-1")
CLI_DEFAULT_TOL = 1e-10

_FAMILY_MOMENT = {
    "exponential": lambda k: 0.5 * math.gamma(k / 2.0),
    "gaussian": lambda k: 0.25 * math.gamma(k / 4.0),
}


def cval(x) -> complex:
    """A report number: a float, or {"re", "im"} when complex."""
    if isinstance(x, dict):
        return complex(x["re"], x.get("im", 0.0))
    return complex(x)


def _rel(err: float, scale: float, rtol: float):
    return err, rtol * max(scale, 1e-300)


def check_torus(group, reports):
    r = reports[0]
    n, lam = group["n"], group["lambda"]
    phi = _FAMILY_MOMENT[group["cutoff"]]
    z = r["zeta0_shift"]["value"]
    items = []
    if n == 4:
        zp = r["zeta0_shift_power_sums"]["value"]
        items.append(("torus: curvature vs power-sum route",
                      *_rel(abs(z - zp), max(abs(z), abs(zp)),
                            TORUS_ROUTES_RTOL)))
        expected = 8.0 * math.pi ** 2 * phi(4) * lam ** 4 + z
    else:
        items.append(("torus: n = 2 shift vanishes", abs(z), 0.0))
        expected = 4.0 * math.pi * phi(2) * lam ** 2
    total = cval(r["expansion"]["total"])
    items.append(("torus: expansion vs closed form",
                  *_rel(abs(total - expected), abs(expected), ASSEMBLY_RTOL)))
    return items


def functional_prefactor(n: int, s: complex) -> complex:
    """pi^(s - n/2) Gamma((n - s)/2) / Gamma(s/2), so Z(s) = pref Z(n - s)."""
    with mpmath.workdps(30):
        s = mpmath.mpc(s)
        return complex(mpmath.power(mpmath.pi, s - n / 2.0)
                       * mpmath.gamma((n - s) / 2) * mpmath.rgamma(s / 2))


def check_zeta_pair(group, reports):
    n, tol = group["n"], group["tol"]
    s = cval(reports[0]["s"])
    v1 = cval(reports[0]["value"]["value"])
    v2 = cval(reports[1]["value"]["value"])
    pref = functional_prefactor(n, s)
    # each value is within tol of Z; the mirror's error is scaled by pref
    return [(f"zeta: functional equation n={n} s={s:.4g}",
             abs(v1 - pref * v2), tol * (1.0 + abs(pref)))]


def check_zeta_zero(group, reports):
    v = cval(reports[0]["value"]["value"])
    return [(f"zeta: Z_{group['n']}(0) = -1", abs(v + 1.0), CLI_DEFAULT_TOL)]


def check_zeta_residue(group, reports):
    n = group["n"]
    exact = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    r = reports[0]
    return [
        (f"zeta: analytic residue n={n}",
         *_rel(abs(r["residue"]["value"] - exact), exact, ASSEMBLY_RTOL)),
        (f"zeta: pole fit n={n}", abs(r["pole_fit"]["value"] - exact),
         RESIDUE_FIT_TOL),
    ]


def table_row(x: str, y: str, q: float) -> tuple:
    """Closed integrals of x d y (TABLE_COLUMNS, then zeta0 with reality)."""
    q2, q4 = q * q, q ** 4
    rows = {
        ("a*", "a"): (2.0, 2.0, 2.0, 4 * q2 / (q2 - 1),
                      4 * q2 * (q2 + 2) / (q4 - 1),
                      (3 * q2 + 1) / (2 * (q2 - 1)),
                      (11 * q4 + 36 * q2 + 13) / (3 * (q4 - 1))),
        ("b*", "b"): (0.0, 0.0, 0.0, 0.0, -4 / (q4 - 1), -2 / (q2 - 1),
                      4 * q2 / (q4 - 1)),
        ("a", "a*"): (-2.0, 2.0, -2.0, -4 / (q2 - 1),
                      4 * (2 * q2 + 1) / (q4 - 1),
                      (q2 + 3) / (2 * (q2 - 1)),
                      (13 * q4 + 36 * q2 + 11) / (3 * (q4 - 1))),
        ("b", "b*"): (0.0, 0.0, 0.0, 0.0, -4 / (q4 - 1), -2 / (q2 - 1),
                      4 * q2 / (q4 - 1)),
    }
    return rows[(x, y)]


def _suq2_allowed(report, expected) -> float:
    return SUQ2_TOL_FACTOR * report["tolerance"] * (1.0 + abs(expected))


def check_suq2_table(group, reports):
    r = reports[0]
    x, y = group["pair"]
    row = table_row(x, y, group["q"])
    got = [cval(r["integrals"][k]["value"]) for k in TABLE_COLUMNS]
    labels = list(TABLE_COLUMNS)
    if group["with_reality"]:
        got.append(cval(r["zeta0"]["value"]))
        labels.append("zeta0")
    return [(f"suq2: {x} d{y} {label} q={group['q']}", abs(g - e),
             _suq2_allowed(r, e))
            for label, g, e in zip(labels, got, row)]


def check_suq2_linear(group, reports):
    combo, parts = reports[0], reports[1:]
    coeffs = [cval(c) for c in group["coeffs"]]
    items = []
    for key in LINEAR_INTEGRALS:
        got = cval(combo["integrals"][key]["value"])
        terms = [c * cval(p["integrals"][key]["value"])
                 for c, p in zip(coeffs, parts)]
        scale = sum(abs(t) for t in terms)
        items.append((f"suq2: linearity of {key} q={group['q']}",
                      abs(got - sum(terms)), _suq2_allowed(combo, scale)))
    return items


def check_action(group, reports):
    r = reports[0]
    moments = r["moments"]
    lam = group["lambda"]
    expected = moments["phi0"] * group["zeta0"]
    for k, c in group["coefficients"].items():
        expected += moments["moments"][k] * cval(c) * lam ** int(k)
    total = cval(r["expansion"]["total"])
    return [("action: total from moments and coefficients",
             *_rel(abs(total - expected), abs(expected), ASSEMBLY_RTOL))]


CHECKS = {
    "torus": check_torus,
    "zeta-pair": check_zeta_pair,
    "zeta-zero": check_zeta_zero,
    "zeta-residue": check_zeta_residue,
    "suq2-table": check_suq2_table,
    "suq2-linear": check_suq2_linear,
    "action": check_action,
}


def check_group(group, reports):
    """Check the parsed reports of one op group, in op order."""
    return CHECKS[group["check"]](group, reports)


def margin(err: float, allowed: float) -> float:
    """err / allowed; 0 for an exact match, inf past a zero allowance."""
    if err == 0:
        return 0.0
    return err / allowed if allowed > 0 else math.inf
