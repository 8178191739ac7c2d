"""Cutoff-function moments and spectral-action expansion assembly.

A cutoff Phi enters the expansion only through Phi(0) and the moments
Phi_k = (1/2) integral_0^inf Phi(t) t^(k/2 - 1) dt.  Built-in families carry
analytic moments.  A table [[t, Phi(t)], ...] (t >= 0, increasing) is
modelled by one cubic spline on [t0, tN], the constant Phi(t0) on [0, t0]
and an exponential tail fitted on the last two rows; its integer moments are
integrated exactly: Gauss-Legendre in x = sqrt(t) on each knot interval, and
an incomplete-gamma closed form for the tail.  The error bound of a table is
a rounding bound on that model.  Adaptive quadrature of a cutoff function
(`moment_quadrature`) is an oracle and lives in `oracles`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import interpolate, special


class DivergentMomentError(ValueError):
    pass


@dataclass
class CutoffMoments:
    phi0: float
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    error_bound: float = 0.0

    def phi(self, k) -> float:
        if k not in self.values:
            raise KeyError(f"moment Phi_{k} was not requested at construction")
        return self.values[k]

    def to_dict(self) -> dict:
        return {
            "phi0": self.phi0,
            "moments": {str(k): v for k, v in self.values.items()},
            "provenance": {str(k): v for k, v in self.provenance.items()},
            "error_bound": self.error_bound,
        }


# rounding bound of the table route, in units of the sum of |terms|: a few
# roundings per term, and x^2 - t_i is exact to a few ulps
_ROUNDING = 16 * np.finfo(float).eps
# the table route works on arrays of (k + 7) // 2 nodes per interval and
# recurs k / 2 times in the tail; the expansions use k <= 4
MAX_TABLE_K = 64


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    return np.polynomial.legendre.leggauss(n)


def _tabulated_moment(ts, vs, spline, k: int) -> tuple:
    """Exact Phi_k of the table model: Phi(t0) on [0, t0], the spline on
    [t0, tN] and the exponential tail fitted on the last two rows.

    With t = x^2 the spline part is sum_i int S(x^2) x^(k-1) dx over
    [sqrt(t_i), sqrt(t_i+1)], a polynomial of degree k + 5 on each interval,
    so ceil((k + 6) / 2) Gauss-Legendre nodes integrate it exactly.  The tail
    is (1/2) vN lam^(-k/2) e^X Gamma(k/2, X) with X = lam tN.  Returns the
    moment and a rounding bound on it.
    """
    nodes, weights = _gauss_legendre((k + 7) // 2)
    r = np.sqrt(ts)
    half = 0.5 * (r[1:] - r[:-1])[:, None]
    s = half * (1.0 + nodes)            # offset from sqrt(t_i)
    x = r[:-1, None] + s
    d = s * (r[:-1, None] + x)          # x^2 - t_i without cancellation
    c = spline.c[:, :, None]
    poly = ((c[0] * d + c[1]) * d + c[2]) * d + c[3]
    terms = half * weights * poly * x ** (k - 1)
    head = vs[0] * ts[0] ** (k / 2.0) / k
    tN = float(ts[-1])
    # in Python floats, whose quotient overflows to inf without a warning
    lam = math.log(float(vs[-2]) / float(vs[-1])) / (tN - float(ts[-2]))
    # I(a) = int_tN^inf e^(-lam (t - tN)) t^(a-1) dt = lam^-a e^X Gamma(a, X)
    # with X = lam tN, from I(1/2) = sqrt(pi / lam) erfcx(sqrt X) or
    # I(1) = 1 / lam by I(a+1) = (a I(a) + tN^a) / lam; a tail beyond float
    # range is inf, which cutoff_moments reports as a divergent moment
    if k % 2 == 0:
        a, g = 1.0, 1.0 / lam
    else:
        a, g = 0.5, math.sqrt(math.pi / lam) * special.erfcx(
            math.sqrt(lam * tN))
    try:
        while a < k / 2.0:
            g = (a * g + tN ** a) / lam
            a += 1.0
    except OverflowError:
        g = math.inf
    tail = 0.5 * vs[-1] * g
    value = terms.sum() + head + tail
    bound = _ROUNDING * (np.abs(terms).sum() + head + tail)
    return float(value), float(bound)


_FAMILIES = {
    "exponential": {
        "moment": lambda k: 0.5 * math.gamma(k / 2.0),
        "phi0": 1.0,
    },
    "gaussian": {
        "moment": lambda k: 0.25 * math.gamma(k / 4.0),
        "phi0": 1.0,
    },
}


def cutoff_moments(cutoff, ks) -> CutoffMoments:
    """Evaluate Phi(0) and the requested moments of a cutoff function.

    `cutoff` is a family dict {"family": name} or a table dict
    {"table": [[t, phi(t)], ...]}.
    """
    ks = list(ks)
    values, prov = {}, {}
    bound = 0.0
    if isinstance(cutoff, dict) and "family" in cutoff:
        name = cutoff["family"]
        if name not in _FAMILIES:
            raise ValueError(f"unknown cutoff family {name!r}")
        fam = _FAMILIES[name]
        scale = float(cutoff.get("params", {}).get("scale", 1.0))
        if scale < 0:
            raise ValueError("cutoff must be nonnegative")
        phi0 = scale * fam["phi0"]
        for k in ks:
            # the integrand behaves like t^(k/2 - 1) at t = 0
            if not k > 0:
                raise DivergentMomentError(
                    f"family moments need k > 0, not {k}")
            try:
                values[k] = scale * fam["moment"](k)
            except OverflowError:
                raise OverflowError(f"Phi_{k} overflows a double") from None
            prov[k] = "analytic"
    elif isinstance(cutoff, dict) and "table" in cutoff:
        table = np.asarray(cutoff["table"], dtype=float)
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 4:
            raise ValueError("table must be [[t, phi(t)], ...] with >= 4 rows")
        ts, vs = table[:, 0], table[:, 1]
        if ts[0] < 0:
            raise ValueError("table abscissae must be nonnegative")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        if np.any(vs < 0):
            raise ValueError("cutoff must be nonnegative")
        for k in ks:
            if k > MAX_TABLE_K:
                raise ValueError(
                    f"tabulated moments go up to k = {MAX_TABLE_K}, not {k}")
            if not (k >= 1 and k == math.floor(k)):
                raise DivergentMomentError(
                    f"tabulated moments need an integer k >= 1, not {k}")
        spline = interpolate.CubicSpline(ts, vs)
        # the model is constant at Phi(t0) on [0, t0]
        phi0 = float(vs[0])
        if ks and (vs[-1] <= 0 or vs[-2] <= vs[-1]):
            raise DivergentMomentError("tabulated cutoff tail is not decaying")
        for k in ks:
            values[k], err = _tabulated_moment(ts, vs, spline, int(k))
            prov[k] = "spline Gauss-Legendre, exponential tail"
            bound = max(bound, err)
    else:
        raise ValueError("cutoff must be a family dict or a table dict")
    for k, v in values.items():
        if not np.isfinite(v):
            raise DivergentMomentError(f"moment Phi_{k} is not finite")
    return CutoffMoments(phi0=phi0, values=values, provenance=prov,
                         error_bound=bound)


def load_action(doc: dict):
    """Parse {"cutoff", "lambda", "coefficients", "zeta0"} into (cutoff,
    lam, coeffs, zeta0).  The cutoff has a family or a table of [t, phi]
    rows; every number goes through `json_number`, and a coefficient key is
    the decimal spelling of its power."""
    try:
        cutoff, coeffs = doc["cutoff"], {}
        if not (isinstance(cutoff, dict)
                and len(cutoff.keys() & {"family", "table"}) == 1):
            raise TypeError('cutoff must be {"family": ...} or {"table": ...}')
        if "family" in cutoff:
            if not isinstance(cutoff["family"], str):
                raise TypeError("the cutoff family must be a string")
            scale = cutoff.get("params", {}).get("scale", 1.0)
            cutoff = {"family": cutoff["family"],
                      "params": {"scale": json_number(scale)}}
        else:
            cutoff = {"table": [[json_number(t), json_number(phi)]
                                for t, phi in cutoff["table"]]}
        for key, v in doc["coefficients"].items():
            if key != str(int(key)):
                raise ValueError(
                    f"coefficient key {key!r} is not a plain integer")
            coeffs[int(key)] = (complex(json_number(v["re"]),
                                        json_number(v.get("im", 0.0)))
                                if isinstance(v, dict)
                                else complex(json_number(v)))
        return (cutoff, json_number(doc["lambda"]), coeffs,
                json_number(doc.get("zeta0", 0.0)))
    except (KeyError, TypeError, AttributeError, OverflowError,
            ValueError) as exc:
        raise ValueError(f"malformed action document: {exc}") from exc


@dataclass
class ExpansionReport:
    """Spectral-action expansion: coefficients of Lambda powers, evaluated."""

    entries: list  # (power, coefficient, tag), powers strictly decreasing
    lam: float

    def __post_init__(self):
        powers = [p for p, _, _ in self.entries]
        if any(b >= a for a, b in zip(powers, powers[1:])):
            raise ValueError("expansion powers must be strictly decreasing")
        if self.lam <= 0:
            raise ValueError("Lambda must be positive")

    @property
    def total(self) -> complex:
        return sum(c * self._lam_power(p) for p, c, _ in self.entries)

    def _lam_power(self, p) -> float:
        try:
            return self.lam ** p
        except OverflowError:
            raise OverflowError(f"Lambda^{p} overflows a double") from None

    def coefficient(self, power):
        for p, c, _ in self.entries:
            if p == power:
                return c
        return 0.0

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "terms": [{"power": p,
                       "coefficient": jsonable(c),
                       "tag": t} for p, c, t in self.entries],
            "total": jsonable(self.total),
        }


def jsonable(x):
    """A complex number as JSON: a float when it is real, else {re, im}."""
    x = complex(x)
    if x.imag == 0:
        return x.real
    return {"re": x.real, "im": x.imag}


def json_number(x) -> float:
    """A number of an input document: a finite int or float, not a bool."""
    if (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x)):
        return float(x)
    raise ValueError(f"non-finite or non-numeric value {x!r}")


def json_integer(x) -> int:
    """An integer of an input document: an int, not a bool, or an integral
    float; its size is left to the caller."""
    if ((isinstance(x, int) and not isinstance(x, bool))
            or (isinstance(x, float) and x.is_integer())):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def assemble(coeffs, zeta0, moments: CutoffMoments, lam: float) -> ExpansionReport:
    """S(Lambda) = sum_k Phi_k Lambda^k c_k + Phi(0) zeta0, exact and linear."""
    entries = []
    for k in sorted(coeffs, reverse=True):
        if k <= 0:
            raise ValueError("positive powers only; the constant goes in zeta0")
        entries.append((k, moments.phi(k) * coeffs[k], f"Phi_{k} * integral"))
    entries.append((0, moments.phi0 * zeta0, "Phi(0) * zeta(0)"))
    return ExpansionReport(entries=entries, lam=lam)
