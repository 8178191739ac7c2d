"""Cutoff-function moments and spectral-action expansion assembly.

A cutoff Phi enters the expansion only through Phi(0) and the moments
Phi_k = (1/2) integral_0^inf Phi(t) t^(k/2 - 1) dt.  Built-in families carry
analytic moments.  A table [[t, Phi(t)], ...] (t >= 0, increasing) is
modelled by one not-a-knot cubic spline on [t0, tN], the constant Phi(t0) on
[0, t0] and an exponential tail fitted on the last two rows; its integer
moments are integrated exactly: Gauss-Legendre in x = sqrt(t) on each knot
interval, and an incomplete-gamma closed form for the tail, through the
module's own scaled complementary error function (`_erfcx`).  The spline is
solved here, as one tridiagonal system (`_not_a_knot`) by the module's own
transcription of LAPACK's gtsv (`_gtsv`); scipy's CubicSpline and LAPACK's
dgtsv, which give the same numbers bit for bit, are their test oracles, and
nothing here takes anything from scipy.  The error bound of a table is a
rounding bound on that model.  Adaptive quadrature of a cutoff function
(`moment_quadrature`) is an oracle and lives in `oracles`.  numpy is
imported by the table route's functions alone, so a process that reads no
table never loads it.

Every module of the package imports this one, so the package's exceptions
live here, and so does `lazy_module`, which defers a module's run to its
first use.
"""

from __future__ import annotations

import cmath
import functools
import importlib.util
import math
import numbers
import sys
from dataclasses import dataclass, field
from itertools import chain


class DivergentMomentError(ValueError):
    pass


class PoleError(ArithmeticError):
    """Raised when a zeta function is evaluated at its pole."""


class ToleranceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


class AssumptionError(RuntimeError):
    """An operation needs a hypothesis the caller has not asserted."""


def lazy_module(name: str):
    """The module `name`, run on its first attribute access.

    It is registered in sys.modules, so a lookup there finds it and every
    later import returns it; a module already imported is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
_ROUNDING = 16 * sys.float_info.epsilon
# the table route works on arrays of (k + 7) // 2 nodes per interval and
# recurs k / 2 times in the tail; the expansions use k <= 4
MAX_TABLE_K = 64


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    import numpy as np
    return np.polynomial.legendre.leggauss(n)


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """The solution x of T x = b, for the n x n tridiagonal T (n >= 2) with
    sub-, main and super-diagonals dl, d, du (lists of n - 1, n and n - 1
    floats).

    LAPACK's reference dgtsv for one right-hand side, operation for
    operation: Gaussian elimination with partial pivoting, which swaps rows
    i and i + 1 (and their entries of b) when |d_i| < |dl_i| and so fills in
    a second super-diagonal du2, then back substitution from the last row.
    Python floats have no fused multiply-add, so x equals dgtsv's bit for
    bit.  A zero pivot raises LinAlgError, where dgtsv returns info > 0.
    d, du and b are overwritten, and du gains an entry.
    """
    import numpy as np
    n = len(d)
    du.append(0.0)  # the swap at the last row fills in nothing
    du2 = [0.0] * n
    piv, rhs = d[0], b[0]
    try:
        for i in range(n - 1):
            lo = dl[i]
            if abs(piv) >= abs(lo):
                if piv == 0.0:
                    raise np.linalg.LinAlgError("singular matrix")
                fact = lo / piv
                d[i], b[i] = piv, rhs
                piv = d[i + 1] - fact * du[i]
                rhs = b[i + 1] - fact * rhs
            else:
                fact = piv / lo
                up = du[i]
                d[i], du[i], du2[i] = lo, d[i + 1], du[i + 1]
                piv = up - fact * d[i + 1]
                du[i + 1] = -fact * du2[i]
                b[i], rhs = b[i + 1], rhs - fact * b[i + 1]
        if piv == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        b[-1] = nxt = rhs / piv
        b[-2] = cur = (b[-2] - du[-2] * nxt) / d[-2]
        for i in range(n - 3, -1, -1):
            cur, nxt = (b[i] - du[i] * cur - du2[i] * nxt) / d[i], cur
            b[i] = cur
    except ZeroDivisionError:
        # a NaN pivot over a zero sub-diagonal entry, where dgtsv divides
        # NaN by 0 and every entry of its x comes out NaN
        return [math.nan] * n
    return b


def _not_a_knot(ts, vs) -> np.ndarray:
    """The (4, R - 1) coefficients of the not-a-knot cubic spline through
    R >= 4 rows, in the arithmetic of scipy's CubicSpline(ts, vs).c.

    The slopes s at the knots solve a tridiagonal system, solved by `_gtsv`
    on its three diagonals as scipy's solve_banded solves it with LAPACK's
    gtsv; its first and last rows make the third derivative continuous at
    t1 and t(N-1).  An overflow anywhere shows in s or c.
    """
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        dx = np.diff(ts)
        slope = np.diff(vs) / dx
        lower, upper = np.empty(len(dx)), np.empty(len(dx))
        main, b = np.empty(len(ts)), np.empty(len(ts))
        upper[1:], lower[:-1] = dx[:-1], dx[1:]
        main[1:-1] = 2 * (dx[:-1] + dx[1:])
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = ts[2] - ts[0]
        upper[0], main[0] = d, dx[1]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0]
                + dx[0] ** 2 * slope[1]) / d
        d = ts[-1] - ts[-3]
        main[-1], lower[-1] = dx[-2], d
        b[-1] = (dx[-1] ** 2 * slope[-2]
                 + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = np.array(_gtsv(lower.tolist(), main.tolist(), upper.tolist(),
                           b.tolist()))
        if not np.isfinite(s).all():
            raise ValueError("tabulated cutoff slopes overflow a double")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], vs[:-1]))
    if not np.isfinite(c).all():
        raise ValueError(
            "tabulated cutoff spline coefficients overflow a double")
    return c


# 2^27 + 1: Veltkamp's constant, which splits a double into two halves whose
# products are exact
_SPLIT = 134217729.0
_RSQRT_PI = 0.5641895835477563  # 1 / sqrt(pi), correctly rounded


def _erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for x >= 0, within 8 units of 2^-53 (0 at inf).

    Below 26, where erfc(x) is a normal double, x^2 = hi + lo exactly
    (Dekker's product on Veltkamp's halves of x) and the value is
    exp(hi) erfc(x) (1 + lo); above it, 12 terms of Laplace's continued
    fraction 1 / (sqrt(pi) (x + (1/2) / (x + 1 / (x + (3/2) / (x + ...))))),
    whose truncation error there is far below a unit.
    """
    if x < 26.0:
        c = _SPLIT * x
        x_hi = c - (c - x)
        x_lo = x - x_hi
        hi = x * x
        lo = ((x_hi * x_hi - hi) + 2 * x_hi * x_lo) + x_lo * x_lo
        return math.exp(hi) * math.erfc(x) * (1 + lo)
    t = x
    for k in range(12, 0, -1):
        t = x + 0.5 * k / t
    return _RSQRT_PI / t


def _tail_integral(k: int, lam: float, tN: float) -> float:
    """I(k/2), where I(a) = int_tN^inf e^(-lam (t - tN)) t^(a-1) dt
    = lam^-a e^X Gamma(a, X) with X = lam tN, from I(1/2) = sqrt(pi / lam)
    erfcx(sqrt X) or I(1) = 1 / lam by I(a+1) = (a I(a) + tN^a) / lam; a
    tail beyond float range is inf, which cutoff_moments reports as a
    divergent moment."""
    if k % 2 == 0:
        a, g = 1.0, 1.0 / lam
    else:
        a, g = 0.5, math.sqrt(math.pi / lam) * _erfcx(math.sqrt(lam * tN))
    try:
        while a < k / 2.0:
            g = (a * g + tN ** a) / lam
            a += 1.0
    except OverflowError:
        g = math.inf
    return g


def _tabulated_moments(ts, vs, ks) -> tuple:
    """Exact Phi_k, integer k in ks, of the table model: Phi(t0) on [0, t0],
    the spline on [t0, tN] and the exponential tail fitted on the last two
    rows.

    With t = x^2 the spline part is sum_i int S(x^2) x^(k-1) dx over
    [sqrt(t_i), sqrt(t_i+1)], a polynomial of degree k + 5 on each interval,
    so ceil((k + 6) / 2) Gauss-Legendre nodes integrate it exactly; S is
    evaluated at the nodes once per rule size.  The tail is
    (1/2) vN lam^(-k/2) e^X Gamma(k/2, X) with X = lam tN.  Returns the
    moments by k and a rounding bound on them.
    """
    import numpy as np
    # the spline of a table is checked even when no moment is asked for;
    # the tail is fitted only when one is
    c = _not_a_knot(ts, vs)[:, :, None]
    values, bound = {}, 0.0
    if not ks:
        return values, bound
    if vs[-1] <= 0 or vs[-2] <= vs[-1]:
        raise DivergentMomentError("tabulated cutoff tail is not decaying")
    r = np.sqrt(ts)
    half = 0.5 * (r[1:] - r[:-1])[:, None]
    tN = float(ts[-1])
    # in Python floats, whose quotient overflows to inf without a warning
    lam = math.log(float(vs[-2]) / float(vs[-1])) / (tN - float(ts[-2]))
    rules = {}  # nodes per interval -> (half * weight * S(x^2), x)
    # an overflow gives a non-finite moment, which cutoff_moments reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            n = (k + 7) // 2
            if n not in rules:
                nodes, weights = _gauss_legendre(n)
                s = half * (1.0 + nodes)        # offset from sqrt(t_i)
                x = r[:-1, None] + s
                d = s * (r[:-1, None] + x)  # x^2 - t_i without cancellation
                rules[n] = (half * weights
                            * (((c[0] * d + c[1]) * d + c[2]) * d + c[3]), x)
            weighted, x = rules[n]
            terms = weighted * x ** (k - 1)
            head = vs[0] * ts[0] ** (k / 2.0) / k
            tail = 0.5 * vs[-1] * _tail_integral(k, lam, tN)
            values[k] = float(terms.sum() + head + tail)
            bound = max(bound, float(
                _ROUNDING * (np.abs(terms).sum() + head + tail)))
    return values, bound


# family -> Phi_k of Phi(t) = exp(-t) or exp(-t^2)
_FAMILIES = {
    "exponential": lambda k: 0.5 * math.gamma(k / 2.0),
    "gaussian": lambda k: 0.25 * math.gamma(k / 4.0),
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
        moment = _FAMILIES[name]
        scale = float(cutoff.get("params", {}).get("scale", 1.0))
        if scale < 0:
            raise ValueError("cutoff must be nonnegative")
        phi0 = scale  # every family has Phi(0) = 1
        for k in ks:
            # the integrand behaves like t^(k/2 - 1) at t = 0
            if not k > 0:
                raise DivergentMomentError(
                    f"family moments need k > 0, not {k}")
            try:
                values[k] = scale * moment(k)
            except OverflowError:
                raise OverflowError(f"Phi_{k} overflows a double") from None
            prov[k] = "analytic"
    elif isinstance(cutoff, dict) and "table" in cutoff:
        import numpy as np
        table = np.asarray(cutoff["table"], dtype=float)
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 4:
            raise ValueError("table must be [[t, phi(t)], ...] with >= 4 rows")
        if not np.isfinite(table).all():
            raise ValueError("table entries must be finite")
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
        # the model is constant at Phi(t0) on [0, t0]
        phi0 = float(vs[0])
        moments, bound = _tabulated_moments(ts, vs, [int(k) for k in ks])
        for k in ks:
            values[k] = moments[int(k)]
            prov[k] = "spline Gauss-Legendre, exponential tail"
    else:
        raise ValueError("cutoff must be a family dict or a table dict")
    for k, v in values.items():
        if not math.isfinite(v):
            raise DivergentMomentError(f"moment Phi_{k} is not finite")
    return CutoffMoments(phi0=phi0, values=values, provenance=prov,
                         error_bound=bound)


def _table_rows(rows) -> np.ndarray:
    """The [t, phi] rows of a table as one (R, 2) float array, each entry
    under `json_number`'s rule: checked in bulk, and entry by entry (for the
    message) only when the bulk check fails."""
    import numpy as np
    if (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {2}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        try:
            table = np.fromiter(chain.from_iterable(rows), float,
                                2 * len(rows)).reshape(-1, 2)
        except OverflowError:  # an int beyond float range
            pass
        else:
            if np.isfinite(table).all():
                return table
    return np.array([[json_number(t), json_number(phi)] for t, phi in rows],
                    dtype=float)


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
            cutoff = {"table": _table_rows(cutoff["table"])}
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
        terms = []
        for p, c, _ in self.entries:
            try:
                power = self.lam ** p
            except OverflowError:
                raise OverflowError(f"Lambda^{p} overflows a double") from None
            terms.append(_product(c, power, f"the Lambda^{p} term"))
        total = sum(terms)
        if all(map(cmath.isfinite, terms)) and not cmath.isfinite(total):
            raise OverflowError("the expansion total overflows a double")
        return total

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


def _product(a, b, name: str):
    """a b, or OverflowError naming it where finite a and b overflow."""
    value = a * b
    if cmath.isfinite(a) and cmath.isfinite(b) and not cmath.isfinite(value):
        raise OverflowError(f"{name} overflows a double")
    return value


def json_number(x) -> float:
    """A number of an input document: a finite int or float, not a bool."""
    if (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x)):
        return float(x)
    raise ValueError(f"non-finite or non-numeric value {x!r}")


def json_integer(x) -> int:
    """An integer of an input document or a library constructor: an Integral
    (int goes first: Integral is an ABC), not a bool, or an integral float;
    its size is left to the caller."""
    if ((isinstance(x, (int, numbers.Integral)) and not isinstance(x, bool))
            or (isinstance(x, float) and x.is_integer())):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def assemble(coeffs, zeta0, moments: CutoffMoments, lam: float) -> ExpansionReport:
    """S(Lambda) = sum_k Phi_k Lambda^k c_k + Phi(0) zeta0, exact and linear."""
    entries = []
    for k in sorted(coeffs, reverse=True):
        if k <= 0:
            raise ValueError("positive powers only; the constant goes in zeta0")
        c = _product(moments.phi(k), coeffs[k], f"Phi_{k} c_{k}")
        entries.append((k, c, f"Phi_{k} * integral"))
    entries.append((0, _product(moments.phi0, zeta0, "Phi(0) zeta0"),
                    "Phi(0) * zeta(0)"))
    return ExpansionReport(entries=entries, lam=lam)
