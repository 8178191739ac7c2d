"""Lattice zeta functions over Z^n \\ {0} and their residue calculus.

The Epstein function Z_n(s) = sum' |k|^{-s} is continued to the whole plane
through the incomplete-gamma decomposition of its theta integral, split
symmetrically at t = 1:

    pi^{-s/2} Gamma(s/2) Z_n(s)
        = sum'_k [ G(s/2, pi|k|^2) + G((n-s)/2, pi|k|^2) ] - 2/s - 2/(n-s),

with G(a, x) = Gamma(a, x) / x^a.  The representation is entire except for
the explicit pole at s = n and manifestly symmetric under s -> n - s.  The
same split, read as a Mellin integral of theta(t)^n - 1 over [1, inf), is
evaluated first in float64 by Gauss-Laguerre quadrature; the mpmath
incomplete-gamma sum takes over wherever that bound is not small enough.

Residues of polynomial-weighted sums sum' P(k) |k|^{-s-r} are pure surface
integrals: a homogeneous term of degree d contributes its sphere moment
exactly when r = n + d and nothing otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.special import rgamma, roots_laguerre

_MP_DPS = 30


class PoleError(ArithmeticError):
    """Raised when a zeta function is evaluated at its pole."""

    def __init__(self, message, residue=None):
        super().__init__(message)
        self.residue = residue


class ToleranceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


class AssumptionError(RuntimeError):
    """An operation needs a hypothesis the caller has not asserted."""


# ---------------------------------------------------------------------------
# lattice shell counts


def radial_counts(n: int, mmax: int) -> np.ndarray:
    """Number of k in Z^n with |k|^2 = m, for m = 0..mmax.

    Built coordinate by coordinate with the sparse square kernel, so large
    cutoffs stay cheap.
    """
    squares = [(0, 1)]
    j = 1
    while j * j <= mmax:
        squares.append((j * j, 2))
        j += 1
    counts = np.zeros(mmax + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(n):
        acc = np.zeros(mmax + 1, dtype=np.int64)
        for sq, weight in squares:
            acc[sq:] += weight * counts[: mmax + 1 - sq]
        counts = acc
    return counts


# ---------------------------------------------------------------------------
# Epstein zeta

ROUTE_QUADRATURE = "theta-integral Gauss-Laguerre quadrature"
ROUTE_CONTINUATION = "incomplete-gamma continuation"

# Gauss-Laguerre node counts: the value comes from the larger rule and the
# gap to the smaller one measures its quadrature error.  Chosen against the
# mpmath route over n in {1, 2, 3, 4, 6}, Re s in [-6, n + 6],
# |Im s| <= 25 (scipy 1.17): more nodes is not better, because scipy's
# nodes carry a relative error of up to about 1e-14 that depends on the
# count (60, 80, 90 and 130 worse, 55 and 70 best).
_LAGUERRE_NODES = (55, 70)
# The bound is this factor times the larger of the node gap and the
# round-off estimate, which counts one unit in the last place of the
# largest bracket term.  scipy's complex rgamma alone is off by up to about
# 20 units for |Im s| <= 10 (45 near |Im s| = 25, where the node gap takes
# over); over 3241 points checked against mpmath the largest error was 22
# times the larger of the two.
_BOUND_SAFETY = 32.0
# theta(t) - 1 = 2 sum_k exp(-pi k^2 t); at t >= 1 the k = 7 term is below
# exp(-48 pi) relative to the k = 1 term
_THETA_TERMS = 6
_LOG_PI = math.log(math.pi)


@lru_cache(maxsize=len(_LAGUERRE_NODES))
def _laguerre_rule(nodes: int):
    u, w = roots_laguerre(nodes)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _theta_rule(n: int, nodes: int):
    """(log t_i, W_i) for int_1^inf (theta(t)^n - 1) f(t) dt ~ sum W_i f(t_i).

    t = 1 + u/pi turns the integral into int_0^inf e^{-u} g(u) du with
    g = (theta^n - 1) e^u / pi, which tends to 2n e^{-pi}/pi as u grows, so
    the Laguerre weight carries the exponential decay.
    """
    u, w = _laguerre_rule(nodes)
    t = 1.0 + u / math.pi
    k2 = np.arange(1, _THETA_TERMS + 1) ** 2
    theta_m1 = 2.0 * np.exp(-math.pi * np.outer(t, k2)).sum(axis=1)
    weights = w * np.expm1(n * np.log1p(theta_m1)) * np.exp(u) / math.pi
    return np.log(t), weights


class EpsteinValues(NamedTuple):
    """Values of Z_n, the error bound of each and the route that made it."""

    values: np.ndarray
    bounds: np.ndarray
    routes: tuple


class EpsteinEvaluator:
    """Meromorphic continuation of Z_n(s), n in 1..6.

    Two routes share the theta split at t = 1.  The float64 route writes it
    as the Mellin integral

        pi^{-s/2} Gamma(s/2) Z_n(s)
            = int_1^inf (theta(t)^n - 1)(t^{s/2-1} + t^{(n-s)/2-1}) dt
              - 2/s - 2/(n-s)

    and evaluates it with two Gauss-Laguerre rules at once for an array of
    s.  Its bound is a safety factor times the larger of the gap between the
    rules and the float64 round-off, which grows with pi^{s/2}/Gamma(s/2+1)
    (like e^{pi |Im s|/4}).  Any s whose bound is not below a tenth of the
    tolerance goes to the mpmath incomplete-gamma route, whose shell cutoff
    grows until two successive evaluations agree within a tenth of the
    tolerance.
    """

    def __init__(self, n: int, tol: float = 1e-10):
        if not 1 <= n <= 6:
            raise ValueError(f"Epstein dimension must be in 1..6, got {n}")
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        self.n = n
        self.tol = tol
        self.split = 1.0  # symmetric theta split point
        self._mmax = 0
        self._counts = None
        self._rules = [_theta_rule(n, nodes) for nodes in _LAGUERRE_NODES]
        self.last_error_bound = 0.0
        self.last_route = None

    def _grow(self, mmax: int) -> None:
        if mmax > self._mmax:
            self._mmax = mmax
            self._counts = radial_counts(self.n, self._mmax)

    def _theta_shells(self, s: complex, lo: int, hi: int):
        """sum over shells lo..hi of r(m) [G(s/2, pi m) + G((n-s)/2, pi m)]."""
        self._grow(hi)
        n = self.n
        a1 = mp.mpc(s) / 2
        a2 = (n - mp.mpc(s)) / 2
        acc = mp.mpc(0)
        for m in range(lo, hi + 1):
            cnt = int(self._counts[m])
            if cnt == 0:
                continue
            x = mp.pi * m
            g1 = mp.gammainc(a1, x) * mp.power(x, -a1)
            g2 = mp.gammainc(a2, x) * mp.power(x, -a2)
            acc += cnt * (g1 + g2)
        return acc

    # increments below this are working-precision noise, not evidence
    _BOUND_FLOOR = 1e-25

    def _check_tolerance(self) -> None:
        if 0.1 * self.tol <= self._BOUND_FLOOR:
            raise ToleranceError(
                f"tolerance {self.tol:g} is below the evaluator's "
                f"certifiable floor")

    def value(self, s: complex) -> complex:
        """Continued value of Z_n(s); raises PoleError at s = n.

        The bound and the route are left in last_error_bound and last_route.
        """
        out = self.values([s])
        self.last_error_bound = float(out.bounds[0])
        self.last_route = out.routes[0]
        return complex(out.values[0])

    def values(self, s) -> EpsteinValues:
        """Z_n at every point of s, quadrature first, mpmath where needed."""
        s = np.asarray(s, dtype=complex).ravel()
        n = self.n
        if np.any(np.abs(s - n) < 1e-12):
            raise PoleError(f"Z_{n} has its unique pole at s = {n}",
                            residue=self.residue())
        self._check_tolerance()
        vals, bounds = self._quadrature(s)
        routes = [ROUTE_QUADRATURE] * len(s)
        # NaN bounds (overflow far out in s) fail the test and fall back too
        for i in np.flatnonzero(~(bounds < 0.1 * self.tol)):
            vals[i], bounds[i] = self.value_incomplete_gamma(s[i])
            routes[i] = ROUTE_CONTINUATION
        return EpsteinValues(vals, bounds, tuple(routes))

    def _quadrature(self, s: np.ndarray):
        """Float64 values at s and their bounds (see the class docstring)."""
        n = self.n
        half = s / 2
        with np.errstate(over="ignore", invalid="ignore"):
            coarse, fine = (
                weights * (np.exp(np.outer(half - 1, log_t))
                           + np.exp(np.outer((n - s) / 2 - 1, log_t)))
                for log_t, weights in self._rules)
            integral = fine.sum(axis=1)
            # stable form: Z = pi^{s/2} [ (s/2) I - 1 - s/(n-s) ] / Gamma(s/2+1)
            pref = np.exp(half * _LOG_PI) * rgamma(half + 1)
            pole = s / (n - s)
            vals = pref * (half * integral - 1 - pole)
            gap = np.abs(pref * half * (integral - coarse.sum(axis=1)))
            largest = np.maximum(
                np.maximum(np.abs(half) * np.abs(fine).sum(axis=1), 1.0),
                np.abs(pole))
            roundoff = np.finfo(float).eps * largest * np.abs(pref)
            bounds = _BOUND_SAFETY * np.maximum(gap, roundoff)
        return vals, bounds

    def value_incomplete_gamma(self, s: complex) -> tuple:
        """(Z_n(s), bound) from the mpmath incomplete-gamma shells.

        Independent of the quadrature route; its fallback, and the oracle
        the tests compare the quadrature with.  The shells cancel down to
        the value by about pi |Im s| / (4 ln 10) digits, so the working
        precision grows with |Im s| on top of the digits the tolerance needs.
        """
        s = complex(s)
        n = self.n
        self._check_tolerance()
        dps = max(_MP_DPS,
                  math.ceil(math.pi * abs(s.imag) / (4 * math.log(10)))
                  + math.ceil(-math.log10(0.1 * self.tol)) + 5)
        with mp.workdps(dps):
            ms = mp.mpc(s)
            prev = None
            block = self._theta_shells(s, 1, 16)
            mmax = 16
            while True:
                # stable form: Z = pi^{s/2} [ (s/2) I - 1 - s/(n-s) ] / Gamma(s/2+1)
                bracket = (ms / 2) * block - 1 - ms / (n - ms)
                val = mp.power(mp.pi, ms / 2) * bracket * mp.rgamma(ms / 2 + 1)
                if prev is not None:
                    bound = max(float(abs(val - prev)), self._BOUND_FLOOR)
                    if bound < 0.1 * self.tol:
                        return complex(val), bound
                if mmax > 400:
                    raise ToleranceError(
                        f"Epstein evaluation did not converge for s = {s}")
                prev = val
                block += self._theta_shells(s, mmax + 1, mmax + 8)
                mmax += 8

    def residue(self) -> float:
        """Residue of Z_n at its pole s = n: 2 pi^(n/2) / Gamma(n/2)."""
        return 2.0 * math.pi ** (self.n / 2.0) / math.gamma(self.n / 2.0)

    def value_direct(self, s: complex, radius: float) -> complex:
        """Truncated summation plus integral tail; valid for Re(s) > n - 1.

        Independent of the continued path; used as an oracle.
        """
        s = complex(s)
        n = self.n
        m2 = int(radius * radius)
        self._grow(m2)
        m = np.arange(1, m2 + 1, dtype=float)
        weights = self._counts[1: m2 + 1].astype(float)
        partial = np.sum(weights * m ** (-s / 2.0))
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        tail = area * radius ** (n - s) / (s - n)
        return complex(partial + tail)


def epstein_value(n: int, s: complex, tol: float = 1e-10) -> complex:
    return EpsteinEvaluator(n, tol).value(s)


def epstein_residue(n: int) -> float:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def epstein_pole_fit(n: int, offsets=(0.1, 0.05, 0.025), tol: float = 1e-10) -> float:
    """Extrapolate (s - n) Z_n(s) to s = n by a quadratic fit near the pole."""
    xs = np.array(offsets, dtype=float)
    ys = xs * EpsteinEvaluator(n, tol).values(n + xs).values.real
    coeffs = np.polyfit(xs, ys, 2)
    return float(coeffs[-1])


# ---------------------------------------------------------------------------
# polynomial-weighted residues


@dataclass
class LatticePoly:
    """Sparse polynomial on Z^n as a list of monomials (exponents, coeff)."""

    n: int
    terms: list = field(default_factory=list)

    def __post_init__(self):
        merged: dict = {}
        for p, c in self.terms:
            p = tuple(int(e) for e in p)
            if len(p) != self.n:
                raise ValueError(f"exponent vector {p} has wrong length for n = {self.n}")
            if any(e < 0 for e in p):
                raise ValueError("exponents must be nonnegative")
            merged[p] = merged.get(p, 0.0) + complex(c)
        self.terms = [(p, c) for p, c in sorted(merged.items()) if c != 0]

    @classmethod
    def monomial(cls, n: int, exponents, coeff=1.0) -> "LatticePoly":
        return cls(n, [(tuple(exponents), coeff)])

    @property
    def degree(self) -> int:
        return max((sum(p) for p, _ in self.terms), default=0)

    def __call__(self, k) -> complex:
        k = np.asarray(k)
        return sum(c * np.prod(np.asarray(k, dtype=float) ** np.array(p))
                   for p, c in self.terms)


def sphere_moment(n: int, p) -> float:
    """Integral of u^p over the unit sphere S^{n-1}; zero for odd exponents."""
    p = tuple(int(e) for e in p)
    if len(p) != n:
        raise ValueError("exponent vector length must equal n")
    if any(e < 0 for e in p):
        raise ValueError("exponents must be nonnegative")
    if any(e % 2 == 1 for e in p):
        return 0.0
    num = 2.0
    for e in p:
        num *= math.gamma((e + 1) / 2.0)
    return num / math.gamma((n + sum(p)) / 2.0)


def sphere_moment_quadrature(n: int, p, points: int = 48) -> float:
    """Product-angle quadrature of u^p over S^{n-1}, n <= 4.

    Gauss-Legendre nodes on the polar angles, midpoint rule on the azimuth
    (exact there, the integrand being a trigonometric polynomial).
    """
    if n > 4:
        raise ValueError("quadrature oracle implemented for n <= 4")
    p = tuple(int(e) for e in p)
    if n == 1:
        # S^0 = two points
        return float((1.0) ** p[0] + (-1.0) ** p[0])
    nodes, weights = np.polynomial.legendre.leggauss(points)
    theta = 0.5 * math.pi * (nodes + 1.0)
    theta_w = 0.5 * math.pi * weights
    nphi = max(64, 2 * (sum(p) + 2))
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    axes = [theta] * (n - 2) + [phi]
    grids = np.meshgrid(*axes, indexing="ij")
    coords = []
    sin_prod = np.ones_like(grids[0])
    for axis in range(n - 1):
        ang = grids[axis]
        coords.append(sin_prod * np.cos(ang))
        sin_prod = sin_prod * np.sin(ang)
    coords.append(sin_prod)
    integrand = np.ones_like(grids[0])
    for x, e in zip(coords, p):
        integrand = integrand * x ** e
    # measure: prod sin^{n-1-i}(theta_i) dtheta_i dphi, with GL weights folded in
    measure = np.ones_like(grids[0])
    for axis in range(n - 2):
        w = theta_w.reshape([-1 if a == axis else 1 for a in range(n - 1)])
        measure = measure * np.sin(grids[axis]) ** (n - 2 - axis) * w
    return float(np.sum(integrand * measure) * (2.0 * math.pi / nphi))


def residue_lattice_sum(n: int, poly: LatticePoly, r: float) -> complex:
    """Res_{s=0} sum'_k P(k) |k|^{-s-r}: sphere moments of the terms with
    degree d = r - n; every other homogeneous term contributes nothing."""
    if poly.n != n:
        raise ValueError("polynomial dimension mismatch")
    total = 0.0 + 0.0j
    for p, c in poly.terms:
        if abs((n + sum(p)) - r) < 1e-9:
            total += c * sphere_moment(n, p)
    return total


def residue_direct_oracle(n: int, poly: LatticePoly, r: float,
                          radius: float = 24.0,
                          offsets=(0.1, 0.05, 0.025)) -> float:
    """Pole-fit of s * sum'_{|k|<=R} P(k)|k|^{-s-r} with integral tail.

    Brute-force companion to residue_lattice_sum; the lattice-vs-integral
    discrepancy is holomorphic at s = 0, so the fit isolates the residue.
    """
    ranges = [np.arange(-int(radius), int(radius) + 1)] * n
    grids = np.meshgrid(*ranges, indexing="ij")
    k2 = sum(g.astype(float) ** 2 for g in grids)
    mask = (k2 > 0) & (k2 <= radius * radius)
    k2m = k2[mask]
    pvals = np.zeros_like(k2m)
    for p, c in poly.terms:
        mono = np.ones_like(k2m)
        for g, e in zip(grids, p):
            if e:
                mono = mono * g[mask].astype(float) ** e
        pvals = pvals + c.real * mono
    svals = np.array(offsets, dtype=float)
    fitted = []
    for s in svals:
        partial = np.sum(pvals * k2m ** (-(s + r) / 2.0))
        # integral tail of the matching-degree part only (the others die)
        tail = 0.0
        for p, c in poly.terms:
            d = sum(p)
            expo = n + d - s - r
            if expo < 0:
                tail += c.real * sphere_moment(n, p) * radius ** expo / (-expo)
        fitted.append(s * partial + s * tail)
    coeffs = np.polyfit(svals, np.array(fitted), 2)
    return float(coeffs[-1])


# ---------------------------------------------------------------------------
# twisted (phase-carrying) families


@dataclass
class TwistedFamily:
    """Finitely supported b on (Z^n)^q with signs eps and a skew matrix.

    Residues of the associated phase-twisted sums are extracted through the
    kernel rule: off-kernel members extend holomorphically under the
    Diophantine hypothesis, which the caller asserts, never the library.
    """

    n: int
    q: int
    b: dict
    eps: tuple
    theta: np.ndarray
    diophantine_asserted: bool = False

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.n, self.n):
            raise ValueError("theta must be n x n")
        if not np.allclose(self.theta, -self.theta.T, atol=1e-14):
            raise ValueError("theta must be skew-symmetric (tol 1e-14)")
        self.eps = tuple(int(e) for e in self.eps)
        if len(self.eps) != self.q or any(e not in (-1, 0, 1) for e in self.eps):
            raise ValueError("signs must lie in {-1, 0, 1}^q")
        cleaned = {}
        for key, c in self.b.items():
            key = tuple(tuple(int(x) for x in block) for block in key)
            if len(key) != self.q or any(len(block) != self.n for block in key):
                raise ValueError(f"support key {key} has wrong shape")
            cleaned[key] = cleaned.get(key, 0.0) + complex(c)
        self.b = cleaned

    def kernel_weight(self) -> complex:
        """V = sum of b over the kernel {l : sum_i eps_i l_i = 0}."""
        total = 0.0 + 0.0j
        for key, c in self.b.items():
            combo = np.zeros(self.n, dtype=np.int64)
            for e, block in zip(self.eps, key):
                combo += e * np.array(block, dtype=np.int64)
            if not combo.any():
                total += c
        return total


def twisted_residue(fam: TwistedFamily, poly: LatticePoly, r: float) -> complex:
    """Kernel weight times the untwisted residue; off-kernel terms drop out."""
    if not fam.diophantine_asserted:
        raise AssumptionError(
            "Diophantine assumption not asserted for this family; twisted "
            "residues are only rule-evaluable under that hypothesis")
    if fam.n != poly.n:
        raise ValueError("dimension mismatch between family and polynomial")
    return fam.kernel_weight() * residue_lattice_sum(fam.n, poly, r)


# ---------------------------------------------------------------------------
# Riemann zeta


def riemann_zeta(s: complex) -> complex:
    """zeta(s) on C \\ {1}, via mpmath's Euler-Maclaurin continuation."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has its pole at s = 1", residue=1.0)
    with mp.workdps(_MP_DPS):
        return complex(mp.zeta(mp.mpc(s)))
