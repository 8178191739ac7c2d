"""Lattice zeta functions over Z^n \\ {0} and their residue calculus.

For n in {1, 2, 4, 6} the Epstein function Z_n(s) = sum' |k|^{-s} is a
product of Dirichlet L-series, by the Jacobi and Hardy counts of sums of
squares (Borwein et al., Lattice Sums Then and Now, ch. 1).  With w = s/2
and beta(w) = 4^{-w} [zeta(w, 1/4) - zeta(w, 3/4)]:

    Z_1(s) = 2 zeta(s)
    Z_2(s) = 4 zeta(w) beta(w)
    Z_4(s) = 8 (1 - 4^{1-w}) zeta(w) zeta(w - 1)
    Z_6(s) = 16 zeta(w - 2) beta(w) - 4 zeta(w) beta(w - 2)

These are evaluated with an Euler-Maclaurin Hurwitz zeta, through the
functional equation below Re s = n/2, in three precisions in turn:
float64, then long double (80-bit extended on x86-64 Linux), then mpmath,
each where the bound of the one before is not small enough.  Every n is
also continued through the incomplete-gamma decomposition of its theta
integral, split symmetrically at t = 1:

    pi^{-s/2} Gamma(s/2) Z_n(s)
        = sum'_k [ G(s/2, pi|k|^2) + G((n-s)/2, pi|k|^2) ] - 2/s - 2/(n-s),

with G(a, x) = Gamma(a, x) / x^a.  The representation is entire except for
the explicit pole at s = n and manifestly symmetric under s -> n - s.  The
same split, read as a Mellin integral of theta(t)^n - 1 over [1, inf), is
evaluated in float64 by Gauss-Laguerre quadrature for n = 3 and 5 and where
the L-series identities are 0 * inf; the mpmath incomplete-gamma sum takes
over wherever that bound is not small enough, and is the tests' oracle.
The Laguerre rule, log Gamma and 1/Gamma are the module's own, each with
its error bound; nothing comes from scipy.

Residues of polynomial-weighted sums sum' P(k) |k|^{-s-r} are pure surface
integrals: a homogeneous term of degree d contributes its sphere moment
exactly when r = n + d and nothing otherwise.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .action_assembly import PoleError, ToleranceError, json_integer

_MP_DPS = 30
# the mpmath L-series gives up beyond this working precision
_MP_MAX_DPS = 100
# digits the incomplete-gamma route may use: |Im s| to ~390 at tol 1e-10
_GAMMAINC_MAX_DPS = 150


# ---------------------------------------------------------------------------
# lattice shell counts


def radial_counts(n: int, mmax: int) -> np.ndarray:
    """Number of k in Z^n with |k|^2 = m, for m = 0..mmax.

    Built coordinate by coordinate with the sparse square kernel, so large
    cutoffs stay cheap.
    """
    squares = [(0, 1)] + [(j * j, 2) for j in range(1, math.isqrt(mmax) + 1)]
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

ROUTE_L_SERIES = "Dirichlet L-series, float64 Euler-Maclaurin"
ROUTE_L_SERIES_EXTENDED = \
    "Dirichlet L-series, extended-precision Euler-Maclaurin"
ROUTE_L_SERIES_MPMATH = "Dirichlet L-series, mpmath"
ROUTE_QUADRATURE = "theta-integral Gauss-Laguerre quadrature"
ROUTE_CONTINUATION = "incomplete-gamma continuation"

# dimensions whose Z_n is a product of Dirichlet L-series
_L_SERIES_DIMS = (1, 2, 4, 6)
# the L-series identities are 0 * inf at s = 0 (every n) and at s = 2
# (n = 4); points this close to them take the theta-integral routes
_DISC = 0.1

# Bernoulli terms of the Euler-Maclaurin tail and of Stirling's series
_EM_TERMS = 12
_EPS = np.finfo(float).eps
# the second precision of the L-series: 80-bit extended (eps 1.1e-19) on
# x86-64 Linux; where it is a plain double (Windows, macOS arm64) that
# route is skipped
_EXTENDED = np.longdouble
# digits of the constants of a wider type: 133 bits, past IEEE quad's 113
_WIDE_DPS = 40
_HURWITZ_ROWS = 256  # the most terms _hurwitz sums before its tail

# Gauss-Laguerre node counts: the value comes from the larger rule and the
# gap to the smaller one measures its quadrature error.  Chosen against the
# mpmath route over n in {1, 2, 3, 4, 6}, Re s in [-6, n + 6],
# |Im s| <= 25, with scipy 1.17's nodes, whose count-dependent error of up
# to about 1e-14 made 55 and 70 the best counts; `_laguerre_rule` gives the
# nearest doubles at both.
_LAGUERRE_NODES = (55, 70)
# The bound is this factor times the larger of the node gap and the
# round-off estimate, which counts one unit in the last place of the
# largest bracket term, plus the error bound of 1/Gamma (`_rgamma`) times
# the value.  Over 3241 points checked against the mpmath route (n in
# {1, 2, 3, 4, 6}, Re s in [-6, n + 6], |Im s| <= 25: a grid, 728 random
# points and the s of zeta-grid seeds 1-10) the error with an exact
# 1/Gamma was at most 6.5 times the larger of the two, and the whole
# error at most 0.16 of the bound.
_BOUND_SAFETY = 32.0
# theta(t) - 1 = 2 sum_k exp(-pi k^2 t); at t >= 1 the k = 7 term is below
# exp(-48 pi) relative to the k = 1 term
_THETA_TERMS = 6


def _wide(x, real):
    """The mpmath number x in the real type, as the sum of the three
    doubles that hold it to 159 bits."""
    total = real(0)
    for _ in range(3):
        part = float(x)
        total += real(part)
        x -= part
    return total


class _Arith:
    """A real type and what the kernels need of it: its complex type, log,
    exp and eps, their constants from mpmath at _WIDE_DPS digits, and the
    Re w at which the first neglected Stirling term is eps for real w."""

    def __init__(self, real):
        self.real, self.complex = real, type(real(1) * 1j)
        self.log, self.exp = ((cmath.log, cmath.exp) if real is float
                              else (np.log, np.exp))
        self.eps = float(np.finfo(real).eps)
        wide = partial(_wide, real=real)
        with mp.workdps(_WIDE_DPS):
            bs = [(m, mp.bernoulli(m)) for m in range(2, 2 * _EM_TERMS + 1, 2)]
            self.em_coef = tuple(wide(b / mp.factorial(m)) for m, b in bs)
            self.stirling = tuple(wide(b / (m * (m - 1))) for m, b in bs)
            self.log_pi = wide(mp.log(mp.pi))
            self.stirling_const = wide((mp.log(2 * mp.pi) - 1) / 2)
        self.stirling_from = (float(abs(self.stirling[-1])) / self.eps) ** (
            1 / (2 * _EM_TERMS - 1))
        # (a + k, |log(a + k)|) for the a of the L-series identities and
        # k < _HURWITZ_ROWS, the bases of _hurwitz's head
        self.hurwitz_rows = {a: tuple((real(a) + k, abs(math.log(real(a) + k)))
                                      for k in range(_HURWITZ_ROWS))
                             for a in (0.25, 1)}


_arith = lru_cache(maxsize=None)(_Arith)


class _Bounded:
    """A number and a bound on its absolute error, kept through the
    products and differences of the L-series identities, in a real type
    of unit roundoff eps."""

    __slots__ = ("value", "error", "eps")

    def __init__(self, value, error, eps: float):
        self.value = value
        self.error = error
        self.eps = eps

    def __mul__(self, other):
        if not isinstance(other, _Bounded):
            # the identities' constants are powers of two: exact
            return _Bounded(other * self.value, abs(other) * self.error,
                            self.eps)
        value = self.value * other.value
        return _Bounded(value, abs(self.value) * other.error
                        + abs(other.value) * self.error
                        + self.error * other.error
                        + 2 * self.eps * abs(value), self.eps)

    __rmul__ = __mul__

    def __sub__(self, other):
        value = self.value - other.value
        return _Bounded(value, self.error + other.error
                        + self.eps * abs(value), self.eps)

    def __rsub__(self, other):
        # other is the exact constant 1
        value = other - self.value
        return _Bounded(value, self.error + self.eps * abs(value), self.eps)


def _hurwitz(w, a: float, arith: _Arith) -> _Bounded:
    """Hurwitz zeta(w, a) by Euler-Maclaurin, in the real type of arith,
    with an error bound.

    With x = a + N and M = _EM_TERMS,

        zeta(w, a) = sum_{k<N} (a+k)^-w + x^(1-w)/(w-1) + x^-w/2
                     + sum_{j<=M} B_2j/(2j)! (w)_(2j-1) x^(-w-2j+1) + R,

    |R| <= |B_2M|/(2M)! |(w)_2M| x^(1-Re w-2M) / (Re w + 2M - 1)
    (Johansson, Numer. Algorithms 69, 2015), for Re w > 1 - 2M.  N grows with
    |w| so the remainder stays negligible.  The rounding term counts, for
    each term, its phase error |w| log(a + k) (|w| log x and |w| / |w - 1|
    for the tail, whose w may itself be rounded) plus two units in the last
    place, and one unit of every partial sum.
    """
    size = abs(w)
    terms_n = min(max(16, math.ceil(size) + 8), _HURWITZ_ROWS)
    minus_w = -w
    partial, spread = 0j, 0.0
    for base, log_base in arith.hurwitz_rows[a][:terms_n]:
        term = base ** minus_w
        partial += term
        spread += abs(term) * (size * log_base + 2) + abs(partial)
    x = arith.real(a) + terms_n
    head = x ** minus_w
    # poch = (w)_(2j-1) / x^(2j-1), j = 1..M
    poch, corr, corr_size = w / x, 0j, 0.0
    for i, coef in enumerate(arith.em_coef):
        term = coef * poch
        corr += term
        corr_size += abs(term)
        last = poch * (w + 2 * i + 1) / x
        poch = last * (w + 2 * i + 2) / x
    pole = x / (w - 1)
    value = partial + head * (pole + 0.5 + corr)
    remainder = (abs(arith.em_coef[-1]) * abs(last) * x * abs(head)
                 / (w.real + 2 * _EM_TERMS - 1))
    tail = abs(head) * (abs(pole) + 0.5 + corr_size)
    rounding = arith.eps * (spread + tail * (size * (math.log(x)
                                                     + 1 / abs(w - 1)) + 3))
    return _Bounded(value, remainder + rounding, arith.eps)


def _power(base: float, z, arith: _Arith) -> _Bounded:
    value = arith.real(base) ** z
    return _Bounded(value, arith.eps * abs(value)
                    * (abs(z) * math.log(base) + 2), arith.eps)


def _log_gamma(z, arith: _Arith) -> tuple:
    """log Gamma(z) on some branch, in the complex type of arith, and a
    bound on its error.  With w = z + m, Re w >= stirling_from, K = _EM_TERMS:

        log Gamma(z) = (w - 1/2)(log w - 1) + (log(2 pi) - 1)/2 + R
            + sum_{j<K} B_2j / (2j (2j-1) w^(2j-1)) - log prod_{k<m} (z + k)

    |R| is at most the first neglected term times sec^(2K)(ph w / 2) =
    (2 |w| / (|w| + Re w))^K <= 2^K (DLMF 5.11(ii)).  The rounding term
    counts a unit of w (through digamma), w - 1/2, log w, log w - 1 and
    their product, two of the value, of the log of the product and of each
    factor, and one for the series (below 1/(12 Re w) <= 1/70)."""
    if z.real < -2000:  # exp(-log Gamma) overflows there, off the poles
        raise OverflowError(f"1/Gamma({z}) overflows a double")
    shifts = max(0, math.ceil(arith.stirling_from - z.real))
    log_prod = arith.log(math.prod(z + k for k in range(shifts)))
    w = z + shifts
    inv, series = 1 / w, 0
    inv2 = inv * inv
    *head, last = arith.stirling
    for coef in reversed(head):
        series = series * inv2 + coef
    half_w, log_w = w - 0.5, arith.log(w)
    value = (half_w * (log_w - 1) + arith.stirling_const + series * inv
             - log_prod)
    remainder = abs(last * inv * inv2 ** (_EM_TERMS - 1)) * (
        2 * abs(w) / (abs(w) + w.real)) ** _EM_TERMS
    rounding = arith.eps * (
        (abs(half_w) + 1) * (1 + abs(log_w) + 3 * abs(log_w - 1))
        + 2 * (abs(value) + abs(log_prod)) + 2 * shifts + 1)
    return value, float(remainder + rounding)


def _l_identity(n: int, s, zeta, power):
    """Z_n(s) for n in {1, 2, 4, 6} from Dirichlet L-series (Jacobi, Hardy).

    zeta(w, a) is the Hurwitz zeta function and power(b, z) = b^z, in the
    arithmetic of the caller: float64 with error bounds, or mpmath.  beta
    takes one Hurwitz zeta, by zeta(w, 1/4) + zeta(w, 3/4) = (4^w - 2^w)
    zeta(w), and shares zeta(w) with the product.
    """
    def beta(v, zeta_v):
        return (2 * power(4, -v) * zeta(v, 0.25)
                - (1 - power(2, -v)) * zeta_v)

    w = s / 2
    if n == 1:
        return 2 * zeta(s, 1)
    if n == 4:
        return 8 * (1 - power(4, 1 - w)) * zeta(w, 1) * zeta(w - 1, 1)
    z = zeta(w, 1)
    if n == 2:
        return 4 * z * beta(w, z)
    z2 = zeta(w - 2, 1)
    return 16 * z2 * beta(w, z) - 4 * z * beta(w - 2, z2)


# CPython's math.gamma is within 10 ulps over the whole float domain, by
# the account of its source (Modules/mathmodule.c); with a unit of the
# quotient, 1/gamma is within 11 units of eps
_MATH_RGAMMA_ERROR = 11 * _EPS


def _rgamma(z: complex) -> tuple:
    """1/Gamma(z) and a bound on its relative error: exactly 0 at the poles
    z = 0, -1, -2, ...; on the rest of the real axis 1 / math.gamma(z)
    (exactly 1 at z = 1) where math.gamma is a finite normal double; and
    elsewhere exp(-log Gamma(z)), whose bound adds two units of exp to that
    of `_log_gamma`."""
    if z.imag == 0:
        x = z.real
        if x <= 0 and x.is_integer():
            return 0.0, 0.0
        try:
            gamma = math.gamma(x)
        except OverflowError:
            gamma = math.inf
        if sys.float_info.min <= abs(gamma) < math.inf:
            return 1 / gamma, _MATH_RGAMMA_ERROR
    log_gamma, error = _log_gamma(complex(z), _arith(float))
    return cmath.exp(-log_gamma), math.expm1(error) + 2 * _EPS


def _reflection(n: int, s: complex, arith: _Arith) -> _Bounded:
    """pi^(s-n/2) Gamma((n-s)/2) / Gamma(s/2), the functional-equation
    factor for Re s < n/2, in the complex type of arith.  The error of its
    exponent adds the bounds of the two log Gammas, the rounding of
    a = (n - s)/2 through digamma (|psi(a)| <= |log a| + 1/|a| at
    Re a > 1/4), a unit of each operation and two of exp.
    """
    sx, size_a = arith.complex(s), abs(n - s) / 2
    big, big_error = _log_gamma((n - sx) / 2, arith)
    small, small_error = _log_gamma(sx / 2, arith)
    shift = (sx - n / 2) * arith.log_pi
    exponent = shift + big - small
    error = big_error + small_error + arith.eps * float(
        size_a * (abs(math.log(size_a)) + 2) + 3 * abs(shift)
        + abs(shift + big) + abs(exponent) + 3)
    factor = arith.exp(exponent)
    return _Bounded(factor, abs(factor) * math.expm1(error), arith.eps)


def _l_series(n: int, s: complex, arith: _Arith) -> tuple:
    """Z_n(s), n in {1, 2, 4, 6}, in the real type of arith, and a bound on
    its error: directly for Re s >= n/2, and below through the functional
    equation pi^(-s/2) Gamma(s/2) Z(s) = pi^(-(n-s)/2) Gamma((n-s)/2) Z(n-s).
    Raises OverflowError where float64 cannot hold a term; a wider numpy
    type gives inf or NaN there instead.
    """
    sx = arith.complex(s)
    zeta, power = partial(_hurwitz, arith=arith), partial(_power, arith=arith)
    if s.real >= n / 2:
        z = _l_identity(n, sx, zeta, power)
    elif s.imag == 0 and s.real < 0 and s.real % 2 == 0:
        # a trivial zero: 1/Gamma(s/2) vanishes at s = -2, -4, ...
        return 0j, 0.0
    else:
        z = _reflection(n, s, arith) * _l_identity(n, n - sx, zeta, power)
    return z.value, z.error


def _l_series_mpmath(n: int, s):
    """Z_n(s), n in {1, 2, 4, 6}, from the L-series at mpmath's precision."""
    if s.real < mp.mpf(n) / 2:
        return (mp.power(mp.pi, s - mp.mpf(n) / 2) * mp.gamma((n - s) / 2)
                * mp.rgamma(s / 2) * _l_series_mpmath(n, n - s))
    return _l_identity(n, s, mp.zeta, mp.power)


def _laguerre_rule(count: int) -> tuple:
    """Nodes and weights, as doubles, of the count-point Gauss-Laguerre
    rule for int_0^inf e^{-u} f(u) du.

    numpy's laggauss nodes take two Newton steps in long double, with
    L_count from (k + 1) L_{k+1} = (2k + 1 - u) L_k - k L_{k-1} and
    u L_count' = count (L_count - L_{count-1}); the weights are
    u / ((count + 1) L_{count+1}(u))^2 (Abramowitz and Stegun 25.4.45).
    """
    u = np.polynomial.laguerre.laggauss(count)[0].astype(_EXTENDED)

    def last_two(order):
        prev, cur = np.ones_like(u), 1 - u
        for k in range(1, order):
            prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
        return prev, cur

    for _ in range(2):
        prev, cur = last_two(count)
        u -= u * cur / (count * (cur - prev))
    weights = u / ((count + 1) * last_two(count + 1)[1]) ** 2
    return u.astype(float), weights.astype(float)


@lru_cache(maxsize=None)
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
    log_t = np.log(t)
    log_t.setflags(write=False)
    weights.setflags(write=False)
    return log_t, weights


def _to_double(val, error) -> tuple:
    """(val rounded to the nearest complex double, error plus that rounding,
    the modulus of half an ulp of each part); a Python complex is a double
    already."""
    if type(val) is complex:
        return val, float(error)
    value = complex(val)
    rounding = 0.5 * math.hypot(math.ulp(value.real), math.ulp(value.imag))
    return value, float(error) + rounding


class EpsteinValue(NamedTuple):
    """Z_n at one point: the value, its error bound and its route."""

    value: complex
    bound: float
    route: str


class EpsteinEvaluator:
    """Meromorphic continuation of Z_n(s), n in 1..6, one point at a time.

    Each point walks one chain of routes and keeps the first whose error is
    below a tenth of the tolerance and whose `tail_bound`, that error plus
    the rounding of the value to a double (`_to_double`), is below the
    tolerance; where the last route fails that rule, ToleranceError.

    For n in {1, 2, 4, 6}, Z_n is a product of Dirichlet L-series
    (`_l_identity`): a Hurwitz zeta for Re s >= n/2 and the functional
    equation with a Stirling log Gamma below, bounded by their remainders
    and a unit of every operation, in float64, then long double (where
    wider than a double), then mpmath (bounded by the change between two
    working precisions).

    For n = 3 and 5, which have no such product, and in discs of radius
    _DISC around s = 0 and (n = 4) s = 2, where the identities are 0 * inf,
    the theta split at t = 1 is used instead.  Its float64 route writes it
    as the Mellin integral

        pi^{-s/2} Gamma(s/2) Z_n(s)
            = int_1^inf (theta(t)^n - 1)(t^{s/2-1} + t^{(n-s)/2-1}) dt
              - 2/s - 2/(n-s)

    and evaluates it with two Gauss-Laguerre rules at once.  Its bound is a
    safety factor times the larger of the gap between the rules and the
    float64 round-off, which grows with pi^{s/2}/Gamma(s/2+1) (like
    e^{pi |Im s|/4}), plus |Z| times the relative error bound of
    1/Gamma(s/2+1) (`_rgamma`).  After it comes the mpmath incomplete-gamma
    route, whose shell cutoff grows until two successive evaluations agree
    within a tenth of the tolerance.
    """

    def __init__(self, n: int, tol: float = 1e-10):
        if not 1 <= n <= 6:
            raise ValueError(f"Epstein dimension must be in 1..6, got {n}")
        if not tol > 0:
            raise ValueError("tolerance must be positive")
        self.n = n
        self.tol = tol
        chain = [(ROUTE_L_SERIES, partial(_l_series, n, arith=_arith(float)))]
        wide = _arith(_EXTENDED)
        if wide.eps < _EPS:
            chain.append((ROUTE_L_SERIES_EXTENDED,
                          partial(_l_series, n, arith=wide)))
        chain.append((ROUTE_L_SERIES_MPMATH, self._value_l_series_mpmath))
        self._l_chain = chain

    def _theta_shells(self, s: complex, lo: int, hi: int, counts):
        """sum over shells lo..hi of r(m) [G(s/2, pi m) + G((n-s)/2, pi m)],
        r(m) = counts[m] (radial_counts)."""
        n = self.n
        a1, a2 = mp.mpc(s) / 2, (n - mp.mpc(s)) / 2
        acc = mp.mpc(0)
        for m in range(lo, hi + 1):
            cnt = int(counts[m])
            if cnt == 0:
                continue
            x = mp.pi * m
            acc += cnt * sum(mp.gammainc(a, x) * mp.power(x, -a)
                             for a in (a1, a2))
        return acc

    # increments below this are working-precision noise, not evidence
    _BOUND_FLOOR = 1e-25

    def value(self, s: complex) -> EpsteinValue:
        """Z_n(s), its bound and its route (see the class docstring).

        Raises PoleError at s = n.
        """
        s, n = complex(s), self.n
        if abs(s - n) < 1e-12:
            raise PoleError(f"Z_{n} has its unique pole at s = {n}")
        if n not in _L_SERIES_DIMS or abs(s) < _DISC or (
                n == 4 and abs(s - 2) < _DISC):
            return self._first_kept(s, ((ROUTE_QUADRATURE, self._quadrature),
                                        (ROUTE_CONTINUATION, self._shells)))
        return self._first_kept(s, self._l_chain)

    def _first_kept(self, s: complex, chain) -> EpsteinValue:
        """The value of the first (route, evaluate) of chain whose error is
        below 0.1 tol and whose tail_bound, with the rounding to a double,
        is below tol.  Where none is, a ToleranceError with the last finite
        value and bound, or one that names the overflow where no route
        gave a finite pair."""
        if 0.1 * self.tol <= self._BOUND_FLOOR:
            raise ToleranceError(
                f"tolerance {self.tol:g} is below the evaluator's "
                f"certifiable floor")
        finite = None
        with np.errstate(all="ignore"):
            for route, evaluate in chain:
                try:
                    value, error = evaluate(s)
                # float64 cannot hold a term; a complex power whose phase
                # overflows raises ZeroDivisionError (libm's EDOM)
                except (OverflowError, ZeroDivisionError):
                    continue
                value, bound = _to_double(value, error)
                if error < 0.1 * self.tol and bound < self.tol:
                    if s.imag == 0:
                        # Z_n is real on the real axis: the imaginary part
                        # is rounding, and + 0.0 makes a trivial zero 0.0
                        value = complex(value.real + 0.0)
                    return EpsteinValue(value, bound, route)
                if cmath.isfinite(value) and math.isfinite(bound):
                    finite = value, bound
        if finite is None:
            raise ToleranceError(
                f"Z_{self.n}({s}) overflows a double on every route")
        value, bound = finite
        raise ToleranceError(f"Z_{self.n}({s}) = {value}: no double holds"
                             f" it within {self.tol:g} (bound {bound:.3g})")

    def _quadrature(self, s: complex) -> tuple:
        """Float64 Z_n(s) and its bound (see the class docstring)."""
        n, half = self.n, s / 2
        coarse, fine = (
            weights * (np.exp((half - 1) * log_t)
                       + np.exp(((n - s) / 2 - 1) * log_t))
            for log_t, weights in (_theta_rule(n, nodes)
                                   for nodes in _LAGUERRE_NODES))
        integral = fine.sum()
        # stable form: Z = pi^{s/2} [ (s/2) I - 1 - s/(n-s) ] / Gamma(s/2+1)
        rgamma, rgamma_error = _rgamma(half + 1)
        pref = np.exp(half * _arith(float).log_pi) * rgamma
        pole = s / (n - s)
        gap = abs(pref * half * (integral - coarse.sum()))
        # np.maximum, not max: a NaN (overflow far out in s) must fail
        largest = np.maximum(np.maximum(abs(half) * np.abs(fine).sum(), 1.0),
                             abs(pole))
        roundoff = _EPS * largest * abs(pref)
        value = complex(pref * (half * integral - 1 - pole))
        return value, float(_BOUND_SAFETY * np.maximum(gap, roundoff)
                            + rgamma_error * abs(value))

    def _converge(self, approximations, failure: str) -> tuple:
        """The first of successive mpmath approximations that differs from
        the one before by less than 0.1 tol, and that change floored at
        _BOUND_FLOOR; ToleranceError(failure) when they run out."""
        prev = None
        for val in approximations:
            if prev is not None:
                change = max(float(abs(val - prev)), self._BOUND_FLOOR)
                if change < 0.1 * self.tol:
                    return val, change
            prev = val
        raise ToleranceError(failure)

    def _value_l_series_mpmath(self, s: complex) -> tuple:
        """(Z_n(s), change) from the L-series in mpmath, n in {1, 2, 4, 6},
        at the digits 0.1 tol needs plus five and at least a double's 16,
        then ten more at a time up to _MP_MAX_DPS (_converge).  Where the
        terms past the first, about 10^-tail, pass 10^(5 - first), their
        phases need log10 |Im s| more digits; past _MP_MAX_DPS, overflow."""
        first = max(16, math.ceil(-math.log10(0.1 * self.tol)) + 5)
        tail = ((s.real if self.n == 1 else s.real / 2) - 1) * math.log10(2)
        if abs(s.imag) >= 10.0 ** (_MP_MAX_DPS - first) and tail <= first - 5:
            raise OverflowError(f"the phases of Z_{self.n}({s}) overflow")
        def approximations():
            for dps in range(first, _MP_MAX_DPS + 1, 10):
                with mp.workdps(dps):
                    val = _l_series_mpmath(self.n, mp.mpc(s))
                # outside workdps: _converge differences at the caller's
                # precision
                yield val

        return self._converge(approximations(),
                              f"Epstein L-series did not converge for s = {s}")

    def _shells(self, s: complex) -> tuple:
        """(Z_n(s), change) from the mpmath incomplete-gamma shells, in
        blocks of 8 past the first 16, up to shell 408 (_converge); a block
        that holds no lattice point joins the next one.

        The shells cancel down to the value by about pi |Im s| / (4 ln 10)
        digits, so the working precision grows with |Im s| on top of the
        digits the tolerance needs, up to _GAMMAINC_MAX_DPS.
        """
        n = self.n
        if s.imag == 0 and s.real < 0 and s.real % 2 == 0:
            return 0j, self._BOUND_FLOOR  # a trivial zero: 1/Gamma is 0
        if s.real < -4000:  # off the trivial zeros |Z_n| > 1e308 there
            raise OverflowError(f"Z_{n}({s}) overflows a double")
        dps = max(_MP_DPS,
                  math.ceil(math.pi * abs(s.imag) / (4 * math.log(10)))
                  + math.ceil(-math.log10(0.1 * self.tol)) + 5)
        if dps > _GAMMAINC_MAX_DPS:
            raise ToleranceError(f"Z_{n}({s}) needs {dps} working digits, "
                                 f"over the ceiling of {_GAMMAINC_MAX_DPS}")
        ends = range(16, 409, 8)
        counts = radial_counts(n, ends[-1])
        with mp.workdps(dps):
            if abs(s.real) >= 2 ** (mp.mp.prec + 1):  # s/2 + 1 is inexact
                raise ToleranceError(f"Z_{n}({s}) is past the shells' range")
            ms = mp.mpc(s)

            def approximations():
                block, lo = 0, 1
                for hi in ends:
                    if not counts[lo:hi + 1].any():
                        continue  # no lattice point: no new evidence
                    block += self._theta_shells(s, lo, hi, counts)
                    lo = hi + 1
                    # stable form: Z = pi^{s/2} [ (s/2) I - 1 - s/(n-s) ]
                    # / Gamma(s/2+1)
                    bracket = (ms / 2) * block - 1 - ms / (n - ms)
                    yield (mp.power(mp.pi, ms / 2) * bracket
                           * mp.rgamma(ms / 2 + 1))

            return self._converge(
                approximations(),
                f"Epstein evaluation did not converge for s = {s}")

    def residue(self) -> float:
        """Residue at s = n: the residue calculus at P = 1 (area of S^{n-1})."""
        n = self.n
        return residue_lattice_sum(n, LatticePoly.monomial(n, [0] * n), n).real


# (s - n) Z_n(s) is entire, so the trapezoid rule on a circle around n
# converges geometrically; the radius keeps the circle clear of s = 2 at n = 4
CONTOUR_RADIUS = 0.5
CONTOUR_NODES = 16


def epstein_pole_fit(n: int, tol: float = 1e-10) -> float:
    """Residue of Z_n at s = n: the mean of (s - n) Z_n(s) over
    CONTOUR_NODES equispaced points of the circle |s - n| = CONTOUR_RADIUS,
    which is (1 / 2 pi i) times the contour integral by the trapezoid rule;
    the points are evaluated one at a time."""
    offsets = CONTOUR_RADIUS * np.exp(
        2j * math.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
    ev = EpsteinEvaluator(n, tol)
    values = np.array([ev.value(n + z).value for z in offsets])
    return float(np.mean(offsets * values).real)


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
            p = tuple(json_integer(e) for e in p)
            if len(p) != self.n:
                raise ValueError(f"exponent vector {p} has wrong length for n = {self.n}")
            if any(e < 0 for e in p):
                raise ValueError("exponents must be nonnegative")
            merged[p] = merged.get(p, 0.0) + complex(c)
        self.terms = [(p, c) for p, c in sorted(merged.items()) if c != 0]

    @classmethod
    def monomial(cls, n: int, exponents, coeff=1.0) -> "LatticePoly":
        return cls(n, [(tuple(exponents), coeff)])


def sphere_moment(n: int, p) -> float:
    """Integral of u^p over the unit sphere S^{n-1}, zero for odd exponents;
    each Gamma((p_i + 1)/2) / sqrt(pi) is a product of half-integers, so at
    p = 0 this is the closed form 2 pi^(n/2) / Gamma(n/2) bit for bit."""
    p = tuple(json_integer(e) for e in p)
    if len(p) != n:
        raise ValueError("exponent vector length must equal n")
    if any(e < 0 for e in p):
        raise ValueError("exponents must be nonnegative")
    if any(e % 2 == 1 for e in p):
        return 0.0
    # first: it overflows past n + |p| = 343, which bounds the product
    denominator = math.gamma((n + sum(p)) / 2)
    halves = math.prod(j + 0.5 for e in p for j in range(e // 2))
    return 2 * math.pi ** (n / 2) * halves / denominator


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
