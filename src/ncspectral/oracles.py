"""Brute-force routes that the closed formulas are checked against.

Each route here reaches its number independently of the production path:
adaptive quadrature of cutoff moments, truncated spectra, direct lattice
summation, the incomplete-gamma continuation of the Epstein zeta, gauge
moves in the Weyl algebra, the weight-3 tau1 sum over the r-image, shell
traces on the spinorial basis and the L/M substitution calculus.  The
acceptance suite and the tests import them; no library module does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import lattice_zeta as lz
from .action_assembly import (AssumptionError, DivergentMomentError,
                              PoleError, ToleranceError, lazy_module)
from .lattice_zeta import LatticePoly, radial_counts, sphere_moment
from .nc_torus import (OneFormTorus, Theta, TorusElement, cs_sums, curvature,
                       weyl_mul)
from .suq2 import (AM, AMS, AP, APS, BM, BMS, BP, BPS, LadderElem, PBWElem,
                   QContext, delta_ladder, hopf_r, leg_diag_coeff, leg_shift,
                   rep_ladder, tau1)


# scipy.integrate loads some 290 modules (optimize, sparse, spatial) that
# the CLI's ops never use; only the quadrature oracle below needs it.  An
# import inside that function would leave it out of sys.modules, where the
# traced benchmark run looks up the `quad` it counts.
integrate = lazy_module("scipy.integrate")

# ---------------------------------------------------------------------------
# cutoff moments


def moment_quadrature(phi, k: float) -> tuple:
    """Adaptive quadrature of (1/2) phi(t) t^(k/2-1) on (0, inf)."""
    if k <= 0:
        raise DivergentMomentError(f"moment k = {k} diverges at t = 0")
    val, err = integrate.quad(lambda t: 0.5 * phi(t) * t ** (k / 2.0 - 1.0),
                              0.0, np.inf, limit=400)
    if not np.isfinite(val) or err > 1e-8:
        raise DivergentMomentError(
            f"quadrature for Phi_{k} failed (value {val}, error {err})")
    return val, err


# ---------------------------------------------------------------------------
# lattice sums


def value_direct(n: int, s: complex, radius: float) -> complex:
    """Z_n(s) by truncated summation plus integral tail; valid for
    Re(s) > n - 1.

    Independent of the continued path; used as an oracle.
    """
    s = complex(s)
    m2 = int(radius * radius)
    m = np.arange(1, m2 + 1, dtype=float)
    weights = radial_counts(n, m2)[1: m2 + 1].astype(float)
    partial = np.sum(weights * m ** (-s / 2.0))
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    tail = area * radius ** (n - s) / (s - n)
    return complex(partial + tail)


def epstein_continuation(n: int, s: complex, tol: float) -> tuple:
    """(Z_n(s), tail_bound) from the mpmath incomplete-gamma shells alone,
    under the rule of `EpsteinEvaluator.value` at tol.

    Independent of the float64 and L-series routes; the oracle the tests
    compare every route with.
    """
    ev = lz.EpsteinEvaluator(n, tol)
    return ev._first_kept(complex(s),
                          ((lz.ROUTE_CONTINUATION, ev._shells),))[:2]


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


def riemann_zeta(s: complex) -> complex:
    """zeta(s) on C \\ {1}, via mpmath's Euler-Maclaurin continuation."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has its pole at s = 1")
    with mp.workdps(lz._MP_DPS):
        return complex(mp.zeta(mp.mpc(s)))


# ---------------------------------------------------------------------------
# noncommutative torus


def pairing(theta: Theta, k, q) -> float:
    """k . Theta q"""
    return float(np.dot(k, theta.entries @ np.asarray(q, dtype=float)))


def curvature_from_coefficients(A: OneFormTorus, theta: Theta) -> dict:
    """Second, independent route: the explicit mode-space expansion

    F_{ab} = i sum_k [ (a_{b,k} k_a - a_{a,k} k_b)
                       - 2 sum_l a_{a,k-l} a_{b,l} sin(k.Theta l / 2) ] U_k,
    as {(a, b): F_ab} for a < b.
    """
    n = A.n
    table = {}
    for a in range(1, n + 1):
        ca = A.component(a).coeffs
        for b in range(a + 1, n + 1):
            cb = A.component(b).coeffs
            out: dict = {}
            for k, c in cb.items():
                out[k] = out.get(k, 0.0) + 1.0j * c * k[a - 1]
            for k, c in ca.items():
                out[k] = out.get(k, 0.0) - 1.0j * c * k[b - 1]
            for ka, va in ca.items():
                for lb, vb in cb.items():
                    k = tuple(x + y for x, y in zip(ka, lb))
                    s = math.sin(0.5 * pairing(theta, k, lb))
                    out[k] = out.get(k, 0.0) - 2.0j * va * vb * s
            table[(a, b)] = TorusElement(n, out)
    return table


UNITARY_TOL = 1e-10  # |u u* - 1|_1 and |u* u - 1|_1 allowed in a gauge element


def _distance_to_unit(x: TorusElement) -> float:
    """|x - 1|_1, the L1 distance of x to the unit U_0."""
    coeffs = dict(x.coeffs)
    zero = (0,) * x.n
    coeffs[zero] = coeffs.get(zero, 0.0) - 1.0
    return sum(abs(c) for c in coeffs.values())


def gauge_transform(A: OneFormTorus, u: TorusElement,
                    theta: Theta) -> OneFormTorus:
    """A_a -> u A_a u* + u d_a(u*), for unitary u, in the Weyl algebra."""
    ustar = u.adjoint()
    if not (_distance_to_unit(weyl_mul(u, ustar, theta)) <= UNITARY_TOL
            and _distance_to_unit(weyl_mul(ustar, u, theta)) <= UNITARY_TOL):
        raise ValueError("gauge element is not unitary within tolerance")
    entries = []
    for a in range(1, A.n + 1):
        transported = weyl_mul(weyl_mul(u, A.component(a), theta), ustar, theta)
        inhom = weyl_mul(u, ustar.delta(a), theta)
        entries += [(a, k, c) for k, c in (transported + inhom).coeffs.items()]
    return OneFormTorus(A.n, entries)


def _curvature_ff_trace(A, theta):
    """tau(F F) = 2 sum_{a<b} sum_k f_k f_{-k} from the dict curvature, a
    route apart from the pair table behind yang_mills and cs_sums."""
    fs = [f.coeffs for f in curvature(A, theta).values()]
    return 2.0 * complex(sum(c * f.get(tuple(-x for x in k), 0.0)
                             for f in fs for k, c in f.items())).real


def zeta0_shift_via_power_sums(A: OneFormTorus, theta: Theta,
                               diophantine_asserted: bool = False) -> float:
    """Independent route: 2 sum_q (-1)^q / q of the closed power sums."""
    if not diophantine_asserted:
        raise AssumptionError(
            "Diophantine assumption on theta/2pi not asserted")
    acc = 0.0  # the q = 1 tadpole term vanishes on the torus
    for q in (2, 3, 4):
        acc += (-1.0) ** q / q * cs_sums(A, theta, q)
    return 2.0 * acc


@dataclass
class TruncatedSpectrum:
    n: int
    radius: int
    eigenvalues: np.ndarray

    @property
    def kernel_dim(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) < 1e-9))

    def multiplicity(self, value: float, tol: float = 1e-9) -> int:
        return int(np.sum(np.abs(self.eigenvalues - value) < tol))


def gamma_matrices(n: int) -> tuple:
    """n hermitian matrices on C^(2^(n//2)) with {g_i, g_j} = 2 delta_ij,
    n >= 1, from iterated tensor products of Pauli matrices: 2m of size
    2^m, and for odd n the product (-i)^m g_1 ... g_2m.  dirac_truncated
    uses only the spectrum of k_mu g^mu, which does not depend on this
    unitary convention."""
    if n == 1:
        return (np.array([[1.0]], dtype=complex),)
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sigma2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    mats = [sigma1, sigma2]
    m = n // 2
    # grow even blocks: 2m matrices of size 2^m
    for _ in range(2, m + 1):
        eye = np.eye(mats[0].shape[0], dtype=complex)
        mats = [np.kron(g, sigma3) for g in mats]
        mats += [np.kron(eye, sigma1), np.kron(eye, sigma2)]
    if n % 2 == 1:
        prod = np.eye(mats[0].shape[0], dtype=complex)
        for g in mats:
            prod = prod @ g
        mats.append((-1.0j) ** m * prod)
    return tuple(mats)


def dirac_truncated(n: int, K: int, max_dim: int = 2_000_000) -> TruncatedSpectrum:
    """Eigenvalues of D restricted to modes |k| <= K, via exact
    diagonalization of the fiber matrices k_mu gamma^mu."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"spatial dimension must be a positive integer, got {n!r}")
    if K < 1:
        raise ValueError("truncation radius must be >= 1")
    grid = np.arange(-K, K + 1)
    size = (2 * K + 1) ** n * 2 ** (n // 2)
    if size > max_dim:
        raise MemoryError(
            f"truncated Dirac needs {size} basis vectors, "
            f"over the guard {max_dim}")
    gammas = gamma_matrices(n)
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    modes = np.stack([m.ravel() for m in mesh], axis=1)
    modes = modes[np.sum(modes.astype(float) ** 2, axis=1) <= K * K + 1e-9]
    eigs = []
    for k in modes:
        fiber = sum(float(ki) * g for ki, g in zip(k, gammas))
        eigs.append(np.linalg.eigvalsh(fiber))
    return TruncatedSpectrum(n=n, radius=K,
                             eigenvalues=np.sort(np.concatenate(eigs)))


# ---------------------------------------------------------------------------
# SU_q(2): dense legs, the tau0 series and the unperturbed Dirac zeta


def leg_matrix(leg, side: str, q: float, size: int) -> np.ndarray:
    """Dense truncation of a leg word on the first `size` basis vectors."""
    mat = np.eye(size)
    for letter in reversed(leg):
        step = np.zeros((size, size))
        for n in range(size):
            if letter == "a":
                if n + 1 < size:
                    step[n + 1, n] = math.sqrt(1.0 - q ** (2 * (n + 1)))
            elif letter == "a*":
                if n > 0:
                    step[n - 1, n] = math.sqrt(1.0 - q ** (2 * n))
            else:
                step[n, n] = q ** n if side == "+" else -q ** n
        mat = step @ mat
    return mat


def tau0_series(leg, side: str, ctx: QContext,
                max_terms: int = 20000) -> float:
    """tau0 as the partial sums of f(n) - tau1, against the closed form of
    `suq2.tau0`.

    The partial sums converge geometrically: words with b letters decay like
    q^(n #b), b-free words approach 1 like q^(2n).  The loop stops when the
    corresponding tail bound falls below the context tolerance.
    """
    leg = tuple(leg)
    if leg_shift(leg) != 0:
        return 0.0
    q = ctx.q
    t1 = tau1(leg)
    nb = sum(1 for l in leg if l in ("b", "b*"))
    length = len(leg)
    total = 0.0
    for n in range(max_terms):
        total += leg_diag_coeff(leg, side, n, q) - t1
        if n >= length:
            if nb > 0:
                bound = q ** (nb * (n + 1 - length)) / (1.0 - q ** nb)
            else:
                bound = length * q ** (2 * (n + 1 - length)) / (1.0 - q * q)
            if bound < ctx.tol:
                return total
    raise ToleranceError(
        f"tau0 series for {leg} did not meet tol {ctx.tol} within "
        f"{max_terms} terms")


def weight3_tau1_integral(T: LadderElem, ctx: QContext) -> complex:
    """Integral of T against |D|^-3 as 2 sum_w c_w q^qpow tau1(leg+)
    tau1(leg-) over the r-image of T, against the degree grading of
    `suq2.nc_integral`."""
    terms = [2.0 * c * ctx.q ** qpow * tau1(plus) * tau1(minus)
             for (plus, minus, qpow), c in hopf_r(T).items()]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def zeta_D_suq2(s: complex) -> complex:
    """zeta_D(s) = 2 (2^{s-2} - 1) zeta(s-2) - (1/2)(2^s - 1) zeta(s)."""
    s = complex(s)
    for pole in (3.0, 1.0):
        if abs(s - pole) < 1e-12:
            raise PoleError(f"zeta_D has a pole at s = {pole}")
    return (2.0 * (2.0 ** (s - 2) - 1.0) * riemann_zeta(s - 2)
            - 0.5 * (2.0 ** s - 1.0) * riemann_zeta(s))


# ---------------------------------------------------------------------------
# SU_q(2): ideal-R reduction, polynomials in the diagonal operators L and M


class NotReducibleError(ValueError):
    pass


def _lm_mul(p1: dict, p2: dict) -> dict:
    """Product of polynomials in L, M with the cross terms L M dropped."""
    out: dict = {}
    for (k1, e1), c1 in p1.items():
        for (k2, e2), c2 in p2.items():
            if k1 == "1":
                key = (k2, e2)
            elif k2 == "1":
                key = (k1, e1)
            elif k1 == k2:
                key = (k1, e1 + e2)
            else:
                continue  # L M lies in the invisible ideal
            out[key] = out.get(key, 0.0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _lm_base(tag: str, q: float) -> dict:
    L1, M1, one = ("L", 1), ("M", 1), ("1", 0)
    table = {
        "bb*": {L1: 1.0, M1: 1.0},
        "bdb*": {M1: 1.0, L1: -1.0},
        "b*db": {L1: 1.0, M1: -1.0},
        "ada*": {L1: 1.0, M1: 1.0, one: -1.0},
        "a*da": {one: 1.0, L1: -q * q, M1: -q * q},
        "dada*": {L1: 1.0, M1: 1.0, one: -1.0},
        "da*da": {L1: q * q, M1: q * q, one: -1.0},
    }
    if tag not in table:
        raise NotReducibleError(f"no substitution rule for {tag!r}")
    return dict(table[tag])


def ideal_r_reduce(n: int, tag: str, q: float) -> dict:
    """Normal form of (b b*)^n x in the span of powers of L and M.

    Supported x tags: 'one', 'bdb*', 'b*db', 'ada*', 'a*da', 'dada*',
    'da*da', 'dbdb', 'dbdb*', 'db*db*', and the mixed vanishing families
    'a*b*dadb', 'ab*da*db', 'a*bdadb*', 'abda*db*'.
    """
    if n < 0:
        raise NotReducibleError("weight n must be nonnegative")
    if tag == "one":
        if n == 0:
            return {("1", 0): 1.0}
        return {("L", n): 1.0, ("M", n): 1.0}
    if tag == "dbdb":
        # (bb*)^n (b*)^2 db db = b^(n) b*^(n+2) db db -> L^{n+2} + M^{n+2}
        return {("L", n + 2): 1.0, ("M", n + 2): 1.0}
    if tag == "dbdb*":
        return {("L", n + 1): -1.0, ("M", n + 1): -1.0}
    if tag == "db*db*":
        return {("L", n + 2): 1.0, ("M", n + 2): 1.0}
    prefix = ideal_r_reduce(n, "one", q) if n else {("1", 0): 1.0}
    mixed = {
        "a*b*dadb": (q, ("a*da", "b*db")),
        "ab*da*db": (1.0 / q, ("ada*", "b*db")),
        "a*bdadb*": (q, ("a*da", "bdb*")),
        "abda*db*": (1.0 / q, ("ada*", "bdb*")),
    }
    if tag in mixed:
        factor, (t1, t2) = mixed[tag]
        poly = _lm_mul(_lm_base(t1, q), _lm_base(t2, q))
        poly = {k: factor * c for k, c in poly.items()}
    else:
        poly = _lm_base(tag, q)
    return _lm_mul(prefix, poly)


def lqmq_integral(poly: dict, ctx: QContext) -> float:
    """Weight-2 integral of an L/M polynomial: each L^n or M^n contributes
    2 / (1 - q^(2n)); the constant is invisible at this weight."""
    total = 0.0
    for (kind, e), c in poly.items():
        if kind == "1":
            continue
        if e < 1:
            raise ValueError("L/M powers must be >= 1")
        cc = c.real if isinstance(c, complex) else float(c)
        total += cc * 2.0 / (1.0 - ctx.q ** (2 * e))
    return total


def table_entry_ladder(n: int, tag: str, ctx: QContext) -> LadderElem:
    """Ladder realization of (b b*)^n x for the substitution-table tags,
    the independent route against lqmq_integral."""
    q = ctx.q
    gen = PBWElem.generator
    weight = rep_ladder(PBWElem({(0, n, n): 1.0}))

    def d(g):
        return delta_ladder(rep_ladder(gen(g)))

    def r(g):
        return rep_ladder(gen(g))

    pieces = {
        "one": LadderElem({(): 1.0}),
        "bdb*": r("b") @ d("b*"),
        "b*db": r("b*") @ d("b"),
        "ada*": r("a") @ d("a*"),
        "a*da": r("a*") @ d("a"),
        "dada*": d("a") @ d("a*"),
        "da*da": d("a*") @ d("a"),
        "dbdb": r("b*") @ r("b*") @ d("b") @ d("b"),
        "dbdb*": d("b") @ d("b*"),
        "db*db*": r("b") @ r("b") @ d("b*") @ d("b*"),
        "a*b*dadb": r("a*") @ r("b*") @ d("a") @ d("b"),
        "ab*da*db": r("a") @ r("b*") @ d("a*") @ d("b"),
        "a*bdadb*": r("a*") @ r("b") @ d("a") @ d("b*"),
        "abda*db*": r("a") @ r("b") @ d("a*") @ d("b*"),
    }
    if tag not in pieces:
        raise NotReducibleError(f"no ladder realization for {tag!r}")
    return weight @ pieces[tag]


# ---------------------------------------------------------------------------
# SU_q(2): shell traces on the spinorial basis


def qn(q: float, k: int) -> float:
    """sqrt(1 - q^{2k}) for k >= 1; zero at and below the boundary."""
    if k <= 0:
        return 0.0
    return math.sqrt(1.0 - q ** (2 * k))


_SHELL_ACTION = {
    # letter: (du, dm, dl, coefficient factory)
    AP: (1, 1, 1, lambda q, m, l: qn(q, m + 1) * qn(q, l + 1)),
    AM: (-1, 0, 0, lambda q, m, l: q ** (m + l + 1)),
    BP: (1, 1, 0, lambda q, m, l: q ** l * qn(q, m + 1)),
    BM: (-1, 0, -1, lambda q, m, l: -q ** m * qn(q, l)),
    APS: (-1, -1, -1, lambda q, m, l: qn(q, m) * qn(q, l)),
    AMS: (1, 0, 0, lambda q, m, l: q ** (m + l + 1)),
    BPS: (-1, -1, 0, lambda q, m, l: q ** l * qn(q, m)),
    BMS: (1, 0, 1, lambda q, m, l: -q ** m * qn(q, l + 1)),
}


def _state_valid(comp: str, m: int, l: int, u: int) -> bool:
    if u < 0 or not 0 <= m <= u:
        return False
    if comp == "up":
        return 0 <= l <= u + 1
    return u >= 1 and 0 <= l <= u - 1


def _apply_word_shell(word, comp: str, m: int, l: int, u: int, ctx: QContext):
    coeff = 1.0
    for letter in reversed(word):
        du, dm, dl, fac = _SHELL_ACTION[letter]
        coeff *= fac(ctx.q, m, l)
        if coeff == 0.0:
            return 0.0, m, l, u
        m, l, u = m + dm, l + dl, u + du
        if not _state_valid(comp, m, l, u):
            return 0.0, m, l, u
    return coeff, m, l, u


def shell_trace_oracle(T: LadderElem, j, ctx: QContext, cap: int = 200) -> float:
    """Trace of T over the shell of total spin j, both chirality parts.

    Matrix elements are realized directly through the basis action of the
    ladder letters, independent of the half-line machinery.
    """
    u = int(round(2 * j))
    if abs(2 * j - u) > 1e-9:
        raise ValueError("j must be a half-integer")
    if u > cap:
        raise ValueError(f"shell cap exceeded: 2j = {u} > {cap}")
    total = 0.0
    for comp in ("up", "down"):
        lmax = u + 1 if comp == "up" else u - 1
        if lmax < 0 or (comp == "down" and u < 1):
            continue
        for m in range(u + 1):
            for l in range(lmax + 1):
                for w, c in T.words.items():
                    coeff, m2, l2, u2 = _apply_word_shell(w, comp, m, l, u, ctx)
                    if coeff != 0.0 and (m2, l2, u2) == (m, l, u):
                        total += (c * coeff).real
    return total


def shell_fit_weight3(T: LadderElem, ctx: QContext, shells: int = 40,
                      start: int = 20) -> float:
    """Quadratic-in-2j fit of the shell traces; the leading coefficient
    recovers the weight-3 integral of T."""
    us = np.arange(start, start + shells)
    traces = np.array([shell_trace_oracle(T, u / 2.0, ctx, cap=start + shells)
                       for u in us])
    coeffs = np.polyfit(us.astype(float), traces, 2)
    return float(coeffs[0])
