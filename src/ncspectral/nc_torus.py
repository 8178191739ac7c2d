"""Weyl algebra of the noncommutative n-torus and its spectral action.

Elements are finitely supported Fourier series sum_k a_k U_k with the
twisted product U_k U_q = exp(-i/2 k.Theta q) U_{k+q}.  On top of the
algebra sit one-forms, curvature, the Yang-Mills density and the closed
heat-expansion coefficients for n = 2 and n = 4, cross-checked against an
eigenvalue oracle for the truncated Dirac operator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .action_assembly import CutoffMoments, ExpansionReport, assemble
from .gamma import build_gamma
from .lattice_zeta import AssumptionError

PRUNE_EPS = 1e-15
YM_CONSTANT = 4.0 * math.pi ** 2 / 3.0  # the n = 4 coupling 4 pi^2 / 3
# terms per block of the power-sum kernels; a q = 4 block still takes one
# pair (l1, l3) against every l2 when there are more modes than this
BLOCK_TERMS = 1 << 15


class Theta:
    """Skew-symmetric deformation matrix."""

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("theta must be a square matrix")
        if not np.isfinite(arr).all():
            raise ValueError("theta entries must be finite")
        if not np.allclose(arr, -arr.T, atol=1e-14):
            raise ValueError("theta must be skew-symmetric (tol 1e-14)")
        arr.setflags(write=False)
        self.entries = arr
        self.n = arr.shape[0]

    @classmethod
    def zero(cls, n: int) -> "Theta":
        return cls(np.zeros((n, n)))

    def pairing(self, k, q) -> float:
        """k . Theta q"""
        return float(np.dot(k, self.entries @ np.asarray(q, dtype=float)))


class TorusElement:
    """Finitely supported map Z^n -> C; immutable once built."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        data = {}
        # "not <=" keeps NaN, so an overflow shows in the result instead
        # of being pruned away
        if coeffs:
            for k, c in coeffs.items():
                k = tuple(map(int, k))
                if len(k) != n:
                    raise ValueError(f"mode {k} has wrong length for n = {n}")
                c = complex(c)
                if not abs(c) <= PRUNE_EPS:
                    data[k] = data.get(k, 0.0) + c
        self.coeffs = {k: c for k, c in data.items()
                       if not abs(c) <= PRUNE_EPS}

    @classmethod
    def _pruned(cls, n: int, coeffs: dict) -> "TorusElement":
        """Build from complex values at modes already checked as tuples of
        n ints; the arithmetic below skips the checks of __init__."""
        out = cls.__new__(cls)
        out.n = n
        out.coeffs = {k: c for k, c in coeffs.items()
                      if not abs(c) <= PRUNE_EPS}
        return out

    @classmethod
    def unit(cls, n: int) -> "TorusElement":
        return cls(n, {(0,) * n: 1.0})

    @classmethod
    def weyl(cls, n: int, k, coeff=1.0) -> "TorusElement":
        return cls(n, {tuple(k): coeff})

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TorusElement._pruned(self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) - c
        return TorusElement._pruned(self.n, out)

    def __rmul__(self, scalar):
        return TorusElement._pruned(
            self.n, {k: complex(scalar * c) for k, c in self.coeffs.items()})

    def __neg__(self):
        return (-1.0) * self

    def _check(self, other):
        if not isinstance(other, TorusElement) or other.n != self.n:
            raise ValueError("dimension mismatch between torus elements")

    def adjoint(self) -> "TorusElement":
        return TorusElement._pruned(
            self.n, {tuple(-x for x in k): c.conjugate()
                     for k, c in self.coeffs.items()})

    def tau(self) -> complex:
        """The canonical trace: the coefficient at k = 0."""
        return self.coeffs.get((0,) * self.n, 0.0 + 0.0j)

    def delta(self, mu: int) -> "TorusElement":
        """Canonical derivation number mu (1-based): U_k -> i k_mu U_k."""
        if not 1 <= mu <= self.n:
            raise IndexError(f"derivation index {mu} out of range 1..{self.n}")
        return TorusElement._pruned(
            self.n, {k: 1.0j * k[mu - 1] * c for k, c in self.coeffs.items()})

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        return (self - self.adjoint()).norm1() <= tol

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return (self - other).norm1() <= tol

    def __repr__(self):
        items = ", ".join(f"{k}: {c:.3g}" for k, c in sorted(self.coeffs.items()))
        return f"TorusElement(n={self.n}, {{{items}}})"


def weyl_mul(a: TorusElement, b: TorusElement, theta: Theta) -> TorusElement:
    """Bilinear extension of U_k U_q = exp(-i/2 k.Theta q) U_{k+q}.

    All phases come from one product of the mode arrays; terms landing on
    one mode are summed in (k, q) order.
    """
    a._check(b)
    if theta.n != a.n:
        raise ValueError("theta dimension mismatch")
    if not (a.coeffs and b.coeffs):
        return TorusElement(a.n)
    ka = np.array(list(a.coeffs), dtype=float)
    kb = np.array(list(b.coeffs), dtype=float)
    phases = np.exp(-0.5j * ((ka @ theta.entries) @ kb.T)).tolist()
    terms = list(b.coeffs.items())
    out: dict = {}
    for (k, ck), row in zip(a.coeffs.items(), phases):
        for (q, cq), phase in zip(terms, row):
            m = tuple(map(operator.add, k, q))
            out[m] = out.get(m, 0.0) + ck * cq * phase
    return TorusElement._pruned(a.n, out)


def commutator(a, b, theta):
    return weyl_mul(a, b, theta) - weyl_mul(b, a, theta)


def adjoint(a: TorusElement) -> TorusElement:
    return a.adjoint()


def tau(a: TorusElement) -> complex:
    return a.tau()


def delta_mu(a: TorusElement, mu: int) -> TorusElement:
    return a.delta(mu)


class OneFormTorus:
    """Gauge potential: one skew-adjoint coefficient element per direction."""

    def __init__(self, components, tol: float = 1e-12):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        n = comps[0].n
        if len(comps) != n:
            raise ValueError(f"expected {n} components, got {len(comps)}")
        for alpha, comp in enumerate(comps, start=1):
            if (comp + comp.adjoint()).norm1() > tol:
                raise ValueError(
                    f"component {alpha} violates skew-adjointness A* = -A")
        self.n = n
        self.components = comps

    @cached_property
    def _union(self):
        """(modes, coeffs, index) of the union of the component supports,
        built once for all the power sums of this potential."""
        modes, coeffs = _mode_table(self)
        return modes, coeffs, _ModeIndex(modes)

    @classmethod
    def zero(cls, n: int) -> "OneFormTorus":
        return cls([TorusElement(n) for _ in range(n)])

    @classmethod
    def from_entries(cls, n: int, entries) -> "OneFormTorus":
        """Build from (alpha, mode, coeff) triples with skew completion.

        Every listed (l, c) implies (-l, -conj(c)); explicitly listed
        conflicting pairs are rejected.
        """
        data = [dict() for _ in range(n)]
        explicit = [dict() for _ in range(n)]
        for alpha, l, c in entries:
            if not 1 <= alpha <= n:
                raise ValueError(f"component index {alpha} out of range 1..{n}")
            l = tuple(int(x) for x in l)
            if len(l) != n:
                raise ValueError(f"mode {l} has wrong length")
            c = complex(c)
            d = explicit[alpha - 1]
            if l in d and abs(d[l] - c) > 1e-12:
                raise ValueError(f"conflicting entries for component {alpha}, mode {l}")
            d[l] = c
        for alpha in range(n):
            for l, c in explicit[alpha].items():
                neg = tuple(-x for x in l)
                completed = -c.conjugate()
                if neg in explicit[alpha] and abs(explicit[alpha][neg] - completed) > 1e-12:
                    raise ValueError(
                        f"entries at {l} and {neg} violate skew-adjointness")
                data[alpha][l] = c
                data[alpha][neg] = completed
        return cls([TorusElement(n, d) for d in data])

    def component(self, alpha: int) -> TorusElement:
        return self.components[alpha - 1]


class Curvature:
    """Field strength F_{ab} = d_a A_b - d_b A_a + [A_a, A_b]."""

    def __init__(self, n, table):
        self.n = n
        self._table = table  # keys (a, b) with a < b

    def component(self, a: int, b: int) -> TorusElement:
        if a == b:
            return TorusElement(self.n)
        if a < b:
            return self._table[(a, b)]
        return -self._table[(b, a)]


def curvature(A: OneFormTorus, theta: Theta) -> Curvature:
    """F_{ab} for a < b; the components are skew-adjoint, so the product
    A_b A_a in the commutator is (A_a A_b)* and is not multiplied out."""
    n = A.n
    table = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            prod = weyl_mul(A.component(a), A.component(b), theta)
            table[(a, b)] = (A.component(b).delta(a) - A.component(a).delta(b)
                             + (prod - prod.adjoint()))
    return Curvature(n, table)


def curvature_from_coefficients(A: OneFormTorus, theta: Theta) -> Curvature:
    """Second, independent route: the explicit mode-space expansion

    F_{ab} = i sum_k [ (a_{b,k} k_a - a_{a,k} k_b)
                       - 2 sum_l a_{a,k-l} a_{b,l} sin(k.Theta l / 2) ] U_k.
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
                    s = math.sin(0.5 * theta.pairing(k, lb))
                    out[k] = out.get(k, 0.0) - 2.0j * va * vb * s
            table[(a, b)] = TorusElement(n, out)
    return Curvature(n, table)


def yang_mills(A: OneFormTorus, theta: Theta) -> float:
    """tau(F_{mn} F^{mn}) with flat-metric index raising (full double sum).

    tau(f f) = sum_k f_k f_{-k}, because U_k U_{-k} carries the phase
    exp(-i/2 k.Theta(-k)) = 1; F_{ba} = -F_{ab}, so each a < b counts twice.
    """
    F = curvature(A, theta)
    total = 0.0 + 0.0j
    for a in range(1, A.n + 1):
        for b in range(a + 1, A.n + 1):
            f = F.component(a, b).coeffs
            total += sum(c * f.get(tuple(-x for x in k), 0.0)
                         for k, c in f.items())
    total *= 2.0
    if abs(total.imag) > 1e-9 * (1.0 + abs(total)):
        raise ArithmeticError(f"Yang-Mills density came out non-real: {total}")
    return float(total.real)


def gauge_transform(A: OneFormTorus, u: TorusElement, theta: Theta,
                    tol: float = 1e-10) -> OneFormTorus:
    """A_a -> u A_a u* + u d_a(u*), for unitary u."""
    ustar = u.adjoint()
    unit = TorusElement.unit(A.n)
    if not (weyl_mul(u, ustar, theta).allclose(unit, tol)
            and weyl_mul(ustar, u, theta).allclose(unit, tol)):
        raise ValueError("gauge element is not unitary within tolerance")
    comps = []
    for a in range(1, A.n + 1):
        transported = weyl_mul(weyl_mul(u, A.component(a), theta), ustar, theta)
        inhom = weyl_mul(u, ustar.delta(a), theta)
        comps.append(transported + inhom)
    return OneFormTorus(comps)


# ---------------------------------------------------------------------------
# closed-form spectral action pieces (n = 4), Chern-Simons-type sums


class _ModeIndex:
    """Row lookup in a set of distinct integer modes.

    Coordinate by coordinate, each (key so far, rank of the entry) pair is
    re-ranked among the set's own pairs, so keys stay below the set size
    and never overflow, whatever the mode entries.
    """

    def __init__(self, modes: np.ndarray):
        self.levels = []
        key = np.zeros(len(modes), dtype=np.int64)
        for col in modes.T:
            values = np.unique(col)
            pairs = key * len(values) + np.searchsorted(values, col)
            table = np.unique(pairs)
            key = np.searchsorted(table, pairs)
            self.levels.append((values, table))
        self.rows = np.empty(len(modes), dtype=np.int64)
        self.rows[key] = np.arange(len(modes))

    def find(self, queries: np.ndarray) -> np.ndarray:
        """Row of each query mode (rows of an (m, n) array), -1 where the
        mode is not in the set."""
        if not len(self.rows):
            return np.full(len(queries), -1)
        found = np.ones(len(queries), dtype=bool)
        key = np.zeros(len(queries), dtype=np.int64)
        for col, (values, table) in zip(queries.T, self.levels):
            rank = np.minimum(np.searchsorted(values, col), len(values) - 1)
            found &= values[rank] == col
            pairs = key * len(values) + rank
            key = np.minimum(np.searchsorted(table, pairs), len(table) - 1)
            found &= table[key] == pairs
        return np.where(found, self.rows[key], -1)


def _mode_table(A: OneFormTorus):
    """The union of the component supports as a (U, n) integer array, and
    the (U, n) array whose row i holds the n component coefficients at
    mode i (zero where a component has no such mode)."""
    modes = sorted({k for comp in A.components for k in comp.coeffs})
    row = {k: i for i, k in enumerate(modes)}
    coeffs = np.zeros((len(modes), A.n), dtype=complex)
    for a, comp in enumerate(A.components):
        for k, c in comp.coeffs.items():
            coeffs[row[k], a] = c
    return np.array(modes, dtype=np.int64).reshape(len(modes), A.n), coeffs


def _blocks(count: int, size: int):
    """Consecutive index ranges of the given size covering range(count)."""
    for start in range(0, count, size):
        yield np.arange(start, min(start + size, count))


def _dot(x, y):
    """Row-wise dot product of two (m, n) arrays."""
    return np.einsum("ij,ij->i", x, y)


# In the kernels a_l is the row of component coefficients at mode l, so a
# sum over components is a row-wise dot product, and (l.Theta)[i] is the
# i-th row of `turned`.

def _power_sum_2(modes, coeffs, index, turned):
    # sum over l of (a_l . l)(a_{-l} . l) - |l|^2 (a_l . a_{-l})
    neg = index.find(-modes)
    i = np.flatnonzero(neg >= 0)
    j, m = neg[i], modes[i]
    return np.sum(_dot(coeffs[i], m) * _dot(coeffs[j], m)
                  - _dot(m, m) * _dot(coeffs[i], coeffs[j]))


def _power_sum_3(modes, coeffs, index, turned):
    # sum over l1, l2 of (a_l1 . a_l2) sin(l1.Th l2 / 2) (a_l3 . l1),
    # l3 = -(l1 + l2)
    total = 0.0 + 0.0j
    count = len(modes)
    for t in _blocks(count ** 2, BLOCK_TERMS):
        i1, i2 = np.divmod(t, count)
        i3 = index.find(-(modes[i1] + modes[i2]))
        hit = np.flatnonzero(i3 >= 0)
        i1, i2, i3 = i1[hit], i2[hit], i3[hit]
        total += np.sum(_dot(coeffs[i1], coeffs[i2])
                        * np.sin(0.5 * _dot(turned[i1], modes[i2]))
                        * _dot(coeffs[i3], modes[i1]))
    return total


def _power_sum_4(modes, coeffs, index, turned):
    # sum over l1, l3, l2 of (a_l1 . a_l3)(a_l2 . a_l4)
    # sin(l1.Th(l2 + l3) / 2) sin(l2.Th l3 / 2), l4 = -(l1 + l2 + l3);
    # pairs (l1, l3) with a_l1 . a_l3 = 0 are dropped before the l2 sum
    total = 0.0 + 0.0j
    count = len(modes)
    for t in _blocks(count ** 2, max(1, BLOCK_TERMS // max(count, 1))):
        i1, i3 = np.divmod(t, count)
        g = _dot(coeffs[i1], coeffs[i3])
        keep = np.flatnonzero(g)
        i1, i3, g = (np.repeat(x[keep], count) for x in (i1, i3, g))
        i2 = np.tile(np.arange(count), len(keep))
        l23 = modes[i2] + modes[i3]
        i4 = index.find(-(modes[i1] + l23))
        hit = np.flatnonzero(i4 >= 0)
        i1, i2, i3, i4, g, l23 = (x[hit] for x in (i1, i2, i3, i4, g, l23))
        total += np.sum(g * _dot(coeffs[i2], coeffs[i4])
                        * np.sin(0.5 * _dot(turned[i1], l23))
                        * np.sin(0.5 * _dot(turned[i2], modes[i3])))
    return total


_POWER_SUMS = {2: (2.0, _power_sum_2), 3: (-12.0, _power_sum_3),
               4: (8.0, _power_sum_4)}


def cs_sums(A: OneFormTorus, theta: Theta, q: int) -> float:
    """The n = 4 integrals of the q-th power of the gauge perturbation.

    q = 2:  2c * sum_l a_{a1,l} a_{a2,-l} (l_a1 l_a2 - delta |l|^2)
    q = 3: -12c * sum   a_{a3,-l1-l2} a_{a1,l2} a_{a1,l1} sin(l1.Th l2 / 2) l1_a3
    q = 4:  8c * sum    a_{a1,-l123} a_{a2,l3} a_{a1,l2} a_{a2,l1}
                        * sin(l1.Th(l2+l3)/2) sin(l2.Th l3 / 2)

    The sums run as array arithmetic over the union of the supports, in
    blocks of at most BLOCK_TERMS terms; the closing mode is found by
    integer keys and the phases come from the rows m.Theta of the modes,
    so no array grows with the square of the mode count.
    """
    if A.n != 4:
        raise ValueError("closed forms are specific to n = 4")
    if q not in (2, 3, 4):
        raise ValueError("q must be 2, 3 or 4")
    modes, coeffs, index = A._union
    weight, kernel = _POWER_SUMS[q]
    # an overflow gives a non-finite sum, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        total = weight * YM_CONSTANT * complex(
            kernel(modes, coeffs, index, modes @ theta.entries))
    if abs(total.imag) > 1e-9 * (1.0 + abs(total)):
        raise ArithmeticError(f"power sum q={q} came out non-real: {total}")
    return float(total.real)


def zeta0_shift(A: OneFormTorus, theta: Theta, n: int,
                diophantine_asserted: bool = False,
                ym: float | None = None) -> float:
    """Scale-invariant coefficient zeta_{D_A}(0) - zeta_D(0).

    Vanishes identically for n = 2; equals -c tau(F F) for n = 4, with
    tau(F F) taken from `ym` when the caller has it already.  The
    crossed-term cancellation behind both closed forms holds under the
    Diophantine hypothesis on theta / 2 pi, which must be asserted.
    """
    if n not in (2, 4):
        raise ValueError("closed forms available for n in {2, 4} only")
    if not diophantine_asserted:
        raise AssumptionError(
            "Diophantine assumption on theta/2pi not asserted")
    if A.n != n or theta.n != n:
        raise ValueError("dimension mismatch")
    if n == 2:
        return 0.0
    if ym is None:
        ym = yang_mills(A, theta)
    return -YM_CONSTANT * ym


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


def torus_action(A: OneFormTorus, theta: Theta, n: int,
                 moments: CutoffMoments, lam: float,
                 diophantine_asserted: bool = False,
                 ym: float | None = None) -> ExpansionReport:
    """Full expansion: n = 2 gives 4 pi Phi_2 L^2; n = 4 gives
    8 pi^2 Phi_4 L^4 - c Phi(0) tau(F F).  Odd and L^(n-2) slots are zero.
    A known tau(F F) is passed on as `ym` (see zeta0_shift)."""
    if n not in (2, 4):
        raise ValueError("action formulas available for n in {2, 4} only")
    shift = zeta0_shift(A, theta, n, diophantine_asserted, ym=ym)
    if n == 2:
        coeffs = {2: 4.0 * math.pi, 1: 0.0}
    else:
        coeffs = {4: 8.0 * math.pi ** 2, 3: 0.0, 2: 0.0, 1: 0.0}
    return assemble(coeffs, shift, moments, lam)


# ---------------------------------------------------------------------------
# truncated-Dirac oracle


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

    def abs_multiplicity(self, value: float, tol: float = 1e-9) -> int:
        return int(np.sum(np.abs(np.abs(self.eigenvalues) - value) < tol))


def dirac_truncated(n: int, K: int, max_dim: int = 2_000_000) -> TruncatedSpectrum:
    """Eigenvalues of D restricted to modes |k| <= K, via exact
    diagonalization of the fiber matrices k_mu gamma^mu."""
    if K < 1:
        raise ValueError("truncation radius must be >= 1")
    rep = build_gamma(n)
    grid = np.arange(-K, K + 1)
    n_modes = (2 * K + 1) ** n
    if n_modes * rep.dim > max_dim:
        raise MemoryError(
            f"truncated Dirac needs {n_modes * rep.dim} basis vectors, "
            f"over the guard {max_dim}")
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    modes = np.stack([m.ravel() for m in mesh], axis=1)
    modes = modes[np.sum(modes.astype(float) ** 2, axis=1) <= K * K + 1e-9]
    eigs = []
    for k in modes:
        fiber = sum(float(ki) * g for ki, g in zip(k, rep.matrices))
        eigs.append(np.linalg.eigvalsh(fiber))
    return TruncatedSpectrum(n=n, radius=K,
                             eigenvalues=np.sort(np.concatenate(eigs)))


# ---------------------------------------------------------------------------
# JSON interface


def _finite(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x} in the potential")
    return x


def _integer(x) -> int:
    i = int(x)
    if i != x:
        raise ValueError(f"{x!r} in the potential is not an integer")
    return i


def load_potential(doc: dict):
    """Parse {"n", "theta", "diophantine_asserted", "A": [{alpha, l, re, im}]}.

    Every number must be finite; n, alpha and the mode entries integers.
    """
    try:
        n = _integer(doc["n"])
        theta = Theta(doc["theta"])
        flag = doc.get("diophantine_asserted", False)
        entries = [(_integer(e["alpha"]), tuple(_integer(x) for x in e["l"]),
                    complex(_finite(e.get("re", 0.0)),
                            _finite(e.get("im", 0.0))))
                   for e in doc.get("A", [])]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed potential document: {exc}") from exc
    if not isinstance(flag, bool):
        raise ValueError("diophantine_asserted must be true or false")
    if theta.n != n:
        raise ValueError("theta size does not match n")
    A = OneFormTorus.from_entries(n, entries)
    return {"n": n, "theta": theta, "diophantine_asserted": flag, "A": A}
