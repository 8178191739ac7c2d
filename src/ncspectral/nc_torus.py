"""Weyl algebra of the noncommutative n-torus and its spectral action.

Elements are finitely supported Fourier series sum_k a_k U_k with the
twisted product U_k U_q = exp(-i/2 k.Theta q) U_{k+q}.  On top of the
algebra sit one-forms, curvature, the Yang-Mills density and the closed
heat-expansion coefficients for n = 2 and n = 4.  Their brute-force
checks, among them the truncated Dirac spectrum, are in `oracles`.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache

import numpy as np

from .action_assembly import (AssumptionError, CutoffMoments,
                              ExpansionReport, assemble, json_integer,
                              json_number)

PRUNE_EPS = 1e-15
MAX_MODES = 2048  # of a potential, 0 included, in a pair table: 2048^2 pairs
YM_CONSTANT = 4.0 * math.pi ** 2 / 3.0  # the n = 4 coupling 4 pi^2 / 3


class Theta:
    """Skew-symmetric deformation matrix."""

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("theta must be a square matrix")
        if not (np.isfinite(arr).all()
                and np.max(np.abs(arr + arr.T), initial=0.0) <= 1e-14):
            raise ValueError(
                "theta must be finite and skew-symmetric (tol 1e-14)")
        arr.setflags(write=False)
        self.entries = arr
        self.n = arr.shape[0]


class TorusElement:
    """Finitely supported map Z^n -> C, the table `coeffs` {mode: c};
    immutable once built.  It keeps only what weyl_mul and curvature use."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        data = {}
        # "not <=" keeps NaN, so an overflow shows in the result instead
        # of being pruned away
        if coeffs:
            for k, c in coeffs.items():
                k = tuple(map(json_integer, k))
                if len(k) != n:
                    raise ValueError(f"mode {k} has wrong length for n = {n}")
                c = complex(c)
                if not abs(c) <= PRUNE_EPS:
                    data[k] = data.get(k, 0.0) + c
        self.coeffs = {k: c for k, c in data.items()
                       if not abs(c) <= PRUNE_EPS}

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TorusElement(self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) - c
        return TorusElement(self.n, out)

    def _check(self, other):
        if not isinstance(other, TorusElement) or other.n != self.n:
            raise ValueError("dimension mismatch between torus elements")

    def adjoint(self) -> "TorusElement":
        return TorusElement(
            self.n, {tuple(-x for x in k): c.conjugate()
                     for k, c in self.coeffs.items()})

    def delta(self, mu: int) -> "TorusElement":
        """Canonical derivation number mu (1-based): U_k -> i k_mu U_k."""
        if not 1 <= mu <= self.n:
            raise IndexError(f"derivation index {mu} out of range 1..{self.n}")
        return TorusElement(
            self.n, {k: 1.0j * k[mu - 1] * c for k, c in self.coeffs.items()})


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
    return TorusElement(a.n, out)


class OneFormTorus:
    """Gauge potential: one skew-adjoint coefficient element per direction.

    Built from (alpha, mode, coeff) entries: every listed (l, c) of
    component alpha implies (-l, -conj(c)); listed entries that conflict
    by more than 1e-12 are rejected.  Held as a mode table: `modes`, the
    (U, n) union of the completed supports and 0 in lexicographic order,
    and `coeffs`, whose row i holds the n component coefficients at
    modes[i] (0 where a component lacks it).  The TorusElement components
    are a view built on first use.
    """

    def __init__(self, n: int, entries=()):
        table = {}  # (alpha, mode): coeff
        for alpha, l, c in entries:
            alpha = json_integer(alpha)
            if not 1 <= alpha <= n:
                raise ValueError(f"component index {alpha} out of range 1..{n}")
            l = tuple(json_integer(x) for x in l)
            if len(l) != n:
                raise ValueError(f"mode {l} has wrong length")
            c = complex(c)
            if abs(table.get((alpha, l), c) - c) > 1e-12:
                raise ValueError(f"conflicting entries for component {alpha}, mode {l}")
            table[alpha, l] = c
        # complete in listing order: the value at (alpha, -l) changes only
        # on the turns of l and -l, and the turn of -l leaves its listed
        # value there, so each check compares two listed values
        for (alpha, l), c in list(table.items()):
            neg = tuple(-x for x in l)
            completed = -c.conjugate()
            if abs(table.get((alpha, neg), completed) - completed) > 1e-12:
                raise ValueError(
                    f"entries at {l} and {neg} violate skew-adjointness")
            table[alpha, l], table[alpha, neg] = c, completed
        # |c| = |completed|, so the kept supports stay closed under negation
        kept = [(key, c) for key, c in table.items()
                if not abs(c) <= PRUNE_EPS]
        order = sorted({(0,) * n}.union(l for (_, l), _ in kept))
        # pair sums k + l must not wrap around in int64; checked on the
        # Python ints, which the int64 conversion would refuse past 2^63
        if any(abs(x) >= 1 << 62 for k in order for x in k):
            raise OverflowError("mode entries must be below 2^62 in size")
        row = {k: i for i, k in enumerate(order)}
        self.coeffs = np.zeros((len(order), n), dtype=complex)
        self.coeffs[[row[l] for (_, l), _ in kept],
                    [alpha - 1 for (alpha, _), _ in kept]] = [c for _, c in kept]
        self.modes = np.array(order, dtype=np.int64)
        self.n = n
        self._pairs = (None, None)

    @cached_property
    def components(self) -> tuple:
        keys = [tuple(k) for k in self.modes.tolist()]
        return tuple(TorusElement(self.n, dict(zip(keys, col)))
                     for col in self.coeffs.T.tolist())

    def pair_table(self, theta: Theta) -> "PairTable":
        """The pair table under theta, built once per theta."""
        key = theta.entries.tobytes()
        if self._pairs[0] != key:
            self._pairs = (key, PairTable(self, theta))
        return self._pairs[1]

    def component(self, alpha: int) -> TorusElement:
        return self.components[alpha - 1]


def _dot(x, y):
    """Row-wise dot product of two (m, n) arrays."""
    return np.einsum("ij,ij->i", x, y)


_upper = lru_cache(np.triu_indices)  # (rows, columns) of the pairs a < b


class PairTable:
    """Every pair sum k + l of the modes of a potential, grouped by mode.

    An np.lexsort on the integer columns of the U^2 sums puts group g, the
    pairs with k + l = m_g, in lexicographic order of m_g.  Negation
    reverses that order and the modes are closed under it, so the group of
    -m_g is M - 1 - g.  Mode k of the potential is the group of the pair
    (k, 0), where `coeffs` holds its coefficients (0 in other groups).
    Column c of `X` holds X_ab(m) = sum_{k+l=m} a_{a,k} a_{b,l}
    sin(k.Theta l / 2) for the c-th pair a < b: [A_a, A_b] = -2i X_ab.
    `ff` is tau(F_{mn} F^{mn}) (see yang_mills); callers build the table
    under np.errstate and report an overflow.  A potential of more than
    MAX_MODES modes raises MemoryError before any of it is built.
    """

    def __init__(self, A: OneFormTorus, theta: Theta):
        if theta.n != A.n:
            raise ValueError("theta dimension mismatch")
        modes, coeffs, count = A.modes, A.coeffs, len(A.modes)
        if count > MAX_MODES:
            raise MemoryError(
                f"potential has {count} modes after skew completion, 0 "
                f"included, over the cap {MAX_MODES} of the pair table")
        sums = (modes[:, None] + modes[None, :]).reshape(-1, A.n)
        order = np.lexsort(sums.T[::-1])
        sums = sums[order]
        self.i, self.j = np.divmod(order, count)
        first = np.concatenate(([True], np.any(sums[1:] != sums[:-1], 1)))
        self.starts = np.flatnonzero(first)
        self.modes = sums[self.starts].astype(float)
        # 0 is the middle row of a sorted set closed under negation
        own = self.j == count // 2
        self.coeffs = np.zeros((len(self.starts), A.n), dtype=complex)
        self.coeffs[np.cumsum(first)[own] - 1] = coeffs[self.i[own]]
        pairing = (modes @ theta.entries) @ modes.T
        self.sin = np.sin(0.5 * pairing.ravel()[order])
        self.a, self.b = _upper(A.n, 1)
        self.X = self.sum(coeffs[self.i][:, self.a] * self.sin[:, None]
                          * coeffs[self.j][:, self.b])
        m, c = self.modes, self.coeffs
        F = (1j * (m[:, self.a] * c[:, self.b] - m[:, self.b] * c[:, self.a])
             - 2j * self.X)
        self.ff = 2.0 * complex(np.sum(F * F[::-1]))

    def sum(self, terms: np.ndarray) -> np.ndarray:
        """Sums of per-pair terms (rows in table order) over each group."""
        return np.add.reduceat(terms, self.starts)


def curvature(A: OneFormTorus, theta: Theta) -> dict:
    """{(a, b): F_ab} for a < b, F_ab = d_a A_b - d_b A_a + [A_a, A_b]; the
    components are skew-adjoint, so the product A_b A_a in the commutator
    is (A_a A_b)* and is not multiplied out."""
    n = A.n
    table = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            prod = weyl_mul(A.component(a), A.component(b), theta)
            table[(a, b)] = (A.component(b).delta(a) - A.component(a).delta(b)
                             + (prod - prod.adjoint()))
    return table


def yang_mills(A: OneFormTorus, theta: Theta) -> float:
    """tau(F_{mn} F^{mn}) with flat-metric index raising (full double sum).

    tau(f f) = sum_m f_m f_{-m}, because U_m U_{-m} carries the phase
    exp(-i/2 m.Theta(-m)) = 1; F_{ba} = -F_{ab}, so each a < b counts
    twice.  F_ab(m) = i(m_a a_{b,m} - m_b a_{a,m}) - 2i X_ab(m) on every
    group m of the pair table, which sums it once, when it is built.
    """
    # an overflow gives a non-finite value, which the caller reports
    with np.errstate(all="ignore"):
        total = A.pair_table(theta).ff
    if abs(total.imag) > 1e-9 * (1.0 + abs(total)):
        raise ArithmeticError(f"Yang-Mills density came out non-real: {total}")
    return float(total.real)


# ---------------------------------------------------------------------------
# closed-form spectral action pieces (n = 4), Chern-Simons-type sums


_POWER_WEIGHTS = {2: 2.0, 3: -12.0, 4: 8.0}


def cs_sums(A: OneFormTorus, theta: Theta, q: int) -> float:
    """The n = 4 integrals of the q-th power of the gauge perturbation.

    q = 2:  2c * sum_l a_{a1,l} a_{a2,-l} (l_a1 l_a2 - delta |l|^2)
    q = 3: -12c * sum   a_{a3,-l1-l2} a_{a1,l2} a_{a1,l1} sin(l1.Th l2 / 2) l1_a3
    q = 4:  8c * sum    a_{a1,-l123} a_{a2,l3} a_{a1,l2} a_{a2,l1}
                        * sin(l1.Th(l2+l3)/2) sin(l2.Th l3 / 2)

    q = 2 pairs each mode with its negative, the mirror row of the mode
    table.  Off the pair table, q = 3 is sum_m W(m).a_{-m} with W(m) =
    sum_{k+l=m} (a_k.a_l) k sin(k.Th l / 2), and q = 4 is -sum_m tr X(m)
    X(-m) = 2 sum_{a<b} X_ab(m) X_ab(-m), as sin(l1.Th(l2+l3)/2) =
    -sin(l1.Th l4 / 2): U^2 pairs each, where q = 4 took U^3 terms.
    """
    if A.n != 4:
        raise ValueError("closed forms are specific to n = 4")
    if q not in (2, 3, 4):
        raise ValueError("q must be 2, 3 or 4")
    # an overflow gives a non-finite sum, which the caller reports
    with np.errstate(all="ignore"):
        if q == 2:
            k, a = A.modes.astype(float), A.coeffs
            total = np.sum(_dot(a, k) * _dot(a[::-1], k)
                           - _dot(k, k) * _dot(a, a[::-1]))
        else:
            t = A.pair_table(theta)
            if q == 3:
                a = A.coeffs
                W = t.sum((_dot(a[t.i], a[t.j]) * t.sin)[:, None]
                          * A.modes[t.i])
                total = np.sum(W * t.coeffs[::-1])
            else:
                total = 2.0 * np.sum(t.X * t.X[::-1])
        total = _POWER_WEIGHTS[q] * YM_CONSTANT * complex(total)
    if abs(total.imag) > 1e-9 * (1.0 + abs(total)):
        raise ArithmeticError(f"power sum q={q} came out non-real: {total}")
    return float(total.real)


def zeta0_shift(A: OneFormTorus, theta: Theta,
                diophantine_asserted: bool = False) -> float:
    """Scale-invariant coefficient zeta_{D_A}(0) - zeta_D(0), n = A.n.

    Vanishes identically for n = 2; equals -c tau(F F) for n = 4.  The
    crossed-term cancellation behind both closed forms holds under the
    Diophantine hypothesis on theta / 2 pi, which must be asserted.
    """
    if A.n not in (2, 4):
        raise ValueError("closed forms available for n in {2, 4} only")
    if not diophantine_asserted:
        raise AssumptionError(
            "Diophantine assumption on theta/2pi not asserted")
    if theta.n != A.n:
        raise ValueError("dimension mismatch")
    if A.n == 2:
        return 0.0
    return -YM_CONSTANT * yang_mills(A, theta)


def torus_action(n: int, shift: float, moments: CutoffMoments,
                 lam: float) -> ExpansionReport:
    """Full expansion from the scale-invariant term shift = zeta0_shift:
    n = 2 gives 4 pi Phi_2 L^2; n = 4 gives 8 pi^2 Phi_4 L^4 + shift Phi(0),
    with shift = -c tau(F F).  Odd and L^(n-2) slots are zero."""
    if n not in (2, 4):
        raise ValueError("action formulas available for n in {2, 4} only")
    if n == 2:
        coeffs = {2: 4.0 * math.pi, 1: 0.0}
    else:
        coeffs = {4: 8.0 * math.pi ** 2, 3: 0.0, 2: 0.0, 1: 0.0}
    return assemble(coeffs, shift, moments, lam)


# ---------------------------------------------------------------------------
# JSON interface


def load_potential(doc: dict):
    """Parse {"n", "theta", "diophantine_asserted", "A": [{alpha, l, re, im}]}.

    Numbers go through `json_number` and n through `json_integer`; alpha and
    the mode entries are checked by `OneFormTorus`.
    """
    try:
        n = json_integer(doc["n"])
        rows = [[json_number(x) for x in row] for row in doc["theta"]]
        # ragged rows, before numpy's own message about them
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("theta must be a square matrix")
        theta = Theta(rows)
        flag = doc.get("diophantine_asserted", False)
        entries = [(e["alpha"], tuple(e["l"]),
                    complex(json_number(e.get("re", 0.0)),
                            json_number(e.get("im", 0.0))))
                   for e in doc.get("A", [])]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed potential document: {exc}") from exc
    if not isinstance(flag, bool):
        raise ValueError("diophantine_asserted must be true or false")
    if theta.n != n:
        raise ValueError("theta size does not match n")
    A = OneFormTorus(n, entries)
    return {"n": n, "theta": theta, "diophantine_asserted": flag, "A": A}
