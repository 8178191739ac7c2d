"""The SU_q(2) spectral triple: algebra, representations and integrals.

Three layers cooperate here.

* Polynomials in the generators a, b, written in the basis a^i b^j b*^k
  (i in Z via a^-1 := a*).  They enter only through their image in the
  ladder algebra, so a polynomial is a validated table of monomials with
  no arithmetic of its own.
* The ladder algebra: words over the eight letters a+, a-, b+, b-, and their
  adjoints, which realize the generators up to smoothing corrections.  Each
  letter shifts the shell index by its degree (+1 or -1).
* The half-line picture: a degree-zero ladder word maps under the Hopf-type
  homomorphism r to a pair of shift operators on l2(N), one per chirality
  factor, where the noncommutative integrals become combinations of the
  circle average tau1 and the regularized partial trace tau0.

Closed forms from the literature enter only as test oracles, and the
brute-force routes (dense legs, shell traces, the L/M substitution calculus)
live in `oracles`; everything computed here goes through the
representation.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import product

from .action_assembly import (CutoffMoments, ToleranceError, assemble,
                              json_integer, json_number)

# ---------------------------------------------------------------------------
# ladder alphabet

AP, AM, BP, BM = "a+", "a-", "b+", "b-"
APS, AMS, BPS, BMS = "a+*", "a-*", "b+*", "b-*"

DEGREE = {AP: 1, BP: 1, AMS: 1, BMS: 1, AM: -1, BM: -1, APS: -1, BPS: -1}
STAR = {AP: APS, APS: AP, AM: AMS, AMS: AM,
        BP: BPS, BPS: BP, BM: BMS, BMS: BM}

# r on generators: letter -> (sign, power of q, pi+ leg letter, pi- leg letter)
_R_TABLE = {
    AP: (1.0, 0, "a", "a"),
    AM: (-1.0, 1, "b", "b*"),
    BP: (-1.0, 0, "a", "b"),
    BM: (-1.0, 0, "b", "a*"),
    APS: (1.0, 0, "a*", "a*"),
    AMS: (-1.0, 1, "b*", "b"),
    BPS: (-1.0, 0, "a*", "b*"),
    BMS: (-1.0, 0, "b*", "a"),
}

# letters whose r-image keeps the plus or the minus leg free of b's
PLUS_LEG_CLEAN = frozenset(l for l, r in _R_TABLE.items() if "b" not in r[2])
MINUS_LEG_CLEAN = frozenset(l for l, r in _R_TABLE.items() if "b" not in r[3])
BOTH_LEGS_CLEAN = PLUS_LEG_CLEAN & MINUS_LEG_CLEAN


# machine epsilon, the unit of the rounding bounds below
EPS = sys.float_info.epsilon
MAX_LADDER_WORDS = 200_000  # cap on ladder_word_bound of a one-form


class QContext:
    """Deformation parameter, the accuracy the integrals must meet (in
    units of 1 + the size of the terms each sums), and the q-dependent
    factors that `tau0` reads, in three tables computed from q alone:

        roots[k] = sqrt(1 - q^(2k)),  powers[k] = q^k,  gaps[j] = 1 - q^j,

    the last through expm1, so that it keeps its relative accuracy as
    q -> 1.  Each table grows on demand (`fill`) as far as the legs met so
    far need.  A context serves one run, so no table outlives it.
    """

    def __init__(self, q: float, tol: float = 1e-12):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie strictly in (0, 1), got {q}")
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        self.q = float(q)
        self.tol = tol
        self.roots, self.powers, self.gaps = [], [], []

    def fill(self, length: int) -> None:
        """Extend the tables in place to what `tau0` reads on a zero-shift
        leg of the given length L: at most L/2 a steps lift its walk, so
        roots up to 3L/2, powers up to 3L and gaps up to L."""
        q, top, powers = self.q, length // 2 + length, self.powers
        powers += [q ** k for k in range(len(powers), 2 * top + 1)]
        # powers[2k] is q ** (2 * k), bit for bit
        self.roots += [math.sqrt(1.0 - p)
                       for p in powers[2 * len(self.roots):2 * top:2]]
        log_q = math.log(q)
        self.gaps += [-math.expm1(j * log_q)
                      for j in range(len(self.gaps), length + 1)]


# ---------------------------------------------------------------------------
# polynomials in a, b


@dataclass
class PBWElem:
    """Linear combination of canonical monomials a^i b^j b*^k: the table
    {(i, j, k): c}, with integral exponents, j, k >= 0 and no zero c."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j, k), c in self.coeffs.items():
            i, j, k = json_integer(i), json_integer(j), json_integer(k)
            if j < 0 or k < 0:
                raise ValueError("b exponents must be nonnegative")
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(
                    f"non-finite coefficient {c!r} of a^{i} b^{j} b*^{k}, "
                    f"the sum of its repeated monomials")
            if c != 0:
                clean[i, j, k] = c
        self.coeffs = clean

    @classmethod
    def generator(cls, name: str) -> "PBWElem":
        table = {"a": (1, 0, 0), "a*": (-1, 0, 0),
                 "b": (0, 1, 0), "b*": (0, 0, 1)}
        return cls({table[name]: 1.0})


# ---------------------------------------------------------------------------
# ladder algebra


class LadderElem:
    """Complex span of ladder words: the table {word: coefficient}, with
    `@` and no other arithmetic.

    Words multiply freely; all relations are used only downstream, through
    the representation.
    """

    __slots__ = ("words",)

    def __init__(self, words=None):
        data = {}
        if words:
            for w, c in words.items():
                w = tuple(w)
                for letter in w:
                    if letter not in DEGREE:
                        raise ValueError(f"unknown ladder letter {letter!r}")
                c = complex(c)
                if c != 0:
                    data[w] = data.get(w, 0.0) + c
        self.words = {w: c for w, c in data.items() if c != 0}

    @classmethod
    def _make(cls, words: dict) -> "LadderElem":
        """Build from a new table of complex values at words already checked
        as tuples of letters, which it keeps where no value is zero; `@`
        and the functions below skip the checks of __init__."""
        out = cls.__new__(cls)
        out.words = words if all(words.values()) else {
            w: c for w, c in words.items() if c}
        return out

    def __matmul__(self, other):
        out: dict = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                w = w1 + w2
                out[w] = out.get(w, 0.0) + c1 * c2
        return LadderElem._make(out)


def word_degree(word: tuple) -> int:
    return sum(DEGREE[l] for l in word)


def rep_ladder(x: PBWElem) -> LadderElem:
    """Image of a polynomial under the approximate representation
    a -> a+ + a-, b -> b+ + b- (adjoints likewise).

    a^i b^j b*^k at c gives its 2^(|i| + j + k) words at c, one of its
    generator's two letters at each position.  No two generators share a
    letter, so no two monomials share a word, and as a PBWElem holds no
    zero coefficient, neither does the image.
    """
    out = LadderElem.__new__(LadderElem)
    out.words = words = {}
    for (i, j, k), c in x.coeffs.items():
        a = (AP, AM) if i >= 0 else (APS, AMS)
        for w in product(*[a] * abs(i), *[(BP, BM)] * j, *[(BPS, BMS)] * k):
            words[w] = c
    return out


def delta_ladder(T: LadderElem) -> LadderElem:
    """Commutator with |D|: each homogeneous word times its degree."""
    return LadderElem._make({w: word_degree(w) * c
                             for w, c in T.words.items()})


def delta_one_form(x: PBWElem, y: PBWElem) -> LadderElem:
    """pi(x) delta(pi(y))."""
    return rep_ladder(x) @ delta_ladder(rep_ladder(y))


# ---------------------------------------------------------------------------
# Hopf map and the half-line legs


def hopf_r(T: LadderElem) -> dict:
    """r on the degree-zero words of T (r is defined there only, and no
    integral sees the others): {(leg+, leg-, qpow): coefficient}.  Legs are
    words over {a, a*, b, b*} acting on l2(N) through the side
    representations; the q-powers of the a- images are deferred as `qpow`.
    """
    out: dict = {}
    for w, c in T.words.items():
        if word_degree(w):
            continue
        sign = 1.0
        qpow = 0
        plus, minus = [], []
        for letter in w:
            s, p, lp, lm = _R_TABLE[letter]
            sign *= s
            qpow += p
            plus.append(lp)
            minus.append(lm)
        key = (tuple(plus), tuple(minus), qpow)
        out[key] = out.get(key, 0.0) + sign * c
    return out


def leg_shift(leg) -> int:
    return leg.count("a") - leg.count("a*")


def tau1(leg) -> float:
    """Circle average of the leg symbol: 1 for b-free, winding-zero words."""
    if "b" in leg or "b*" in leg:
        return 0.0
    return 1.0 if leg_shift(leg) == 0 else 0.0


def leg_diag_coeff(leg, side: str, n: int, q: float) -> float:
    """<eps_n, (leg word) eps_n> factor chain; 0 past the basis boundary."""
    state = n
    coeff = 1.0
    for letter in reversed(leg):
        if letter == "a":
            k = state + 1
            coeff *= math.sqrt(1.0 - q ** (2 * k))
            state += 1
        elif letter == "a*":
            if state <= 0:
                return 0.0
            coeff *= math.sqrt(1.0 - q ** (2 * state))
            state -= 1
        else:  # b or b*
            coeff *= q ** state
            if side == "-":
                coeff = -coeff
    return coeff


def tau0(leg, side: str, ctx: QContext) -> tuple:
    """lim_N (Tr_N - (N+1) tau1) of a leg word, zero off the diagonal, with
    an a priori bound on its rounding error and the size of the terms it
    sums: returns (value, bound, size).

    On a zero-shift leg of length L the walk never meets the boundary from
    n >= L on, and f(n) = leg_diag_coeff(leg, side, n, q) is a polynomial
    P(x) = sum_j c_j x^j in x = q^(n-L): the two crossings of each edge
    pair up into a factor (1 - q^(2(d+L+1)) x^2) per a step from offset d
    to d + 1, and each b or b* letter at offset d adds x q^(d+L) (times -1
    on side "-").  Offsets stay above -L, so no power of q has a negative
    exponent, and none overflows at small q.  The constant term c_0 is
    tau1, so exactly
        tau0 = sum_{n<L} (f(n) - tau1) + sum_{j>=1} c_j / (1 - q^j),
    the half-line (Toeplitz) picture of A. Connes, J. Inst. Math. Jussieu 3
    (2004).

    The factors come from the tables of ctx (QContext.fill).  One pass over
    the letters, in the order they act, tracks the level offset d of the
    walk: it notes the entry each letter reads at level n (roots[n + d] for
    a or a*, powers[n + d] for b or b*) and the first n whose walk stays off
    the boundary, and it expands P.  Each head term multiplies its entries
    in that order, as `leg_diag_coeff` does, and the sign of side "-"
    commutes with rounding, so the values are those of the walk bit for
    bit.

    The bound counts one machine epsilon (two units of rounding) for each
    rounding, with pow, log and expm1 within one ulp: at most 2L + 1 on a
    head term, a product of factors of size at most 1 (the two square
    roots of an edge multiply back to 1 - q^(2s) within 3 units); 2m + 2nb
    + 5 relative on a tail term for m a steps and nb b letters (the
    expansion, whose terms share a sign, the powers, expm1, the products
    and the division); and one for the sum, which fsum rounds once.  The
    size counts each head term at its largest, 1 + tau1, and each tail term
    at its modulus.
    """
    if leg_shift(leg) != 0:
        return (0.0, 0.0, 0.0)
    length = len(leg)
    if len(ctx.gaps) <= length:
        ctx.fill(length)
    roots, powers, gaps = ctx.roots, ctx.powers, ctx.gaps
    # per letter the table it reads at level n and its offset; the first n
    # whose walk meets no a* at level 0; P(x) = scale x^nb Q(x^2),
    # Q(y) = prod (1 - q^(2(d+L+1)) y) over the a steps
    plan = []
    scale, nb, d, start, ys = 1.0, 0, 0, 0, [1.0]
    for letter in reversed(leg):
        if letter == "a":
            d += 1
            plan.append((roots, d))
            r = powers[2 * (d + length)]
            ys.append(0.0)
            for k in range(len(ys) - 1, 0, -1):
                ys[k] -= r * ys[k - 1]
        elif letter == "a*":
            plan.append((roots, d))
            if d + start <= 0:
                start = 1 - d
            d -= 1
        else:
            plan.append((powers, d))
            scale *= powers[d + length] if side == "+" else -powers[d + length]
            nb += 1
    t1 = 0.0 if nb else 1.0
    # head: f(n) - tau1 for n < L, 0 - tau1 where the walk meets the
    # boundary; the sign of side "-" goes first, which rounding commutes with
    sign = -1.0 if side != "+" and nb % 2 else 1.0
    terms = [0.0 - t1] * start  # start <= the number of a* <= L
    for n in range(start, length):
        f = sign
        for table, o in plan:
            f *= table[n + o]
        terms.append(f - t1)
    # the tail: sum_{n>=L} x^j = 1 / (1 - q^j) for j = nb + 2k > 0
    tail_size = 0.0
    for k in range(0 if nb else 1, len(ys)):
        t = scale * ys[k] / gaps[nb + 2 * k]
        terms.append(t)
        tail_size += abs(t)
    value = math.fsum(terms)
    m = len(ys) - 1
    bound = EPS * ((2 * length + 1) * length
                   + (2 * m + 2 * nb + 5) * tail_size + abs(value))
    size = (1.0 + t1) * length + tail_size
    return value, bound, size


# ---------------------------------------------------------------------------
# noncommutative integrals


def _tau_sum(rt: dict, ctx: QContext, combo) -> tuple:
    """sum_w c_w q^qpow combo(leg+, leg-) over an r-image as (value,
    rounding bound, size).  combo returns the value v, bound e and size s
    of its term; the bound is sum_w |c_w| q^qpow (e + 4 ulps of v: its last
    rounding, q^qpow and the products by c_w and by v), plus one ulp of the
    total, which fsum rounds once; the size is sum_w |c_w| q^qpow s."""
    q = ctx.q
    re, im, bound, size = [], [], 0.0, 0.0
    for (plus, minus, qpow), c in rt.items():
        v, e, s = combo(plus, minus)
        if s:
            w = c * q ** qpow
            t = w * v
            re.append(t.real)
            im.append(t.imag)
            bound += abs(w) * (e + 4.0 * EPS * abs(v))
            size += abs(w) * s
    total = complex(math.fsum(re), math.fsum(im))
    return total, bound + EPS * abs(total), size


def _image_integral(rt: dict, k: int, ctx: QContext) -> tuple:
    """(value, rounding bound, size) of the integral against |D|^-k, k in
    {1, 2}, of the element whose r-image is rt."""
    if k == 2:
        # tau0(p) tau1(m) + tau1(p) tau0(m), doubled
        def combo(p, m):
            v = e = s = 0.0
            if tau1(m):
                v, e, s = tau0(p, "+", ctx)
            if tau1(p):
                v2, e2, s2 = tau0(m, "-", ctx)
                v += v2
                e += e2
                s += s2
            return 2.0 * v, 2.0 * e, 2.0 * s
        return _tau_sum(rt, ctx, combo)

    def combo(p, m):
        # tau0 and tau1 vanish off zero shift, and with them the term and
        # its size, which _tau_sum then skips
        if leg_shift(p) or leg_shift(m):
            return 0.0, 0.0, 0.0
        a, ea, sa = tau0(p, "+", ctx)
        b, eb, sb = tau0(m, "-", ctx)
        ab = 2.0 * a * b
        t11 = 0.5 if tau1(p) and tau1(m) else 0.0
        # the tau0 errors through the product, and the product's rounding
        e = 2.0 * (abs(a) * eb + ea * abs(b) + ea * eb) + EPS * abs(ab)
        return ab - t11, e, 2.0 * sa * sb + t11
    return _tau_sum(rt, ctx, combo)


def nc_integral(T: LadderElem, k: int, ctx: QContext) -> complex:
    """Integral of T against |D|^-k, k in {1, 2, 3}; weight 3 through the
    degree grading."""
    if k not in (1, 2, 3):
        raise ValueError("weight k must be 1, 2 or 3")
    if k == 3:
        return complex(_integral_weight3_powers(T)[0][0])
    return _image_integral(hopf_r(T), k, ctx)[0]


def _convolve(p1: dict, p2: dict) -> dict:
    """Product of two Laurent polynomials {degree: coefficient}."""
    out: dict = {}
    for d1, c1 in p1.items():
        for d2, c2 in p2.items():
            out[d1 + d2] = out.get(d1 + d2, 0.0) + c1 * c2
    return out


def _integral_weight3_powers(A: LadderElem) -> tuple:
    """Integrals of A, A^2 and A^3 against |D|^-3 from the degree grading,
    each as (value, rounding bound, size).

    Only words over both clean alphabets (a+ and a+*) survive tau1 x tau1
    after r, each with weight 1 exactly when its degree is zero.  As
    w -> z^deg(w) is multiplicative, the integral of A^p is 2 [z^0] P(z)^p
    for the Laurent polynomial P(z) = sum_w c_w z^deg(w) of the filtered
    words.  The size is 2 [z^0] |P|^p, and the bound p (N + D + 1) ulps of
    it, for N words summed into D degrees.
    """
    poly, abs_poly, count = {}, {}, 0
    for w, c in A.words.items():
        if BOTH_LEGS_CLEAN.issuperset(w):
            d = word_degree(w)
            poly[d] = poly.get(d, 0.0) + c
            abs_poly[d] = abs_poly.get(d, 0.0) + abs(c)
            count += 1
    out, acc, acc_abs = [], {0: 1.0}, {0: 1.0}
    for power in (1, 2, 3):
        acc = _convolve(acc, poly)
        acc_abs = _convolve(acc_abs, abs_poly)
        size = 2.0 * acc_abs.get(0, 0.0)
        ulps = power * (count + len(poly) + 1)
        out.append((2.0 * acc.get(0, 0.0), ulps * EPS * size, size))
    return tuple(out)


def _integral_weight2_square(A: LadderElem, ctx: QContext) -> tuple:
    """Integral of A^2 against |D|^-2, as (value, rounding bound, size).

    Weight 2 sees a word of A^2 only through a b-free leg, which it has
    exactly when both its factors lie over that leg's clean alphabet; a
    word over both gets the same bits from either filtered square.  r sees
    only words of degree zero, so each square sums only the products of a
    factor of degree d by one of degree -d, in the order of `@`."""
    words: dict = {}
    for clean in (PLUS_LEG_CLEAN, MINUS_LEG_CLEAN):
        part = [(w, c, word_degree(w)) for w, c in A.words.items()
                if clean.issuperset(w)]
        by_degree: dict = {}
        for w, c, d in part:
            by_degree.setdefault(d, []).append((w, c))
        square: dict = {}
        for w1, c1, d in part:
            for w2, c2 in by_degree.get(-d, ()):
                w = w1 + w2
                square[w] = square.get(w, 0.0) + c1 * c2
        words.update((w, v) for w, v in square.items() if v != 0)
    return _image_integral(hopf_r(LadderElem._make(words)), 2, ctx)


# ---------------------------------------------------------------------------
# spectral action

# residues of the unperturbed zeta_D(s) = 2 (2^(s-2) - 1) zeta(s-2)
# - (1/2)(2^s - 1) zeta(s) at its poles s = 3 and s = 1
DIRAC_RESIDUES = {3: 2.0, 1: -0.5}


def suq2_action(A: LadderElem, ctx: QContext, moments: CutoffMoments,
                lam: float, with_reality: bool = True) -> dict:
    """Expansion coefficients of the fluctuated triple for a one-form whose
    associated delta-one-form is A, plus the assembled value at scale lam.

    Returns the six base integrals, the coefficients with the
    scale-invariant term zeta0, and the ExpansionReport.  Raises
    ToleranceError when the rounding bound of an integral is not below
    ctx.tol (1 + the size of the terms it sums).
    """
    weight3 = _integral_weight3_powers(A)
    rt = hopf_r(A)
    found = {
        "A|D|^-3": weight3[0], "A^2|D|^-3": weight3[1],
        "A^3|D|^-3": weight3[2],
        "A|D|^-2": _image_integral(rt, 2, ctx),
        "A^2|D|^-2": _integral_weight2_square(A, ctx),
        "A|D|^-1": _image_integral(rt, 1, ctx),
    }
    for name, (value, bound, size) in found.items():
        if not bound < ctx.tol * (1.0 + size):
            if not cmath.isfinite(value):
                raise ToleranceError(f"{name} overflows a double")
            raise ToleranceError(
                f"{name} = {value} has a rounding bound of {bound:.3g}, not "
                f"below tol {ctx.tol:g} times 1 + the size {size:.3g} of "
                f"its terms")
    integrals = {name: value for name, (value, _, _) in found.items()}
    ia3, ia23, ia33, ia2, ia22, ia1 = integrals.values()

    c3 = DIRAC_RESIDUES[3]
    if with_reality:
        c2 = -4.0 * ia3
        c1 = DIRAC_RESIDUES[1] + 2.0 * (ia23 - ia2) + abs(ia3) ** 2
        zeta0 = (-2.0 * ia1 + ia22 - (2.0 / 3.0) * ia33
                 + ia3.conjugate() * (0.5 * ia2 - ia23)
                 + 0.5 * ia3 * ia2.conjugate())
    else:
        c2 = -2.0 * ia3
        c1 = DIRAC_RESIDUES[1] - ia2 + ia23
        zeta0 = -ia1 + 0.5 * ia22 - (1.0 / 3.0) * ia33

    report = assemble({3: c3, 2: c2, 1: c1}, zeta0, moments, lam)
    return {
        "integrals": integrals,
        "coefficients": {3: c3, 2: c2, 1: c1, 0: zeta0},
        "zeta0": zeta0,
        "report": report,
    }


def ladder_word_bound(pairs) -> float:
    """Upper bound on the ladder words of one_form_from_pairs(pairs).

    A monomial of degree |i| + j + k expands into 2^(|i| + j + k) words and
    `@` concatenates words, so a pair (x, y) gives at most the product of the
    two sums.  Computed in floats, so that huge exponents give inf rather
    than huge integers.
    """
    def words(x: PBWElem) -> float:
        return sum(2.0 ** min(abs(i) + j + k, 1000) for i, j, k in x.coeffs)
    return sum(words(x) * words(y) for x, y, c in pairs if c != 0)


def one_form_from_pairs(pairs) -> LadderElem:
    """Associated delta-one-form of sum_i c_i pi(x_i) d pi(y_i).

    Each pair's c_i pi(x_i) delta(pi(y_i)) is added into one word table, in
    the order of the pairs.  A pair whose x, y or c is zero is skipped
    unexpanded, so the expansion work stays within a multiple of
    `ladder_word_bound(pairs)`, which over MAX_LADDER_WORDS raises
    MemoryError before any monomial is expanded.  A word whose coefficient
    is not finite, which finite coefficients reach by overflowing, raises
    ValueError.
    """
    bound = ladder_word_bound(pairs)
    if bound > MAX_LADDER_WORDS:
        raise MemoryError(
            f"one-form may expand to {bound:.6g} ladder words, over the "
            f"cap {MAX_LADDER_WORDS}")
    words: dict = {}
    for x, y, c in pairs:
        if c != 0 and x.coeffs and y.coeffs:
            c = complex(c)
            for w, v in delta_one_form(x, y).words.items():
                words[w] = words.get(w, 0.0) + c * v
    # one sum in C; finite words can overflow it too, so the scan decides
    if not cmath.isfinite(sum(words.values())):
        for w, v in words.items():
            if not cmath.isfinite(v):
                raise ValueError(f"the coefficient of the ladder word "
                                 f"{'.'.join(w)} overflows a double")
    return LadderElem._make(words)


# ---------------------------------------------------------------------------
# JSON interface


def _coeff(item) -> complex:
    c = item.get("coeff", {"re": 1.0, "im": 0.0})
    return complex(json_number(c.get("re", 0.0)),
                   json_number(c.get("im", 0.0)))


def _parse_pbw(doc_list) -> PBWElem:
    table: dict = {}
    for mono in doc_list:
        c = _coeff(mono)
        # integers before the sum: a JSON true would merge into a key 1
        m = (json_integer(mono.get("a", 0)), json_integer(mono.get("b", 0)),
             json_integer(mono.get("bstar", 0)))
        table[m] = table.get(m, 0.0) + c
    return PBWElem(table)


def load_one_form(doc: dict):
    """Parse {"q": real, "one_form": [{x, y, coeff}]} into (q, pairs).

    Numbers go through `json_number`, monomial exponents `json_integer`.
    """
    try:
        q = json_number(doc["q"]) if "q" in doc else None
        pairs = [(_parse_pbw(item["x"]), _parse_pbw(item["y"]), _coeff(item))
                 for item in doc["one_form"]]
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed one-form document: {exc}") from exc
    return q, pairs
