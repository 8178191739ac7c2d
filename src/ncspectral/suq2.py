"""The SU_q(2) spectral triple: algebra, representations and integrals.

Three layers cooperate here.

* The polynomial *-algebra on generators a, b with the q-commutation rules,
  normalized in the basis a^i b^j b*^k (i in Z via a^-1 := a*).
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

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from .action_assembly import CutoffMoments, assemble
from .lattice_zeta import ToleranceError

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

# letters whose r-image keeps the respective leg free of b's
PLUS_LEG_CLEAN = frozenset({AP, BP, APS, BPS})
MINUS_LEG_CLEAN = frozenset({AP, APS, BM, BMS})


class QContext:
    """Deformation parameter with series tolerances and caches."""

    def __init__(self, q: float, tol: float = 1e-12, max_terms: int = 20000):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie strictly in (0, 1), got {q}")
        if not (tol > 0 and max_terms >= 1):
            raise ValueError("tolerance and max_terms must be positive")
        if q >= 0.95:
            warnings.warn(
                "q >= 0.95: tau0 series conditioning degrades near q = 1",
                stacklevel=2)
        self.q = float(q)
        self.tol = tol
        self.max_terms = max_terms
        self._tau0_cache: dict = {}


# ---------------------------------------------------------------------------
# PBW algebra


@dataclass
class PBWElem:
    """Linear combination of canonical monomials a^i b^j b*^k."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, c in self.coeffs.items():
            i, j, k = (int(key[0]), int(key[1]), int(key[2]))
            if j < 0 or k < 0:
                raise ValueError("b exponents must be nonnegative")
            c = complex(c)
            if c != 0:
                clean[(i, j, k)] = clean.get((i, j, k), 0.0) + c
        self.coeffs = {m: c for m, c in clean.items() if c != 0}

    @classmethod
    def one(cls) -> "PBWElem":
        return cls({(0, 0, 0): 1.0})

    @classmethod
    def generator(cls, name: str) -> "PBWElem":
        table = {"a": (1, 0, 0), "a*": (-1, 0, 0),
                 "b": (0, 1, 0), "b*": (0, 0, 1)}
        return cls({table[name]: 1.0})

    @classmethod
    def monomial(cls, i: int, j: int, k: int, coeff=1.0) -> "PBWElem":
        return cls({(i, j, k): coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return PBWElem(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return PBWElem({m: scalar * c for m, c in self.coeffs.items()})

    def mul(self, other: "PBWElem", q: float) -> "PBWElem":
        out = PBWElem({})
        for m1, c1 in self.coeffs.items():
            w1 = _monomial_word(m1)
            for m2, c2 in other.coeffs.items():
                piece = _normalize_word(w1 + _monomial_word(m2), q)
                out = out + (c1 * c2) * PBWElem(dict(piece))
        return out

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())


def _monomial_word(m) -> tuple:
    i, j, k = m
    a_part = ("a",) * i if i >= 0 else ("a*",) * (-i)
    return a_part + ("b",) * j + ("b*",) * k


# a sweep over q adds entries under every q; evicting one mid-recursion
# only costs its recomputation
@lru_cache(maxsize=1 << 14)
def _normalize_word(word: tuple, q: float) -> tuple:
    """Rewrite a word over {a, a*, b, b*} into canonical monomials.

    Returns a tuple of ((i, j, k), coeff) pairs.  The rules are the defining
    relations: ba = q ab, b*a = q ab*, bb* = b*b, a*a = 1 - q^2 b*b,
    aa* = 1 - bb*.
    """
    for pos in range(len(word) - 1):
        x, y = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        if x == "a" and y == "a*":
            branches = ((head + tail, 1.0),
                        (head + ("b", "b*") + tail, -1.0))
        elif x == "a*" and y == "a":
            branches = ((head + tail, 1.0),
                        (head + ("b*", "b") + tail, -q * q))
        elif x == "b" and y == "a":
            branches = ((head + ("a", "b") + tail, q),)
        elif x == "b*" and y == "a":
            branches = ((head + ("a", "b*") + tail, q),)
        elif x == "b" and y == "a*":
            branches = ((head + ("a*", "b") + tail, 1.0 / q),)
        elif x == "b*" and y == "a*":
            branches = ((head + ("a*", "b*") + tail, 1.0 / q),)
        elif x == "b*" and y == "b":
            branches = ((head + ("b", "b*") + tail, 1.0),)
        else:
            continue
        acc: dict = {}
        for sub, factor in branches:
            for mono, c in _normalize_word(sub, q):
                acc[mono] = acc.get(mono, 0.0) + factor * c
        return tuple(sorted((m, c) for m, c in acc.items() if c != 0))
    # canonical: a-block, then b's, then b*'s
    na = sum(1 for x in word if x == "a") - sum(1 for x in word if x == "a*")
    nb = sum(1 for x in word if x == "b")
    nbs = sum(1 for x in word if x == "b*")
    return (((na, nb, nbs), 1.0),)


def pbw_normalize(word, q: float) -> PBWElem:
    """Canonical form of a word over the generators; idempotent on monomials."""
    out: dict = {}
    for mono, c in _normalize_word(tuple(word), q):
        out[mono] = out.get(mono, 0.0) + c
    return PBWElem(out)


def pbw_adjoint(x: PBWElem, q: float) -> PBWElem:
    out = PBWElem({})
    star = {"a": "a*", "a*": "a", "b": "b*", "b*": "b"}
    for m, c in x.coeffs.items():
        word = tuple(star[l] for l in reversed(_monomial_word(m)))
        out = out + c.conjugate() * pbw_normalize(word, q)
    return out


# ---------------------------------------------------------------------------
# ladder algebra


class LadderElem:
    """Complex span of ladder words, with an optional overall factor of F.

    Words multiply freely; all relations are used only downstream, through
    the representation.  The F power is 0 or 1 (F^2 = 1) and F commutes
    with every letter.
    """

    __slots__ = ("words", "f_power")

    def __init__(self, words=None, f_power: int = 0):
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
        self.f_power = int(f_power) % 2

    @classmethod
    def zero(cls) -> "LadderElem":
        return cls()

    @classmethod
    def one(cls) -> "LadderElem":
        return cls({(): 1.0})

    @classmethod
    def letter(cls, name: str, coeff=1.0) -> "LadderElem":
        return cls({(name,): coeff})

    def __add__(self, other):
        if self.f_power != other.f_power and self.words and other.words:
            raise ValueError("cannot add elements with different F powers")
        out = dict(self.words)
        for w, c in other.words.items():
            out[w] = out.get(w, 0.0) + c
        return LadderElem(out, self.f_power if self.words else other.f_power)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return LadderElem({w: scalar * c for w, c in self.words.items()},
                          self.f_power)

    def __matmul__(self, other):
        out: dict = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                w = w1 + w2
                out[w] = out.get(w, 0.0) + c1 * c2
        return LadderElem(out, self.f_power + other.f_power)

    def adjoint(self) -> "LadderElem":
        out = {tuple(STAR[l] for l in reversed(w)): c.conjugate()
               for w, c in self.words.items()}
        return LadderElem(out, self.f_power)

    def filter_letters(self, allowed: frozenset) -> "LadderElem":
        return LadderElem({w: c for w, c in self.words.items()
                           if all(l in allowed for l in w)}, self.f_power)

    def norm1(self) -> float:
        return sum(abs(c) for c in self.words.values())

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return (self - other).norm1() <= tol and self.f_power == other.f_power

    def __repr__(self):
        terms = ", ".join(f"{'.'.join(w) or '1'}: {c:.3g}"
                          for w, c in sorted(self.words.items()))
        f = " * F" if self.f_power else ""
        return f"LadderElem({{{terms}}}{f})"


def word_degree(word) -> int:
    return sum(DEGREE[l] for l in word)


def rep_ladder(x: PBWElem) -> LadderElem:
    """Image of a polynomial under the approximate representation
    a -> a+ + a-, b -> b+ + b- (adjoints likewise)."""
    gen = {
        "a": LadderElem({(AP,): 1.0, (AM,): 1.0}),
        "a*": LadderElem({(APS,): 1.0, (AMS,): 1.0}),
        "b": LadderElem({(BP,): 1.0, (BM,): 1.0}),
        "b*": LadderElem({(BPS,): 1.0, (BMS,): 1.0}),
    }
    total = LadderElem.zero()
    for m, c in x.coeffs.items():
        acc = LadderElem.one()
        for letter in _monomial_word(m):
            acc = acc @ gen[letter]
        total = total + c * acc
    return total


def delta_ladder(T: LadderElem) -> LadderElem:
    """Commutator with |D|: each homogeneous word times its degree."""
    return LadderElem({w: word_degree(w) * c for w, c in T.words.items()},
                      T.f_power)


def zero_degree(T: LadderElem) -> LadderElem:
    return LadderElem({w: c for w, c in T.words.items() if word_degree(w) == 0},
                      T.f_power)


def delta_one_form(x: PBWElem, y: PBWElem, f_flag: bool = False) -> LadderElem:
    """pi(x) delta(pi(y)); with f_flag it stands for pi(x) [D, pi(y)]."""
    out = rep_ladder(x) @ delta_ladder(rep_ladder(y))
    return LadderElem(out.words, 1 if f_flag else 0)


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
    return sum(1 if l == "a" else -1 if l == "a*" else 0 for l in leg)


def tau1(leg) -> float:
    """Circle average of the leg symbol: 1 for b-free, winding-zero words."""
    if any(l in ("b", "b*") for l in leg):
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


def tau0(leg, side: str, ctx: QContext) -> float:
    """lim_N (Tr_N - (N+1) tau1) of a leg word; zero off the diagonal.

    The partial sums converge geometrically: words with b letters decay like
    q^(n #b), b-free words approach 1 like q^(2n).  The loop stops when the
    corresponding tail bound falls below the context tolerance.
    """
    leg = tuple(leg)
    key = (side, leg)
    cached = ctx._tau0_cache.get(key)
    if cached is not None:
        return cached
    if leg_shift(leg) != 0:
        ctx._tau0_cache[key] = 0.0
        return 0.0
    q = ctx.q
    t1 = tau1(leg)
    nb = sum(1 for l in leg if l in ("b", "b*"))
    length = len(leg)
    total = 0.0
    for n in range(ctx.max_terms):
        total += leg_diag_coeff(leg, side, n, q) - t1
        if n >= length:
            if nb > 0:
                bound = q ** (nb * (n + 1 - length)) / (1.0 - q ** nb)
            else:
                bound = length * q ** (2 * (n + 1 - length)) / (1.0 - q * q)
            if bound < ctx.tol:
                ctx._tau0_cache[key] = total
                return total
    raise ToleranceError(
        f"tau0 series for {leg} did not meet tol {ctx.tol} within "
        f"{ctx.max_terms} terms")


# ---------------------------------------------------------------------------
# noncommutative integrals


def _tensor_sum(rt: dict, ctx: QContext, combo) -> complex:
    total = 0.0 + 0.0j
    q = ctx.q
    for (plus, minus, qpow), c in rt.items():
        total += c * q ** qpow * combo(plus, minus)
    return total


def nc_integral(T: LadderElem, k: int, ctx: QContext) -> complex:
    """Integral of T against |D|^-k, k in {1, 2, 3}.

    With the F flag set the weight-2 and weight-3 integrals vanish
    identically and the weight-1 one switches to the antisymmetric
    tau0/tau1 combination.
    """
    if k not in (1, 2, 3):
        raise ValueError("weight k must be 1, 2 or 3")
    rt = hopf_r(T)
    if T.f_power:
        if k in (2, 3):
            return 0.0 + 0.0j
        def combo(p, m):
            out = 0.0
            t1m = tau1(m)
            if t1m:
                out += tau0(p, "+", ctx) * t1m
            t1p = tau1(p)
            if t1p:
                out -= t1p * tau0(m, "-", ctx)
            return out
        return _tensor_sum(rt, ctx, combo)
    if k == 3:
        return 2.0 * _tensor_sum(rt, ctx, lambda p, m: tau1(p) * tau1(m))
    if k == 2:
        def combo(p, m):
            out = 0.0
            t1p = tau1(p)
            if t1p:
                out += t1p * tau0(m, "-", ctx)
            t1m = tau1(m)
            if t1m:
                out += tau0(p, "+", ctx) * t1m
            return out
        return 2.0 * _tensor_sum(rt, ctx, combo)

    def combo(p, m):
        return (2.0 * tau0(p, "+", ctx) * tau0(m, "-", ctx)
                - 0.5 * tau1(p) * tau1(m))
    return _tensor_sum(rt, ctx, combo)


def _integral_weight3_powers(A: LadderElem) -> tuple:
    """Integrals of A, A^2 and A^3 against |D|^-3 from the degree grading.

    Only words built purely from a+ and a+* survive tau1 x tau1 after r, each
    with weight 1 exactly when its degree is zero.  As w -> z^deg(w) is
    multiplicative, the integral of A^p is 2 [z^0] P(z)^p for the Laurent
    polynomial P(z) = sum_w c_w z^deg(w) of the filtered words; an odd
    power of F makes it vanish.
    """
    poly: dict = {}
    for w, c in A.filter_letters(frozenset({AP, APS})).words.items():
        d = word_degree(w)
        poly[d] = poly.get(d, 0.0) + c
    out, acc = [], {0: 1.0}
    for power in (1, 2, 3):
        nxt: dict = {}
        for d1, c1 in acc.items():
            for d2, c2 in poly.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, 0.0) + c1 * c2
        acc = nxt
        out.append(0.0 + 0.0j if power * A.f_power % 2
                   else 2.0 * acc.get(0, 0.0))
    return tuple(out)


def _integral_weight2_square(A: LadderElem, ctx: QContext) -> complex:
    """Integral of A^2 against |D|^-2 through per-factor letter filters."""
    q = ctx.q
    total = 0.0 + 0.0j
    for clean, side_clean, side_tau0 in (
            (PLUS_LEG_CLEAN, 0, "-"), (MINUS_LEG_CLEAN, 1, "+")):
        part = A.filter_letters(clean)
        sq = part @ part
        rt = hopf_r(sq)
        for (plus, minus, qpow), c in rt.items():
            legs = (plus, minus)
            t1 = tau1(legs[side_clean])
            if not t1:
                continue
            other = legs[1 - side_clean]
            total += c * q ** qpow * t1 * tau0(other, side_tau0, ctx)
    return 2.0 * total


# ---------------------------------------------------------------------------
# spectral action

# residues of the unperturbed zeta_D(s) = 2 (2^(s-2) - 1) zeta(s-2)
# - (1/2)(2^s - 1) zeta(s) at its poles s = 3 and s = 1
DIRAC_RESIDUES = {3: 2.0, 1: -0.5}


def suq2_action(A: LadderElem, ctx: QContext, moments: CutoffMoments,
                lam: float, with_reality: bool = True) -> dict:
    """Expansion coefficients of the fluctuated triple for a one-form whose
    associated delta-one-form is A, plus the assembled value at scale lam.

    Returns the six base integrals, the coefficients with the scale-invariant
    term zeta0, and the ExpansionReport.
    """
    ia3, ia23, ia33 = _integral_weight3_powers(A)
    ia2 = nc_integral(A, 2, ctx)
    ia1 = nc_integral(A, 1, ctx)
    ia22 = _integral_weight2_square(A, ctx)

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
        "integrals": {
            "A|D|^-3": ia3, "A^2|D|^-3": ia23, "A^3|D|^-3": ia33,
            "A|D|^-2": ia2, "A^2|D|^-2": ia22, "A|D|^-1": ia1,
        },
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


def one_form_from_pairs(pairs, ctx: QContext) -> LadderElem:
    """Associated delta-one-form of sum_i c_i pi(x_i) d pi(y_i).

    A pair whose x, y or c is zero is skipped unexpanded, so the expansion
    work stays within a multiple of `ladder_word_bound(pairs)`.
    """
    total = LadderElem.zero()
    for x, y, c in pairs:
        if c != 0 and x.coeffs and y.coeffs:
            total = total + c * delta_one_form(x, y)
    return total


# ---------------------------------------------------------------------------
# JSON interface


def _finite(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x} in the one-form")
    return x


def _coeff(item) -> complex:
    c = item.get("coeff", {"re": 1.0, "im": 0.0})
    return complex(_finite(c.get("re", 0.0)), _finite(c.get("im", 0.0)))


def _exponent(x) -> int:
    i = int(x)
    if i != x:
        raise ValueError(f"monomial exponent {x!r} is not an integer")
    return i


def _parse_pbw(doc_list) -> PBWElem:
    out = PBWElem({})
    for mono in doc_list:
        coeff = _coeff(mono)
        out = out + coeff * PBWElem.monomial(
            _exponent(mono.get("a", 0)), _exponent(mono.get("b", 0)),
            _exponent(mono.get("bstar", 0)))
    return out


def load_one_form(doc: dict):
    """Parse {"q": real, "one_form": [{x, y, coeff}]} into (q, pairs).

    Every number must be finite and every monomial exponent an integer.
    """
    try:
        q = _finite(doc["q"]) if "q" in doc else None
        pairs = [(_parse_pbw(item["x"]), _parse_pbw(item["y"]), _coeff(item))
                 for item in doc["one_form"]]
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed one-form document: {exc}") from exc
    return q, pairs
