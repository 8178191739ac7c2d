import cmath
import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncspectral.acceptance import plus_adjoint
from ncspectral.action_assembly import cutoff_moments
from ncspectral.lattice_zeta import CONTOUR_NODES, PoleError, ToleranceError
from ncspectral.oracles import (
    NotReducibleError,
    ideal_r_reduce,
    leg_matrix,
    lqmq_integral,
    qn,
    shell_fit_weight3,
    shell_trace_oracle,
    table_entry_ladder,
    tau0_series,
    weight3_tau1_integral,
    zeta_D_suq2,
)
from ncspectral.suq2 import (
    AM, AMS, AP, APS, BM, BMS, BP, BPS,
    DIRAC_RESIDUES,
    EPS,
    MINUS_LEG_CLEAN,
    PLUS_LEG_CLEAN,
    LadderElem,
    PBWElem,
    QContext,
    delta_ladder,
    delta_one_form,
    _image_integral,
    _integral_weight2_square,
    _tau_sum,
    hopf_r,
    leg_diag_coeff,
    leg_shift,
    load_one_form,
    nc_integral,
    one_form_from_pairs,
    rep_ladder,
    suq2_action,
    tau0,
    tau1,
    word_degree,
)

Q_SAMPLES = (0.3, 0.5, 0.7)


def gen(name):
    return PBWElem.generator(name)


class TestQContext:
    def test_range_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                QContext(bad)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_validated(self, tol):
        with pytest.raises(ValueError):
            QContext(0.5, tol=tol)

    def test_holds_q_tol_and_tables_of_q_only(self):
        # tau0 keeps no cache keyed by a leg or a side: besides q and tol, a
        # context holds the tables of q, whichever legs filled them
        ctx = QContext(0.5)
        assert vars(ctx) == {"q": 0.5, "tol": 1e-12,
                             "roots": [], "powers": [], "gaps": []}
        for leg in (("a", "b", "a*", "b*"), ("b*", "a*", "a", "b")):
            tau0(leg, "-", ctx)
        fresh = QContext(0.5)
        fresh.fill(4)
        assert vars(ctx) == vars(fresh)

    def test_near_one_is_quiet(self):
        # the closed form of tau0 has no series to condition near q = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx = QContext(0.9995)
            value, bound, _ = tau0(("a", "a*"), "+", ctx)
        q = ctx.q
        assert value == pytest.approx(-1.0 / (1 - q * q), rel=1e-12)
        assert bound < 1e-14 * abs(value)


class TestLadder:
    def test_rep_of_generators(self):
        assert rep_ladder(gen("a")).words == {(AP,): 1.0, (AM,): 1.0}
        assert rep_ladder(gen("b*")).words == {(BPS,): 1.0, (BMS,): 1.0}

    def test_rep_of_square_and_grading(self):
        aa = rep_ladder(PBWElem({(2, 0, 0): 1.0}))
        degrees = {w: word_degree(w) for w in aa.words}
        assert sorted(degrees.values()) == [-2, 0, 0, 2]

    def test_delta_ladder(self):
        assert delta_ladder(LadderElem({(AP,): 1.0})).words == {(AP,): 1.0}
        assert delta_ladder(LadderElem({(AM, BP): 1.0})).words == {}
        twice = delta_ladder(delta_ladder(rep_ladder(gen("a"))))
        assert twice.words == rep_ladder(gen("a")).words

    def test_degree_additivity(self):
        w1, w2 = (AP, BM), (AMS, BPS, BP)
        assert word_degree(w1 + w2) == word_degree(w1) + word_degree(w2)

    def test_delta_one_form_examples(self):
        got = delta_one_form(gen("b"), gen("b*"))
        assert got.words == {(BP, BMS): 1.0, (BP, BPS): -1.0,
                             (BM, BMS): 1.0, (BM, BPS): -1.0}
        one = PBWElem({(0, 0, 0): 1.0})
        assert delta_one_form(one, one).words == {}

    def test_adjoint_reverses_and_stars(self):
        # acceptance's T + T*; a+ a+* is its own adjoint word
        T = LadderElem({(AP, BM): 2.0j, (AP, APS): 1.0 + 1.0j})
        assert plus_adjoint(T).words == {(AP, BM): 2.0j, (AP, APS): 2.0,
                                         (BMS, APS): -2.0j}

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="unknown ladder letter"):
            LadderElem({("x",): 1})


class TestHopfR:
    def test_generator_images(self):
        rt = hopf_r(LadderElem({(BP, BPS): 1.0}))
        assert rt == {(("a", "a*"), ("b", "b*"), 0): pytest.approx(1.0)}
        rt1 = hopf_r(LadderElem({(): 1.0}))
        assert rt1 == {((), (), 0): pytest.approx(1.0)}
        rt2 = hopf_r(LadderElem({(AM, AMS): 1.0}))
        assert rt2 == {(("b", "b*"), ("b*", "b"), 2): pytest.approx(1.0)}

    def test_skips_nonzero_degree(self):
        assert hopf_r(LadderElem({(AP,): 1.0})) == {}
        T = rep_ladder(gen("a")) @ delta_ladder(rep_ladder(gen("a*")))
        T = LadderElem({**T.words, (BP, AP): 2.0, (AM, BMS, BPS): 1.0j})
        assert {word_degree(w) for w in T.words} == {-2, -1, 0, 2}
        degree_zero = LadderElem({w: c for w, c in T.words.items()
                                  if word_degree(w) == 0})
        assert hopf_r(T) == hopf_r(degree_zero)

    def test_clean_alphabets(self):
        # the letters whose plus or minus leg image has no b, read off r
        from ncspectral.suq2 import MINUS_LEG_CLEAN, PLUS_LEG_CLEAN
        assert PLUS_LEG_CLEAN == {AP, BP, APS, BPS}
        assert MINUS_LEG_CLEAN == {AP, APS, BM, BMS}
        assert PLUS_LEG_CLEAN & MINUS_LEG_CLEAN == {AP, APS}

    @pytest.mark.parametrize("q", [0.4, 0.7])
    def test_multiplicativity_on_truncations(self, q):
        # the per-word (sign, q-power, legs) encoding must match the
        # letter-by-letter product of the dense generator images
        from ncspectral.suq2 import _R_TABLE

        size = 40
        letter_image = {}
        for letter, (sign, qpow, lp, lm) in _R_TABLE.items():
            letter_image[letter] = (sign * q ** qpow) * np.kron(
                leg_matrix((lp,), "+", q, size), leg_matrix((lm,), "-", q, size))

        rng = np.random.default_rng(3)
        raising = [AP, BP, AMS, BMS]
        lowering = [AM, BM, APS, BPS]
        for _ in range(6):
            word = (rng.choice(raising), rng.choice(lowering),
                    rng.choice(lowering), rng.choice(raising))
            (plus, minus, qpow), c = next(iter(
                hopf_r(LadderElem({word: 1.0})).items()))
            lhs = (c * q ** qpow) * np.kron(
                leg_matrix(plus, "+", q, size), leg_matrix(minus, "-", q, size))
            rhs = np.eye(size * size)
            for letter in word:
                rhs = rhs @ letter_image[letter]
            assert np.max(np.abs(lhs - rhs)) < 1e-10


# zero-shift legs of length up to 8, random letters otherwise
ZERO_SHIFT_LEGS = st.lists(st.sampled_from(["a", "a*", "b", "b*"]),
                           max_size=8).map(tuple).filter(
    lambda leg: leg_shift(leg) == 0)


def tau0_exact(leg, side, q) -> Fraction:
    """tau0 in rational arithmetic at the double q: the head f(n) - tau1
    for n < L walked exactly (the two square roots of each edge crossing
    multiply to 1 - q^(2s)), the tail from the polynomial in x = q^n that
    the same walk gives past the boundary."""
    q = Fraction(q)
    sign = 1 if side == "+" else -1
    t1 = Fraction(int(tau1(leg)))

    def walk(n):
        state, value = n, Fraction(1)
        for letter in reversed(leg):
            if letter == "a":
                state += 1
                value *= 1 - q ** (2 * state)
            elif letter == "a*":
                if state <= 0:
                    return Fraction(0)
                state -= 1
            else:
                value *= sign * q ** state
        return value

    length = len(leg)
    head = sum((walk(n) - t1 for n in range(length)), Fraction(0))
    poly, d = {0: Fraction(1)}, 0
    for letter in reversed(leg):
        if letter == "a":
            d += 1
            step = {0: Fraction(1), 2: -q ** (2 * d)}
            product = {}
            for j1, c1 in poly.items():
                for j2, c2 in step.items():
                    product[j1 + j2] = product.get(j1 + j2, 0) + c1 * c2
            poly = product
        elif letter == "a*":
            d -= 1
        else:
            poly = {j + 1: sign * q ** d * c for j, c in poly.items()}
    assert poly.get(0, 0) == t1
    return head + sum((c * q ** (j * length) / (1 - q ** j)
                       for j, c in poly.items() if j), Fraction(0))


def integral_exact(T, k, q) -> tuple:
    """The weight-1 (k = 1) or weight-2 (k = 2) integral of an F-free T in
    rational arithmetic at the double q, as (real part, imaginary part)."""
    values = {}

    def t0(leg, side):
        if (leg, side) not in values:
            values[leg, side] = (tau0_exact(leg, side, q)
                                 if leg_shift(leg) == 0 else Fraction(0))
        return values[leg, side]

    re = im = Fraction(0)
    for (p, m, qpow), c in hopf_r(T).items():
        tp, tm = int(tau1(p)), int(tau1(m))
        if k == 1:
            v = 2 * t0(p, "+") * t0(m, "-") - Fraction(tp * tm, 2)
        else:
            v = 2 * (tp * t0(m, "-") + t0(p, "+") * tm)
        w = Fraction(q) ** qpow * v
        re += Fraction(c.real) * w
        im += Fraction(c.imag) * w
    return re, im


class TestTauFunctionals:
    def setup_method(self):
        self.ctx = QContext(0.5)

    def test_tau1_values(self):
        assert tau1(("a", "a*")) == 1.0
        assert tau1(("b", "b*")) == 0.0
        assert tau1(()) == 1.0
        assert tau1(("a", "a")) == 0.0

    def value(self, leg, side):
        return tau0(leg, side, self.ctx)[0]

    def test_tau0_reference_values(self):
        q = self.ctx.q
        assert self.value(("a", "a*"), "+") == pytest.approx(
            -1.0 / (1 - q * q), abs=1e-10)
        assert self.value(("b", "b*"), "-") == pytest.approx(
            1.0 / (1 - q * q), abs=1e-10)
        for side in ("+", "-"):
            assert self.value(("a*", "a"), side) == pytest.approx(
                q * q * self.value(("a", "a*"), side), abs=1e-10)

    def test_tau0_shift_rule(self):
        assert tau0(("a",), "+", self.ctx) == (0.0, 0.0, 0.0)
        assert tau0(("a", "a", "a*"), "-", self.ctx) == (0.0, 0.0, 0.0)

    def test_tau0_single_b_side_sign(self):
        q = self.ctx.q
        assert self.value(("b",), "+") == pytest.approx(1 / (1 - q))
        assert self.value(("b",), "-") == pytest.approx(-1 / (1 - q))

    def test_tau0_tolerance_guard(self):
        # tau0 is exact up to rounding; its bound, carried into the
        # integrals, must lie below the context tolerance
        tight = QContext(0.5, tol=1e-20)
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        with pytest.raises(ToleranceError, match="rounding bound"):
            suq2_action(delta_one_form(gen("b"), gen("b*")), tight, moments,
                        1.0)

    @settings(max_examples=80, deadline=None)
    @given(ZERO_SHIFT_LEGS, st.sampled_from("+-"), st.floats(0.05, 0.999))
    def test_tau0_closed_form_matches_series(self, leg, side, q):
        ctx = QContext(q, tol=1e-11)
        value = tau0(leg, side, ctx)[0]
        series = tau0_series(leg, side, ctx, max_terms=100000)
        assert value == pytest.approx(series, abs=1e-9 * (1 + abs(series)))

    @settings(max_examples=200, deadline=None)
    @given(ZERO_SHIFT_LEGS, st.sampled_from("+-"), st.floats(0.05, 0.999))
    def test_tau0_bound_covers_rounding(self, leg, side, q):
        value, bound, size = tau0(leg, side, QContext(q))
        assert abs(Fraction(value) - tau0_exact(leg, side, q)) <= bound
        assert abs(value) <= size

    @pytest.mark.parametrize("q", [1e-13, 1e-26, 1e-77, 1e-300])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tau0_at_small_q(self, k, q):
        # a^k d a^-k walks its legs below their start, where a power q^d
        # with d < 0 would overflow at these q and turn inf * 0 into nan
        ctx = QContext(q)
        A = delta_one_form(PBWElem({(k, 0, 0): 1.0}),
                           PBWElem({(-k, 0, 0): 1.0}))
        for (plus, minus, _), _ in hopf_r(A @ A).items():
            for leg, side in ((plus, "+"), (minus, "-")):
                value, bound, size = tau0(leg, side, ctx)
                assert math.isfinite(size)
                assert abs(value - tau0_series(leg, side, ctx)) <= bound
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        integrals = suq2_action(A, ctx, moments, 1.0)["integrals"]
        assert integrals["A^2|D|^-2"] == -4.0 * k ** 3

    @pytest.mark.parametrize("leg", [("a", "a*"), ("a*", "a"), ("b", "b*"),
                                     ("a", "b", "a*"), ("b", "b", "a*", "a")])
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_tau0_matches_matrix_partial_traces(self, leg, side):
        # independent route: dense truncation, Tr_N - (N+1) tau1
        ctx = self.ctx
        N = 60
        mat = leg_matrix(leg, side, ctx.q, N + 21)
        partial = float(np.trace(mat[: N + 1, : N + 1]))
        expected = partial - (N + 1) * tau1(leg)
        assert tau0(leg, side, ctx)[0] == pytest.approx(expected, abs=1e-10)


class TestNcIntegral:
    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_unit_weight3(self, q):
        ctx = QContext(q)
        assert nc_integral(LadderElem({(): 1.0}), 3, ctx) == pytest.approx(2.0)

    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_tadpole_value(self, q):
        # pi(b) [D, pi(b*)] D^-1 = pi(b) delta(pi(b*)) |D|^-1
        ctx = QContext(q)
        T = delta_one_form(gen("b"), gen("b*"))
        assert nc_integral(T, 1, ctx).real == pytest.approx(
            2.0 / (1 - q * q), abs=1e-8)

    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_remark_table(self, q):
        ctx = QContext(q)
        vals = {
            ("a", "a*"): (q * q + 3) / (2 * (q * q - 1)),
            ("a*", "a"): (3 * q * q + 1) / (2 * (q * q - 1)),
            ("b", "b"): 0.0,
            ("b*", "b*"): 0.0,
            ("b", "b*"): -2.0 / (q * q - 1),
            ("b*", "b"): -2.0 / (q * q - 1),
        }
        for (x, y), expected in vals.items():
            got = nc_integral(delta_one_form(gen(x), gen(y)), 1, ctx)
            assert got.real == pytest.approx(expected, abs=1e-8), (x, y)
            assert abs(got.imag) < 1e-12

    def test_ideal_letter_kills_everything(self):
        ctx = QContext(0.5)
        rng = np.random.default_rng(17)
        letters = [AP, AM, BP, BM, APS, AMS, BPS, BMS]
        for _ in range(10):
            w = tuple(rng.choice(letters, size=int(rng.integers(0, 4))))
            for word in ((AM,) + w, w + (AM,)):
                elem = LadderElem({word: 1.0})
                for k in (2, 3):
                    assert nc_integral(elem, k, ctx) == 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            nc_integral(LadderElem({(): 1.0}), 4, QContext(0.5))

    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_cocycle_antisymmetrization(self, q):
        ctx = QContext(q)
        lhs = nc_integral(delta_one_form(gen("a"), gen("a*")), 1, ctx)
        rhs = nc_integral(delta_one_form(gen("a*"), gen("a")), 1, ctx)
        assert (lhs - rhs).real == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("q", Q_SAMPLES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_families(self, q, n):
        ctx = QContext(q)
        weight = rep_ladder(PBWElem({(0, n, n): 1.0}))
        q2n, q2n2 = q ** (2 * n), q ** (2 * n + 2)
        got = nc_integral(weight, 1, ctx).real
        assert got == pytest.approx(-2 * (1 + q2n) / (1 - q2n) ** 2, abs=1e-8)
        for x, y, expected in (
                ("b*", "b", 2 / (1 - q2n2)),
                ("b", "b*", 2 / (1 - q2n2)),
                ("a", "a*", (-2 * q ** (4 * n + 2) - 2 * q ** (4 * n)
                             - 2 * q2n2 + 6 * q2n)
                 / ((1 - q2n) ** 2 * (1 - q2n2))),
                ("a*", "a", (6 * q2n2 - 2 * q2n - 2 * q * q - 2)
                 / ((1 - q2n) ** 2 * (1 - q2n2)))):
            got = nc_integral(weight @ delta_one_form(gen(x), gen(y)), 1, ctx)
            assert got.real == pytest.approx(expected, abs=1e-8), (x, y, n)


class TestZetaD:
    def test_residue_constant(self):
        # suq2_action takes the bare c3 and c1 from it
        assert DIRAC_RESIDUES == {3: 2.0, 1: -0.5}
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        for with_reality in (True, False):
            coeffs = suq2_action(LadderElem(), QContext(0.5), moments,
                                 1.0, with_reality)["coefficients"]
            assert (coeffs[3], coeffs[1]) == (DIRAC_RESIDUES[3],
                                              DIRAC_RESIDUES[1])

    def test_value_at_zero(self):
        assert zeta_D_suq2(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_residues_by_pole_fit(self):
        # the trapezoid rule of epstein_pole_fit: the mean of (s - p)
        # zeta_D(s) over CONTOUR_NODES points of |s - p| = r.  The other
        # pole, 2 away, aliases in as about (r / 2)^CONTOUR_NODES: 5e-10 at
        # r = 1/2, 7e-15 at r = 1/4
        offsets = 0.25 * np.exp(
            2j * math.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
        for pole, residue in DIRAC_RESIDUES.items():
            fit = np.mean([e * zeta_D_suq2(pole + e) for e in offsets])
            assert abs(fit - residue) <= 1e-12

    def test_no_pole_at_two(self):
        v = zeta_D_suq2(2.0)
        assert np.isfinite(v.real)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta_D_suq2(3.0)


class TestIdealRReduction:
    def test_substitution_examples(self):
        q = 0.5
        assert ideal_r_reduce(0, "bdb*", q) == {("M", 1): 1.0, ("L", 1): -1.0}
        ctx = QContext(q)
        assert lqmq_integral(ideal_r_reduce(0, "bdb*", q), ctx) == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_closed_forms(self, n):
        q = 0.5
        ctx = QContext(q)
        got = lqmq_integral(ideal_r_reduce(n, "a*da", q), ctx)
        assert got == pytest.approx(
            4 * (1 - q * q) / ((1 - q ** (2 * n + 2)) * (1 - q ** (2 * n))),
            abs=1e-12)
        got = lqmq_integral(ideal_r_reduce(n, "da*da", q), ctx)
        assert got == pytest.approx(
            4 * (q * q - 1) / ((1 - q ** (2 * n + 2)) * (1 - q ** (2 * n))),
            abs=1e-12)

    def test_unknown_tag_not_reducible(self):
        with pytest.raises(NotReducibleError):
            ideal_r_reduce(0, "adb", 0.5)

    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_dual_path_agreement(self, q):
        ctx = QContext(q)
        tags = ["one", "bdb*", "b*db", "ada*", "a*da", "dada*", "da*da",
                "dbdb", "dbdb*", "db*db*",
                "a*b*dadb", "ab*da*db", "a*bdadb*", "abda*db*"]
        for n in (0, 1, 2):
            for tag in tags:
                if tag == "one" and n == 0:
                    continue
                lhs = nc_integral(table_entry_ladder(n, tag, ctx), 2, ctx)
                rhs = lqmq_integral(ideal_r_reduce(n, tag, q), ctx)
                assert lhs.real == pytest.approx(rhs, abs=1e-8), (n, tag)
                assert abs(lhs.imag) < 1e-10


TABLE_ROWS = {
    ("a*", "a"): lambda q: (2.0, 2.0, 2.0,
                            4 * q ** 2 / (q ** 2 - 1),
                            4 * q ** 2 * (q ** 2 + 2) / (q ** 4 - 1),
                            (3 * q ** 2 + 1) / (2 * (q ** 2 - 1)),
                            (11 * q ** 4 + 36 * q ** 2 + 13) / (3 * (q ** 4 - 1))),
    ("b*", "b"): lambda q: (0.0, 0.0, 0.0, 0.0,
                            -4 / (q ** 4 - 1),
                            -2 / (q ** 2 - 1),
                            4 * q ** 2 / (q ** 4 - 1)),
    ("a", "a*"): lambda q: (-2.0, 2.0, -2.0,
                            -4 / (q ** 2 - 1),
                            4 * (2 * q ** 2 + 1) / (q ** 4 - 1),
                            (q ** 2 + 3) / (2 * (q ** 2 - 1)),
                            (13 * q ** 4 + 36 * q ** 2 + 11) / (3 * (q ** 4 - 1))),
    ("b", "b*"): lambda q: (0.0, 0.0, 0.0, 0.0,
                            -4 / (q ** 4 - 1),
                            -2 / (q ** 2 - 1),
                            4 * q ** 2 / (q ** 4 - 1)),
}


class TestSpectralAction:
    @pytest.mark.parametrize("q", Q_SAMPLES)
    @pytest.mark.parametrize("row", sorted(TABLE_ROWS))
    def test_one_generator_rows(self, q, row):
        ctx = QContext(q)
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        A = delta_one_form(gen(row[0]), gen(row[1]))
        out = suq2_action(A, ctx, moments, 1.0)
        ia = out["integrals"]
        got = (ia["A|D|^-3"], ia["A^2|D|^-3"], ia["A^3|D|^-3"],
               ia["A|D|^-2"], ia["A^2|D|^-2"], ia["A|D|^-1"], out["zeta0"])
        for g, e in zip(got, TABLE_ROWS[row](q)):
            assert complex(g).real == pytest.approx(e, abs=1e-8)
            assert abs(complex(g).imag) < 1e-10

    @pytest.mark.parametrize("q", Q_SAMPLES)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_weighted_symmetric_potential(self, q, n):
        # A_n = B_n + B_n*, B_n = (bb*)^n b delta(b*):
        # S = 2 Phi3 L^3 - (1/2) Phi1 L + 8/(1+q^(2n+2)) Phi(0)
        ctx = QContext(q)
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        Bn = rep_ladder(PBWElem({(0, n, n): 1.0})) @ delta_one_form(
            gen("b"), gen("b*"))
        out = suq2_action(plus_adjoint(Bn), ctx, moments, 2.0)
        coeffs = out["coefficients"]
        assert complex(coeffs[3]).real == pytest.approx(2.0)
        assert complex(coeffs[2]).real == pytest.approx(0.0, abs=1e-10)
        assert complex(coeffs[1]).real == pytest.approx(-0.5, abs=1e-8)
        assert complex(coeffs[0]).real == pytest.approx(
            8.0 / (1 + q ** (2 * n + 2)), abs=1e-8)
        lam, phi3, phi1 = 2.0, moments.phi(3), moments.phi(1)
        expected_total = (2 * phi3 * lam ** 3 - 0.5 * phi1 * lam
                          + 8.0 / (1 + q ** (2 * n + 2)))
        assert complex(out["report"].total).real == pytest.approx(
            expected_total, abs=1e-8)

    def test_zero_fluctuation(self):
        ctx = QContext(0.5)
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        out = suq2_action(LadderElem(), ctx, moments, 3.0)
        assert out["coefficients"][3] == 2.0
        assert out["coefficients"][2] == 0.0
        assert complex(out["coefficients"][1]).real == pytest.approx(-0.5)
        assert out["zeta0"] == 0.0

    @pytest.mark.parametrize("q", [0.4, 0.6])
    def test_power_shortcuts_match_generic_path(self, q):
        # the letter-filtered power integrals must agree with brute-force
        # expansion: weight 3 against the tau1 x tau1 sum over the r-image,
        # weight 2 against the generic integral within the filtered
        # route's own rounding bound
        from ncspectral.suq2 import (MINUS_LEG_CLEAN, PLUS_LEG_CLEAN,
                                     _integral_weight2_square,
                                     _integral_weight3_powers)
        ctx = QContext(q)
        rng = np.random.default_rng(23)
        gens = ["a", "a*", "b", "b*"]
        forms = [one_form_from_pairs([(gen("a"), gen("a*"), 1.0),
                                      (gen("b"), gen("b*"), 0.5j)])]
        for _ in range(4):
            pairs = []
            for _ in range(2):
                x = gen(rng.choice(gens))
                y = gen(rng.choice(gens))
                pairs.append((x, y, complex(rng.normal(), rng.normal())))
            forms.append(one_form_from_pairs(pairs))
        for A in forms:
            sq = A @ A
            powers = [out[0] for out in _integral_weight3_powers(A)]
            assert powers == pytest.approx(
                [weight3_tau1_integral(P, ctx) for P in (A, sq, sq @ A)],
                abs=1e-9)
            got, bound, _ = _integral_weight2_square(A, ctx)
            assert abs(got - nc_integral(sq, 2, ctx)) <= bound
        # the first square has degree-zero words over each clean alphabet
        # alone and over both
        seen = {(PLUS_LEG_CLEAN.issuperset(w), MINUS_LEG_CLEAN.issuperset(w))
                for w in (forms[0] @ forms[0]).words if word_degree(w) == 0}
        assert {(True, False), (False, True), (True, True)} <= seen

    def test_one_run_builds_each_image_once(self, monkeypatch):
        # r(A) for weights 2 and 1 and r of the words of A^2 that weight 2
        # sees, each summed once; the weight-3 integrals come from the
        # Laurent polynomial
        from ncspectral import suq2
        calls = {"hopf_r": 0, "_tau_sum": 0}

        def counted(name):
            inner = getattr(suq2, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper
        for name in calls:
            monkeypatch.setattr(suq2, name, counted(name))
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        A = one_form_from_pairs([(gen("a"), gen("a*"), 1.0),
                                 (gen("b*"), gen("b"), 0.5j)])
        suq2_action(A, QContext(0.5), moments, 1.0)
        assert calls == {"hopf_r": 2, "_tau_sum": 3}

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.999])
    def test_bounds_cover_rounding(self, q):
        # the bounds that gate suq2 --tol, against the integrals in
        # rational arithmetic
        from ncspectral.suq2 import _image_integral, _integral_weight2_square

        ctx = QContext(q)
        forms = [delta_one_form(gen("a*"), gen("a")),
                 one_form_from_pairs(
                     [(gen("a"), gen("a*"), 1.0),
                      (gen("b*"), PBWElem({(1, 1, 0): 1.0}), 0.5j),
                      (PBWElem({(-1, 0, 1): 1.0}), gen("b"), -0.3)])]
        for A in forms:
            rt = hopf_r(A)
            for T, k, (got, bound, size) in (
                    (A, 1, _image_integral(rt, 1, ctx)),
                    (A, 2, _image_integral(rt, 2, ctx)),
                    (A @ A, 2, _integral_weight2_square(A, ctx))):
                re, im = integral_exact(T, k, q)
                err = abs(complex(float(Fraction(got.real) - re),
                                  float(Fraction(got.imag) - im)))
                assert err <= bound, (k, q)
                assert abs(got) <= size

    def test_no_reality_variant(self):
        # without J the scale-invariant term halves whenever the weight-3
        # integral of A vanishes
        ctx = QContext(0.5)
        moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        A = delta_one_form(gen("b*"), gen("b"))
        full = suq2_action(A, ctx, moments, 1.0, with_reality=True)
        bare = suq2_action(A, ctx, moments, 1.0, with_reality=False)
        assert complex(full["zeta0"]).real == pytest.approx(
            2 * complex(bare["zeta0"]).real, abs=1e-10)


class TestShellOracle:
    def setup_method(self):
        self.ctx = QContext(0.5)

    def test_qn_boundary(self):
        assert qn(0.5, 0) == 0.0
        assert qn(0.5, -3) == 0.0
        assert qn(0.5, 1) == pytest.approx(math.sqrt(0.75))

    def test_multiplicities(self):
        for u in (0, 1, 5, 8):
            j = u / 2.0
            got = shell_trace_oracle(LadderElem({(): 1.0}), j, self.ctx)
            assert got == pytest.approx((u + 1) * (u + 2) + u * (u + 1))

    def test_shifting_word_has_zero_diagonal(self):
        assert shell_trace_oracle(LadderElem({(AM,): 1.0}), 3, self.ctx) == 0.0

    def test_bplus_bplus_star_closed_form(self):
        q = self.ctx.q
        u = 6
        got = shell_trace_oracle(LadderElem({(BP, BPS): 1.0}), u / 2, self.ctx)
        expected = 0.0
        # up part: l <= u+1 with the intermediate (m-1, l, u-1) up-valid
        for m in range(u + 1):
            for l in range(u + 2):
                if m - 1 >= 0 and l <= u:
                    expected += q ** (2 * l) * (1 - q ** (2 * m))
        # down part: l <= u-1, intermediate needs l <= u-2
        for m in range(u + 1):
            for l in range(u):
                if m - 1 >= 0 and l <= u - 2:
                    expected += q ** (2 * l) * (1 - q ** (2 * m))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cap(self):
        with pytest.raises(ValueError):
            shell_trace_oracle(LadderElem({(): 1.0}), 150, self.ctx, cap=100)

    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_fit_recovers_weight3(self, q):
        ctx = QContext(q)
        cases = [
            (LadderElem({(): 1.0}), 2.0),
            (LadderElem({(BP, BPS): 1.0}), 0.0),
            (LadderElem({(AP, APS): 1.0}), 2.0),
        ]
        for elem, expected in cases:
            fit = shell_fit_weight3(elem, ctx)
            assert fit == pytest.approx(expected,
                                        abs=1e-4 * max(1.0, abs(expected)))


class TestNonFinite:
    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan,
                                   complex(0.0, math.inf)])
    def test_polynomial_refuses_non_finite_coefficient(self, c):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            PBWElem({(1, 0, 0): c})

    def test_overflowing_word_is_refused_by_name(self):
        pairs = [(PBWElem({(1, 0, 0): 1e308}), gen("a*"), 10.0)]
        with pytest.raises(ValueError, match=r"ladder word a\+\.a\+\* "):
            one_form_from_pairs(pairs)

    def test_finite_words_whose_sum_overflows_pass(self):
        # a+ times the words of a^3 at degrees 3, 1, 1, ...: 1.5e308 +
        # 5e307 already overflows the running sum
        A = one_form_from_pairs([(gen("a"), PBWElem({(3, 0, 0): 5e307}),
                                  1.0)])
        assert all(map(cmath.isfinite, A.words.values()))
        assert not cmath.isfinite(sum(A.words.values()))


class TestJsonInterface:
    def test_round_trip(self):
        doc = {
            "q": 0.5,
            "one_form": [
                {"x": [{"a": -1, "b": 0, "bstar": 0,
                        "coeff": {"re": 1.0, "im": 0.0}}],
                 "y": [{"a": 1, "b": 0, "bstar": 0,
                        "coeff": {"re": 1.0, "im": 0.0}}],
                 "coeff": {"re": 1.0, "im": 0.0}},
            ],
        }
        q, pairs = load_one_form(doc)
        assert q == 0.5
        ctx = QContext(q)
        A = one_form_from_pairs(pairs)
        assert A.words == delta_one_form(gen("a*"), gen("a")).words

    def test_malformed(self):
        with pytest.raises(ValueError):
            load_one_form({"q": 0.5})


# the route that rep_ladder and one_form_from_pairs replace: the images of
# the generators multiplied letter by letter with `@`, and the one-form
# summed pair by pair; every scaled term and every sum drops an exact 0, as
# LadderElem._make does
GENERATOR_IMAGES = {
    "a": LadderElem({(AP,): 1.0, (AM,): 1.0}),
    "a*": LadderElem({(APS,): 1.0, (AMS,): 1.0}),
    "b": LadderElem({(BP,): 1.0, (BM,): 1.0}),
    "b*": LadderElem({(BPS,): 1.0, (BMS,): 1.0}),
}


def scaled(c, words: dict) -> dict:
    c = complex(c)
    return {w: c * v for w, v in words.items() if c * v != 0}


def summed(total: dict, term: dict) -> dict:
    out = dict(total)
    for w, c in term.items():
        out[w] = out.get(w, 0.0) + c
    return {w: c for w, c in out.items() if c != 0}


def rep_by_products(x):
    total = {}
    for (i, j, k), c in x.coeffs.items():
        names = ["a" if i >= 0 else "a*"] * abs(i) + ["b"] * j + ["b*"] * k
        acc = LadderElem({(): 1.0})
        for name in names:
            acc = acc @ GENERATOR_IMAGES[name]
        total = summed(total, scaled(c, acc.words))
    return LadderElem._make(total)


def one_form_by_sums(pairs):
    """The one-form's word table summed pair by pair, and whether some
    word's running sum or scaled term was exactly 0 on the way, which drops
    the word."""
    total, cancelled = {}, False
    for x, y, c in pairs:
        if c != 0 and x.coeffs and y.coeffs:
            term = (rep_by_products(x) @ delta_ladder(rep_by_products(y))).words
            part = scaled(c, term)
            new = summed(total, part)
            cancelled |= (len(part) < len(term)
                          or len(new) < len(total | part))
            total = new
    return total, cancelled


def parse_by_sums(doc):
    """The monomial table of a polynomial document summed monomial by
    monomial, and whether some running sum was exactly 0 on the way."""
    coeffs, cancelled = {}, False
    for mono in doc:
        m = (mono.get("a", 0), mono.get("b", 0), mono.get("bstar", 0))
        part = mono.get("coeff", {"re": 1.0, "im": 0.0})
        table = dict(coeffs)
        table[m] = table.get(m, 0.0) + complex(part["re"], part["im"])
        coeffs = PBWElem(table).coeffs
        cancelled |= len(coeffs) < len(table)
    return coeffs, cancelled


def exact(table):
    # repr tells -0.0 from 0.0
    return [(key, repr(c)) for key, c in table.items()]


PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200])
COEFFS = st.fixed_dictionaries({"re": PARTS, "im": PARTS})
POLYNOMIALS = st.lists(st.fixed_dictionaries(
    {"a": st.integers(-2, 2), "b": st.integers(0, 1),
     "bstar": st.integers(0, 1), "coeff": COEFFS}), max_size=3)
ONE_FORMS = st.lists(st.fixed_dictionaries(
    {"x": POLYNOMIALS, "y": POLYNOMIALS, "coeff": COEFFS}), max_size=3)


def power(i, re=1.0, im=0.0):
    return {"a": i, "coeff": {"re": re, "im": im}}


class TestOnePassExpansion:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ONE_FORMS)
    @example([{"x": [{}], "y": [power(1)]}])  # the constant monomial
    @example([{"x": [power(1, -0.0, 1.0), power(-1, 1.0, -0.0)],
               "y": [power(2, -0.0, -0.0), power(0, 0.0, -1.0)],
               "coeff": {"re": -0.0, "im": 2.0}}])
    @example([{"x": [power(1), power(1, -1.0), {"b": 1}, power(1, 2.0)],
               "y": [{"bstar": 1}, {"bstar": 1}, power(-2)]}])
    @example([{"x": [power(1)], "y": [power(2)]},
              {"x": [power(2)], "y": [power(1)],
               "coeff": {"re": -2.0, "im": 0.0}}])
    @example([{"x": [power(1)], "y": [power(2)]},
              {"x": [power(2)], "y": [power(1)],
               "coeff": {"re": -2.0, "im": 0.0}},
              {"x": [power(1)], "y": [power(2)]}])
    @example([{"x": [power(1, 1e-200)], "y": [power(-1)],
               "coeff": {"re": 1e-200, "im": 0.0}}])
    def test_matches_generator_products(self, one_form):
        # equal word -> coefficient maps, bit for bit; the same order too,
        # except where the summed route dropped a word whose running sum
        # hit exactly 0 and appended it again later
        _, pairs = load_one_form({"one_form": one_form})
        for item, (x, y, _) in zip(one_form, pairs):
            for doc, poly in ((item["x"], x), (item["y"], y)):
                ref, cancelled = parse_by_sums(doc)
                assert sorted(exact(poly.coeffs)) == sorted(exact(ref))
                if not cancelled:
                    assert exact(poly.coeffs) == exact(ref)
                assert (exact(rep_ladder(poly).words)
                        == exact(rep_by_products(poly).words))
        got = one_form_from_pairs(pairs)
        ref, cancelled = one_form_by_sums(pairs)
        assert sorted(exact(got.words)) == sorted(exact(ref))
        if not cancelled:
            assert exact(got.words) == exact(ref)

    def test_cancelled_word_keeps_its_place(self):
        # a key whose running sum hits exactly 0 stays where it first
        # appeared, in a polynomial's table and in a one-form's
        _, [(x, _, _)] = load_one_form({"one_form": [
            {"x": [power(1), {"b": 1}, power(1, -1.0), power(1, 3.0)],
             "y": [power(2)]}]})
        assert list(x.coeffs.items()) == [((1, 0, 0), 3.0), ((0, 1, 0), 1.0)]
        _, pairs = load_one_form({"one_form": [
            {"x": [power(1)], "y": [power(2)]},
            {"x": [power(2)], "y": [power(1)],
             "coeff": {"re": -2.0, "im": 0.0}},
            {"x": [power(1)], "y": [power(2)]}]})
        # the second pair cancels each word of the first
        first = delta_one_form(gen("a"), PBWElem({(2, 0, 0): 1.0}))
        got = one_form_from_pairs(pairs)
        assert list(got.words)[:len(first.words)] == list(first.words)
        ref, cancelled = one_form_by_sums(pairs)
        assert cancelled and list(ref) != list(got.words)
        assert got.words == ref


def tau0_in_place(leg, side, q) -> tuple:
    """tau0 with each root, power and 1 - q^j evaluated where it is used,
    the head through leg_diag_coeff's walk: the route that the tables of a
    QContext replace.  Returns (value, bound, size) and the head terms."""
    if leg_shift(leg) != 0:
        return (0.0, 0.0, 0.0), []
    length = len(leg)
    t1 = tau1(leg)
    head = [leg_diag_coeff(leg, side, n, q) - t1 for n in range(length)]
    scale, nb, d, ys = 1.0, 0, 0, [1.0]
    for letter in reversed(leg):
        if letter == "a":
            d += 1
            r = q ** (2 * (d + length))
            ys.append(0.0)
            for k in range(len(ys) - 1, 0, -1):
                ys[k] -= r * ys[k - 1]
        elif letter == "a*":
            d -= 1
        else:
            scale *= q ** (d + length) if side == "+" else -q ** (d + length)
            nb += 1
    log_q = math.log(q)
    tail = [scale * c / -math.expm1((nb + 2 * k) * log_q)
            for k, c in enumerate(ys) if nb + 2 * k]
    value = math.fsum(head + tail)
    tail_size = sum(map(abs, tail))
    bound = EPS * ((2 * length + 1) * length
                   + (2 * (len(ys) - 1) + 2 * nb + 5) * tail_size
                   + abs(value))
    return (value, bound, (1.0 + t1) * length + tail_size), head


def bits(values) -> list:
    # float.hex tells -0.0 from 0.0
    return [float(x).hex() for x in values]


class TestPerOpTables:
    @pytest.mark.parametrize("q", [1e-300, 0.05, 0.5, 0.9995])
    def test_tau0_is_the_in_place_walk_bit_for_bit(self, q, monkeypatch):
        # every zero-shift word up to length 8, on both sides, through one
        # context whose tables grow with the words; tau0 hands fsum its
        # head terms f(n) - tau1 first, and each must be the walk's,
        # signed zeros included
        sums = []
        fsum = math.fsum

        def recorded(terms):
            sums.append(list(terms))
            return fsum(terms)

        monkeypatch.setattr(math, "fsum", recorded)
        ctx = QContext(q)
        for length in range(9):
            for leg in product(("a", "a*", "b", "b*"), repeat=length):
                if leg_shift(leg):
                    continue
                for side in "+-":
                    sums.clear()
                    got = tau0(leg, side, ctx)
                    expected, head = tau0_in_place(leg, side, q)
                    assert bits(sums[0][:length]) == bits(head), (leg, side)
                    assert bits(got) == bits(expected), (leg, side)

    def test_tables_are_fresh_evaluations(self):
        q = 0.7
        log_q = math.log(q)
        grown, whole = QContext(q), QContext(q)
        for length in (2, 1, 5, 3, 8):
            grown.fill(length)
        whole.fill(8)
        # what tau0 reads on a leg of length 8: at most 4 a steps lift it
        assert [len(whole.roots), len(whole.powers), len(whole.gaps)] == [
            12, 25, 9]
        for ctx in (grown, whole):
            assert bits(ctx.roots) == bits(
                math.sqrt(1.0 - q ** (2 * k)) for k in range(12))
            assert bits(ctx.powers) == bits(q ** k for k in range(25))
            assert bits(ctx.gaps) == bits(
                -math.expm1(j * log_q) for j in range(9))
        for name in ("roots", "powers", "gaps"):
            assert getattr(grown, name) is not getattr(whole, name)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ONE_FORMS, st.sampled_from([0.05, 0.5, 0.9995]))
    @example([{"x": [power(-1)], "y": [power(1)]}], 0.5)  # a* da
    @example([{"x": [{"bstar": 1}], "y": [{"b": 1}]}], 0.5)  # b* db
    def test_integrals_match_the_unpruned_sums(self, one_form, q):
        # weight 1 skips the terms whose legs do not both have zero shift,
        # and the squares of A keep only their products of degree zero;
        # both give the bits of the full sums
        _, pairs = load_one_form({"one_form": one_form})
        A = one_form_from_pairs(pairs)
        ctx = QContext(q)

        def every_term(p, m):
            a, ea, sa = tau0(p, "+", ctx)
            b, eb, sb = tau0(m, "-", ctx)
            ab = 2.0 * a * b
            t11 = 0.5 * tau1(p) * tau1(m)
            e = 2.0 * (abs(a) * eb + ea * abs(b) + ea * eb) + EPS * abs(ab)
            return ab - t11, e, 2.0 * sa * sb + t11

        rt = hopf_r(A)
        assert repr(_image_integral(rt, 1, ctx)) == repr(
            _tau_sum(rt, ctx, every_term))
        words = {}
        for clean in (PLUS_LEG_CLEAN, MINUS_LEG_CLEAN):
            part = LadderElem._make({w: c for w, c in A.words.items()
                                     if clean.issuperset(w)})
            words.update((part @ part).words)
        square = hopf_r(LadderElem._make(words))
        assert repr(_integral_weight2_square(A, ctx)) == repr(
            _image_integral(square, 2, ctx))
