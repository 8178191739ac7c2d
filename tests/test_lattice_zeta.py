import itertools
import math
import time

import mpmath
import numpy as np
import pytest

from ncspectral import lattice_zeta
from ncspectral.lattice_zeta import (
    CONTOUR_NODES,
    CONTOUR_RADIUS,
    ROUTE_CONTINUATION,
    ROUTE_L_SERIES,
    ROUTE_L_SERIES_EXTENDED,
    ROUTE_L_SERIES_MPMATH,
    ROUTE_QUADRATURE,
    EpsteinEvaluator,
    LatticePoly,
    PoleError,
    epstein_pole_fit,
    radial_counts,
    residue_lattice_sum,
    sphere_moment,
)
from ncspectral.oracles import (
    epstein_continuation,
    residue_direct_oracle,
    riemann_zeta,
    sphere_moment_quadrature,
    value_direct,
)

# Frozen by the direct-summation oracle (|k| <= 1e4 plus integral tail);
# agrees with the closed form 4*zeta(2)*Catalan.
Z2_AT_4 = 6.026812039691940


def _residue(n):
    # the area of S^{n-1} written out, independent of the residue calculus
    # that EpsteinEvaluator.residue goes through
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def test_radial_counts_small():
    counts = radial_counts(2, 8)
    assert counts[0] == 1
    assert counts[1] == 4
    assert counts[2] == 4
    assert counts[3] == 0
    assert counts[4] == 4
    assert counts[5] == 8


class TestEpsteinValue:
    def test_special_value_at_zero(self):
        for n in (2, 4, 3):
            assert EpsteinEvaluator(n).value(0).value.real == pytest.approx(
                -1.0, abs=1e-10)

    def test_against_direct_summation(self):
        assert EpsteinEvaluator(2).value(4).value.real == pytest.approx(
            Z2_AT_4, abs=1e-9)
        # recompute the oracle at a modest radius to show it is the same object
        assert value_direct(2, 4, 400).real == pytest.approx(Z2_AT_4, abs=1e-5)

    @pytest.mark.parametrize("n,s", [(3, 5.5), (4, 6.0), (2, 3.2)])
    def test_direct_vs_continued(self, n, s):
        assert EpsteinEvaluator(n).value(s).value.real == pytest.approx(
            value_direct(n, s, 150).real, abs=1e-6)

    def test_pole_raises(self):
        with pytest.raises(PoleError, match="pole at s = 2"):
            EpsteinEvaluator(2).value(2)

    def test_one_dimensional_case_is_twice_riemann(self):
        # Z_1(s) = 2 zeta(s): two independent continuations must agree
        ev = EpsteinEvaluator(1)
        for s in (0.0, -0.5, 0.5 + 1.0j, 3.0, 2.0 - 0.4j):
            assert ev.value(s).value == pytest.approx(2 * riemann_zeta(s),
                                                      abs=1e-9)

    def test_unreachable_tolerance_raises(self):
        from ncspectral.lattice_zeta import ToleranceError
        with pytest.raises(ToleranceError):
            EpsteinEvaluator(2, tol=1e-60).value(0.5)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            EpsteinEvaluator(7)
        with pytest.raises(ValueError):
            EpsteinEvaluator(0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            EpsteinEvaluator(2, tol=tol)

    @pytest.mark.parametrize("n", [2, 4])
    def test_functional_equation_sweep(self, n):
        ev = EpsteinEvaluator(n)
        errs = []
        for re in np.linspace(0.5, n - 0.5, 10):
            for im in (0.3, -0.7):
                s = complex(re, im)
                pref = complex(
                    mpmath.power(mpmath.pi, s - n / 2)
                    * mpmath.gamma((n - s) / 2) / mpmath.gamma(s / 2))
                errs.append(abs(ev.value(s).value
                                - pref * ev.value(n - s).value))
        assert max(errs) < 1e-8


def _oracle_tol(size):
    """1e-14, relative to the size of the value beyond 1: the oracle's bound
    holds the rounding to a double, and no double of size 300 is within
    1e-14 of the value."""
    return 1e-14 * max(1.0, abs(size))


def _oracle(n, s):
    """The mpmath incomplete-gamma route, tolerance floored at 1e-14."""
    return epstein_continuation(n, s, 1e-14)[0]


# the zeta-grid benchmark ops (seed 4242) that took the incomplete-gamma
# route before the L-series existed: (n, s, tol)
SHELL_OPS_SEED_4242 = (
    (4, 1.1972791107224947 - 15.62567225088153j, 1e-12),
    (4, 2.8027208892775053 + 15.62567225088153j, 1e-12),
    (2, 0.5219197816473828 - 14.788587618420292j, 1e-12),
    (2, 1.4780802183526172 + 14.788587618420292j, 1e-12),
    (2, 0.3061076322821719 - 24.973966693997696j, 1e-10),
    (2, 1.6938923677178281 + 24.973966693997696j, 1e-10),
)


def _rounding(v):
    """How far a complex double rounded to nearest can lie from the value
    it stands for: the modulus of half an ulp of each part."""
    return 0.5 * math.hypot(math.ulp(v.real), math.ulp(v.imag))


def _disc(n, s):
    """Where the L-series identities are 0 * inf and the quadrature stays."""
    return abs(s) < 0.1 or (n == 4 and abs(s - 2) < 0.1)


def _exact(x):
    """A float or a long double as the mpmath number it is exactly."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


# reflected points within 0.1 of the real axis; at the last two, three
# units in the last place of the factor's log Gamma terms fall short of its
# error, by 2.99 and 2.21 times
NEAR_AXIS = [(6, 2.828 + 0.047j), (4, 1.161 + 0.016j),
             (6, 2.942366735587086 - 0.07533177984533619j),
             (4, 0.8444815978890032 + 0.07547689355708395j)]


class TestEpsteinQuadrature:
    """The float64 routes, the extended-precision and the mpmath L-series
    against the mpmath incomplete-gamma route kept as their oracle."""

    @staticmethod
    def _check(n, s, tol):
        try:
            out = EpsteinEvaluator(n, tol=tol).value(s)
        except lattice_zeta.ToleranceError:
            # right only where no double is near enough: every route keeps
            # its error below 0.1 tol before the rounding to a double, and
            # the domain holds values that large (|Z_6(-6 + 25i)| is 3.5e6)
            value = epstein_continuation(n, s, 1e-3)[0]
            assert _rounding(value) >= 0.9 * tol
            return
        value, oracle_bound = epstein_continuation(
            n, s, _oracle_tol(out.value))
        err = abs(out.value - value)
        assert err <= tol
        # the float64 routes are kept below 0.1 tol; the extended and the
        # mpmath routes keep an error below 0.1 tol before they add the
        # rounding to a double
        rounding = 0.0
        if out.route in (ROUTE_L_SERIES_EXTENDED, ROUTE_L_SERIES_MPMATH,
                         ROUTE_CONTINUATION):
            rounding = _rounding(out.value)
        assert out.bound - rounding < 0.1 * tol
        assert out.bound < tol
        # both bounds hold, so their sum covers the difference
        assert err <= out.bound + oracle_bound, out.route
        if s == 0:
            assert out.value == -1.0
        elif s.imag == 0 and s.real < 0 and s.real % 2 == 0:
            assert out.value == 0.0

    def test_against_oracle(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        @st.composite
        def points(draw):
            n = draw(st.sampled_from([1, 2, 3, 4, 6]))
            s = complex(draw(st.floats(-6.0, n + 6.0)),
                        draw(st.floats(-25.0, 25.0)))
            return n, s

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(points(), st.sampled_from([1e-10, 1e-12]))
        # where the error of the quadrature came closest to its bound
        @example((2, 0.8289859647397578 + 0.07909216736459124j), 1e-10)
        @example((2, 1.324180109981516 - 0.6444870905344775j), 1e-10)
        @example((6, -3.2076551051187936 + 1.7465726266094035j), 1e-12)
        def run(point, tol):
            n, s = point
            if abs(s - n) < 0.05:
                return
            self._check(n, s, tol)

        run()

    def test_l_series_against_oracle(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        @st.composite
        def points(draw):
            n = draw(st.sampled_from([1, 2, 4, 6]))
            s = complex(draw(st.floats(-6.0, n + 6.0)),
                        draw(st.floats(-25.0, 25.0)))
            return n, s

        def with_examples(test):
            for n, s, tol in SHELL_OPS_SEED_4242:
                test = example((n, s), tol)(test)
            for n in (1, 2, 4, 6):
                for s in (0j, -2 + 0j, -4 + 0j, -6 + 0j):
                    test = example((n, s), 1e-12)(test)
            # a double lies within 5.1e-13 of Z_6 at -6 + 12i, and none
            # within 1e-10 of it at -6 + 25i
            test = example((6, -6 + 12j), 1e-12)(test)
            return example((6, -6 + 25j), 1e-10)(test)

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(points(), st.sampled_from([1e-10, 1e-12]))
        @with_examples
        def run(point, tol):
            n, s = point
            if abs(s - n) < 0.05:
                return
            self._check(n, s, tol)

        run()

    def test_l_series_bound_on_a_dense_grid(self):
        # the float64 and the extended tier alone, whatever the tolerance
        # would ask for; the extended value as the double it is reported as
        worst = 0.0
        for n in (1, 2, 4, 6):
            for re in np.linspace(-6.0, n + 6.0, 5):
                for im in (0.5, -6.0, 13.0, -22.0):
                    s = complex(re, im)
                    ref = None
                    for real in (float, np.longdouble):
                        value, bound = lattice_zeta._to_double(
                            *lattice_zeta._l_series(
                                n, s, lattice_zeta._arith(real)))
                        if ref is None:
                            ref, ref_bound = epstein_continuation(
                                n, s, _oracle_tol(value))
                        worst = max(worst,
                                    abs(value - ref) / (bound + ref_bound))
        assert worst <= 1.0

    def test_l_series_bound_near_the_real_axis(self):
        # reflected float64 points with |Im s| <= 0.1, NEAR_AXIS first,
        # against the mpmath L-series at 50 digits
        points = list(NEAR_AXIS)
        points += [(n, complex(re, im)) for n in (1, 2, 4, 6)
                   for re in np.linspace(-6.0, n / 2, 9, endpoint=False)
                   for im in (0.1, 0.047, 0.016, -0.003, -0.075)
                   if not _disc(n, complex(re, im))]
        worst = 0.0
        for n, s in points:
            value, bound = lattice_zeta._to_double(*lattice_zeta._l_series(
                n, s, lattice_zeta._arith(float)))
            with mpmath.workdps(50):
                ref = lattice_zeta._l_series_mpmath(n, mpmath.mpc(s))
                err = float(abs(mpmath.mpc(value) - ref))
            worst = max(worst, err / bound)
        assert worst <= 1.0

    def test_extended_bound_against_mpmath(self):
        # the extended tier before its rounding to a double, against the
        # mpmath L-series at 40 digits: its bound is mostly near 1e-17 of
        # the value, far below what the incomplete-gamma oracle can check
        ext = lattice_zeta._arith(np.longdouble)
        worst, relative = 0.0, []
        for n in (1, 2, 4, 6):
            for re in np.linspace(-6.0, n + 6.0, 7):
                for im in (0.5, -6.0, 13.0, -22.0):
                    s = complex(re, im)
                    value, bound = lattice_zeta._l_series(n, s, ext)
                    with mpmath.workdps(40):
                        ref = lattice_zeta._l_series_mpmath(n, mpmath.mpc(s))
                        err = abs(mpmath.mpc(_exact(value.real),
                                             _exact(value.imag)) - ref)
                    relative.append(float(bound) / max(1.0, abs(ref)))
                    worst = max(worst, float(err) / float(bound))
        assert worst <= 1.0
        assert np.median(relative) < 1e-16

    def test_reflection_bound_against_mpmath(self):
        # the functional-equation factor by itself, in both types, against
        # mpmath at 50 digits
        points = list(NEAR_AXIS)
        points += [(n, complex(re, im)) for n in (1, 2, 4, 6)
                   for re in np.linspace(-6.0, n / 2, 9, endpoint=False)
                   for im in (0.1, -0.003, 0.7, -6.0, 13.0, -22.0)
                   if not _disc(n, complex(re, im))]
        for real in (float, np.longdouble):
            arith = lattice_zeta._arith(real)
            for n, s in points:
                factor = lattice_zeta._reflection(n, s, arith)
                with mpmath.workdps(50):
                    ms = mpmath.mpc(s)
                    ref = (mpmath.power(mpmath.pi, ms - mpmath.mpf(n) / 2)
                           * mpmath.gamma((n - ms) / 2)
                           * mpmath.rgamma(ms / 2))
                    err = abs(mpmath.mpc(_exact(factor.value.real),
                                         _exact(factor.value.imag)) - ref)
                assert err <= float(factor.error), (real, n, s)

    def test_reflection_calls_no_mpmath(self, monkeypatch):
        arith = lattice_zeta._arith(np.longdouble)
        monkeypatch.setattr(lattice_zeta, "mp", None)
        factor = lattice_zeta._reflection(2, -4.3 + 0.7j, arith)
        assert factor.error < 1e-16 * abs(factor.value)

    def test_six_dimensional_strip_takes_the_extended_route(self):
        # n = 6, 0 <= Re s < 2, |Im s| > 4: the identity evaluated directly
        # cancels there; reflected, long double holds tol 1e-12
        ev = EpsteinEvaluator(6, tol=1e-12)
        for s in (0.5 + 12j, 0.1 - 11.7j, 1.1 + 21.4j, 6j):
            out = ev.value(s)
            assert out.route == ROUTE_L_SERIES_EXTENDED
            assert out.bound < 1e-12
            ref, ref_bound = ev._value_l_series_mpmath(s)
            assert abs(out.value - ref) <= out.bound + ref_bound

    def test_shell_ops_take_the_extended_route(self, monkeypatch):
        # the benchmark's --tol 1e-12 points that float64 cannot hold
        points = [(n, s) for n, s, tol in SHELL_OPS_SEED_4242 if tol == 1e-12]
        extended = {}
        for n, s in points:
            out = EpsteinEvaluator(n, tol=1e-12).value(s)
            assert out.route == ROUTE_L_SERIES_EXTENDED
            assert out.bound < 1e-12
            extended[n, s] = out.value
        # where long double is a plain double the mpmath L-series takes them
        monkeypatch.setattr(lattice_zeta, "_EXTENDED", float)
        for n, s in points:
            out = EpsteinEvaluator(n, tol=1e-12).value(s)
            assert out.route == ROUTE_L_SERIES_MPMATH
            assert abs(out.value - extended[n, s]) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_strip_takes_quadrature(self, n):
        # the strip stays in float64: the L-series for n in {1, 2, 4, 6},
        # the quadrature for n = 3 and in the discs around s = 0 and 2
        points = [complex(re, im) for re in np.linspace(0.0, n, 7)
                  for im in (-1.0, -0.4, 0.0, 0.5, 1.0)
                  if abs(complex(re, im) - n) >= 0.1]
        ev = EpsteinEvaluator(n, tol=1e-10)
        for s in points:
            out = ev.value(s)
            assert out.route == (ROUTE_QUADRATURE if n == 3 or _disc(n, s)
                                 else ROUTE_L_SERIES)
            assert out.bound < 1e-11

    def test_high_imaginary_part_falls_back(self, monkeypatch):
        # n = 3 has no L-series product, so the shells are its fallback;
        # one run counts the lattice points of all its shells once
        calls = []

        def counting(n, mmax):
            calls.append((n, mmax))
            return radial_counts(n, mmax)

        monkeypatch.setattr(lattice_zeta, "radial_counts", counting)
        s = 0.76 + 24.2j
        out = EpsteinEvaluator(3, tol=1e-10).value(s)
        assert calls == [(3, 408)]
        assert out.route == ROUTE_CONTINUATION
        assert out.bound < 1e-11
        assert out.value == pytest.approx(_oracle(3, s), abs=1e-10)

    def test_continuation_precision_follows_imaginary_part(self, monkeypatch):
        # the shells cancel by ~pi |Im s| / (4 ln 10) digits; at 30 fixed
        # digits this value came out as 5.2e68 + 1.9e69i
        s = 300j
        value, bound = epstein_continuation(2, s, 1e-10)
        monkeypatch.setattr(lattice_zeta, "_MP_DPS", 150)
        reference = epstein_continuation(2, s, 1e-10)[0]
        assert abs(value - reference) <= 1e-10
        assert bound < 1e-11

    def test_rounding_to_a_double_is_charged_once(self):
        # the nearest double and the most it can be off, half an ulp of
        # each part in modulus: 5.1e-13 at Z_6(-6 + 12i), so that tol 1e-12
        # is met there
        with mpmath.workdps(50):
            exact = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(-2) / 3)
            value, bound = lattice_zeta._to_double(exact, 1e-30)
            assert value == complex(1 / 3, -2 / 3)
            assert abs(exact - value) <= bound
        assert bound == 1e-30 + _rounding(value)
        value, bound = lattice_zeta._to_double(np.clongdouble(3e6 - 1j), 0.0)
        assert (value, bound) == (3e6 - 1j, _rounding(3e6 - 1j))
        out = EpsteinEvaluator(6, tol=1e-12).value(-6 + 12j)
        assert out.route == ROUTE_L_SERIES_MPMATH
        assert out.bound < 1e-12

    def test_mpmath_bounds_hold_the_rounding_to_a_double(self):
        from ncspectral.lattice_zeta import ToleranceError

        # both mpmath routes: |Z| is about 1e26 at s = -50 + i
        with pytest.raises(ToleranceError, match="no double holds"):
            epstein_continuation(3, -50 + 1j, 1e-10)
        with pytest.raises(ToleranceError, match="no double holds"):
            EpsteinEvaluator(2, tol=1e-10).value(-50 + 1j)
        # at a loose enough tolerance the bound is at least the rounding
        value, bound = epstein_continuation(3, -50 + 1j, 1e15)
        assert bound >= _rounding(value)
        assert 1e25 < abs(value) < 1e27

    @pytest.mark.parametrize("s", [-2.5 + 90j, 0.3 + 90j])
    def test_continuation_skips_empty_blocks(self, s):
        # for n = 1 most blocks of 8 shells past 16 hold no square, and the
        # equal approximations around such a block are no convergence (they
        # were 1.1e-3 and 2.7e-5 off here)
        value, bound = epstein_continuation(1, s, 1e-10)
        assert bound < 1e-11
        with mpmath.workdps(50):
            reference = 2 * mpmath.zeta(mpmath.mpc(s))
            assert abs(mpmath.mpc(value) - reference) <= bound

    def test_continuation_digit_ceiling(self, monkeypatch):
        from ncspectral.lattice_zeta import ToleranceError

        def no_shells(self, s, lo, hi, counts):
            raise AssertionError("a shell was computed")

        # 150 digits or more, so that s = 300i (118 digits) still runs
        assert lattice_zeta._GAMMAINC_MAX_DPS >= 150
        monkeypatch.setattr(EpsteinEvaluator, "_theta_shells", no_shells)
        with pytest.raises(ToleranceError, match="699 working digits"):
            epstein_continuation(3, 0.5 + 2000j, 1e-10)

    def test_l_series_needs_no_laguerre_tables(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("Laguerre tables built")

        monkeypatch.setattr(lattice_zeta, "_theta_rule", no_tables)
        for n in (1, 2, 4, 6):
            ev = EpsteinEvaluator(n)
            for s in (0.5 + 0.3j, n + 1.5, -3.0 + 0.2j):
                ev.value(s)
            epstein_pole_fit(n)

    def test_chain_and_hurwitz_bases_are_built_once(self, monkeypatch):
        # the routes are chosen once per evaluator, and the bases of the
        # Euler-Maclaurin head once per real type, 256 for each a
        def no_arith(*args):
            raise AssertionError("arithmetic looked up at a point")

        arith = lattice_zeta._arith(float)
        evaluators = [EpsteinEvaluator(n, tol=1e-12) for n in (1, 2, 4, 6)]
        monkeypatch.setattr(lattice_zeta, "_arith", no_arith)
        for ev in evaluators:
            for s in (0.5 + 0.3j, ev.n + 1.5, -3.0 + 0.2j, 0.76 + 24.2j):
                ev.value(s)
        assert {a: len(rows) for a, rows in arith.hurwitz_rows.items()} == {
            0.25: 256, 1: 256}

    def test_far_out_overflow_falls_back(self):
        # 4^(s/2) overflows float64 in beta at s = 2100, and long double
        # at s = 20000 (about 1e6020); numpy gives inf there, silently, and
        # mpmath takes the point
        import warnings

        out = EpsteinEvaluator(2).value(2100.0)
        assert out.route == ROUTE_L_SERIES_EXTENDED
        assert out.value == pytest.approx(4.0, rel=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = EpsteinEvaluator(2).value(20000.0)
        assert out.route == ROUTE_L_SERIES_MPMATH
        assert out.value == pytest.approx(4.0, rel=1e-15)

    def test_exact_special_values(self):
        for n in (2, 4):
            assert EpsteinEvaluator(n).value(0).value == -1.0
            assert EpsteinEvaluator(n).value(-2).value == 0.0


def _laguerre_reference(count: int, dps: int = 40) -> tuple:
    """Nodes and weights of the count-point Gauss-Laguerre rule at dps
    digits: numpy's nodes after six Newton steps on L_count."""
    with mpmath.workdps(dps):
        def last_two(order, u):
            prev, cur = mpmath.mpf(1), 1 - u
            for k in range(1, order):
                prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
            return prev, cur

        nodes, weights = [], []
        for u in np.polynomial.laguerre.laggauss(count)[0]:
            u = mpmath.mpf(u)
            for _ in range(6):
                prev, cur = last_two(count, u)
                u -= u * cur / (count * (cur - prev))
            nodes.append(u)
            weights.append(u / ((count + 1) * last_two(count + 1, u)[1]) ** 2)
        return nodes, weights


class TestSpecialFunctions:
    """The quadrature route's Laguerre rule and 1/Gamma against mpmath."""

    @pytest.mark.parametrize("count", lattice_zeta._LAGUERRE_NODES)
    def test_laguerre_rule_against_mpmath(self, count):
        # the nodes are the doubles nearest the reference (one unit where
        # long double is a plain double); scipy 1.17's weights are off by
        # up to 2.3e-13 (55 nodes) and 6.9e-13 (70) relative
        nodes, weights = lattice_zeta._laguerre_rule(count)
        ref_nodes, ref_weights = _laguerre_reference(count)
        ulps = 0 if np.finfo(np.longdouble).eps < np.finfo(float).eps else 1
        for node, ref in zip(nodes, ref_nodes):
            assert abs(node - float(ref)) <= ulps * math.ulp(node)
        assert max(float(abs(w / ref - 1))
                   for w, ref in zip(weights, ref_weights)) <= 1e-14

    def test_rgamma_within_its_bound(self):
        # z = s/2 + 1 over the quadrature domain Re s in [-6, n + 6],
        # |Im s| <= 25, n <= 6; the real axis takes math.gamma
        for re in np.linspace(-2.0, 7.0, 73):
            for im in (0.0, 1e-9, 0.01, -0.5, 1.3, -3.0, 6.1, -9.0, 12.5):
                z = complex(re, im)
                value, bound = lattice_zeta._rgamma(z)
                with mpmath.workdps(30):
                    ref = mpmath.rgamma(mpmath.mpc(z))
                    err = abs(mpmath.mpc(value) - ref)
                assert err <= bound * abs(ref), z

    def test_rgamma_exact_values(self):
        for pole in (0.0, -1.0, -2.0, -199.0):
            assert lattice_zeta._rgamma(complex(pole)) == (0.0, 0.0)
        assert lattice_zeta._rgamma(1 + 0j)[0] == 1.0


class TestEpsteinResidue:
    def test_closed_forms(self):
        assert _residue(2) == pytest.approx(2 * math.pi)
        assert _residue(4) == pytest.approx(2 * math.pi ** 2)
        assert _residue(3) == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pole_fit_agrees(self, n):
        assert epstein_pole_fit(n) == pytest.approx(_residue(n), abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_contour_residue(self, n):
        assert abs(epstein_pole_fit(n) - _residue(n)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_pole_fit_evaluates_one_point_at_a_time(self, n, monkeypatch):
        points = []
        value = EpsteinEvaluator.value

        def counted(self, s):
            points.append(s)
            return value(self, s)

        monkeypatch.setattr(EpsteinEvaluator, "value", counted)
        epstein_pole_fit(n)
        assert len(points) == CONTOUR_NODES
        assert all(abs(abs(s - n) - CONTOUR_RADIUS) < 1e-15 for s in points)


class TestSphereMoment:
    def test_reference_values(self):
        assert sphere_moment(2, (0, 0)) == pytest.approx(2 * math.pi)
        assert sphere_moment(2, (2, 0)) == pytest.approx(math.pi)
        assert sphere_moment(4, (2, 2, 0, 0)) == pytest.approx(math.pi ** 2 / 12)
        assert sphere_moment(4, (2, 0, 0, 0)) == pytest.approx(math.pi ** 2 / 2)

    def test_odd_exponent_vanishes(self):
        assert sphere_moment(2, (1, 0)) == 0.0
        assert sphere_moment(4, (1, 1, 1, 1)) == 0.0

    def test_against_quadrature(self):
        for n in (2, 3, 4):
            for p in itertools.product(range(5), repeat=n):
                if sum(p) > 6:
                    continue
                assert sphere_moment(n, p) == pytest.approx(
                    sphere_moment_quadrature(n, p), abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_constant_is_the_sphere_area_bit_for_bit(self, n):
        # so the --residue reports keep the closed form's bits
        area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
        assert sphere_moment(n, (0,) * n) == area
        assert EpsteinEvaluator(n).residue() == area

    def test_huge_exponent_overflows_at_once(self):
        # Gamma((n + |p|)/2) overflows before a half-integer product of
        # length |p|/2 could run
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            sphere_moment(1, (10 ** 12,))
        assert time.perf_counter() - start < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sphere_moment(2, (1,))
        with pytest.raises(ValueError):
            sphere_moment(2, (-2, 0))


class TestResidueLatticeSum:
    def test_quadratic_n2(self):
        for i, j in itertools.product(range(2), repeat=2):
            expo = [0, 0]
            expo[i] += 1
            expo[j] += 1
            poly = LatticePoly.monomial(2, expo)
            expected = math.pi if i == j else 0.0
            assert residue_lattice_sum(2, poly, 4).real == pytest.approx(
                expected, abs=1e-12)

    def test_quadratic_and_quartic_n4(self):
        assert residue_lattice_sum(
            4, LatticePoly.monomial(4, (2, 0, 0, 0)), 6).real == pytest.approx(
            math.pi ** 2 / 2, abs=1e-12)
        assert residue_lattice_sum(
            4, LatticePoly.monomial(4, (2, 2, 0, 0)), 8).real == pytest.approx(
            math.pi ** 2 / 12, abs=1e-12)
        assert residue_lattice_sum(
            4, LatticePoly.monomial(4, (1, 1, 1, 1)), 8) == 0

    def test_odd_exponent_gives_zero(self):
        assert residue_lattice_sum(2, LatticePoly.monomial(2, (1, 0)), 3) == 0

    def test_degree_mismatch_gives_zero(self):
        # r != n + d: no pole at s = 0, no residue
        assert residue_lattice_sum(2, LatticePoly.monomial(2, (2, 0)), 5) == 0

    def test_constant_term_recovers_epstein_residue(self):
        for n in (2, 3, 4):
            poly = LatticePoly.monomial(n, (0,) * n)
            assert residue_lattice_sum(n, poly, n).real == pytest.approx(
                _residue(n), abs=1e-14)

    def test_mixed_polynomial(self):
        poly = LatticePoly(2, [((2, 0), 1.0), ((0, 2), 1.0), ((1, 1), 5.0)])
        assert residue_lattice_sum(2, poly, 4).real == pytest.approx(2 * math.pi)

    def test_direct_summation_pole_fit_oracle(self):
        assert residue_direct_oracle(
            2, LatticePoly.monomial(2, (2, 0)), 4, radius=60) == pytest.approx(
            math.pi, abs=1e-5)
        assert residue_direct_oracle(
            2, LatticePoly.monomial(2, (1, 1)), 4, radius=60) == pytest.approx(
            0.0, abs=1e-6)
        assert residue_direct_oracle(
            4, LatticePoly.monomial(4, (2, 0, 0, 0)), 6, radius=22) == pytest.approx(
            math.pi ** 2 / 2, abs=1e-5)
        assert residue_direct_oracle(
            4, LatticePoly.monomial(4, (2, 2, 0, 0)), 8, radius=22) == pytest.approx(
            math.pi ** 2 / 12, abs=1e-5)


class TestRiemannZeta:
    def test_classical_values(self):
        assert riemann_zeta(2).real == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
        assert riemann_zeta(0).real == pytest.approx(-0.5, abs=1e-12)
        assert riemann_zeta(-2) == pytest.approx(0.0, abs=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            riemann_zeta(1.0)

    def test_complex_argument(self):
        v = riemann_zeta(0.5 + 14.134725141734693j)
        assert abs(v) < 1e-9  # first nontrivial zero


def test_lattice_poly_merges_duplicates():
    poly = LatticePoly(2, [((1, 0), 1.0), ((1, 0), 2.0), ((0, 1), 0.0)])
    assert poly.terms == [((1, 0), 3.0)]
