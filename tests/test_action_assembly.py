import importlib.util
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, interpolate
from scipy.linalg.lapack import dgtsv

from ncspectral import action_assembly
from ncspectral.action_assembly import (
    MAX_TABLE_K,
    CutoffMoments,
    DivergentMomentError,
    ExpansionReport,
    _erfcx,
    _gtsv,
    _not_a_knot,
    assemble,
    cutoff_moments,
    load_action,
)
from ncspectral.oracles import moment_quadrature


class TestCutoffMoments:
    def test_exponential_analytic(self):
        m = cutoff_moments({"family": "exponential"}, [1, 2, 3, 4])
        assert m.phi0 == 1.0
        assert m.phi(2) == pytest.approx(0.5)
        assert m.phi(3) == pytest.approx(math.sqrt(math.pi) / 4)
        assert m.phi(4) == pytest.approx(0.5)
        assert m.provenance[2] == "analytic"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_quadrature_matches_gamma(self, k):
        val, err = moment_quadrature(lambda t: math.exp(-t), k)
        assert val == pytest.approx(0.5 * math.gamma(k / 2.0), abs=1e-8)
        assert err < 1e-8

    def test_gaussian_family(self):
        m = cutoff_moments({"family": "gaussian"}, [2])
        val, _ = moment_quadrature(lambda t: math.exp(-t * t), 2)
        assert m.phi(2) == pytest.approx(val, abs=1e-10)

    def test_callable_rejected(self):
        # adaptive quadrature of a cutoff function is an oracle only
        with pytest.raises(ValueError, match="family dict or a table dict"):
            cutoff_moments(lambda t: math.exp(-t), [2, 3])

    def test_tabulated_cutoff(self):
        ts = np.linspace(0.0, 30.0, 400)
        table = [[t, math.exp(-t)] for t in ts]
        m = cutoff_moments({"table": table}, [2, 4])
        assert m.phi(2) == pytest.approx(0.5, abs=1e-6)
        assert m.phi(4) == pytest.approx(0.5, abs=1e-6)
        assert m.phi0 == pytest.approx(1.0)

    def test_step_like_cutoff_passes_phi0_through(self):
        # smoothed indicator: Phi(0) = 1 regardless of the decay profile
        ts = np.linspace(0.0, 4.0, 200)
        table = [[t, 1.0 / (1.0 + math.exp(40 * (t - 1.0)))] for t in ts]
        m = cutoff_moments({"table": table}, [2])
        assert m.phi0 == pytest.approx(1.0, abs=1e-6)

    def test_divergent_moment_rejected(self):
        with pytest.raises(DivergentMomentError):
            moment_quadrature(lambda t: math.exp(-t), 0)

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    @pytest.mark.parametrize("k", [0, -1, -2, math.nan])
    def test_family_moment_at_non_positive_k_diverges(self, family, k):
        # Gamma(k/2) is -1.77 at k = -1 and has poles at k = 0, -2
        with pytest.raises(DivergentMomentError, match="k > 0"):
            cutoff_moments({"family": family}, [2, k])

    def test_growing_table_rejected(self):
        table = [[t, math.exp(t)] for t in np.linspace(0, 5, 50)]
        with pytest.raises(DivergentMomentError):
            cutoff_moments({"table": table}, [2])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cutoff_moments({"family": "boxcar"}, [2])

    def test_scaling_property(self):
        base = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        scaled = cutoff_moments(
            {"family": "exponential", "params": {"scale": 3.0}}, [1, 2, 3])
        assert scaled.phi0 == pytest.approx(3.0 * base.phi0)
        for k in (1, 2, 3):
            assert scaled.phi(k) == pytest.approx(3.0 * base.phi(k))


def _table_model_oracle(ts, vs, k):
    """Phi_k of the table model by adaptive quadrature of the spline on each
    knot interval, the constant head in closed form and the exponential tail
    through mpmath's incomplete gamma."""
    spline = interpolate.CubicSpline(ts, vs)
    alpha = k / 2.0 - 1.0
    pieces = []
    for a, b in zip(ts[:-1], ts[1:]):
        if a == 0.0:  # t^alpha is singular at 0 for k = 1: algebraic weight
            val, _ = integrate.quad(lambda t: 0.5 * spline(t), a, b,
                                    weight="alg", wvar=(alpha, 0.0),
                                    epsabs=0.0, epsrel=1e-13, limit=200)
        else:
            val, _ = integrate.quad(lambda t: 0.5 * spline(t) * t ** alpha,
                                    a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        pieces.append(val)
    pieces.append(0.5 * vs[0] * ts[0] ** (k / 2.0) * 2.0 / k)
    lam = math.log(vs[-2] / vs[-1]) / (ts[-1] - ts[-2])
    with mpmath.workdps(30):
        x = mpmath.mpf(lam) * mpmath.mpf(ts[-1])
        pieces.append(float(0.5 * vs[-1] * mpmath.mpf(lam) ** (-k / 2.0)
                            * mpmath.exp(x) * mpmath.gammainc(k / 2.0, x)))
    return math.fsum(pieces)


def _check_table_moments(ts, vs):
    table = np.column_stack([ts, vs]).tolist()
    for k in range(1, 7):
        m = cutoff_moments({"table": table}, [k])
        ref = _table_model_oracle(np.asarray(ts), np.asarray(vs), k)
        err = abs(m.phi(k) - ref)
        assert err <= 1e-12 * abs(ref), (k, m.phi(k), ref)
        assert err <= m.error_bound, (k, err, m.error_bound)


@st.composite
def decaying_tables(draw):
    rows = draw(st.integers(4, 200))
    t0 = draw(st.sampled_from([0.0]) | st.floats(0.01, 3.0))
    spacing = draw(st.floats(0.05, 2.0))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=rows - 1,
                          max_size=rows - 1))
    drops = draw(st.lists(st.floats(0.0, 2.0), min_size=rows - 2,
                          max_size=rows - 2))
    # the last drop sets the fitted tail: steep, or flat enough that the
    # tail carries most of each moment
    last = draw(st.floats(1.0, 5.0) | st.floats(1e-3, 1e-2))
    ts = t0 + spacing * np.concatenate([[0.0], np.cumsum(steps)])
    vs = np.exp(-np.concatenate([[0.0], np.cumsum(drops + [last])]))
    return ts, vs


class TestTabulatedMoments:
    """The exact table route against adaptive quadrature of the same model."""

    # the oracle's quad warns of round-off on short intervals; its result is
    # still checked against the table route at 1e-12
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(decaying_tables())
    def test_against_interval_quadrature(self, table):
        _check_table_moments(*table)

    def test_gaussian_table_of_64_rows(self):
        # a tabulated Gaussian cutoff on which adaptive quadrature over the
        # whole range was off by 1.7e-8 in Phi_2, beyond its own estimate
        end = 2.225491582864285
        rate = 4.0 / end
        ts = np.linspace(0.0, end, 64)
        _check_table_moments(ts, np.exp(-(rate * ts) ** 2))

    def test_one_spline_and_no_adaptive_quadrature(self, monkeypatch):
        counts = {"splines": 0}

        def counting_spline(ts, vs):
            counts["splines"] += 1
            return _not_a_knot(ts, vs)

        def oracle_only(*args, **kwargs):
            raise AssertionError("an oracle route on the table route")

        monkeypatch.setattr(action_assembly, "_not_a_knot", counting_spline)
        monkeypatch.setattr(integrate, "quad", oracle_only)
        monkeypatch.setattr(interpolate, "CubicSpline", oracle_only)
        ts = np.linspace(0.0, 30.0, 100)
        cutoff_moments({"table": [[t, math.exp(-t)] for t in ts]},
                       [1, 2, 3, 4])
        assert counts == {"splines": 1}
        # a table starting past 0 takes Phi(0) = Phi(t0) from the table too
        cutoff_moments({"table": [[t, math.exp(-t)] for t in ts + 0.5]},
                       [1, 2, 3, 4])
        assert counts == {"splines": 2}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(decaying_tables())
    def test_moments_in_one_call_equal_one_k_at_a_time(self, table):
        # the rule sizes shared by k = 1, 2 and by k = 3, 4 change no bit
        rows = np.column_stack(table).tolist()
        together = cutoff_moments({"table": rows}, [1, 2, 3, 4])
        apart = [cutoff_moments({"table": rows}, [k]) for k in (1, 2, 3, 4)]
        assert together.values == {k: m.phi(k)
                                   for k, m in zip((1, 2, 3, 4), apart)}
        assert together.error_bound == max(m.error_bound for m in apart)

    def test_spline_coefficients_beyond_float_range_rejected(self):
        # knots 1e-200 apart: the slopes are near 1e200, the cubic
        # coefficients near 1e400
        table = [[0.0, 1.0], [1e-200, 0.5], [2e-200, 0.3], [3e-200, 0.1]]
        with pytest.raises(ValueError, match="spline coefficients overflow"):
            cutoff_moments({"table": table}, [2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        table = [[t, math.exp(-t)] for t in np.linspace(0.0, 10.0, 50)]
        table[7][1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            cutoff_moments({"table": table}, [2])

    def test_table_starting_past_zero_is_one_model(self):
        # Phi(0) and the moments both read Phi as Phi(t0) on [0, t0]: each
        # Phi_k is the head Phi(t0) t0^(k/2) / k plus the spline and tail
        ts = np.linspace(1.0, 30.0, 300)
        vs = np.exp(-ts)
        m = cutoff_moments({"table": np.column_stack([ts, vs]).tolist()},
                           list(range(1, 7)))
        assert m.phi0 == vs[0]
        for k in range(1, 7):
            assert m.phi(k) == pytest.approx(_table_model_oracle(ts, vs, k),
                                             rel=1e-12)

    def test_negative_abscissa_rejected(self):
        table = [[t, math.exp(-t)] for t in np.linspace(-1.0, 10.0, 50)]
        with pytest.raises(ValueError, match="nonnegative"):
            cutoff_moments({"table": table}, [2])

    @pytest.mark.parametrize("k", [0, -1, 1.5, math.nan])
    def test_non_positive_or_fractional_k_rejected(self, k):
        table = [[t, math.exp(-t)] for t in np.linspace(0.0, 10.0, 50)]
        with pytest.raises(DivergentMomentError):
            cutoff_moments({"table": table}, [2, k])

    def test_tail_beyond_float_range_is_divergent(self):
        # a nearly flat last drop makes the tail of Phi_64 about
        # Gamma(32) / lam^32 with lam ~ 1e-13, far beyond float range
        ts = np.linspace(0.0, 10.0, 20)
        vs = np.exp(-ts)
        vs[-1] = vs[-2] * (1.0 - 1e-13)
        table = np.column_stack([ts, vs]).tolist()
        with pytest.raises(DivergentMomentError, match="not finite"):
            cutoff_moments({"table": table}, [MAX_TABLE_K])

    def test_steep_tail_far_out_stays_finite(self):
        # X = lam tN ~ 6e10, so e^X Gamma(32, X) ~ X^31 is beyond float
        # range, while the moments are below 1e252
        ts = np.append(np.linspace(0.0, 1e8 - 1.0, 2000), 1e8)
        vs = np.exp(-ts / 1e7)
        vs[-1] = vs[-2] * 1e-250
        table = np.column_stack([ts, vs]).tolist()
        m = cutoff_moments({"table": table}, [MAX_TABLE_K - 1, MAX_TABLE_K])
        assert all(math.isfinite(v) for v in m.values.values())

    @pytest.mark.parametrize("k", [MAX_TABLE_K + 1, math.inf, 10 ** 400])
    def test_k_beyond_the_table_range_rejected(self, k):
        table = [[t, math.exp(-t)] for t in np.linspace(0.0, 10.0, 50)]
        with pytest.raises(ValueError, match="go up to"):
            cutoff_moments({"table": table}, [k])


def _benchmark_tables(seeds, outdir) -> list:
    """The cutoff tables of the benchmark's action ops, as `load_action`
    reads them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    tables = []
    for seed in seeds:
        for group in gen.generate("suq2-action", seed, outdir / str(seed)):
            for op in group["ops"]:
                if op["cmd"] == "action":
                    with open(op["argv"][-1]) as fh:
                        cutoff, *_ = load_action(json.load(fh))
                    tables.append(cutoff["table"])
    return tables


@st.composite
def increasing_tables(draw):
    rows = draw(st.integers(4, 200))
    t0 = draw(st.sampled_from([0.0]) | st.floats(0.0, 1e3))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=rows - 1,
                          max_size=rows - 1))
    vs = draw(st.lists(st.floats(-1e6, 1e6), min_size=rows, max_size=rows))
    return t0 + np.concatenate([[0.0], np.cumsum(steps)]), np.array(vs)


class TestNotAKnot:
    """The spline of the table route against scipy's CubicSpline, its oracle,
    coefficient for coefficient."""

    def test_benchmark_tables_of_seeds_1_to_5(self, tmp_path):
        tables = _benchmark_tables(range(1, 6), tmp_path)
        assert len(tables) == 50
        for table in tables:
            ts, vs = table[:, 0], table[:, 1]
            np.testing.assert_array_equal(
                _not_a_knot(ts, vs), interpolate.CubicSpline(ts, vs).c)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(increasing_tables() | decaying_tables())
    def test_increasing_tables(self, table):
        ts, vs = table
        np.testing.assert_array_equal(_not_a_knot(ts, vs),
                                      interpolate.CubicSpline(ts, vs).c)


# entries of every size and sign, exact zeros, and inf and NaN
_ENTRIES = (st.floats(-1e3, 1e3) | st.floats(allow_subnormal=False)
            | st.sampled_from([0.0, -0.0, 1.0, -2.0, math.inf, math.nan]))


@st.composite
def tridiagonal_systems(draw):
    """(dl, d, du, b) of an n x n system, n >= 2: dgtsv takes no n = 1."""
    n = draw(st.integers(2, 40))
    return tuple(draw(arrays(np.float64, size, elements=_ENTRIES)).tolist()
                 for size in (n - 1, n, n - 1, n))


class TestGtsv:
    """The spline's tridiagonal solve against LAPACK's dgtsv, its oracle,
    bit for bit.  Both routes overwrite their inputs, so each gets copies."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tridiagonal_systems())
    # no swap, then a swap at the last row: |2| < |-3|
    @example(([1.0, -3.0], [4.0, 3.0, 2.0], [1.0, 1.0], [1.0, 2.0, 3.0]))
    # a swap at every row: each pivot is below its sub-diagonal entry
    @example(([5.0, 7.0, 9.0], [1.0, 0.5, 0.25, 2.0], [2.0, -1.0, 3.0],
              [1.0, -1.0, 2.0, 0.5]))
    # a zero first pivot (info = 1) and a zero last pivot (info = 2)
    @example(([0.0], [0.0, 1.0], [1.0], [1.0, 1.0]))
    @example(([1.0], [1.0, 1.0], [1.0], [1.0, 2.0]))
    # a NaN pivot over a zero sub-diagonal entry: NaN / 0 in dgtsv
    @example(([0.0, 1.0], [math.nan, 1.0, 1.0], [1.0, 1.0],
              [1.0, 1.0, 1.0]))
    # 0 * inf in the back substitution's zero fill-in term: x = [nan, -inf,
    # inf], where leaving out that term would give inf first
    @example(([0.0, 0.0], [1.0, 1.0, 1e-300], [1.0, 1.0], [1.0, 1.0, 1e308]))
    def test_matches_dgtsv(self, system):
        *_, x, info = dgtsv(*(np.array(v) for v in system))
        if info > 0:
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                _gtsv(*(list(v) for v in system))
            return
        y = np.array(_gtsv(*(list(v) for v in system)))
        np.testing.assert_array_equal(y, x)
        numbers = ~np.isnan(x)
        np.testing.assert_array_equal(np.signbit(y[numbers]),
                                      np.signbit(x[numbers]))


def _erfcx_reference(x: float):
    """exp(x^2) erfc(x) at 40 digits; past 1e6, where mpmath's erfc fails,
    four terms of the asymptotic series, whose relative error is below
    105 / (16 x^8) < 1e-47."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x > 1e6:
            y = 1 / (2 * x * x)
            return ((1 - y + 3 * y * y - 15 * y ** 3)
                    / (x * mpmath.sqrt(mpmath.pi)))
        return mpmath.exp(x * x) * mpmath.erfc(x)


class TestErfcx:
    """The tail integral's erfcx against mpmath: within 8 units of 2^-53."""

    @pytest.mark.parametrize("xs", [
        np.linspace(0.0, 30.0, 3001),
        np.concatenate([[0.0], np.logspace(-300, 300, 601)]),
        [26.0, np.nextafter(26.0, 0.0), 25.9999999, 26.0000001]],
        ids=["0-30", "log-grid", "switch"])
    def test_against_mpmath(self, xs):
        worst = max(float(abs(_erfcx(float(x)) / _erfcx_reference(x) - 1))
                    for x in xs)
        assert worst <= 8 * 2.0 ** -53

    def test_infinity_gives_zero(self):
        assert _erfcx(math.inf) == 0.0


class TestAssemble:
    def setup_method(self):
        self.moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])

    def test_suq2_zero_fluctuation_shape(self):
        rep = assemble({3: 2.0, 2: 0.0, 1: -0.5}, 0.0, self.moments, 2.0)
        phi3 = math.sqrt(math.pi) / 4
        phi1 = math.sqrt(math.pi) / 2
        coeffs = {p: v for p, v, _ in rep.entries}
        assert coeffs[3] == pytest.approx(2 * phi3)
        assert coeffs.get(2, 0.0) == 0.0
        assert coeffs[1] == pytest.approx(-0.5 * phi1)
        assert rep.total == pytest.approx(2 * phi3 * 8 - 0.5 * phi1 * 2)

    def test_torus_n2_shape(self):
        m = cutoff_moments({"family": "exponential"}, [2])
        rep = assemble({2: 4 * math.pi}, 0.0, m, 5.0)
        assert rep.total == pytest.approx(4 * math.pi * 0.5 * 25)

    def test_all_zero(self):
        rep = assemble({3: 0.0, 2: 0.0, 1: 0.0}, 0.0, self.moments, 1.0)
        assert rep.total == 0.0

    def test_linearity_in_each_coefficient(self):
        base = assemble({3: 1.0, 2: 0.5, 1: -1.0}, 2.0, self.moments, 1.5)
        doubled = assemble({3: 2.0, 2: 0.5, 1: -1.0}, 2.0, self.moments, 1.5)
        delta = doubled.total - base.total
        assert delta == pytest.approx(self.moments.phi(3) * 1.0 * 1.5 ** 3)

    def test_strictly_decreasing_powers_enforced(self):
        with pytest.raises(ValueError):
            ExpansionReport(entries=[(1, 1.0, "a"), (2, 1.0, "b")], lam=1.0)

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError):
            assemble({1: 1.0}, 0.0, self.moments, -2.0)

    def test_report_serialization(self):
        rep = assemble({2: 1.0, 1: 1.0j}, 0.25, self.moments, 2.0)
        doc = rep.to_dict()
        assert doc["lambda"] == 2.0
        assert doc["terms"][0]["power"] == 2
        assert doc["terms"][1]["coefficient"] == {"re": 0.0,
                                                  "im": self.moments.phi(1)}
